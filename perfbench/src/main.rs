//! End-to-end benchmark of the `mcloud` binary, with a traced in-process
//! replay for the per-layer breakdown. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --mcloud PATH --workload cold-mix|nearmiss-warm|campaign-plan|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). Any failed output check makes
//! the exit code 1.

mod drive;
mod inputs;
mod layers;
mod replay;
mod run;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use drive::{fresh_dir, CliRun};
use inputs::{campaign_round, Kind, Req, Sim};
use mcloud_cache::CacheCounters;
use replay::{Expect, Outcome, Replay};
use run::{Main, Run};

const WORKLOADS: [&str; 3] = ["cold-mix", "nearmiss-warm", "campaign-plan"];
/// End-to-end metrics printed but left out of the JSON result (and of
/// `BENCHMARK.json`): `failed_share` is 0 on every correct run (the JSON
/// carries it as `failed`/`attempted`), and `warm_p99_us` of a ~40 µs hit
/// is set by how often the OS or hypervisor deschedules the server for a
/// millisecond or more; on a shared 2-vCPU VM that swung it by more than
/// 2x between runs.
const UNGATED: [&str; 2] = ["warm_p99_us", "failed_share"];

struct Opts {
    mcloud: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        mcloud: PathBuf::new(),
        workload: String::new(),
        seed: 2008,
        seconds: 32.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--mcloud" => opts.mcloud = PathBuf::from(value),
            "--workload" => opts.workload = value.to_string(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !opts.mcloud.is_file() {
        return Err(format!(
            "--mcloud {:?} is not a built mcloud binary",
            opts.mcloud
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(opts)
}

/// Replays the whole run in-process; returns outcomes aligned with the
/// run's sessions and CLI runs, and the replay's wall time. With `lanes`
/// (CPUs) given, the cold session's results are first computed on one
/// thread per CPU. The e2e run is over by then, so this times nothing;
/// it only keeps a run's wall time close to `--seconds`.
fn replay(
    run: &Run,
    trace: bool,
    dir: PathBuf,
    lanes: &[usize],
) -> (Replay, Vec<Vec<Outcome>>, Vec<Outcome>, u64) {
    let mut rp = Replay::new(trace, dir);
    let start = Instant::now();
    if !lanes.is_empty() {
        let cold: Vec<&Sim> = run
            .sessions
            .iter()
            .flat_map(|s| &s.answers)
            .filter(|a| a.frame.kind == Kind::Cold)
            .filter_map(|a| match &a.frame.req {
                Req::Sim(sim) => Some(sim),
                _ => None,
            })
            .collect();
        rp.precompute(&cold, lanes);
    }
    // Each serve process starts with an empty memory tier; disk-backed
    // sessions share one directory, as the e2e run does.
    let sessions = run
        .sessions
        .iter()
        .map(|s| rp.session(&s.answers, &rp.cache(s.disk_tier)))
        .collect();
    let cli = run.cli.iter().map(|c| rp.cli(&c.cli, c.id)).collect();
    (rp, sessions, cli, start.elapsed().as_nanos() as u64)
}

/// Server cache counters from a `metrics` reply.
fn server_counters(response: &str) -> BTreeMap<String, u64> {
    let text = response.replace("\\n", "\n").replace("\\\"", "\"");
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("mcloud_cache_")) {
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.trim().parse::<f64>() {
                out.insert(name.to_string(), v as u64);
            }
        }
    }
    out
}

/// The server cache counters the output check compares with the replay's
/// private cache: short name, series in the `metrics` reply, and the
/// replay's value.
type CounterOf = fn(&CacheCounters) -> u64;
const SERVER_COUNTERS: [(&str, &str, CounterOf); 4] = [
    ("hits_mem", "mcloud_cache_hits_total{tier=\"mem\"}", |c| {
        c.hits_mem
    }),
    ("hits_disk", "mcloud_cache_hits_total{tier=\"disk\"}", |c| {
        c.hits_disk
    }),
    ("misses", "mcloud_cache_misses_total", |c| c.misses),
    ("computes", "mcloud_cache_computes_total", |c| c.computes),
];

/// The output check. Returns (attempted, failed) and prints each failure.
fn check(
    run: &Run,
    sessions: &[Vec<Outcome>],
    cli: &[Outcome],
    seed: u64,
    golden: &Path,
) -> (u64, u64) {
    let mut failed = 0u64;
    let mut fail = |what: String| {
        failed += 1;
        if failed <= 10 {
            eprintln!("output check failed: {what}");
        }
    };
    // Each scenario's first answer in single-query form.
    let mut first: HashMap<String, String> = HashMap::new();
    for (s, outs) in run.sessions.iter().zip(sessions) {
        for (a, o) in s.answers.iter().zip(outs) {
            if !a.response.starts_with("{\"ok\": true") {
                fail(format!(
                    "frame {} ({}) answered {}",
                    a.id,
                    a.frame.kind.name(),
                    a.response
                ));
                continue;
            }
            match &o.expect {
                Expect::Bytes(want) if *want != a.response => fail(format!(
                    "frame {} ({}) differs from the in-process replay",
                    a.id,
                    a.frame.kind.name()
                )),
                Expect::Counters(c) => {
                    let got = server_counters(&a.response);
                    for (_, series, value) in SERVER_COUNTERS {
                        let want = value(c);
                        if got.get(series) != Some(&want) {
                            fail(format!(
                                "{} session: server {series} = {:?}, replay {want}",
                                s.name,
                                got.get(series)
                            ));
                        }
                    }
                }
                _ => {}
            }
            // Warm and disk answers must equal the server's first answer
            // for the same scenario, byte for byte. A scenario first
            // answered inside a batch takes the replay's single-query
            // form, which the batch bytes were just checked against.
            if let Req::Sim(sim) = &a.frame.req {
                let repeat = matches!(a.frame.kind, Kind::Warm | Kind::Disk);
                match first.get(&sim.key()) {
                    Some(cold) if repeat && *cold != a.response => fail(format!(
                        "frame {} ({}) differs from its first answer",
                        a.id,
                        a.frame.kind.name()
                    )),
                    Some(_) => {}
                    None if repeat => fail(format!(
                        "frame {}: repeat of a scenario never answered",
                        a.id
                    )),
                    None => {
                        first.insert(sim.key(), a.response.clone());
                    }
                }
            } else {
                for (k, v) in &o.singles {
                    first.entry(k.clone()).or_insert_with(|| v.clone());
                }
            }
        }
    }
    for (c, o) in run.cli.iter().zip(cli) {
        let Expect::Bytes(want) = &o.expect else {
            continue;
        };
        if !c.ok || c.stdout != *want {
            fail(format!(
                "mcloud {} (run {}) differs from the in-process replay",
                c.cli.kind(),
                c.id
            ));
        }
        if c.cli == (inputs::Cli::Campaign { seed: 2008 }) && seed == 2008 {
            match std::fs::read_to_string(golden) {
                Ok(g) if g == c.stdout => {}
                Ok(_) => fail(format!("campaign differs from {}", golden.display())),
                Err(e) => fail(format!("reading {}: {e}", golden.display())),
            }
        }
    }
    let attempted =
        run.sessions.iter().map(|s| s.frames() as u64).sum::<u64>() + run.cli.len() as u64;
    (attempted, failed)
}

/// Counts that repeat exactly for a given seed: block 0 of each serve
/// session and round 0 of the CLI series.
fn exact_counts(run: &Run, sessions: &[Vec<Outcome>], cli: &[Outcome]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (s, outs) in run.sessions.iter().zip(sessions) {
        if s.name == "disk" {
            continue; // replays every block, so it scales with the run
        }
        let block0 = s.answers.iter().zip(outs).filter(|(a, _)| a.block == 0);
        let (mut tasks, mut events) = (0, 0);
        for (a, o) in block0 {
            tasks += o.tasks;
            events += o.events;
            if a.frame.kind == Kind::Metrics {
                let got = server_counters(&a.response);
                for (short, series, _) in SERVER_COUNTERS {
                    let v = got.get(series).copied().unwrap_or(0);
                    out.push((format!("{}.server.{short}", s.name), v));
                }
            }
        }
        out.push((format!("{}.tasks_generated", s.name), tasks));
        out.push((format!("{}.events", s.name), events));
    }
    let round0 = campaign_round(0, true).len();
    let mut sweep = BTreeMap::new();
    for (c, o) in run.cli.iter().zip(cli).take(round0) {
        for (k, v) in &o.extra {
            *sweep.entry(format!("{}.{k}", c.cli.kind())).or_insert(0) += v;
        }
        if o.events > 0 {
            *sweep.entry(format!("{}.events", c.cli.kind())).or_insert(0) += o.events;
        }
    }
    out.extend(sweep);
    out
}

/// Linear-interpolated percentile of unsorted samples.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn e2e_metrics(run: &Run, main: Main, failed: u64, attempted: u64) -> Result<Vec<Metric>, String> {
    let lat = |session: &str, kind: Kind, scale: f64| -> Vec<f64> {
        run.sessions
            .iter()
            .filter(|s| s.name == session)
            .flat_map(|s| &s.answers)
            .filter(|a| a.frame.kind == kind)
            .map(|a| a.latency_ns as f64 / scale)
            .collect()
    };
    let cold = lat("cold", Kind::Cold, 1e6);
    let near = lat("nearmiss", Kind::NearMiss, 1e6);
    let warm = lat("nearmiss", Kind::Warm, 1e3);
    let disk = lat("disk", Kind::Disk, 1e3);
    // A percentile is reported only with ten samples beyond it.
    for (name, v, p) in [
        ("cold", &cold, 0.9),
        ("nearmiss", &near, 0.9),
        ("warm", &warm, 0.99),
        ("disk", &disk, 0.5),
    ] {
        if ((1.0 - p) * v.len() as f64).round() < 10.0 {
            return Err(format!(
                "only {} {name} samples for p{}",
                v.len(),
                p * 100.0
            ));
        }
    }
    let qps_session = if main == Main::NearMiss {
        "nearmiss"
    } else {
        "cold"
    };
    let s = run
        .sessions
        .iter()
        .find(|s| s.name == qps_session)
        .expect("both serve sessions ran");
    let (qps_frames, qps) = s.frames_per_s();

    let cli_of = |kind: &'static str| run.cli.iter().filter(move |c| c.cli.kind() == kind);
    let campaign_rates: Vec<f64> = cli_of("campaign")
        .map(|c| {
            let offered: f64 = c
                .stdout
                .split_whitespace()
                .nth(1)
                .and_then(|n| n.parse().ok())
                .unwrap_or(0.0);
            offered / (c.wall_ns as f64 / 1e9)
        })
        .collect();
    let plan_ms: Vec<f64> = cli_of("plan").map(|c| c.wall_ns as f64 / 1e6).collect();
    // Sweep throughput per round: every sweep point of the round over the
    // round's summed sweep wall time.
    let points_per_sweep = mcloud_sweep::geometric_processors(inputs::SWEEP_MAX_PROCS).len() as f64;
    let sweeps: Vec<&CliRun> = cli_of("sweep").collect();
    let sweep_rates: Vec<f64> = sweeps
        .chunks(inputs::SWEEP_DEGREES.len())
        .map(|round| {
            let secs: f64 = round.iter().map(|c| c.wall_ns as f64 / 1e9).sum();
            points_per_sweep * round.len() as f64 / secs
        })
        .collect();
    let peak_kb = match main {
        Main::Cold => run
            .sessions
            .iter()
            .filter(|s| s.name == "cold")
            .map(|s| s.peak_rss_kb)
            .max(),
        Main::NearMiss => run
            .sessions
            .iter()
            .filter(|s| s.name != "cold")
            .map(|s| s.peak_rss_kb)
            .max(),
        Main::Campaign => run.cli.iter().map(|c| c.peak_rss_kb).max(),
    }
    .unwrap_or(0);
    let main_processes = match main {
        Main::Cold => 1,
        Main::NearMiss => 2,
        Main::Campaign => run.cli.len(),
    };
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    Ok(vec![
        m("cold_p50_ms", percentile(&cold, 0.5), "ms", cold.len()),
        m("cold_p90_ms", percentile(&cold, 0.9), "ms", cold.len()),
        m("nearmiss_p50_ms", percentile(&near, 0.5), "ms", near.len()),
        m("nearmiss_p90_ms", percentile(&near, 0.9), "ms", near.len()),
        m("warm_p50_us", percentile(&warm, 0.5), "us", warm.len()),
        m("warm_p99_us", percentile(&warm, 0.99), "us", warm.len()),
        m("disk_hit_p50_us", percentile(&disk, 0.5), "us", disk.len()),
        m("queries_per_s", qps, "1/s", qps_frames),
        m(
            "campaign_requests_per_s",
            percentile(&campaign_rates, 0.5),
            "1/s",
            campaign_rates.len(),
        ),
        m("plan_ms", percentile(&plan_ms, 0.5), "ms", plan_ms.len()),
        m(
            "sweep_points_per_s",
            percentile(&sweep_rates, 0.5),
            "1/s",
            sweep_rates.len(),
        ),
        m(
            "setup_s",
            percentile(&run.setup_s, 0.5),
            "s",
            run.setup_s.len(),
        ),
        m("peak_rss_mb", peak_kb as f64 / 1024.0, "MB", main_processes),
        m(
            "failed_share",
            failed as f64 / attempted as f64,
            "ratio",
            attempted as usize,
        ),
    ])
}

fn metrics_json(metrics: &[Metric], prefix: &str) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    items.join(", ")
}

/// Counts committed for the default seed; a mismatch is workload drift.
fn check_counts(workload: &str, counts: &[(String, u64)], file: &Path) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    let want: BTreeMap<&str, u64> = text
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some(w), Some(k), Some(v)) if w == workload => Some((k, v.parse().ok()?)),
                _ => None,
            }
        })
        .collect();
    let got: BTreeMap<&str, u64> = counts.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut drift = 0;
    for (k, v) in &want {
        if got.get(k) != Some(v) {
            eprintln!(
                "count drift: {workload} {k} = {:?}, committed {v}",
                got.get(k)
            );
            drift += 1;
        }
    }
    if want.is_empty() {
        eprintln!(
            "note: no committed counts for {workload} in {}",
            file.display()
        );
    }
    Ok(drift)
}

struct Outcomes {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run_workload(
    opts: &Opts,
    workload: &str,
    root: &Path,
    host: &str,
    cpus: &[usize],
) -> Result<Outcomes, String> {
    let work = fresh_dir(root.join(format!("{workload}-{}", std::process::id())))?;
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={} MCLOUD_WORKERS={} {host}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        drive::WORKERS,
    );
    let t = Instant::now();
    let run = run::e2e(&opts.mcloud, workload, opts.seed, opts.seconds, &work)?;
    eprintln!("e2e run took {:.1} s", t.elapsed().as_secs_f64());
    println!("mix seed={} {}", opts.seed, run.mix.summary());

    // With `--trace 1` the untraced replay stays on one thread, so that
    // `trace.overhead_share` compares like with like.
    let lanes = if opts.trace { &cpus[..0] } else { cpus };
    let (_, sessions, cli, untraced_ns) =
        replay(&run, false, fresh_dir(work.join("replay"))?, lanes);
    eprintln!("replay took {:.1} s", untraced_ns as f64 / 1e9);
    let golden = Path::new("crates/cli/tests/golden/service_campaign_year.txt");
    let (attempted, mut failed) = check(&run, &sessions, &cli, opts.seed, golden);
    let counts = exact_counts(&run, &sessions, &cli);
    for (k, v) in &counts {
        println!("count {workload} {k} {v}");
    }
    if opts.seed == 2008 {
        failed += check_counts(
            workload,
            &counts,
            Path::new("perfbench/counts_seed2008.txt"),
        )?;
    }

    let main = Main::of(workload);
    let mut by_size: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for a in run
        .sessions
        .iter()
        .filter(|s| s.name == "cold")
        .flat_map(|s| &s.answers)
    {
        if let Req::Sim(sim) = &a.frame.req {
            by_size
                .entry(sim.degrees)
                .or_default()
                .push(a.latency_ns as f64 / 1e6);
        }
    }
    let sizes: Vec<String> = by_size
        .iter()
        .map(|(d, v)| format!("{d}deg={:.3}ms(n={})", percentile(v, 0.5), v.len()))
        .collect();
    println!("cold p50 by size: {}", sizes.join(" "));
    let e2e = e2e_metrics(&run, main, failed, attempted)?;
    for m in &e2e {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    let metrics = if opts.trace {
        let (rp, _, _, traced_ns) = replay(&run, true, fresh_dir(work.join("replay-traced"))?, &[]);
        let path = root.join(format!("spans-{workload}.tsv"));
        rp.write_spans(&path)?;
        let recs = trace::read(&path)?;
        let latency: HashMap<u32, u64> = run
            .sessions
            .iter()
            .flat_map(|s| &s.answers)
            .map(|a| (a.id, a.latency_ns))
            .collect();
        let layer = layers::derive(&recs, &latency, traced_ns as f64 / untraced_ns as f64 - 1.0);
        println!("spans {} ({} spans)", path.display(), recs.len());
        for m in &layer {
            println!("layer {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        }
        layer
    } else {
        e2e.into_iter()
            .filter(|m| !UNGATED.contains(&m.name))
            .collect()
    };
    let _ = std::fs::remove_dir_all(&work);
    Ok(Outcomes {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread or child exists, so that all of them inherit it.
    let cpus = drive::allowed_cpus();
    let host = match cpus.first() {
        Some(&cpu) if drive::pin(cpu) => format!("nproc={nproc} cpu={cpu}"),
        _ => {
            eprintln!("perfbench: could not pin to one CPU; running unpinned");
            format!("nproc={nproc} cpu=unpinned")
        }
    };
    // The replay's worker pool gets the lane count the servers get.
    std::env::set_var("MCLOUD_WORKERS", drive::WORKERS);
    std::env::remove_var("MCLOUD_CACHE_DIR");
    std::env::remove_var("MCLOUD_CACHE_BYTES");
    let root = PathBuf::from(".bench_build/perfbench");
    let workloads: Vec<&str> = if opts.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![opts.workload.as_str()]
    };
    let mut total = Outcomes {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut parts = Vec::new();
    for w in &workloads {
        match run_workload(&opts, w, &root, &host, &cpus) {
            Ok(o) => {
                total.correct &= o.correct;
                total.attempted += o.attempted;
                total.failed += o.failed;
                let prefix = if workloads.len() > 1 {
                    format!("{w}/")
                } else {
                    String::new()
                };
                parts.push(metrics_json(&o.metrics, &prefix));
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.correct,
        total.attempted,
        total.failed,
        parts.join(", ")
    );
    if !total.correct {
        std::process::exit(1);
    }
}
