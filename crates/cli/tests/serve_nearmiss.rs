//! Differential test of `mcloud serve`'s workflow memo: a seeded session
//! of first touches, near-misses (same recipe, other processors, mode,
//! fault rate or bandwidth), exact repeats and `batch` frames with
//! duplicates, over recipes that together overflow the memo's task
//! budget. Every reply must be byte-identical to the report computed
//! from scratch with `report_json(&simulate(&generate(&cfg), &exec))`,
//! whether the server generated the workflow, took it from the memo, or
//! answered from its result cache.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};

use mcloud_core::{report_json, simulate, DataMode, ExecConfig, FaultModel, Provisioning};
use mcloud_dag::Workflow;
use mcloud_montage::{generate, Band, MosaicConfig};
use mcloud_simkit::SimRng;

/// The memo's task budget (`MEMO_TASKS` in the server).
const MEMO_TASKS: u64 = 1 << 15;

/// One workflow recipe: degrees, generator seed, band flag, region.
type Recipe = (f64, u64, &'static str, &'static str);

/// Seven recipes whose held total overflows the budget, plus one (16°)
/// the memo may never hold.
const RECIPES: [Recipe; 8] = [
    (1.0, 11, "j", "M17"),
    (2.0, 11, "h", "M17"),
    (4.0, 11, "j", "M31"),
    (8.0, 11, "j", "M17"),
    (8.0, 12, "k", "M17"),
    (2.0, 13, "j", "M101"),
    (8.0, 13, "j", "M17"),
    (16.0, 11, "j", "M17"),
];

/// The execution half of a scenario: processors, mode, fault rate and
/// bandwidth in Mbps.
type Exec = (u32, &'static str, f64, f64);

const PROCS: [u32; 4] = [1, 4, 16, 64];
const MODES: [&str; 3] = ["regular", "remote-io", "cleanup"];
const FAULT_RATES: [f64; 2] = [0.0, 0.01];
const BANDWIDTHS: [f64; 2] = [10.0, 100.0];

fn config(&(degrees, seed, band, region): &Recipe) -> MosaicConfig {
    let band = match band {
        "j" => Band::J,
        "h" => Band::H,
        _ => Band::K,
    };
    MosaicConfig::new(degrees)
        .seed(seed)
        .region(region)
        .band(band)
}

/// The exec config the server builds from a scenario's flags.
fn exec_config(&(procs, mode, fault_rate, mbps): &Exec) -> ExecConfig {
    let mode = match mode {
        "regular" => DataMode::Regular,
        "remote-io" => DataMode::RemoteIo,
        _ => DataMode::DynamicCleanup,
    };
    let mut cfg = ExecConfig::paper_default().mode(mode).bandwidth(mbps * 1e6);
    if fault_rate > 0.0 {
        cfg = cfg.with_fault_model(FaultModel {
            task_failure_prob: fault_rate,
            transfer_failure_prob: 0.0,
            proc_mttf_s: 0.0,
            seed: 2008,
        });
    }
    cfg.provisioning = Provisioning::Fixed { processors: procs };
    cfg
}

/// The scenario's `simulate` flags as JSON strings.
fn flags(
    &(degrees, seed, band, region): &Recipe,
    &(procs, mode, fault_rate, mbps): &Exec,
) -> String {
    let mut args = vec![
        "--degrees".to_string(),
        degrees.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--band".into(),
        band.into(),
        "--region".into(),
        region.into(),
        "--procs".into(),
        procs.to_string(),
        "--mode".into(),
        mode.into(),
        "--bandwidth-mbps".into(),
        mbps.to_string(),
    ];
    if fault_rate > 0.0 {
        args.extend(["--fault-rate".into(), fault_rate.to_string()]);
    }
    let quoted: Vec<String> = args.iter().map(|a| format!("\"{a}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// Computes replies from scratch, generating each recipe's workflow
/// once.
#[derive(Default)]
struct Oracle {
    workflows: HashMap<usize, Workflow>,
    reports: HashMap<String, String>,
}

impl Oracle {
    /// `report_json` of the scenario, trailing newline trimmed.
    fn report(&mut self, (r, exec): (usize, Exec)) -> String {
        let key = flags(&RECIPES[r], &exec);
        if let Some(doc) = self.reports.get(&key) {
            return doc.clone();
        }
        let wf = self
            .workflows
            .entry(r)
            .or_insert_with(|| generate(&config(&RECIPES[r])));
        let doc = report_json(&simulate(wf, &exec_config(&exec)))
            .trim_end()
            .to_string();
        self.reports.insert(key, doc.clone());
        doc
    }
}

/// One request: its payload and the scenarios it asks about.
struct Exchange {
    request: String,
    scenarios: Vec<(usize, Exec)>,
    batch: bool,
}

impl Exchange {
    /// The reply the request must get, computed from scratch.
    fn reply(&self, oracle: &mut Oracle) -> String {
        let reports: Vec<String> = self.scenarios.iter().map(|&s| oracle.report(s)).collect();
        if self.batch {
            format!("{{\"ok\": true, \"results\": [{}]}}\n", reports.join(", "))
        } else {
            format!("{{\"ok\": true, \"result\": {}}}\n", reports[0])
        }
    }
}

/// A seeded session over [`RECIPES`].
struct Session {
    rng: SimRng,
    /// Every scenario sent so far.
    sent: Vec<(usize, Exec)>,
    exchanges: Vec<Exchange>,
}

impl Session {
    fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn scenario(&mut self) -> (usize, Exec) {
        let exec = (
            PROCS[self.pick(PROCS.len())],
            MODES[self.pick(MODES.len())],
            FAULT_RATES[self.pick(FAULT_RATES.len())],
            BANDWIDTHS[self.pick(BANDWIDTHS.len())],
        );
        (self.pick(RECIPES.len()), exec)
    }

    fn sent_before(&mut self) -> (usize, Exec) {
        let i = self.pick(self.sent.len());
        self.sent[i]
    }

    fn simulate(&mut self, s: (usize, Exec)) {
        self.sent.push(s);
        self.exchanges.push(Exchange {
            request: format!(
                r#"{{"op": "simulate", "args": {}}}"#,
                flags(&RECIPES[s.0], &s.1)
            ),
            scenarios: vec![s],
            batch: false,
        });
    }

    fn batch(&mut self, entries: &[(usize, Exec)]) {
        self.sent.extend(entries);
        let scenarios: Vec<String> = entries
            .iter()
            .map(|(r, e)| flags(&RECIPES[*r], e))
            .collect();
        self.exchanges.push(Exchange {
            request: format!(
                r#"{{"op": "batch", "scenarios": [{}]}}"#,
                scenarios.join(", ")
            ),
            scenarios: entries.to_vec(),
            batch: true,
        });
    }
}

/// A seeded session: each recipe's first touch, then near-misses, exact
/// repeats and batches with duplicates in random order.
fn session(seed: u64) -> Vec<Exchange> {
    let mut s = Session {
        rng: SimRng::new(seed),
        sent: Vec::new(),
        exchanges: Vec::new(),
    };
    for r in 0..RECIPES.len() {
        let (_, exec) = s.scenario();
        s.simulate((r, exec));
    }
    for _ in 0..32 {
        match s.pick(8) {
            0 => {
                let again = s.sent_before();
                s.simulate(again);
            }
            1 => {
                let (a, b, again) = (s.scenario(), s.scenario(), s.sent_before());
                s.batch(&[a, b, a, again]);
            }
            _ => {
                let near = s.scenario();
                s.simulate(near);
            }
        }
    }
    s.exchanges
}

/// Runs `mcloud serve` over stdio on `payloads`; returns the reply
/// payloads and stderr.
fn serve(payloads: &[&str]) -> (Vec<String>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mcloud"))
        .arg("serve")
        .env_remove("MCLOUD_CACHE_DIR")
        .env_remove("MCLOUD_CACHE_BYTES")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mcloud serve");
    let mut input = String::new();
    for p in payloads {
        input.push_str(&format!("{}\n{p}", p.len()));
    }
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut replies = Vec::new();
    let mut header = String::new();
    while stdout.read_line(&mut header).unwrap() > 0 {
        let len: usize = header.trim().parse().expect("reply header");
        let mut payload = vec![0; len];
        stdout.read_exact(&mut payload).unwrap();
        replies.push(String::from_utf8(payload).unwrap());
        header.clear();
    }
    writer.join().unwrap().unwrap();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(child.wait().unwrap().success(), "{stderr}");
    (replies, stderr)
}

/// The value of an unlabelled series in a `metrics` reply.
fn series(metrics: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    metrics
        .split("\\n")
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("{name} missing: {metrics}"))
        .parse()
        .unwrap()
}

#[test]
fn nearmiss_replies_match_fresh_simulation() {
    let total: u64 = RECIPES[..7]
        .iter()
        .map(|r| config(r).expected_tasks())
        .sum();
    assert!(total > MEMO_TASKS, "{total}");
    assert!(config(&RECIPES[7]).expected_tasks() > MEMO_TASKS);

    let sessions: Vec<Vec<Exchange>> = [2008, 7].into_iter().map(session).collect();
    let payloads: Vec<Vec<&str>> = sessions
        .iter()
        .map(|exchanges| {
            let mut p: Vec<&str> = exchanges.iter().map(|e| e.request.as_str()).collect();
            p.push(r#"{"op": "metrics"}"#);
            p
        })
        .collect();
    // The servers run while the oracle computes the expected replies.
    let (served, expected) = std::thread::scope(|scope| {
        let servers: Vec<_> = payloads.iter().map(|p| scope.spawn(|| serve(p))).collect();
        let mut oracle = Oracle::default();
        let expected: Vec<Vec<String>> = sessions
            .iter()
            .map(|exchanges| exchanges.iter().map(|e| e.reply(&mut oracle)).collect())
            .collect();
        let served: Vec<_> = servers.into_iter().map(|h| h.join().unwrap()).collect();
        (served, expected)
    });

    for (s, ((replies, stderr), want)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(replies.len(), want.len() + 1, "{stderr}");
        for (i, (reply, want)) in replies.iter().zip(want).enumerate() {
            assert!(
                reply == want,
                "session {s}, frame {i}: {}\n got: {reply}\nwant: {want}",
                sessions[s][i].request
            );
        }

        let metrics = replies.last().unwrap();
        let hits = series(metrics, "mcloud_serve_workflow_memo_hits_total");
        let misses = series(metrics, "mcloud_serve_workflow_memo_misses_total");
        let held = series(metrics, "mcloud_serve_workflow_memo_held_tasks");
        assert!(hits > 0, "session {s}: no near-miss reused a workflow");
        // Every recipe misses at least once.
        assert!(misses >= RECIPES.len() as u64, "session {s}: {misses}");
        assert!(held <= MEMO_TASKS, "session {s}: {held}");
        assert!(
            stderr.contains(&format!(
                "simulated, {hits} workflows reused, {misses} generated, {held} tasks held)"
            )),
            "{stderr}"
        );
    }
}
