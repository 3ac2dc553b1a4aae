//! The in-process replay: the same inputs the e2e run sent, answered by
//! calling each layer's public function directly the way `mcloud` does.
//! Its outputs are the expected bytes of the output check; with tracing
//! on, every layer call sits in a span.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mcloud_cache::{
    decode_report, encode_report, CacheCounters, ResultCache, DEFAULT_BUDGET_BYTES,
};
use mcloud_core::{
    report_json, simulate, simulate_batch, BatchScratch, Digest, ExecConfig, Report, ScenarioRecipe,
};
use mcloud_cost::Money;
use mcloud_dag::Workflow;
use mcloud_montage::{generate, MosaicConfig};
use mcloud_service::{
    class_stream, plan_capacity_with_cache, plan_text, simulate_service_stream, AdmissionPolicy,
    Arrival, PlanSpec, ProfileTable, RateProfile, RequestClass, ServiceConfig,
};
use mcloud_simkit::NullSink;
use mcloud_sweep::{geometric_processors, processor_sweep_incremental_stats, Table};

use crate::drive::Answer;
use crate::inputs::{
    Cli, Kind, Req, Sim, CAMPAIGN_CLASSES, CAMPAIGN_HORIZON_H, PLAN_SLO_P99_H, SWEEP_MAX_PROCS,
};
use crate::trace::Tracer;

/// What the replay says a reply must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The exact reply payload.
    Bytes(String),
    /// The cache counters a `metrics` frame must report at that point.
    Counters(CacheCounters),
}

/// The replay's verdict on one e2e frame or CLI run, with the exact
/// counts it produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub expect: Expect,
    /// A batch's entries in single-query form, keyed by the scenario's
    /// flags.
    pub singles: Vec<(String, String)>,
    pub tasks: u64,
    pub events: u64,
    pub extra: Vec<(&'static str, u64)>,
}

impl Outcome {
    fn bytes(text: String) -> Outcome {
        Outcome {
            expect: Expect::Bytes(text),
            singles: Vec::new(),
            tasks: 0,
            events: 0,
            extra: Vec::new(),
        }
    }
}

fn single_form(report: &Report) -> String {
    format!(
        "{{\"ok\": true, \"result\": {}}}\n",
        report_json(report).trim_end()
    )
}

fn kernel_attrs(reports: &[&Report]) -> [(&'static str, f64); 4] {
    let sum = |f: fn(&Report) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    [
        ("events", sum(|r| r.events_processed)),
        ("pops", sum(|r| r.kernel.queue.popped)),
        (
            "peak_pending",
            reports
                .iter()
                .map(|r| r.kernel.queue.peak_pending)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("grants", sum(|r| r.kernel.pool_grants)),
    ]
}

/// A cache entry computed ahead of the replay, with its exact counts.
struct Computed {
    bytes: Vec<u8>,
    tasks: u64,
    events: u64,
}

pub struct Replay {
    pub tracer: Tracer,
    dir: PathBuf,
    cli_memo: HashMap<Cli, Outcome>,
    /// Entries from `precompute`, taken by the first miss of their key.
    ready: HashMap<String, Computed>,
}

impl Replay {
    /// `dir` holds this replay's disk tiers; it must be fresh.
    pub fn new(trace: bool, dir: PathBuf) -> Replay {
        Replay {
            tracer: Tracer::new(trace),
            dir,
            cli_memo: HashMap::new(),
            ready: HashMap::new(),
        }
    }

    /// Computes the cache entries of `sims` on one thread per CPU in
    /// `cpus`, the way a miss in `simulate` would, for the replay's misses
    /// to take. Untraced only: the entries come without spans.
    pub fn precompute(&mut self, sims: &[&Sim], cpus: &[usize]) {
        let lanes = cpus.len().max(1);
        let done: Vec<Vec<(String, Computed)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..lanes)
                .map(|lane| {
                    s.spawn(move || {
                        if let Some(&cpu) = cpus.get(lane) {
                            crate::drive::pin(cpu);
                        }
                        sims.iter()
                            .skip(lane)
                            .step_by(lanes)
                            .map(|sim| {
                                let scenario = sim.scenario();
                                let recipe = &scenario.recipe;
                                let wf =
                                    generate(&MosaicConfig::new(recipe.degrees).seed(recipe.seed));
                                let report = simulate(&wf, &scenario.exec);
                                let c = Computed {
                                    bytes: encode_report(&report),
                                    tasks: wf.num_tasks() as u64,
                                    events: report.events_processed,
                                };
                                (sim.key(), c)
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("precompute thread panicked"))
                .collect()
        });
        self.ready.extend(done.into_iter().flatten());
    }

    /// A fresh private cache: memory only, or backed by this replay's
    /// disk tier, which every disk-backed session shares (phase 2 reopens
    /// phase 1's tier).
    pub fn cache(&self, disk_tier: bool) -> ResultCache {
        let dir = disk_tier.then(|| self.dir.join("tier"));
        ResultCache::new(DEFAULT_BUDGET_BYTES, dir)
    }

    fn generate(&mut self, degrees: f64, seed: u64) -> Workflow {
        let s = self.tracer.begin("montage.generate");
        let wf = generate(&MosaicConfig::new(degrees).seed(seed));
        self.tracer.end(s, &[("tasks", wf.num_tasks() as f64)]);
        wf
    }

    /// Replays one serve session against its own private cache.
    pub fn session(&mut self, answers: &[Answer], cache: &ResultCache) -> Vec<Outcome> {
        answers
            .iter()
            .map(|a| {
                self.tracer.query(a.id);
                match &a.frame.req {
                    Req::Sim(sim) => self.simulate(sim, a.frame.kind, cache),
                    Req::Batch(sims) => self.batch(sims, cache),
                    Req::Metrics => Outcome {
                        expect: Expect::Counters(cache.counters()),
                        ..Outcome::bytes(String::new())
                    },
                }
            })
            .collect()
    }

    /// Mirrors the server's `simulate` op: digest, single-flight cache
    /// lookup (generate + simulate + encode on a miss), decode, render.
    fn simulate(&mut self, sim: &Sim, kind: Kind, cache: &ResultCache) -> Outcome {
        let q = self.tracer.begin("serve.query");
        let s = self.tracer.begin("core.digest");
        let scenario = sim.scenario();
        let key = scenario.digest();
        self.tracer.end(s, &[]);

        let before = cache.counters();
        let mut facts = (0u64, 0u64);
        let g = self.tracer.begin("cache.get_or_compute");
        let bytes = cache
            .get_or_compute(key, || {
                if let Some(c) = self.ready.remove(&sim.key()) {
                    facts = (c.tasks, c.events);
                    return Ok(c.bytes);
                }
                let wf = self.generate(scenario.recipe.degrees, scenario.recipe.seed);
                let s = self.tracer.begin("core.simulate");
                let report = simulate(&wf, &scenario.exec);
                self.tracer.end(s, &kernel_attrs(&[&report]));
                facts = (wf.num_tasks() as u64, report.events_processed);
                let s = self.tracer.begin("cache.encode");
                let bytes = encode_report(&report);
                self.tracer.end(s, &[("bytes", bytes.len() as f64)]);
                Ok(bytes)
            })
            .expect("the compute closure never fails");
        let after = cache.counters();
        let tier = if after.hits_mem > before.hits_mem {
            1.0
        } else if after.hits_disk > before.hits_disk {
            2.0
        } else {
            0.0
        };
        self.tracer.end(g, &[("tier", tier)]);

        let s = self.tracer.begin("cache.decode");
        let report = decode_report(&bytes).expect("cache entries decode");
        self.tracer.end(s, &[]);
        let s = self.tracer.begin("core.report_json");
        let text = single_form(&report);
        self.tracer.end(s, &[]);
        self.tracer.end(
            q,
            &[("deg", f64::from(sim.degrees)), ("kind", kind as u8 as f64)],
        );
        Outcome {
            tasks: facts.0,
            events: facts.1,
            ..Outcome::bytes(text)
        }
    }

    /// Mirrors the server's `batch` op: probe every scenario, then run
    /// the misses grouped by recipe through `simulate_batch`.
    fn batch(&mut self, sims: &[Sim], cache: &ResultCache) -> Outcome {
        let q = self.tracer.begin("serve.query");
        let mut keys: Vec<Digest> = Vec::with_capacity(sims.len());
        let mut scenarios = Vec::with_capacity(sims.len());
        for sim in sims {
            let s = self.tracer.begin("core.digest");
            let scenario = sim.scenario();
            keys.push(scenario.digest());
            self.tracer.end(s, &[]);
            scenarios.push(scenario);
        }
        let mut results: Vec<Option<Report>> = Vec::with_capacity(sims.len());
        for &key in &keys {
            let s = self.tracer.begin("cache.get");
            let hit = cache.get(key);
            let tier = if hit.is_some() { 1.0 } else { 0.0 };
            self.tracer.end(s, &[("tier", tier)]);
            results.push(hit.map(|bytes| {
                let s = self.tracer.begin("cache.decode");
                let report = decode_report(&bytes).expect("cache entries decode");
                self.tracer.end(s, &[]);
                report
            }));
        }
        // The benchmark never repeats a scenario inside one batch, so
        // grouping the misses needs no digest dedup.
        let mut groups: Vec<(ScenarioRecipe, Vec<usize>)> = Vec::new();
        for i in (0..sims.len()).filter(|&i| results[i].is_none()) {
            match groups.iter_mut().find(|(r, _)| *r == scenarios[i].recipe) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((scenarios[i].recipe.clone(), vec![i])),
            }
        }
        let (mut tasks, mut events) = (0u64, 0u64);
        let mut scratch = BatchScratch::new();
        for (recipe, idxs) in groups {
            let wf = self.generate(recipe.degrees, recipe.seed);
            tasks += wf.num_tasks() as u64;
            let cfgs: Vec<ExecConfig> = idxs.iter().map(|&i| scenarios[i].exec.clone()).collect();
            let s = self.tracer.begin("core.batch");
            let fresh = simulate_batch(&wf, &cfgs, &mut scratch);
            let refs: Vec<&Report> = fresh.iter().collect();
            let mut attrs = kernel_attrs(&refs).to_vec();
            attrs.push(("sims", fresh.len() as f64));
            self.tracer.end(s, &attrs);
            for (&i, report) in idxs.iter().zip(fresh) {
                events += report.events_processed;
                let s = self.tracer.begin("cache.encode");
                let bytes = encode_report(&report);
                self.tracer.end(s, &[("bytes", bytes.len() as f64)]);
                let s = self.tracer.begin("cache.insert");
                cache.insert(keys[i], bytes);
                self.tracer.end(s, &[]);
                results[i] = Some(report);
            }
        }
        let mut out = String::from("{\"ok\": true, \"results\": [");
        let mut singles = Vec::with_capacity(sims.len());
        for (i, (sim, report)) in sims.iter().zip(&results).enumerate() {
            let report = report.as_ref().expect("every entry answered");
            let s = self.tracer.begin("core.report_json");
            let json = report_json(report);
            self.tracer.end(s, &[]);
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(json.trim_end());
            singles.push((sim.key(), single_form(report)));
        }
        out.push_str("]}\n");
        self.tracer.end(q, &[("kind", Kind::Batch as u8 as f64)]);
        Outcome {
            singles,
            tasks,
            events,
            ..Outcome::bytes(out)
        }
    }

    /// Replays one CLI run; the expected stdout is what `mcloud` prints.
    /// Every round repeats the same commands, so each distinct command is
    /// replayed once.
    pub fn cli(&mut self, cli: &Cli, id: u32) -> Outcome {
        if let Some(done) = self.cli_memo.get(cli) {
            return done.clone();
        }
        self.tracer.query(id);
        let outcome = match *cli {
            Cli::Campaign { seed } => self.campaign(seed),
            Cli::Plan { seed } => self.plan(seed),
            Cli::Sweep { degrees, seed } => self.sweep(degrees, seed),
        };
        self.cli_memo.insert(cli.clone(), outcome.clone());
        outcome
    }

    fn campaign(&mut self, seed: u64) -> Outcome {
        let q = self.tracer.begin("cli.service");
        let classes: Vec<RequestClass> = CAMPAIGN_CLASSES
            .iter()
            .map(|&(degrees, rate_per_hour, priority)| RequestClass {
                rate_per_hour,
                degrees: f64::from(degrees),
                priority,
            })
            .collect();
        let mut profile = RateProfile::constant(1.0);
        profile.diurnal_amplitude = 0.6;
        profile.seasonal_amplitude = 0.25;
        let cfg = ServiceConfig {
            local_slots: 208,
            local_procs_per_request: 8,
            cloud_procs_per_request: 16,
            burst_threshold: None,
            exec: ExecConfig::paper_default(),
            local_cost_per_slot_hour: Money::ZERO,
            request_failure_prob: 0.0,
            request_retry_max: 0,
            fault_seed: 2008,
            queue_bound: Some(48),
            admission: AdmissionPolicy::Reject,
        };
        let mut arrivals = Timed {
            inner: class_stream(&classes, &profile, CAMPAIGN_HORIZON_H, seed),
            on: self.tracer.is_on(),
            busy_ns: 0,
            n: 0,
        };
        let s = self.tracer.begin("service.simulate");
        let start = Instant::now();
        let report = simulate_service_stream(&mut arrivals, &cfg, &mut NullSink, |_| {});
        let admitted = (report.local_requests() + report.cloud_requests()) as u64;
        let rejected = report.rejected_requests() as u64;
        self.tracer.aggregate(
            "service.arrivals",
            start,
            arrivals.busy_ns,
            &[("n", arrivals.n as f64)],
        );
        self.tracer.end(
            s,
            &[("admitted", admitted as f64), ("rejected", rejected as f64)],
        );
        self.tracer.end(q, &[]);

        let horizon = CAMPAIGN_HORIZON_H;
        let text = format!(
            "traffic         {} requests over {horizon:.0} h ({:.2}/h observed)\n\
             served          {} local, {} cloud\n\
             admission       {} rejected, {} deflected (queue bound {})\n\
             cloud spend     {}\n\
             waits           mean {:.2} h, max {:.2} h\n\
             turnaround      mean {:.2} h, p95 {:.2} h\n\
             p99             {:.2} h turnaround\n\
             backlog         mean {:.2}, peak {:.0}\n\n",
            report.offered(),
            report.offered() as f64 / horizon,
            report.local_requests(),
            report.cloud_requests(),
            report.rejected_requests(),
            report.deflected_requests(),
            cfg.queue_bound.unwrap_or(0),
            report.cloud_cost,
            report.mean_wait_hours(),
            report.max_wait_hours(),
            report.mean_turnaround_hours(),
            report.turnaround_quantile(0.95),
            report.turnaround_quantile(0.99),
            report.backlog_mean,
            report.backlog_peak,
        );
        Outcome {
            extra: vec![
                ("offered", report.offered() as u64),
                ("admitted", admitted),
                ("rejected", rejected),
            ],
            ..Outcome::bytes(text)
        }
    }

    fn plan(&mut self, seed: u64) -> Outcome {
        let q = self.tracer.begin("cli.plan");
        let mut spec = PlanSpec::new(PLAN_SLO_P99_H, 2.0, 168.0);
        spec.seed = seed;
        spec.modulation.diurnal_amplitude = 0.3;
        spec.modulation.seasonal_amplitude = 0.0;
        let candidates = spec.default_candidates();

        // The profile layer on its own: the (degrees x procs) grid the
        // planner warms before evaluating candidates.
        let s = self.tracer.begin("service.profile");
        let degrees: Vec<f64> = spec.classes.iter().map(|c| c.degrees).collect();
        let procs: Vec<u32> = candidates.iter().map(|c| c.procs_per_slot).collect();
        let mut table = ProfileTable::new(spec.exec.clone());
        table.warm_fixed(&degrees, &procs);
        self.tracer.end(s, &[("profiles", table.cached() as f64)]);

        // A fresh cache: the process-global one would turn a second plan
        // of the same spec into a replay of lookups.
        let s = self.tracer.begin("service.plan");
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let plan = plan_capacity_with_cache(&spec, candidates, &cache).expect("valid plan spec");
        self.tracer
            .end(s, &[("candidates", plan.candidates.len() as f64)]);
        self.tracer.end(q, &[]);
        Outcome {
            extra: vec![("candidates", plan.candidates.len() as u64)],
            ..Outcome::bytes(format!("{}\n", plan_text(&spec, &plan)))
        }
    }

    fn sweep(&mut self, degrees: u32, seed: u64) -> Outcome {
        let q = self.tracer.begin("cli.sweep");
        let wf = self.generate(f64::from(degrees), seed);
        let cfg = ExecConfig::paper_default().bandwidth(10.0 * 1e6);
        let ladder = geometric_processors(SWEEP_MAX_PROCS);
        let s = self.tracer.begin("sweep.incremental");
        let (points, stats) = processor_sweep_incremental_stats(&wf, &cfg, &ladder);
        let refs: Vec<&Report> = points.iter().map(|p| &p.report).collect();
        let mut attrs = kernel_attrs(&refs).to_vec();
        attrs.extend([
            ("points", stats.points as f64),
            ("resumed", stats.resumed as f64),
            ("reused_events", stats.reused_events as f64),
            ("total_events", stats.total_events as f64),
        ]);
        self.tracer.end(s, &attrs);
        self.tracer.end(q, &[]);

        let mut table = Table::new(vec![
            "procs",
            "cost",
            "hours",
            "events",
            "pops",
            "peak-pend",
            "grants",
        ]);
        for p in &points {
            let k = &p.report.kernel;
            table.push_row(vec![
                p.processors.to_string(),
                format!("{:.3}", p.report.total_cost().dollars()),
                format!("{:.3}", p.report.makespan_hours()),
                p.report.events_processed.to_string(),
                k.queue.popped.to_string(),
                k.queue.peak_pending.to_string(),
                k.pool_grants.to_string(),
            ]);
        }
        let events = points.iter().map(|p| p.report.events_processed).sum();
        Outcome {
            tasks: wf.num_tasks() as u64,
            events,
            extra: vec![("points", stats.points), ("resumed", stats.resumed)],
            ..Outcome::bytes(format!("{}\n", table.to_ascii()))
        }
    }

    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        self.tracer.write(path)
    }
}

/// Times the arrival stream's `next` calls when tracing is on.
struct Timed<I> {
    inner: I,
    on: bool,
    busy_ns: u64,
    n: u64,
}

impl<I: Iterator<Item = Arrival>> Iterator for Timed<I> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let item = if self.on {
            let t = Instant::now();
            let item = self.inner.next();
            self.busy_ns += t.elapsed().as_nanos() as u64;
            item
        } else {
            self.inner.next()
        };
        self.n += u64::from(item.is_some());
        item
    }
}
