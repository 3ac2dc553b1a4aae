//! The committed performance baseline: machine-readable engine throughput
//! and allocation budgets, plus the regression gate CI runs against them.
//!
//! `repro bench-json` measures every workload in [`workloads`] — the
//! paper's 1°/2°/4° mosaics plus the synthetic scale-up 8°/16° presets
//! (~12k/~49k tasks), each in all three data-management modes — and writes
//! `BENCH_baseline.json` at the workspace root. Two kinds of numbers are
//! recorded per workload:
//!
//! * **Deterministic**: tasks, engine events per simulation, allocation
//!   count / bytes / peak live bytes per simulation (from the
//!   [`crate::alloc`] counting allocator). Identical on every machine for
//!   a given source tree, so the CI gate compares them *strictly*: any
//!   increase over the committed baseline fails.
//! * **Environment-dependent**: simulations/sec and events/sec. These are
//!   gated tolerantly (fail only when more than 70% below baseline) so the
//!   gate catches order-of-magnitude regressions without flaking on
//!   machine noise.
//!
//! Schema v2 adds the batch-throughput columns:
//!
//! * `batch_allocs_per_sim` — allocations of one simulation on a *warm*
//!   [`SimScratch`] (deterministic; strictly gated, and capped at
//!   [`WARM_ALLOC_BUDGET`] for the paper-sized 1–4° workloads);
//! * `batch_sims_per_sec` — throughput of [`mcloud_core::simulate_batch`]
//!   over the persistent worker pool (environment-dependent; gated
//!   tolerantly, and only when the lane count matches the committed file);
//! * a top-level `workers`/`host_parallelism` pair recording the lane
//!   count and core count of the measuring machine, plus informational
//!   worker-count `scaling` rows for `1deg/regular`.
//!
//! When the measuring machine actually has parallelism to exploit
//! (`workers > 1` and `host_parallelism > 1`), the gate also requires
//! batch throughput to beat single-sim throughput by
//! [`BATCH_SPEEDUP_GATE`]× on the headline `1deg/regular` and
//! `4deg/regular` rows. Both sides of that ratio come from the *same*
//! measurement run, so the check never compares across machines.
//!
//! Schema v3 adds the throughput-*flatness* rows: per data mode, the ratio
//! of 1° to 16° events/sec. The paper's experiment is a size sweep, so the
//! simulator must not get slower *per event* as the mosaic grows; the
//! binary-heap/pointer-chasing kernel degraded ~12x from 1° to 16° on the
//! original baseline machine, while the cache-native kernel (calendar
//! queue + struct-of-arrays engine state) holds ~2x. Like the batch
//! speedup gate, both sides of the ratio come from the same run, so the
//! flatness gate is largely machine-independent; it fails when the ratio
//! exceeds the committed one by more than [`FLATNESS_TOLERANCE`]×.
//!
//! Schema v4 adds the kernel-counter columns from the engine's
//! self-telemetry ([`mcloud_core::KernelStats`]): calendar-queue pops,
//! cancellations, and peak pending events per simulation. All three are
//! deterministic — pure functions of the simulated event sequence — so the
//! gate compares them exactly, the same way it treats `events`: any drift
//! is a semantic change to the kernel, never noise.
//!
//! Schema v5 adds the service-scale row: a seeded streaming service
//! campaign (diurnal/seasonal/flash-modulated class mix through the
//! bounded-queue admission path) whose offered/admitted/rejected/deflected
//! counters are deterministic and exactly gated, plus a
//! `service_requests_per_sec` throughput column gated tolerantly like the
//! other wall-clock numbers.
//!
//! Schema v6 adds the incremental-sweep rows: dense processor axes walked
//! once from scratch and once through the checkpoint/fork chain
//! ([`mcloud_core::IncrementalChain`]), both single-threaded in the same
//! process. Two regimes are committed: `P = 1..=64` on the 4° mosaic
//! (wide workflow — adjacent points diverge within ~`P` events, so the
//! chain can only ever reuse a short prefix) and `P = 1..=256` on the 1°
//! mosaic (the axis extends past peak parallelism, so most points resume
//! from a terminal checkpoint with zero replay). The chain's resume/reuse
//! counters are deterministic and exactly gated (they pin the
//! witness/cadence semantics); the two points/sec columns are gated
//! tolerantly; and the `speedup` quotient — both sides measured in the
//! *same run*, so machine speed cancels — must stay above
//! [`SWEEP_SPEEDUP_GATE`] on the 1° showcase row (see
//! [`sweep_speedup_floor`]).
//!
//! Schema v7 adds the content-addressed cache row
//! ([`mcloud_cache::ResultCache`]): a processor grid simulated twice
//! through [`mcloud_cache::simulate_batch_cached`] against a *local*
//! cache for exact `cold_misses` / `warm_hits` counters, a four-thread
//! race on one cold key whose `single_flight_computes` must stay exactly
//! 1 (however the threads interleave, single-flight lets one compute
//! through), and a capacity-planner double-run via
//! [`mcloud_service::plan_capacity_with_cache`] whose second pass must
//! replay at least 90% of the candidate grid from lookups
//! ([`PLAN_REPLAY_GATE_PCT`] — machine-local, both numbers from the
//! current run). The counters are deterministic and exactly gated; the
//! `warm_hits_per_sec` throughput column is gated tolerantly like every
//! other wall-clock number.
//!
//! The JSON is hand-emitted with fixed key order so a re-run on identical
//! hardware diffs minimally, and parsed back with a small field scanner —
//! no external dependencies.

use std::fmt::Write as _;
use std::time::Instant;

use mcloud_core::{
    simulate, simulate_batch, simulate_batch_on, simulate_with_scratch, BatchScratch, DataMode,
    ExecConfig, IncrementalChain, Provisioning, SimScratch, SweepAxis,
};
use mcloud_dag::Workflow;
use mcloud_montage::{generate, MosaicConfig};
use mcloud_simkit::{configured_lanes, WorkerPool};

use crate::alloc;

/// Mosaic sizes measured by the baseline: the paper's three canonical
/// workflows plus the scale-up presets from the follow-on literature
/// (Juve et al. / Berriman et al. run Montage at far larger scales).
pub const BASELINE_DEGREES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// One workload measured by the baseline: a mosaic size and a data mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Mosaic side length in degrees.
    pub degrees: f64,
    /// Data-management mode.
    pub mode: DataMode,
}

impl Workload {
    /// Stable workload identifier, e.g. `4deg/regular`.
    pub fn name(&self) -> String {
        format!("{}deg/{}", self.degrees, self.mode.label())
    }

    /// The workflow this workload simulates.
    pub fn workflow(&self) -> Workflow {
        generate(&MosaicConfig::new(self.degrees))
    }

    /// The execution plan: the paper's on-demand provisioning (ample
    /// processors), which exercises the engine's peak event rate.
    pub fn config(&self) -> ExecConfig {
        ExecConfig::on_demand(self.mode)
    }
}

/// Every workload the baseline measures, in a fixed order.
pub fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for degrees in BASELINE_DEGREES {
        for mode in DataMode::ALL {
            out.push(Workload { degrees, mode });
        }
    }
    out
}

/// Measured numbers for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMeasurement {
    /// Workload identifier (`<degrees>deg/<mode>`).
    pub name: String,
    /// Task count of the simulated workflow.
    pub tasks: u64,
    /// Engine events processed by one simulation (deterministic).
    pub events: u64,
    /// Heap allocations one simulation performs (deterministic).
    pub allocs_per_sim: u64,
    /// Bytes those allocations request (deterministic).
    pub alloc_bytes_per_sim: u64,
    /// Peak live heap the simulation holds above its starting level
    /// (deterministic).
    pub peak_live_bytes: u64,
    /// Simulations per second (environment-dependent).
    pub sims_per_sec: f64,
    /// Engine events per second (environment-dependent).
    pub events_per_sec: f64,
    /// Heap allocations one simulation performs on a warm, reused
    /// [`SimScratch`] — the steady-state cost a batch lane pays per
    /// simulation (deterministic).
    pub batch_allocs_per_sim: u64,
    /// Simulations per second through [`simulate_batch`] over the
    /// persistent worker pool (environment-dependent).
    pub batch_sims_per_sec: f64,
    /// Calendar-queue pops one simulation performs (deterministic; from
    /// the kernel self-telemetry).
    pub queue_pops: u64,
    /// Calendar-queue cancellations one simulation performs
    /// (deterministic).
    pub queue_cancellations: u64,
    /// Peak simultaneously pending events in the calendar queue
    /// (deterministic).
    pub queue_peak_pending: u64,
}

impl WorkloadMeasurement {
    /// Allocations divided by tasks — the headline hot-path health number.
    pub fn allocs_per_task(&self) -> f64 {
        self.allocs_per_sim as f64 / self.tasks.max(1) as f64
    }
}

/// One informational worker-count scaling row: `1deg/regular` batch
/// throughput on a dedicated pool of `workers` lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Lane count of the pool the row was measured on.
    pub workers: usize,
    /// Batch simulations per second at that lane count.
    pub batch_sims_per_sec: f64,
}

/// One throughput-flatness row (schema v3): how much slower the engine
/// processes events at 16° than at 1° in one data mode. A perfectly
/// scale-oblivious kernel holds `ratio` ~1; a kernel that falls out of
/// cache at 49k tasks shows a large ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatnessRow {
    /// Data-mode label (`regular` / `cleanup` / `remote-io`).
    pub mode: String,
    /// Events/sec of the `1deg` workload in this mode.
    pub small_events_per_sec: f64,
    /// Events/sec of the `16deg` workload in this mode.
    pub large_events_per_sec: f64,
    /// `small_events_per_sec / large_events_per_sec` (lower is flatter).
    pub ratio: f64,
}

/// One service-scale row (schema v5): a seeded streaming service campaign
/// replayed through [`mcloud_service::simulate_service_stream`]. The
/// request counters are event-derived and deterministic — the gate
/// compares them exactly — while `requests_per_sec` is wall-clock and
/// gated tolerantly.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceScaleRow {
    /// Stable scenario identifier.
    pub scenario: String,
    /// Requests the arrival stream offered.
    pub offered: u64,
    /// Requests admitted and served (local or cloud).
    pub admitted: u64,
    /// Requests turned away by the bounded-queue admission control.
    pub rejected: u64,
    /// Requests deflected to per-request cloud resources.
    pub deflected: u64,
    /// Offered requests simulated per wall-clock second
    /// (environment-dependent).
    pub requests_per_sec: f64,
}

/// The service-scale campaign: a quarter of diurnally/seasonally
/// modulated mixed traffic with one flash crowd, against a 4-slot local
/// cluster with a bounded queue that rejects overflow. Sized (~25k
/// requests) to finish in well under a second in release builds while
/// still exercising every admission path.
fn service_scale_scenario() -> (
    &'static str,
    Vec<mcloud_service::RequestClass>,
    mcloud_service::RateProfile,
    f64,
    u64,
    mcloud_service::ServiceConfig,
) {
    use mcloud_service::{AdmissionPolicy, FlashCrowd, RateProfile, RequestClass, ServiceConfig};
    let classes = vec![
        RequestClass {
            rate_per_hour: 8.0,
            degrees: 1.0,
            priority: 2,
        },
        RequestClass {
            rate_per_hour: 3.0,
            degrees: 2.0,
            priority: 1,
        },
        RequestClass {
            rate_per_hour: 0.5,
            degrees: 4.0,
            priority: 0,
        },
    ];
    let profile = RateProfile {
        base_rate_per_hour: 1.0, // per-class rates substitute for this
        diurnal_amplitude: 0.4,
        seasonal_amplitude: 0.2,
        flash_crowds: vec![FlashCrowd {
            start_hour: 400.0,
            duration_hours: 24.0,
            multiplier: 5.0,
        }],
    };
    // A cluster sized right at the mean offered load (no cloud bursting,
    // or the burst path would drain the queue before it ever reached the
    // bound): the diurnal peak and the flash crowd overflow the 24-deep
    // queue, so the row pins real rejected counts.
    let cfg = ServiceConfig {
        local_slots: 12,
        burst_threshold: None,
        queue_bound: Some(24),
        admission: AdmissionPolicy::Reject,
        ..ServiceConfig::default_burst()
    };
    ("quarter-mixed-reject", classes, profile, 2190.0, 2008, cfg)
}

/// Measures the service-scale row: one counted streaming campaign for the
/// deterministic request counters, then timed replays (best-of) for the
/// throughput column.
pub fn measure_service_scale(budget_ms: u64) -> Vec<ServiceScaleRow> {
    use mcloud_service::{class_stream, simulate_service_stream};
    use mcloud_simkit::NullSink;

    let (scenario, classes, profile, horizon, seed, cfg) = service_scale_scenario();
    let run = || {
        simulate_service_stream(
            class_stream(&classes, &profile, horizon, seed),
            &cfg,
            &mut NullSink,
            |_| {},
        )
    };
    let report = run();

    let budget_s = budget_ms as f64 / 1e3;
    let mut best_s = f64::INFINITY;
    let mut runs = 0u32;
    let all = Instant::now();
    loop {
        let start = Instant::now();
        std::hint::black_box(run());
        best_s = best_s.min(start.elapsed().as_secs_f64());
        runs += 1;
        if (runs >= MIN_TIMED_RUNS && all.elapsed().as_secs_f64() >= budget_s) || runs >= 10_000 {
            break;
        }
    }

    vec![ServiceScaleRow {
        scenario: scenario.to_string(),
        offered: report.offered() as u64,
        admitted: report.requests() as u64,
        rejected: report.rejected_requests() as u64,
        deflected: report.deflected_requests() as u64,
        requests_per_sec: report.offered() as f64 / best_s.max(1e-9),
    }]
}

/// One incremental-sweep row (schema v6): a whole sweep axis walked once
/// from scratch and once through the checkpoint/fork chain. The resume
/// and event-reuse counters are pure functions of the engine and chain
/// semantics (single chain, fixed cadence), so the gate compares them
/// exactly; the points/sec columns are wall-clock and gated tolerantly;
/// and the same-run `speedup` quotient must hold the row's
/// [`sweep_speedup_floor`], when it has one.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Stable axis identifier, e.g. `processors/4deg-regular`.
    pub axis: String,
    /// Sweep points on the axis.
    pub points: u64,
    /// Points that resumed from a checkpoint (deterministic).
    pub resumed: u64,
    /// Events skipped by restores (deterministic).
    pub reused_events: u64,
    /// Events a from-scratch walk processes in total (deterministic).
    pub total_events: u64,
    /// Points/sec of the sequential from-scratch walk
    /// (environment-dependent).
    pub scratch_points_per_sec: f64,
    /// Points/sec of the incremental walk (environment-dependent).
    pub incremental_points_per_sec: f64,
    /// `incremental / scratch` points-per-sec quotient — both sides from
    /// the same run, so machine speed cancels out.
    pub speedup: f64,
}

/// Minimum timed whole-axis walks per side of the sweep row.
const MIN_SWEEP_RUNS: u32 = 3;

/// The sweep-scale scenario: the paper's largest canonical mosaic on a
/// dense processor axis. The 4° mosaic has ~677 tasks ready at `t = 0`,
/// so adjacent points genuinely diverge within the first ~P events and
/// the chain can only reuse a short prefix — this row locks the
/// wide-workflow regime where incremental must simply never lose.
const SWEEP_DEGREES: f64 = 4.0;

/// Top of the dense `1..=N` processor axis the 4° sweep row walks.
const SWEEP_MAX_PROCS: u32 = 64;

/// The sublinearity showcase: a dense axis extending well past the 1°
/// mosaic's peak parallelism (~50 concurrent tasks). Beyond that width
/// the pool never exhausts, the divergence witness never fires, and each
/// point resumes from the previous point's terminal checkpoint replaying
/// zero events — the whole-axis walk is sublinear in points.
const SWEEP_SUBLINEAR_DEGREES: f64 = 1.0;

/// Top of the dense `1..=N` processor axis the 1° showcase row walks.
const SWEEP_SUBLINEAR_MAX_PROCS: u32 = 256;

/// Measures one sweep row on a dense `1..=max_procs` processor axis of
/// the `degrees` mosaic: one counted chain walk for the deterministic
/// counters, then timed whole-axis walks (best-of) for both sides.
/// Everything runs inline on this thread — lane settings do not move
/// these numbers.
pub fn measure_sweep_row(degrees: f64, max_procs: u32, budget_ms: u64) -> SweepRow {
    let wf = generate(&MosaicConfig::new(degrees));
    let base = ExecConfig::paper_default();
    let cfgs: Vec<ExecConfig> = (1..=max_procs)
        .map(|p| ExecConfig {
            provisioning: Provisioning::Fixed { processors: p },
            ..base.clone()
        })
        .collect();

    let chain_walk = || {
        let mut chain = IncrementalChain::new(SweepAxis::Processors);
        for (i, cfg) in cfgs.iter().enumerate() {
            std::hint::black_box(chain.run_point(&wf, cfg, cfgs.get(i + 1)));
        }
        chain.stats()
    };
    // Counted walk (doubles as warm-up for the timed ones).
    let stats = chain_walk();

    let budget_s = budget_ms as f64 / 1e3;
    let time_side = |walk: &mut dyn FnMut()| {
        let mut best_s = f64::INFINITY;
        let mut runs = 0u32;
        let all = Instant::now();
        loop {
            let start = Instant::now();
            walk();
            best_s = best_s.min(start.elapsed().as_secs_f64());
            runs += 1;
            if (runs >= MIN_SWEEP_RUNS && all.elapsed().as_secs_f64() >= budget_s) || runs >= 10_000
            {
                break;
            }
        }
        cfgs.len() as f64 / best_s.max(1e-9)
    };

    let mut scratch = SimScratch::new();
    std::hint::black_box(simulate_with_scratch(&wf, &cfgs[0], &mut scratch)); // warm
    let scratch_pps = time_side(&mut || {
        for cfg in &cfgs {
            std::hint::black_box(simulate_with_scratch(&wf, cfg, &mut scratch));
        }
    });
    let incremental_pps = time_side(&mut || {
        std::hint::black_box(chain_walk());
    });

    SweepRow {
        axis: format!("processors/{degrees}deg-regular"),
        points: stats.points,
        resumed: stats.resumed,
        reused_events: stats.reused_events,
        total_events: stats.total_events,
        scratch_points_per_sec: scratch_pps,
        incremental_points_per_sec: incremental_pps,
        speedup: incremental_pps / scratch_pps.max(1e-9),
    }
}

/// Measures the committed sweep-scale rows: dense `1..=64` processors on
/// the 4° mosaic (wide-workflow regime, short reusable prefixes) and
/// dense `1..=256` on the 1° mosaic (the sublinear regime, where points
/// past peak parallelism resume with zero replay and must clear
/// [`SWEEP_SPEEDUP_GATE`]).
pub fn measure_sweep_scale(budget_ms: u64) -> Vec<SweepRow> {
    vec![
        measure_sweep_row(SWEEP_DEGREES, SWEEP_MAX_PROCS, budget_ms),
        measure_sweep_row(
            SWEEP_SUBLINEAR_DEGREES,
            SWEEP_SUBLINEAR_MAX_PROCS,
            budget_ms,
        ),
    ]
}

/// One content-addressed cache row (schema v7): the result cache probed
/// exactly the way the hot consumers use it. The hit/miss/single-flight
/// counters are pure functions of the cache and digest semantics, so the
/// gate compares them exactly; `warm_hits_per_sec` is wall-clock and
/// gated tolerantly; and the planner-replay quotient is a same-run,
/// machine-local hard floor (see [`PLAN_REPLAY_GATE_PCT`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRow {
    /// Stable scenario identifier.
    pub scenario: String,
    /// Misses the cold batch pass records — one per distinct grid point
    /// (deterministic).
    pub cold_misses: u64,
    /// Memory hits the warm batch pass records — the whole grid
    /// (deterministic).
    pub warm_hits: u64,
    /// Simulations that actually ran when four threads raced one cold
    /// key through single-flight — exactly 1, however the threads
    /// interleave (deterministic).
    pub single_flight_computes: u64,
    /// Candidates in the capacity-planner grid (deterministic).
    pub plan_candidates: u64,
    /// Candidates the planner's second run answered from cache
    /// (deterministic; must cover ≥ [`PLAN_REPLAY_GATE_PCT`]% of the
    /// grid).
    pub plan_warm_hits: u64,
    /// Warm grid probes served per wall-clock second
    /// (environment-dependent).
    pub warm_hits_per_sec: f64,
}

/// Top of the dense `1..=N` processor grid the cache row probes.
const CACHE_GRID_PROCS: u32 = 16;

/// Measures the cache row against *local* [`mcloud_cache::ResultCache`]s (never the
/// process-wide one, so the counters are exact and isolated): a cold and
/// a warm batch pass over a dense 1° processor grid, a four-thread
/// single-flight race on one cold key, a capacity-planner double-run,
/// then timed whole-grid warm passes (best-of) for the throughput column.
pub fn measure_cache(budget_ms: u64) -> Vec<CacheRow> {
    use mcloud_cache::{simulate_batch_cached, simulate_cached, ResultCache, DEFAULT_BUDGET_BYTES};
    use mcloud_service::{plan_capacity_with_cache, PlanSpec};

    let wf = generate(&MosaicConfig::new(1.0));
    let base = ExecConfig::paper_default();
    let cfgs: Vec<ExecConfig> = (1..=CACHE_GRID_PROCS)
        .map(|p| ExecConfig {
            provisioning: Provisioning::Fixed { processors: p },
            ..base.clone()
        })
        .collect();

    // Cold then warm batch pass: the miss and hit counters are exact.
    let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
    let mut scratch = BatchScratch::new();
    std::hint::black_box(simulate_batch_cached(&wf, &cfgs, &mut scratch, &cache));
    let cold_misses = cache.counters().misses;
    std::hint::black_box(simulate_batch_cached(&wf, &cfgs, &mut scratch, &cache));
    let warm_hits = cache.counters().hits_mem;

    // Single-flight: four threads race the same cold key on a fresh
    // cache. Whatever the interleaving — all coalesced behind one
    // compute, or serialized into hits — exactly one simulation runs.
    let race = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                std::hint::black_box(simulate_cached(&wf, &cfgs[0], &race));
            });
        }
    });
    let single_flight_computes = race.counters().computes;

    // Planner double-run: the second pass over an unchanged spec must
    // replay the candidate grid from lookups.
    let spec = PlanSpec::new(7.0, 3.0, 72.0);
    let candidates = spec.default_candidates();
    let plan_cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
    let _ = plan_capacity_with_cache(&spec, candidates.clone(), &plan_cache)
        .expect("the committed plan spec validates");
    let before = plan_cache.counters().hits_mem;
    let _ = plan_capacity_with_cache(&spec, candidates.clone(), &plan_cache)
        .expect("the committed plan spec validates");
    let plan_warm_hits = plan_cache.counters().hits_mem - before;

    // Warm-probe throughput: whole fully-warm grid passes, best-of.
    let budget_s = budget_ms as f64 / 1e3;
    let mut best_s = f64::INFINITY;
    let mut runs = 0u32;
    let all = Instant::now();
    loop {
        let start = Instant::now();
        std::hint::black_box(simulate_batch_cached(&wf, &cfgs, &mut scratch, &cache));
        best_s = best_s.min(start.elapsed().as_secs_f64());
        runs += 1;
        if (runs >= MIN_TIMED_RUNS && all.elapsed().as_secs_f64() >= budget_s) || runs >= 10_000 {
            break;
        }
    }

    vec![CacheRow {
        scenario: "1deg-procs-grid+plan-replay".to_string(),
        cold_misses,
        warm_hits,
        single_flight_computes,
        plan_candidates: candidates.len() as u64,
        plan_warm_hits,
        warm_hits_per_sec: cfgs.len() as f64 / best_s.max(1e-9),
    }]
}

/// Derives the per-mode flatness rows from a set of workload measurements
/// (the `1deg` and `16deg` rows of each mode must be present).
pub fn flatness_rows(workloads: &[WorkloadMeasurement]) -> Vec<FlatnessRow> {
    DataMode::ALL
        .iter()
        .filter_map(|mode| {
            let find = |deg: &str| {
                let name = format!("{deg}deg/{}", mode.label());
                workloads.iter().find(|w| w.name == name)
            };
            let (small, large) = (find("1")?, find("16")?);
            Some(FlatnessRow {
                mode: mode.label().to_string(),
                small_events_per_sec: small.events_per_sec,
                large_events_per_sec: large.events_per_sec,
                ratio: small.events_per_sec / large.events_per_sec.max(1e-9),
            })
        })
        .collect()
}

/// A full baseline: one measurement per workload plus the measuring
/// machine's parallelism and the worker-count scaling rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Worker lanes the batch columns were measured with
    /// (`MCLOUD_WORKERS` or all cores).
    pub workers: usize,
    /// Cores the measuring machine reported (`available_parallelism`).
    pub host_parallelism: usize,
    /// Per-workload measurements, in [`workloads`] order.
    pub workloads: Vec<WorkloadMeasurement>,
    /// Informational `1deg/regular` scaling rows (not gated: throughput
    /// at a lane count the host can't supply is meaningless).
    pub scaling: Vec<ScalingRow>,
    /// Per-mode 1°/16° events/sec ratios, gated by [`FLATNESS_TOLERANCE`].
    pub flatness: Vec<FlatnessRow>,
    /// Service-scale campaign rows (schema v5): exact request counters
    /// plus tolerant requests/sec throughput.
    pub service: Vec<ServiceScaleRow>,
    /// Incremental-sweep rows (schema v6): exact resume/reuse counters
    /// plus tolerant points/sec and the hard same-run speedup floor.
    pub sweeps: Vec<SweepRow>,
    /// Content-addressed cache rows (schema v7): exact hit/miss/
    /// single-flight counters, the machine-local planner-replay floor,
    /// plus tolerant warm-probe throughput.
    pub cache: Vec<CacheRow>,
}

/// Simulations per [`simulate_batch`] call in the batch timing loop —
/// enough to keep every lane busy through a few chunks without making the
/// 16° workloads take minutes.
const BATCH_SIMS: usize = 8;

/// Minimum whole-batch timing samples per workload, even past the budget.
///
/// Measurement rule for the batch column: the slow (8°/16°) workloads fit
/// at most one whole batch inside the budget, so the sample floor — not
/// the budget — decides how many observations the best-of sees. At 3
/// samples the committed 8°/cleanup row once recorded batch throughput
/// 33% *below* the single-sim rate on a 1-lane pool (132.69 vs 198.85
/// sims/s), which is physically impossible at steady state: the single-sim
/// column got 12+ samples to find the fast envelope while the batch
/// column got 3, at least one of them polluted by cold per-lane scratch
/// growth. Two warm-up batches (the first grows every lane's scratch, the
/// second settles the allocator) plus a floor of 6 timed samples pins the
/// best-of near the true envelope for both columns.
const MIN_BATCH_RUNS: u32 = 6;

/// Minimum single-simulation timing samples per workload, even past the
/// budget. The 16° workloads fit only ~4 runs in the default budget, which
/// makes their best-of swing well past the gate's tolerance between a
/// quiet and a loaded machine; a floor of samples pins it near the true
/// fast envelope on both.
const MIN_TIMED_RUNS: u32 = 12;

/// Measures one workload: a warm-up run, one counted run for the
/// deterministic numbers, then as many timed runs as fit `budget_ms`.
pub fn measure_workload(w: &Workload, budget_ms: u64) -> WorkloadMeasurement {
    let wf = w.workflow();
    let cfg = w.config();
    // Warm-up: touches every code path and lets the allocator's internal
    // arenas settle so the counted run sees steady-state behaviour.
    let warm = simulate(&wf, &cfg);
    let events = warm.events_processed;
    let (_, delta) = alloc::measure(|| std::hint::black_box(simulate(&wf, &cfg)));

    // Warm-scratch allocations: one simulation on buffers a previous run
    // already grew. Measured inline on this thread (the pool is not
    // involved), so the process-wide counters are exact.
    let mut scratch = SimScratch::new();
    std::hint::black_box(simulate_with_scratch(&wf, &cfg, &mut scratch));
    let (_, warm_delta) =
        alloc::measure(|| std::hint::black_box(simulate_with_scratch(&wf, &cfg, &mut scratch)));

    // Throughput: time each simulation individually until the budget is
    // spent (at least one) and keep the *fastest*. The best-observed rate
    // measures what the machine can do; unlike a whole-budget average it is
    // insensitive to scheduler noise and frequency dips, which keeps
    // same-machine re-measurements inside the gate's tolerance band. Timer
    // overhead is negligible: even the smallest workload runs for ~100 us.
    let budget_s = budget_ms as f64 / 1e3;
    let mut best_per_sim_s = f64::INFINITY;
    let mut runs = 0u32;
    let all = Instant::now();
    loop {
        let start = Instant::now();
        std::hint::black_box(simulate(&wf, &cfg));
        best_per_sim_s = best_per_sim_s.min(start.elapsed().as_secs_f64());
        runs += 1;
        if (runs >= MIN_TIMED_RUNS && all.elapsed().as_secs_f64() >= budget_s) || runs >= 10_000 {
            break;
        }
    }
    let per_sim_s = best_per_sim_s.max(1e-9);

    // Batch throughput: time whole [`simulate_batch`] calls over a list of
    // identical configs, best-of within the same budget. Uses the global
    // pool (all lanes inline when `MCLOUD_WORKERS=1` or one core).
    let cfgs = vec![cfg.clone(); BATCH_SIMS];
    let mut batch_scratch = BatchScratch::new();
    // Two warm-up batches before the timing window — see [`MIN_BATCH_RUNS`]
    // for the measurement rule.
    std::hint::black_box(simulate_batch(&wf, &cfgs, &mut batch_scratch));
    std::hint::black_box(simulate_batch(&wf, &cfgs, &mut batch_scratch));
    let mut best_batch_s = f64::INFINITY;
    let mut batch_runs = 0u32;
    let all = Instant::now();
    loop {
        let start = Instant::now();
        std::hint::black_box(simulate_batch(&wf, &cfgs, &mut batch_scratch));
        best_batch_s = best_batch_s.min(start.elapsed().as_secs_f64());
        batch_runs += 1;
        // Whole-batch timings are coarse (one 16deg batch outlasts the
        // budget), so insist on a few samples before best-of means much.
        if (batch_runs >= MIN_BATCH_RUNS && all.elapsed().as_secs_f64() >= budget_s)
            || batch_runs >= 10_000
        {
            break;
        }
    }

    WorkloadMeasurement {
        name: w.name(),
        tasks: wf.num_tasks() as u64,
        events,
        allocs_per_sim: delta.allocs,
        alloc_bytes_per_sim: delta.alloc_bytes,
        peak_live_bytes: delta.peak_above_start,
        sims_per_sec: 1.0 / per_sim_s,
        events_per_sec: events as f64 / per_sim_s,
        batch_allocs_per_sim: warm_delta.allocs,
        batch_sims_per_sec: BATCH_SIMS as f64 / best_batch_s.max(1e-9),
        queue_pops: warm.kernel.queue.popped,
        queue_cancellations: warm.kernel.queue.cancelled,
        queue_peak_pending: warm.kernel.queue.peak_pending,
    }
}

/// Measures the informational `1deg/regular` worker-count scaling rows on
/// dedicated pools of 1, 2 and 4 lanes.
pub fn measure_scaling(budget_ms: u64) -> Vec<ScalingRow> {
    let w = Workload {
        degrees: 1.0,
        mode: DataMode::Regular,
    };
    let wf = w.workflow();
    let cfgs = vec![w.config(); BATCH_SIMS];
    let budget_s = budget_ms as f64 / 1e3;
    let mut rows = Vec::new();
    for lanes in [1usize, 2, 4] {
        let pool = WorkerPool::new(lanes);
        let mut scratch = BatchScratch::new();
        std::hint::black_box(simulate_batch_on(&pool, &wf, &cfgs, &mut scratch));
        let mut best_s = f64::INFINITY;
        let mut runs = 0u32;
        let all = Instant::now();
        loop {
            let start = Instant::now();
            std::hint::black_box(simulate_batch_on(&pool, &wf, &cfgs, &mut scratch));
            best_s = best_s.min(start.elapsed().as_secs_f64());
            runs += 1;
            if (runs >= MIN_BATCH_RUNS && all.elapsed().as_secs_f64() >= budget_s) || runs >= 10_000
            {
                break;
            }
        }
        rows.push(ScalingRow {
            workers: lanes,
            batch_sims_per_sec: BATCH_SIMS as f64 / best_s.max(1e-9),
        });
    }
    rows
}

/// Cores the current machine reports; 1 when the query fails.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Measures every workload. `budget_ms` is the per-workload timing budget.
pub fn measure_all(budget_ms: u64, mut progress: impl FnMut(&WorkloadMeasurement)) -> Baseline {
    let mut out = Vec::new();
    for w in workloads() {
        let m = measure_workload(&w, budget_ms);
        progress(&m);
        out.push(m);
    }
    let flatness = flatness_rows(&out);
    Baseline {
        workers: configured_lanes(),
        host_parallelism: host_parallelism(),
        workloads: out,
        scaling: measure_scaling(budget_ms),
        flatness,
        service: measure_service_scale(budget_ms),
        sweeps: measure_sweep_scale(budget_ms),
        cache: measure_cache(budget_ms),
    }
}

// --- JSON ------------------------------------------------------------------

/// Schema tag written into (and required from) the baseline file.
pub const SCHEMA: &str = "mcloud-bench-baseline/v7";

/// Serializes a baseline as pretty-printed JSON with a fixed key order.
pub fn to_json(b: &Baseline) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"workers\": {},", b.workers);
    let _ = writeln!(s, "  \"host_parallelism\": {},", b.host_parallelism);
    s.push_str("  \"workloads\": [\n");
    for (i, w) in b.workloads.iter().enumerate() {
        let comma = if i + 1 < b.workloads.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"tasks\": {}, \"events\": {}, \
             \"allocs_per_sim\": {}, \"alloc_bytes_per_sim\": {}, \
             \"peak_live_bytes\": {}, \"allocs_per_task\": {:.2}, \
             \"sims_per_sec\": {:.2}, \"events_per_sec\": {:.0}, \
             \"batch_allocs_per_sim\": {}, \"batch_sims_per_sec\": {:.2}, \
             \"queue_pops\": {}, \"queue_cancellations\": {}, \
             \"queue_peak_pending\": {}}}{comma}",
            w.name,
            w.tasks,
            w.events,
            w.allocs_per_sim,
            w.alloc_bytes_per_sim,
            w.peak_live_bytes,
            w.allocs_per_task(),
            w.sims_per_sec,
            w.events_per_sec,
            w.batch_allocs_per_sim,
            w.batch_sims_per_sec,
            w.queue_pops,
            w.queue_cancellations,
            w.queue_peak_pending,
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"scaling\": [\n");
    for (i, r) in b.scaling.iter().enumerate() {
        let comma = if i + 1 < b.scaling.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"workers\": {}, \"batch_sims_per_sec\": {:.2}}}{comma}",
            r.workers, r.batch_sims_per_sec,
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"flatness\": [\n");
    for (i, f) in b.flatness.iter().enumerate() {
        let comma = if i + 1 < b.flatness.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"mode\": \"{}\", \"small_events_per_sec\": {:.0}, \
             \"large_events_per_sec\": {:.0}, \"ratio\": {:.3}}}{comma}",
            f.mode, f.small_events_per_sec, f.large_events_per_sec, f.ratio,
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"service\": [\n");
    for (i, r) in b.service.iter().enumerate() {
        let comma = if i + 1 < b.service.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"scenario\": \"{}\", \"offered\": {}, \"admitted\": {}, \
             \"rejected\": {}, \"deflected\": {}, \
             \"service_requests_per_sec\": {:.0}}}{comma}",
            r.scenario, r.offered, r.admitted, r.rejected, r.deflected, r.requests_per_sec,
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"sweeps\": [\n");
    for (i, r) in b.sweeps.iter().enumerate() {
        let comma = if i + 1 < b.sweeps.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"axis\": \"{}\", \"points\": {}, \"resumed\": {}, \
             \"reused_events\": {}, \"total_events\": {}, \
             \"scratch_points_per_sec\": {:.2}, \
             \"incremental_points_per_sec\": {:.2}, \"speedup\": {:.2}}}{comma}",
            r.axis,
            r.points,
            r.resumed,
            r.reused_events,
            r.total_events,
            r.scratch_points_per_sec,
            r.incremental_points_per_sec,
            r.speedup,
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"cache\": [\n");
    for (i, r) in b.cache.iter().enumerate() {
        let comma = if i + 1 < b.cache.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"scenario\": \"{}\", \"cold_misses\": {}, \"warm_hits\": {}, \
             \"single_flight_computes\": {}, \"plan_candidates\": {}, \
             \"plan_warm_hits\": {}, \"warm_hits_per_sec\": {:.0}}}{comma}",
            r.scenario,
            r.cold_misses,
            r.warm_hits,
            r.single_flight_computes,
            r.plan_candidates,
            r.plan_warm_hits,
            r.warm_hits_per_sec,
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pulls `"key": <number>` out of a JSON object line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls `"key": "<string>"` out of a JSON object line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Parses a baseline file produced by [`to_json`].
///
/// # Errors
/// Returns a message when the schema tag is missing/mismatched or a
/// workload line lacks a required field.
pub fn from_json(text: &str) -> Result<Baseline, String> {
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("baseline file does not carry schema {SCHEMA:?}"));
    }
    let mut workers = None;
    let mut host_parallelism = None;
    let mut workloads = Vec::new();
    let mut scaling = Vec::new();
    let mut flatness = Vec::new();
    let mut service = Vec::new();
    let mut sweeps = Vec::new();
    let mut cache = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        // The cache, sweep and service rows are classified first: their
        // key sets must never be shadowed by the broader matchers below
        // (a cache row carries "scenario" too, so its unique
        // "cold_misses" key is checked before the service matcher).
        if line.starts_with('{') && line.contains("\"cold_misses\"") {
            let get = |key: &str| {
                num_field(line, key).ok_or_else(|| format!("missing numeric field {key:?}: {line}"))
            };
            cache.push(CacheRow {
                scenario: str_field(line, "scenario")
                    .ok_or_else(|| format!("missing scenario: {line}"))?,
                cold_misses: get("cold_misses")? as u64,
                warm_hits: get("warm_hits")? as u64,
                single_flight_computes: get("single_flight_computes")? as u64,
                plan_candidates: get("plan_candidates")? as u64,
                plan_warm_hits: get("plan_warm_hits")? as u64,
                warm_hits_per_sec: get("warm_hits_per_sec")?,
            });
        } else if line.starts_with('{') && line.contains("\"axis\"") {
            let get = |key: &str| {
                num_field(line, key).ok_or_else(|| format!("missing numeric field {key:?}: {line}"))
            };
            sweeps.push(SweepRow {
                axis: str_field(line, "axis").ok_or_else(|| format!("missing axis: {line}"))?,
                points: get("points")? as u64,
                resumed: get("resumed")? as u64,
                reused_events: get("reused_events")? as u64,
                total_events: get("total_events")? as u64,
                scratch_points_per_sec: get("scratch_points_per_sec")?,
                incremental_points_per_sec: get("incremental_points_per_sec")?,
                speedup: get("speedup")?,
            });
        } else if line.starts_with('{') && line.contains("\"scenario\"") {
            let get = |key: &str| {
                num_field(line, key).ok_or_else(|| format!("missing numeric field {key:?}: {line}"))
            };
            service.push(ServiceScaleRow {
                scenario: str_field(line, "scenario")
                    .ok_or_else(|| format!("missing scenario: {line}"))?,
                offered: get("offered")? as u64,
                admitted: get("admitted")? as u64,
                rejected: get("rejected")? as u64,
                deflected: get("deflected")? as u64,
                requests_per_sec: get("service_requests_per_sec")?,
            });
        } else if line.starts_with('{') && line.contains("\"name\"") {
            let get = |key: &str| {
                num_field(line, key).ok_or_else(|| format!("missing numeric field {key:?}: {line}"))
            };
            workloads.push(WorkloadMeasurement {
                name: str_field(line, "name").ok_or_else(|| format!("missing name: {line}"))?,
                tasks: get("tasks")? as u64,
                events: get("events")? as u64,
                allocs_per_sim: get("allocs_per_sim")? as u64,
                alloc_bytes_per_sim: get("alloc_bytes_per_sim")? as u64,
                peak_live_bytes: get("peak_live_bytes")? as u64,
                sims_per_sec: get("sims_per_sec")?,
                events_per_sec: get("events_per_sec")?,
                batch_allocs_per_sim: get("batch_allocs_per_sim")? as u64,
                batch_sims_per_sec: get("batch_sims_per_sec")?,
                queue_pops: get("queue_pops")? as u64,
                queue_cancellations: get("queue_cancellations")? as u64,
                queue_peak_pending: get("queue_peak_pending")? as u64,
            });
        } else if line.starts_with('{') && line.contains("\"workers\"") {
            // A scaling row: {"workers": N, "batch_sims_per_sec": X}.
            let get = |key: &str| {
                num_field(line, key).ok_or_else(|| format!("missing numeric field {key:?}: {line}"))
            };
            scaling.push(ScalingRow {
                workers: get("workers")? as usize,
                batch_sims_per_sec: get("batch_sims_per_sec")?,
            });
        } else if line.starts_with('{') && line.contains("\"mode\"") {
            // A flatness row:
            // {"mode": "...", "small_events_per_sec": A,
            //  "large_events_per_sec": B, "ratio": R}.
            let get = |key: &str| {
                num_field(line, key).ok_or_else(|| format!("missing numeric field {key:?}: {line}"))
            };
            flatness.push(FlatnessRow {
                mode: str_field(line, "mode").ok_or_else(|| format!("missing mode: {line}"))?,
                small_events_per_sec: get("small_events_per_sec")?,
                large_events_per_sec: get("large_events_per_sec")?,
                ratio: get("ratio")?,
            });
        } else if !line.starts_with('{') {
            if workers.is_none() {
                workers = num_field(line, "workers").map(|v| v as usize);
            }
            if host_parallelism.is_none() {
                host_parallelism = num_field(line, "host_parallelism").map(|v| v as usize);
            }
        }
    }
    if workloads.is_empty() {
        return Err("baseline file contains no workloads".into());
    }
    Ok(Baseline {
        workers: workers.ok_or("baseline file lacks a top-level \"workers\" field")?,
        host_parallelism: host_parallelism
            .ok_or("baseline file lacks a top-level \"host_parallelism\" field")?,
        workloads,
        scaling,
        flatness,
        service,
        sweeps,
        cache,
    })
}

// --- the regression gate ---------------------------------------------------

/// Fractional throughput loss tolerated before the gate fails (70%).
/// Empirically a shared host swings ~1.7x between quiet and loaded
/// periods, and over 2.5x when a parallel compile owns the core, even
/// with the sample floors below — a tighter band flakes. The throughput
/// columns are a backstop against order-of-magnitude collapses (the
/// pool serializing, an accidental O(n^2)); the deterministic
/// allocation and event-count columns carry the strict,
/// machine-independent gating (reverting the allocation-free hot path
/// shows up there as 35 -> ~6,800 allocs/sim long before timing moves).
pub const THROUGHPUT_TOLERANCE: f64 = 0.70;

/// Tolerance for the batch sims/sec column — same band, same rationale,
/// plus whole-batch timings yield far fewer samples than the single-sim
/// best-of.
pub const BATCH_THROUGHPUT_TOLERANCE: f64 = 0.70;

/// Hard ceiling on warm-scratch allocations per simulation for the
/// paper-sized (1–4°) workloads. A lane running thousands of simulations
/// must not grow the heap per run.
pub const WARM_ALLOC_BUDGET: u64 = 5;

/// Minimum batch-over-single throughput ratio required on the headline
/// rows when the measuring machine has real parallelism.
pub const BATCH_SPEEDUP_GATE: f64 = 1.5;

/// Workload rows the [`BATCH_SPEEDUP_GATE`] applies to.
pub const SPEEDUP_GATED_ROWS: [&str; 2] = ["1deg/regular", "4deg/regular"];

/// Minimum incremental-over-scratch points/sec quotient required on
/// sweep rows with a hard floor (see [`sweep_speedup_floor`]). Both sides
/// of the quotient come from the same single-threaded measurement run, so
/// absolute machine speed cancels — this is the tentpole's "whole-axis
/// sweeps are sublinear in points" claim, held as a hard floor rather
/// than a tolerance band.
pub const SWEEP_SPEEDUP_GATE: f64 = 2.0;

/// Hard same-run speedup floor for a sweep row, if it carries one.
///
/// The 1° showcase row extends past the mosaic's peak parallelism, where
/// the divergence witness never fires and most points replay zero events
/// — it must clear [`SWEEP_SPEEDUP_GATE`]. The dense 4° row measures the
/// wide-workflow regime: with ~677 tasks ready at `t = 0`, runs at `P`
/// and `P + 1` processors genuinely diverge within ~`P` events, so only
/// a short prefix is ever reusable and the honest quotient sits near 1.1x.
/// That row's quotient is informational; its reuse is still locked
/// exactly through the resume/reuse counters and the tolerant points/sec
/// columns.
pub fn sweep_speedup_floor(axis: &str) -> Option<f64> {
    if axis.starts_with("processors/1deg") {
        Some(SWEEP_SPEEDUP_GATE)
    } else {
        None
    }
}

/// Minimum share of the capacity-planner candidate grid the second run
/// over an unchanged spec must replay from cache, in percent. Both sides
/// of the quotient come from the *current* measurement run, so the check
/// is machine-local — this is the tentpole's "re-planning an unchanged
/// spec replays the grid from lookups" claim, held as a hard floor.
pub const PLAN_REPLAY_GATE_PCT: u64 = 90;

/// Growth factor tolerated on a per-mode 1°/16° events/sec ratio before
/// the flatness gate fails. The ratio is a same-run quotient, so absolute
/// machine speed cancels out of it; what remains is the cache-hierarchy
/// shape, which still varies between hosts. The committed cache-native
/// kernel holds ~1.7–2.0x, while the binary-heap/pointer-chasing kernel it
/// replaced measured ~12x on the original baseline machine and ~3x even on
/// a host with a very large last-level cache — a 2x growth allowance
/// (fail above ~4x) separates the two regimes with margin on both sides.
pub const FLATNESS_TOLERANCE: f64 = 2.0;

/// Compares a fresh measurement against the committed baseline.
///
/// Returns the list of human-readable violations (empty = gate passes):
/// * any *increase* in allocations or allocated bytes per simulation, in
///   warm-scratch allocations, or in events per simulation — these are
///   deterministic, so an increase is a real regression, never noise;
/// * warm-scratch allocations above [`WARM_ALLOC_BUDGET`] on a 1–4°
///   workload (absolute, not relative: the batch lanes must stay
///   allocation-free at steady state);
/// * an events/sec drop of more than [`THROUGHPUT_TOLERANCE`];
/// * a batch sims/sec drop of more than [`BATCH_THROUGHPUT_TOLERANCE`] —
///   only when the lane counts match, since batch throughput at different
///   `MCLOUD_WORKERS` settings is not comparable;
/// * on a machine with both `workers > 1` and `host_parallelism > 1`:
///   batch throughput below [`BATCH_SPEEDUP_GATE`]× single-sim throughput
///   on the [`SPEEDUP_GATED_ROWS`]. Both numbers come from the *current*
///   run, so the check is machine-local and cannot flake on hardware
///   differences from the committed file;
/// * a per-mode 1°/16° events/sec ratio more than [`FLATNESS_TOLERANCE`]×
///   the committed ratio, or a mode whose flatness row disappeared;
/// * any drift in the cache row's hit/miss/single-flight counters
///   (deterministic, exact), a planner replay below
///   [`PLAN_REPLAY_GATE_PCT`]% of the current run's candidate grid
///   (machine-local), or a warm-probe throughput drop of more than
///   [`THROUGHPUT_TOLERANCE`].
///
/// Improvements never fail the gate; re-baseline to lock them in.
pub fn compare(current: &Baseline, committed: &Baseline) -> Vec<String> {
    let mut violations = Vec::new();
    for c in &current.workloads {
        let Some(b) = committed.workloads.iter().find(|w| w.name == c.name) else {
            violations.push(format!(
                "{}: not present in the committed baseline (re-run `repro bench-json --out`)",
                c.name
            ));
            continue;
        };
        if c.allocs_per_sim > b.allocs_per_sim {
            violations.push(format!(
                "{}: allocations per simulation regressed {} -> {}",
                c.name, b.allocs_per_sim, c.allocs_per_sim
            ));
        }
        if c.alloc_bytes_per_sim > b.alloc_bytes_per_sim {
            violations.push(format!(
                "{}: allocated bytes per simulation regressed {} -> {}",
                c.name, b.alloc_bytes_per_sim, c.alloc_bytes_per_sim
            ));
        }
        if c.events != b.events {
            violations.push(format!(
                "{}: events per simulation changed {} -> {} (semantics drift?)",
                c.name, b.events, c.events
            ));
        }
        // The kernel counters are event-derived, so like `events` any
        // change is a semantic drift, not noise.
        for (metric, old, new) in [
            ("calendar-queue pops", b.queue_pops, c.queue_pops),
            (
                "calendar-queue cancellations",
                b.queue_cancellations,
                c.queue_cancellations,
            ),
            (
                "calendar-queue peak pending",
                b.queue_peak_pending,
                c.queue_peak_pending,
            ),
        ] {
            if new != old {
                violations.push(format!(
                    "{}: {metric} per simulation changed {old} -> {new} (semantics drift?)",
                    c.name
                ));
            }
        }
        if c.batch_allocs_per_sim > b.batch_allocs_per_sim {
            violations.push(format!(
                "{}: warm-scratch allocations per simulation regressed {} -> {}",
                c.name, b.batch_allocs_per_sim, c.batch_allocs_per_sim
            ));
        }
        let paper_sized = ["1deg/", "2deg/", "4deg/"]
            .iter()
            .any(|p| c.name.starts_with(p));
        if paper_sized && c.batch_allocs_per_sim > WARM_ALLOC_BUDGET {
            violations.push(format!(
                "{}: warm-scratch allocations per simulation exceed the {} budget ({})",
                c.name, WARM_ALLOC_BUDGET, c.batch_allocs_per_sim
            ));
        }
        let floor = b.events_per_sec * (1.0 - THROUGHPUT_TOLERANCE);
        if c.events_per_sec < floor {
            violations.push(format!(
                "{}: events/sec fell more than {:.0}% below baseline ({:.0} < {:.0})",
                c.name,
                THROUGHPUT_TOLERANCE * 100.0,
                c.events_per_sec,
                floor
            ));
        }
        if current.workers == committed.workers {
            let floor = b.batch_sims_per_sec * (1.0 - BATCH_THROUGHPUT_TOLERANCE);
            if c.batch_sims_per_sec < floor {
                violations.push(format!(
                    "{}: batch sims/sec fell more than {:.0}% below baseline ({:.2} < {:.2})",
                    c.name,
                    BATCH_THROUGHPUT_TOLERANCE * 100.0,
                    c.batch_sims_per_sec,
                    floor
                ));
            }
        }
        if current.workers > 1
            && current.host_parallelism > 1
            && SPEEDUP_GATED_ROWS.contains(&c.name.as_str())
            && c.batch_sims_per_sec < BATCH_SPEEDUP_GATE * c.sims_per_sec
        {
            violations.push(format!(
                "{}: batch throughput {:.2} sims/s is below {:.1}x the single-sim \
                 rate {:.2} sims/s despite {} worker lanes on {} cores",
                c.name,
                c.batch_sims_per_sec,
                BATCH_SPEEDUP_GATE,
                c.sims_per_sec,
                current.workers,
                current.host_parallelism
            ));
        }
    }
    for b in &committed.flatness {
        let Some(c) = current.flatness.iter().find(|f| f.mode == b.mode) else {
            violations.push(format!(
                "flatness/{}: row missing from the current measurement",
                b.mode
            ));
            continue;
        };
        let ceiling = b.ratio * FLATNESS_TOLERANCE;
        if c.ratio > ceiling {
            violations.push(format!(
                "flatness/{}: 1deg/16deg events-per-sec ratio grew {:.2} -> {:.2} \
                 (ceiling {:.2}); the engine is losing throughput with scale",
                b.mode, b.ratio, c.ratio, ceiling
            ));
        }
    }
    for b in &committed.service {
        let Some(c) = current.service.iter().find(|r| r.scenario == b.scenario) else {
            violations.push(format!(
                "service/{}: row missing from the current measurement",
                b.scenario
            ));
            continue;
        };
        // The request counters are event-derived: the same seeded stream
        // through the same admission rules must produce the same counts
        // on every machine at every lane count. Any drift is semantic.
        for (metric, old, new) in [
            ("offered requests", b.offered, c.offered),
            ("admitted requests", b.admitted, c.admitted),
            ("rejected requests", b.rejected, c.rejected),
            ("deflected requests", b.deflected, c.deflected),
        ] {
            if new != old {
                violations.push(format!(
                    "service/{}: {metric} changed {old} -> {new} (semantics drift?)",
                    b.scenario
                ));
            }
        }
        let floor = b.requests_per_sec * (1.0 - THROUGHPUT_TOLERANCE);
        if c.requests_per_sec < floor {
            violations.push(format!(
                "service/{}: requests/sec fell more than {:.0}% below baseline \
                 ({:.0} < {:.0})",
                b.scenario,
                THROUGHPUT_TOLERANCE * 100.0,
                c.requests_per_sec,
                floor
            ));
        }
    }
    for b in &committed.sweeps {
        let Some(c) = current.sweeps.iter().find(|r| r.axis == b.axis) else {
            violations.push(format!(
                "sweep/{}: row missing from the current measurement",
                b.axis
            ));
            continue;
        };
        // The chain's resume/reuse counters are pure functions of the
        // witness and cadence semantics: any drift means the incremental
        // engine changed behaviour, never noise.
        for (metric, old, new) in [
            ("sweep points", b.points, c.points),
            ("resumed points", b.resumed, c.resumed),
            ("reused events", b.reused_events, c.reused_events),
            ("total events", b.total_events, c.total_events),
        ] {
            if new != old {
                violations.push(format!(
                    "sweep/{}: {metric} changed {old} -> {new} (semantics drift?)",
                    b.axis
                ));
            }
        }
        for (metric, old, new) in [
            (
                "scratch points/sec",
                b.scratch_points_per_sec,
                c.scratch_points_per_sec,
            ),
            (
                "incremental points/sec",
                b.incremental_points_per_sec,
                c.incremental_points_per_sec,
            ),
        ] {
            let floor = old * (1.0 - THROUGHPUT_TOLERANCE);
            if new < floor {
                violations.push(format!(
                    "sweep/{}: {metric} fell more than {:.0}% below baseline ({:.2} < {:.2})",
                    b.axis,
                    THROUGHPUT_TOLERANCE * 100.0,
                    new,
                    floor
                ));
            }
        }
        // Same-run quotient: on floored rows, incremental must beat
        // scratch by the gate on the current machine, whatever its
        // absolute speed.
        if let Some(floor) = sweep_speedup_floor(&b.axis) {
            if c.speedup < floor {
                violations.push(format!(
                    "sweep/{}: incremental speedup {:.2}x is below the {:.1}x floor \
                     ({:.2} vs {:.2} points/sec)",
                    b.axis,
                    c.speedup,
                    floor,
                    c.incremental_points_per_sec,
                    c.scratch_points_per_sec
                ));
            }
        }
    }
    for b in &committed.cache {
        let Some(c) = current.cache.iter().find(|r| r.scenario == b.scenario) else {
            violations.push(format!(
                "cache/{}: row missing from the current measurement",
                b.scenario
            ));
            continue;
        };
        // The hit/miss/single-flight counters are pure functions of the
        // cache and digest semantics: any drift means the memoization
        // layer changed behaviour, never noise.
        for (metric, old, new) in [
            ("cold misses", b.cold_misses, c.cold_misses),
            ("warm hits", b.warm_hits, c.warm_hits),
            (
                "single-flight computes",
                b.single_flight_computes,
                c.single_flight_computes,
            ),
            ("plan candidates", b.plan_candidates, c.plan_candidates),
        ] {
            if new != old {
                violations.push(format!(
                    "cache/{}: {metric} changed {old} -> {new} (semantics drift?)",
                    b.scenario
                ));
            }
        }
        // Machine-local replay floor: both numbers from the current run.
        if c.plan_warm_hits * 100 < c.plan_candidates * PLAN_REPLAY_GATE_PCT {
            violations.push(format!(
                "cache/{}: re-planning replayed only {} of {} candidates from \
                 cache, below the {}% floor",
                b.scenario, c.plan_warm_hits, c.plan_candidates, PLAN_REPLAY_GATE_PCT
            ));
        }
        let floor = b.warm_hits_per_sec * (1.0 - THROUGHPUT_TOLERANCE);
        if c.warm_hits_per_sec < floor {
            violations.push(format!(
                "cache/{}: warm hits/sec fell more than {:.0}% below baseline \
                 ({:.0} < {:.0})",
                b.scenario,
                THROUGHPUT_TOLERANCE * 100.0,
                c.warm_hits_per_sec,
                floor
            ));
        }
    }
    violations
}

/// Renders a one-line-per-metric delta table between a fresh measurement
/// and the committed baseline, annotating every cell with the gate's
/// verdict. `repro bench-json --check` prints this when the gate fails so
/// the CI log names the row, the metric, and the old/new values directly,
/// instead of leaving the reader to diff two JSON files.
pub fn delta_summary(current: &Baseline, committed: &Baseline) -> Vec<String> {
    let mut lines = Vec::new();
    let verdict = |bad: bool| if bad { "FAIL" } else { "ok" };
    let mut push = |name: &str, metric: &str, old: String, new: String, bad: bool| {
        lines.push(format!(
            "{name:<18} {metric:<20} {old:>14} -> {new:<14} {}",
            verdict(bad)
        ));
    };
    for c in &current.workloads {
        let Some(b) = committed.workloads.iter().find(|w| w.name == c.name) else {
            push(
                &c.name,
                "(whole row)",
                "absent".into(),
                "present".into(),
                true,
            );
            continue;
        };
        push(
            &c.name,
            "allocs_per_sim",
            b.allocs_per_sim.to_string(),
            c.allocs_per_sim.to_string(),
            c.allocs_per_sim > b.allocs_per_sim,
        );
        push(
            &c.name,
            "alloc_bytes_per_sim",
            b.alloc_bytes_per_sim.to_string(),
            c.alloc_bytes_per_sim.to_string(),
            c.alloc_bytes_per_sim > b.alloc_bytes_per_sim,
        );
        push(
            &c.name,
            "events",
            b.events.to_string(),
            c.events.to_string(),
            c.events != b.events,
        );
        push(
            &c.name,
            "batch_allocs_per_sim",
            b.batch_allocs_per_sim.to_string(),
            c.batch_allocs_per_sim.to_string(),
            c.batch_allocs_per_sim > b.batch_allocs_per_sim,
        );
        push(
            &c.name,
            "queue_pops",
            b.queue_pops.to_string(),
            c.queue_pops.to_string(),
            c.queue_pops != b.queue_pops,
        );
        push(
            &c.name,
            "queue_cancellations",
            b.queue_cancellations.to_string(),
            c.queue_cancellations.to_string(),
            c.queue_cancellations != b.queue_cancellations,
        );
        push(
            &c.name,
            "queue_peak_pending",
            b.queue_peak_pending.to_string(),
            c.queue_peak_pending.to_string(),
            c.queue_peak_pending != b.queue_peak_pending,
        );
        push(
            &c.name,
            "events_per_sec",
            format!("{:.0}", b.events_per_sec),
            format!("{:.0}", c.events_per_sec),
            c.events_per_sec < b.events_per_sec * (1.0 - THROUGHPUT_TOLERANCE),
        );
        push(
            &c.name,
            "batch_sims_per_sec",
            format!("{:.2}", b.batch_sims_per_sec),
            format!("{:.2}", c.batch_sims_per_sec),
            current.workers == committed.workers
                && c.batch_sims_per_sec < b.batch_sims_per_sec * (1.0 - BATCH_THROUGHPUT_TOLERANCE),
        );
    }
    for b in &committed.flatness {
        let name = format!("flatness/{}", b.mode);
        match current.flatness.iter().find(|f| f.mode == b.mode) {
            Some(c) => push(
                &name,
                "ratio_1deg_16deg",
                format!("{:.2}", b.ratio),
                format!("{:.2}", c.ratio),
                c.ratio > b.ratio * FLATNESS_TOLERANCE,
            ),
            None => push(
                &name,
                "ratio_1deg_16deg",
                format!("{:.2}", b.ratio),
                "absent".into(),
                true,
            ),
        }
    }
    for b in &committed.service {
        let name = format!("service/{}", b.scenario);
        match current.service.iter().find(|r| r.scenario == b.scenario) {
            Some(c) => {
                for (metric, old, new) in [
                    ("offered", b.offered, c.offered),
                    ("admitted", b.admitted, c.admitted),
                    ("rejected", b.rejected, c.rejected),
                    ("deflected", b.deflected, c.deflected),
                ] {
                    push(&name, metric, old.to_string(), new.to_string(), new != old);
                }
                push(
                    &name,
                    "requests_per_sec",
                    format!("{:.0}", b.requests_per_sec),
                    format!("{:.0}", c.requests_per_sec),
                    c.requests_per_sec < b.requests_per_sec * (1.0 - THROUGHPUT_TOLERANCE),
                );
            }
            None => push(
                &name,
                "(whole row)",
                "present".into(),
                "absent".into(),
                true,
            ),
        }
    }
    for b in &committed.sweeps {
        let name = format!("sweep/{}", b.axis);
        match current.sweeps.iter().find(|r| r.axis == b.axis) {
            Some(c) => {
                for (metric, old, new) in [
                    ("points", b.points, c.points),
                    ("resumed", b.resumed, c.resumed),
                    ("reused_events", b.reused_events, c.reused_events),
                    ("total_events", b.total_events, c.total_events),
                ] {
                    push(&name, metric, old.to_string(), new.to_string(), new != old);
                }
                push(
                    &name,
                    "incr_points_per_sec",
                    format!("{:.2}", b.incremental_points_per_sec),
                    format!("{:.2}", c.incremental_points_per_sec),
                    c.incremental_points_per_sec
                        < b.incremental_points_per_sec * (1.0 - THROUGHPUT_TOLERANCE),
                );
                push(
                    &name,
                    "speedup",
                    format!("{:.2}", b.speedup),
                    format!("{:.2}", c.speedup),
                    sweep_speedup_floor(&b.axis).is_some_and(|floor| c.speedup < floor),
                );
            }
            None => push(
                &name,
                "(whole row)",
                "present".into(),
                "absent".into(),
                true,
            ),
        }
    }
    for b in &committed.cache {
        let name = format!("cache/{}", b.scenario);
        match current.cache.iter().find(|r| r.scenario == b.scenario) {
            Some(c) => {
                for (metric, old, new) in [
                    ("cold_misses", b.cold_misses, c.cold_misses),
                    ("warm_hits", b.warm_hits, c.warm_hits),
                    (
                        "single_flight_computes",
                        b.single_flight_computes,
                        c.single_flight_computes,
                    ),
                    ("plan_candidates", b.plan_candidates, c.plan_candidates),
                ] {
                    push(&name, metric, old.to_string(), new.to_string(), new != old);
                }
                push(
                    &name,
                    "plan_warm_hits",
                    b.plan_warm_hits.to_string(),
                    c.plan_warm_hits.to_string(),
                    c.plan_warm_hits * 100 < c.plan_candidates * PLAN_REPLAY_GATE_PCT,
                );
                push(
                    &name,
                    "warm_hits_per_sec",
                    format!("{:.0}", b.warm_hits_per_sec),
                    format!("{:.0}", c.warm_hits_per_sec),
                    c.warm_hits_per_sec < b.warm_hits_per_sec * (1.0 - THROUGHPUT_TOLERANCE),
                );
            }
            None => push(
                &name,
                "(whole row)",
                "present".into(),
                "absent".into(),
                true,
            ),
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            workers: 1,
            host_parallelism: 1,
            workloads: vec![WorkloadMeasurement {
                name: "1deg/regular".into(),
                tasks: 203,
                events: 1000,
                allocs_per_sim: 42,
                alloc_bytes_per_sim: 4096,
                peak_live_bytes: 2048,
                sims_per_sec: 1234.5,
                events_per_sec: 1_234_500.0,
                batch_allocs_per_sim: 2,
                batch_sims_per_sec: 1300.0,
                queue_pops: 900,
                queue_cancellations: 12,
                queue_peak_pending: 64,
            }],
            scaling: vec![
                ScalingRow {
                    workers: 1,
                    batch_sims_per_sec: 1300.0,
                },
                ScalingRow {
                    workers: 2,
                    batch_sims_per_sec: 2500.25,
                },
            ],
            flatness: vec![FlatnessRow {
                mode: "regular".into(),
                small_events_per_sec: 1_234_500.0,
                large_events_per_sec: 600_000.0,
                ratio: 2.058,
            }],
            service: vec![ServiceScaleRow {
                scenario: "quarter-mixed-reject".into(),
                offered: 25_000,
                admitted: 24_000,
                rejected: 1_000,
                deflected: 0,
                requests_per_sec: 50_000.0,
            }],
            sweeps: vec![
                SweepRow {
                    axis: "processors/4deg-regular".into(),
                    points: 64,
                    resumed: 40,
                    reused_events: 1_500,
                    total_events: 240_000,
                    scratch_points_per_sec: 1_500.0,
                    incremental_points_per_sec: 1_700.0,
                    speedup: 1.13,
                },
                SweepRow {
                    axis: "processors/1deg-regular".into(),
                    points: 128,
                    resumed: 90,
                    reused_events: 20_000,
                    total_events: 32_000,
                    scratch_points_per_sec: 20_000.0,
                    incremental_points_per_sec: 52_000.0,
                    speedup: 2.6,
                },
            ],
            cache: vec![CacheRow {
                scenario: "1deg-procs-grid+plan-replay".into(),
                cold_misses: 16,
                warm_hits: 16,
                single_flight_computes: 1,
                plan_candidates: 74,
                plan_warm_hits: 74,
                warm_hits_per_sec: 90_000.0,
            }],
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let b = sample();
        let parsed = from_json(&to_json(&b)).unwrap();
        assert_eq!(parsed.workloads.len(), 1);
        assert_eq!(parsed.workers, b.workers);
        assert_eq!(parsed.host_parallelism, b.host_parallelism);
        let (a, p) = (&b.workloads[0], &parsed.workloads[0]);
        assert_eq!(a.name, p.name);
        assert_eq!(a.tasks, p.tasks);
        assert_eq!(a.events, p.events);
        assert_eq!(a.allocs_per_sim, p.allocs_per_sim);
        assert_eq!(a.alloc_bytes_per_sim, p.alloc_bytes_per_sim);
        assert_eq!(a.peak_live_bytes, p.peak_live_bytes);
        assert!((a.sims_per_sec - p.sims_per_sec).abs() < 0.01);
        assert!((a.events_per_sec - p.events_per_sec).abs() < 1.0);
        assert_eq!(a.batch_allocs_per_sim, p.batch_allocs_per_sim);
        assert!((a.batch_sims_per_sec - p.batch_sims_per_sec).abs() < 0.01);
        assert_eq!(a.queue_pops, p.queue_pops);
        assert_eq!(a.queue_cancellations, p.queue_cancellations);
        assert_eq!(a.queue_peak_pending, p.queue_peak_pending);
        assert_eq!(parsed.scaling.len(), 2);
        assert_eq!(parsed.scaling[1].workers, 2);
        assert!((parsed.scaling[1].batch_sims_per_sec - 2500.25).abs() < 0.01);
        assert_eq!(parsed.flatness.len(), 1);
        assert_eq!(parsed.flatness[0].mode, "regular");
        assert!((parsed.flatness[0].small_events_per_sec - 1_234_500.0).abs() < 1.0);
        assert!((parsed.flatness[0].large_events_per_sec - 600_000.0).abs() < 1.0);
        assert!((parsed.flatness[0].ratio - 2.058).abs() < 0.001);
        assert_eq!(parsed.service.len(), 1);
        let s = &parsed.service[0];
        assert_eq!(s.scenario, "quarter-mixed-reject");
        assert_eq!(s.offered, 25_000);
        assert_eq!(s.admitted, 24_000);
        assert_eq!(s.rejected, 1_000);
        assert_eq!(s.deflected, 0);
        assert!((s.requests_per_sec - 50_000.0).abs() < 1.0);
        assert_eq!(parsed.sweeps.len(), 2);
        let w = &parsed.sweeps[0];
        assert_eq!(w.axis, "processors/4deg-regular");
        assert_eq!(w.points, 64);
        assert_eq!(w.resumed, 40);
        assert_eq!(w.reused_events, 1_500);
        assert_eq!(w.total_events, 240_000);
        assert!((w.scratch_points_per_sec - 1_500.0).abs() < 0.01);
        assert!((w.incremental_points_per_sec - 1_700.0).abs() < 0.01);
        assert!((w.speedup - 1.13).abs() < 0.01);
        let w = &parsed.sweeps[1];
        assert_eq!(w.axis, "processors/1deg-regular");
        assert_eq!(w.points, 128);
        assert_eq!(w.resumed, 90);
        assert!((w.speedup - 2.6).abs() < 0.01);
        assert_eq!(parsed.cache.len(), 1);
        let r = &parsed.cache[0];
        assert_eq!(r.scenario, "1deg-procs-grid+plan-replay");
        assert_eq!(r.cold_misses, 16);
        assert_eq!(r.warm_hits, 16);
        assert_eq!(r.single_flight_computes, 1);
        assert_eq!(r.plan_candidates, 74);
        assert_eq!(r.plan_warm_hits, 74);
        assert!((r.warm_hits_per_sec - 90_000.0).abs() < 1.0);
    }

    #[test]
    fn rejects_wrong_schema_and_empty_files() {
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"schema\": \"other/v9\", \"workloads\": []}").is_err());
    }

    #[test]
    fn identical_baselines_pass_the_gate() {
        let b = sample();
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn allocation_increase_fails_strictly() {
        let committed = sample();
        let mut current = sample();
        current.workloads[0].allocs_per_sim += 1;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("allocations per simulation"), "{v:?}");
    }

    #[test]
    fn allocation_decrease_passes() {
        let committed = sample();
        let mut current = sample();
        current.workloads[0].allocs_per_sim -= 10;
        current.workloads[0].alloc_bytes_per_sim -= 100;
        assert!(compare(&current, &committed).is_empty());
    }

    #[test]
    fn throughput_gate_is_tolerant_not_absent() {
        let committed = sample();
        let mut current = sample();
        // 50% slower: within tolerance.
        current.workloads[0].events_per_sec = committed.workloads[0].events_per_sec * 0.5;
        assert!(compare(&current, &committed).is_empty());
        // 80% slower: out of tolerance.
        current.workloads[0].events_per_sec = committed.workloads[0].events_per_sec * 0.2;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("events/sec"), "{v:?}");
    }

    #[test]
    fn event_count_drift_is_flagged() {
        let committed = sample();
        let mut current = sample();
        current.workloads[0].events -= 1;
        let v = compare(&current, &committed);
        assert!(v.iter().any(|m| m.contains("semantics drift")), "{v:?}");
    }

    #[test]
    fn kernel_counter_drift_is_flagged_in_both_directions() {
        let committed = sample();
        let mut current = sample();
        // A *decrease* is drift too: these columns pin kernel semantics,
        // not budgets.
        current.workloads[0].queue_pops -= 1;
        current.workloads[0].queue_peak_pending += 5;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("calendar-queue pops"), "{v:?}");
        assert!(v[1].contains("calendar-queue peak pending"), "{v:?}");
        // Cancellations likewise.
        let mut current = sample();
        current.workloads[0].queue_cancellations += 1;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("calendar-queue cancellations"), "{v:?}");
    }

    #[test]
    fn missing_workload_is_flagged() {
        let committed = Baseline {
            workers: 1,
            host_parallelism: 1,
            workloads: vec![],
            scaling: vec![],
            flatness: vec![],
            service: vec![],
            sweeps: vec![],
            cache: vec![],
        };
        // An empty committed set can't happen via from_json, but the gate
        // still reports the mismatch rather than silently passing.
        let v = compare(&sample(), &committed);
        assert!(v[0].contains("not present"), "{v:?}");
    }

    #[test]
    fn warm_scratch_allocation_increase_fails_strictly() {
        let committed = sample();
        let mut current = sample();
        current.workloads[0].batch_allocs_per_sim += 1;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("warm-scratch allocations"), "{v:?}");
    }

    #[test]
    fn warm_scratch_budget_is_absolute_on_paper_sized_workloads() {
        // Even if the committed file itself is over budget, a 1-4deg row
        // above WARM_ALLOC_BUDGET fails.
        let mut committed = sample();
        committed.workloads[0].batch_allocs_per_sim = WARM_ALLOC_BUDGET + 3;
        let mut current = committed.clone();
        current.workloads[0].batch_allocs_per_sim = WARM_ALLOC_BUDGET + 1;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("exceed"), "{v:?}");
        // A scale-up row is exempt from the absolute cap.
        committed.workloads[0].name = "16deg/regular".into();
        let mut big = committed.clone();
        big.workloads[0].batch_allocs_per_sim = WARM_ALLOC_BUDGET + 1;
        assert!(compare(&big, &committed).is_empty());
    }

    #[test]
    fn batch_throughput_gate_only_fires_when_lane_counts_match() {
        let committed = sample();
        let mut current = sample();
        // 80% slower batch at the same lane count: out of tolerance.
        current.workloads[0].batch_sims_per_sec = committed.workloads[0].batch_sims_per_sec * 0.2;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("batch sims/sec"), "{v:?}");
        // Same numbers but measured with a different MCLOUD_WORKERS: the
        // rates are not comparable, so the gate stays quiet.
        current.workers = 4;
        current.host_parallelism = 1;
        assert!(compare(&current, &committed).is_empty());
    }

    #[test]
    fn speedup_gate_requires_parallel_hardware_and_lanes() {
        let committed = sample();
        let mut current = sample();
        // Batch no faster than single-sim. On a 1-core / 1-lane run the
        // speedup gate must not fire...
        current.workloads[0].batch_sims_per_sec = current.workloads[0].sims_per_sec;
        assert!(compare(&current, &committed).is_empty());
        // ...but with lanes and cores available it must.
        current.workers = 4;
        current.host_parallelism = 4;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("below 1.5x"), "{v:?}");
        // Meeting the ratio clears it.
        current.workloads[0].batch_sims_per_sec =
            BATCH_SPEEDUP_GATE * current.workloads[0].sims_per_sec;
        assert!(compare(&current, &committed).is_empty());
    }

    #[test]
    fn workload_list_covers_all_sizes_and_modes() {
        let ws = workloads();
        assert_eq!(ws.len(), BASELINE_DEGREES.len() * DataMode::ALL.len());
        let names: Vec<String> = ws.iter().map(Workload::name).collect();
        assert!(names.contains(&"4deg/regular".to_string()));
        assert!(names.contains(&"16deg/remote-io".to_string()));
    }

    #[test]
    fn tiny_workload_measures_deterministically() {
        // The smallest workload twice over: the deterministic columns must
        // agree exactly between independent measurements.
        let w = Workload {
            degrees: 1.0,
            mode: DataMode::Regular,
        };
        let a = measure_workload(&w, 1);
        let b = measure_workload(&w, 1);
        assert_eq!(a.tasks, 203);
        assert!(a.events > 0);
        assert_eq!(a.events, b.events);
        assert_eq!(a.allocs_per_sim, b.allocs_per_sim);
        assert_eq!(a.alloc_bytes_per_sim, b.alloc_bytes_per_sim);
        assert_eq!(a.peak_live_bytes, b.peak_live_bytes);
        assert_eq!(a.batch_allocs_per_sim, b.batch_allocs_per_sim);
        assert_eq!(a.queue_pops, b.queue_pops);
        assert_eq!(a.queue_cancellations, b.queue_cancellations);
        assert_eq!(a.queue_peak_pending, b.queue_peak_pending);
        assert!(a.queue_pops > 0);
        assert!(
            a.batch_allocs_per_sim <= WARM_ALLOC_BUDGET,
            "warm scratch must not allocate: {} allocs/sim",
            a.batch_allocs_per_sim
        );
    }

    #[test]
    fn flatness_rows_pair_small_and_large_workloads_per_mode() {
        let mk = |name: &str, eps: f64| {
            let mut w = sample().workloads[0].clone();
            w.name = name.into();
            w.events_per_sec = eps;
            w
        };
        let rows = flatness_rows(&[
            mk("1deg/regular", 9_000_000.0),
            mk("16deg/regular", 4_500_000.0),
            mk("1deg/cleanup", 8_000_000.0),
            // No 16deg/cleanup row: the cleanup mode must be skipped, not
            // fabricated.
        ]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].mode, "regular");
        assert!((rows[0].ratio - 2.0).abs() < 1e-9);
        assert!((rows[0].small_events_per_sec - 9_000_000.0).abs() < 1e-3);
        assert!((rows[0].large_events_per_sec - 4_500_000.0).abs() < 1e-3);
    }

    #[test]
    fn flatness_regression_fails_the_gate() {
        let committed = sample();
        let mut current = sample();
        // Ratio growing past FLATNESS_TOLERANCE x the committed one: the
        // engine got disproportionately slower at 16deg.
        current.flatness[0].ratio = committed.flatness[0].ratio * FLATNESS_TOLERANCE * 1.01;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("flatness/regular"), "{v:?}");
        // At exactly the ceiling it still passes (the tolerance is the
        // allowance, not the trigger).
        current.flatness[0].ratio = committed.flatness[0].ratio * FLATNESS_TOLERANCE;
        assert!(compare(&current, &committed).is_empty());
        // A flatter-than-committed ratio is an improvement, never a failure.
        current.flatness[0].ratio = committed.flatness[0].ratio * 0.5;
        assert!(compare(&current, &committed).is_empty());
    }

    #[test]
    fn missing_flatness_row_fails_the_gate() {
        let committed = sample();
        let mut current = sample();
        current.flatness.clear();
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("row missing"), "{v:?}");
    }

    #[test]
    fn service_counter_drift_is_flagged_in_both_directions() {
        let committed = sample();
        let mut current = sample();
        // A rejected request moving to admitted is drift on both
        // counters even though the offered total is unchanged.
        current.service[0].admitted += 1;
        current.service[0].rejected -= 1;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("admitted requests"), "{v:?}");
        assert!(v[1].contains("rejected requests"), "{v:?}");
    }

    #[test]
    fn service_throughput_gate_is_tolerant_not_absent() {
        let committed = sample();
        let mut current = sample();
        current.service[0].requests_per_sec = committed.service[0].requests_per_sec * 0.5;
        assert!(compare(&current, &committed).is_empty());
        current.service[0].requests_per_sec = committed.service[0].requests_per_sec * 0.2;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("requests/sec"), "{v:?}");
    }

    #[test]
    fn missing_service_row_fails_the_gate() {
        let committed = sample();
        let mut current = sample();
        current.service.clear();
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("service/quarter-mixed-reject"), "{v:?}");
    }

    #[test]
    fn sweep_counter_drift_is_flagged_in_both_directions() {
        let committed = sample();
        let mut current = sample();
        // Fewer resumes with more replayed events: the witness or cadence
        // changed — exact drift, both directions.
        current.sweeps[0].resumed -= 1;
        current.sweeps[0].reused_events -= 500;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("resumed points"), "{v:?}");
        assert!(v[1].contains("reused events"), "{v:?}");
    }

    #[test]
    fn sweep_speedup_floor_is_hard() {
        let committed = sample();
        let mut current = sample();
        // Losing the sublinear win on the showcase row fails even when
        // points/sec stays within the tolerant band.
        current.sweeps[1].incremental_points_per_sec = 21_000.0;
        current.sweeps[1].speedup = 1.05;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("below the 2.0x floor"), "{v:?}");
        // At the floor it passes.
        current.sweeps[1].speedup = SWEEP_SPEEDUP_GATE;
        current.sweeps[1].incremental_points_per_sec = 41_000.0;
        assert!(compare(&current, &committed).is_empty());
        // The wide-workflow 4° row carries no hard floor: its quotient is
        // informational (reuse is locked by the exact counters).
        current.sweeps[0].speedup = 0.9;
        assert!(compare(&current, &committed).is_empty());
        assert!(sweep_speedup_floor("processors/4deg-regular").is_none());
        assert_eq!(
            sweep_speedup_floor("processors/1deg-regular"),
            Some(SWEEP_SPEEDUP_GATE)
        );
    }

    #[test]
    fn missing_sweep_row_fails_the_gate() {
        let committed = sample();
        let mut current = sample();
        current.sweeps.clear();
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("sweep/processors/4deg-regular"), "{v:?}");
        assert!(v[1].contains("sweep/processors/1deg-regular"), "{v:?}");
    }

    #[test]
    fn tiny_sweep_row_measures_deterministically_and_reuses_events() {
        // A small axis in debug builds: the deterministic chain counters
        // must agree between independent measurements, and the chain must
        // actually resume points on a plain processor axis. The axis
        // reaches past the 1° mosaic's peak parallelism (~50), where the
        // witness stops firing and resumes replay zero events.
        let a = measure_sweep_row(1.0, 64, 1);
        let b = measure_sweep_row(1.0, 64, 1);
        assert_eq!(a.axis, "processors/1deg-regular");
        assert_eq!(a.points, 64);
        assert_eq!(a.resumed, b.resumed);
        assert_eq!(a.reused_events, b.reused_events);
        assert_eq!(a.total_events, b.total_events);
        assert!(a.resumed > 0, "{a:?}");
        assert!(a.reused_events > 0, "{a:?}");
        assert!(a.total_events > a.reused_events, "{a:?}");
    }

    #[test]
    fn service_scale_measurement_is_deterministic() {
        // The counted campaign twice over: the deterministic counters
        // must agree exactly, and the scenario must actually exercise
        // the admission path (some requests rejected, none lost).
        let a = measure_service_scale(1);
        let b = measure_service_scale(1);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].scenario, b[0].scenario);
        assert_eq!(a[0].offered, b[0].offered);
        assert_eq!(a[0].admitted, b[0].admitted);
        assert_eq!(a[0].rejected, b[0].rejected);
        assert_eq!(a[0].deflected, b[0].deflected);
        assert!(a[0].offered > 10_000, "{}", a[0].offered);
        assert!(a[0].rejected > 0, "the flash crowd must overflow the queue");
        assert_eq!(a[0].admitted + a[0].rejected, a[0].offered);
    }

    #[test]
    fn delta_summary_names_the_failing_metric() {
        let committed = sample();
        let mut current = sample();
        current.workloads[0].allocs_per_sim += 7;
        current.flatness[0].ratio = committed.flatness[0].ratio * 3.0;
        let lines = delta_summary(&current, &committed);
        // One line per gated metric per row, plus the flatness, service,
        // sweep and cache rows (9 workload + 1 flatness + 5 service +
        // 2×6 sweep + 6 cache).
        assert_eq!(lines.len(), 33, "{lines:?}");
        let failing: Vec<&String> = lines.iter().filter(|l| l.ends_with("FAIL")).collect();
        assert_eq!(failing.len(), 2, "{lines:?}");
        assert!(
            failing[0].contains("allocs_per_sim") && failing[0].contains("42 -> 49"),
            "{failing:?}"
        );
        assert!(
            failing[1].contains("flatness/regular") && failing[1].contains("ratio_1deg_16deg"),
            "{failing:?}"
        );
        // Metrics inside tolerance carry an "ok" verdict, not silence.
        assert!(
            lines
                .iter()
                .any(|l| l.contains("events_per_sec") && l.ends_with("ok")),
            "{lines:?}"
        );
    }

    #[test]
    fn scaling_rows_cover_one_two_and_four_lanes() {
        let rows = measure_scaling(1);
        assert_eq!(
            rows.iter().map(|r| r.workers).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert!(rows.iter().all(|r| r.batch_sims_per_sec > 0.0));
    }

    #[test]
    fn cache_counter_drift_is_flagged_in_both_directions() {
        let committed = sample();
        let mut current = sample();
        // A point dropping out of the warm pass while the cold pass grew
        // is drift on both counters, whichever direction each moved.
        current.cache[0].cold_misses += 1;
        current.cache[0].warm_hits -= 1;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("cold misses"), "{v:?}");
        assert!(v[1].contains("warm hits"), "{v:?}");
        // A second simulation slipping past single-flight likewise.
        let mut current = sample();
        current.cache[0].single_flight_computes = 2;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("single-flight computes"), "{v:?}");
    }

    #[test]
    fn plan_replay_floor_is_machine_local_and_hard() {
        let committed = sample();
        let mut current = sample();
        // 66 of 74 replayed (89.2%): below the 90% floor, even though the
        // committed row would never have shown it.
        current.cache[0].plan_warm_hits = 66;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("below the 90% floor"), "{v:?}");
        // 67 of 74 (90.5%) clears it.
        current.cache[0].plan_warm_hits = 67;
        assert!(compare(&current, &committed).is_empty());
    }

    #[test]
    fn cache_throughput_gate_is_tolerant_not_absent() {
        let committed = sample();
        let mut current = sample();
        current.cache[0].warm_hits_per_sec = committed.cache[0].warm_hits_per_sec * 0.5;
        assert!(compare(&current, &committed).is_empty());
        current.cache[0].warm_hits_per_sec = committed.cache[0].warm_hits_per_sec * 0.2;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("warm hits/sec"), "{v:?}");
    }

    #[test]
    fn missing_cache_row_fails_the_gate() {
        let committed = sample();
        let mut current = sample();
        current.cache.clear();
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cache/1deg-procs-grid+plan-replay"), "{v:?}");
    }

    #[test]
    fn tiny_cache_row_measures_deterministically() {
        // The cache row twice over: every counter is a pure function of
        // the cache and digest semantics, so independent measurements
        // must agree exactly — and the row must show the shape the gate
        // relies on (full warm coverage, one compute through the race,
        // a ≥90% planner replay).
        let a = measure_cache(1);
        let b = measure_cache(1);
        assert_eq!(a.len(), 1);
        let (a, b) = (&a[0], &b[0]);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.cold_misses, b.cold_misses);
        assert_eq!(a.warm_hits, b.warm_hits);
        assert_eq!(a.single_flight_computes, b.single_flight_computes);
        assert_eq!(a.plan_candidates, b.plan_candidates);
        assert_eq!(a.plan_warm_hits, b.plan_warm_hits);
        assert_eq!(a.cold_misses, CACHE_GRID_PROCS as u64);
        assert_eq!(a.warm_hits, CACHE_GRID_PROCS as u64);
        assert_eq!(a.single_flight_computes, 1);
        assert!(a.plan_candidates > 0);
        assert!(
            a.plan_warm_hits * 100 >= a.plan_candidates * PLAN_REPLAY_GATE_PCT,
            "{a:?}"
        );
        assert!(a.warm_hits_per_sec > 0.0);
    }
}
