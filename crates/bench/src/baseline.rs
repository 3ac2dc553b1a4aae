//! The committed performance baseline: machine-readable engine throughput
//! and allocation budgets, plus the regression gate CI runs against them.
//!
//! `repro bench-json` measures the sections below and writes
//! `BENCH_baseline.json` (schema [`SCHEMA`]) at the workspace root:
//!
//! * `workloads` — every workload in [`workloads`]: the paper's 1°/2°/4°
//!   mosaics plus the synthetic scale-up 8°/16° presets (~12k/~49k
//!   tasks), each in all three data-management modes
//!   ([`WorkloadMeasurement`]);
//! * `scaling` — informational worker-count rows for `1deg/regular`
//!   batch throughput ([`ScalingRow`]; never gated);
//! * `flatness` — per data mode, the 1°/16° events/sec ratio
//!   ([`FlatnessRow`]). The paper's experiment is a size sweep, so the
//!   simulator must not get slower *per event* as the mosaic grows: the
//!   binary-heap/pointer-chasing kernel degraded ~12x from 1° to 16° on
//!   the original baseline machine, the cache-native kernel (calendar
//!   queue + struct-of-arrays engine state) holds ~2x;
//! * `service` — a seeded streaming service campaign
//!   ([`ServiceScaleRow`]);
//! * `sweeps` — dense processor axes walked from scratch and through the
//!   checkpoint/fork chain ([`SweepRow`]);
//! * `cache` — the content-addressed result cache probed the way its hot
//!   consumers use it ([`CacheRow`]).
//!
//! Two kinds of numbers are recorded:
//!
//! * **Deterministic**: tasks, engine events, allocation count / bytes /
//!   peak live bytes per simulation (from the [`crate::alloc`] counting
//!   allocator), warm-scratch allocations, the engine's kernel counters
//!   ([`mcloud_core::KernelStats`]), and the service, sweep-chain and
//!   cache counters. Identical on every machine for a given source tree,
//!   so the gate compares them *strictly*: budgets may not increase, and
//!   counters that pin semantics may not change at all.
//! * **Environment-dependent**: every per-second rate. These are gated
//!   tolerantly (fail only when more than 70% below baseline) so the gate
//!   catches order-of-magnitude regressions without flaking on machine
//!   noise.
//!
//! A few checks compare two numbers of the *same* run, so machine speed
//! cancels out of them: warm-scratch allocations within
//! [`WARM_ALLOC_BUDGET`], batch over single-sim throughput on parallel
//! hardware ([`BATCH_SPEEDUP_GATE`]), the flatness ratio against
//! [`FLATNESS_TOLERANCE`]× its committed value, the sweep speedup floor
//! ([`sweep_speedup_floor`]) and the planner replay floor
//! ([`PLAN_REPLAY_GATE_PCT`]).
//!
//! Each section has one metric table: per column, the JSON key, output
//! precision, field getter and setter, message label and gates.
//! [`to_json`], [`from_json`], [`compare`] and [`delta_summary`] are each
//! one generic pass over those tables, and [`compare`] reports exactly
//! the cells [`delta_summary`] marks `FAIL`. The JSON is emitted with a
//! fixed key order so a re-run on identical hardware diffs minimally, and
//! read back with the workspace's JSON reader ([`mcloud_simkit::json`]).

use std::fmt::Write as _;
use std::time::Instant;

use mcloud_core::{
    simulate, simulate_batch, simulate_batch_on, simulate_with_scratch, BatchScratch, DataMode,
    ExecConfig, IncrementalChain, Provisioning, SimScratch, SweepAxis,
};
use mcloud_dag::Workflow;
use mcloud_montage::{generate, MosaicConfig};
use mcloud_simkit::json::{self, Value};
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
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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

// --- the metric tables ------------------------------------------------------

/// How the gate judges one metric of a row present on both sides.
enum Gate<R> {
    /// Deterministic counter: any change, either way, is semantic drift.
    Exact,
    /// Deterministic budget: any increase fails; a decrease is an
    /// improvement.
    NoIncrease,
    /// Wall-clock throughput: fails when it falls more than `loss` below
    /// the committed value. With `same_lanes`, only when the current run
    /// used the committed file's worker-lane count, since throughput at
    /// different `MCLOUD_WORKERS` settings is not comparable.
    Tolerance { loss: f64, same_lanes: bool },
    /// Same-run quotient: fails when it grows past this factor times the
    /// committed quotient.
    RatioCeiling(f64),
    /// Same-run hard floor: the bound the current row must reach, if it
    /// has one, and the words naming it. The committed value is not
    /// consulted, so the check is machine-local.
    Floor(fn(&R) -> Option<(f64, String)>),
    /// [`WARM_ALLOC_BUDGET`] on the paper-sized (1–4°) workloads: absolute,
    /// not relative, because batch lanes must stay allocation-free at
    /// steady state.
    WarmAllocBudget,
    /// Batch throughput at least [`BATCH_SPEEDUP_GATE`]× the row's
    /// single-sim rate (read by the function) on the
    /// [`SPEEDUP_GATED_ROWS`], when the current run has more than one lane
    /// and more than one core. Both rates come from the current run.
    BatchSpeedup(fn(&R) -> f64),
}

impl<R> Gate<R> {
    /// The tolerant gate every wall-clock throughput column carries.
    const THROUGHPUT: Self = Gate::Tolerance {
        loss: THROUGHPUT_TOLERANCE,
        same_lanes: false,
    };
}

/// Output precision of an integer column (emitted bare, no decimals).
const INT: Option<usize> = None;

/// One column of a row kind: how it is emitted, parsed, named and gated.
struct Metric<R: 'static> {
    /// JSON key.
    key: &'static str,
    /// Column name in the delta table.
    column: &'static str,
    /// Decimals in the JSON and in messages; [`INT`] for integer columns.
    prec: Option<usize>,
    get: fn(&R) -> f64,
    /// `None` for derived columns, which are emitted but never parsed.
    set: Option<fn(&mut R, f64)>,
    /// Noun phrase naming the metric in gate messages.
    label: &'static str,
    /// Gates applied in order; empty for informational columns.
    gates: &'static [Gate<R>],
}

impl<R: 'static> Metric<R> {
    fn fmt(&self, v: f64) -> String {
        match self.prec {
            // Integer columns are counts held exactly in an f64.
            None => format!("{}", v as u64),
            Some(p) => format!("{v:.p$}"),
        }
    }
}

/// A metric column backed by the numeric row field `$field`. The JSON key
/// and the delta-table column default to the field name.
macro_rules! metric {
    ($field:ident: $ty:ty, $prec:expr, $label:literal, $gates:expr
     $(, key = $key:literal)? $(, column = $column:literal)?) => {
        Metric {
            key: { let _k = stringify!($field); $(let _k = $key;)? _k },
            column: { let _c = stringify!($field); $(let _c = $column;)? _c },
            prec: $prec,
            get: |r| r.$field as f64,
            set: Some(|r, v| r.$field = v as $ty),
            label: $label,
            gates: $gates,
        }
    };
}

/// The string field identifying a row within its section.
struct RowId<R> {
    key: &'static str,
    get: fn(&R) -> &str,
    set: fn(&mut R, String),
}

/// A row kind: its JSON array, its identity and its metric table.
struct Section<R: 'static> {
    /// JSON key of the row array.
    key: &'static str,
    /// Prefix naming the section's rows in messages.
    prefix: &'static str,
    /// `None` only for the informational scaling rows, which carry no
    /// string id and no gate.
    id: Option<RowId<R>>,
    metrics: &'static [Metric<R>],
}

#[rustfmt::skip]
const WORKLOADS: Section<WorkloadMeasurement> = Section {
    key: "workloads",
    prefix: "",
    id: Some(RowId { key: "name", get: |r| &r.name, set: |r, v| r.name = v }),
    metrics: &[
        metric!(tasks: u64, INT, "tasks", &[]),
        metric!(events: u64, INT, "events per simulation", &[Gate::Exact]),
        metric!(allocs_per_sim: u64, INT, "allocations per simulation", &[Gate::NoIncrease]),
        metric!(alloc_bytes_per_sim: u64, INT, "allocated bytes per simulation", &[Gate::NoIncrease]),
        metric!(peak_live_bytes: u64, INT, "peak live bytes per simulation", &[Gate::NoIncrease]),
        Metric {
            key: "allocs_per_task", column: "allocs_per_task", prec: Some(2),
            get: WorkloadMeasurement::allocs_per_task, set: None,
            label: "allocations per task", gates: &[],
        },
        metric!(sims_per_sec: f64, Some(2), "sims/sec", &[]),
        metric!(events_per_sec: f64, Some(0), "events/sec", &[Gate::THROUGHPUT]),
        metric!(batch_allocs_per_sim: u64, INT, "warm-scratch allocations per simulation",
                &[Gate::NoIncrease, Gate::WarmAllocBudget]),
        metric!(batch_sims_per_sec: f64, Some(2), "batch sims/sec", &[
            Gate::Tolerance { loss: BATCH_THROUGHPUT_TOLERANCE, same_lanes: true },
            Gate::BatchSpeedup(|r| r.sims_per_sec),
        ]),
        metric!(queue_pops: u64, INT, "calendar-queue pops per simulation", &[Gate::Exact]),
        metric!(queue_cancellations: u64, INT, "calendar-queue cancellations per simulation", &[Gate::Exact]),
        metric!(queue_peak_pending: u64, INT, "calendar-queue peak pending per simulation", &[Gate::Exact]),
    ],
};

#[rustfmt::skip]
const SCALING: Section<ScalingRow> = Section {
    key: "scaling",
    prefix: "scaling/",
    id: None,
    metrics: &[
        metric!(workers: usize, INT, "worker lanes", &[]),
        metric!(batch_sims_per_sec: f64, Some(2), "batch sims/sec", &[]),
    ],
};

#[rustfmt::skip]
const FLATNESS: Section<FlatnessRow> = Section {
    key: "flatness",
    prefix: "flatness/",
    id: Some(RowId { key: "mode", get: |r| &r.mode, set: |r, v| r.mode = v }),
    metrics: &[
        metric!(small_events_per_sec: f64, Some(0), "1deg events/sec", &[]),
        metric!(large_events_per_sec: f64, Some(0), "16deg events/sec", &[]),
        metric!(ratio: f64, Some(3), "1deg/16deg events-per-sec ratio",
                &[Gate::RatioCeiling(FLATNESS_TOLERANCE)], column = "ratio_1deg_16deg"),
    ],
};

#[rustfmt::skip]
const SERVICE: Section<ServiceScaleRow> = Section {
    key: "service",
    prefix: "service/",
    id: Some(RowId { key: "scenario", get: |r| &r.scenario, set: |r, v| r.scenario = v }),
    metrics: &[
        metric!(offered: u64, INT, "offered requests", &[Gate::Exact]),
        metric!(admitted: u64, INT, "admitted requests", &[Gate::Exact]),
        metric!(rejected: u64, INT, "rejected requests", &[Gate::Exact]),
        metric!(deflected: u64, INT, "deflected requests", &[Gate::Exact]),
        metric!(requests_per_sec: f64, Some(0), "requests/sec", &[Gate::THROUGHPUT],
                key = "service_requests_per_sec"),
    ],
};

#[rustfmt::skip]
const SWEEPS: Section<SweepRow> = Section {
    key: "sweeps",
    prefix: "sweep/",
    id: Some(RowId { key: "axis", get: |r| &r.axis, set: |r, v| r.axis = v }),
    metrics: &[
        metric!(points: u64, INT, "sweep points", &[Gate::Exact]),
        metric!(resumed: u64, INT, "resumed points", &[Gate::Exact]),
        metric!(reused_events: u64, INT, "reused events", &[Gate::Exact]),
        metric!(total_events: u64, INT, "total events", &[Gate::Exact]),
        metric!(scratch_points_per_sec: f64, Some(2), "scratch points/sec", &[Gate::THROUGHPUT]),
        metric!(incremental_points_per_sec: f64, Some(2), "incremental points/sec",
                &[Gate::THROUGHPUT], column = "incr_points_per_sec"),
        metric!(speedup: f64, Some(2), "incremental speedup", &[Gate::Floor(|r| {
            sweep_speedup_floor(&r.axis).map(|floor| (floor, format!("{floor:.1}x floor")))
        })]),
    ],
};

#[rustfmt::skip]
const CACHE: Section<CacheRow> = Section {
    key: "cache",
    prefix: "cache/",
    id: Some(RowId { key: "scenario", get: |r| &r.scenario, set: |r, v| r.scenario = v }),
    metrics: &[
        metric!(cold_misses: u64, INT, "cold misses", &[Gate::Exact]),
        metric!(warm_hits: u64, INT, "warm hits", &[Gate::Exact]),
        metric!(single_flight_computes: u64, INT, "single-flight computes", &[Gate::Exact]),
        metric!(plan_candidates: u64, INT, "plan candidates", &[Gate::Exact]),
        metric!(plan_warm_hits: u64, INT, "candidates replayed from cache on re-planning", &[Gate::Floor(|r| {
            let floor = (r.plan_candidates * PLAN_REPLAY_GATE_PCT) as f64 / 100.0;
            Some((floor, format!("{PLAN_REPLAY_GATE_PCT}% floor of {} candidates", r.plan_candidates)))
        })]),
        metric!(warm_hits_per_sec: f64, Some(0), "warm hits/sec", &[Gate::THROUGHPUT]),
    ],
};

// --- JSON -------------------------------------------------------------------

/// Schema tag written into (and required from) the baseline file.
pub const SCHEMA: &str = "mcloud-bench-baseline/v7";

/// Renders one section as a JSON array, one row object per line.
fn emit<R>(sec: &Section<R>, rows: &[R]) -> String {
    let mut s = format!("  \"{}\": [\n", sec.key);
    for (i, row) in rows.iter().enumerate() {
        let id = sec
            .id
            .iter()
            .map(|id| format!("\"{}\": \"{}\"", id.key, json::escape((id.get)(row))));
        let metrics = sec
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.key, m.fmt((m.get)(row))));
        let fields: Vec<String> = id.chain(metrics).collect();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "    {{{}}}{comma}", fields.join(", "));
    }
    s.push_str("  ]");
    s
}

/// Serializes a baseline as pretty-printed JSON with a fixed key order.
pub fn to_json(b: &Baseline) -> String {
    let sections = [
        emit(&WORKLOADS, &b.workloads),
        emit(&SCALING, &b.scaling),
        emit(&FLATNESS, &b.flatness),
        emit(&SERVICE, &b.service),
        emit(&SWEEPS, &b.sweeps),
        emit(&CACHE, &b.cache),
    ];
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"workers\": {},\n  \"host_parallelism\": {},\n{}\n}}\n",
        b.workers,
        b.host_parallelism,
        sections.join(",\n")
    )
}

/// Reads one section's rows back; an absent section is empty.
fn parse_rows<R: Default>(doc: &Value, sec: &Section<R>) -> Result<Vec<R>, String> {
    let Some(rows) = doc.get(sec.key) else {
        return Ok(Vec::new());
    };
    let rows = rows
        .as_array()
        .ok_or_else(|| format!("baseline field {:?} is not an array", sec.key))?;
    let missing = |key: &str| format!("a {:?} row lacks the field {key:?}", sec.key);
    rows.iter()
        .map(|v| {
            let mut row = R::default();
            if let Some(id) = &sec.id {
                let s = v.get(id.key).and_then(Value::as_str);
                (id.set)(&mut row, s.ok_or_else(|| missing(id.key))?.to_string());
            }
            for m in sec.metrics {
                if let Some(set) = m.set {
                    set(
                        &mut row,
                        v.get(m.key)
                            .and_then(Value::as_f64)
                            .ok_or_else(|| missing(m.key))?,
                    );
                }
            }
            Ok(row)
        })
        .collect()
}

/// Parses a baseline file produced by [`to_json`].
///
/// # Errors
/// Returns a message when the file is not JSON, its schema tag is missing
/// or mismatched, or a row lacks a required field.
pub fn from_json(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text).map_err(|e| format!("baseline file is not JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("baseline file does not carry schema {SCHEMA:?}"));
    }
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("baseline file lacks a top-level {key:?} field"))
    };
    let workloads = parse_rows(&doc, &WORKLOADS)?;
    if workloads.is_empty() {
        return Err("baseline file contains no workloads".into());
    }
    Ok(Baseline {
        workers: count("workers")?,
        host_parallelism: count("host_parallelism")?,
        workloads,
        scaling: parse_rows(&doc, &SCALING)?,
        flatness: parse_rows(&doc, &FLATNESS)?,
        service: parse_rows(&doc, &SERVICE)?,
        sweeps: parse_rows(&doc, &SWEEPS)?,
        cache: parse_rows(&doc, &CACHE)?,
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

/// What the same-run gates read from the current measurement as a whole.
struct Run {
    workers: usize,
    host_parallelism: usize,
    /// The current run used the committed file's worker-lane count.
    same_lanes: bool,
}

impl<R: 'static> Gate<R> {
    /// Why `new`, of the current row `cur` named `row`, fails this gate
    /// against the committed `old`; `None` when it passes.
    fn failure(
        &self,
        m: &Metric<R>,
        row: &str,
        old: f64,
        new: f64,
        cur: &R,
        run: &Run,
    ) -> Option<String> {
        let (o, n) = (m.fmt(old), m.fmt(new));
        match *self {
            Gate::Exact => (new != old).then(|| format!("changed {o} -> {n} (semantics drift?)")),
            Gate::NoIncrease => (new > old).then(|| format!("regressed {o} -> {n}")),
            Gate::Tolerance { loss, same_lanes } => {
                let (floor, pct) = (old * (1.0 - loss), loss * 100.0);
                ((run.same_lanes || !same_lanes) && new < floor).then(|| {
                    format!(
                        "fell more than {pct:.0}% below baseline ({n} < {})",
                        m.fmt(floor)
                    )
                })
            }
            Gate::RatioCeiling(factor) => (new > old * factor)
                .then(|| format!("grew {o} -> {n} (ceiling {})", m.fmt(old * factor))),
            Gate::Floor(bound) => {
                let (floor, name) = bound(cur)?;
                (new < floor).then(|| format!("{n} is below the {name}"))
            }
            Gate::WarmAllocBudget => {
                let paper_sized = ["1deg/", "2deg/", "4deg/"]
                    .iter()
                    .any(|p| row.starts_with(p));
                (paper_sized && new > WARM_ALLOC_BUDGET as f64)
                    .then(|| format!("exceed the {WARM_ALLOC_BUDGET} budget ({n})"))
            }
            Gate::BatchSpeedup(single_sim) => {
                let (single, lanes, cores) = (single_sim(cur), run.workers, run.host_parallelism);
                let parallel = lanes > 1 && cores > 1 && SPEEDUP_GATED_ROWS.contains(&row);
                (parallel && new < BATCH_SPEEDUP_GATE * single).then(|| {
                    format!(
                        "{n} is below {BATCH_SPEEDUP_GATE:.1}x the single-sim rate {single:.2} \
                         despite {lanes} worker lanes on {cores} cores"
                    )
                })
            }
        }
    }
}

/// One line of the delta table: a gated metric of a row present on both
/// sides, or a whole row present on one side only, with the messages of
/// every gate it fails.
struct Cell {
    row: String,
    column: &'static str,
    old: String,
    new: String,
    failures: Vec<String>,
}

impl Cell {
    /// A row present on one side only.
    fn whole_row(row: String, old: &str, new: &str, why: &str) -> Cell {
        let failures = vec![format!("{row}: {why}")];
        let (column, old, new) = ("(whole row)", old.into(), new.into());
        Cell {
            row,
            column,
            old,
            new,
            failures,
        }
    }
}

/// Evaluates one section's gates, in committed-row then table order. A
/// row present on only one side is a single failing `(whole row)` cell,
/// whichever side lacks it.
fn gate_rows<R>(sec: &Section<R>, current: &[R], committed: &[R], run: &Run) -> Vec<Cell> {
    let id = sec.id.as_ref().expect("gated sections identify their rows");
    let name = |r: &R| format!("{}{}", sec.prefix, (id.get)(r));
    let find = |rows: &[R], r: &R| rows.iter().position(|x| (id.get)(x) == (id.get)(r));
    let mut cells = Vec::new();
    for b in committed {
        let Some(i) = find(current, b) else {
            let why = "row missing from the current measurement";
            cells.push(Cell::whole_row(name(b), "present", "absent", why));
            continue;
        };
        let (c, row) = (&current[i], name(b));
        for m in sec.metrics.iter().filter(|m| !m.gates.is_empty()) {
            let (old, new) = ((m.get)(b), (m.get)(c));
            let failures = m
                .gates
                .iter()
                .filter_map(|g| g.failure(m, &row, old, new, c, run));
            cells.push(Cell {
                row: row.clone(),
                column: m.column,
                old: m.fmt(old),
                new: m.fmt(new),
                failures: failures
                    .map(|why| format!("{row}: {} {why}", m.label))
                    .collect(),
            });
        }
    }
    for c in current.iter().filter(|c| find(committed, c).is_none()) {
        let why = "not present in the committed baseline (re-run `repro bench-json --out`)";
        cells.push(Cell::whole_row(name(c), "absent", "present", why));
    }
    cells
}

/// Every gated cell of every section, in table order. The scaling rows
/// are informational and take no part.
fn evaluate(current: &Baseline, committed: &Baseline) -> Vec<Cell> {
    let run = &Run {
        workers: current.workers,
        host_parallelism: current.host_parallelism,
        same_lanes: current.workers == committed.workers,
    };
    [
        gate_rows(&WORKLOADS, &current.workloads, &committed.workloads, run),
        gate_rows(&FLATNESS, &current.flatness, &committed.flatness, run),
        gate_rows(&SERVICE, &current.service, &committed.service, run),
        gate_rows(&SWEEPS, &current.sweeps, &committed.sweeps, run),
        gate_rows(&CACHE, &current.cache, &committed.cache, run),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Compares a fresh measurement against the committed baseline.
///
/// Returns the list of human-readable violations (empty = gate passes).
/// Each metric's gates are listed in its section's table:
/// * any *increase* in allocations, allocated bytes or peak live bytes per
///   simulation, or in warm-scratch allocations — these are
///   deterministic, so an increase is a real regression, never noise;
/// * any change in events per simulation, in the calendar-queue counters,
///   or in the service, sweep and cache counters (deterministic, exact);
/// * warm-scratch allocations above [`WARM_ALLOC_BUDGET`] on a 1–4°
///   workload;
/// * a drop of more than [`THROUGHPUT_TOLERANCE`] in any throughput
///   column, or of more than [`BATCH_THROUGHPUT_TOLERANCE`] in batch
///   sims/sec when the lane counts match;
/// * on a machine with both `workers > 1` and `host_parallelism > 1`:
///   batch throughput below [`BATCH_SPEEDUP_GATE`]× single-sim throughput
///   on the [`SPEEDUP_GATED_ROWS`];
/// * a per-mode 1°/16° events/sec ratio more than [`FLATNESS_TOLERANCE`]×
///   the committed ratio;
/// * a sweep speedup below its [`sweep_speedup_floor`], or a planner
///   replay below [`PLAN_REPLAY_GATE_PCT`]% of the current run's
///   candidate grid;
/// * a row of a gated section present on one side only, in either
///   direction.
///
/// The same-run checks (budget, speedups, replay floor) read only the
/// current run, so they cannot flake on hardware differences from the
/// committed file. Improvements never fail the gate; re-baseline to lock
/// them in.
pub fn compare(current: &Baseline, committed: &Baseline) -> Vec<String> {
    evaluate(current, committed)
        .into_iter()
        .flat_map(|c| c.failures)
        .collect()
}

/// Renders a one-line-per-metric delta table between a fresh measurement
/// and the committed baseline, annotating every cell with the gate's
/// verdict. `repro bench-json --check` prints this when the gate fails so
/// the CI log names the row, the metric, and the old/new values directly,
/// instead of leaving the reader to diff two JSON files. A cell reads
/// `FAIL` exactly when [`compare`] reports a violation for it.
pub fn delta_summary(current: &Baseline, committed: &Baseline) -> Vec<String> {
    evaluate(current, committed)
        .into_iter()
        .map(|c| {
            let verdict = if c.failures.is_empty() { "ok" } else { "FAIL" };
            format!(
                "{:<18} {:<20} {:>14} -> {:<14} {verdict}",
                c.row, c.column, c.old, c.new
            )
        })
        .collect()
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
    fn peak_live_bytes_increase_fails_strictly() {
        let committed = sample();
        let mut current = sample();
        current.workloads[0].peak_live_bytes += 1;
        let v = compare(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("peak live bytes per simulation regressed"),
            "{v:?}"
        );
        // A smaller peak is an improvement.
        current.workloads[0].peak_live_bytes -= 2;
        assert!(compare(&current, &committed).is_empty());
    }

    #[test]
    fn rows_missing_on_either_side_are_flagged_in_every_section() {
        type Drop = fn(&mut Baseline);
        let sections: [(&str, Drop); 5] = [
            ("1deg/regular", |b| b.workloads.clear()),
            ("flatness/regular", |b| b.flatness.clear()),
            ("service/quarter-mixed-reject", |b| b.service.clear()),
            ("sweep/processors/4deg-regular", |b| b.sweeps.truncate(0)),
            ("cache/1deg-procs-grid+plan-replay", |b| b.cache.clear()),
        ];
        for (row, drop_rows) in sections {
            // Dropped from the current run: the committed row disappeared.
            let mut current = sample();
            drop_rows(&mut current);
            let v = compare(&current, &sample());
            assert!(
                v.contains(&format!("{row}: row missing from the current measurement")),
                "{v:?}"
            );
            // Dropped from the committed file: a row it never recorded.
            let mut committed = sample();
            drop_rows(&mut committed);
            let v = compare(&sample(), &committed);
            assert!(
                v.iter()
                    .any(|m| m.starts_with(&format!("{row}: not present in the committed"))),
                "{v:?}"
            );
        }
        // The reported case: a committed workload the current run lacks.
        let mut committed = sample();
        let mut extra = committed.workloads[0].clone();
        extra.name = "4deg/regular".into();
        committed.workloads.push(extra);
        let v = compare(&sample(), &committed);
        assert_eq!(
            v,
            vec!["4deg/regular: row missing from the current measurement".to_string()]
        );
    }

    /// Each gated metric of [`sample`] pushed in its failing direction:
    /// the row and delta-table column expected to fail, and the change.
    type Perturbation = (&'static str, &'static str, fn(&mut Baseline, &mut Baseline));

    #[rustfmt::skip]
    const PERTURBATIONS: &[Perturbation] = &[
        ("1deg/regular", "events", |c, _| c.workloads[0].events += 1),
        ("1deg/regular", "allocs_per_sim", |c, _| c.workloads[0].allocs_per_sim += 1),
        ("1deg/regular", "alloc_bytes_per_sim", |c, _| c.workloads[0].alloc_bytes_per_sim += 1),
        ("1deg/regular", "peak_live_bytes", |c, _| c.workloads[0].peak_live_bytes *= 10),
        ("1deg/regular", "events_per_sec", |c, _| c.workloads[0].events_per_sec *= 0.2),
        ("1deg/regular", "batch_allocs_per_sim", |c, _| c.workloads[0].batch_allocs_per_sim += 1),
        // Over the absolute budget but not above the committed count.
        ("1deg/regular", "batch_allocs_per_sim", |c, b| {
            b.workloads[0].batch_allocs_per_sim = WARM_ALLOC_BUDGET + 3;
            c.workloads[0].batch_allocs_per_sim = WARM_ALLOC_BUDGET + 1;
        }),
        ("1deg/regular", "batch_sims_per_sec", |c, _| c.workloads[0].batch_sims_per_sec *= 0.2),
        // The same-run batch speedup, on a parallel run whose lane count
        // differs from the committed file's.
        ("1deg/regular", "batch_sims_per_sec", |c, _| {
            (c.workers, c.host_parallelism) = (4, 4);
            c.workloads[0].batch_sims_per_sec = c.workloads[0].sims_per_sec;
        }),
        ("1deg/regular", "queue_pops", |c, _| c.workloads[0].queue_pops += 1),
        ("1deg/regular", "queue_cancellations", |c, _| c.workloads[0].queue_cancellations -= 1),
        ("1deg/regular", "queue_peak_pending", |c, _| c.workloads[0].queue_peak_pending += 1),
        ("1deg/regular", "(whole row)", |c, _| c.workloads.clear()),
        ("flatness/regular", "ratio_1deg_16deg", |c, _| c.flatness[0].ratio *= 3.0),
        ("service/quarter-mixed-reject", "offered", |c, _| c.service[0].offered += 1),
        ("service/quarter-mixed-reject", "admitted", |c, _| c.service[0].admitted -= 1),
        ("service/quarter-mixed-reject", "rejected", |c, _| c.service[0].rejected += 1),
        ("service/quarter-mixed-reject", "deflected", |c, _| c.service[0].deflected += 1),
        ("service/quarter-mixed-reject", "requests_per_sec", |c, _| c.service[0].requests_per_sec *= 0.2),
        ("sweep/processors/4deg-regular", "points", |c, _| c.sweeps[0].points += 1),
        ("sweep/processors/4deg-regular", "resumed", |c, _| c.sweeps[0].resumed += 1),
        ("sweep/processors/4deg-regular", "reused_events", |c, _| c.sweeps[0].reused_events -= 1),
        ("sweep/processors/4deg-regular", "total_events", |c, _| c.sweeps[0].total_events += 1),
        ("sweep/processors/4deg-regular", "scratch_points_per_sec", |c, _| c.sweeps[0].scratch_points_per_sec *= 0.2),
        ("sweep/processors/4deg-regular", "incr_points_per_sec", |c, _| c.sweeps[0].incremental_points_per_sec *= 0.2),
        ("sweep/processors/1deg-regular", "speedup", |c, _| c.sweeps[1].speedup = 1.05),
        ("cache/1deg-procs-grid+plan-replay", "cold_misses", |c, _| c.cache[0].cold_misses += 1),
        ("cache/1deg-procs-grid+plan-replay", "warm_hits", |c, _| c.cache[0].warm_hits -= 1),
        ("cache/1deg-procs-grid+plan-replay", "single_flight_computes", |c, _| c.cache[0].single_flight_computes += 1),
        ("cache/1deg-procs-grid+plan-replay", "plan_candidates", |c, _| c.cache[0].plan_candidates += 1),
        ("cache/1deg-procs-grid+plan-replay", "plan_warm_hits", |c, _| c.cache[0].plan_warm_hits = 66),
        ("cache/1deg-procs-grid+plan-replay", "warm_hits_per_sec", |c, _| c.cache[0].warm_hits_per_sec *= 0.2),
    ];

    #[test]
    fn compare_and_delta_summary_agree_on_every_gated_metric() {
        let fails = |current: &Baseline, committed: &Baseline| -> Vec<String> {
            delta_summary(current, committed)
                .into_iter()
                .filter(|l| l.ends_with("FAIL"))
                .collect()
        };
        assert!(fails(&sample(), &sample()).is_empty());
        for &(row, column, perturb) in PERTURBATIONS {
            let (mut current, mut committed) = (sample(), sample());
            perturb(&mut current, &mut committed);
            let violations = compare(&current, &committed);
            let failing = fails(&current, &committed);
            assert_eq!(
                failing.len(),
                1,
                "{row} {column}: {failing:?} vs {violations:?}"
            );
            assert_eq!(
                failing[0].split_whitespace().next(),
                Some(row),
                "{failing:?}"
            );
            assert!(
                failing[0].contains(&format!(" {column} ")),
                "{column}: {failing:?}"
            );
            assert!(
                !violations.is_empty(),
                "{row} {column}: delta FAILs, compare passes"
            );
            assert!(
                violations
                    .iter()
                    .all(|v| v.starts_with(&format!("{row}: "))),
                "{row} {column}: {violations:?}"
            );
        }
    }

    #[test]
    fn committed_baseline_round_trips_byte_for_byte() {
        let text = include_str!("../../../BENCH_baseline.json");
        let parsed = from_json(text).expect("the committed baseline parses");
        assert_eq!(to_json(&parsed), text);
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
        // sweep and cache rows (10 workload + 1 flatness + 5 service +
        // 2×7 sweep + 6 cache).
        assert_eq!(lines.len(), 36, "{lines:?}");
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
