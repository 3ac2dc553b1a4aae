//! Seeded input generation: the serve frames and CLI command lines each
//! workload sends. Everything here is a pure function of the workload
//! seed (and, for the near-miss session, of the frames generated before),
//! so a replay of the same run sees the same inputs.

use std::collections::{BTreeMap, HashSet};

use mcloud_core::{DataMode, ExecConfig, FaultModel, Provisioning, Scenario, ScenarioRecipe};

/// splitmix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const PROCS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const MODES: [&str; 3] = ["regular", "remote-io", "cleanup"];
const FAULT_RATES: [&str; 4] = ["0.001", "0.002", "0.005", "0.01"];
const BANDWIDTHS_MBPS: [u32; 5] = [1, 5, 20, 100, 1000];

/// One `simulate` scenario, held as the flags the benchmark sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    pub degrees: u32,
    pub seed: u64,
    pub procs: u32,
    pub mode: &'static str,
    pub fault_rate: Option<&'static str>,
    pub bandwidth_mbps: Option<u32>,
}

impl Sim {
    fn random(rng: &mut Rng, degrees: u32) -> Sim {
        Sim {
            degrees,
            // Distinct per draw with overwhelming probability; callers that
            // need distinct recipes also check `key`.
            seed: 1 + rng.next() % 1_000_000_000,
            procs: rng.pick(&PROCS),
            mode: rng.pick(&MODES),
            fault_rate: None,
            bandwidth_mbps: None,
        }
    }

    /// The `args` array of the request.
    pub fn args(&self) -> Vec<String> {
        let mut a = vec![
            "--degrees".to_string(),
            self.degrees.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--procs".to_string(),
            self.procs.to_string(),
            "--mode".to_string(),
            self.mode.to_string(),
        ];
        if let Some(rate) = self.fault_rate {
            a.extend(["--fault-rate".to_string(), rate.to_string()]);
        }
        if let Some(mbps) = self.bandwidth_mbps {
            a.extend(["--bandwidth-mbps".to_string(), mbps.to_string()]);
        }
        a
    }

    /// A stable identity for "same scenario" checks.
    pub fn key(&self) -> String {
        self.args().join(" ")
    }

    /// The content-addressed scenario `mcloud serve` builds from `args`:
    /// `ExecConfig::paper_default()` plus the flags, as its argument
    /// parser applies them.
    pub fn scenario(&self) -> Scenario {
        let mut recipe = ScenarioRecipe::new(f64::from(self.degrees));
        recipe.seed = self.seed;
        let mode = match self.mode {
            "regular" => DataMode::Regular,
            "remote-io" => DataMode::RemoteIo,
            _ => DataMode::DynamicCleanup,
        };
        let mbps = f64::from(self.bandwidth_mbps.unwrap_or(10));
        let mut exec = ExecConfig::paper_default().mode(mode).bandwidth(mbps * 1e6);
        if let Some(rate) = self.fault_rate {
            exec = exec.with_fault_model(FaultModel {
                task_failure_prob: rate.parse().expect("fault rate literal"),
                transfer_failure_prob: 0.0,
                proc_mttf_s: 0.0,
                seed: 2008,
            });
        }
        exec.provisioning = Provisioning::Fixed {
            processors: self.procs,
        };
        Scenario { recipe, exec }
    }

    /// A near-miss of `self`: same recipe, one to four execution axes
    /// changed.
    fn vary(&self, rng: &mut Rng) -> Sim {
        let mut v = self.clone();
        let axes = 1 + rng.below(15);
        if axes & 1 != 0 {
            v.procs = rng.pick(&PROCS);
        }
        if axes & 2 != 0 {
            v.mode = rng.pick(&MODES);
        }
        if axes & 4 != 0 {
            v.fault_rate = Some(rng.pick(&FAULT_RATES));
        }
        if axes & 8 != 0 {
            v.bandwidth_mbps = Some(rng.pick(&BANDWIDTHS_MBPS));
        }
        v
    }
}

/// What a frame is, for latency bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A new recipe in the cold session.
    Cold,
    /// The first query of a recipe in the near-miss session.
    First,
    /// Same recipe as an answered query, different execution flags.
    NearMiss,
    /// An exact repeat of an answered query (memory hit).
    Warm,
    /// A batch frame mixing hits and misses.
    Batch,
    /// A replayed scenario answered by a fresh server from its disk tier.
    Disk,
    /// The server's `{"op": "metrics"}` counters.
    Metrics,
    /// A `metrics` frame sent to a server that sat idle while the client
    /// worked on another surface, so the next timed frame does not pay
    /// for the wake-up. Not timed.
    Wake,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::First => "first",
            Kind::NearMiss => "nearmiss",
            Kind::Warm => "warm",
            Kind::Batch => "batch",
            Kind::Disk => "disk",
            Kind::Metrics => "metrics",
            Kind::Wake => "wake",
        }
    }
}

#[derive(Debug, Clone)]
pub enum Req {
    Sim(Sim),
    Batch(Vec<Sim>),
    Metrics,
}

#[derive(Debug, Clone)]
pub struct Frame {
    pub kind: Kind,
    pub req: Req,
}

impl Frame {
    pub fn sim(kind: Kind, sim: Sim) -> Frame {
        Frame {
            kind,
            req: Req::Sim(sim),
        }
    }

    pub fn metrics(kind: Kind) -> Frame {
        Frame {
            kind,
            req: Req::Metrics,
        }
    }

    /// The request payload, in the protocol's JSON.
    pub fn payload(&self) -> String {
        let list = |args: Vec<String>| {
            let quoted: Vec<String> = args.iter().map(|a| format!("\"{a}\"")).collect();
            format!("[{}]", quoted.join(", "))
        };
        match &self.req {
            Req::Sim(s) => format!("{{\"op\": \"simulate\", \"args\": {}}}", list(s.args())),
            Req::Batch(sims) => {
                let inner: Vec<String> = sims.iter().map(|s| list(s.args())).collect();
                format!(
                    "{{\"op\": \"batch\", \"scenarios\": [{}]}}",
                    inner.join(", ")
                )
            }
            Req::Metrics => "{\"op\": \"metrics\"}".to_string(),
        }
    }
}

/// How a cold block mixes mosaic sizes: `(degrees, queries per block)`.
pub type Ladder = &'static [(u32, usize)];

/// The cold-mix ladder: 1°/2°/4°/8°/16° weighted 40/30/15/10/5. Every
/// block holds exactly these counts, so a run's size mix (and with it
/// the percentiles) does not depend on the seed. The weights put p50
/// inside the 2° band and p90 in the middle of the 8° band, away from a
/// size boundary where a percentile would jump between two sizes.
pub const COLD_LADDER: Ladder = &[(1, 40), (2, 30), (4, 15), (8, 10), (16, 5)];
/// The small probe ladder the other workloads use for their cold
/// figures: p50 inside the 2° band, p90 inside the 4° band.
pub const COLD_PROBE_LADDER: Ladder = &[(1, 40), (2, 40), (4, 20)];

/// One block of cold queries: every query a new recipe (a fresh
/// generator seed), sizes per `ladder`. Within each size the (procs,
/// mode) pairs are dealt from a fixed balanced sequence and the seed
/// shuffles which query gets which, so every block has the same config
/// mix and only the generator seeds and the order vary with the seed.
pub fn cold_block(seed: u64, block: usize, ladder: Ladder, seen: &mut HashSet<u64>) -> Vec<Frame> {
    let mut rng = Rng::new(seed, 0xC01D ^ ((block as u64) << 20));
    let mut frames = Vec::new();
    for &(degrees, n) in ladder {
        for i in 0..n {
            let mut sim = loop {
                let sim = Sim::random(&mut rng, degrees);
                if seen.insert(sim.seed) {
                    break sim;
                }
            };
            sim.mode = MODES[i % MODES.len()];
            sim.procs = PROCS[(i * 3) % PROCS.len()];
            frames.push(Frame::sim(Kind::Cold, sim));
        }
    }
    rng.shuffle(&mut frames);
    frames
}

/// Shape of one near-miss block.
#[derive(Debug, Clone, Copy)]
pub struct NearMissShape {
    /// Mosaic size of each recipe the block works on.
    pub recipes: &'static [u32],
    /// Near-miss single queries per recipe.
    pub nearmiss_per_recipe: usize,
    /// Warm repeats per block.
    pub warm: usize,
    /// Batch frames per block; each holds 4 hits and 4 misses.
    pub batches: usize,
}

/// Near-misses split 2°/4°/8° as 2/3/1 recipes: p50 falls inside the 4°
/// band and p90 inside the 8° band.
pub const NEARMISS_SHAPE: NearMissShape = NearMissShape {
    recipes: &[2, 2, 4, 4, 4, 8],
    nearmiss_per_recipe: 8,
    warm: 400,
    batches: 4,
};
/// The probe's near-misses: p50 inside the 2° band, p90 inside the 4°.
pub const NEARMISS_PROBE_SHAPE: NearMissShape = NearMissShape {
    recipes: &[1, 2, 2, 2, 4],
    nearmiss_per_recipe: 20,
    warm: 1000,
    batches: 4,
};

/// State the near-miss session carries across blocks: every scenario
/// answered so far, in answer order (popularity rank).
#[derive(Debug, Default)]
pub struct NearMissState {
    answered: Vec<Sim>,
    keys: HashSet<String>,
    seeds: HashSet<u64>,
}

impl NearMissState {
    fn answer(&mut self, sim: &Sim) {
        if self.keys.insert(sim.key()) {
            self.answered.push(sim.clone());
        }
    }

    fn fresh_variation(&mut self, rng: &mut Rng, base: &Sim) -> Sim {
        loop {
            let v = base.vary(rng);
            if !self.keys.contains(&v.key()) {
                return v;
            }
        }
    }

    /// A skewed pick among answered scenarios: weight 1/(rank+1), so the
    /// first-answered scenarios are the popular ones.
    fn popular(&self, rng: &mut Rng) -> Sim {
        let n = self.answered.len();
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut x = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
        for (i, sim) in self.answered.iter().enumerate() {
            x -= 1.0 / (i + 1) as f64;
            if x <= 0.0 {
                return sim.clone();
            }
        }
        self.answered[n - 1].clone()
    }
}

/// One near-miss block: first touches of new recipes, then near-misses,
/// warm repeats and mixed batches in seeded order.
pub fn nearmiss_block(
    seed: u64,
    block: usize,
    shape: NearMissShape,
    state: &mut NearMissState,
) -> Vec<Frame> {
    let mut rng = Rng::new(seed, 0x4EA2 ^ ((block as u64) << 20));
    let bases: Vec<Sim> = shape
        .recipes
        .iter()
        .map(|&d| loop {
            let sim = Sim::random(&mut rng, d);
            if state.seeds.insert(sim.seed) {
                break sim;
            }
        })
        .collect();
    let mut frames = Vec::new();
    for base in &bases {
        state.answer(base);
        frames.push(Frame::sim(Kind::First, base.clone()));
    }
    #[derive(Clone, Copy)]
    enum Slot {
        Near(usize),
        Warm,
        Batch,
    }
    let mut slots: Vec<Slot> = (0..bases.len())
        .flat_map(|r| std::iter::repeat_n(Slot::Near(r), shape.nearmiss_per_recipe))
        .chain(std::iter::repeat_n(Slot::Warm, shape.warm))
        .chain(std::iter::repeat_n(Slot::Batch, shape.batches))
        .collect();
    rng.shuffle(&mut slots);
    for slot in slots {
        match slot {
            Slot::Near(r) => {
                let v = state.fresh_variation(&mut rng, &bases[r]);
                state.answer(&v);
                frames.push(Frame::sim(Kind::NearMiss, v));
            }
            Slot::Warm => frames.push(Frame::sim(Kind::Warm, state.popular(&mut rng))),
            Slot::Batch => {
                let mut sims: Vec<Sim> = Vec::new();
                while sims.len() < 4 {
                    let hit = state.popular(&mut rng);
                    if !sims.contains(&hit) {
                        sims.push(hit);
                    }
                }
                for _ in 0..4 {
                    let base = &bases[rng.below(bases.len())];
                    let v = state.fresh_variation(&mut rng, base);
                    state.answer(&v);
                    sims.push(v);
                }
                rng.shuffle(&mut sims);
                frames.push(Frame {
                    kind: Kind::Batch,
                    req: Req::Batch(sims),
                });
            }
        }
    }
    frames
}

/// One-shot CLI runs of the campaign-plan series.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cli {
    /// The year campaign with the service-scale CI flags.
    Campaign { seed: u64 },
    /// The 74-candidate capacity plan.
    Plan { seed: u64 },
    /// An incremental processor sweep.
    Sweep { degrees: u32, seed: u64 },
}

pub const CAMPAIGN_HORIZON_H: f64 = 8760.0;
pub const CAMPAIGN_CLASSES: [(u32, f64, u8); 3] = [(1, 84.0, 2), (2, 28.0, 1), (4, 6.0, 0)];
pub const SWEEP_DEGREES: [u32; 4] = [1, 2, 3, 4];
pub const SWEEP_MAX_PROCS: u32 = 128;
pub const PLAN_SLO_P99_H: f64 = 7.0;

impl Cli {
    pub fn argv(&self) -> Vec<String> {
        let s = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        match self {
            Cli::Campaign { seed } => {
                let mut a = s(&["service", "--horizon-hours", "8760"]);
                for (d, r, p) in CAMPAIGN_CLASSES {
                    a.extend(["--class".to_string(), format!("{d}:{r}:{p}")]);
                }
                a.extend(s(&[
                    "--diurnal",
                    "0.6",
                    "--seasonal",
                    "0.25",
                    "--slots",
                    "208",
                    "--queue-bound",
                    "48",
                    "--admission",
                    "reject",
                    "--seed",
                ]));
                a.push(seed.to_string());
                a
            }
            Cli::Plan { seed } => {
                let mut a = s(&["plan", "--slo-p99", "7", "--seed"]);
                a.push(seed.to_string());
                a
            }
            Cli::Sweep { degrees, seed } => {
                let mut a = s(&["sweep", "--degrees"]);
                a.extend([
                    degrees.to_string(),
                    "--max-procs".to_string(),
                    SWEEP_MAX_PROCS.to_string(),
                    "--seed".to_string(),
                    seed.to_string(),
                ]);
                a
            }
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Cli::Campaign { .. } => "campaign",
            Cli::Plan { .. } => "plan",
            Cli::Sweep { .. } => "sweep",
        }
    }
}

/// One round of the campaign-plan series: the campaign (when
/// `campaign`), the plan, then sweeps at 1–4°. Every round runs the same
/// commands, all seeded by the workload seed: a planner re-running its
/// script. At the default seed 2008 the campaign is exactly the committed
/// golden one.
pub fn campaign_round(seed: u64, campaign: bool) -> Vec<Cli> {
    let mut runs = Vec::new();
    if campaign {
        runs.push(Cli::Campaign { seed });
    }
    runs.push(Cli::Plan { seed });
    runs.extend(
        SWEEP_DEGREES
            .iter()
            .map(|&degrees| Cli::Sweep { degrees, seed }),
    );
    runs
}

/// Query counts per kind, per size and per mode — the printed mix summary.
#[derive(Debug, Default)]
pub struct Mix {
    pub kinds: BTreeMap<&'static str, usize>,
    pub sizes: BTreeMap<u32, usize>,
    pub modes: BTreeMap<&'static str, usize>,
}

impl Mix {
    pub fn add(&mut self, frame: &Frame) {
        *self.kinds.entry(frame.kind.name()).or_default() += 1;
        let sims: &[Sim] = match &frame.req {
            Req::Sim(s) => std::slice::from_ref(s),
            Req::Batch(b) => b,
            Req::Metrics => &[],
        };
        for s in sims {
            *self.sizes.entry(s.degrees).or_default() += 1;
            *self.modes.entry(s.mode).or_default() += 1;
        }
    }

    pub fn add_cli(&mut self, cli: &Cli) {
        *self.kinds.entry(cli.kind()).or_default() += 1;
        if let Cli::Sweep { degrees, .. } = cli {
            *self.sizes.entry(*degrees).or_default() += 1;
        }
    }

    pub fn summary(&self) -> String {
        let kinds: Vec<String> = self.kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        let sizes: Vec<String> = self
            .sizes
            .iter()
            .map(|(d, n)| format!("{d}deg={n}"))
            .collect();
        let modes: Vec<String> = self.modes.iter().map(|(m, n)| format!("{m}={n}")).collect();
        format!(
            "kinds: {} | sizes: {} | modes: {}",
            kinds.join(" "),
            sizes.join(" "),
            modes.join(" ")
        )
    }
}
