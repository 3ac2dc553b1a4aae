//! The e2e run: one client, closed loop, interleaving every surface over
//! the whole run.
//!
//! The workload's main surface runs whole blocks (or CLI rounds) until
//! `--seconds` have passed. The other surfaces are probes of a fixed
//! size, sent in step with the clock (a probe has sent `elapsed/seconds`
//! of its frames at any moment). The host's speed drifts by tens of
//! percent over seconds on a shared machine, so a metric whose samples
//! came from one short window would inherit that window's speed; spread
//! over the run, every metric sees the same mix of fast and slow moments.

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::drive::{fresh_dir, run_cli, setup_probe, Answer, CliRun, Server};
use crate::inputs::{
    campaign_round, cold_block, nearmiss_block, Cli, Frame, Kind, Ladder, Mix, NearMissShape,
    NearMissState, Req, Sim, COLD_LADDER, COLD_PROBE_LADDER, NEARMISS_PROBE_SHAPE, NEARMISS_SHAPE,
};

/// Spawns per run behind the `setup_s` median.
const SETUP_PROBES: usize = 21;
/// Blocks of a cold or near-miss probe.
const PROBE_BLOCKS: usize = 5;
/// The campaign-plan probe: plan and sweep rounds, with the (400 ms)
/// campaign in every second.
const CLI_PROBE_ROUNDS: usize = 16;
const CAMPAIGN_EVERY: usize = 2;
/// Main-surface minimums: enough that every reported percentile has at
/// least ten samples beyond it, however fast the machine is.
const COLD_MIN_BLOCKS: usize = 1;
const NEARMISS_MIN_BLOCKS: usize = 3;
const CAMPAIGN_MIN_ROUNDS: usize = 3;
/// Probes are sent in bursts: a server that sat idle answers its next
/// frame slower (cold caches, wake-up), so frame-by-frame interleaving
/// would measure wake-ups instead of queries.
const SETUP_BURST: usize = 3;
const COLD_BURST: usize = 10;
const NEARMISS_BURST: usize = 25;
const CLI_BURST: usize = 5;
/// Distinct scenarios the near-miss server answered are replayed on the
/// disk-tier server in bursts of this many, once as many again are
/// waiting behind them, so disk hits are spread over the run like the
/// near-miss traffic.
const DISK_BURST: usize = 8;
/// A server idle for longer than this gets a wake-up frame first.
const WAKE_AFTER: Duration = Duration::from_millis(1);

/// Which surface gets the run's time.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Main {
    Cold,
    NearMiss,
    Campaign,
}

impl Main {
    pub fn of(workload: &str) -> Main {
        match workload {
            "cold-mix" => Main::Cold,
            "nearmiss-warm" => Main::NearMiss,
            _ => Main::Campaign,
        }
    }
}

/// One serve session of the e2e run.
pub struct Session {
    /// `cold`, `nearmiss` or `disk`.
    pub name: &'static str,
    /// Whether the server ran with a `--cache-dir` disk tier.
    pub disk_tier: bool,
    pub answers: Vec<Answer>,
    pub peak_rss_kb: u64,
}

impl Session {
    pub fn frames(&self) -> usize {
        self.answers.len()
    }

    /// Completed frames per second of time spent waiting on this server
    /// (wake-up frames left out).
    pub fn frames_per_s(&self) -> (usize, f64) {
        let timed = self.answers.iter().filter(|a| a.frame.kind != Kind::Wake);
        let (n, busy_ns) = timed.fold((0, 0u64), |(n, t), a| (n + 1, t + a.latency_ns));
        (n, n as f64 / (busy_ns as f64 / 1e9))
    }
}

/// Everything the e2e run did.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub sessions: Vec<Session>,
    pub cli: Vec<CliRun>,
    pub mix: Mix,
}

/// Where a stream's next frames come from.
enum Feed {
    Cold {
        ladder: Ladder,
        seen: HashSet<u64>,
    },
    NearMiss {
        shape: NearMissShape,
        state: NearMissState,
    },
    Disk,
}

/// A live serve session and the frames it still has to send.
struct Stream {
    name: &'static str,
    disk_tier: bool,
    server: Server,
    feed: Feed,
    /// Frames still to send, with the block each belongs to.
    queue: VecDeque<(usize, Frame)>,
    /// Blocks generated so far.
    blocks: usize,
    answers: Vec<Answer>,
    /// When the last reply arrived.
    last: Instant,
}

impl Stream {
    fn open(
        name: &'static str,
        dir: Option<&Path>,
        feed: Feed,
        bin: &Path,
    ) -> Result<Stream, String> {
        Ok(Stream {
            name,
            disk_tier: dir.is_some(),
            server: Server::spawn(bin, dir)?,
            feed,
            queue: VecDeque::new(),
            blocks: 0,
            answers: Vec::new(),
            last: Instant::now(),
        })
    }

    /// Queues the next block of frames.
    fn refill(&mut self, seed: u64) {
        let b = self.blocks;
        let frames = match &mut self.feed {
            Feed::Cold { ladder, seen } => cold_block(seed, b, ladder, seen),
            Feed::NearMiss { shape, state } => nearmiss_block(seed, b, *shape, state),
            Feed::Disk => Vec::new(),
        };
        self.queue.extend(frames.into_iter().map(|f| (b, f)));
        self.blocks += 1;
    }

    /// Sends the next queued frame (refilling first if needed); after the
    /// last frame of block 0, also the `metrics` frame behind the exact
    /// counts.
    fn send_next(&mut self, seed: u64, ids: &mut u32, mix: &mut Mix) -> Result<Frame, String> {
        if self.queue.is_empty() {
            self.refill(seed);
        }
        let (block, frame) = self.queue.pop_front().expect("refilled");
        self.ask(frame.clone(), block, ids, mix)?;
        if block == 0 && self.queue.front().is_none_or(|(b, _)| *b != 0) {
            self.ask(Frame::metrics(Kind::Metrics), 0, ids, mix)?;
        }
        Ok(frame)
    }

    fn ask(
        &mut self,
        frame: Frame,
        block: usize,
        ids: &mut u32,
        mix: &mut Mix,
    ) -> Result<(), String> {
        if self.last.elapsed() > WAKE_AFTER {
            self.exchange(Frame::metrics(Kind::Wake), block, ids, mix)?;
        }
        self.exchange(frame, block, ids, mix)
    }

    fn exchange(
        &mut self,
        frame: Frame,
        block: usize,
        ids: &mut u32,
        mix: &mut Mix,
    ) -> Result<(), String> {
        mix.add(&frame);
        *ids += 1;
        let (response, latency_ns) = self.server.ask(&frame.payload())?;
        self.answers.push(Answer {
            frame,
            id: *ids,
            response,
            latency_ns,
            block,
        });
        self.last = Instant::now();
        Ok(())
    }

    /// Ends the session with a final `metrics` frame; reads the peak RSS
    /// before the server exits.
    fn close(mut self, ids: &mut u32, mix: &mut Mix) -> Result<Session, String> {
        self.ask(Frame::metrics(Kind::Metrics), self.blocks, ids, mix)?;
        let peak_rss_kb = self.server.peak_rss_kb();
        self.server.finish()?;
        Ok(Session {
            name: self.name,
            disk_tier: self.disk_tier,
            answers: self.answers,
            peak_rss_kb,
        })
    }
}

/// The run's streams and counters.
struct Runner<'a> {
    bin: &'a Path,
    seed: u64,
    seconds: f64,
    start: Instant,
    ids: u32,
    mix: Mix,
    setup_s: Vec<f64>,
    cold: Stream,
    near: Stream,
    disk: Stream,
    /// Distinct scenarios the near-miss server has answered, waiting for
    /// their disk-tier replay.
    disk_backlog: VecDeque<Sim>,
    disk_seen: HashSet<String>,
    cli: Vec<CliRun>,
    cli_queue: VecDeque<Cli>,
    cli_rounds: usize,
    /// Probe totals, fixed when the run starts.
    cold_total: usize,
    near_total: usize,
    cli_total: usize,
    cold_sent: usize,
    near_sent: usize,
}

impl Runner<'_> {
    fn frac(&self) -> f64 {
        (self.start.elapsed().as_secs_f64() / self.seconds).min(1.0)
    }

    fn send_cold(&mut self) -> Result<(), String> {
        self.cold
            .send_next(self.seed, &mut self.ids, &mut self.mix)?;
        self.cold_sent += 1;
        Ok(())
    }

    /// One near-miss frame, then the disk-tier replays it made due.
    fn send_near(&mut self) -> Result<(), String> {
        let frame = self
            .near
            .send_next(self.seed, &mut self.ids, &mut self.mix)?;
        let sims: Vec<Sim> = match frame.req {
            Req::Sim(s) => vec![s],
            Req::Batch(b) => b,
            Req::Metrics => Vec::new(),
        };
        self.near_sent += 1;
        for sim in sims {
            if self.disk_seen.insert(sim.key()) {
                self.disk_backlog.push_back(sim);
            }
        }
        if self.disk_backlog.len() >= 2 * DISK_BURST {
            for _ in 0..DISK_BURST {
                self.send_disk()?;
            }
        }
        Ok(())
    }

    fn send_disk(&mut self) -> Result<(), String> {
        let sim = self.disk_backlog.pop_front().expect("backlog is not empty");
        self.disk
            .ask(Frame::sim(Kind::Disk, sim), 0, &mut self.ids, &mut self.mix)
    }

    fn send_cli(&mut self) -> Result<(), String> {
        if self.cli_queue.is_empty() {
            self.cli_queue.extend(campaign_round(self.seed, true));
            self.cli_rounds += 1;
        }
        let cli = self.cli_queue.pop_front().expect("refilled");
        self.mix.add_cli(&cli);
        self.ids += 1;
        self.cli.push(run_cli(self.bin, &cli, self.ids)?);
        Ok(())
    }

    /// Brings every probe up to its share of the elapsed run, in whole
    /// bursts (the last burst may be short).
    fn catch_up(&mut self, main: Main, frac: f64) -> Result<(), String> {
        let due = |total: usize, burst: usize| {
            if frac >= 1.0 {
                total
            } else {
                (total as f64 * frac / burst as f64).floor() as usize * burst
            }
        };
        while self.setup_s.len() < due(SETUP_PROBES, SETUP_BURST) {
            self.setup_s.push(setup_probe(self.bin)?);
        }
        if main != Main::Cold {
            while self.cold_sent < due(self.cold_total, COLD_BURST) {
                self.send_cold()?;
            }
        }
        if main != Main::NearMiss {
            while self.near_sent < due(self.near_total, NEARMISS_BURST) {
                self.send_near()?;
            }
        }
        if main != Main::Campaign {
            while self.cli.len() < due(self.cli_total, CLI_BURST) {
                self.send_cli()?;
            }
        }
        Ok(())
    }
}

pub fn e2e(
    bin: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Run, String> {
    let main = Main::of(workload);
    let tier = fresh_dir(work.join("tier"))?;
    let ladder = if main == Main::Cold {
        COLD_LADDER
    } else {
        COLD_PROBE_LADDER
    };
    let shape = if main == Main::NearMiss {
        NEARMISS_SHAPE
    } else {
        NEARMISS_PROBE_SHAPE
    };
    let cold = Stream::open(
        "cold",
        None,
        Feed::Cold {
            ladder,
            seen: HashSet::new(),
        },
        bin,
    )?;
    let near = Stream::open(
        "nearmiss",
        Some(&tier),
        Feed::NearMiss {
            shape,
            state: NearMissState::default(),
        },
        bin,
    )?;
    let disk = Stream::open("disk", Some(&tier), Feed::Disk, bin)?;
    let mut r = Runner {
        bin,
        seed,
        seconds,
        start: Instant::now(),
        ids: 0,
        mix: Mix::default(),
        setup_s: Vec::new(),
        cold,
        near,
        disk,
        disk_backlog: VecDeque::new(),
        disk_seen: HashSet::new(),
        cli: Vec::new(),
        cli_queue: VecDeque::new(),
        cli_rounds: 0,
        cold_total: 0,
        near_total: 0,
        cli_total: 0,
        cold_sent: 0,
        near_sent: 0,
    };
    // A probe is a fixed number of blocks; generate them now to know
    // its size.
    if main != Main::Cold {
        (0..PROBE_BLOCKS).for_each(|_| r.cold.refill(seed));
        r.cold_total = r.cold.queue.len();
    }
    if main != Main::NearMiss {
        (0..PROBE_BLOCKS).for_each(|_| r.near.refill(seed));
        r.near_total = r.near.queue.len();
    }
    if main != Main::Campaign {
        for round in 0..CLI_PROBE_ROUNDS {
            r.cli_queue
                .extend(campaign_round(seed, round % CAMPAIGN_EVERY == 0));
        }
        r.cli_total = r.cli_queue.len();
    }

    r.start = Instant::now();
    loop {
        let frac = r.frac();
        r.catch_up(main, frac)?;
        let done = frac >= 1.0
            && match main {
                Main::Cold => r.cold.queue.is_empty() && r.cold.blocks >= COLD_MIN_BLOCKS,
                Main::NearMiss => r.near.queue.is_empty() && r.near.blocks >= NEARMISS_MIN_BLOCKS,
                Main::Campaign => r.cli_queue.is_empty() && r.cli_rounds >= CAMPAIGN_MIN_ROUNDS,
            };
        if done {
            break;
        }
        match main {
            Main::Cold => r.send_cold()?,
            Main::NearMiss => r.send_near()?,
            Main::Campaign => r.send_cli()?,
        }
    }
    r.catch_up(main, 1.0)?;
    while !r.disk_backlog.is_empty() {
        r.send_disk()?;
    }

    let Runner {
        mut ids,
        mut mix,
        setup_s,
        cold,
        near,
        disk,
        cli,
        ..
    } = r;
    let sessions = vec![
        cold.close(&mut ids, &mut mix)?,
        near.close(&mut ids, &mut mix)?,
        disk.close(&mut ids, &mut mix)?,
    ];
    Ok(Run {
        setup_s,
        sessions,
        cli,
        mix,
    })
}
