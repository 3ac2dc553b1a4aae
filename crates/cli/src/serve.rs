//! `mcloud serve` — a dependency-free what-if query server.
//!
//! Two transports, one protocol:
//!
//! - **stdio** (the default): length-prefixed JSON frames. Each request
//!   is an ASCII decimal byte count, a newline, then exactly that many
//!   bytes of JSON; each response is framed the same way. EOF ends the
//!   session cleanly; so does a frame over [`MAX_REQUEST_BYTES`], after
//!   an error frame.
//! - **HTTP/1.1** (`--listen ADDR`): a hand-rolled single-threaded
//!   accept loop. `POST /simulate|/plan|/profile|/batch` take the same
//!   JSON payloads as stdio (the path supplies the `op`), `GET /metrics`
//!   returns the cache and workflow-memo telemetry as Prometheus text
//!   exposition. A body over [`MAX_REQUEST_BYTES`] gets `413 Payload Too
//!   Large`.
//!
//! Requests name scenarios with the CLI's own flag vocabulary —
//! `{"op": "simulate", "args": ["--degrees", "1", "--procs", "8"]}` —
//! so anything `mcloud simulate` can price, the server can answer, up
//! to [`MAX_SCENARIO_TASKS`]: a larger scenario is refused from its
//! size alone, before its workflow is generated.
//! Results are memoized in the process-wide content-addressed
//! [`ResultCache`](mcloud_cache): a repeated query is a digest lookup
//! (no workflow generation, no simulation), batch misses fan out
//! through the persistent worker pool, and concurrent identical misses
//! coalesce into one simulation. A miss on a recently generated recipe
//! (a *near-miss*: same mosaic, other processors, mode, fault rate or
//! bandwidth) takes its workflow from a [`WorkflowMemo`] bounded by
//! [`MEMO_TASKS`], so it pays only for simulation. Responses carry no
//! timing or hit/miss information, so a warm answer is byte-identical
//! to a cold one — that equivalence is pinned by the
//! `serve-equivalence` CI job.

use std::collections::{HashSet, VecDeque};
use std::io::{BufRead, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mcloud_cache::{decode_report, encode_report, DEFAULT_BUDGET_BYTES};
use mcloud_core::{
    report_json, simulate, simulate_batch, BatchScratch, Digest, Report, Scenario, ScenarioRecipe,
};
use mcloud_dag::Workflow;
use mcloud_montage::{generate, Band, MosaicConfig};
use mcloud_simkit::json::{self, Value};
use mcloud_simkit::{MetricClass, Registry};

use crate::args::Args;
use crate::commands::{exec_from, parse_band, wants_help, SIM_FLAGS};

/// Per-command help text.
const HELP: &str = "\
mcloud serve — answer what-if scenario queries over stdio or HTTP

stdio protocol (default): length-prefixed JSON frames. Each request is
an ASCII decimal byte count, '\\n', then that many bytes of JSON; each
response is framed the same way. EOF ends the session. A request over
16 MiB is refused: an error frame ends the session (HTTP: 413). A
simulate or batch scenario over 1048576 tasks is refused with an error
frame (HTTP: 400) before anything is generated; so is a plan or
profile request whose --degrees (or plan --class D:R:P) asks for more.
plan and profile requests cannot name server-side files: --out, --svg,
--trace, --trace-out, --profile-out and --metrics-out get an error
frame (HTTP: 400).

requests:
  {\"op\": \"simulate\", \"args\": [\"--degrees\", \"1\", \"--procs\", \"8\"]}
  {\"op\": \"plan\",     \"args\": [\"--slo-p99\", \"7\", \"--format\", \"json\"]}
  {\"op\": \"profile\",  \"args\": [\"--degrees\", \"0.5\", \"--format\", \"json\"]}
  {\"op\": \"batch\",    \"scenarios\": [[...simulate args...], ...]}
  {\"op\": \"metrics\"}

`args` use the matching subcommand's flag vocabulary. Responses are
{\"ok\": true, \"result\": ...} or {\"ok\": false, \"error\": \"...\"}.
Results are memoized in the content-addressed cache: repeated queries
are digest lookups, batch misses run through the worker pool, and warm
answers are byte-identical to cold ones. Near-misses (same mosaic, other
--procs, --mode, fault rate or bandwidth) reuse the generated workflow:
a recipe's workflow is kept from its second miss on, in a memo of at
most 32768 tasks that drops the least recently used first.

flags:
  --listen ADDR        serve HTTP/1.1 on ADDR (e.g. 127.0.0.1:8080):
                       POST /simulate|/plan|/profile|/batch (same JSON
                       bodies; the path is the op), GET /metrics
  --cache-bytes N      in-memory cache budget (default 268435456)
  --cache-dir PATH     persist results to a disk tier at PATH (entries
                       survive across serve processes)

environment:
  MCLOUD_CACHE_BYTES / MCLOUD_CACHE_DIR   same knobs, lower precedence
  MCLOUD_WORKERS       worker lanes for batch misses (results are
                       byte-identical at every setting)";

/// The `mcloud serve` entry point. Returns an empty report string —
/// responses go to the transport, the session summary to stderr.
pub(crate) fn cmd_serve(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok(HELP.to_string());
    }
    let args = Args::parse(rest, &["listen", "cache-bytes", "cache-dir"])?;
    let budget: u64 = args.get_or("cache-bytes", DEFAULT_BUDGET_BYTES)?;
    let dir = args.get("cache-dir").map(PathBuf::from);
    if args.has("cache-bytes") || args.has("cache-dir") {
        mcloud_cache::configure_global(budget, dir)?;
    }
    match args.get("listen") {
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            let bound = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.to_string());
            eprintln!("serving HTTP on {bound}");
            accept_loop(listener.incoming(), &mut std::io::stderr());
            Ok(String::new())
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let served = serve_session(&mut stdin.lock(), &mut stdout.lock())?;
            let c = mcloud_cache::global().counters();
            let m = memo(&MEMO);
            eprintln!(
                "served {served} requests ({} memory hits, {} disk hits, {} simulated, \
                 {} workflows reused, {} generated, {} tasks held)",
                c.hits_mem, c.hits_disk, c.computes, m.hits, m.misses, m.held_tasks
            );
            Ok(String::new())
        }
    }
}

/// The largest request the server reads: a stdio frame's payload or an
/// HTTP body. A larger length is refused before anything is allocated
/// for it, so no header can make the server reserve unbounded memory.
const MAX_REQUEST_BYTES: u64 = 16 * 1024 * 1024;

/// The largest workflow a request may ask for, in tasks: far above
/// 16°'s 48,897, yet small enough that one request cannot claim
/// unbounded memory or time. Checked from the recipe before anything is
/// generated.
const MAX_SCENARIO_TASKS: u64 = 1 << 20;

/// Refuses a mosaic size of `degrees` that is not positive or asks for
/// more than [`MAX_SCENARIO_TASKS`]; `flag` names where it came from.
fn check_size(flag: &str, degrees: f64) -> Result<(), String> {
    if !(degrees.is_finite() && degrees > 0.0) {
        return Err(format!("{flag} must be positive, got {degrees}"));
    }
    let tasks = MosaicConfig::new(degrees).expected_tasks();
    if tasks > MAX_SCENARIO_TASKS {
        return Err(format!(
            "{flag} {degrees} asks for a {tasks}-task workflow; \
             the server admits at most {MAX_SCENARIO_TASKS} tasks"
        ));
    }
    Ok(())
}

/// Runs one framed request/response session to EOF; returns the number
/// of requests answered. Factored over `BufRead`/`Write` so tests drive
/// it in-process. A frame longer than [`MAX_REQUEST_BYTES`] is answered
/// with an error frame and ends the session, since its payload is never
/// read and the stream cannot be resynchronized.
pub(crate) fn serve_session<R: BufRead, W: Write>(
    input: &mut R,
    output: &mut W,
) -> Result<u64, String> {
    let mut served = 0u64;
    while let Some(frame) = read_frame(input)? {
        let (response, last) = match frame {
            Frame::Request(payload) => match handle_request(&payload) {
                Ok(doc) => (doc, false),
                Err(e) => (error_doc(&e), false),
            },
            Frame::TooLarge(len) => (
                error_doc(&format!(
                    "frame of {len} bytes exceeds the {MAX_REQUEST_BYTES}-byte limit"
                )),
                true,
            ),
        };
        write!(output, "{}\n{response}", response.len())
            .and_then(|_| output.flush())
            .map_err(|e| format!("writing response: {e}"))?;
        served += 1;
        if last {
            break;
        }
    }
    Ok(served)
}

fn error_doc(e: &str) -> String {
    format!("{{\"ok\": false, \"error\": \"{}\"}}\n", json::escape(e))
}

/// One stdio frame.
enum Frame {
    /// A complete request payload.
    Request(String),
    /// A header announcing more than [`MAX_REQUEST_BYTES`]; the payload
    /// was not read.
    TooLarge(u64),
}

/// Parses a decimal byte count. An all-digit value too large for `u64`
/// saturates, so it fails the size check rather than the parse.
fn byte_count(s: &str) -> Option<u64> {
    let s = s.trim();
    (!s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())).then(|| s.parse().unwrap_or(u64::MAX))
}

/// Reads one length-prefixed frame; `None` at clean EOF. Blank lines
/// between frames are tolerated so session files can end with a newline.
fn read_frame<R: BufRead>(input: &mut R) -> Result<Option<Frame>, String> {
    let mut header = String::new();
    loop {
        header.clear();
        let n = input
            .read_line(&mut header)
            .map_err(|e| format!("reading frame header: {e}"))?;
        if n == 0 {
            return Ok(None);
        }
        if !header.trim().is_empty() {
            break;
        }
    }
    let len = byte_count(&header).ok_or_else(|| {
        format!(
            "bad frame header '{}' (expected a byte count)",
            header.trim()
        )
    })?;
    if len > MAX_REQUEST_BYTES {
        return Ok(Some(Frame::TooLarge(len)));
    }
    let mut payload = vec![0u8; len as usize];
    input
        .read_exact(&mut payload)
        .map_err(|e| format!("reading {len}-byte frame: {e}"))?;
    String::from_utf8(payload)
        .map(|p| Some(Frame::Request(p)))
        .map_err(|_| "frame is not UTF-8".to_string())
}

/// Parses and dispatches one request payload.
fn handle_request(payload: &str) -> Result<String, String> {
    let v = json::parse(payload)?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request needs a string \"op\" member")?;
    dispatch(op, &v)
}

fn dispatch(op: &str, request: &Value) -> Result<String, String> {
    match op {
        "simulate" => op_simulate(&string_args(request)?).map(|doc| wrap_json(&doc)),
        "plan" | "profile" => {
            let mut argv = vec![op.to_string()];
            argv.extend(string_args(request)?);
            check_command_args(&argv[1..])?;
            crate::commands::run(&argv).map(|out| wrap_output(&out))
        }
        "batch" => op_batch(request),
        "metrics" => Ok(wrap_text(&metrics_text())),
        other => Err(format!(
            "unknown op '{other}' (simulate | plan | profile | batch | metrics)"
        )),
    }
}

/// The request's `args` member as owned strings (absent = empty).
fn string_args(request: &Value) -> Result<Vec<String>, String> {
    let Some(args) = request.get("args") else {
        return Ok(Vec::new());
    };
    owned_args(args)
}

fn owned_args(args: &Value) -> Result<Vec<String>, String> {
    args.as_array()
        .ok_or("\"args\" must be an array of strings")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(String::from)
                .ok_or_else(|| "\"args\" must be an array of strings".to_string())
        })
        .collect()
}

/// Embeds an already-JSON document as the `result` member.
fn wrap_json(doc: &str) -> String {
    format!("{{\"ok\": true, \"result\": {}}}\n", doc.trim_end())
}

/// Embeds plain text as a JSON string `result`.
fn wrap_text(text: &str) -> String {
    format!("{{\"ok\": true, \"result\": \"{}\"}}\n", json::escape(text))
}

/// JSON documents pass through inline; anything else is escaped.
fn wrap_output(out: &str) -> String {
    if out.trim_start().starts_with('{') {
        wrap_json(out)
    } else {
        wrap_text(out)
    }
}

/// Flags that make a command read or write a file at a path the client
/// names. The server refuses them: a client may not reach the server's
/// file system.
const FILE_FLAGS: &[&str] = &[
    "out",
    "svg",
    "trace",
    "trace-out",
    "profile-out",
    "metrics-out",
];

/// `simulate` flags the server accepts: everything `mcloud simulate`
/// takes except the file-writing side channels.
fn serve_sim_flags() -> Vec<&'static str> {
    SIM_FLAGS
        .iter()
        .copied()
        .filter(|f| !FILE_FLAGS.contains(f) && *f != "trace-format")
        .collect()
}

/// The values of every `--name` in `raw`, read the way [`Args::parse`]
/// reads them: `--name=value`, or the next token unless it is a flag.
fn flag_values<'a>(raw: &'a [String], name: &str) -> Vec<&'a str> {
    let mut values = Vec::new();
    for (i, tok) in raw.iter().enumerate() {
        let Some(body) = tok.strip_prefix("--") else {
            continue;
        };
        match body.split_once('=') {
            Some((n, v)) if n == name => values.push(v),
            None if body == name => {
                if let Some(next) = raw.get(i + 1).filter(|t| !t.starts_with("--")) {
                    values.push(next);
                }
            }
            _ => {}
        }
    }
    values
}

/// Vets a `plan` or `profile` request's args before they reach
/// [`crate::commands::run`]: no flag may name a server-side file, and no
/// `--degrees` or `--class D:R:P` may ask for a workflow over
/// [`MAX_SCENARIO_TASKS`]. Values that do not parse are left for the
/// command to reject.
fn check_command_args(raw: &[String]) -> Result<(), String> {
    for tok in raw {
        let Some(body) = tok.strip_prefix("--") else {
            continue;
        };
        let name = body.split_once('=').map_or(body, |(n, _)| n);
        if FILE_FLAGS.contains(&name) {
            return Err(format!(
                "--{name} names a file on the server; serve requests cannot use it"
            ));
        }
    }
    for value in flag_values(raw, "degrees") {
        if let Ok(degrees) = value.parse::<f64>() {
            check_size("--degrees", degrees)?;
        }
    }
    for spec in flag_values(raw, "class") {
        let degrees = spec.split(':').next().and_then(|d| d.parse::<f64>().ok());
        if let Some(degrees) = degrees {
            check_size("--class", degrees)?;
        }
    }
    Ok(())
}

/// Parses one simulate arg-list into its content-addressed scenario.
fn scenario_from(raw: &[String]) -> Result<Scenario, String> {
    let args = Args::parse(raw, &serve_sim_flags())?;
    let degrees: f64 = args.get_or("degrees", 1.0)?;
    check_size("--degrees", degrees)?;
    let mut recipe = ScenarioRecipe::new(degrees);
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        recipe.seed = seed;
    }
    if let Some(region) = args.get("region") {
        recipe.region = region.to_string();
    }
    if let Some(band) = args.get("band") {
        recipe.band = match parse_band(band)? {
            Band::J => "j",
            Band::H => "h",
            Band::K => "k",
        }
        .to_string();
    }
    let mut exec = exec_from(&args)?;
    if let Some(p) = args.get_parsed::<u32>("procs")? {
        exec.provisioning = mcloud_core::Provisioning::Fixed { processors: p };
    }
    exec.validate()?;
    Ok(Scenario { recipe, exec })
}

/// The generator parameters a recipe names.
fn mosaic_config(recipe: &ScenarioRecipe) -> Result<MosaicConfig, String> {
    Ok(MosaicConfig::new(recipe.degrees)
        .seed(recipe.seed)
        .region(&recipe.region)
        .band(parse_band(&recipe.band)?))
}

/// The most workflow tasks [`MEMO`] holds at once (~10 MB at ~325 B a
/// task): room for a near-miss working set of six 2°–8° recipes. A
/// recipe over it, such as 16° (48,897 tasks), is never held.
const MEMO_TASKS: u64 = 1 << 15;

/// How many once-generated recipes the memo remembers without holding
/// their workflows.
const MEMO_SEEN: usize = 64;

/// A bounded LRU of generated workflows, keyed by recipe. A recipe is
/// held only from its *second* miss on: a stream of distinct recipes
/// (cold queries) then allocates and frees exactly as it would with no
/// memo, and only recipes that recur take up room.
struct WorkflowMemo {
    /// Held workflows and their task counts, least recently used first.
    held: Vec<(ScenarioRecipe, Arc<Workflow>, u64)>,
    /// The sum of the held task counts; never over [`MEMO_TASKS`].
    held_tasks: u64,
    /// Recipes generated once and not held, oldest first; at most
    /// [`MEMO_SEEN`].
    seen: VecDeque<ScenarioRecipe>,
    /// Lookups answered from `held`.
    hits: u64,
    /// Lookups that generated the workflow.
    misses: u64,
}

impl WorkflowMemo {
    const fn new() -> Self {
        WorkflowMemo {
            held: Vec::new(),
            held_tasks: 0,
            seen: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The held workflow for `recipe`, now the most recently used.
    fn lookup(&mut self, recipe: &ScenarioRecipe) -> Option<Arc<Workflow>> {
        let i = self.held.iter().position(|(r, ..)| r == recipe)?;
        let entry = self.held.remove(i);
        let wf = Arc::clone(&entry.1);
        self.held.push(entry);
        self.hits += 1;
        Some(wf)
    }

    /// Records a miss on a `tasks`-task recipe; true when its workflow is
    /// to be held once generated. That is its second miss, if it fits
    /// the budget; room is then made first, so the memo and the workflow
    /// being generated never exceed the budget plus that one workflow.
    fn admit(&mut self, recipe: &ScenarioRecipe, tasks: u64) -> bool {
        self.misses += 1;
        if tasks > MEMO_TASKS {
            return false;
        }
        if let Some(i) = self.seen.iter().position(|r| r == recipe) {
            self.seen.remove(i);
            self.make_room(tasks);
            return true;
        }
        if self.seen.len() == MEMO_SEEN {
            self.seen.pop_front();
        }
        self.seen.push_back(recipe.clone());
        false
    }

    /// Holds an admitted recipe's workflow.
    fn hold(&mut self, recipe: &ScenarioRecipe, wf: Arc<Workflow>, tasks: u64) {
        self.make_room(tasks);
        self.held.push((recipe.clone(), wf, tasks));
        self.held_tasks += tasks;
    }

    /// Drops least recently used workflows until `tasks` more fit.
    fn make_room(&mut self, tasks: u64) {
        while self.held_tasks + tasks > MEMO_TASKS {
            let (_, _, freed) = self.held.remove(0);
            self.held_tasks -= freed;
        }
    }

    /// Adds the memo's series to a metrics registry.
    fn record(&self, r: &mut Registry) {
        const D: MetricClass = MetricClass::Deterministic;
        r.set_counter(
            "mcloud_serve_workflow_memo_hits_total",
            "Workflow lookups answered from the memo, skipping generation.",
            D,
            &[],
            self.hits,
        );
        r.set_counter(
            "mcloud_serve_workflow_memo_misses_total",
            "Workflow lookups that generated the workflow.",
            D,
            &[],
            self.misses,
        );
        r.set_gauge(
            "mcloud_serve_workflow_memo_held_tasks",
            "Tasks in the workflows the memo holds.",
            D,
            &[],
            self.held_tasks as f64,
        );
    }
}

/// The process-wide workflow memo.
static MEMO: Mutex<WorkflowMemo> = Mutex::new(WorkflowMemo::new());

/// Locks a memo. Every update leaves it consistent, so a panic in
/// another request does not disable it: a poisoned lock is recovered.
fn memo(m: &Mutex<WorkflowMemo>) -> MutexGuard<'_, WorkflowMemo> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A recipe's workflow: from the memo when it holds one, else generated
/// (outside the lock) and, if admitted, held.
fn workflow_for(m: &Mutex<WorkflowMemo>, recipe: &ScenarioRecipe) -> Result<Arc<Workflow>, String> {
    if let Some(wf) = memo(m).lookup(recipe) {
        return Ok(wf);
    }
    let cfg = mosaic_config(recipe)?;
    let tasks = cfg.expected_tasks();
    let admit = memo(m).admit(recipe, tasks);
    let wf = Arc::new(generate(&cfg));
    if admit {
        memo(m).hold(recipe, Arc::clone(&wf), tasks);
    }
    Ok(wf)
}

/// The `metrics` reply: the cache's series, then the memo's.
fn metrics_text() -> String {
    let mut r = mcloud_cache::global().registry();
    memo(&MEMO).record(&mut r);
    r.prometheus_text()
}

/// One scenario query: digest → single-flight cache lookup → report
/// JSON. Cold queries generate (or take the memo's workflow) and
/// simulate; warm queries are a hash probe plus a decode.
fn op_simulate(raw: &[String]) -> Result<String, String> {
    let scenario = scenario_from(raw)?;
    let cache = mcloud_cache::global();
    let bytes = cache.get_or_compute(scenario.digest(), || {
        let wf = workflow_for(&MEMO, &scenario.recipe)?;
        Ok(encode_report(&simulate(&wf, &scenario.exec)))
    })?;
    let report = decode_report(&bytes).map_err(|e| format!("corrupt cache entry: {e}"))?;
    Ok(report_json(&report))
}

/// Many scenarios in one frame: probe them all, then run the misses —
/// deduplicated, grouped by workflow recipe — through the worker pool
/// via `simulate_batch`. Results come back in request order.
fn op_batch(request: &Value) -> Result<String, String> {
    let scenarios = request
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or("batch needs a \"scenarios\" array of arg-lists")?;
    let mut keys: Vec<Digest> = Vec::with_capacity(scenarios.len());
    let mut parsed: Vec<Scenario> = Vec::with_capacity(scenarios.len());
    for entry in scenarios {
        let scenario = scenario_from(&owned_args(entry)?)?;
        keys.push(scenario.digest());
        parsed.push(scenario);
    }

    let cache = mcloud_cache::global();
    let mut results: Vec<Option<Report>> = keys
        .iter()
        .map(|&key| cache.get(key).and_then(|bytes| decode_report(&bytes).ok()))
        .collect();

    // Misses, deduplicated by digest and grouped by recipe so each
    // distinct workflow is fetched once and its configs run as one pool
    // batch.
    let mut groups: Vec<(ScenarioRecipe, Vec<usize>)> = Vec::new();
    let mut seen: HashSet<Digest> = HashSet::new();
    for i in 0..parsed.len() {
        if results[i].is_some() || !seen.insert(keys[i]) {
            continue;
        }
        match groups.iter_mut().find(|(r, _)| *r == parsed[i].recipe) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((parsed[i].recipe.clone(), vec![i])),
        }
    }
    let mut scratch = BatchScratch::new();
    for (recipe, idxs) in groups {
        let wf = workflow_for(&MEMO, &recipe)?;
        let cfgs: Vec<mcloud_core::ExecConfig> =
            idxs.iter().map(|&i| parsed[i].exec.clone()).collect();
        let fresh = simulate_batch(&wf, &cfgs, &mut scratch);
        for (&i, report) in idxs.iter().zip(fresh) {
            cache.insert(keys[i], encode_report(&report));
            results[i] = Some(report);
        }
    }

    let mut out = String::from("{\"ok\": true, \"results\": [");
    for (i, (slot, &key)) in results.iter_mut().zip(&keys).enumerate() {
        let report = match slot.take() {
            Some(r) => r,
            // A deduplicated duplicate: its twin's entry is now cached.
            None => decode_report(&cache.get(key).ok_or("batch entry vanished")?)
                .map_err(|e| format!("corrupt cache entry: {e}"))?,
        };
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(report_json(&report).trim_end());
    }
    out.push_str("]}\n");
    Ok(out)
}

/// How long the listener pauses after a failed accept, so a persistent
/// error (such as running out of file descriptors) does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Serves connections from `incoming` until it ends; returns how many it
/// took. A failed accept is logged to `log` and skipped, and a malformed
/// request only poisons its own connection: neither ends the loop.
fn accept_loop<S: Read + Write>(
    incoming: impl IntoIterator<Item = std::io::Result<S>>,
    log: &mut impl Write,
) -> u64 {
    let mut taken = 0;
    for stream in incoming {
        match stream {
            Ok(mut stream) => {
                if let Err(e) = handle_http(&mut stream) {
                    let _ = writeln!(log, "note: dropped connection: {e}");
                }
                taken += 1;
            }
            Err(e) => {
                let _ = writeln!(log, "note: accept failed: {e}");
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
    taken
}

/// Serves one HTTP/1.1 exchange on an established connection, then
/// closes it. Generic over the stream so tests run it on buffers.
pub(crate) fn handle_http<S: Read + Write>(stream: &mut S) -> Result<(), String> {
    let (head, mut body) = read_http_head(stream)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return write_http(stream, 400, "text/plain", "bad request line\n");
        }
    };
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| byte_count(v))
        .unwrap_or(0);
    if content_length > MAX_REQUEST_BYTES {
        return write_http(
            stream,
            413,
            "text/plain",
            &format!("body exceeds the {MAX_REQUEST_BYTES}-byte limit\n"),
        );
    }
    let content_length = content_length as usize;
    body.reserve(content_length.saturating_sub(body.len()));
    let mut chunk = [0u8; 16 * 1024];
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream
            .read(&mut chunk[..want])
            .map_err(|e| format!("reading body: {e}"))?;
        if n == 0 {
            return write_http(stream, 400, "text/plain", "truncated body\n");
        }
        body.extend_from_slice(&chunk[..n]);
    }
    let body = match String::from_utf8(body) {
        Ok(s) => s,
        Err(_) => return write_http(stream, 400, "text/plain", "body is not UTF-8\n"),
    };

    match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => {
            write_http(stream, 200, "text/plain; version=0.0.4", &metrics_text())
        }
        ("POST", "/simulate")
        | ("POST", "/plan")
        | ("POST", "/profile")
        | ("POST", "/batch")
        | ("POST", "/metrics") => {
            let op = &path[1..];
            let outcome = json::parse(if body.trim().is_empty() { "{}" } else { &body })
                .and_then(|request| dispatch(op, &request));
            match outcome {
                Ok(doc) => write_http(stream, 200, "application/json", &doc),
                Err(e) => write_http(stream, 400, "application/json", &error_doc(&e)),
            }
        }
        _ => write_http(stream, 404, "text/plain", "not found\n"),
    }
}

/// Reads up to and including the blank line ending the request head;
/// returns (head, any body bytes already consumed).
fn read_http_head<S: Read>(stream: &mut S) -> Result<(String, Vec<u8>), String> {
    const HEAD_CAP: usize = 64 * 1024;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8(buf[..end].to_vec())
                .map_err(|_| "request head is not UTF-8".to_string())?;
            return Ok((head, buf[end + 4..].to_vec()));
        }
        if buf.len() > HEAD_CAP {
            return Err("request head too large".to_string());
        }
        let mut chunk = [0u8; 4096];
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("reading request: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-request".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn write_http<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    body: &str,
) -> Result<(), String> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .and_then(|_| stream.flush())
    .map_err(|e| format!("writing response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Frames a sequence of request payloads for a stdio session.
    fn frames(payloads: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(format!("{}\n{p}", p.len()).as_bytes());
        }
        out
    }

    fn run_session(payloads: &[&str]) -> (u64, String) {
        let mut input = Cursor::new(frames(payloads));
        let mut output = Vec::new();
        let served = serve_session(&mut input, &mut output).expect("session");
        (served, String::from_utf8(output).expect("utf8"))
    }

    #[test]
    fn repeated_queries_are_byte_identical_and_warm() {
        let q = r#"{"op": "simulate", "args": ["--degrees", "0.2", "--procs", "4"]}"#;
        let (served, out) = run_session(&[q, q]);
        assert_eq!(served, 2);
        let (a, b) = out.split_at(out.len() / 2);
        assert_eq!(a, b, "warm response differs from cold");
        assert!(a.contains("\"ok\": true"), "{a}");
        assert!(a.contains("\"schema\": \"mcloud-report/v1\""), "{a}");
    }

    #[test]
    fn session_handles_plan_batch_metrics_and_errors() {
        // Nested far past json::MAX_DEPTH: an error frame, not a stack
        // overflow that aborts the server.
        let deep = "[".repeat(200_000);
        let (served, out) = run_session(&[
            r#"{"op": "batch", "scenarios": [["--degrees", "0.2", "--procs", "2"], ["--degrees", "0.2", "--procs", "2"]]}"#,
            r#"{"op": "plan", "args": ["--slo-p99", "7", "--rate", "1", "--horizon", "24", "--format", "json"]}"#,
            r#"{"op": "metrics"}"#,
            r#"{"op": "nonsense"}"#,
            r#"not json at all"#,
            &deep,
        ]);
        assert_eq!(served, 6);
        assert!(out.contains("nesting deeper than 128"), "{out}");
        assert!(out.contains("\"results\": ["), "{out}");
        assert!(out.contains("mcloud-plan/v1"), "{out}");
        assert!(out.contains("mcloud_cache_hits_total"), "{out}");
        assert!(out.contains("unknown op 'nonsense'"), "{out}");
        assert!(out.contains("\"ok\": false"), "{out}");
    }

    #[test]
    fn every_response_is_a_wellformed_frame() {
        let (_, out) = run_session(&[
            r#"{"op": "simulate", "args": ["--degrees", "0.2"]}"#,
            r#"{"op": "simulate", "args": ["--bogus", "1"]}"#,
        ]);
        let mut cursor = Cursor::new(out.into_bytes());
        let mut count = 0;
        while let Some(frame) = read_frame(&mut cursor).expect("frame") {
            let Frame::Request(payload) = frame else {
                panic!("response frame over the size limit");
            };
            json::parse(&payload).expect("response payload parses as JSON");
            count += 1;
        }
        assert_eq!(count, 2);
    }

    /// A loopback stream stand-in: reads from `input`, writes to `output`.
    struct Duplex {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Runs one HTTP exchange on `request`; returns the response text.
    fn http(request: &[u8]) -> String {
        let mut s = Duplex {
            input: Cursor::new(request.to_vec()),
            output: Vec::new(),
        };
        handle_http(&mut s).expect("http");
        String::from_utf8(s.output).expect("utf8")
    }

    #[test]
    fn oversized_frame_headers_get_an_error_frame_and_end_the_session() {
        let q = r#"{"op": "metrics"}"#;
        for header in [
            "99999999999999",
            "18446744073709551615",
            "99999999999999999999999",
        ] {
            let mut input = Cursor::new(format!("{}\n{q}{header}\n{q}", q.len()).into_bytes());
            let mut output = Vec::new();
            let served = serve_session(&mut input, &mut output).expect("clean end");
            assert_eq!(served, 2, "{header}");
            let mut cursor = Cursor::new(output);
            let Some(Frame::Request(first)) = read_frame(&mut cursor).unwrap() else {
                panic!("{header}: first response missing");
            };
            assert!(first.contains("mcloud_cache"), "{first}");
            let Some(Frame::Request(refusal)) = read_frame(&mut cursor).unwrap() else {
                panic!("{header}: no error frame");
            };
            assert!(refusal.starts_with("{\"ok\": false"), "{refusal}");
            assert!(
                refusal.contains("exceeds the 16777216-byte limit"),
                "{refusal}"
            );
            json::parse(&refusal).expect("error frame is JSON");
            // The frame after the refused one is never read.
            assert!(read_frame(&mut cursor).unwrap().is_none(), "{header}");
        }
    }

    #[test]
    fn oversized_http_content_length_gets_413() {
        for len in ["999999999999999", "18446744073709551615", "16777217"] {
            let resp = http(
                format!("POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\r\n{{}}")
                    .as_bytes(),
            );
            assert!(
                resp.starts_with("HTTP/1.1 413 Payload Too Large\r\n"),
                "{len}: {resp}"
            );
        }
    }

    #[test]
    fn http_body_arrives_across_many_reads() {
        // A body longer than the read buffer, delivered one byte per read.
        struct Trickle(Duplex);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(1);
                self.0.read(&mut buf[..n])
            }
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let pad = " ".repeat(40_000);
        let body = format!(r#"{{"args": ["--degrees", "0.2", "--procs", "2"]}}{pad}"#);
        let mut s = Trickle(Duplex {
            input: Cursor::new(
                format!(
                    "POST /simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes(),
            ),
            output: Vec::new(),
        });
        handle_http(&mut s).expect("http");
        let resp = String::from_utf8(s.0.output).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("\"mcloud-report/v1\""), "{resp}");
    }

    #[test]
    fn http_routes_simulate_metrics_and_404() {
        let post = |path: &str, body: &str| {
            http(
                format!(
                    "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
        };

        let sim = post(
            "/simulate",
            r#"{"args": ["--degrees", "0.2", "--procs", "2"]}"#,
        );
        assert!(sim.starts_with("HTTP/1.1 200 OK\r\n"), "{sim}");
        assert!(sim.contains("\"mcloud-report/v1\""), "{sim}");

        let bad = post("/simulate", r#"{"args": ["--bogus"]}"#);
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        let metrics = http(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.contains("mcloud_cache_misses_total"), "{metrics}");

        assert!(http(b"GET /nope HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn a_failed_accept_is_logged_and_the_loop_goes_on() {
        let request = |body: &str| Duplex {
            input: Cursor::new(
                format!(
                    "POST /simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes(),
            ),
            output: Vec::new(),
        };
        let mut first = request(r#"{"args": ["--degrees", "0.2", "--procs", "2"]}"#);
        let mut second = request(r#"{"args": ["--degrees", "0.2", "--procs", "3"]}"#);
        let incoming = vec![
            Err(std::io::Error::other("too many open files")),
            Ok(&mut first),
            Err(std::io::Error::from(std::io::ErrorKind::ConnectionAborted)),
            Ok(&mut second),
        ];
        let mut log = Vec::new();
        assert_eq!(accept_loop(incoming, &mut log), 2);
        let log = String::from_utf8(log).unwrap();
        assert_eq!(log.matches("note: accept failed: ").count(), 2, "{log}");
        assert!(log.contains("too many open files"), "{log}");
        for conn in [first, second] {
            let resp = String::from_utf8(conn.output).unwrap();
            assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        }
    }

    #[test]
    fn scenario_digest_tracks_the_flags() {
        let s = |args: &[&str]| {
            scenario_from(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
                .expect("scenario")
                .digest()
        };
        let base = s(&["--degrees", "1", "--procs", "8"]);
        assert_eq!(base, s(&["--degrees", "1", "--procs", "8"]));
        assert_ne!(base, s(&["--degrees", "2", "--procs", "8"]));
        assert_ne!(base, s(&["--degrees", "1", "--procs", "4"]));
        assert_ne!(base, s(&["--degrees", "1", "--procs", "8", "--band", "k"]));
        assert_ne!(base, s(&["--degrees", "1", "--procs", "8", "--seed", "7"]));
        assert_ne!(
            base,
            s(&["--degrees", "1", "--procs", "8", "--fault-rate", "0.01"])
        );
    }

    fn recipe(degrees: f64, seed: u64) -> ScenarioRecipe {
        ScenarioRecipe {
            seed,
            ..ScenarioRecipe::new(degrees)
        }
    }

    #[test]
    fn memo_holds_no_workflow_for_a_first_touch_and_admits_the_second() {
        let m = Mutex::new(WorkflowMemo::new());
        let r = recipe(0.5, 7);
        let first = workflow_for(&m, &r).unwrap();
        {
            let memo = memo(&m);
            assert!(memo.held.is_empty());
            assert_eq!(memo.held_tasks, 0);
            assert_eq!(memo.seen, std::slice::from_ref(&r));
            assert_eq!((memo.hits, memo.misses), (0, 1));
        }
        let second = workflow_for(&m, &r).unwrap();
        {
            let memo = memo(&m);
            assert_eq!(memo.held.len(), 1);
            assert_eq!(memo.held_tasks, second.num_tasks() as u64);
            assert!(memo.seen.is_empty());
            assert_eq!((memo.hits, memo.misses), (0, 2));
        }
        let third = workflow_for(&m, &r).unwrap();
        assert!(Arc::ptr_eq(&second, &third), "the third touch is a hit");
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(memo(&m).hits, 1);
        // Every copy is the same workflow.
        let fresh = generate(&mosaic_config(&r).unwrap());
        for wf in [&first, &second, &third] {
            assert_eq!(
                mcloud_core::fingerprint_workflow(wf),
                mcloud_core::fingerprint_workflow(&fresh)
            );
        }
    }

    #[test]
    fn memo_never_holds_more_than_its_task_budget() {
        let m = Mutex::new(WorkflowMemo::new());
        // Three 8° recipes (12,149 tasks each) overflow the budget.
        let recipes = [
            recipe(8.0, 1),
            recipe(4.0, 1),
            recipe(8.0, 2),
            recipe(2.0, 1),
            recipe(8.0, 3),
        ];
        for r in &recipes {
            for _ in 0..3 {
                workflow_for(&m, r).unwrap();
                let memo = memo(&m);
                assert!(memo.held_tasks <= MEMO_TASKS, "{}", memo.held_tasks);
                let sum: u64 = memo.held.iter().map(|(.., t)| t).sum();
                assert_eq!(memo.held_tasks, sum);
            }
        }
        let memo = memo(&m);
        // The first 8° recipe, least recently used, made room for the last.
        let held: Vec<&ScenarioRecipe> = memo.held.iter().map(|(r, ..)| r).collect();
        assert_eq!(held, [&recipes[1], &recipes[2], &recipes[3], &recipes[4]]);
        assert_eq!((memo.hits, memo.misses), (5, 10));
    }

    #[test]
    fn memo_makes_room_before_the_admitted_workflow_is_generated() {
        let m = Mutex::new(WorkflowMemo::new());
        for seed in 1..=2 {
            for _ in 0..2 {
                workflow_for(&m, &recipe(8.0, seed)).unwrap();
            }
        }
        let mut memo = memo(&m);
        assert_eq!(memo.held_tasks, 2 * 12_149);
        let next = recipe(8.0, 3);
        assert!(!memo.admit(&next, 12_149), "first touch");
        assert!(memo.admit(&next, 12_149), "second touch");
        assert_eq!(memo.held_tasks, 12_149, "evicted before generating");
        assert!(memo.held_tasks + 12_149 <= MEMO_TASKS);
    }

    #[test]
    fn memo_never_holds_an_over_budget_recipe() {
        let m = Mutex::new(WorkflowMemo::new());
        let r = recipe(16.0, 1);
        let tasks = mosaic_config(&r).unwrap().expected_tasks();
        assert!(tasks > MEMO_TASKS, "{tasks}");
        for _ in 0..2 {
            workflow_for(&m, &r).unwrap();
        }
        let memo = memo(&m);
        assert!(memo.held.is_empty() && memo.seen.is_empty());
        assert_eq!((memo.hits, memo.misses, memo.held_tasks), (0, 2, 0));
    }

    #[test]
    fn memo_remembers_a_bounded_number_of_first_touches() {
        let mut memo = WorkflowMemo::new();
        for seed in 0..=MEMO_SEEN as u64 {
            assert!(!memo.admit(&recipe(0.1, seed), 10));
        }
        assert_eq!(memo.seen.len(), MEMO_SEEN);
        // Seed 0 fell out of the ring: its next miss is a first touch again.
        assert!(!memo.admit(&recipe(0.1, 0), 10));
        assert!(memo.admit(&recipe(0.1, MEMO_SEEN as u64), 10));
    }

    #[test]
    fn a_poisoned_memo_lock_is_recovered() {
        let m = Mutex::new(WorkflowMemo::new());
        let r = recipe(0.2, 1);
        workflow_for(&m, &r).unwrap();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = m.lock().unwrap();
                panic!("a request panicked while holding the memo");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(m.is_poisoned());
        let held = workflow_for(&m, &r).unwrap();
        assert!(Arc::ptr_eq(&held, &workflow_for(&m, &r).unwrap()));
        assert_eq!(memo(&m).hits, 1);
    }

    /// A request frame for `op` with `args`.
    fn request(op: &str, args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| format!("\"{a}\"")).collect();
        format!(r#"{{"op": "{op}", "args": [{}]}}"#, args.join(", "))
    }

    /// POSTs a JSON body to `path`; returns the response text.
    fn post(path: &str, body: &str) -> String {
        http(
            format!(
                "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
    }

    /// The response payloads of a stdio session.
    fn replies(payloads: &[&str]) -> Vec<String> {
        let (served, out) = run_session(payloads);
        assert_eq!(served as usize, payloads.len());
        let mut cursor = Cursor::new(out.into_bytes());
        let mut replies = Vec::new();
        while let Some(Frame::Request(reply)) = read_frame(&mut cursor).unwrap() {
            replies.push(reply);
        }
        replies
    }

    #[test]
    fn plan_and_profile_refuse_flags_that_name_server_files() {
        let dir = std::env::temp_dir().join(format!("mcloud-serve-files-{}", std::process::id()));
        let path = dir.join("written");
        let path = path.to_str().unwrap();
        let cases = [
            ("profile", vec!["--degrees", "0.2", "--out", path]),
            ("profile", vec!["--degrees", "0.2", "--svg", path]),
            (
                "profile",
                vec!["--degrees", "0.2", "--trace", "/etc/passwd"],
            ),
            ("profile", vec!["--degrees", "0.2", "--trace-out", path]),
            ("profile", vec!["--degrees", "0.2", "--profile-out", path]),
            ("profile", vec!["--degrees", "0.2", "--metrics-out", path]),
            (
                "plan",
                vec![
                    "--slo-p99",
                    "7",
                    "--rate",
                    "1",
                    "--horizon",
                    "24",
                    "--out",
                    path,
                ],
            ),
            (
                "plan",
                vec![
                    "--degrees",
                    "0.2",
                    "--deadline-hours",
                    "1",
                    "--metrics-out",
                    path,
                ],
            ),
        ];
        for (op, args) in &cases {
            let q = request(op, args);
            let reply = &replies(&[&q])[0];
            assert!(reply.starts_with("{\"ok\": false"), "{reply}");
            assert!(reply.contains("names a file on the server"), "{reply}");
            let resp = post(&format!("/{op}"), &q);
            assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
            assert!(resp.contains("names a file on the server"), "{resp}");
        }
        // The `--flag=value` spelling is refused too.
        let inline = format!("--out={path}");
        let reply = &replies(&[&request("profile", &["--degrees", "0.2", &inline])])[0];
        assert!(
            reply.contains("--out names a file on the server"),
            "{reply}"
        );
        assert!(!dir.exists(), "a refused request wrote a file");
        // A file path as a plain flag value is just a value.
        let reply = &replies(&[&request(
            "profile",
            &["--degrees", "0.2", "--region", "out", "--format", "json"],
        )])[0];
        assert!(reply.starts_with("{\"ok\": true"), "{reply}");
    }

    #[test]
    fn oversized_scenarios_are_refused_before_generation() {
        for degrees in ["1000", "1e12"] {
            let class = format!("{degrees}:1:0");
            let batch = format!(
                r#"{{"op": "batch", "scenarios": [["--degrees", "0.2"], ["--degrees", "{degrees}"]]}}"#
            );
            let cases = [
                ("simulate", request("simulate", &["--degrees", degrees])),
                ("batch", batch),
                ("profile", request("profile", &["--degrees", degrees])),
                (
                    "profile",
                    request("profile", &["--degrees", "1", "--degrees", degrees]),
                ),
                (
                    "plan",
                    request("plan", &["--degrees", degrees, "--deadline-hours", "1"]),
                ),
                (
                    "plan",
                    request("plan", &["--slo-p99", "7", "--class", &class]),
                ),
            ];
            for (op, q) in &cases {
                let reply = &replies(&[q])[0];
                assert!(reply.starts_with("{\"ok\": false"), "{reply}");
                assert!(
                    reply.contains("the server admits at most 1048576 tasks"),
                    "{reply}"
                );
                let resp = post(&format!("/{op}"), q);
                assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
                assert!(resp.contains("admits at most"), "{resp}");
            }
        }
        let inline = request("profile", &["--degrees=1e12"]);
        assert!(replies(&[&inline])[0].contains("admits at most"));
        // Sizes the generator would reject with a panic are refused too.
        for (op, args) in [
            ("profile", ["--degrees", "-1"]),
            ("profile", ["--degrees", "inf"]),
            ("plan", ["--slo-p99", "--class=0:1:0"]),
            ("plan", ["--slo-p99", "--class=NaN:1:0"]),
        ] {
            let reply = &replies(&[&request(op, &args)])[0];
            assert!(reply.contains("must be positive"), "{reply}");
        }
        // The largest admitted sizes still parse; unparsable values are
        // left for the command to reject.
        let args = |d: &str| vec!["--degrees".to_string(), d.to_string()];
        assert!(scenario_from(&args("64")).is_ok());
        assert!(scenario_from(&args("200")).is_err());
        assert!(check_command_args(&args("64")).is_ok());
        assert!(check_command_args(&["--class".into(), "4:1:0".into()]).is_ok());
        let bad = &replies(&[&request("profile", &["--degrees", "huge"])])[0];
        assert!(bad.contains("cannot parse 'huge'"), "{bad}");
    }

    #[test]
    fn metrics_carry_the_memo_series_after_the_cache_series() {
        let text = metrics_text();
        let cache = text.find("mcloud_cache_hits_total").unwrap();
        for series in [
            "mcloud_serve_workflow_memo_hits_total ",
            "mcloud_serve_workflow_memo_misses_total ",
            "mcloud_serve_workflow_memo_held_tasks ",
        ] {
            let at = text
                .find(series)
                .unwrap_or_else(|| panic!("{series}: {text}"));
            assert!(at > cache, "{series}");
        }
        let resp = http(b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(
            resp.contains("mcloud_serve_workflow_memo_hits_total"),
            "{resp}"
        );
    }
}
