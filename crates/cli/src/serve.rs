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
//!   returns the cache telemetry as Prometheus text exposition. A body
//!   over [`MAX_REQUEST_BYTES`] gets `413 Payload Too Large`.
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
//! coalesce into one simulation. Responses carry no timing or
//! hit/miss information, so a warm answer is byte-identical to a cold
//! one — that equivalence is pinned by the `serve-equivalence` CI job.

use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use mcloud_cache::{decode_report, encode_report, DEFAULT_BUDGET_BYTES};
use mcloud_core::{
    report_json, simulate, simulate_batch, BatchScratch, Digest, Report, Scenario, ScenarioRecipe,
};
use mcloud_dag::Workflow;
use mcloud_montage::{generate, Band, MosaicConfig};

use crate::args::Args;
use crate::commands::{exec_from, parse_band, wants_help, SIM_FLAGS};
use crate::json::{self, Value};

/// Per-command help text.
const HELP: &str = "\
mcloud serve — answer what-if scenario queries over stdio or HTTP

stdio protocol (default): length-prefixed JSON frames. Each request is
an ASCII decimal byte count, '\\n', then that many bytes of JSON; each
response is framed the same way. EOF ends the session. A request over
16 MiB is refused: an error frame ends the session (HTTP: 413). A
simulate or batch scenario over 1048576 tasks is refused with an error
frame (HTTP: 400) before anything is generated.

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
answers are byte-identical to cold ones.

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
            eprintln!(
                "served {served} requests ({} memory hits, {} disk hits, {} simulated)",
                c.hits_mem, c.hits_disk, c.computes
            );
            Ok(String::new())
        }
    }
}

/// The largest request the server reads: a stdio frame's payload or an
/// HTTP body. A larger length is refused before anything is allocated
/// for it, so no header can make the server reserve unbounded memory.
const MAX_REQUEST_BYTES: u64 = 16 * 1024 * 1024;

/// The largest workflow a `simulate` or `batch` scenario may ask for, in
/// tasks: far above 16°'s 48,897, yet small enough that one request
/// cannot claim unbounded memory or time. Checked from the recipe
/// before anything is generated.
const MAX_SCENARIO_TASKS: u64 = 1 << 20;

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
            crate::commands::run(&argv).map(|out| wrap_output(&out))
        }
        "batch" => op_batch(request),
        "metrics" => Ok(wrap_text(
            &mcloud_cache::global().registry().prometheus_text(),
        )),
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

/// `simulate` flags the server accepts: everything `mcloud simulate`
/// takes except the file-writing side channels.
fn serve_sim_flags() -> Vec<&'static str> {
    SIM_FLAGS
        .iter()
        .copied()
        .filter(|f| *f != "trace-out" && *f != "trace-format")
        .collect()
}

/// Parses one simulate arg-list into its content-addressed scenario.
fn scenario_from(raw: &[String]) -> Result<Scenario, String> {
    let args = Args::parse(raw, &serve_sim_flags())?;
    let degrees: f64 = args.get_or("degrees", 1.0)?;
    if !(degrees.is_finite() && degrees > 0.0) {
        return Err(format!("--degrees must be positive, got {degrees}"));
    }
    let tasks = MosaicConfig::new(degrees).expected_tasks();
    if tasks > MAX_SCENARIO_TASKS {
        return Err(format!(
            "--degrees {degrees} asks for a {tasks}-task workflow; \
             the server admits at most {MAX_SCENARIO_TASKS} tasks"
        ));
    }
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

/// Materializes a recipe's workflow (the expensive step a warm query
/// skips entirely — the cache key is the recipe, not the DAG).
fn generate_recipe(recipe: &ScenarioRecipe) -> Result<Workflow, String> {
    let mut cfg = MosaicConfig::new(recipe.degrees).seed(recipe.seed);
    cfg = cfg.region(&recipe.region);
    cfg = cfg.band(parse_band(&recipe.band)?);
    Ok(generate(&cfg))
}

/// One scenario query: digest → single-flight cache lookup → report
/// JSON. Cold queries generate and simulate; warm queries are a hash
/// probe plus a decode.
fn op_simulate(raw: &[String]) -> Result<String, String> {
    let scenario = scenario_from(raw)?;
    let cache = mcloud_cache::global();
    let bytes = cache.get_or_compute(scenario.digest(), || {
        let wf = generate_recipe(&scenario.recipe)?;
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
    // distinct workflow is generated once and its configs run as one
    // pool batch.
    let mut groups: Vec<(ScenarioRecipe, Vec<usize>)> = Vec::new();
    let mut seen: HashMap<Digest, ()> = HashMap::new();
    for i in 0..parsed.len() {
        if results[i].is_some() || seen.contains_key(&keys[i]) {
            continue;
        }
        seen.insert(keys[i], ());
        match groups.iter_mut().find(|(r, _)| *r == parsed[i].recipe) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((parsed[i].recipe.clone(), vec![i])),
        }
    }
    let mut scratch = BatchScratch::new();
    for (recipe, idxs) in groups {
        let wf = generate_recipe(&recipe)?;
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
        ("GET", "/metrics") => write_http(
            stream,
            200,
            "text/plain; version=0.0.4",
            &mcloud_cache::global().registry().prometheus_text(),
        ),
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
        let (served, out) = run_session(&[
            r#"{"op": "batch", "scenarios": [["--degrees", "0.2", "--procs", "2"], ["--degrees", "0.2", "--procs", "2"]]}"#,
            r#"{"op": "plan", "args": ["--slo-p99", "7", "--rate", "1", "--horizon", "24", "--format", "json"]}"#,
            r#"{"op": "metrics"}"#,
            r#"{"op": "nonsense"}"#,
            r#"not json at all"#,
        ]);
        assert_eq!(served, 5);
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
    fn oversized_scenarios_are_refused_before_generation() {
        for degrees in ["1000", "1e12"] {
            let q = format!(r#"{{"op": "simulate", "args": ["--degrees", "{degrees}"]}}"#);
            let batch = format!(
                r#"{{"op": "batch", "scenarios": [["--degrees", "0.2"], ["--degrees", "{degrees}"]]}}"#
            );
            let (served, out) = run_session(&[&q, &batch]);
            assert_eq!(served, 2, "{degrees}");
            let mut cursor = Cursor::new(out.into_bytes());
            for _ in 0..2 {
                let Some(Frame::Request(resp)) = read_frame(&mut cursor).unwrap() else {
                    panic!("{degrees}: response missing");
                };
                assert!(resp.starts_with("{\"ok\": false"), "{resp}");
                assert!(
                    resp.contains("the server admits at most 1048576 tasks"),
                    "{resp}"
                );
            }
            let body = format!(r#"{{"args": ["--degrees", "{degrees}"]}}"#);
            let resp = http(
                format!(
                    "POST /simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
            assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
            assert!(resp.contains("admits at most"), "{resp}");
        }
        // The largest admitted sizes still parse.
        let args = |d: &str| vec!["--degrees".to_string(), d.to_string()];
        assert!(scenario_from(&args("64")).is_ok());
        assert!(scenario_from(&args("200")).is_err());
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
}
