//! The end-to-end side: drives the real `mcloud` binary as a user would,
//! one client, closed loop — each request waits for its reply.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::{Cli, Frame, Kind};

/// Worker lanes for every `mcloud` process and the in-process replay.
/// At most `nproc`; one lane keeps batch timing free of lane scheduling.
pub const WORKERS: &str = "1";

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, lowest first (empty if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable cpu_set_t-sized buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..size * 8)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; threads and children it starts
/// later inherit the pin. Returns whether it took.
///
/// The benchmark runs pinned to one CPU. In a closed loop the client
/// waits while the server works, so one CPU carries the whole run, and
/// sharing it turns every reply's wake-up into a same-CPU switch. Across
/// two vCPUs a wake-up may instead have to bring the other vCPU out of
/// idle, and a ~40 µs memory hit swung by a quarter between runs with it.
pub fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable cpu_set_t-sized buffer of the given size.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.env("MCLOUD_WORKERS", WORKERS)
        .env_remove("MCLOUD_CACHE_DIR")
        .env_remove("MCLOUD_CACHE_BYTES")
        .stderr(Stdio::null());
    cmd
}

/// VmHWM (peak resident set) of a live process, in kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// One answered frame.
#[derive(Debug, Clone)]
pub struct Answer {
    pub frame: Frame,
    /// Query id shared with the replay's spans.
    pub id: u32,
    pub response: String,
    pub latency_ns: u64,
    /// Which block of the session the frame belongs to.
    pub block: usize,
}

/// A running `mcloud serve` stdio session.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    pub fn spawn(bin: &Path, cache_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = command(bin);
        cmd.arg("serve");
        if let Some(dir) = cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            stdin: Some(stdin),
            stdout,
        })
    }

    /// Sends one frame and waits for its reply; returns (payload, ns).
    pub fn ask(&mut self, payload: &str) -> Result<(String, u64), String> {
        let t = Instant::now();
        let framed = format!("{}\n{payload}", payload.len());
        let stdin = self.stdin.as_mut().expect("session is open");
        stdin
            .write_all(framed.as_bytes())
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing frame: {e}"))?;
        let mut header = String::new();
        self.stdout
            .read_line(&mut header)
            .map_err(|e| format!("reading reply header: {e}"))?;
        let len: usize = header
            .trim()
            .parse()
            .map_err(|_| format!("bad reply header {header:?} (server exited?)"))?;
        let mut body = vec![0u8; len];
        self.stdout
            .read_exact(&mut body)
            .map_err(|e| format!("reading {len}-byte reply: {e}"))?;
        let ns = t.elapsed().as_nanos() as u64;
        let body = String::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
        Ok((body, ns))
    }

    pub fn peak_rss_kb(&self) -> u64 {
        vm_hwm_kb(self.child.id()).unwrap_or(0)
    }

    /// Closes stdin (EOF ends the session) and waits for a clean exit.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for serve: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("mcloud serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After `finish` the child has exited and this is a no-op; on an
        // error path it makes sure no server is left behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Set-up time: spawn `mcloud serve` and time until its first answered
/// frame (a `metrics` frame, which does no simulation). Returns seconds.
pub fn setup_probe(bin: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let mut server = Server::spawn(bin, None)?;
    let (reply, _) = server.ask(&Frame::metrics(Kind::Metrics).payload())?;
    let secs = t.elapsed().as_secs_f64();
    server.finish()?;
    if !reply.starts_with("{\"ok\": true") {
        return Err(format!("setup probe got {reply}"));
    }
    Ok(secs)
}

/// One finished one-shot CLI run.
#[derive(Debug, Clone)]
pub struct CliRun {
    pub cli: Cli,
    pub id: u32,
    pub stdout: String,
    pub wall_ns: u64,
    pub peak_rss_kb: u64,
    pub ok: bool,
}

/// Runs `mcloud <argv>` to completion, polling VmHWM from outside every
/// millisecond on a side thread (the last reading before exit is the
/// peak the poller saw).
pub fn run_cli(bin: &Path, cli: &Cli, id: u32) -> Result<CliRun, String> {
    let t = Instant::now();
    let child = command(bin)
        .args(cli.argv())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let pid = child.id();
    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let poller = {
        let (done, peak) = (done.clone(), peak.clone());
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let output = child.wait_with_output();
    let wall_ns = t.elapsed().as_nanos() as u64;
    done.store(true, Ordering::Relaxed);
    poller
        .join()
        .map_err(|_| "RSS poller panicked".to_string())?;
    let output = output.map_err(|e| format!("waiting for mcloud {}: {e}", cli.kind()))?;
    Ok(CliRun {
        cli: cli.clone(),
        id,
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        wall_ns,
        peak_rss_kb: peak.load(Ordering::Relaxed),
        ok: output.status.success(),
    })
}

/// A scratch directory under the checkout, emptied on creation.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path)
}
