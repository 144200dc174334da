//! A closed-loop client of the real `hyperroute-grid serve` daemon over
//! stdio NDJSON: it sends the next `Submit` only after the previous
//! campaign's `ResultsDone`.

use crate::trace::Tracer;
use hyperroute_core::scenario::Sweep;
use hyperroute_grid::ServiceRequest;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running `serve` process and its pipes.
pub struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr: Option<JoinHandle<String>>,
}

/// One campaign's replies and timings (seconds since `Submit` was sent).
pub struct CampaignReply {
    /// Whether the service accepted the submit.
    pub accepted: bool,
    /// Every reply line after `Accepted`, raw.
    pub frames: Vec<String>,
    /// `Submit` → last `Report` frame.
    pub latency_s: f64,
    /// `Results` sent → first `Report` frame.
    pub wait_s: f64,
    /// First `Report` frame → `ResultsDone`.
    pub stream_s: f64,
    pub error: Option<String>,
}

/// The `Submit` line for `sweep`, one point per slice.
pub fn submit_line(sweep: &Sweep) -> String {
    serde_json::to_string(&ServiceRequest::Submit {
        sweep: sweep.clone(),
        slice_len: 1,
    })
    .expect("requests serialise")
}

/// The payload bytes of a `Report` frame: the `report` value exactly as
/// the service wrote it.
pub fn report_payload(frame: &str) -> Option<&str> {
    let start = frame.find(",\"report\":")? + ",\"report\":".len();
    frame.get(start..frame.len().checked_sub(2)?)
}

impl Serve {
    /// Start `serve` on `workers` warm subprocess workers with a disk
    /// cache in `cache_dir`.
    pub fn spawn(grid_bin: &Path, cache_dir: &Path, workers: usize) -> Result<Serve, String> {
        let mut child = Command::new(grid_bin)
            .args(["serve", "--backend", "subprocess", "--workers"])
            .arg(workers.to_string())
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", grid_bin.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut stderr = child.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = std::io::Read::read_to_string(&mut stderr, &mut text);
            text
        });
        Ok(Serve {
            child,
            stdin: Some(stdin),
            stdout,
            stderr: Some(stderr),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("serve stdin is closed")?;
        writeln!(stdin, "{line}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("serve stdin: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("serve closed its stdout".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("serve stdout: {e}")),
        }
    }

    /// Submit one campaign and stream its results, inside `service.*`
    /// spans when `t` traces.
    pub fn campaign(&mut self, t: &Tracer, submit: &str) -> CampaignReply {
        let t0 = Instant::now();
        let mut reply = CampaignReply {
            accepted: false,
            frames: Vec::new(),
            latency_s: f64::NAN,
            wait_s: f64::NAN,
            stream_s: f64::NAN,
            error: None,
        };
        let result = t.span("campaign", |t| self.exchange(t, submit, t0, &mut reply));
        if let Err(e) = result {
            reply.error = Some(e);
        }
        reply
    }

    fn exchange(
        &mut self,
        t: &Tracer,
        submit: &str,
        t0: Instant,
        reply: &mut CampaignReply,
    ) -> Result<(), String> {
        let answer = t.span("service.submit", |_| {
            self.send(submit)?;
            self.recv()
        })?;
        let Some(id) = answer
            .strip_prefix("{\"Accepted\":{\"campaign\":")
            .and_then(|rest| rest.strip_suffix("}}"))
        else {
            return Err(format!("submit answered {answer}"));
        };
        reply.accepted = true;
        let results = format!("{{\"Results\":{{\"campaign\":{id}}}}}");
        let sent = Instant::now();
        let first = t.span("service.wait", |_| {
            self.send(&results)?;
            self.recv()
        })?;
        let first_at = Instant::now();
        reply.wait_s = (first_at - sent).as_secs_f64();
        let mut last_report = first_at;
        let mut line = first;
        t.span("service.stream", |_| -> Result<(), String> {
            loop {
                if line.starts_with("{\"Report\":") {
                    last_report = Instant::now();
                    reply.frames.push(std::mem::take(&mut line));
                } else if line.starts_with("{\"ResultsDone\":") {
                    reply.frames.push(line);
                    return Ok(());
                } else {
                    return Err(format!("unexpected reply {line}"));
                }
                line = self.recv()?;
            }
        })?;
        reply.stream_s = first_at.elapsed().as_secs_f64();
        reply.latency_s = (last_report - t0).as_secs_f64();
        Ok(())
    }

    /// Ask the service to stop, wait for it to exit, and return its
    /// stderr (the end-of-session cache and pool summary).
    pub fn shutdown(mut self) -> Result<String, String> {
        let bye = self.send("\"Shutdown\"").and_then(|_| self.recv());
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let stderr = self.stderr.take().map(|h| h.join().unwrap_or_default());
        let stderr = stderr.unwrap_or_default();
        match bye {
            Ok(line) if line == "\"Bye\"" && status.success() => Ok(stderr),
            Ok(line) => Err(format!("shutdown answered {line}, exit {status}: {stderr}")),
            Err(e) => Err(format!("{e}, exit {status}: {stderr}")),
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Reached only when `shutdown` was not: never leave a daemon behind.
        if self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr.take() {
                let _ = h.join();
            }
        }
    }
}

/// Counters from the `serve` end-of-session summary line:
/// `cache H hits / M misses / I inserts; workers S spawned / R reused`
/// (the insert count is not kept).
#[derive(Default, Debug)]
pub struct ServeSummary {
    pub hits: u64,
    pub misses: u64,
    pub spawns: u64,
    pub reuses: u64,
}

pub fn parse_summary(stderr: &str) -> Option<ServeSummary> {
    let line = stderr.lines().rev().find(|l| l.contains(" hits / "))?;
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    match numbers[..] {
        [hits, misses, _inserts, spawns, reuses] => Some(ServeSummary {
            hits,
            misses,
            spawns,
            reuses,
        }),
        _ => None,
    }
}
