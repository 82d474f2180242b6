//! The `pressio serve` daemon as its own process: start, wait until it
//! answers, read its counters, and drain it on the way out.

use pressio_core::Options;
use pressio_serve::{Client, Endpoint};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Flags every daemon in the benchmark runs with. Workers, threads, queue,
/// batch and cache sizes are explicit so the measured configuration
/// cannot drift with the defaults.
const SERVE_FLAGS: &[&str] = &[
    "--workers",
    "2",
    "--threads",
    "1",
    "--queue",
    "64",
    "--batch",
    "8",
    "--cache",
    "1024",
    "--deadline",
    "10000",
    "--online",
    "--online-window",
    "32",
    "--refit-every",
    "8",
];

pub struct Daemon {
    child: Option<Child>,
    pub endpoint: Endpoint,
    pub trace_file: Option<PathBuf>,
}

impl Daemon {
    /// Start `pressio serve` on `<dir>/<name>.sock` over the model store
    /// `models`, traced to `<dir>/<name>-trace.jsonl` when `trace`.
    pub fn start(
        bin: &Path,
        dir: &Path,
        name: &str,
        models: &Path,
        trace: bool,
    ) -> Result<Daemon, String> {
        let socket = dir.join(format!("{name}.sock"));
        let _ = std::fs::remove_file(&socket);
        let stderr = std::fs::File::create(dir.join(format!("{name}.stderr")))
            .map_err(|e| format!("creating daemon log: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--models")
            .arg(models)
            .args(SERVE_FLAGS);
        let trace_file = trace.then(|| dir.join(format!("{name}-trace.jsonl")));
        if let Some(t) = &trace_file {
            cmd.arg("--trace").arg(t);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            endpoint: Endpoint::Unix(socket),
            trace_file,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(&daemon.endpoint) {
                if c.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            let child = daemon.child.as_mut().expect("child is set until drop");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon {name} exited during start: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!("daemon {name} did not answer within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connecting: {e}"))
    }

    /// The daemon's `stats` counters.
    pub fn stats(&self) -> Result<Options, String> {
        self.client()?.stats().map_err(|e| format!("stats: {e}"))
    }

    /// Graceful drain; kills the process if it has not exited in 20 s.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.client().and_then(|mut c| {
            c.shutdown()
                .map(|_| ())
                .map_err(|e| format!("shutdown: {e}"))
        });
        let mut child = self.child.take().expect("child is set until drop");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return asked,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain within 20 s".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Counter `key` of a stats response, 0 when absent.
pub fn counter(stats: &Options, key: &str) -> f64 {
    stats.get_u64_opt(key).ok().flatten().unwrap_or(0) as f64
}

/// Largest value the daemon's trace recorded for gauge `name`.
pub fn gauge_max(trace_file: &Path, name: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(trace_file) else {
        return 0.0;
    };
    let needle = format!("\"name\":\"{name}\"");
    text.lines()
        .filter(|l| l.contains("\"Gauge\"") && l.contains(&needle))
        .filter_map(|l| {
            let rest = &l[l.find("\"value\":")? + 8..];
            let end = rest.find([',', '}'])?;
            rest[..end].trim().parse::<f64>().ok()
        })
        .fold(0.0, f64::max)
}
