//! The benchmark harness: runs one seeded workload against the shipped
//! code, checks every output, and prints each metric by name with its
//! unit; the last line of standard output is the JSON result.
//!
//! ```text
//! pressio-perf-e2e --workload <serve-small-hot|serve-large-cold|library-isabel>
//!     --seed N --seconds S --trace 0|1 --pressio-bin PATH --work-dir DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same workload with the program's `pressio-obs`
//! tracing on and times each layer's public calls from here, printing
//! the per-layer metrics and a report table. See `../README.md`.

mod calib;
mod daemon;
mod inputs;
mod layers;
mod library;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The three workloads; see `../README.md` for why each exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 8 KB blocks, ~90% from a cache-resident working set, two
    /// connections, one of them also streaming.
    SmallHot,
    /// 0.5 MB fields, every buffer new to the daemon, one connection.
    LargeCold,
    /// 4.2 MB fields through the library calls, no daemon.
    Library,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-small-hot" => Some(Workload::SmallHot),
            "serve-large-cold" => Some(Workload::LargeCold),
            "library-isabel" => Some(Workload::Library),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallHot => "serve-small-hot",
            Workload::LargeCold => "serve-large-cold",
            Workload::Library => "library-isabel",
        }
    }
}

/// Operation tallies for one kind of operation.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// State shared by every phase of one run.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin: PathBuf,
    pub dir: PathBuf,
    pub tally: BTreeMap<&'static str, Tally>,
    violations: Vec<String>,
    violation_count: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Run {
    /// Count one operation of `kind`; `ok = false` counts it failed.
    pub fn op(&mut self, kind: &'static str, ok: bool) {
        let t = self.tally.entry(kind).or_default();
        t.attempted += 1;
        if !ok {
            t.failed += 1;
        }
    }

    /// Record a wrong output. The operation that produced it must also be
    /// counted failed by the caller.
    pub fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// `share` of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
/// Order and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("predict_p50_ms", "ms"),
    ("predict_p90_ms", "ms"),
    ("predict_rps", "1/s"),
    ("predict_medape_pct", "%"),
    ("stream_chunk_p50_ms", "ms"),
    ("sz3_compress_mbps", "MB/s"),
    ("sz3_decompress_mbps", "MB/s"),
    ("zfp_compress_mbps", "MB/s"),
    ("zfp_decompress_mbps", "MB/s"),
    ("select_compress_mbps", "MB/s"),
    ("sz3_ratio", "x"),
    ("zfp_ratio", "x"),
    ("stream_ratio", "x"),
];

/// Per-layer metrics, reported by every workload in the traced run. A
/// layer the workload's path does not touch reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.encode_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("protocol.content_hash_ms", "ms"),
    ("protocol.wire_bytes_per_raw_byte", "B/B"),
    ("cache.prediction_hit_ratio", "ratio"),
    ("cache.feature_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("pipeline.coalesced", "count"),
    ("pipeline.queue_depth_max", "count"),
    ("server.features_computed_per_miss", "count"),
    ("stream.refits", "count"),
    ("stream.observed_per_sent", "ratio"),
    ("journal.append_ms", "ms"),
    ("sender.retries", "count"),
    ("sender.replays", "count"),
    ("sender.resumes", "count"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("serve.p50_ms", "ms"),
    ("serve.traced_p50_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("features.agnostic_ms", "ms"),
    ("features.dependent_ms", "ms"),
    ("predictor.predict_us", "us"),
    ("predictor.fit_ms", "ms"),
    ("sz.predictor_select_ms", "ms"),
    ("sz.predict_quantize_ms", "ms"),
    ("sz.parse_ms", "ms"),
    ("sz.reconstruct_ms", "ms"),
    ("huffman.encode_ms", "ms"),
    ("huffman.decode_ms", "ms"),
    ("lzss.encode_ms", "ms"),
    ("lzss.decode_ms", "ms"),
    ("lzss.win_ratio", "ratio"),
    ("zfp.encode_ms", "ms"),
    ("zfp.decode_ms", "ms"),
    ("zfp.decode_over_encode", "ratio"),
    ("zfp.bits_per_value", "bits"),
    ("select.decide_ms", "ms"),
    ("select.winner_ms", "ms"),
    ("select.regret_pct", "%"),
    ("stream.encode_chunk_ms", "ms"),
    ("stream.decode_chunk_ms", "ms"),
    ("stream.expanded_chunks", "count"),
    ("dataset.generate_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

fn usage() -> ! {
    eprintln!(
        "usage: pressio-perf-e2e --workload <serve-small-hot|serve-large-cold|library-isabel> \
         --seed N --seconds S --trace 0|1 --pressio-bin PATH --work-dir DIR"
    );
    std::process::exit(2)
}

fn parse_args() -> Run {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut bin, mut dir) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--pressio-bin" => bin = Some(PathBuf::from(value)),
            "--work-dir" => dir = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(bin), Some(dir)) =
        (workload, seed, seconds, trace, bin, dir)
    else {
        usage()
    };
    Run {
        workload,
        seed,
        seconds,
        trace,
        bin,
        dir,
        tally: BTreeMap::new(),
        violations: Vec::new(),
        violation_count: 0,
        metrics: BTreeMap::new(),
        lines: Vec::new(),
    }
}

/// `machine: ...` facts every report carries.
fn machine_line(run: &Run, working_set_bytes: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let l3 = std::env::var("PERF_E2E_L3_BYTES").unwrap_or_else(|_| "unknown".into());
    let fs = std::env::var("PERF_E2E_FS").unwrap_or_else(|_| "unknown".into());
    format!(
        "machine: nproc={nproc} l3_bytes={l3} working_set_bytes={working_set_bytes} \
         work_dir_fs={fs} work_dir={} threads=1",
        run.dir.display()
    )
}

fn main() {
    let mut run = parse_args();
    // one fixed intra-task thread count for every in-process library call
    pressio_core::threads::set_global_threads(1);
    let outcome = match run.workload {
        Workload::SmallHot | Workload::LargeCold => serve::run(&mut run),
        Workload::Library => library::run(&mut run),
    };
    let working_set = match outcome {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("{}: {e}", run.workload.name());
            std::process::exit(1);
        }
    };
    let line = machine_line(&run, working_set);
    run.note(line);
    finish(run)
}

fn finish(run: Run) -> ! {
    let expected = if run.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    let mut missing = Vec::new();
    for (name, unit) in expected {
        match run.metrics.get(name) {
            Some(v) if v.is_finite() => {
                println!("{name} = {v} {unit}");
                if !json.is_empty() {
                    json.push_str(", ");
                }
                json.push_str(&format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => missing.push(*name),
        }
    }
    for line in &run.lines {
        println!("{line}");
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (kind, t) in &run.tally {
        println!(
            "ops: {kind} attempted={} succeeded={} failed={}",
            t.attempted,
            t.attempted - t.failed,
            t.failed
        );
        attempted += t.attempted;
        failed += t.failed;
    }
    for v in &run.violations {
        println!("violation: {v}");
    }
    if !missing.is_empty() {
        eprintln!("metrics not measured: {}", missing.join(", "));
        std::process::exit(1);
    }
    if attempted == 0 {
        eprintln!("no operation was attempted");
        std::process::exit(1);
    }
    let correct = run.violation_count == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{json}}}}}"
    );
    std::process::exit(if correct { 0 } else { 1 })
}
