//! The two serving workloads: a `pressio serve` process on a Unix socket,
//! driven by closed-loop client threads of this process.

use crate::daemon::{self, Daemon};
use crate::inputs::{self, Field, Rng, Series, ABS};
use crate::library::{self, LibPredictor};
use crate::{calib, layers, stats, Run, Workload};
use pressio_core::{Data, Options};
use pressio_serve::{Client, Endpoint, ModelStore, ResilientStreamSender, RetryPolicy};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The model every predict names, and the one streams refit online (kept
/// apart so refits never change what a predict is checked against).
pub const PREDICT_MODEL: &str = "bench";
const STREAM_MODEL: &str = "stream";

/// Blocks of the small-hot working set. 256 × 3 cache entries (one
/// prediction, two feature groups) stay well inside the daemon's
/// 16-shard, 1024-entry caches.
const WORKING_SET: usize = 256;
/// Share of small-hot predicts that send a buffer the daemon never saw.
const FRESH_SHARE: f64 = 0.1;
/// First fresh-copy index of the large-cold warm-up; the measured phases
/// use indices below 3_000_000 (`layers::serve` starts its own at 1M, 2M).
const WARM_K: u64 = 9_000_000;
/// Fewest predicts a large-cold traffic phase ends with (p90 then has at
/// least twelve samples beyond it).
const MIN_SAMPLES: usize = 120;
/// Predicts the streaming connection sends between two stream sessions.
const PREDICTS_PER_CYCLE: usize = 8;
/// Small-hot working-set blocks the codec phase compresses (select takes
/// tens of ms per 8 KB block, so all 256 would not fit a pass in budget).
const CODEC_BLOCKS: usize = 32;

/// Which buffer a predict carried: a working-set entry, or the `k`-th
/// fresh copy of a pool entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buf {
    Work(usize),
    Fresh(usize, u64),
}

/// The served side of one predict.
pub struct Sample {
    pub buf: Buf,
    pub ms: f64,
    /// `(prediction, model version)` or the error code.
    pub outcome: Result<(f64, u64), String>,
}

#[derive(Default)]
pub struct StreamOut {
    pub chunk_ms: Vec<f64>,
    pub sent: u64,
    pub sessions: u64,
    pub retries: u64,
    pub replays: u64,
    pub resumes: u64,
    pub failures: Vec<String>,
}

impl StreamOut {
    fn absorb(&mut self, o: StreamOut) {
        self.chunk_ms.extend(o.chunk_ms);
        self.sent += o.sent;
        self.sessions += o.sessions;
        self.retries += o.retries;
        self.replays += o.replays;
        self.resumes += o.resumes;
        self.failures.extend(o.failures);
    }
}

pub struct Inputs {
    /// Small-hot working set (empty on large-cold).
    pub work: Vec<Field>,
    /// Buffers fresh copies are made from.
    pub pool: Vec<Field>,
    pub series: Vec<Series>,
    /// Buffers of the codec phase and of the MedAPE.
    pub codec_set: Vec<Field>,
    pub gen_ms: Vec<f64>,
    pub train_dims: [u64; 3],
    /// Seed-derived salt of the fresh copies.
    pub salt: u64,
}

impl Inputs {
    pub fn data(&self, buf: Buf) -> Data {
        match buf {
            Buf::Work(i) => self.work[i].data.clone(),
            Buf::Fresh(i, k) => inputs::fresh_copy(&self.pool[i].data, k, self.salt),
        }
    }
}

fn make_inputs(w: Workload, seed: u64) -> Inputs {
    let h = inputs::archive([64, 64, 32]);
    let mut gen_ms = Vec::new();
    let series = inputs::series();
    match w {
        Workload::SmallHot => {
            let fields = inputs::fields(&h, 12, &mut gen_ms);
            // tiles in a fixed mixed order, repeats of earlier content
            // (all-zero tiles of the sparse fields) dropped
            let mut tiles = inputs::blocks(&fields, [16, 16, 8]);
            inputs::shuffle(&mut tiles, 0xB10C);
            let mut seen = std::collections::HashSet::new();
            let pool: Vec<Field> = tiles
                .into_iter()
                .filter(|t| seen.insert(t.data.to_le_bytes()))
                .collect();
            let work: Vec<Field> = pool[..WORKING_SET].to_vec();
            Inputs {
                codec_set: work[..CODEC_BLOCKS].to_vec(),
                work,
                pool,
                series,
                gen_ms,
                train_dims: [16, 16, 8],
                salt: seed,
            }
        }
        _ => {
            let mut pool = Vec::new();
            for t in [12, 18, 24, 30] {
                pool.extend(inputs::fields(&h, t, &mut gen_ms));
            }
            Inputs {
                codec_set: pool[..13].to_vec(),
                work: Vec::new(),
                pool,
                series,
                gen_ms,
                train_dims: [64, 64, 32],
                salt: seed,
            }
        }
    }
}

fn predict_extra() -> Options {
    Options::new()
        .with("serve:compressor", "sz3")
        .with("pressio:abs", ABS)
}

fn train(client: &mut Client, model: &str, dims: [u64; 3]) -> Result<f64, String> {
    let resp = client
        .call(
            &Options::new()
                .with("serve:op", "train")
                .with("serve:scheme", library::SCHEME)
                .with("serve:model", model)
                .with("serve:compressor", "sz3")
                .with("serve:dims", dims.to_vec())
                .with("serve:timesteps", 2u64)
                .with("serve:bounds", vec![ABS]),
        )
        .map_err(|e| format!("train {model}: {e}"))?;
    resp.get_f64("serve:fit_ms")
        .map_err(|_| format!("train {model} answered {resp:?}"))
}

/// Send one predict and classify the answer.
pub fn predict(client: &mut Client, data: &Data) -> Result<(f64, u64), String> {
    let resp = client
        .predict(PREDICT_MODEL, data, &predict_extra())
        .map_err(|e| format!("transport: {e}"))?;
    if resp.get_str_opt("serve:type").ok().flatten() != Some("prediction") {
        return Err(resp
            .get_str_opt("serve:code")
            .ok()
            .flatten()
            .unwrap_or("unexpected response")
            .to_string());
    }
    let value = resp
        .get_f64("serve:prediction")
        .map_err(|e| e.to_string())?;
    let tag = resp.get_str("serve:model").map_err(|e| e.to_string())?;
    let version = tag
        .rsplit_once('@')
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| format!("model tag {tag}"))?;
    Ok((value, version))
}

pub fn timed_predict(client: &mut Client, inputs: &Inputs, buf: Buf) -> Sample {
    let data = inputs.data(buf);
    let (outcome, ms) = calib::time(|| predict(client, &data));
    Sample { buf, ms, outcome }
}

/// One journaled, online stream session of `series` through a
/// `ResilientStreamSender` (its own connection, closed at the end).
pub fn stream_session(endpoint: &Endpoint, id: String, series: &Series) -> StreamOut {
    let mut out = StreamOut {
        sessions: 1,
        ..StreamOut::default()
    };
    let mut sender =
        ResilientStreamSender::new(endpoint.clone(), id.clone(), RetryPolicy::default());
    let begin = Options::new()
        .with("serve:model", STREAM_MODEL)
        .with("serve:compressor", "sz3")
        .with("pressio:abs", ABS);
    match sender.begin(&begin) {
        Ok(r) if r.get_str_opt("serve:type").ok().flatten() == Some("stream.begun") => {}
        other => {
            out.failures.push(format!("{id}: begin answered {other:?}"));
            return out;
        }
    }
    while sender.next_seq() <= series.chunks.len() as u64 {
        let seq = sender.next_seq();
        let i = seq as usize - 1;
        let actual = Options::new().with("stream:actual", series.actual[i]);
        let (resp, ms) = calib::time(|| sender.send_chunk(seq, &series.chunks[i], &actual));
        out.chunk_ms.push(ms);
        out.sent += 1;
        match resp {
            Ok(r) if r.get_str_opt("serve:type").ok().flatten() == Some("stream.prediction") => {}
            other => {
                out.failures.push(format!("{id} chunk {seq}: {other:?}"));
                break;
            }
        }
    }
    match sender.end() {
        Ok(r) => {
            let observed = r.get_u64_opt("stream:observed").ok().flatten();
            if observed != Some(series.chunks.len() as u64) {
                out.failures.push(format!(
                    "{id}: observed {observed:?} of {} chunks",
                    series.chunks.len()
                ));
            }
        }
        Err(e) => out.failures.push(format!("{id}: end failed: {e}")),
    }
    out.retries = sender.retries();
    out.replays = sender.replays();
    out.resumes = sender.resumes();
    out
}

/// The `i`-th buffer of the workload's request mix, as a pure function of
/// the seed: ~90% working-set entries on small-hot, always a fresh copy
/// (index `k_base + i`) on large-cold.
pub fn mix_picker(
    w: Workload,
    seed: u64,
    inputs: &Inputs,
    k_base: u64,
) -> impl Fn(usize) -> Buf + '_ {
    move |i| {
        let k = k_base + i as u64;
        let mut rng = Rng::new(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407));
        if w == Workload::SmallHot && rng.unit() >= FRESH_SHARE {
            Buf::Work(rng.below(inputs.work.len()))
        } else {
            Buf::Fresh(rng.below(inputs.pool.len()), k)
        }
    }
}

/// The workload's closed-loop traffic for `budget`. Fresh-copy indices
/// start at `k_base` so no two phases of a run send the same buffer.
pub struct Mix {
    pub samples: Vec<Sample>,
    pub stream: StreamOut,
    /// Nominal seconds the traffic ran (see [`calib::nominal_secs`]).
    pub secs: f64,
}

pub fn mix(
    w: Workload,
    seed: u64,
    endpoint: &Endpoint,
    inputs: &Inputs,
    budget: Duration,
    k_base: u64,
) -> Result<Mix, String> {
    match w {
        Workload::SmallHot => {
            // two connections keep both cores busy: calibrate on both
            calib::set_lanes(2);
            let start = Instant::now();
            let stop = start + budget;
            let picker = mix_picker(w, seed, inputs, k_base);
            // connection t sends mix entries t, t + 2, t + 4, ...
            let run_thread = |t: usize| -> Result<(Vec<Sample>, StreamOut), String> {
                let mut samples = Vec::new();
                let mut stream = StreamOut::default();
                let mut next = t;
                let mut pick = || {
                    next += 2;
                    picker(next - 2)
                };
                if t == 0 {
                    let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
                    while Instant::now() < stop {
                        samples.push(timed_predict(&mut client, inputs, pick()));
                    }
                } else {
                    // predicts and stream sessions take turns on this
                    // connection slot, so the load generator never holds
                    // more than two connections
                    let mut session = 0usize;
                    while Instant::now() < stop {
                        let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
                        for _ in 0..PREDICTS_PER_CYCLE {
                            samples.push(timed_predict(&mut client, inputs, pick()));
                        }
                        drop(client);
                        let series = &inputs.series[session % inputs.series.len()];
                        let id = format!("hot-{seed}-{k_base}-{session}");
                        stream.absorb(stream_session(endpoint, id, series));
                        session += 1;
                    }
                }
                Ok((samples, stream))
            };
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| run_thread(0));
                let b = s.spawn(|| run_thread(1));
                (
                    a.join().expect("load thread panicked"),
                    b.join().expect("load thread panicked"),
                )
            });
            calib::set_lanes(1);
            let (mut samples, mut stream) = a?;
            let (more, streamed) = b?;
            samples.extend(more);
            stream.absorb(streamed);
            Ok(Mix {
                samples,
                stream,
                secs: calib::nominal_secs(start, Instant::now()),
            })
        }
        _ => {
            let start = Instant::now();
            let stop = start + budget;
            let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
            let mut samples = Vec::new();
            let pick = mix_picker(w, seed, inputs, k_base);
            let mut i = 0;
            // a slow host still gets enough samples for a p90 with ten
            // beyond it, within three times the budget
            let hard_stop = start + 3 * budget;
            while Instant::now() < stop
                || (samples.len() < MIN_SAMPLES && Instant::now() < hard_stop)
            {
                samples.push(timed_predict(&mut client, inputs, pick(i)));
                i += 1;
            }
            Ok(Mix {
                samples,
                stream: StreamOut::default(),
                secs: calib::nominal_secs(start, Instant::now()),
            })
        }
    }
}

/// Stream sessions back to back on one connection for `budget` (at least
/// one session).
pub fn stream_phase(
    endpoint: &Endpoint,
    inputs: &Inputs,
    budget: Duration,
    tag: &str,
) -> StreamOut {
    let start = Instant::now();
    let mut out = StreamOut::default();
    let mut session = 0usize;
    while session == 0 || start.elapsed() < budget {
        let series = &inputs.series[session % inputs.series.len()];
        out.absorb(stream_session(endpoint, format!("{tag}-{session}"), series));
        session += 1;
    }
    out
}

/// In-process predictors per model version of [`PREDICT_MODEL`].
pub struct Reference {
    store: ModelStore,
    by_version: HashMap<u64, LibPredictor>,
}

impl Reference {
    pub fn new(models: &std::path::Path) -> Result<Reference, String> {
        Ok(Reference {
            store: ModelStore::open(models).map_err(|e| e.to_string())?,
            by_version: HashMap::new(),
        })
    }

    pub fn get(&mut self, version: u64) -> Result<&LibPredictor, String> {
        if !self.by_version.contains_key(&version) {
            let artifact = self
                .store
                .load(PREDICT_MODEL, Some(version))
                .map_err(|e| format!("loading {PREDICT_MODEL}@{version}: {e}"))?;
            self.by_version
                .insert(version, LibPredictor::from_state(&artifact.state)?);
        }
        Ok(&self.by_version[&version])
    }
}

/// Check every served prediction against the library prediction for the
/// same buffer and model version, and tally predicts and stream chunks.
/// Returns the latency samples, failed predicts counting as infinitely
/// slow.
pub fn account(
    run: &mut Run,
    inputs: &Inputs,
    reference: &mut Reference,
    m: &Mix,
) -> Result<Vec<f64>, String> {
    let mut expected: HashMap<(Buf, u64), Option<f64>> = HashMap::new();
    let mut lat = Vec::with_capacity(m.samples.len());
    for s in &m.samples {
        let ok = match &s.outcome {
            Ok((value, version)) => {
                let want = match expected.get(&(s.buf, *version)) {
                    Some(w) => *w,
                    None => {
                        let w = reference.get(*version)?.predict(&inputs.data(s.buf)).ok();
                        expected.insert((s.buf, *version), w);
                        w
                    }
                };
                if want == Some(*value) {
                    true
                } else {
                    run.violation(format!("served prediction {value} != library {want:?}"));
                    false
                }
            }
            Err(code) => {
                run.note(format!("predict failed: {code}"));
                false
            }
        };
        run.op("predict", ok);
        lat.push(if ok { s.ms } else { f64::INFINITY });
    }
    let st = &m.stream;
    let failed_chunks = st.failures.len() as u64 + st.retries + st.replays + st.resumes;
    for i in 0..st.sent {
        run.op("stream_chunk", i >= failed_chunks);
    }
    for f in &st.failures {
        run.violation(format!("stream: {f}"));
    }
    Ok(lat)
}

pub struct ServeSetup {
    pub daemon: Daemon,
    pub inputs: Inputs,
    pub models: PathBuf,
    pub fit_ms: f64,
}

/// Generate the inputs, start the daemon, train both models through it,
/// and warm it: the small-hot working set is predicted once (its cache is
/// hot when measuring starts); large-cold sends two throw-away buffers.
fn setup(run: &Run, rep: usize) -> Result<ServeSetup, String> {
    let inputs = make_inputs(run.workload, run.seed);
    calib::factor();
    let models = run.dir.join(format!("models-{rep}"));
    let daemon = Daemon::start(&run.bin, &run.dir, &format!("serve-{rep}"), &models, false)?;
    let mut client = daemon.client()?;
    calib::factor();
    let fit_ms = train(&mut client, PREDICT_MODEL, inputs.train_dims)? * calib::factor();
    train(&mut client, STREAM_MODEL, [16, 16, 8])?;
    calib::factor();
    let warm: Vec<Buf> = if inputs.work.is_empty() {
        // fresh-copy indices above any the measured traffic reaches
        vec![Buf::Fresh(0, WARM_K), Buf::Fresh(1, WARM_K + 1)]
    } else {
        (0..inputs.work.len()).map(Buf::Work).collect()
    };
    for buf in warm {
        timed_predict(&mut client, &inputs, buf)
            .outcome
            .map_err(|e| format!("warm-up predict: {e}"))?;
    }
    Ok(ServeSetup {
        daemon,
        inputs,
        models,
        fit_ms,
    })
}

pub fn run(run: &mut Run) -> Result<usize, String> {
    let reps = if run.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut last: Option<ServeSetup> = None;
    for rep in 0..reps {
        if let Some(prev) = last.take() {
            prev.daemon.stop()?;
        }
        calib::factor();
        let t = Instant::now();
        last = Some(setup(run, rep)?);
        calib::factor();
        setup_s.push(calib::nominal_secs(t, Instant::now()));
    }
    let s = last.expect("at least one set-up");
    let working_set: usize = if s.inputs.work.is_empty() {
        s.inputs.pool.iter().map(|f| f.data.size_in_bytes()).sum()
    } else {
        s.inputs.work.iter().map(|f| f.data.size_in_bytes()).sum()
    };
    run.note(format!(
        "setup: {} set-ups {setup_s:?} s; {} working-set buffers, {} fresh-copy bases, \
         {} codec buffers",
        reps,
        s.inputs.work.len(),
        s.inputs.pool.len(),
        s.inputs.codec_set.len()
    ));
    if run.trace {
        layers::serve(run, &s)?;
        s.daemon.stop()?;
        return Ok(working_set);
    }
    run.metric("setup_s", stats::median(&setup_s));
    let mut reference = Reference::new(&s.models)?;
    let before = s.daemon.stats()?;
    let (mix_share, codec_share) = match run.workload {
        Workload::SmallHot => (0.7, 0.3),
        _ => (0.7, 0.2),
    };
    let mut m = mix(
        run.workload,
        run.seed,
        &s.daemon.endpoint,
        &s.inputs,
        run.budget(mix_share),
        0,
    )?;
    if run.workload == Workload::LargeCold {
        let tag = format!("cold-{}", run.seed);
        m.stream = stream_phase(&s.daemon.endpoint, &s.inputs, run.budget(0.1), &tag);
    }
    let after = s.daemon.stats()?;
    let observed = daemon::counter(&after, "serve:stream.observed")
        - daemon::counter(&before, "serve:stream.observed");
    if observed != m.stream.sent as f64 {
        run.violation(format!(
            "daemon observed {observed} stream chunks, {} were sent",
            m.stream.sent
        ));
    }
    let lat = account(run, &s.inputs, &mut reference, &m)?;
    library::predict_metrics(run, &lat, m.secs)?;
    run.metric("stream_chunk_p50_ms", stats::median(&m.stream.chunk_ms));
    run.note(format!(
        "stream: {} sessions, {} chunks, {} observed",
        m.stream.sessions, m.stream.sent, observed
    ));
    library::stream_ratio(run, &s.inputs.series);
    library::codec_phase(run, &s.inputs.codec_set, run.budget(codec_share));
    // every distinct buffer family the daemon served: the working set, or
    // the fields fresh copies were made from
    let judged = if s.inputs.work.is_empty() {
        &s.inputs.pool
    } else {
        &s.inputs.work
    };
    let lp = reference.get(1)?;
    let predicted: Vec<f64> = judged
        .iter()
        .map(|f| lp.predict(&f.data).unwrap_or(f64::NAN))
        .collect();
    let actual = library::sz3_ratios(run, judged);
    library::medape(run, &predicted, &actual);
    s.daemon.stop()?;
    Ok(working_set)
}
