//! In-process library paths: rahman2023 training and predict, the sz3,
//! zfp and select codecs, and PSTF streaming. The codec and stream phases
//! also run on the serve workloads' own buffers.

use crate::inputs::{self, Field, Series, ABS};
use crate::{calib, layers, stats, Run};
use pressio_core::{Compressor, Data, Options};
use pressio_predict::{standard_compressors, standard_schemes, Predictor, Scheme};
use pressio_select::SelectCodec;
use pressio_serve::ModelStore;
use pressio_stream::{StreamDecoder, StreamEncoder};
use std::time::{Duration, Instant};

pub const SCHEME: &str = "rahman2023";

/// sz3 (or zfp) configured the way every predict in the run is.
pub fn codec_at_abs(id: &str) -> Box<dyn Compressor> {
    let mut c = standard_compressors().build(id).expect("registered codec");
    c.set_options(
        &Options::new()
            .with("pressio:abs", ABS)
            .with("pressio:nthreads", 1u64),
    )
    .expect("valid codec options");
    c
}

/// The library predict path: error-agnostic plus error-dependent features
/// for sz3 at [`ABS`], then the trained predictor.
pub struct LibPredictor {
    pub scheme: Box<dyn Scheme>,
    pub comp: Box<dyn Compressor>,
    pub predictor: Box<dyn Predictor>,
}

impl LibPredictor {
    /// The scheme's predictor, untrained.
    pub fn untrained() -> LibPredictor {
        let scheme = standard_schemes().build(SCHEME).expect("registered scheme");
        LibPredictor {
            predictor: scheme.make_predictor(),
            scheme,
            comp: codec_at_abs("sz3"),
        }
    }

    /// Restore a persisted predictor state (a model store artifact).
    pub fn from_state(state: &[u8]) -> Result<LibPredictor, String> {
        let mut lp = LibPredictor::untrained();
        lp.predictor
            .load_state(state)
            .map_err(|e| format!("loading predictor state: {e}"))?;
        Ok(lp)
    }

    pub fn features(&self, data: &Data) -> pressio_core::error::Result<Options> {
        let mut f = self.scheme.error_agnostic_features(data)?;
        f.merge_from(
            &self
                .scheme
                .error_dependent_features(data, self.comp.as_ref())?,
        );
        Ok(f)
    }

    pub fn predict(&self, data: &Data) -> pressio_core::error::Result<f64> {
        self.predictor.predict(&self.features(data)?)
    }

    /// Fit on `fields` against their sz3 ratios at [`ABS`]; returns the
    /// fit time in nominal milliseconds.
    pub fn train(&mut self, fields: &[Field]) -> Result<f64, String> {
        let (mut features, mut targets) = (Vec::new(), Vec::new());
        for f in fields {
            calib::factor();
            features.push(self.features(&f.data).map_err(|e| e.to_string())?);
            targets.push(
                self.scheme
                    .training_observation(&f.data, self.comp.as_ref())
                    .map_err(|e| e.to_string())?,
            );
        }
        let (fitted, fit_ms) = calib::time(|| self.predictor.fit(&features, &targets));
        fitted.map_err(|e| format!("fit: {e}"))?;
        Ok(fit_ms)
    }
}

fn check_bound(run: &mut Run, what: &str, orig: &Data, back: &Data, abs: f64) -> bool {
    match inputs::max_abs_err(orig, back) {
        Some(err) if err <= abs => true,
        Some(err) => {
            run.violation(format!("{what}: error {err:e} exceeds bound {abs:e}"));
            false
        }
        None => {
            run.violation(format!("{what}: decoded shape or type differs"));
            false
        }
    }
}

/// Compress and decompress every buffer of `set` with sz3, zfp and the
/// select meta-codec, pass after pass, until `budget` is spent (at least
/// two passes: the first sets how often each codec repeats). Each codec's throughput is the set's raw bytes
/// over the sum of per-buffer median times, so one slow call moves it
/// little and every buffer weighs by its cost. Returns each buffer's sz3
/// ratio.
pub fn codec_phase(run: &mut Run, set: &[Field], budget: Duration) -> Vec<f64> {
    let n = set.len();
    let (sz3, zfp, select) = (codec_at_abs("sz3"), codec_at_abs("zfp"), SelectCodec::new());
    let codecs: [&dyn Compressor; 3] = [sz3.as_ref(), zfp.as_ref(), &select];
    // [sz3 c, sz3 d, zfp c, zfp d, select c, select d] × item
    let mut t: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n]; 6];
    let mut sizes = vec![[0usize; 3]; n];
    // calls per buffer and pass; after the first pass the faster codecs
    // repeat so each codec gets about the same share of the phase
    let mut reps = [1usize; 3];
    let start = Instant::now();
    let mut passes = 0;
    while passes < 2 || start.elapsed() < budget {
        for (i, f) in set.iter().enumerate() {
            let (dtype, dims) = (f.data.dtype(), f.data.dims().to_vec());
            for (k, codec) in codecs.into_iter().enumerate() {
                for _ in 0..reps[k] {
                    let (packed, ms) = calib::time(|| codec.compress(&f.data));
                    t[2 * k][i].push(ms);
                    let Ok(packed) = packed else {
                        run.violation(format!("{} compress of {} failed", codec.id(), f.name));
                        run.op("compress", false);
                        continue;
                    };
                    run.op("compress", true);
                    sizes[i][k] = packed.len();
                    let (back, ms) = calib::time(|| codec.decompress(&packed, dtype, &dims));
                    t[2 * k + 1][i].push(ms);
                    let abs = if k == 2 {
                        pressio_select::decode_header(&packed).map_or(0.0, |(rec, _)| rec.abs)
                    } else {
                        ABS
                    };
                    let ok = match back {
                        Ok(back) => check_bound(run, codec.id(), &f.data, &back, abs),
                        Err(e) => {
                            run.violation(format!("{} decompress of {}: {e}", codec.id(), f.name));
                            false
                        }
                    };
                    run.op("decompress", ok);
                }
            }
        }
        passes += 1;
        if passes == 1 {
            let cost: Vec<f64> = (0..3)
                .map(|k| {
                    (0..n)
                        .map(|i| stats::median(&t[2 * k][i]) + stats::median(&t[2 * k + 1][i]))
                        .sum()
                })
                .collect();
            let slowest = cost.iter().copied().fold(0.0, f64::max);
            for k in 0..3 {
                reps[k] = ((slowest / cost[k]).round() as usize).clamp(1, 128);
            }
        }
    }
    let raw: Vec<usize> = set.iter().map(|f| f.data.size_in_bytes()).collect();
    let raw_total: usize = raw.iter().sum();
    let mbps = |op: &Vec<Vec<f64>>| {
        let secs: f64 = op.iter().map(|s| stats::median(s)).sum::<f64>() / 1e3;
        raw_total as f64 / secs / 1e6
    };
    run.metric("sz3_compress_mbps", mbps(&t[0]));
    run.metric("sz3_decompress_mbps", mbps(&t[1]));
    run.metric("zfp_compress_mbps", mbps(&t[2]));
    run.metric("zfp_decompress_mbps", mbps(&t[3]));
    run.metric("select_compress_mbps", mbps(&t[4]));
    let ratio = |k: usize| raw_total as f64 / sizes.iter().map(|s| s[k]).sum::<usize>() as f64;
    run.metric("sz3_ratio", ratio(0));
    run.metric("zfp_ratio", ratio(1));
    run.note(format!(
        "codecs: {n} buffers x {passes} passes, calls per pass (sz3, zfp, select) {reps:?}, \
         {raw_total} raw bytes, select ratio {:.3}, select decompress {:.2} MB/s",
        ratio(2),
        mbps(&t[5])
    ));
    raw.iter()
        .zip(&sizes)
        .map(|(&r, s)| r as f64 / s[0] as f64)
        .collect()
}

/// sz3 ratios (abs [`ABS`]) of `set`, each from one untimed compress.
pub fn sz3_ratios(run: &mut Run, set: &[Field]) -> Vec<f64> {
    let sz3 = codec_at_abs("sz3");
    set.iter()
        .map(|f| match sz3.compress(&f.data) {
            Ok(c) => f.data.size_in_bytes() as f64 / c.len() as f64,
            Err(e) => {
                run.violation(format!("sz3 compress of {}: {e}", f.name));
                f64::NAN
            }
        })
        .collect()
}

/// MedAPE (%) of `predicted` against `actual` compression ratios.
pub fn medape(run: &mut Run, predicted: &[f64], actual: &[f64]) {
    let apes: Vec<f64> = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs() / a * 100.0)
        .collect();
    run.metric("predict_medape_pct", stats::median(&apes));
    run.note(format!("medape: over {} buffers", apes.len()));
}

/// The PSTF ratio over every series (frame headers and records included).
pub fn stream_ratio(run: &mut Run, series: &[Series]) {
    let raw: usize = series.iter().map(|s| s.raw_bytes).sum();
    let enc: usize = series.iter().map(|s| s.encoded_bytes).sum();
    run.metric("stream_ratio", raw as f64 / enc as f64);
}

/// PSTF encode then decode of every series, chunk by chunk, for `budget`
/// (at least one pass). Returns per-chunk encode and decode times in ms.
pub fn pstf_round_trips(
    run: &mut Run,
    series: &[Series],
    budget: Duration,
) -> (Vec<f64>, Vec<f64>) {
    let (mut enc_ms, mut dec_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        for s in series {
            let mut enc = StreamEncoder::new(Vec::new(), inputs::series_header())
                .expect("valid series header");
            for chunk in &s.chunks {
                let (written, ms) = calib::time(|| enc.write_chunk(chunk));
                let ok = written.is_ok();
                enc_ms.push(ms);
                if !ok {
                    run.violation(format!("PSTF write_chunk failed on {}", s.name));
                }
                run.op("stream_chunk", ok);
            }
            let bytes = enc.finish().expect("an in-memory stream finishes");
            let mut dec = match StreamDecoder::new(std::io::Cursor::new(bytes)) {
                Ok(d) => d,
                Err(e) => {
                    run.violation(format!("PSTF header of {} rejected: {e}", s.name));
                    continue;
                }
            };
            for chunk in &s.chunks {
                let (back, ms) = calib::time(|| dec.next_chunk());
                dec_ms.push(ms);
                let ok = match back {
                    Ok(Some(back)) => check_bound(run, "PSTF", chunk, &back, ABS),
                    other => {
                        run.violation(format!("PSTF decode of {}: {:?}", s.name, other.err()));
                        false
                    }
                };
                run.op("stream_chunk", ok);
            }
            if !matches!(dec.next_chunk(), Ok(None)) {
                run.violation(format!("PSTF stream of {} does not end cleanly", s.name));
            }
        }
        if start.elapsed() >= budget {
            return (enc_ms, dec_ms);
        }
    }
}

const T_TRAIN: usize = 6;
const T_EVAL: usize = 24;
const DIMS: [usize; 3] = [128, 128, 64];

struct Setup {
    eval: Vec<Field>,
    series: Vec<Series>,
    lp: LibPredictor,
    gen_ms: Vec<f64>,
    fit_ms: f64,
    state: Vec<u8>,
}

/// Generate the fields and series, train on a timestep disjoint from the
/// evaluated one, persist the model and load it back.
fn setup(run: &Run, rep: usize) -> Result<Setup, String> {
    let h = inputs::archive(DIMS);
    let mut gen_ms = Vec::new();
    let train_fields = inputs::fields(&h, T_TRAIN, &mut gen_ms);
    // the seed sets the order every phase visits the fields in
    let mut eval = inputs::fields(&h, T_EVAL, &mut gen_ms);
    inputs::shuffle(&mut eval, run.seed);
    let series = inputs::series();
    let mut trained = LibPredictor::untrained();
    let fit_ms = trained.train(&train_fields)?;
    let state = trained.predictor.state().map_err(|e| e.to_string())?;
    let store =
        ModelStore::open(run.dir.join(format!("models-{rep}"))).map_err(|e| e.to_string())?;
    let version = store
        .save("isabel", SCHEME, &state)
        .map_err(|e| format!("store save: {e}"))?;
    let artifact = store
        .load("isabel", Some(version))
        .map_err(|e| format!("store load: {e}"))?;
    let lp = LibPredictor::from_state(&artifact.state)?;
    Ok(Setup {
        eval,
        series,
        lp,
        gen_ms,
        fit_ms,
        state,
    })
}

/// Closed-loop library predicts over `fields` for `budget`; returns the
/// latency samples (nominal ms), the nominal elapsed seconds and the first
/// prediction of each field.
pub fn predict_loop(
    run: &mut Run,
    lp: &LibPredictor,
    fields: &[Field],
    budget: Duration,
) -> (Vec<f64>, f64, Vec<f64>) {
    let mut lat = Vec::new();
    let mut first = vec![f64::NAN; fields.len()];
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget {
        let k = i % fields.len();
        let (p, ms) = calib::time(|| lp.predict(&fields[k].data));
        lat.push(ms);
        match p {
            Ok(v) if v.is_finite() => {
                if first[k].is_nan() {
                    first[k] = v;
                } else if first[k] != v {
                    run.violation(format!(
                        "library predict of {} is not repeatable",
                        fields[k].name
                    ));
                }
                run.op("predict", true);
            }
            other => {
                run.violation(format!("library predict of {}: {other:?}", fields[k].name));
                run.op("predict", false);
            }
        }
        i += 1;
    }
    (lat, calib::nominal_secs(start, Instant::now()), first)
}

pub fn run(run: &mut Run) -> Result<usize, String> {
    let reps = if run.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut s = None;
    for rep in 0..reps {
        calib::factor();
        let t = Instant::now();
        s = Some(setup(run, rep)?);
        calib::factor();
        setup_s.push(calib::nominal_secs(t, Instant::now()));
    }
    let s = s.expect("at least one set-up");
    let working_set: usize = s.eval.iter().map(|f| f.data.size_in_bytes()).sum();
    run.note(format!(
        "setup: {} fields x {:?} f32 evaluated (timestep {T_EVAL}), trained on timestep {T_TRAIN}, \
         {reps} set-ups {:?} s",
        s.eval.len(),
        DIMS,
        setup_s
    ));
    if run.trace {
        return layers::library(
            run,
            &s.eval,
            &s.series,
            &s.lp,
            &s.state,
            layers::SetupTimes {
                generate_ms: stats::median(&s.gen_ms),
                fit_ms: s.fit_ms,
            },
        )
        .map(|_| working_set);
    }
    run.metric("setup_s", stats::median(&setup_s));

    let (lat, secs, first) = predict_loop(run, &s.lp, &s.eval, run.budget(0.3));
    predict_metrics(run, &lat, secs)?;
    let (enc, dec) = pstf_round_trips(run, &s.series, run.budget(0.1));
    let round: Vec<f64> = enc.iter().zip(&dec).map(|(e, d)| e + d).collect();
    run.metric("stream_chunk_p50_ms", stats::median(&round));
    stream_ratio(run, &s.series);
    let ratios = codec_phase(run, &s.eval, run.budget(0.6));
    medape(run, &first, &ratios);
    Ok(working_set)
}

/// `predict_p50_ms`, `predict_p90_ms` (which must have at least ten
/// samples beyond it) and `predict_rps` (completed predicts per nominal
/// second; failed ones are infinite latencies).
pub fn predict_metrics(run: &mut Run, lat: &[f64], secs: f64) -> Result<(), String> {
    let p90 = stats::tail_percentile(lat, 90.0).ok_or_else(|| {
        format!(
            "p90 needs {} samples beyond it; {} predicts leave {}",
            stats::MIN_BEYOND_TAIL,
            lat.len(),
            stats::beyond(lat.len(), 90.0)
        )
    })?;
    run.metric("predict_p50_ms", stats::median(lat));
    run.metric("predict_p90_ms", p90);
    let done = lat.iter().filter(|l| l.is_finite()).count();
    run.metric("predict_rps", done as f64 / secs);
    let q = stats::quartiles(lat).unwrap_or([f64::NAN; 3]);
    let p99 = stats::tail_percentile(lat, 99.0)
        .map_or("not supported".to_string(), |v| format!("{v:.3} ms"));
    run.note(format!(
        "predict: {} samples over {secs:.2} nominal s, quartiles {:.3}/{:.3}/{:.3} ms, \
         p90 with {} beyond, p99 {p99}",
        lat.len(),
        q[0],
        q[1],
        q[2],
        stats::beyond(lat.len(), 90.0)
    ));
    Ok(())
}
