//! The traced run: the workload's traffic with the program's own
//! `pressio-obs` tracing on, plus timed calls into each layer's public
//! functions made from here, on the workload's own buffers. No span is
//! added to the program.

use crate::daemon::{self, Daemon};
use crate::inputs::{Field, Series, ABS};
use crate::library::{self, LibPredictor};
use crate::serve::{self, ServeSetup, PREDICT_MODEL};
use crate::{calib, inputs, stats, Run, Workload};
use pressio_core::{Compressor, Options};
use pressio_lossless::{huffman, lzss};
use pressio_predict::standard_compressors;
use pressio_select::SelectCodec;
use pressio_serve::{protocol, Client, ModelStore, SessionJournal};
use pressio_stream::StreamEncoder;
use pressio_sz::{codec, SzCompressor};
use pressio_zfp::ZfpCompressor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times taken during set-up, reported as layer metrics.
pub struct SetupTimes {
    pub generate_ms: f64,
    pub fit_ms: f64,
}

/// Repetitions of each timed layer call per buffer.
const REPS: usize = 3;

/// Median over `REPS` calls of `f`, in nominal ms.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut s = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (out, ms) = calib::time(&mut f);
        black_box(out);
        s.push(ms);
    }
    stats::median(&s)
}

/// One report row: layer metric, its value, the share of `parent` (a p50
/// the layer sits under) when given, and how many buffers it was timed on.
fn row(run: &mut Run, name: &'static str, value: f64, parent: Option<(&str, f64)>, n: usize) {
    run.metric(name, value);
    let share = parent.map_or(String::new(), |(p, v)| {
        format!("{:.1}% of {p}", value / v * 100.0)
    });
    run.note(format!("| {name} | {value:.4} | {share} | {n} |"));
}

/// Request-path layers of a served predict, replayed on `set`. Returns
/// the per-request self time (ms) of the layers every request pays
/// (encode, decode, hash) and of those only a prediction-cache miss pays
/// (features and inference).
fn request_layers(run: &mut Run, set: &[Field], lp: &LibPredictor, p50: f64) -> (f64, f64) {
    let extra = Options::new()
        .with("serve:compressor", "sz3")
        .with("pressio:abs", ABS);
    let (mut enc, mut dec, mut hash, mut agn, mut dep, mut inf) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut wire, mut raw) = (0usize, 0usize);
    for f in set {
        let frame = protocol::frame_bytes(&Client::predict_request(PREDICT_MODEL, &f.data, &extra))
            .expect("request frames");
        wire += frame.len();
        raw += f.data.size_in_bytes();
        enc.push(time_ms(|| {
            protocol::frame_bytes(&Client::predict_request(PREDICT_MODEL, &f.data, &extra))
        }));
        dec.push(time_ms(|| {
            let req = protocol::read_frame(&mut std::io::Cursor::new(&frame))
                .expect("frame decodes")
                .expect("one frame");
            protocol::data_from_request(&req).expect("request carries data")
        }));
        let req = Client::predict_request(PREDICT_MODEL, &f.data, &extra);
        hash.push(time_ms(|| protocol::data_content_hash(&req)));
        agn.push(time_ms(|| lp.scheme.error_agnostic_features(&f.data)));
        dep.push(time_ms(|| {
            lp.scheme
                .error_dependent_features(&f.data, lp.comp.as_ref())
        }));
        let features = lp.features(&f.data).expect("features");
        inf.push(time_ms(|| lp.predictor.predict(&features)));
    }
    let n = set.len();
    let parent = Some(("predict p50", p50));
    let every = [&enc, &dec, &hash]
        .map(|s| stats::median(s))
        .iter()
        .sum::<f64>();
    let miss = [&agn, &dep, &inf]
        .map(|s| stats::median(s))
        .iter()
        .sum::<f64>();
    row(run, "protocol.encode_ms", stats::median(&enc), parent, n);
    row(run, "protocol.decode_ms", stats::median(&dec), parent, n);
    row(
        run,
        "protocol.content_hash_ms",
        stats::median(&hash),
        parent,
        n,
    );
    row(
        run,
        "protocol.wire_bytes_per_raw_byte",
        wire as f64 / raw as f64,
        None,
        n,
    );
    row(run, "features.agnostic_ms", stats::median(&agn), parent, n);
    row(run, "features.dependent_ms", stats::median(&dep), parent, n);
    row(
        run,
        "predictor.predict_us",
        stats::median(&inf) * 1e3,
        None,
        n,
    );
    (every, miss)
}

/// Codec stages of sz3 (predictor selection → predict/quantize → Huffman →
/// LZSS, and parse → reconstruct), zfp, and the select meta-codec.
fn codec_layers(run: &mut Run, set: &[Field]) {
    let opts = Options::new()
        .with("pressio:abs", ABS)
        .with("pressio:nthreads", 1u64);
    let mut sz = SzCompressor::new();
    sz.set_options(&opts).expect("valid sz3 options");
    let mut zfp = ZfpCompressor::new();
    zfp.set_options(&opts).expect("valid zfp options");
    let select = SelectCodec::new();
    let mut t: [Vec<f64>; 16] = Default::default();
    let (mut lzss_wins, mut zfp_bits, mut values) = (0usize, 0usize, 0usize);
    let mut regret = Vec::new();
    for f in set {
        let (dtype, dims) = (f.data.dtype(), f.data.dims().to_vec());
        let packed = sz.compress(&f.data).expect("sz3 compresses");
        let parsed = codec::parse_par(&packed, 1).expect("sz3 stream parses");
        let mut fixed = sz.clone();
        fixed
            .set_options(&Options::new().with("sz3:predictor", parsed.predictor.name()))
            .expect("valid predictor");
        let auto_ms = time_ms(|| sz.compress(&f.data));
        let fixed_ms = time_ms(|| fixed.compress(&f.data));
        t[0].push(auto_ms);
        t[1].push(auto_ms - fixed_ms);
        let values64 = f.data.to_f64_vec();
        let pq = |_: ()| {
            codec::predict_and_quantize_par(
                &values64,
                &dims,
                ABS,
                parsed.predictor,
                pressio_sz::regression::DEFAULT_BLOCK,
                true,
                1,
            )
        };
        t[2].push(time_ms(|| pq(())));
        let qs = pq(());
        let huff = huffman::compress_symbols_sharded(&qs.symbols, 1);
        t[3].push(time_ms(|| {
            huffman::compress_symbols_sharded(&qs.symbols, 1)
        }));
        t[4].push(time_ms(|| huffman::decompress_symbols_sharded(&huff, 1)));
        let dict = lzss::compress(&huff);
        lzss_wins += usize::from(dict.len() < huff.len());
        t[5].push(time_ms(|| lzss::compress(&huff)));
        t[6].push(time_ms(|| lzss::decompress(&dict)));
        t[7].push(time_ms(|| sz.decompress(&packed, dtype, &dims)));
        t[8].push(time_ms(|| codec::parse_par(&packed, 1)));
        t[9].push(time_ms(|| codec::reconstruct_par(&parsed, 1)));
        let zpacked = zfp.compress(&f.data).expect("zfp compresses");
        zfp_bits += zpacked.len() * 8;
        values += f.data.num_elements();
        t[10].push(time_ms(|| zfp.compress(&f.data)));
        t[11].push(time_ms(|| zfp.decompress(&zpacked, dtype, &dims)));
        let decision = select.decide(&f.data);
        t[12].push(time_ms(|| select.decide(&f.data)));
        let mut winner = standard_compressors()
            .build(&decision.codec)
            .expect("codec");
        winner
            .set_options(&opts.clone().with("pressio:abs", decision.abs))
            .expect("winner options");
        t[13].push(time_ms(|| winner.compress(&f.data)));
        let achieved = winner.compress(&f.data).expect("winner compresses").len();
        let range = pressio_select::value_range(&f.data);
        let mut best = usize::MAX;
        for id in pressio_select::CODECS {
            for abs in select.policy().feasible_bounds(range) {
                let mut c = standard_compressors().build(id).expect("codec");
                c.set_options(&opts.clone().with("pressio:abs", abs))
                    .expect("options");
                best = best.min(c.compress(&f.data).expect("oracle compresses").len());
            }
        }
        // ratio regret: 1 - (raw/achieved)/(raw/best)
        regret.push((1.0 - best as f64 / achieved as f64) * 100.0);
    }
    let n = set.len();
    let m = |i: usize| stats::median(&t[i]);
    let enc_parent = Some(("sz3 compress", m(0)));
    let dec_parent = Some(("sz3 decompress", m(7)));
    row(run, "sz.predictor_select_ms", m(1), enc_parent, n);
    row(run, "sz.predict_quantize_ms", m(2), enc_parent, n);
    row(run, "huffman.encode_ms", m(3), enc_parent, n);
    row(run, "lzss.encode_ms", m(5), enc_parent, n);
    row(run, "sz.parse_ms", m(8), dec_parent, n);
    row(run, "huffman.decode_ms", m(4), dec_parent, n);
    row(run, "lzss.decode_ms", m(6), dec_parent, n);
    row(run, "sz.reconstruct_ms", m(9), dec_parent, n);
    row(run, "lzss.win_ratio", lzss_wins as f64 / n as f64, None, n);
    row(run, "zfp.encode_ms", m(10), None, n);
    row(run, "zfp.decode_ms", m(11), None, n);
    let zsum = |i: usize| t[i].iter().sum::<f64>();
    row(run, "zfp.decode_over_encode", zsum(11) / zsum(10), None, n);
    row(
        run,
        "zfp.bits_per_value",
        zfp_bits as f64 / values as f64,
        None,
        n,
    );
    row(run, "select.decide_ms", m(12), None, n);
    row(run, "select.winner_ms", m(13), None, n);
    row(
        run,
        "select.regret_pct",
        regret.iter().sum::<f64>() / n as f64,
        None,
        n,
    );
}

/// PSTF chunk encode/decode, expanded chunks, and journal appends of the
/// run's own chunk records, on the run's filesystem.
fn stream_layers(run: &mut Run, series: &[Series], lp: &LibPredictor) -> Result<(), String> {
    let (enc, dec) = library::pstf_round_trips(run, series, Duration::ZERO);
    let mut expanded = 0usize;
    for s in series {
        let mut e = StreamEncoder::new(Vec::new(), inputs::series_header()).expect("header");
        for c in &s.chunks {
            let rec = e.write_chunk(c).expect("chunk encodes");
            expanded += usize::from(rec.comp_len > rec.raw_len);
        }
    }
    let chunks = enc.len();
    row(
        run,
        "stream.encode_chunk_ms",
        stats::median(&enc),
        None,
        chunks,
    );
    row(
        run,
        "stream.decode_chunk_ms",
        stats::median(&dec),
        None,
        chunks,
    );
    row(run, "stream.expanded_chunks", expanded as f64, None, chunks);
    let journal =
        SessionJournal::open(&run.dir.join("journal-replay")).map_err(|e| e.to_string())?;
    let mut append = Vec::new();
    for s in series {
        journal.reset(&s.name).map_err(|e| e.to_string())?;
        for (seq, c) in s.chunks.iter().enumerate() {
            let features = lp.features(c).map_err(|e| e.to_string())?;
            let record = Options::new()
                .with("j:type", "chunk")
                .with("j:seq", seq as u64 + 1)
                .with("j:prediction", s.actual[seq])
                .with("j:model", "stream@1")
                .with("j:observed", true)
                .with("j:features", features.to_json().map_err(|e| e.to_string())?)
                .with("j:actual", s.actual[seq]);
            let (done, ms) = calib::time(|| journal.append(&s.name, &record));
            done.map_err(|e| e.to_string())?;
            append.push(ms);
        }
        journal.remove(&s.name).map_err(|e| e.to_string())?;
    }
    row(
        run,
        "journal.append_ms",
        stats::median(&append),
        None,
        append.len(),
    );
    Ok(())
}

/// Model store save and load of `state`, `REPS` times each.
fn store_layers(run: &mut Run, state: &[u8]) -> Result<(), String> {
    let store = ModelStore::open(run.dir.join("store-replay")).map_err(|e| e.to_string())?;
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (saved, ms) = calib::time(|| store.save("replay", library::SCHEME, state));
        let v = saved.map_err(|e| e.to_string())?;
        save.push(ms);
        let (loaded, ms) = calib::time(|| store.load("replay", Some(v)));
        loaded.map_err(|e| e.to_string())?;
        load.push(ms);
    }
    row(run, "store.save_ms", stats::median(&save), None, REPS);
    row(run, "store.load_ms", stats::median(&load), None, REPS);
    Ok(())
}

fn header(run: &mut Run, title: String) {
    run.note(format!(
        "### {} traced-run layers: {title}",
        run.workload.name()
    ));
    run.note("| layer metric | self p50 | share | buffers |".into());
    run.note("|---|---|---|---|".into());
}

const SERVE_ONLY: &[&str] = &[
    "protocol.encode_ms",
    "protocol.decode_ms",
    "protocol.content_hash_ms",
    "protocol.wire_bytes_per_raw_byte",
    "cache.prediction_hit_ratio",
    "cache.feature_hit_ratio",
    "cache.evictions",
    "pipeline.coalesced",
    "pipeline.queue_depth_max",
    "server.features_computed_per_miss",
    "stream.refits",
    "stream.observed_per_sent",
    "sender.retries",
    "sender.replays",
    "sender.resumes",
    "serve.p50_ms",
    "serve.traced_p50_ms",
    "serve.unattributed_ms",
];

/// The library workload's traced run: predicts alternate between tracing
/// on and off (the overhead), then every layer is timed on the fields.
pub fn library(
    run: &mut Run,
    eval: &[Field],
    series: &[Series],
    lp: &LibPredictor,
    state: &[u8],
    times: SetupTimes,
) -> Result<(), String> {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let block = Duration::from_millis(250);
    while start.elapsed() < run.budget(0.4) {
        off.extend(library::predict_loop(run, lp, eval, block).0);
        pressio_obs::install(std::sync::Arc::new(pressio_obs::Collector::new()));
        on.extend(library::predict_loop(run, lp, eval, block).0);
        let _ = pressio_obs::uninstall();
    }
    let (p_off, p_on) = (stats::median(&off), stats::median(&on));
    header(
        run,
        format!("library predict p50 {p_off:.3} ms untraced, {p_on:.3} ms traced"),
    );
    for name in SERVE_ONLY {
        run.metric(name, 0.0);
    }
    run.metric("obs.trace_overhead_pct", (p_on / p_off - 1.0) * 100.0);
    let parent = Some(("predict p50", p_off));
    let (mut agn, mut dep, mut inf) = (vec![], vec![], vec![]);
    for f in eval {
        agn.push(time_ms(|| lp.scheme.error_agnostic_features(&f.data)));
        dep.push(time_ms(|| {
            lp.scheme
                .error_dependent_features(&f.data, lp.comp.as_ref())
        }));
        let features = lp.features(&f.data).map_err(|e| e.to_string())?;
        inf.push(time_ms(|| lp.predictor.predict(&features)));
    }
    row(
        run,
        "features.agnostic_ms",
        stats::median(&agn),
        parent,
        eval.len(),
    );
    row(
        run,
        "features.dependent_ms",
        stats::median(&dep),
        parent,
        eval.len(),
    );
    row(
        run,
        "predictor.predict_us",
        stats::median(&inf) * 1e3,
        None,
        eval.len(),
    );
    row(run, "predictor.fit_ms", times.fit_ms, None, 1);
    row(
        run,
        "dataset.generate_ms",
        times.generate_ms,
        None,
        2 * eval.len(),
    );
    store_layers(run, state)?;
    stream_layers(run, series, lp)?;
    codec_layers(run, eval);
    run.note(format!(
        "obs.trace_overhead_pct = {:.2} over {} + {} predicts",
        (p_on / p_off - 1.0) * 100.0,
        off.len(),
        on.len()
    ));
    Ok(())
}

/// The serve workloads' traced run: the workload's traffic against a
/// second daemon started with `--trace` (its counters and queue-depth
/// gauge), predicts alternating between the untraced and traced daemons
/// (the overhead and the p50 the layers must account for), then each
/// request-path and codec layer timed on the workload's buffers.
pub fn serve(run: &mut Run, s: &ServeSetup) -> Result<(), String> {
    let traced = Daemon::start(&run.bin, &run.dir, "traced", &s.models, true)?;
    let mut warm = traced.client()?;
    for f in &s.inputs.work {
        serve::predict(&mut warm, &f.data).map_err(|e| format!("warming traced daemon: {e}"))?;
    }
    drop(warm);
    let mut reference = serve::Reference::new(&s.models)?;
    let before = traced.stats()?;
    let mut m = serve::mix(
        run.workload,
        run.seed,
        &traced.endpoint,
        &s.inputs,
        run.budget(0.35),
        1_000_000,
    )?;
    if run.workload == Workload::LargeCold {
        let tag = format!("traced-{}", run.seed);
        m.stream = serve::stream_phase(&traced.endpoint, &s.inputs, run.budget(0.1), &tag);
    }
    let after = traced.stats()?;
    serve::account(run, &s.inputs, &mut reference, &m)?;

    // paired overhead: the same buffers, alternately untraced and traced
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut clients = [s.daemon.client()?, traced.client()?];
    let alt = serve::mix_picker(run.workload, run.seed, &s.inputs, 2_000_000);
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < run.budget(0.25) {
        let buf = alt(i);
        for (side, client) in clients.iter_mut().enumerate() {
            let sample = serve::timed_predict(client, &s.inputs, buf);
            if sample.outcome.is_ok() {
                [&mut off, &mut on][side].push(sample.ms);
            }
        }
        i += 1;
    }
    drop(clients);
    let trace_file = traced.trace_file.clone();
    traced.stop()?;
    let (p_off, p_on) = (stats::median(&off), stats::median(&on));

    let d = |key: &str| daemon::counter(&after, key) - daemon::counter(&before, key);
    let hits = d("serve:prediction_cache.hits");
    let misses = d("serve:prediction_cache.misses");
    let hit_ratio = hits / (hits + misses).max(1.0);
    header(
        run,
        format!(
            "predict p50 {p_off:.3} ms untraced, {p_on:.3} ms traced, over {} pairs",
            off.len()
        ),
    );
    let (every, miss) = request_layers(run, &s.inputs.codec_set, reference.get(1)?, p_off);
    let unattributed = p_off - every - (1.0 - hit_ratio) * miss;
    row(run, "serve.p50_ms", p_off, None, off.len());
    row(run, "serve.traced_p50_ms", p_on, None, on.len());
    row(
        run,
        "serve.unattributed_ms",
        unattributed,
        Some(("predict p50", p_off)),
        off.len(),
    );
    run.metric("obs.trace_overhead_pct", (p_on / p_off - 1.0) * 100.0);
    row(
        run,
        "cache.prediction_hit_ratio",
        hit_ratio,
        None,
        (hits + misses) as usize,
    );
    let fh = d("serve:feature_cache.hits");
    let fm = d("serve:feature_cache.misses");
    row(
        run,
        "cache.feature_hit_ratio",
        fh / (fh + fm).max(1.0),
        None,
        (fh + fm) as usize,
    );
    let ev = d("serve:prediction_cache.evictions") + d("serve:feature_cache.evictions");
    row(run, "cache.evictions", ev, None, 1);
    row(run, "pipeline.coalesced", d("serve:coalesced"), None, 1);
    let depth = trace_file.map_or(0.0, |f| daemon::gauge_max(&f, "serve:queue.depth"));
    row(run, "pipeline.queue_depth_max", depth, None, 1);
    // every stream chunk also computes its two feature groups
    // (`handle_stream_chunk`); only predict misses are wanted here
    let computed = d("serve:features.computed") - 2.0 * d("serve:stream.chunks");
    row(
        run,
        "server.features_computed_per_miss",
        computed / misses.max(1.0),
        None,
        misses as usize,
    );
    row(
        run,
        "stream.refits",
        d("serve:online.refits"),
        None,
        m.stream.sessions as usize,
    );
    let sent = m.stream.sent.max(1) as f64;
    row(
        run,
        "stream.observed_per_sent",
        d("serve:stream.observed") / sent,
        None,
        m.stream.sent as usize,
    );
    row(
        run,
        "sender.retries",
        m.stream.retries as f64,
        None,
        m.stream.sessions as usize,
    );
    row(
        run,
        "sender.replays",
        m.stream.replays as f64,
        None,
        m.stream.sessions as usize,
    );
    row(
        run,
        "sender.resumes",
        m.stream.resumes as f64,
        None,
        m.stream.sessions as usize,
    );
    row(run, "predictor.fit_ms", s.fit_ms, None, 1);
    row(
        run,
        "dataset.generate_ms",
        stats::median(&s.inputs.gen_ms),
        None,
        s.inputs.gen_ms.len(),
    );
    let state = ModelStore::open(&s.models)
        .and_then(|st| st.load(PREDICT_MODEL, Some(1)))
        .map_err(|e| e.to_string())?
        .state;
    store_layers(run, &state)?;
    stream_layers(run, &s.inputs.series, reference.get(1)?)?;
    codec_layers(run, &s.inputs.codec_set);
    Ok(())
}
