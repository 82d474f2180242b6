//! Wire protocol: length-prefixed JSON frames carrying [`Options`].
//!
//! Every message — request or response — is one [`Options`] structure
//! serialized to JSON and framed as a 4-byte big-endian length followed by
//! the UTF-8 payload. Reusing `Options` as the envelope keeps the protocol
//! self-describing the same way every other LibPressio object is: no
//! schema negotiation, unknown keys are ignored, and the existing
//! `to_json`/`from_json` round trip is the codec.
//!
//! Requests carry a `serve:op` key naming the operation; responses carry a
//! `serve:type` key (`prediction`, `trained`, `stats`, `pong`, `bye`,
//! `slept`, `models`, or `error`). Errors additionally carry `serve:code`
//! — notably `overloaded` (bounded queue full; retry later) and
//! `deadline_exceeded` (the request waited past its deadline).

use pressio_core::error::{Error, Result};
use pressio_core::Options;
use std::io::{Read, Write};

/// Largest accepted frame (64 MiB): bounds per-connection memory so a
/// malformed length prefix cannot trigger an unbounded allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Request operations (`serve:op` values).
pub mod op {
    /// Liveness check; responds `pong`.
    pub const PING: &str = "ping";
    /// Train a predictor on synthetic data, persist it, and hot-load it.
    pub const TRAIN: &str = "train";
    /// Load a persisted model into the hot catalog without predicting.
    pub const LOAD: &str = "load";
    /// Predict compression performance for an inline data buffer.
    pub const PREDICT: &str = "predict";
    /// Cache/queue/model statistics.
    pub const STATS: &str = "stats";
    /// List persisted models and versions.
    pub const MODELS: &str = "models";
    /// Graceful shutdown: drain in-flight requests, then exit.
    pub const SHUTDOWN: &str = "shutdown";
    /// Occupy a pipeline worker for `serve:ms` milliseconds (testing and
    /// backpressure demonstrations).
    pub const SLEEP: &str = "sleep";
    /// Describe the shard topology (multi-shard deployments): shard
    /// endpoints plus a generation counter that bumps on every restart.
    pub const TOPOLOGY: &str = "topology";
    /// Re-resolve models against the store and invalidate anything cached
    /// under a superseded version. Broadcast by the supervisor after a
    /// train so every shard picks the new version up immediately.
    pub const RELOAD: &str = "reload";
    /// Open a streaming prediction session (`stream:id`, scheme/model,
    /// compressor knobs). Chunks then flow through [`STREAM_CHUNK`].
    pub const STREAM_BEGIN: &str = "stream.begin";
    /// Predict for one chunk of an open stream; may carry the observed
    /// outcome (`stream:actual`) to drive online model refinement.
    pub const STREAM_CHUNK: &str = "stream.chunk";
    /// Close a streaming session and report its summary.
    pub const STREAM_END: &str = "stream.end";
    /// Rehydrate a streaming session after a disconnect or crash:
    /// `stream:id` + `stream:token` (echoed from `stream.begun`) +
    /// `stream:acked` (the client's last-acked chunk offset). The server
    /// answers `stream.resumed` with its authoritative acked offset; the
    /// client replays chunks from there, and replays of already-acked
    /// chunks are idempotent (cached prediction, no duplicate learner
    /// observation).
    pub const STREAM_RESUME: &str = "stream.resume";
}

/// Error codes (`serve:code` values on `serve:type = "error"` responses).
pub mod code {
    /// The bounded request queue is full; the request was rejected
    /// immediately instead of queueing unboundedly.
    pub const OVERLOADED: &str = "overloaded";
    /// The request sat past its deadline before a worker reached it.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The request was missing or had malformed fields.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The referenced model/scheme does not exist.
    pub const NOT_FOUND: &str = "not_found";
    /// The server failed internally while processing.
    pub const INTERNAL: &str = "internal";
}

/// Whether an error code marks a *transient* condition a client should
/// retry (with backoff) versus a fatal one where retrying is useless:
/// `overloaded` and `deadline_exceeded` pass — the server was healthy but
/// busy; `bad_request`/`not_found`/`internal` fail — resending the same
/// request reproduces the same answer.
pub fn is_retryable_code(error_code: &str) -> bool {
    matches!(error_code, code::OVERLOADED | code::DEADLINE_EXCEEDED)
}

/// Whether a response is an error a client should retry.
pub fn is_retryable(resp: &Options) -> bool {
    resp.get_str_opt("serve:type").ok().flatten() == Some("error")
        && resp
            .get_str_opt("serve:code")
            .ok()
            .flatten()
            .is_some_and(is_retryable_code)
}

/// Whether a client-side error is transport-class (dropped connection,
/// torn frame): the connection is in an unknown state, possibly
/// mid-frame, and must be re-established before a resend.
pub fn is_transport(err: &Error) -> bool {
    matches!(err, Error::Io(_) | Error::CorruptStream(_))
}

/// Serialize one frame (length prefix + JSON payload) without writing it.
pub fn frame_bytes(msg: &Options) -> Result<Vec<u8>> {
    let json = msg.to_json()?;
    let bytes = json.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(Error::Serialization(format!(
            "frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})",
            bytes.len()
        )));
    }
    // one contiguous buffer: a separate 4-byte prefix write would interact
    // with Nagle + delayed ACK on TCP, stalling every frame ~40 ms
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Write one frame: 4-byte big-endian length, then the JSON payload.
pub fn write_frame(w: &mut impl Write, msg: &Options) -> Result<()> {
    w.write_all(&frame_bytes(msg)?)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame boundary
/// (the peer closed the connection); a mid-frame EOF is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Options>> {
    read_frame_capped(r, MAX_FRAME)
}

/// [`read_frame`] with a configurable declared-length cap: the length
/// prefix is checked against `max_frame` *before* the payload buffer is
/// allocated, so a hostile prefix can never force an allocation larger
/// than the deployment's configured bound (`--max-frame-mb`). `max_frame`
/// is itself clamped to the protocol-wide [`MAX_FRAME`].
pub fn read_frame_capped(r: &mut impl Read, max_frame: usize) -> Result<Option<Options>> {
    let max_frame = max_frame.min(MAX_FRAME);
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean close between frames
            }
            return Err(Error::Io("connection closed mid-frame header".into()));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(Error::CorruptStream(format!(
            "frame length {len} exceeds the frame cap ({max_frame})"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| Error::Io(format!("reading {len}-byte frame body: {e}")))?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| Error::CorruptStream(format!("frame is not UTF-8: {e}")))?;
    Options::from_json(text).map(Some)
}

/// Build an error response.
pub fn error_response(error_code: &str, message: impl Into<String>) -> Options {
    Options::new()
        .with("serve:type", "error")
        .with("serve:code", error_code)
        .with("serve:message", message.into())
}

/// Whether a response is an error with the given code.
pub fn is_error(resp: &Options, error_code: &str) -> bool {
    resp.get_str_opt("serve:type").ok().flatten() == Some("error")
        && resp.get_str_opt("serve:code").ok().flatten() == Some(error_code)
}

/// Embed a data buffer into a request (`data:bytes`/`data:dims`/
/// `data:dtype`), the inverse of [`data_from_request`].
pub fn data_into_request(req: &mut Options, data: &pressio_core::Data) {
    req.set("data:bytes", data.to_le_bytes());
    req.set(
        "data:dims",
        data.dims().iter().map(|&d| d as u64).collect::<Vec<u64>>(),
    );
    req.set("data:dtype", data.dtype().name());
}

/// Stable content hash of the data buffer embedded in a request (dtype +
/// dims + raw bytes). This is the routing AND cache key root: identical
/// buffers sent by different clients share cache entries, and the
/// supervisor/sharded client route on the same hash the shard caches are
/// keyed by, so every buffer has exactly one home shard whose LRU stays
/// hot for it.
pub fn data_content_hash(req: &Options) -> Result<String> {
    use pressio_core::hash::{to_hex, Sha256};
    let bytes = req.get_bytes("data:bytes")?;
    let dims = req.get_u64_slice("data:dims")?;
    let dtype = req.get_str("data:dtype")?;
    let mut h = Sha256::new();
    h.update(dtype.as_bytes());
    for d in dims {
        h.update(&d.to_le_bytes());
    }
    h.update(bytes);
    Ok(to_hex(&h.finalize()))
}

/// Reconstruct the data buffer embedded in a request.
pub fn data_from_request(req: &Options) -> Result<pressio_core::Data> {
    let bytes = req.get_bytes("data:bytes")?;
    let dims: Vec<usize> = req
        .get_u64_slice("data:dims")?
        .iter()
        .map(|&d| d as usize)
        .collect();
    let dtype = pressio_core::Dtype::parse(req.get_str("data:dtype")?)?;
    pressio_core::Data::from_le_bytes(dtype, dims, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;

    #[test]
    fn frames_round_trip() {
        let msg = Options::new()
            .with("serve:op", op::PREDICT)
            .with("pressio:abs", 1e-4)
            .with("data:bytes", vec![0u8, 1, 255]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, msg);
        // the next read sees a clean EOF
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn torn_frame_is_an_error_not_a_hang() {
        let msg = Options::new().with("serve:op", op::PING);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        buf.truncate(buf.len() - 2); // mid-body close
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
        // mid-header close
        let mut short = Vec::new();
        write_frame(&mut short, &msg).unwrap();
        short.truncate(2);
        assert!(read_frame(&mut std::io::Cursor::new(short)).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn configured_frame_cap_rejects_before_the_protocol_ceiling() {
        // a frame comfortably under MAX_FRAME but over the deployment cap:
        // the declared length alone must reject it — the body is two bytes,
        // so any attempt to read/allocate the declared size would fail loud
        let mut buf = (1_000_000u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let err = read_frame_capped(&mut std::io::Cursor::new(buf.clone()), 64 << 10)
            .expect_err("cap must reject the declared length");
        assert!(
            matches!(err, Error::CorruptStream(ref m) if m.contains("frame cap")),
            "unexpected error: {err:?}"
        );
        // same bytes pass the default ceiling far enough to hit the torn body
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)),
            Err(Error::Io(_))
        ));

        // a frame under the cap still round-trips
        let msg = Options::new().with("serve:op", op::PING);
        let mut small = Vec::new();
        write_frame(&mut small, &msg).unwrap();
        let back = read_frame_capped(&mut std::io::Cursor::new(small), 64 << 10)
            .unwrap()
            .unwrap();
        assert_eq!(back, msg);

        // the cap clamps to the protocol-wide MAX_FRAME
        let mut huge = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        huge.extend_from_slice(b"xx");
        assert!(read_frame_capped(&mut std::io::Cursor::new(huge), usize::MAX).is_err());
    }

    #[test]
    fn data_embedding_round_trips() {
        let data = Data::from_f32(vec![4, 3], (0..12).map(|i| i as f32 * 0.5).collect());
        let mut req = Options::new().with("serve:op", op::PREDICT);
        data_into_request(&mut req, &data);
        let back = data_from_request(&req).unwrap();
        assert_eq!(back.dims(), data.dims());
        assert_eq!(back.dtype(), data.dtype());
        assert_eq!(back.to_f64_vec(), data.to_f64_vec());
    }

    #[test]
    fn error_helpers_agree() {
        let resp = error_response(code::OVERLOADED, "queue full");
        assert!(is_error(&resp, code::OVERLOADED));
        assert!(!is_error(&resp, code::NOT_FOUND));
        assert!(!is_error(&Options::new(), code::OVERLOADED));
    }

    #[test]
    fn retryable_classification_separates_transient_from_fatal() {
        for c in [code::OVERLOADED, code::DEADLINE_EXCEEDED] {
            assert!(is_retryable_code(c), "{c}");
            assert!(is_retryable(&error_response(c, "busy")));
        }
        for c in [code::BAD_REQUEST, code::NOT_FOUND, code::INTERNAL] {
            assert!(!is_retryable_code(c), "{c}");
            assert!(!is_retryable(&error_response(c, "broken")));
        }
        // non-error responses are never "retryable"
        assert!(!is_retryable(&Options::new().with("serve:type", "pong")));
        assert!(is_transport(&Error::Io("reset".into())));
        assert!(is_transport(&Error::CorruptStream("torn".into())));
        assert!(!is_transport(&Error::TaskFailed("refused".into())));
    }
}
