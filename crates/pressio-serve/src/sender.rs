//! A reconnecting, resuming stream client.
//!
//! [`ResilientStreamSender`] wraps the bare `stream.begin` /
//! `stream.chunk` / `stream.end` calls the way [`crate::Client::
//! call_resilient`] wraps `query`: transient server errors (`overloaded`,
//! `deadline_exceeded`) retry in place, and transport failures (dropped
//! connection, torn frame, daemon crash) reconnect, `stream.resume` the
//! session with its token, and replay from the server's authoritative
//! acked chunk offset — every retry, reconnect and resume spending one
//! [`Retry`] budget per operation, with deterministic seeded backoff.
//!
//! The sender mints the session token itself and passes it to
//! `stream.begin`, so even a begin whose response is lost in a crash
//! window stays resumable. Progress tracking is explicit: the caller
//! drives a loop over [`ResilientStreamSender::next_seq`], which rewinds
//! when a resume reveals the server acked less than the client had sent
//! (e.g. a torn journal tail) — re-sent chunks at or below the server's
//! acked offset are answered idempotently from the outcome cache, so the
//! online learner sees every chunk exactly once no matter how many times
//! the stream is replayed.

use crate::client::{Client, RetryPolicy};
use crate::net::Endpoint;
use crate::protocol::{self, code, op};
use pressio_core::error::{Error, Result};
use pressio_core::{Data, Options};
use pressio_faults::Retry;

/// A stream sender that survives disconnects, daemon crashes, and
/// transient overload. See the module docs for the protocol walkthrough.
pub struct ResilientStreamSender {
    endpoint: Endpoint,
    policy: RetryPolicy,
    stream_id: String,
    token: String,
    client: Option<Client>,
    /// Highest chunk seq whose response this sender has delivered to the
    /// caller. `next_seq` is `progress + 1`; a resume may rewind it.
    progress: u64,
    begun: bool,
    /// Whether the transport failed since the last successful call — the
    /// next call must reconnect and resume before sending.
    need_resume: bool,
    resumes: u64,
    replays: u64,
    retries: u64,
}

impl ResilientStreamSender {
    /// A sender for `stream_id` against `endpoint`. The session token is
    /// minted here, client-side, so the session is resumable even when
    /// the `stream.begun` response is lost.
    pub fn new(endpoint: Endpoint, stream_id: impl Into<String>, policy: RetryPolicy) -> Self {
        let stream_id = stream_id.into();
        let token = crate::stream::mint_token(&stream_id);
        ResilientStreamSender {
            endpoint,
            policy,
            stream_id,
            token,
            client: None,
            progress: 0,
            begun: false,
            need_resume: false,
            resumes: 0,
            replays: 0,
            retries: 0,
        }
    }

    /// The stream id this sender drives.
    pub fn stream_id(&self) -> &str {
        &self.stream_id
    }

    /// The session token (client-minted).
    pub fn token(&self) -> &str {
        &self.token
    }

    /// The next chunk seq (1-based) the caller should send. Rewinds after
    /// a resume that found the server behind the client.
    pub fn next_seq(&self) -> u64 {
        self.progress + 1
    }

    /// Successful `stream.resume` round trips performed.
    pub fn resumes(&self) -> u64 {
        self.resumes
    }

    /// Chunk responses answered from the server's idempotent replay cache.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Retries spent across all operations (transient errors, reconnects).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Ensure a live connection, resuming the session when the previous
    /// transport died mid-stream. Spends attempts from the caller's budget.
    fn ensure_ready(&mut self, retry: &mut Retry) -> Result<()> {
        loop {
            if self.client.is_none() {
                match Client::connect(&self.endpoint) {
                    Ok(client) => self.client = Some(client),
                    Err(e) => {
                        if !retry.spend() {
                            return Err(e);
                        }
                        continue;
                    }
                }
            }
            if !self.need_resume || !self.begun {
                self.need_resume = false;
                return Ok(());
            }
            let client = self.client.as_mut().expect("connected above");
            match client.stream_resume(&self.stream_id, &self.token, self.progress) {
                Ok(resp) if protocol::is_retryable(&resp) => {
                    if !retry.spend() {
                        return Err(Error::TaskFailed(format!(
                            "stream.resume still rejected after {} attempts: {}",
                            retry.attempts(),
                            message(&resp)
                        )));
                    }
                }
                // past-end rejection carrying the authoritative acked
                // offset: our progress outran the durable journal (torn
                // tail after a crash) — rewind to the server's offset and
                // re-resume; the gap chunks will simply be re-sent
                Ok(resp)
                    if protocol::is_error(&resp, code::BAD_REQUEST)
                        && resp.get_u64_opt("stream:acked").ok().flatten().is_some() =>
                {
                    let server_acked = resp
                        .get_u64_opt("stream:acked")
                        .ok()
                        .flatten()
                        .expect("checked in guard");
                    if server_acked >= self.progress || !retry.spend() {
                        return Err(Error::TaskFailed(format!(
                            "stream.resume refused: {}",
                            message(&resp)
                        )));
                    }
                    self.progress = server_acked;
                }
                Ok(resp)
                    if protocol::is_error(&resp, code::BAD_REQUEST)
                        || protocol::is_error(&resp, code::NOT_FOUND)
                        || protocol::is_error(&resp, code::INTERNAL) =>
                {
                    return Err(Error::TaskFailed(format!(
                        "stream.resume refused ({}): {}",
                        resp.get_str_opt("serve:code").ok().flatten().unwrap_or("?"),
                        message(&resp)
                    )));
                }
                Ok(resp) => {
                    let server_acked = resp.get_u64_opt("stream:acked")?.unwrap_or(0);
                    if server_acked < self.progress {
                        // the server durably acked less than we saw (torn
                        // journal tail): rewind and re-send the gap so the
                        // learner still observes every chunk
                        self.progress = server_acked;
                    }
                    self.resumes += 1;
                    pressio_obs::add_counter("serve:sender.resume", 1);
                    self.need_resume = false;
                    return Ok(());
                }
                Err(e) if protocol::is_transport(&e) => {
                    self.client = None;
                    if !retry.spend() {
                        return Err(Error::Io(format!(
                            "stream.resume transport failed after {} attempts",
                            retry.attempts()
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One resilient request round trip for `op_key` (`stream.begin`,
    /// `stream.chunk` or `stream.end`) under a fresh retry budget, whose
    /// spent retries are added to [`retries`](Self::retries).
    fn call_with_recovery(&mut self, request: &Options, op_key: &str) -> Result<Options> {
        let mut retry = Retry::new(self.policy, op_key, "serve:sender.retry");
        let outcome = self.recover(request, op_key, &mut retry);
        self.retries += retry.retries() as u64;
        outcome
    }

    fn recover(&mut self, request: &Options, op_key: &str, retry: &mut Retry) -> Result<Options> {
        loop {
            self.ensure_ready(retry)?;
            if op_key == op::STREAM_CHUNK {
                if let Ok(Some(seq)) = request.get_u64_opt("stream:seq") {
                    if seq > self.progress + 1 {
                        // a resume rewound progress below this chunk (the
                        // durable journal acked less than we had sent):
                        // hand control back — the caller owns the chunk
                        // data and re-sends from next_seq()
                        return Ok(Options::new()
                            .with("serve:type", "stream.rewound")
                            .with("stream:id", self.stream_id.as_str())
                            .with("stream:acked", self.progress));
                    }
                }
            }
            let client = self.client.as_mut().expect("ensure_ready connected");
            match client.call(request) {
                Ok(resp) if protocol::is_retryable(&resp) => {
                    if !retry.spend() {
                        return Ok(resp);
                    }
                }
                // the in-memory session vanished (shard crash/respawn or
                // reap): resume — the journal rehydrates it — then retry
                Ok(resp)
                    if protocol::is_error(&resp, code::NOT_FOUND)
                        && self.begun
                        && op_key == op::STREAM_CHUNK =>
                {
                    if !retry.spend() {
                        return Ok(resp);
                    }
                    self.need_resume = true;
                }
                // "already open" after a transport retry means our earlier
                // begin landed but its response was lost: resume instead
                Ok(resp)
                    if op_key == op::STREAM_BEGIN
                        && protocol::is_error(&resp, code::BAD_REQUEST)
                        && message(&resp).contains("already open") =>
                {
                    self.begun = true;
                    self.need_resume = true;
                    self.ensure_ready(retry)?;
                    return Ok(Options::new()
                        .with("serve:type", "stream.begun")
                        .with("stream:id", self.stream_id.as_str())
                        .with("stream:token", self.token.as_str())
                        .with("stream:acked", self.progress)
                        .with("stream:resumed", true));
                }
                Ok(resp) => return Ok(resp),
                Err(e) if protocol::is_transport(&e) => {
                    self.client = None;
                    self.need_resume = true;
                    if !retry.spend() {
                        return Err(Error::Io(format!(
                            "{op_key} transport failed after {} attempts",
                            retry.attempts()
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Open the session. `extra` carries the scheme/model reference and
    /// compressor knobs, as for [`Client::stream_begin`]; the sender adds
    /// its client-minted token.
    pub fn begin(&mut self, extra: &Options) -> Result<Options> {
        let request = extra
            .clone()
            .with("serve:op", op::STREAM_BEGIN)
            .with("stream:id", self.stream_id.as_str())
            .with("stream:token", self.token.as_str());
        let resp = self.call_with_recovery(&request, op::STREAM_BEGIN)?;
        if resp.get_str_opt("serve:type").ok().flatten() == Some("stream.begun") {
            self.begun = true;
        }
        Ok(resp)
    }

    /// Send chunk `seq` (must equal [`next_seq`](Self::next_seq)). On
    /// success the sender's progress advances and the response is
    /// returned — possibly served from the server's idempotent replay
    /// cache (`stream:replayed = true`) when an earlier send of this seq
    /// was acked but its response lost.
    ///
    /// A response of `serve:type = "stream.rewound"` means a mid-send
    /// resume discovered the server durably acked less than this seq
    /// (torn journal tail after a crash): nothing was sent, progress has
    /// been rewound, and the caller should continue its send loop from
    /// the new [`next_seq`](Self::next_seq).
    pub fn send_chunk(&mut self, seq: u64, chunk: &Data, extra: &Options) -> Result<Options> {
        if seq != self.next_seq() {
            return Err(Error::InvalidValue {
                key: "stream:seq".into(),
                reason: format!("send_chunk({seq}) but next_seq is {}", self.next_seq()),
            });
        }
        let request = Client::stream_chunk_request(&self.stream_id, seq, chunk, extra);
        let resp = self.call_with_recovery(&request, op::STREAM_CHUNK)?;
        if resp.get_str_opt("serve:type").ok().flatten() == Some("stream.prediction") {
            self.progress = self.progress.max(seq);
            if resp.get_bool_opt("stream:replayed").ok().flatten() == Some(true) {
                self.replays += 1;
                pressio_obs::add_counter("serve:sender.replay", 1);
            }
        }
        Ok(resp)
    }

    /// Close the session. A `not_found` answer after the sender had to
    /// reconnect is reported as-is — the caller decides whether the
    /// summary mattered.
    pub fn end(&mut self) -> Result<Options> {
        let request = Options::new()
            .with("serve:op", op::STREAM_END)
            .with("stream:id", self.stream_id.as_str());
        self.call_with_recovery(&request, op::STREAM_END)
    }
}

/// The `serve:message` of a response, or "".
fn message(resp: &Options) -> &str {
    resp.get_str_opt("serve:message")
        .ok()
        .flatten()
        .unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_tracks_progress_and_validates_seq() {
        let sender = ResilientStreamSender::new(
            Endpoint::Tcp("127.0.0.1:1".into()),
            "s",
            RetryPolicy::default(),
        );
        assert_eq!(sender.next_seq(), 1);
        assert_eq!(sender.token().len(), 16);
        assert_eq!(sender.stream_id(), "s");
        assert_eq!(sender.resumes(), 0);
        assert_eq!(sender.replays(), 0);
    }
}
