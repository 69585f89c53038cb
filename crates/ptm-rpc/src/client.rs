//! The retrying RPC client.
//!
//! [`RpcClient`] opens (and transparently re-opens) one TCP connection to a
//! daemon and exposes typed calls for every [`crate::proto::Request`]. Every
//! call — a single request/response exchange or a pipelined upload — runs
//! through one retry loop. It retries on *retryable* failures — connection
//! refused/reset, timeouts, a stream closed mid-exchange, a
//! checksum-mangled response, a server answer asking for a retry — with
//! capped exponential backoff plus jitter, and fails fast on *fatal* ones —
//! any error the server actually answered with (version mismatch,
//! conflicting duplicate, malformed request, missing record).
//!
//! Retrying an upload whose ack was lost is safe because the daemon's ingest
//! is idempotent: an identical re-send is acked as a duplicate, not stored
//! twice. That at-least-once contract is what lets this client treat every
//! ambiguous transport failure as "try again".
//!
//! Three mechanisms keep a retrying fleet from making a bad situation worse
//! (see `docs/FAULTS.md`):
//!
//! * a server [`Response::Overloaded`] answer is retried after at least
//!   its `retry_after_ms` hint, not hammered on the normal backoff;
//! * an optional **deadline budget** ([`ClientConfig::deadline`]) caps the
//!   total wall-clock a call may spend across all its attempts — and each
//!   attempt stamps its *remaining* budget into the v3 request header, so
//!   the server can drop the request instead of executing it once this
//!   client has already given up ([`Response::DeadlineExceeded`]);
//! * a server [`Response::GoingAway`] answer (graceful drain) is a clean
//!   hand-off: the client drops the doomed connection and retries —
//!   against the restarted instance — after the server's hint.

use crate::frame::{
    append_frame_with, is_timeout, write_frame_vectored, FrameDecoder, FrameError,
    DEFAULT_MAX_FRAME_LEN, READ_CHUNK,
};
use crate::proto::{
    decode_response, encode_request_with, encode_upload_into, ErrorCode, ProtoError, Request,
    Response, WireTrace,
};
use ptm_core::record::TrafficRecord;
use ptm_core::{LocationId, PeriodId};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest number of upload frames [`RpcClient::upload_pipelined`] keeps in
/// flight before pausing to drain acks. Caps the daemon-side reply queue a
/// single connection can build up.
pub const MAX_PIPELINE_WINDOW: usize = 256;

/// Tuning knobs for [`RpcClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-attempt read/write timeout on the open stream.
    pub io_timeout: Duration,
    /// Total attempts per call (first try + retries). Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `min(cap, base * 2^(n-1))` plus jitter.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
    /// Seed for the jitter PRNG (deterministic in tests).
    pub jitter_seed: u64,
    /// Total wall-clock budget per call, spanning every attempt and
    /// backoff sleep. `None` (the default) leaves only `max_attempts` as
    /// the bound. A call that would sleep past the budget fails with
    /// [`ClientError::DeadlineExceeded`] instead of sleeping.
    pub deadline: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            max_attempts: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
            deadline: None,
        }
    }
}

/// Why a call failed for good.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with an application error; retrying cannot help.
    Server {
        /// The server's error code.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The response decoded to something other than what the call expects
    /// (protocol confusion; not retryable).
    UnexpectedResponse(String),
    /// The response payload failed to decode.
    Proto(ProtoError),
    /// Every attempt failed on a transport error or a retryable server
    /// answer; the last one is kept.
    Exhausted {
        /// Attempts made (equals `max_attempts`).
        attempts: u32,
        /// The final failure.
        last: String,
    },
    /// A request that can never be sent: the daemon address does not
    /// resolve.
    InvalidRequest(String),
    /// The deadline budget ran out before any attempt succeeded.
    DeadlineExceeded {
        /// Attempts completed before the budget ran out.
        attempts: u32,
        /// The most recent failure (empty if the first attempt never ran).
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Server { code, message } => write!(f, "server error ({code:?}): {message}"),
            Self::UnexpectedResponse(detail) => write!(f, "unexpected response: {detail}"),
            Self::Proto(err) => write!(f, "protocol error: {err}"),
            Self::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            Self::InvalidRequest(detail) => write!(f, "invalid request: {detail}"),
            Self::DeadlineExceeded { attempts, last } => {
                write!(f, "deadline exceeded after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// The daemon's answer to an upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadSummary {
    /// Records newly persisted by this call.
    pub accepted: u32,
    /// Records the daemon already held with identical contents.
    pub duplicates: u32,
}

/// Ping response: the server's protocol version, estimator parameter, and
/// health snapshot — the payload behind `ptm serve --health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Protocol version the server speaks.
    pub version: u8,
    /// Representative-bit count `s` used by the point-to-point estimator.
    pub s: u32,
    /// Records currently held by the server's query engine.
    pub records: u64,
    /// Whether ingest is degraded (uploads shed while the archive backend
    /// is down; queries still served).
    pub degraded: bool,
}

/// Why one attempt did not produce the call's answer.
enum AttemptError {
    /// Worth another attempt: a transport fault, or a server answer that
    /// asks for one.
    Retry {
        /// What went wrong, kept as the call's `last` failure.
        detail: String,
        /// The server's `retry_after_ms` hint, which floors the next
        /// backoff.
        hint_ms: Option<u32>,
        /// Whether the connection is done for: drop it and reconnect on
        /// the next attempt.
        reconnect: bool,
    },
    /// Retrying cannot help.
    Fatal(ClientError),
}

impl AttemptError {
    /// A transport fault: retry on a fresh connection after the normal
    /// backoff.
    fn transport(detail: impl Into<String>) -> Self {
        Self::Retry {
            detail: detail.into(),
            hint_ms: None,
            reconnect: true,
        }
    }
}

/// Separates the call's answer from the server answers that stand in for
/// it, and counts the latter.
///
/// Every [`Response`] variant is listed and there is no `_` arm, so a new
/// variant does not compile until its retry semantics are chosen here.
fn classify_response(response: Response) -> Result<Response, AttemptError> {
    match response {
        Response::Pong { .. }
        | Response::UploadOk { .. }
        | Response::Estimate(_)
        | Response::Stats(_) => Ok(response),
        // A healthy server asking for space: keep the connection, retry
        // after at least the hint.
        Response::Overloaded { retry_after_ms } => {
            ptm_obs::counter!("rpc.client.overloaded").inc();
            Err(AttemptError::Retry {
                detail: format!("server overloaded; asked to retry after {retry_after_ms} ms"),
                hint_ms: Some(retry_after_ms),
                reconnect: false,
            })
        }
        // The server dropped the queued request past its wire deadline.
        // The next attempt only runs if the call still has budget left.
        Response::DeadlineExceeded => {
            ptm_obs::counter!("rpc.client.deadline_dropped").inc();
            Err(AttemptError::Retry {
                detail: "server dropped the request past its wire deadline".into(),
                hint_ms: None,
                reconnect: false,
            })
        }
        // Graceful drain: this connection is done serving. Drop it and
        // retry elsewhere after the hint.
        Response::GoingAway { retry_after_ms } => {
            ptm_obs::counter!("rpc.client.going_away").inc();
            Err(AttemptError::Retry {
                detail: format!("server going away; asked to hand off after {retry_after_ms} ms"),
                hint_ms: Some(retry_after_ms),
                reconnect: true,
            })
        }
        Response::Error { code, message } => {
            if code == ErrorCode::VersionMismatch {
                ptm_obs::counter!("rpc.client.version_mismatch").inc();
            }
            Err(AttemptError::Fatal(ClientError::Server { code, message }))
        }
    }
}

/// The remaining deadline budget to stamp into this attempt's v3 header
/// (`None` when the call has no deadline — nothing is stamped and the
/// server never dooms the request). Clamped up to 1 ms so an attempt the
/// client is still willing to make is never stamped "already expired".
fn remaining_budget_ms(started: Instant, deadline: Option<Duration>) -> Option<u32> {
    deadline.map(|budget| {
        let remaining = budget.saturating_sub(started.elapsed());
        u32::try_from(remaining.as_millis())
            .unwrap_or(u32::MAX)
            .max(1)
    })
}

fn retryable_io(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::Interrupted
    )
}

/// Classifies a failed connect, send or receive: `what` names the step.
fn classify_io_error(what: &str, err: &io::Error) -> AttemptError {
    let detail = format!("{what}: {err}");
    if retryable_io(err.kind()) {
        AttemptError::transport(detail)
    } else {
        AttemptError::Fatal(ClientError::Exhausted {
            attempts: 0,
            last: detail,
        })
    }
}

fn classify_frame_error(err: FrameError) -> AttemptError {
    match err {
        // A mangled or cut-off response is a transport fault: the request
        // may or may not have been applied, and idempotent ingest makes a
        // blind retry safe either way.
        FrameError::Truncated | FrameError::Stalled | FrameError::BadCrc { .. } => {
            AttemptError::transport(err.to_string())
        }
        FrameError::Io(io_err) => classify_io_error("receive", &io_err),
        FrameError::TooLarge { .. } => {
            AttemptError::Fatal(ClientError::UnexpectedResponse(err.to_string()))
        }
    }
}

/// One open connection: the stream, and the decoder its replies arrive
/// through. Replies are read in whatever batches the socket delivers and
/// decoded in place, so a wave of acks costs one `read` per arriving batch.
/// Dropping the connection drops any reply bytes already read with it, so
/// a reconnected client never takes a stale reply for its own.
struct Connection {
    stream: TcpStream,
    replies: FrameDecoder,
}

impl Connection {
    /// Reads, decodes and classifies the next reply.
    ///
    /// The stream's read timeout is `io_timeout`, so a timeout means
    /// `io_timeout` passed with no byte. Before the reply's first byte that
    /// is "response timed out"; after it the reply did not finish within
    /// `io_timeout` of its first byte, and the peer is
    /// [`FrameError::Stalled`]. EOF mid-reply is [`FrameError::Truncated`].
    fn read_response(&mut self) -> Result<Response, AttemptError> {
        loop {
            if let Some(payload) = self.replies.next_frame().map_err(classify_frame_error)? {
                ptm_obs::counter!("rpc.client.frames.in").inc();
                let response = decode_response(payload)
                    .map_err(|err| AttemptError::Fatal(ClientError::Proto(err)))?;
                self.replies.reclaim();
                return classify_response(response);
            }
            let in_frame = self.replies.has_partial();
            match self.replies.read_from(&mut self.stream) {
                Ok(0) if in_frame => return Err(classify_frame_error(FrameError::Truncated)),
                Ok(0) => {
                    return Err(AttemptError::transport(
                        "connection closed awaiting response",
                    ))
                }
                Ok(_) => {}
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) if is_timeout(&err) && in_frame => {
                    return Err(classify_frame_error(FrameError::Stalled))
                }
                // For a client awaiting an answer, silence before the first
                // byte is a timeout, not idleness.
                Err(err) if is_timeout(&err) => {
                    return Err(AttemptError::transport("response timed out"))
                }
                Err(err) => return Err(classify_io_error("receive", &err)),
            }
        }
    }
}

/// A client for one daemon address. Not thread-safe; open one per thread.
pub struct RpcClient {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Connection>,
    jitter_state: u64,
}

impl RpcClient {
    /// Creates a client for `addr`. No connection is made until the first
    /// call.
    ///
    /// # Errors
    ///
    /// Address resolution failures.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|err| ClientError::InvalidRequest(format!("bad address: {err}")))?
            .next()
            .ok_or_else(|| ClientError::InvalidRequest("address resolved to nothing".into()))?;
        let jitter_state = config.jitter_seed | 1;
        Ok(Self {
            addr,
            config,
            conn: None,
            jitter_state,
        })
    }

    /// The resolved server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Pings the daemon, returning its protocol version and `s` parameter.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> Result<ServerInfo, ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong {
                version,
                s,
                records,
                degraded,
            } => Ok(ServerInfo {
                version,
                s,
                records,
                degraded,
            }),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Uploads `records`, one `Upload` frame each: up to `window` frames
    /// (clamped to 1..=[`MAX_PIPELINE_WINDOW`]) are written in one wave
    /// before the matching acks are drained in order. The wave goes out in
    /// [`READ_CHUNK`]-sized writes as it is encoded, and the reactor daemon
    /// coalesces the upload frames it has read so far, up to 64, into one
    /// commit and batches their acks into one write.
    ///
    /// Acks are counted per record. An `Overloaded` shed or a
    /// `DeadlineExceeded` drop pauses the pipeline and retries only the
    /// unacked records after the backoff (floored by the server's hint),
    /// and a transport failure or a `GoingAway` hand-off reconnects and
    /// re-sends every unacked record (safe because ingest is idempotent).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; `Server { code: DuplicateConflict, .. }` means a
    /// different record already occupies a `(location, period)`. The first
    /// server `Error` frame fails the call, with already-acked records
    /// staying persisted.
    pub fn upload_pipelined(
        &mut self,
        records: &[TrafficRecord],
        window: usize,
    ) -> Result<UploadSummary, ClientError> {
        let mut summary = UploadSummary {
            accepted: 0,
            duplicates: 0,
        };
        if records.is_empty() {
            return Ok(summary);
        }
        let window = window.clamp(1, MAX_PIPELINE_WINDOW);
        let call_span = ptm_obs::tspan!("rpc.client.request");
        let wire = call_span.context().map(|ctx| WireTrace {
            trace_id: ctx.trace_id,
            parent_span: ctx.span_id,
        });
        let mut acked = vec![false; records.len()];
        let outcome = self.with_retries(|client, stamp| {
            client.pipeline_attempt(records, wire, stamp, &mut acked, window, &mut summary)
        });
        if outcome.is_err() {
            // The last wave's later replies may still be unread: drop the
            // connection so the next call cannot take one for its answer.
            self.conn = None;
        }
        outcome.map(|()| summary)
    }

    /// One pipelined pass over every record not yet acked: frames are
    /// written in `window`-sized waves, each record encoded straight into
    /// the wave buffer with this attempt's remaining budget in its header,
    /// then the wave's acks are drained in order. The buffer is written
    /// whenever it holds a [`READ_CHUNK`] of frames, the most one reactor
    /// read takes in, so the daemon decodes the head of a wave while its
    /// tail is still being encoded.
    /// Succeeds when every record is acked; a shed or doomed record ends
    /// the pass after its wave, so the retry loop backs off before
    /// re-sending the unacked tail.
    fn pipeline_attempt(
        &mut self,
        records: &[TrafficRecord],
        trace: Option<WireTrace>,
        deadline_ms: Option<u32>,
        acked: &mut [bool],
        window: usize,
        summary: &mut UploadSummary,
    ) -> Result<(), AttemptError> {
        let conn = self.ensure_conn()?;
        let pending: Vec<usize> = (0..records.len()).filter(|&i| !acked[i]).collect();
        let mut wave_buf = Vec::new();
        for wave in pending.chunks(window) {
            for (n, &index) in wave.iter().enumerate() {
                append_frame_with(&mut wave_buf, |out| {
                    encode_upload_into(&records[index], trace, deadline_ms, out);
                });
                if wave_buf.len() >= READ_CHUNK || n + 1 == wave.len() {
                    conn.stream
                        .write_all(&wave_buf)
                        .map_err(|err| classify_io_error("send", &err))?;
                    wave_buf.clear();
                }
            }
            ptm_obs::counter!("rpc.client.frames.out").add(wave.len() as u64);
            let mut shed: Option<AttemptError> = None;
            for &index in wave {
                match conn.read_response() {
                    Ok(Response::UploadOk {
                        accepted,
                        duplicates,
                    }) => {
                        acked[index] = true;
                        summary.accepted += accepted;
                        summary.duplicates += duplicates;
                    }
                    Ok(other) => return Err(AttemptError::Fatal(unexpected("UploadOk", &other))),
                    // Shed or doomed, on a connection that still serves:
                    // the record stays unacked, and the rest of the
                    // wave's acks are already on their way. A hinted
                    // retry replaces an unhinted one, so the pause
                    // honours the server's hint.
                    Err(
                        retry @ AttemptError::Retry {
                            reconnect: false,
                            hint_ms,
                            ..
                        },
                    ) => {
                        if shed.is_none() || hint_ms.is_some() {
                            shed = Some(retry);
                        }
                    }
                    Err(err) => return Err(err),
                }
            }
            if let Some(retry) = shed {
                // The server is shedding: stop pushing more waves and let
                // the retry loop back off before the unacked tail.
                return Err(retry);
            }
        }
        Ok(())
    }

    /// Queries the traffic-volume estimate for one location and period.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn query_volume(
        &mut self,
        location: LocationId,
        period: PeriodId,
    ) -> Result<f64, ClientError> {
        self.expect_estimate(&Request::QueryVolume { location, period })
    }

    /// Queries the point persistent-traffic estimate over `periods`.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn query_point(
        &mut self,
        location: LocationId,
        periods: &[PeriodId],
    ) -> Result<f64, ClientError> {
        self.expect_estimate(&Request::QueryPoint {
            location,
            periods: periods.to_vec(),
        })
    }

    /// Queries the point-to-point persistent-traffic estimate over
    /// `periods`.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn query_p2p(
        &mut self,
        location_a: LocationId,
        location_b: LocationId,
        periods: &[PeriodId],
    ) -> Result<f64, ClientError> {
        self.expect_estimate(&Request::QueryP2p {
            location_a,
            location_b,
            periods: periods.to_vec(),
        })
    }

    fn expect_estimate(&mut self, request: &Request) -> Result<f64, ClientError> {
        match self.call(request)? {
            Response::Estimate(value) => Ok(value),
            other => Err(unexpected("Estimate", &other)),
        }
    }

    /// Fetches the daemon's live introspection snapshot as a JSON string —
    /// record/shard counts, histogram percentiles, the full metrics
    /// snapshot, and recent flight-recorder entries. This is the payload
    /// behind `ptm top`.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// One request/response exchange, retried.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        // One span covers the whole call — every attempt, backoff sleep,
        // and the final decode share it — and its context rides the v3
        // request header so the daemon's spans join this trace.
        let call_span = ptm_obs::tspan!("rpc.client.request");
        let wire = call_span.context().map(|ctx| WireTrace {
            trace_id: ctx.trace_id,
            parent_span: ctx.span_id,
        });
        self.with_retries(|client, remaining_ms| {
            // Re-encoded per attempt: the stamped header carries the
            // budget still remaining *now*, so the server sees how long
            // this attempt — not the original call — is worth queueing.
            let payload = encode_request_with(request, wire, remaining_ms);
            let conn = client.ensure_conn()?;
            write_frame_vectored(&mut conn.stream, &payload)
                .map_err(|err| classify_io_error("send", &err))?;
            ptm_obs::counter!("rpc.client.frames.out").inc();
            conn.read_response()
        })
    }

    /// The retry loop every call runs through. Runs `attempt` until it
    /// succeeds or fails fatally, bounded by the attempt count and the
    /// optional deadline budget. Between attempts it sleeps the jittered
    /// backoff, floored by the server's hint when the last answer carried
    /// one. `attempt` gets the deadline budget still remaining, for its
    /// request header.
    fn with_retries<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self, Option<u32>) -> Result<T, AttemptError>,
    ) -> Result<T, ClientError> {
        let attempts = self.config.max_attempts.max(1);
        let started = Instant::now();
        let mut last = String::new();
        let mut hint: Option<Duration> = None;
        for n in 0..attempts {
            if n > 0 {
                let backoff = self.backoff(n);
                let delay = hint.take().map_or(backoff, |hint| hint.max(backoff));
                if let Some(budget) = self.config.deadline {
                    if started.elapsed() + delay >= budget {
                        ptm_obs::counter!("rpc.client.deadline_exceeded").inc();
                        return Err(ClientError::DeadlineExceeded { attempts: n, last });
                    }
                }
                ptm_obs::counter!("rpc.client.retries").inc();
                std::thread::sleep(delay);
            }
            let remaining_ms = remaining_budget_ms(started, self.config.deadline);
            match attempt(self, remaining_ms) {
                Ok(value) => return Ok(value),
                Err(AttemptError::Fatal(err)) => {
                    // Only a server answer leaves the stream in step; after
                    // any other fatal failure its buffered bytes are suspect.
                    if !matches!(err, ClientError::Server { .. }) {
                        self.conn = None;
                    }
                    return Err(err);
                }
                Err(AttemptError::Retry {
                    detail,
                    hint_ms,
                    reconnect,
                }) => {
                    ptm_obs::debug!("rpc.client", "attempt failed";
                        attempt = n + 1, error = detail.clone());
                    if reconnect {
                        self.conn = None;
                    }
                    hint = hint_ms.map(|ms| Duration::from_millis(u64::from(ms)));
                    last = detail;
                }
            }
        }
        ptm_obs::counter!("rpc.client.exhausted").inc();
        Err(ClientError::Exhausted { attempts, last })
    }

    /// The open connection, connecting first if there is none.
    fn ensure_conn(&mut self) -> Result<&mut Connection, AttemptError> {
        let conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
                    .map_err(|err| classify_io_error("connect", &err))?;
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(self.config.io_timeout));
                let _ = stream.set_write_timeout(Some(self.config.io_timeout));
                ptm_obs::counter!("rpc.client.connects").inc();
                Connection {
                    stream,
                    replies: FrameDecoder::new(DEFAULT_MAX_FRAME_LEN),
                }
            }
        };
        Ok(self.conn.insert(conn))
    }

    /// Backoff before retry `attempt` (1-based): exponential with a cap,
    /// plus up to 50% jitter from a xorshift PRNG so a fleet of clients
    /// recovering from one outage does not reconnect in lockstep.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self.config.backoff_base.saturating_mul(1u32 << exp);
        let capped = base.min(self.config.backoff_cap);
        // xorshift64 — no external RNG dependency for one jitter source.
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        let jitter_frac = (x % 1000) as f64 / 1000.0 * 0.5;
        capped.mul_f64(1.0 + jitter_frac)
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::UnexpectedResponse(format!("wanted {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(500),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let b1 = client.backoff(1);
        let b3 = client.backoff(3);
        let b10 = client.backoff(10);
        assert!(b1 >= Duration::from_millis(1), "{b1:?}");
        assert!(b1 <= Duration::from_millis(2), "{b1:?}"); // base + 50% jitter
        assert!(b3 >= Duration::from_millis(4), "{b3:?}"); // capped
        assert!(b10 <= Duration::from_millis(6), "{b10:?}"); // cap + 50%
    }

    #[test]
    fn jitter_varies_between_calls() {
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let samples: Vec<Duration> = (0..8).map(|_| client.backoff(5)).collect();
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(
            distinct.len() > 1,
            "jitter produced identical delays: {samples:?}"
        );
    }

    #[test]
    fn refused_connection_exhausts_retries() {
        // Port 1 on loopback is essentially never listening.
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        match client.ping() {
            Err(ClientError::Exhausted { attempts: 3, .. }) => {}
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_yields_identical_backoff_sequences() {
        // Deterministic jitter: two clients with the same seed sleep the
        // same sequence; a different seed diverges.
        let mut a = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let mut b = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let mut c = RpcClient::connect(
            "127.0.0.1:1",
            ClientConfig {
                jitter_seed: 0xDEAD_BEEF,
                ..test_config()
            },
        )
        .expect("client");
        let seq_a: Vec<Duration> = (1..=8).map(|n| a.backoff(n)).collect();
        let seq_b: Vec<Duration> = (1..=8).map(|n| b.backoff(n)).collect();
        let seq_c: Vec<Duration> = (1..=8).map(|n| c.backoff(n)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn deadline_budget_caps_total_retry_time() {
        // 100 permitted attempts but a 60 ms budget against 20 ms
        // backoffs: the deadline, not the attempt count, ends the call.
        let config = ClientConfig {
            max_attempts: 100,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(20),
            deadline: Some(Duration::from_millis(60)),
            ..test_config()
        };
        let mut client = RpcClient::connect("127.0.0.1:1", config).expect("client");
        let started = std::time::Instant::now();
        match client.ping() {
            Err(ClientError::DeadlineExceeded { attempts, .. }) => {
                assert!(
                    attempts < 100,
                    "deadline fired before exhaustion: {attempts}"
                );
                assert!(attempts >= 1, "at least one attempt ran");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "call overran its budget: {:?}",
            started.elapsed()
        );
    }

    fn test_record(period: u32) -> TrafficRecord {
        TrafficRecord::new(
            LocationId::new(9),
            PeriodId::new(period),
            ptm_core::params::BitmapSize::new(64).expect("pow2"),
        )
    }

    #[test]
    fn empty_pipelined_upload_is_a_local_no_op() {
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let summary = client.upload_pipelined(&[], 8).expect("empty pipeline");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 0,
                duplicates: 0
            }
        );
    }

    #[test]
    fn pipelined_upload_drains_acks_per_wave() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::encode_response;

        // A frame-for-frame responder: ack every upload it can read.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut acked = 0u32;
            while let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::UploadOk {
                    accepted: 1,
                    duplicates: 0,
                });
                if write_frame(&mut stream, &payload).is_err() {
                    break;
                }
                acked += 1;
            }
            acked
        });

        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let records: Vec<TrafficRecord> = (0..7).map(test_record).collect();
        let summary = client.upload_pipelined(&records, 3).expect("pipeline");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 7,
                duplicates: 0
            }
        );
        drop(client);
        assert_eq!(responder.join().expect("responder"), 7);
    }

    #[test]
    fn pipelined_upload_retries_only_the_shed_tail() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::encode_response;

        // Shed the very first frame, ack everything after it: the client
        // must retry exactly the shed record, not re-upload the acked ones.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut seen = 0u32;
            while let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                seen += 1;
                let response = if seen == 1 {
                    Response::Overloaded { retry_after_ms: 5 }
                } else {
                    Response::UploadOk {
                        accepted: 1,
                        duplicates: 0,
                    }
                };
                if write_frame(&mut stream, &encode_response(&response)).is_err() {
                    break;
                }
            }
            seen
        });

        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let records: Vec<TrafficRecord> = (0..3).map(test_record).collect();
        let summary = client.upload_pipelined(&records, 3).expect("pipeline");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 3,
                duplicates: 0
            }
        );
        drop(client);
        // 3 frames in the first wave + 1 retried shed record.
        assert_eq!(responder.join().expect("responder"), 4);
    }

    #[test]
    fn pipelined_window_is_clamped() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::encode_response;

        // A window of 0 still makes progress (clamped up to 1).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            while let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::UploadOk {
                    accepted: 1,
                    duplicates: 0,
                });
                if write_frame(&mut stream, &payload).is_err() {
                    break;
                }
            }
        });
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let records: Vec<TrafficRecord> = (0..2).map(test_record).collect();
        let summary = client.upload_pipelined(&records, 0).expect("pipeline");
        assert_eq!(summary.accepted, 2);
        drop(client);
        responder.join().expect("responder");
    }

    #[test]
    fn a_refused_pipelined_upload_leaves_the_client_in_step() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::{decode_request, encode_response, PROTOCOL_VERSION};

        // The responder refuses every upload frame and answers a ping with
        // a pong, then stops. A two-record wave fails at its first refusal
        // while the second is still in flight; the next call must not read
        // that refusal as its own answer.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            for connection in 1.. {
                let (mut stream, _) = listener.accept().expect("accept");
                while let Ok(ReadOutcome::Frame(bytes)) =
                    read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
                {
                    let ping = decode_request(&bytes).expect("decode").request == Request::Ping;
                    let response = if ping {
                        Response::Pong {
                            version: PROTOCOL_VERSION,
                            s: 3,
                            records: 0,
                            degraded: false,
                        }
                    } else {
                        Response::Error {
                            code: ErrorCode::DuplicateConflict,
                            message: String::new(),
                        }
                    };
                    let _ = write_frame(&mut stream, &encode_response(&response));
                    if ping {
                        return connection;
                    }
                }
            }
            unreachable!("the accept loop only ends at a ping")
        });
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let records: Vec<TrafficRecord> = (0..2).map(test_record).collect();
        match client.upload_pipelined(&records, 2) {
            Err(ClientError::Server {
                code: ErrorCode::DuplicateConflict,
                ..
            }) => {}
            other => panic!("expected DuplicateConflict, got {other:?}"),
        }
        client.ping().expect("the next call gets its own answer");
        drop(client);
        assert_eq!(responder.join().expect("responder"), 2, "reconnected");
    }

    #[test]
    fn pipelined_going_away_waits_out_the_hint_then_resends_the_tail() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::encode_response;

        // The first connection acks the first of three pipelined frames,
        // answers the second GoingAway and closes (a draining server). The
        // client must wait out the 150 ms hand-off hint, then re-send
        // exactly the unacked tail on a new connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().expect("accept");
            for turn in 0..3 {
                let Ok(ReadOutcome::Frame(_)) = read_frame(&mut first, DEFAULT_MAX_FRAME_LEN)
                else {
                    break;
                };
                let response = match turn {
                    0 => Response::UploadOk {
                        accepted: 1,
                        duplicates: 0,
                    },
                    1 => Response::GoingAway {
                        retry_after_ms: 150,
                    },
                    // The third frame is read (so the close is clean) but
                    // never answered.
                    _ => continue,
                };
                if write_frame(&mut first, &encode_response(&response)).is_err() {
                    break;
                }
            }
            drop(first);
            let (mut second, _) = listener.accept().expect("accept second");
            let reconnected_at = Instant::now();
            let mut resent = 0u32;
            while let Ok(ReadOutcome::Frame(_)) = read_frame(&mut second, DEFAULT_MAX_FRAME_LEN) {
                resent += 1;
                let payload = encode_response(&Response::UploadOk {
                    accepted: 1,
                    duplicates: 0,
                });
                if write_frame(&mut second, &payload).is_err() {
                    break;
                }
            }
            (reconnected_at, resent)
        });
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let records: Vec<TrafficRecord> = (0..3).map(test_record).collect();
        let started = Instant::now();
        let summary = client
            .upload_pipelined(&records, 3)
            .expect("hand-off retry succeeds");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 3,
                duplicates: 0
            }
        );
        drop(client);
        let (reconnected_at, resent) = responder.join().expect("responder");
        let waited = reconnected_at.duration_since(started);
        assert!(
            waited >= Duration::from_millis(150),
            "reconnected {waited:?} after the call started, inside the 150 ms hint"
        );
        assert_eq!(resent, 2, "only the unacked tail is re-sent");
    }

    #[test]
    fn pipelined_deadline_drop_is_reported_as_a_deadline_drop() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::encode_response;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            if let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                let _ = write_frame(&mut stream, &encode_response(&Response::DeadlineExceeded));
            }
        });
        let config = ClientConfig {
            max_attempts: 1,
            ..test_config()
        };
        let mut client = RpcClient::connect(addr, config).expect("client");
        match client.upload_pipelined(&[test_record(0)], 4) {
            Err(ClientError::Exhausted { attempts: 1, last }) => {
                assert!(
                    last.contains("deadline"),
                    "unexpected failure detail: {last}"
                );
            }
            other => panic!("expected exhaustion on a deadline drop, got {other:?}"),
        }
        drop(client);
        responder.join().expect("responder");
    }

    #[test]
    fn going_away_hand_off_reconnects_and_retries() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::{encode_response, PROTOCOL_VERSION};

        // First connection answers GoingAway and closes (a draining
        // server); the retry must arrive on a *new* connection and
        // succeed there.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().expect("accept");
            if let Ok(ReadOutcome::Frame(_)) = read_frame(&mut first, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::GoingAway { retry_after_ms: 5 });
                let _ = write_frame(&mut first, &payload);
            }
            drop(first);
            let (mut second, _) = listener.accept().expect("accept second");
            if let Ok(ReadOutcome::Frame(_)) = read_frame(&mut second, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::Pong {
                    version: PROTOCOL_VERSION,
                    s: 3,
                    records: 7,
                    degraded: false,
                });
                let _ = write_frame(&mut second, &payload);
            }
        });
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let info = client.ping().expect("hand-off retry succeeds");
        // Every Pong field surfaces in ServerInfo.
        assert_eq!(
            info,
            ServerInfo {
                version: PROTOCOL_VERSION,
                s: 3,
                records: 7,
                degraded: false
            }
        );
        drop(client);
        responder.join().expect("responder");
    }

    #[test]
    fn deadline_dropped_reply_is_retried_with_a_fresh_stamp() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::{decode_request, encode_response, PROTOCOL_VERSION};

        // The server dooms the first attempt of each call, a ping and then
        // a pipelined upload, and answers the second. Every attempt must
        // carry a deadline stamp, and a retry's, sent one backoff (at least
        // 20 ms) later, must be smaller by at least that backoff.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut stamps = Vec::new();
            while let Ok(ReadOutcome::Frame(bytes)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            {
                let decoded = decode_request(&bytes).expect("decode request");
                stamps.push(decoded.deadline_ms.expect("deadline stamped"));
                let response = match decoded.request {
                    _ if stamps.len() % 2 == 1 => Response::DeadlineExceeded,
                    Request::Ping => Response::Pong {
                        version: PROTOCOL_VERSION,
                        s: 3,
                        records: 0,
                        degraded: false,
                    },
                    _ => Response::UploadOk {
                        accepted: 1,
                        duplicates: 0,
                    },
                };
                if write_frame(&mut stream, &encode_response(&response)).is_err() {
                    break;
                }
            }
            stamps
        });
        let config = ClientConfig {
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(20),
            deadline: Some(Duration::from_secs(30)),
            ..test_config()
        };
        let mut client = RpcClient::connect(addr, config).expect("client");
        client.ping().expect("retry after doomed reply succeeds");
        let summary = client
            .upload_pipelined(&[test_record(0)], 4)
            .expect("retry after doomed reply succeeds");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 1,
                duplicates: 0
            }
        );
        drop(client);
        let stamps = responder.join().expect("responder");
        assert_eq!(stamps.len(), 4, "every attempt stamped: {stamps:?}");
        for retry in stamps.chunks(2) {
            assert!(
                retry[0] >= retry[1] + 20,
                "a retry must stamp the budget still remaining: {stamps:?}"
            );
        }
    }

    /// A fake daemon taking one connection per entry of `replies`: it
    /// reads the connection's first request frame, hands the stream to the
    /// entry, then holds the connection until the client closes it.
    fn fake_daemon(replies: Vec<fn(&mut TcpStream)>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        use crate::frame::{read_frame, ReadOutcome};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || {
            for reply in replies {
                let (mut stream, _) = listener.accept().expect("accept");
                stream.set_nodelay(true).expect("nodelay");
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .expect("timeout");
                let request = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN);
                assert!(matches!(request, Ok(ReadOutcome::Frame(_))), "{request:?}");
                reply(&mut stream);
                let _ = io::copy(&mut stream, &mut io::sink());
            }
        });
        (addr, daemon)
    }

    /// The wire bytes of a `Pong` reply frame.
    fn pong_frame() -> Vec<u8> {
        let mut wire = Vec::new();
        let pong = Response::Pong {
            version: crate::proto::PROTOCOL_VERSION,
            s: 3,
            records: 0,
            degraded: false,
        };
        crate::frame::write_frame(&mut wire, &crate::proto::encode_response(&pong))
            .expect("vec write");
        wire
    }

    #[test]
    fn a_reply_dribbled_in_two_writes_completes() {
        // The reply pauses mid-header for well under io_timeout (500 ms).
        let (addr, daemon) = fake_daemon(vec![|stream| {
            let wire = pong_frame();
            stream.write_all(&wire[..5]).expect("head");
            std::thread::sleep(Duration::from_millis(100));
            stream.write_all(&wire[5..]).expect("tail");
        }]);
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        client.ping().expect("a paused reply completes");
        drop(client);
        daemon.join().expect("daemon");
    }

    #[test]
    fn a_reply_stalled_mid_frame_is_retried_on_a_new_connection() {
        // The first connection stops five bytes into the reply's header,
        // the second four bytes into its payload. Each attempt fails as a
        // transport error once io_timeout passes, and each retry connects
        // afresh (the fake daemon takes one request per connection) until
        // the third gets the whole reply.
        let (addr, daemon) = fake_daemon(vec![
            |stream| stream.write_all(&pong_frame()[..5]).expect("head"),
            |stream| {
                let cut = crate::frame::FRAME_HEADER_LEN + 4;
                stream.write_all(&pong_frame()[..cut]).expect("head");
            },
            |stream| stream.write_all(&pong_frame()).expect("whole"),
        ]);
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let started = Instant::now();
        client.ping().expect("the last retry gets its answer");
        assert!(started.elapsed() >= 2 * test_config().io_timeout);
        drop(client);
        daemon.join().expect("daemon");
    }

    #[test]
    fn eof_mid_reply_is_truncated() {
        let (addr, daemon) = fake_daemon(vec![|stream| {
            let wire = pong_frame();
            stream
                .write_all(&wire[..wire.len() - 1])
                .expect("all but one");
            stream.shutdown(std::net::Shutdown::Write).expect("close");
        }]);
        let config = ClientConfig {
            max_attempts: 1,
            ..test_config()
        };
        let mut client = RpcClient::connect(addr, config).expect("client");
        match client.ping() {
            Err(ClientError::Exhausted { attempts: 1, last }) => {
                assert_eq!(last, FrameError::Truncated.to_string());
            }
            other => panic!("expected a truncated reply, got {other:?}"),
        }
        drop(client);
        daemon.join().expect("daemon");
    }

    /// A `Stats` document three read chunks long.
    fn large_stats() -> String {
        (0..3 * READ_CHUNK)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect()
    }

    #[test]
    fn a_stats_reply_larger_than_a_read_chunk_decodes() {
        let (addr, daemon) = fake_daemon(vec![|stream| {
            let reply = crate::proto::encode_response(&Response::Stats(large_stats()));
            crate::frame::write_frame(stream, &reply).expect("stats");
        }]);
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        assert_eq!(client.stats().expect("stats"), large_stats());
        drop(client);
        daemon.join().expect("daemon");
    }

    #[test]
    fn an_oversized_reply_is_fatal_and_the_next_call_reconnects() {
        // A length word past DEFAULT_MAX_FRAME_LEN fails the call at once;
        // the decoder still holds that header, so the client must not reuse
        // the connection.
        let (addr, daemon) = fake_daemon(vec![
            |stream| {
                let mut header = u32::MAX.to_le_bytes().to_vec();
                header.extend_from_slice(&0u32.to_le_bytes());
                stream.write_all(&header).expect("header");
            },
            |stream| stream.write_all(&pong_frame()).expect("pong"),
        ]);
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        match client.ping() {
            Err(ClientError::UnexpectedResponse(detail)) => {
                assert!(detail.contains("exceeds"), "{detail}");
            }
            other => panic!("expected a fatal oversized reply, got {other:?}"),
        }
        // The old connection would sit out io_timeout waiting for a reply
        // the fake daemon never sends.
        let started = Instant::now();
        client.ping().expect("a fresh connection answers");
        assert!(started.elapsed() < test_config().io_timeout);
        drop(client);
        daemon.join().expect("daemon");
    }

    #[test]
    fn every_error_range_response_has_a_retry_classification() {
        // The four answers a server sends instead of the call's answer:
        // none may reach the caller as an answer, and each carries its
        // retry semantics.
        let cases = [
            (
                Response::Error {
                    code: ErrorCode::Internal,
                    message: String::new(),
                },
                "fatal",
            ),
            (
                Response::Overloaded { retry_after_ms: 7 },
                "retry hint=Some(7) reconnect=false",
            ),
            (
                Response::DeadlineExceeded,
                "retry hint=None reconnect=false",
            ),
            (
                Response::GoingAway { retry_after_ms: 9 },
                "retry hint=Some(9) reconnect=true",
            ),
        ];
        for (response, expected) in cases {
            let got = match classify_response(response.clone()) {
                Ok(_) => "answer".to_owned(),
                Err(AttemptError::Fatal(_)) => "fatal".to_owned(),
                Err(AttemptError::Retry {
                    hint_ms, reconnect, ..
                }) => format!("retry hint={hint_ms:?} reconnect={reconnect}"),
            };
            assert_eq!(got, expected, "{response:?}");
        }
    }

    #[test]
    fn retryable_io_classification() {
        assert!(retryable_io(io::ErrorKind::ConnectionRefused));
        assert!(retryable_io(io::ErrorKind::TimedOut));
        assert!(retryable_io(io::ErrorKind::UnexpectedEof));
        assert!(!retryable_io(io::ErrorKind::PermissionDenied));
        assert!(!retryable_io(io::ErrorKind::InvalidData));
    }
}
