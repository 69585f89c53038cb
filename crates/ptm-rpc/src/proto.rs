//! The RPC message codec carried inside transport frames.
//!
//! Every payload starts with the protocol version, a message tag and a
//! flags byte, then an optional trace-context and deadline header, then
//! the body. The body layout depends on the tag (all integers
//! little-endian):
//!
//! ```text
//! byte 0: protocol version (3; any other value is rejected)
//! byte 1: message tag
//! byte 2: flags (bit 0 = trace context present, bit 1 = deadline
//!         present; other bits must be 0)
//! if flags bit 0: trace_id u64 | parent_span u64
//! if flags bit 1: deadline_ms u32 (remaining caller budget)
//!
//! requests:
//!   1 ping          (empty body)
//!   2 upload        record payload (ptm-store codec, runs to frame end)
//!   3               retired (multi-record upload); refused as an unknown tag
//!   4 query volume  location u64 | period u32
//!   5 query point   location u64 | count u16 | period u32 * count
//!   6 query p2p     loc_a u64 | loc_b u64 | count u16 | period u32 * count
//!   7 stats         (empty body; introspection snapshot)
//!
//! responses:
//!   128 pong        version u8 | s u32 | records u64 | flags u8 (bit 0 = degraded)
//!   129 upload ok   accepted u32 | duplicates u32
//!   130 estimate    f64 bits as u64
//!   131 error       code u8 | message len u16 | utf-8 message
//!   132 overloaded  retry_after_ms u32
//!   133 stats       utf-8 JSON document (runs to frame end)
//!   134 deadline exceeded  (empty body; the job sat past its wire deadline)
//!   135 going away  retry_after_ms u32 (server draining; reconnect later)
//! ```
//!
//! The trace context joins the daemon's spans to the caller's
//! (`docs/OBSERVABILITY.md` § Tracing); the deadline lets the daemon drop
//! work its caller has given up on (`docs/RPC.md` § Request lifecycle
//! under overload). Every client of the daemon ships in this workspace and
//! speaks [`PROTOCOL_VERSION`], so there is no negotiation: a payload whose
//! first byte is any other version decodes to
//! [`ProtoError::VersionMismatch`], which the daemon answers with
//! `Error{VersionMismatch}` before closing the connection.
//!
//! Traffic records ride in the exact `ptm-store` on-disk payload encoding,
//! so the daemon archives the bytes it validated (the codec is canonical)
//! and a reader of the archive decodes exactly what the client sent. An
//! upload's record bytes are the payload after its header
//! ([`DecodedRequest::header_len`]), which is what lets the daemon derive
//! their CRC from the frame's.

use ptm_core::encoding::LocationId;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_store::codec::{decode_record, encode_record_into};

/// The protocol version this build speaks, the only one it decodes.
pub const PROTOCOL_VERSION: u8 = 3;

/// Header flag bit: a `trace_id u64 | parent_span u64` pair follows.
const FLAG_TRACE: u8 = 0b0000_0001;

/// Header flag bit: a `deadline_ms u32` remaining-budget field follows
/// (after the trace pair when both flags are set).
const FLAG_DEADLINE: u8 = 0b0000_0010;

/// Every header flag bit this build understands.
const KNOWN_FLAGS: u8 = FLAG_TRACE | FLAG_DEADLINE;

/// Ceiling on periods per query (bounds decoder allocations).
pub const MAX_QUERY_PERIODS: usize = 4096;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the message was complete.
    Truncated,
    /// The version byte is not [`PROTOCOL_VERSION`].
    VersionMismatch {
        /// Version the peer sent.
        got: u8,
        /// The version this build speaks.
        want: u8,
    },
    /// The flags byte set bits this build does not know.
    UnknownFlags(u8),
    /// Unknown message tag.
    UnknownTag(u8),
    /// A count or length field exceeds sane bounds.
    BadLength(usize),
    /// Unknown error code byte in an error response.
    UnknownErrorCode(u8),
    /// An error message was not valid UTF-8.
    BadUtf8,
    /// An embedded traffic record failed to decode.
    BadRecord(String),
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "message truncated"),
            Self::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version {got} not supported (this build speaks {want})"
                )
            }
            Self::UnknownFlags(flags) => write!(f, "unknown header flag bits {flags:#010b}"),
            Self::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            Self::BadLength(len) => write!(f, "implausible length field {len}"),
            Self::UnknownErrorCode(code) => write!(f, "unknown error code {code}"),
            Self::BadUtf8 => write!(f, "error message is not valid utf-8"),
            Self::BadRecord(reason) => write!(f, "embedded record rejected: {reason}"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Application-level failure reported by the server.
///
/// The discriminants are the on-wire code bytes. Every code is **fatal**
/// for the request that provoked it — re-sending the same bytes yields the
/// same answer — so the client never retries them. Transport-level
/// failures (reset, timeout, mid-frame EOF) are the retryable class and
/// never appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request's version byte is not supported; connection closes.
    VersionMismatch = 1,
    /// The request could not be decoded; connection closes.
    Malformed = 2,
    /// A `(location, period)` slot is already filled with *different*
    /// contents. (An identical re-send is idempotent success, not this.)
    DuplicateConflict = 3,
    /// A query referenced a record the server never received.
    MissingRecord = 4,
    /// The estimator rejected the stored records (e.g. saturated bitmap).
    EstimateFailed = 5,
    /// Unclassified server-side failure.
    Internal = 7,
}

impl ErrorCode {
    fn from_byte(byte: u8) -> Result<Self, ProtoError> {
        Ok(match byte {
            1 => Self::VersionMismatch,
            2 => Self::Malformed,
            3 => Self::DuplicateConflict,
            4 => Self::MissingRecord,
            5 => Self::EstimateFailed,
            7 => Self::Internal,
            other => return Err(ProtoError::UnknownErrorCode(other)),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::VersionMismatch => "version-mismatch",
            Self::Malformed => "malformed",
            Self::DuplicateConflict => "duplicate-conflict",
            Self::MissingRecord => "missing-record",
            Self::EstimateFailed => "estimate-failed",
            Self::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// Client-to-server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Upload one traffic record.
    Upload(TrafficRecord),
    /// Plain traffic volume at one location in one period.
    QueryVolume {
        /// Location to query.
        location: LocationId,
        /// Period to query.
        period: PeriodId,
    },
    /// Point persistent traffic over the listed periods (paper Eq. 12).
    QueryPoint {
        /// Location to query.
        location: LocationId,
        /// Periods the vehicle must have appeared in.
        periods: Vec<PeriodId>,
    },
    /// Point-to-point persistent traffic (paper Eq. 21).
    QueryP2p {
        /// First location.
        location_a: LocationId,
        /// Second location.
        location_b: LocationId,
        /// Periods the vehicle must have appeared in at both locations.
        periods: Vec<PeriodId>,
    },
    /// Live introspection snapshot (metrics, shards, recorder tail).
    Stats,
}

/// Trace context carried in the header: which trace the request belongs
/// to and which client-side span is its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTrace {
    /// Trace id shared by every span of the round trip.
    pub trace_id: u64,
    /// The sender's open span, which server-side spans parent under.
    pub parent_span: u64,
}

/// A decoded request plus its header metadata: the carried trace context
/// and remaining deadline, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedRequest {
    /// The request message.
    pub request: Request,
    /// Trace context from the header (`None` when flags bit 0 is unset —
    /// the daemon then mints a local trace).
    pub trace: Option<WireTrace>,
    /// Remaining caller budget from the header (`None` when flags bit 1 is
    /// unset). The receiver anchors this at frame arrival to drop doomed
    /// work instead of executing it.
    pub deadline_ms: Option<u32>,
    /// Bytes of the payload header (version, tag, flags and the optional
    /// trace and deadline fields): an upload's record bytes are the rest
    /// of the payload.
    pub header_len: usize,
}

/// Server-to-client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`] (doubles as the health/readiness probe).
    Pong {
        /// Server protocol version.
        version: u8,
        /// Representative-bit count `s` the server estimates with.
        s: u32,
        /// Records currently held by the estimation engine.
        records: u64,
        /// Whether the server is in degraded read-only mode (archive
        /// backend failing; uploads are shed, queries still answered).
        degraded: bool,
    },
    /// Reply to an upload: how many records were newly accepted and how
    /// many were identical re-sends (idempotent duplicates).
    UploadOk {
        /// Records stored for the first time.
        accepted: u32,
        /// Identical re-sends absorbed without effect.
        duplicates: u32,
    },
    /// Reply to a query.
    Estimate(f64),
    /// Application-level failure.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server shed this request under load (or in degraded mode).
    ///
    /// Unlike [`Response::Error`] this is *retryable*: nothing about the
    /// request was wrong, the server just declined to do the work right
    /// now. Clients should wait at least `retry_after_ms` before retrying.
    Overloaded {
        /// Server's backoff hint, in milliseconds.
        retry_after_ms: u32,
    },
    /// Reply to [`Request::Stats`]: a JSON introspection document (schema
    /// in `docs/OBSERVABILITY.md` § Live introspection).
    Stats(String),
    /// The request's wire deadline expired before a worker picked it up;
    /// the server dropped it unexecuted. Retryable if the caller still has
    /// budget left.
    DeadlineExceeded,
    /// The server is draining for shutdown: it finished or will finish
    /// in-flight work but takes nothing new. Retryable against another
    /// (or the restarted) instance after `retry_after_ms`.
    GoingAway {
        /// Hand-off hint: how long to wait before reconnecting, ms.
        retry_after_ms: u32,
    },
}

const TAG_PING: u8 = 1;
const TAG_UPLOAD: u8 = 2;
const TAG_QUERY_VOLUME: u8 = 4;
const TAG_QUERY_POINT: u8 = 5;
const TAG_QUERY_P2P: u8 = 6;
const TAG_STATS: u8 = 7;
const TAG_PONG: u8 = 128;
const TAG_UPLOAD_OK: u8 = 129;
const TAG_ESTIMATE: u8 = 130;
const TAG_ERROR: u8 = 131;
const TAG_OVERLOADED: u8 = 132;
const TAG_STATS_REPLY: u8 = 133;
const TAG_DEADLINE_EXCEEDED: u8 = 134;
const TAG_GOING_AWAY: u8 = 135;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.pos + n > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let slice = self.take(2)?;
        let mut bytes = [0u8; 2];
        bytes.copy_from_slice(slice);
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let slice = self.take(4)?;
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(slice);
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let slice = self.take(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(slice);
        Ok(u64::from_le_bytes(bytes))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        let rest = self.buf.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(rest))
        }
    }
}

/// Appends a payload header to `out`: `version | tag | flags`, then the
/// 16-byte trace header and the 4-byte remaining-deadline field when
/// present.
fn header_into(tag: u8, trace: Option<WireTrace>, deadline_ms: Option<u32>, out: &mut Vec<u8>) {
    let mut flags = 0u8;
    if trace.is_some() {
        flags |= FLAG_TRACE;
    }
    if deadline_ms.is_some() {
        flags |= FLAG_DEADLINE;
    }
    out.extend_from_slice(&[PROTOCOL_VERSION, tag, flags]);
    if let Some(t) = trace {
        out.extend_from_slice(&t.trace_id.to_le_bytes());
        out.extend_from_slice(&t.parent_span.to_le_bytes());
    }
    if let Some(budget) = deadline_ms {
        out.extend_from_slice(&budget.to_le_bytes());
    }
}

/// Reads `version | tag | flags | [trace] | [deadline]`, accepting only
/// [`PROTOCOL_VERSION`].
fn read_header(
    reader: &mut Reader<'_>,
) -> Result<(u8, Option<WireTrace>, Option<u32>), ProtoError> {
    let version = reader.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::VersionMismatch {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    let tag = reader.u8()?;
    let flags = reader.u8()?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(ProtoError::UnknownFlags(flags));
    }
    let mut trace = None;
    if flags & FLAG_TRACE != 0 {
        trace = Some(WireTrace {
            trace_id: reader.u64()?,
            parent_span: reader.u64()?,
        });
    }
    let mut deadline_ms = None;
    if flags & FLAG_DEADLINE != 0 {
        deadline_ms = Some(reader.u32()?);
    }
    Ok((tag, trace, deadline_ms))
}

fn push_periods(out: &mut Vec<u8>, periods: &[PeriodId]) {
    out.extend_from_slice(&(periods.len() as u16).to_le_bytes());
    for period in periods {
        out.extend_from_slice(&period.get().to_le_bytes());
    }
}

fn read_periods(reader: &mut Reader<'_>) -> Result<Vec<PeriodId>, ProtoError> {
    let count = reader.u16()? as usize;
    if count > MAX_QUERY_PERIODS {
        return Err(ProtoError::BadLength(count));
    }
    (0..count)
        .map(|_| Ok(PeriodId::new(reader.u32()?)))
        .collect()
}

/// Encodes a request payload (framing not included), carrying no trace
/// context or deadline.
pub fn encode_request(request: &Request) -> Vec<u8> {
    encode_request_with(request, None, None)
}

/// Encodes a request payload with optional trace context and remaining
/// deadline budget in the header (framing not included).
pub fn encode_request_with(
    request: &Request,
    trace: Option<WireTrace>,
    deadline_ms: Option<u32>,
) -> Vec<u8> {
    let mut out = Vec::new();
    let mut header = |tag| header_into(tag, trace, deadline_ms, &mut out);
    match request {
        Request::Ping => header(TAG_PING),
        Request::Upload(record) => encode_upload_into(record, trace, deadline_ms, &mut out),
        Request::QueryVolume { location, period } => {
            header(TAG_QUERY_VOLUME);
            out.extend_from_slice(&location.get().to_le_bytes());
            out.extend_from_slice(&period.get().to_le_bytes());
        }
        Request::QueryPoint { location, periods } => {
            header(TAG_QUERY_POINT);
            out.extend_from_slice(&location.get().to_le_bytes());
            push_periods(&mut out, periods);
        }
        Request::QueryP2p {
            location_a,
            location_b,
            periods,
        } => {
            header(TAG_QUERY_P2P);
            out.extend_from_slice(&location_a.get().to_le_bytes());
            out.extend_from_slice(&location_b.get().to_le_bytes());
            push_periods(&mut out, periods);
        }
        Request::Stats => header(TAG_STATS),
    }
    out
}

/// Appends the [`Request::Upload`] payload for a borrowed record to `out`:
/// the bytes [`encode_request_with`] gives for `Request::Upload`, without
/// copying the record into a request first. A client encodes each upload
/// with it straight into the frame that ships it.
pub(crate) fn encode_upload_into(
    record: &TrafficRecord,
    trace: Option<WireTrace>,
    deadline_ms: Option<u32>,
    out: &mut Vec<u8>,
) {
    header_into(TAG_UPLOAD, trace, deadline_ms, out);
    encode_record_into(record, out);
}

/// Decodes a request payload together with its header metadata (optional
/// trace context and deadline).
///
/// # Errors
///
/// Any [`ProtoError`] — version mismatch, truncation, bad tags, flags or
/// lengths, malformed embedded records, trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<DecodedRequest, ProtoError> {
    let mut r = Reader::new(payload);
    let (tag, trace, deadline_ms) = read_header(&mut r)?;
    let header_len = r.pos;
    let request = match tag {
        TAG_PING => Request::Ping,
        TAG_UPLOAD => Request::Upload(
            decode_record(r.rest()).map_err(|err| ProtoError::BadRecord(err.to_string()))?,
        ),
        TAG_QUERY_VOLUME => Request::QueryVolume {
            location: LocationId::new(r.u64()?),
            period: PeriodId::new(r.u32()?),
        },
        TAG_QUERY_POINT => Request::QueryPoint {
            location: LocationId::new(r.u64()?),
            periods: read_periods(&mut r)?,
        },
        TAG_QUERY_P2P => Request::QueryP2p {
            location_a: LocationId::new(r.u64()?),
            location_b: LocationId::new(r.u64()?),
            periods: read_periods(&mut r)?,
        },
        TAG_STATS => Request::Stats,
        other => return Err(ProtoError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(DecodedRequest {
        request,
        trace,
        deadline_ms,
        header_len,
    })
}

/// Encodes a response payload (framing not included).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(response, &mut out);
    out
}

/// Encodes a response payload directly into `out` — the zero-allocation
/// form of [`encode_response`] used by the reactor's reusable
/// per-connection write buffers.
pub fn encode_response_into(response: &Response, out: &mut Vec<u8>) {
    match response {
        Response::Pong {
            version,
            s,
            records,
            degraded,
        } => {
            header_into(TAG_PONG, None, None, out);
            out.push(*version);
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&records.to_le_bytes());
            out.push(u8::from(*degraded));
        }
        Response::UploadOk {
            accepted,
            duplicates,
        } => {
            header_into(TAG_UPLOAD_OK, None, None, out);
            out.extend_from_slice(&accepted.to_le_bytes());
            out.extend_from_slice(&duplicates.to_le_bytes());
        }
        Response::Estimate(value) => {
            header_into(TAG_ESTIMATE, None, None, out);
            out.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        Response::Error { code, message } => {
            header_into(TAG_ERROR, None, None, out);
            out.push(*code as u8);
            let bytes = message.as_bytes();
            let len = bytes.len().min(u16::MAX as usize);
            out.extend_from_slice(&(len as u16).to_le_bytes());
            out.extend_from_slice(&bytes[..len]);
        }
        Response::Overloaded { retry_after_ms } => {
            header_into(TAG_OVERLOADED, None, None, out);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Response::Stats(json) => {
            header_into(TAG_STATS_REPLY, None, None, out);
            out.extend_from_slice(json.as_bytes());
        }
        Response::DeadlineExceeded => header_into(TAG_DEADLINE_EXCEEDED, None, None, out),
        Response::GoingAway { retry_after_ms } => {
            header_into(TAG_GOING_AWAY, None, None, out);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
    }
}

/// Decodes a response payload.
///
/// # Errors
///
/// Any [`ProtoError`].
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut r = Reader::new(payload);
    let (tag, _trace, _deadline) = read_header(&mut r)?;
    let response = match tag {
        TAG_PONG => Response::Pong {
            version: r.u8()?,
            s: r.u32()?,
            records: r.u64()?,
            degraded: r.u8()? & 1 != 0,
        },
        TAG_UPLOAD_OK => Response::UploadOk {
            accepted: r.u32()?,
            duplicates: r.u32()?,
        },
        TAG_ESTIMATE => Response::Estimate(f64::from_bits(r.u64()?)),
        TAG_ERROR => {
            let code = ErrorCode::from_byte(r.u8()?)?;
            let len = r.u16()? as usize;
            let message = std::str::from_utf8(r.take(len)?)
                .map_err(|_| ProtoError::BadUtf8)?
                .to_owned();
            Response::Error { code, message }
        }
        TAG_OVERLOADED => Response::Overloaded {
            retry_after_ms: r.u32()?,
        },
        TAG_STATS_REPLY => Response::Stats(
            std::str::from_utf8(r.rest())
                .map_err(|_| ProtoError::BadUtf8)?
                .to_owned(),
        ),
        TAG_DEADLINE_EXCEEDED => Response::DeadlineExceeded,
        TAG_GOING_AWAY => Response::GoingAway {
            retry_after_ms: r.u32()?,
        },
        other => return Err(ProtoError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::frame::append_frame_with;
    use ptm_core::encoding::{EncodingScheme, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use ptm_store::codec::encode_record;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A payload header alone.
    fn header_for(tag: u8, trace: Option<WireTrace>, deadline_ms: Option<u32>) -> Vec<u8> {
        let mut out = Vec::new();
        header_into(tag, trace, deadline_ms, &mut out);
        out
    }

    /// A record whose bit `i` of `m` is set when `(37 i + 11) mod 7 < 2`.
    fn fixed_record(location: u64, period: u32, m: usize) -> TrafficRecord {
        let mut record = TrafficRecord::new(
            LocationId::new(location),
            PeriodId::new(period),
            BitmapSize::new(m).expect("pow2"),
        );
        for i in (0..m).filter(|i| (i * 37 + 11) % 7 < 2) {
            record.set_reported_index(i);
        }
        record
    }

    /// Valid request payloads: every request kind (an upload of a tiny
    /// record), each with no header extension, with a trace context, with a
    /// deadline, and with both.
    pub(crate) fn request_corpus() -> Vec<Vec<u8>> {
        let requests = [
            Request::Ping,
            Request::Upload(fixed_record(3, 0, 16)),
            Request::QueryVolume {
                location: LocationId::new(3),
                period: PeriodId::new(1),
            },
            Request::QueryPoint {
                location: LocationId::new(3),
                periods: periods(3),
            },
            Request::QueryP2p {
                location_a: LocationId::new(3),
                location_b: LocationId::new(4),
                periods: periods(2),
            },
            Request::Stats,
        ];
        let trace = WireTrace {
            trace_id: 0x0123_4567_89AB_CDEF,
            parent_span: 42,
        };
        let headers = [
            (None, None),
            (Some(trace), None),
            (None, Some(250)),
            (Some(trace), Some(250)),
        ];
        requests
            .iter()
            .flat_map(|request| {
                headers
                    .iter()
                    .map(move |&(trace, deadline)| encode_request_with(request, trace, deadline))
            })
            .collect()
    }

    fn sample_record(seed: u64, period: u32) -> TrafficRecord {
        let scheme = EncodingScheme::new(seed, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut record = TrafficRecord::new(
            LocationId::new(9),
            PeriodId::new(period),
            BitmapSize::new(1024).expect("pow2"),
        );
        for _ in 0..150 {
            let v = VehicleSecrets::generate(&mut rng, 3);
            record.encode(&scheme, &v);
        }
        record
    }

    fn periods(n: u32) -> Vec<PeriodId> {
        (0..n).map(PeriodId::new).collect()
    }

    #[test]
    fn every_request_roundtrips() {
        let requests = [
            Request::Ping,
            Request::Upload(sample_record(1, 0)),
            Request::QueryVolume {
                location: LocationId::new(4),
                period: PeriodId::new(7),
            },
            Request::QueryPoint {
                location: LocationId::new(5),
                periods: periods(6),
            },
            Request::QueryP2p {
                location_a: LocationId::new(1),
                location_b: LocationId::new(2),
                periods: periods(3),
            },
            Request::Stats,
        ];
        for request in requests {
            let payload = encode_request(&request);
            assert_eq!(payload[0], PROTOCOL_VERSION);
            let decoded = decode_request(&payload).expect("decode");
            assert_eq!(decoded.request, request, "{request:?}");
            assert_eq!(decoded.trace, None, "untraced encode carries no context");
        }
    }

    #[test]
    fn traced_request_roundtrips_context() {
        let trace = WireTrace {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            parent_span: 42,
        };
        let payload = encode_request_with(&Request::Ping, Some(trace), None);
        let decoded = decode_request(&payload).expect("decode");
        assert_eq!(decoded.request, Request::Ping);
        assert_eq!(decoded.trace, Some(trace));
    }

    #[test]
    fn unknown_flag_bits_rejected() {
        let mut payload = encode_request(&Request::Ping);
        payload[2] = 0b0000_0100;
        assert_eq!(
            decode_request(&payload),
            Err(ProtoError::UnknownFlags(0b0000_0100))
        );
    }

    #[test]
    fn deadline_roundtrips_alone_and_with_trace() {
        let payload = encode_request_with(&Request::Ping, None, Some(750));
        let decoded = decode_request(&payload).expect("decode");
        assert_eq!(decoded.deadline_ms, Some(750));
        assert_eq!(decoded.trace, None);

        let trace = WireTrace {
            trace_id: 7,
            parent_span: 9,
        };
        let payload = encode_request_with(
            &Request::QueryVolume {
                location: LocationId::new(3),
                period: PeriodId::new(1),
            },
            Some(trace),
            Some(u32::MAX),
        );
        let decoded = decode_request(&payload).expect("decode");
        assert_eq!(decoded.trace, Some(trace));
        assert_eq!(decoded.deadline_ms, Some(u32::MAX));
        assert_eq!(
            decoded.request,
            Request::QueryVolume {
                location: LocationId::new(3),
                period: PeriodId::new(1),
            }
        );
    }

    /// The header is 3 bytes, plus 16 for a trace and 4 for a deadline, and
    /// an upload's record bytes are the rest of the payload: what the
    /// daemon derives the archived frame's CRC over.
    #[test]
    fn an_upload_record_is_the_payload_after_its_header() {
        let record = sample_record(2, 5);
        let trace = WireTrace {
            trace_id: 1,
            parent_span: 2,
        };
        for (trace, deadline_ms, header_len) in [
            (None, None, 3),
            (Some(trace), None, 19),
            (None, Some(9), 7),
            (Some(trace), Some(9), 23),
        ] {
            let payload = encode_request_with(&Request::Upload(record.clone()), trace, deadline_ms);
            let decoded = decode_request(&payload).expect("decode");
            assert_eq!(decoded.header_len, header_len);
            assert_eq!(
                &payload[header_len..],
                ptm_store::codec::encode_record(&record)
            );
        }
    }

    #[test]
    fn undeadlined_request_carries_no_deadline() {
        let payload = encode_request_with(&Request::Ping, None, None);
        let decoded = decode_request(&payload).expect("decode");
        assert_eq!(decoded.deadline_ms, None);
    }

    #[test]
    fn every_response_roundtrips() {
        let responses = [
            Response::Pong {
                version: PROTOCOL_VERSION,
                s: 3,
                records: 12_345,
                degraded: false,
            },
            Response::Pong {
                version: PROTOCOL_VERSION,
                s: 3,
                records: 0,
                degraded: true,
            },
            Response::UploadOk {
                accepted: 10,
                duplicates: 2,
            },
            Response::Estimate(123.456),
            Response::Estimate(f64::NAN),
            Response::Error {
                code: ErrorCode::MissingRecord,
                message: "loc 3 period 9".into(),
            },
            Response::Overloaded {
                retry_after_ms: 250,
            },
            Response::Stats("{\"counters\":{}}".into()),
            Response::DeadlineExceeded,
            Response::GoingAway { retry_after_ms: 80 },
        ];
        for response in responses {
            let payload = encode_response(&response);
            let back = decode_response(&payload).expect("decode");
            match (&response, &back) {
                // NaN != NaN; compare bit patterns instead.
                (Response::Estimate(a), Response::Estimate(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                _ => assert_eq!(&back, &response),
            }
        }
    }

    #[test]
    fn version_mismatch_detected() {
        // Any first byte but PROTOCOL_VERSION is rejected — on a full v3
        // payload and on the bare two-byte `version | tag` header the
        // retired v1/v2 dialects sent.
        for got in [0u8, 1, 2, 4, 99] {
            let mut full = encode_request(&Request::QueryVolume {
                location: LocationId::new(9),
                period: PeriodId::new(4),
            });
            full[0] = got;
            let want = ProtoError::VersionMismatch {
                got,
                want: PROTOCOL_VERSION,
            };
            for payload in [full, vec![got, TAG_PING]] {
                assert_eq!(decode_request(&payload), Err(want.clone()), "{payload:?}");
                assert_eq!(decode_response(&payload), Err(want.clone()), "{payload:?}");
            }
        }
    }

    #[test]
    fn truncation_detected_everywhere() {
        let payload = encode_request(&Request::QueryPoint {
            location: LocationId::new(1),
            periods: periods(4),
        });
        for cut in 0..payload.len() {
            assert!(decode_request(&payload[..cut]).is_err(), "cut {cut}");
        }
        for payload in request_corpus() {
            assert!(decode_request(&payload).is_ok(), "{payload:?}");
            for cut in 0..payload.len() {
                assert!(
                    decode_request(&payload[..cut]).is_err(),
                    "cut {cut} of {payload:?}"
                );
            }
        }
        let payload = encode_response(&Response::Error {
            code: ErrorCode::Internal,
            message: "details".into(),
        });
        for cut in 0..payload.len() {
            assert!(decode_response(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request(&Request::Ping);
        payload.push(0);
        assert_eq!(decode_request(&payload), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tags_and_codes_rejected() {
        // Tag 3 (the retired multi-record upload) and code 6 (the retired
        // storage error) are refused like bytes never assigned.
        for tag in [3, 42] {
            assert_eq!(
                decode_request(&[PROTOCOL_VERSION, tag, 0]),
                Err(ProtoError::UnknownTag(tag))
            );
        }
        assert_eq!(
            decode_response(&[PROTOCOL_VERSION, 42, 0]),
            Err(ProtoError::UnknownTag(42))
        );
        for code in [6, 200] {
            let mut payload = encode_response(&Response::Error {
                code: ErrorCode::Internal,
                message: String::new(),
            });
            payload[3] = code;
            assert_eq!(
                decode_response(&payload),
                Err(ProtoError::UnknownErrorCode(code))
            );
        }
    }

    #[test]
    fn oversized_counts_rejected() {
        // Period count beyond the ceiling.
        let mut payload = header_for(TAG_QUERY_POINT, None, None);
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&(MAX_QUERY_PERIODS as u16 + 1).to_le_bytes());
        assert_eq!(
            decode_request(&payload),
            Err(ProtoError::BadLength(MAX_QUERY_PERIODS + 1))
        );
    }

    #[test]
    fn malformed_embedded_record_reported() {
        let mut payload = header_for(TAG_UPLOAD, None, None);
        payload.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            decode_request(&payload),
            Err(ProtoError::BadRecord(_))
        ));
    }

    #[test]
    fn upload_payload_matches_archive_codec() {
        // The embedded record bytes are exactly the ptm-store payload, so
        // what the daemon archives is byte-identical to what was sent.
        let record = sample_record(5, 3);
        let payload = encode_request(&Request::Upload(record.clone()));
        assert_eq!(&payload[3..], encode_record(&record).as_slice());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|byte| format!("{byte:02x}")).collect()
    }

    /// `Upload` wire frames of a fixed 256-bit record, plain and with a
    /// trace context and deadline, byte for byte as protocol v3 has always
    /// framed them: encoding in place changes no byte on the wire.
    #[test]
    fn upload_frames_keep_their_golden_bytes() {
        const UPLOAD: &str = "37000000aabbee1803020008070605040302010d0c0b0a0001000000000000\
            2412894422914824128944229148241289442291482412894422914824128944";
        const UPLOAD_TRACED: &str = "4b0000007fac3f1e030203887766554433221100ffeeddccbbaa99dc05\
            000008070605040302010d0c0b0a00010000000000002412894422914824128944\
            229148241289442291482412894422914824128944";
        let a = fixed_record(0x0102_0304_0506_0708, 0x0A0B_0C0D, 256);
        let trace = Some(WireTrace {
            trace_id: 0x1122_3344_5566_7788,
            parent_span: 0x99AA_BBCC_DDEE_FF00,
        });
        let frame = |build: &dyn Fn(&mut Vec<u8>)| {
            let mut wire = Vec::new();
            append_frame_with(&mut wire, build);
            hex(&wire)
        };
        assert_eq!(
            frame(&|out| encode_upload_into(&a, None, None, out)),
            UPLOAD
        );
        let request = Request::Upload(a.clone());
        assert_eq!(
            frame(&|out| out.extend_from_slice(&encode_request(&request))),
            UPLOAD
        );
        assert_eq!(
            frame(&|out| encode_upload_into(&a, trace, Some(1500), out)),
            UPLOAD_TRACED
        );
    }
}
