//! Length-prefixed, CRC-checked transport frames.
//!
//! Every RPC payload travels inside one frame:
//!
//! ```text
//! length  u32 LE   payload length in bytes (header excluded)
//! crc32   u32 LE   CRC-32 (IEEE) of the payload, from `ptm-store`
//! payload [u8]     versioned RPC message (see [`crate::proto`])
//! ```
//!
//! The reader distinguishes four situations a byte stream can be in:
//!
//! * a complete, checksum-valid frame — returned as [`ReadOutcome::Frame`];
//! * a clean close *between* frames — [`ReadOutcome::Closed`];
//! * a read timeout *between* frames — [`ReadOutcome::Idle`], so a server
//!   can poll its shutdown flag without dropping a healthy idle connection;
//! * anything else (EOF or timeout mid-frame, an implausible length, a
//!   checksum mismatch) — a hard [`FrameError`], after which the connection
//!   is unusable and must be closed.

use ptm_store::crc32::crc32;
use std::io::{self, IoSlice, Read, Write};

/// Bytes in the fixed frame header (length + checksum).
pub const FRAME_HEADER_LEN: usize = 8;

/// Default upper bound on a payload: `ptm-store`'s largest sane archived
/// record (an 8 MiB bitmap) with room to spare.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// Transport-level failures.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure (including timeouts mid-frame).
    Io(io::Error),
    /// The peer closed the stream in the middle of a frame.
    Truncated,
    /// The peer stalled (timeout) in the middle of a frame.
    Stalled,
    /// The length field exceeds the configured maximum.
    TooLarge {
        /// Length the header claimed.
        len: u32,
        /// Configured ceiling.
        max: u32,
    },
    /// The payload failed its CRC check.
    BadCrc {
        /// Checksum carried by the header.
        expected: u32,
        /// Checksum computed over the received payload.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(err) => write!(f, "frame i/o error: {err}"),
            Self::Truncated => write!(f, "stream closed mid-frame"),
            Self::Stalled => write!(f, "peer stalled mid-frame"),
            Self::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max} byte limit")
            }
            Self::BadCrc { expected, actual } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

/// What [`read_frame`] found on the stream.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, checksum-valid payload.
    Frame(Vec<u8>),
    /// A read timeout fired before any byte of the next frame arrived.
    Idle,
    /// The peer closed the stream cleanly between frames.
    Closed,
}

/// Whether a read error is a socket read timeout.
pub(crate) fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

enum Fill {
    Full,
    /// EOF before the first byte of the frame.
    CleanEof,
    /// Timeout before the first byte of the frame.
    CleanTimeout,
}

/// Fills `buf` completely, or reports a clean EOF/timeout if the frame has
/// not started (`in_frame` false and nothing read yet). EOF mid-frame is
/// [`FrameError::Truncated`], and a timeout mid-frame is
/// [`FrameError::Stalled`]: the partial bytes cannot be handed back, so
/// reporting the timeout as idleness would desync the stream.
fn fill(reader: &mut impl Read, buf: &mut [u8], in_frame: bool) -> Result<Fill, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let started = in_frame || filled > 0;
        match reader.read(&mut buf[filled..]) {
            Ok(0) if !started => return Ok(Fill::CleanEof),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) if is_timeout(&err) && !started => return Ok(Fill::CleanTimeout),
            Err(err) if is_timeout(&err) => return Err(FrameError::Stalled),
            Err(err) => return Err(FrameError::Io(err)),
        }
    }
    Ok(Fill::Full)
}

/// Reads one frame from a blocking stream into a fresh payload `Vec`.
/// `max_len` bounds the accepted payload length. The first read timeout
/// that lands mid-frame is a hard [`FrameError::Stalled`]; a peer that
/// may pause mid-frame is read through a [`FrameDecoder`] instead, whose
/// caller owns the stall policy.
///
/// # Errors
///
/// Any [`FrameError`]; see the module docs for the idle/closed distinction.
pub fn read_frame(reader: &mut impl Read, max_len: u32) -> Result<ReadOutcome, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    match fill(reader, &mut header, false)? {
        Fill::CleanEof => return Ok(ReadOutcome::Closed),
        Fill::CleanTimeout => return Ok(ReadOutcome::Idle),
        Fill::Full => {}
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    match fill(reader, &mut payload, true)? {
        Fill::Full => {}
        // The header was already consumed, so the frame has started and
        // fill() can only report these before the first byte of a frame.
        Fill::CleanEof | Fill::CleanTimeout => return Err(FrameError::Truncated),
    }
    let actual = crc32(&payload);
    if actual != expected {
        return Err(FrameError::BadCrc { expected, actual });
    }
    Ok(ReadOutcome::Frame(payload))
}

/// Writes one frame (header + payload) and flushes the writer.
///
/// # Errors
///
/// Underlying I/O failures.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), io::Error> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Writes one frame with a vectored write — header and payload go out in a
/// single syscall with no staging copy of the payload — and flushes.
///
/// Behaviorally identical to [`write_frame`]; this is the zero-copy
/// variant for hot paths that already hold the encoded payload.
///
/// # Errors
///
/// Underlying I/O failures (a `write` that makes no progress surfaces as
/// [`io::ErrorKind::WriteZero`]).
pub fn write_frame_vectored(writer: &mut impl Write, payload: &[u8]) -> Result<(), io::Error> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    let total = FRAME_HEADER_LEN + payload.len();
    let mut written = 0usize;
    while written < total {
        let result = if written < FRAME_HEADER_LEN {
            writer.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(payload)])
        } else {
            writer.write(&payload[written - FRAME_HEADER_LEN..])
        };
        match result {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "frame write made no progress",
                ))
            }
            Ok(n) => written += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    writer.flush()
}

/// Appends one frame to `out`, letting `build` encode the payload directly
/// into the buffer — no intermediate payload `Vec`. The 8-byte header is
/// reserved up front and backfilled with the length and CRC once the
/// payload is in place.
///
/// This is the write-side half of the zero-copy wire path: a connection's
/// reusable output buffer accumulates any number of frames (ack batching)
/// and ships them with one write.
pub fn append_frame_with<F: FnOnce(&mut Vec<u8>)>(out: &mut Vec<u8>, build: F) {
    let header_at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    build(out);
    let payload_len = out.len() - header_at - FRAME_HEADER_LEN;
    let crc = crc32(&out[header_at + FRAME_HEADER_LEN..]);
    out[header_at..header_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[header_at + 4..header_at + FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Bytes each [`FrameDecoder::read_from`] call asks the stream for, and
/// the spare capacity the decoder keeps available between reads.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Buffer size above which [`FrameDecoder::reclaim`] shrinks an emptied
/// decoder back down, so one oversized frame does not pin its high-water
/// mark forever.
const RECLAIM_ABOVE: usize = 256 * 1024;

/// An incremental, zero-copy frame decoder over one reusable buffer.
///
/// Where [`read_frame`] pulls a frame out of a blocking stream — blocking
/// until it completes and allocating a fresh payload `Vec` — the decoder
/// is the nonblocking half of the same protocol: feed it whatever bytes
/// the socket has right now with [`FrameDecoder::read_from`], then drain
/// complete frames with [`FrameDecoder::next_frame`], which yields each
/// CRC-checked payload **in place** as a slice of the buffer. In steady
/// state (frames no larger than the buffer's high-water mark) the decode
/// path performs no allocation per frame; consumed bytes are compacted
/// away lazily before the next read.
///
/// The caller owns the idle/stalled policy: [`FrameDecoder::has_partial`]
/// says whether a frame has started arriving, which is what distinguishes
/// a quiet-but-healthy connection from a peer stalled mid-frame. The
/// daemon's reactor reads every connection through one, and so does each
/// client connection for its replies.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// One past the last buffered byte.
    end: usize,
    max_len: u32,
}

impl FrameDecoder {
    /// Creates a decoder accepting payloads up to `max_len` bytes.
    pub fn new(max_len: u32) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_len,
        }
    }

    /// Bytes buffered but not yet consumed by [`FrameDecoder::next_frame`].
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// True when part of a frame has arrived — after draining complete
    /// frames, any leftover bytes are a frame still in flight. This is the
    /// idle-versus-stalled discriminator: a timeout with `has_partial()`
    /// false is a healthy idle connection; with it true, a peer that has
    /// exhausted its stall budget is stuck mid-frame.
    pub fn has_partial(&self) -> bool {
        self.end > self.start
    }

    /// Makes room for the next read: compacts consumed bytes to the front
    /// when the tail is short on space, and grows the buffer only when a
    /// frame genuinely needs more than the current capacity.
    fn ensure_spare(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end >= READ_CHUNK {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        // If a frame header is already buffered, size for the whole frame;
        // otherwise a chunk of spare is plenty.
        let mut target = self.end + READ_CHUNK;
        if self.end >= 4 {
            let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
            if len <= self.max_len {
                target = target.max(FRAME_HEADER_LEN + len as usize);
            }
        }
        if self.buf.len() < target {
            self.buf.resize(target, 0);
        }
    }

    /// Reads once from `reader` into the buffer, returning how many bytes
    /// arrived. `Ok(0)` is end-of-stream; `WouldBlock`/`TimedOut` errors
    /// pass through untouched for the caller's idle/stall policy.
    ///
    /// # Errors
    ///
    /// Whatever the underlying read reports.
    pub fn read_from(&mut self, reader: &mut impl Read) -> io::Result<usize> {
        self.ensure_spare();
        let n = reader.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Yields the next complete, CRC-checked frame payload as an in-place
    /// slice, `Ok(None)` when more bytes are needed first.
    ///
    /// The returned slice borrows the decoder's buffer; it stays valid
    /// until the next call that touches the decoder (the borrow checker
    /// enforces exactly that).
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] or [`FrameError::BadCrc`]; both leave the
    /// stream unusable, matching [`read_frame`].
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        Ok(self.next_frame_with_crc()?.map(|(payload, _)| payload))
    }

    /// [`FrameDecoder::next_frame`], also handing back the payload's CRC-32
    /// it just checked, so a receiver can derive the CRC of part of the
    /// payload ([`ptm_store::crc32::crc32_combine`]) without reading it
    /// again.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_frame`].
    pub fn next_frame_with_crc(&mut self) -> Result<Option<(&[u8], u32)>, FrameError> {
        let avail = self.end - self.start;
        if avail < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let h = self.start;
        let len = u32::from_le_bytes([
            self.buf[h],
            self.buf[h + 1],
            self.buf[h + 2],
            self.buf[h + 3],
        ]);
        let expected = u32::from_le_bytes([
            self.buf[h + 4],
            self.buf[h + 5],
            self.buf[h + 6],
            self.buf[h + 7],
        ]);
        if len > self.max_len {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_len,
            });
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if avail < total {
            return Ok(None);
        }
        let payload_start = h + FRAME_HEADER_LEN;
        let payload_end = payload_start + len as usize;
        let actual = crc32(&self.buf[payload_start..payload_end]);
        if actual != expected {
            return Err(FrameError::BadCrc { expected, actual });
        }
        self.start += total;
        Ok(Some((&self.buf[payload_start..payload_end], actual)))
    }

    /// Releases an oversized buffer once it has fully drained, so one
    /// large frame does not pin hundreds of kilobytes per connection for
    /// the rest of its life. A no-op while bytes are buffered or while the
    /// buffer is already modest (the steady state stays allocation-free).
    pub fn reclaim(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > RECLAIM_ABOVE {
                self.buf = Vec::new();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).expect("vec write");
        out
    }

    #[test]
    fn roundtrip() {
        let bytes = frame_bytes(b"hello frames");
        let mut cursor = Cursor::new(bytes);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect("read") {
            ReadOutcome::Frame(payload) => assert_eq!(payload, b"hello frames"),
            other => panic!("expected frame, got {other:?}"),
        }
        // The stream is now cleanly exhausted.
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect("eof"),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = frame_bytes(b"");
        let mut cursor = Cursor::new(bytes);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect("read") {
            ReadOutcome::Frame(payload) => assert!(payload.is_empty()),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn truncation_mid_header_and_mid_payload() {
        let bytes = frame_bytes(b"0123456789");
        for cut in 1..bytes.len() {
            let mut cursor = Cursor::new(bytes[..cut].to_vec());
            let err = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
                .expect_err("truncated stream must fail");
            assert!(matches!(err, FrameError::Truncated), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut bytes = frame_bytes(b"payload under test");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut cursor = Cursor::new(bytes);
        let err = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect_err("bad crc");
        assert!(matches!(err, FrameError::BadCrc { .. }), "{err:?}");
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = Cursor::new(bytes);
        let err = read_frame(&mut cursor, 1024).expect_err("too large");
        assert!(
            matches!(
                err,
                FrameError::TooLarge {
                    len: u32::MAX,
                    max: 1024
                }
            ),
            "{err:?}"
        );
    }

    /// Yields its chunks one `read` call at a time, returning a timeout
    /// error between chunks — the shape of a slow writer on a socket with
    /// a short read timeout.
    struct SlowReader {
        chunks: std::collections::VecDeque<Vec<u8>>,
        ready: Option<Vec<u8>>,
    }

    impl SlowReader {
        fn new(bytes: &[u8], chunk_len: usize) -> Self {
            let mut chunks: std::collections::VecDeque<Vec<u8>> =
                bytes.chunks(chunk_len).map(<[u8]>::to_vec).collect();
            // The first chunk is immediately readable; each later chunk
            // "arrives" only after one timeout.
            let ready = chunks.pop_front();
            Self { chunks, ready }
        }
    }

    impl Read for SlowReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if let Some(chunk) = self.ready.take() {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    self.ready = Some(chunk[n..].to_vec());
                }
                return Ok(n);
            }
            match self.chunks.pop_front() {
                Some(chunk) => {
                    // The chunk becomes readable only after one timeout,
                    // like data that arrives between two poll intervals.
                    self.ready = Some(chunk);
                    Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "poll interval elapsed",
                    ))
                }
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "no more data")),
            }
        }
    }

    #[test]
    fn partial_header_then_timeout_is_stalled_never_idle() {
        // 3 of the 8 header bytes arrive, then the peer goes quiet. This
        // must be a hard Stalled error — reporting it as Idle would drop
        // the 3 bytes and desync the stream.
        let bytes = frame_bytes(b"payload");
        let mut reader = SlowReader::new(&bytes[..3], 3);
        let err = read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).expect_err("stalled");
        assert!(matches!(err, FrameError::Stalled), "{err:?}");
    }

    #[test]
    fn timeout_before_any_byte_is_idle() {
        let mut reader = SlowReader::new(&[], 1);
        assert!(matches!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).expect("idle"),
            ReadOutcome::Idle
        ));
    }

    /// Feeds `reader` through a decoder until a read times out, and says
    /// whether a frame had started: the flag a decoder's caller turns into
    /// [`FrameError::Stalled`] once its own stall budget runs out.
    fn decoder_partial_at_first_timeout(reader: &mut SlowReader) -> bool {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        loop {
            match decoder.read_from(reader) {
                Ok(n) => assert!(n > 0, "a SlowReader never reports EOF"),
                Err(err) if is_timeout(&err) => break,
                Err(err) => panic!("unexpected read error: {err}"),
            }
        }
        assert!(decoder.next_frame().expect("incomplete").is_none());
        decoder.has_partial()
    }

    #[test]
    fn slow_writer_exceeding_stall_budget_is_stalled() {
        // read_frame has no stall budget, so the first mid-frame timeout is
        // Stalled — and partial header bytes are still never reported as
        // Idle. A decoder keeps the partial bytes and flags the frame as
        // started, so its caller applies its budget instead.
        let bytes = frame_bytes(b"never finishes");
        let mut reader = SlowReader::new(&bytes[..5], 1);
        let err = read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).expect_err("stalled");
        assert!(matches!(err, FrameError::Stalled), "{err:?}");
        assert!(decoder_partial_at_first_timeout(&mut SlowReader::new(
            &bytes[..5],
            1
        )));
    }

    #[test]
    fn stall_budget_applies_to_payload_too() {
        // Header arrives whole, then the payload stalls: Truncated/Idle
        // must not be reported, for read_frame or for a decoder's caller.
        let bytes = frame_bytes(b"0123456789");
        let cut = FRAME_HEADER_LEN + 4;
        let mut reader = SlowReader::new(&bytes[..cut], FRAME_HEADER_LEN);
        let err = read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).expect_err("stalled");
        assert!(matches!(err, FrameError::Stalled), "{err:?}");
        assert!(decoder_partial_at_first_timeout(&mut SlowReader::new(
            &bytes[..cut],
            FRAME_HEADER_LEN
        )));
    }

    #[test]
    fn error_display_and_source() {
        let err = FrameError::BadCrc {
            expected: 1,
            actual: 2,
        };
        assert!(err.to_string().contains("crc"));
        let err = FrameError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "x"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn decoder_extracts_multiple_frames_from_one_feed() {
        let mut wire = frame_bytes(b"first");
        wire.extend_from_slice(&frame_bytes(b"second"));
        wire.extend_from_slice(&frame_bytes(b""));
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut cursor = io::Cursor::new(wire);
        assert!(decoder.read_from(&mut cursor).expect("read") > 0);
        assert_eq!(decoder.next_frame().expect("f1"), Some(&b"first"[..]));
        assert_eq!(decoder.next_frame().expect("f2"), Some(&b"second"[..]));
        assert_eq!(decoder.next_frame().expect("f3"), Some(&b""[..]));
        assert_eq!(decoder.next_frame().expect("empty"), None);
        assert!(!decoder.has_partial());
    }

    #[test]
    fn decoder_handles_byte_at_a_time_feeds() {
        let wire = frame_bytes(b"dribbled in slowly");
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut done = false;
        for byte in wire {
            let mut one = io::Cursor::new([byte]);
            decoder.read_from(&mut one).expect("read");
            if let Some(payload) = decoder.next_frame().expect("decode") {
                assert_eq!(payload, b"dribbled in slowly");
                done = true;
            }
        }
        assert!(done);
        assert!(!decoder.has_partial());
    }

    #[test]
    fn decoder_partial_flag_tracks_in_flight_frames() {
        let wire = frame_bytes(b"half");
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        assert!(!decoder.has_partial());
        let mut head = io::Cursor::new(&wire[..3]);
        decoder.read_from(&mut head).expect("read");
        assert!(decoder.next_frame().expect("incomplete").is_none());
        assert!(decoder.has_partial());
        let mut tail = io::Cursor::new(&wire[3..]);
        decoder.read_from(&mut tail).expect("read");
        assert_eq!(decoder.next_frame().expect("frame"), Some(&b"half"[..]));
        assert!(!decoder.has_partial());
    }

    #[test]
    fn decoder_rejects_bad_crc_and_oversized_frames() {
        let mut corrupted = frame_bytes(b"payload");
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut cursor = io::Cursor::new(corrupted);
        decoder.read_from(&mut cursor).expect("read");
        assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::BadCrc { .. })
        ));

        let mut decoder = FrameDecoder::new(4);
        let mut cursor = io::Cursor::new(frame_bytes(b"too large for the cap"));
        decoder.read_from(&mut cursor).expect("read");
        assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::TooLarge { max: 4, .. })
        ));
    }

    #[test]
    fn decoder_steady_state_is_allocation_free() {
        // After the first frame sizes the buffer, decoding same-sized
        // frames forever must never grow it again: capacity is stable and
        // the payload slice is borrowed in place.
        let wire = frame_bytes(&[7u8; 1024]);
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut cursor = io::Cursor::new(wire.clone());
        decoder.read_from(&mut cursor).expect("read");
        assert!(decoder.next_frame().expect("first").is_some());
        let steady = decoder.buf.len();
        for _ in 0..64 {
            let mut cursor = io::Cursor::new(wire.clone());
            decoder.read_from(&mut cursor).expect("read");
            assert!(decoder.next_frame().expect("frame").is_some());
            assert_eq!(decoder.buf.len(), steady, "buffer grew in steady state");
        }
    }

    #[test]
    fn decoder_reclaim_shrinks_oversized_buffer_when_drained() {
        let wire = frame_bytes(&vec![3u8; 512 * 1024]);
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut cursor = io::Cursor::new(wire);
        loop {
            decoder.read_from(&mut cursor).expect("read");
            if decoder.next_frame().expect("decode").is_some() {
                break;
            }
        }
        assert!(decoder.buf.len() > RECLAIM_ABOVE);
        decoder.reclaim();
        assert_eq!(decoder.buf.len(), 0);
        // Reclaim with bytes buffered is a no-op.
        let wire = frame_bytes(b"still here");
        let mut head = io::Cursor::new(&wire[..4]);
        decoder.read_from(&mut head).expect("read");
        decoder.reclaim();
        assert!(decoder.has_partial());
    }

    /// Feeds `wire` to a fresh decoder `chunk` bytes per read, asking for a
    /// frame after each read, and returns the first frame or error, or
    /// `Ok(None)` once every byte is in. After every read the buffer must
    /// hold no more than a header, `max_len` and one read chunk.
    fn feed(wire: &[u8], max_len: u32, chunk: usize) -> Result<Option<Vec<u8>>, FrameError> {
        let bound = FRAME_HEADER_LEN + max_len as usize + READ_CHUNK;
        let mut decoder = FrameDecoder::new(max_len);
        for piece in wire.chunks(chunk) {
            let mut reader = io::Cursor::new(piece);
            while decoder.read_from(&mut reader).expect("read") > 0 {}
            assert!(decoder.buf.len() <= bound, "buffer {}", decoder.buf.len());
            if let Some(frame) = decoder.next_frame()? {
                return Ok(Some(frame.to_vec()));
            }
        }
        Ok(None)
    }

    /// Every truncation and every single-bit flip of a valid frame around
    /// each corpus payload, fed a byte at a time and all at once, at the
    /// daemon's limit and at the largest corpus payload: a cut frame is
    /// incomplete; a flip in the length word is too large, incomplete or a
    /// CRC mismatch; any other flip is a CRC mismatch.
    #[test]
    fn every_cut_and_bit_flip_of_a_valid_frame_is_caught() {
        let corpus = crate::proto::tests::request_corpus();
        let largest = corpus.iter().map(Vec::len).max().expect("corpus") as u32;
        for max_len in [DEFAULT_MAX_FRAME_LEN, largest] {
            for payload in &corpus {
                let wire = frame_bytes(payload);
                for chunk in [1, wire.len()] {
                    let whole = feed(&wire, max_len, chunk).expect("valid frame");
                    assert_eq!(whole.as_deref(), Some(payload.as_slice()));
                    for cut in 0..wire.len() {
                        let got = feed(&wire[..cut], max_len, chunk);
                        assert!(matches!(got, Ok(None)), "cut {cut} of {wire:?}: {got:?}");
                    }
                    for bit in 0..wire.len() * 8 {
                        let mut flipped = wire.clone();
                        flipped[bit / 8] ^= 1 << (bit % 8);
                        let got = feed(&flipped, max_len, chunk);
                        let caught = match got {
                            Err(FrameError::BadCrc { .. }) => true,
                            Err(FrameError::TooLarge { .. }) | Ok(None) => bit < 32,
                            _ => false,
                        };
                        assert!(caught, "bit {bit} of {wire:?}, max {max_len}: {got:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn append_frame_with_matches_write_frame_bytes() {
        let mut out = Vec::new();
        append_frame_with(&mut out, |buf| buf.extend_from_slice(b"identical"));
        append_frame_with(&mut out, |buf| buf.extend_from_slice(b""));
        let mut expected = frame_bytes(b"identical");
        expected.extend_from_slice(&frame_bytes(b""));
        assert_eq!(out, expected);
    }

    #[test]
    fn vectored_write_round_trips_through_read_frame() {
        let mut wire = Vec::new();
        write_frame_vectored(&mut wire, b"vectored payload").expect("write");
        let mut reader = SlowReader::new(&wire, wire.len());
        match read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).expect("read") {
            ReadOutcome::Frame(payload) => assert_eq!(payload, b"vectored payload"),
            other => panic!("expected frame, got {other:?}"),
        }
    }
}
