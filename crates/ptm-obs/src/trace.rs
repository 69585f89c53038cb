//! End-to-end request tracing and the flight recorder.
//!
//! A *trace* is one logical request (e.g. an upload→ack round trip); a
//! *span* is one timed stage inside it (queue wait, lock wait, commit,
//! estimate, encode-reply). Ids are minted deterministically from a seeded
//! generator so a fixed seed and call order reproduce identical ids — the
//! same discipline the rest of the workspace applies to randomness.
//!
//! Like metrics, tracing is **off by default** and the disabled path costs
//! one relaxed atomic load per instrumentation point: no clock reads, no
//! thread-local access, no allocation (`bench trace_overhead` proves it).
//!
//! Completed spans go two places:
//!
//! * the **flight recorder** — a bounded in-memory ring retaining the last
//!   N spans and events, dumpable as JSONL on panic, on entry into
//!   degraded mode, or on demand (see [`recorder`]);
//! * an optional **trace writer** — a JSONL sink (usually a file) set via
//!   [`set_trace_writer`], one span object per line.
//!
//! Context propagates two ways: within a thread via an implicit current
//! span (guards nest and restore on drop), and across the RPC boundary via
//! explicit `(trace_id, parent_span)` pairs carried in the proto v3 header
//! (see `docs/OBSERVABILITY.md` § Tracing for the layout).

use crate::json::push_str_literal;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span tracing is currently enabled (one relaxed load).
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Turns span tracing on or off process-wide.
pub fn set_tracing_enabled(enabled: bool) {
    TRACING_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Enables span tracing (shorthand for `set_tracing_enabled(true)`).
pub fn enable_tracing() {
    set_tracing_enabled(true);
}

// ---- id minting ------------------------------------------------------------

static ID_SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
static ID_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Re-seeds the id generator and restarts its counter. With a fixed seed
/// and a deterministic call order, minted ids are reproducible.
pub fn set_trace_seed(seed: u64) {
    ID_SEED.store(seed, Ordering::Relaxed);
    ID_COUNTER.store(0, Ordering::Relaxed);
}

/// Mints a non-zero 64-bit id: splitmix64 over seed ⊕ counter.
pub fn mint_id() -> u64 {
    let seed = ID_SEED.load(Ordering::Relaxed);
    loop {
        let n = ID_COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z != 0 {
            return z;
        }
    }
}

// ---- context ---------------------------------------------------------------

/// The propagated identity of an in-flight request: which trace it belongs
/// to and which span is its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id, shared by every span of one logical request.
    pub trace_id: u64,
    /// The currently-open span (a child created now would parent here).
    pub span_id: u64,
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The current thread's open span context, if tracing is enabled and a
/// span guard is live on this thread.
pub fn current() -> Option<TraceContext> {
    if !tracing_enabled() {
        return None;
    }
    CURRENT.with(Cell::get)
}

/// Monotonic epoch all span timestamps are relative to, so offsets within
/// one process compare directly.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---- span records and sinks ------------------------------------------------

/// A completed span, as stored in the recorder and written as JSONL.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (dotted, catalogued in docs/OBSERVABILITY.md).
    pub name: &'static str,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id, if any (`None` marks a root span).
    pub parent_id: Option<u64>,
    /// Start offset, ns since the process trace epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// Renders the span as one JSON object (no trailing newline).
    ///
    /// Ids are fixed-width hex *strings*: 64-bit integers don't survive
    /// f64-based JSON readers, and hex is what `ptm top` prints anyway.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"trace\":\"");
        out.push_str(&format!("{:016x}", self.trace_id));
        out.push_str("\",\"span\":\"");
        out.push_str(&format!("{:016x}", self.span_id));
        out.push_str("\",\"parent\":");
        match self.parent_id {
            Some(p) => out.push_str(&format!("\"{p:016x}\"")),
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        push_str_literal(&mut out, self.name);
        out.push_str(&format!(
            ",\"start_ns\":{},\"dur_ns\":{}}}",
            self.start_ns, self.dur_ns
        ));
        out
    }
}

static TRACE_WRITER: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Routes completed spans to a JSONL sink (one object per line). Pass
/// `None` to detach. The writer is flushed on every span so crash output
/// is complete; keep it buffered if that matters for throughput.
pub fn set_trace_writer(writer: Option<Box<dyn Write + Send>>) {
    let mut guard = TRACE_WRITER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = writer;
}

fn emit(record: SpanRecord) {
    recorder::record_span(record.clone());
    let mut guard = TRACE_WRITER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(writer) = guard.as_mut() {
        let mut line = record.to_json();
        line.push('\n');
        // A failing trace sink must never take the daemon down; drop the
        // line and keep serving.
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.flush();
    }
}

/// Emits a completed span measured externally: `start` was captured with
/// [`Instant::now`] before the stage ran (e.g. queue wait measured from
/// frame arrival to dispatch). Parents under the thread's current span.
pub fn emit_elapsed(name: &'static str, start: Instant) {
    if !tracing_enabled() {
        return;
    }
    let end_ns = now_ns();
    let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (trace_id, parent_id) = match CURRENT.with(Cell::get) {
        Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
        None => (mint_id(), None),
    };
    emit(SpanRecord {
        name,
        trace_id,
        span_id: mint_id(),
        parent_id,
        start_ns: end_ns.saturating_sub(dur_ns),
        dur_ns,
    });
}

// ---- span guards -----------------------------------------------------------

struct OpenSpan {
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    prev: Option<TraceContext>,
    start: Instant,
    start_ns: u64,
}

/// RAII guard for one span: opening it makes it the thread's current
/// context, dropping it emits the completed [`SpanRecord`] and restores
/// the previous context. Inert (no clock, no TLS) while tracing is off.
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// Opens a span under the thread's current context, or as the root of
    /// a freshly minted trace if there is none (how the daemon traces
    /// requests that carry no context).
    pub fn enter(name: &'static str) -> Self {
        if !tracing_enabled() {
            return Self { open: None };
        }
        let prev = CURRENT.with(Cell::get);
        let (trace_id, parent_id) = match prev {
            Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
            None => (mint_id(), None),
        };
        Self::open(name, trace_id, parent_id, prev)
    }

    /// Opens a span as the child of an explicit remote parent — the
    /// server-side join point for contexts carried over the RPC boundary.
    pub fn enter_with_parent(name: &'static str, parent: TraceContext) -> Self {
        if !tracing_enabled() {
            return Self { open: None };
        }
        let prev = CURRENT.with(Cell::get);
        Self::open(name, parent.trace_id, Some(parent.span_id), prev)
    }

    fn open(
        name: &'static str,
        trace_id: u64,
        parent_id: Option<u64>,
        prev: Option<TraceContext>,
    ) -> Self {
        let span_id = mint_id();
        CURRENT.with(|c| c.set(Some(TraceContext { trace_id, span_id })));
        Self {
            open: Some(OpenSpan {
                name,
                trace_id,
                span_id,
                parent_id,
                prev,
                start: Instant::now(),
                start_ns: now_ns(),
            }),
        }
    }

    /// The opened span's propagation context (`None` while tracing is off).
    pub fn context(&self) -> Option<TraceContext> {
        self.open.as_ref().map(|o| TraceContext {
            trace_id: o.trace_id,
            span_id: o.span_id,
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        CURRENT.with(|c| c.set(open.prev));
        emit(SpanRecord {
            name: open.name,
            trace_id: open.trace_id,
            span_id: open.span_id,
            parent_id: open.parent_id,
            start_ns: open.start_ns,
            dur_ns: u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

// ---- flight recorder -------------------------------------------------------

pub mod recorder {
    //! A bounded ring of the most recent spans and events, kept in memory
    //! at all times while tracing is enabled and dumped as JSONL when
    //! something goes wrong: on panic (the CLI installs a hook), on entry
    //! into degraded read-only mode, and on demand (`Request::Stats`,
    //! `ptm top`). Writers claim slots with one atomic `fetch_add`; each
    //! slot is guarded by its own mutex held only for the copy, so
    //! recording never blocks on other slots.

    use super::SpanRecord;
    use crate::json::push_str_literal;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// One recorder entry: a completed span or a structured event.
    #[derive(Debug, Clone)]
    pub enum Entry {
        /// A completed span.
        Span(SpanRecord),
        /// A structured event (level, target, message).
        Event {
            /// Event level name (`error`, `warn`, …).
            level: &'static str,
            /// Dotted event target.
            target: String,
            /// Rendered message.
            message: String,
            /// Offset ns since the trace epoch.
            at_ns: u64,
        },
    }

    impl Entry {
        /// Renders the entry as one JSON object (no trailing newline).
        pub fn to_json(&self) -> String {
            match self {
                Entry::Span(span) => span.to_json(),
                Entry::Event {
                    level,
                    target,
                    message,
                    at_ns,
                } => {
                    let mut out = String::with_capacity(96);
                    out.push_str("{\"event\":");
                    push_str_literal(&mut out, level);
                    out.push_str(",\"target\":");
                    push_str_literal(&mut out, target);
                    out.push_str(",\"message\":");
                    push_str_literal(&mut out, message);
                    out.push_str(&format!(",\"at_ns\":{at_ns}}}"));
                    out
                }
            }
        }
    }

    /// Default ring capacity (entries), overridable via [`configure`].
    pub const DEFAULT_CAPACITY: usize = 256;

    struct Ring {
        slots: Vec<Mutex<Option<Entry>>>,
        cursor: AtomicU64,
    }

    static RING: OnceLock<Ring> = OnceLock::new();
    static CONFIGURED_CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_CAPACITY as u64);

    /// Sets the ring capacity. Takes effect only if called before the
    /// first entry is recorded (the ring allocates once); returns whether
    /// the setting will apply.
    pub fn configure(capacity: usize) -> bool {
        CONFIGURED_CAPACITY.store(capacity.max(1) as u64, Ordering::Relaxed);
        RING.get().is_none()
    }

    fn ring() -> &'static Ring {
        RING.get_or_init(|| {
            let capacity = CONFIGURED_CAPACITY.load(Ordering::Relaxed) as usize;
            Ring {
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                cursor: AtomicU64::new(0),
            }
        })
    }

    fn push(entry: Entry) {
        let ring = ring();
        let seq = ring.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % ring.slots.len() as u64) as usize;
        let mut guard = ring.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *guard = Some(entry);
    }

    pub(super) fn record_span(span: SpanRecord) {
        push(Entry::Span(span));
    }

    /// Records a structured event into the ring (no-op while tracing is
    /// off; the events sink calls this for every emitted event).
    pub fn record_event(level: &'static str, target: &str, message: &str) {
        if !super::tracing_enabled() {
            return;
        }
        push(Entry::Event {
            level,
            target: target.to_string(),
            message: message.to_string(),
            at_ns: super::now_ns(),
        });
    }

    /// Copies out the retained entries, oldest first. Entries being
    /// written concurrently may be skipped; a settled recorder snapshot is
    /// exact.
    pub fn entries() -> Vec<Entry> {
        let Some(ring) = RING.get() else {
            return Vec::new();
        };
        let cursor = ring.cursor.load(Ordering::Relaxed);
        let len = ring.slots.len() as u64;
        let start = cursor.saturating_sub(len);
        (start..cursor)
            .filter_map(|seq| {
                let slot = (seq % len) as usize;
                ring.slots[slot]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
            })
            .collect()
    }

    /// Renders the retained entries as JSONL, oldest first.
    pub fn dump_string() -> String {
        let mut out = String::new();
        for entry in entries() {
            out.push_str(&entry.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the retained entries as JSONL to `path`, returning how many
    /// were written. The file is truncated first: each dump is a complete
    /// snapshot, and the *latest* evidence is the useful one.
    pub fn dump_to(path: &std::path::Path) -> std::io::Result<usize> {
        let entries = entries();
        let mut out = String::new();
        for entry in &entries {
            out.push_str(&entry.to_json());
            out.push('\n');
        }
        std::fs::write(path, out)?;
        Ok(entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_stays_inert() {
        let _guard = crate::test_support::global_lock();
        set_tracing_enabled(false);
        assert!(current().is_none());
        let span = SpanGuard::enter("trace.test.inert");
        assert!(span.context().is_none());
        drop(span);
    }

    #[test]
    fn nested_guards_link_parent_and_restore() {
        let _guard = crate::test_support::global_lock();
        set_tracing_enabled(true);
        set_trace_seed(7);
        let root = SpanGuard::enter("trace.test.root");
        let root_ctx = root.context().expect("enabled");
        let child = SpanGuard::enter("trace.test.child");
        let child_ctx = child.context().expect("enabled");
        assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
        assert_ne!(child_ctx.span_id, root_ctx.span_id);
        drop(child);
        assert_eq!(current(), Some(root_ctx), "child must restore parent");
        drop(root);
        assert!(current().is_none());
        set_tracing_enabled(false);
    }

    #[test]
    fn remote_parent_joins_the_carried_trace() {
        let _guard = crate::test_support::global_lock();
        set_tracing_enabled(true);
        let remote = TraceContext {
            trace_id: 0xABCD,
            span_id: 0x1234,
        };
        let span = SpanGuard::enter_with_parent("trace.test.remote", remote);
        let ctx = span.context().expect("enabled");
        assert_eq!(ctx.trace_id, 0xABCD);
        drop(span);
        set_tracing_enabled(false);
    }

    #[test]
    fn seeded_ids_reproduce() {
        let _guard = crate::test_support::global_lock();
        set_trace_seed(99);
        let a: Vec<u64> = (0..4).map(|_| mint_id()).collect();
        set_trace_seed(99);
        let b: Vec<u64> = (0..4).map(|_| mint_id()).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&id| id != 0));
    }

    #[test]
    fn span_json_shape() {
        let record = SpanRecord {
            name: "x.y",
            trace_id: 1,
            span_id: 2,
            parent_id: None,
            start_ns: 10,
            dur_ns: 5,
        };
        let json = record.to_json();
        assert!(json.contains("\"trace\":\"0000000000000001\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"name\":\"x.y\""));
        assert!(json.contains("\"dur_ns\":5"));
    }

    #[test]
    fn recorder_retains_and_dumps() {
        let _guard = crate::test_support::global_lock();
        set_tracing_enabled(true);
        {
            let _span = SpanGuard::enter("trace.test.recorded");
        }
        recorder::record_event("warn", "trace.test", "something happened");
        let dump = recorder::dump_string();
        assert!(dump.contains("trace.test.recorded"));
        assert!(dump.contains("something happened"));
        set_tracing_enabled(false);
    }

    #[test]
    fn trace_writer_receives_jsonl() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let _guard = crate::test_support::global_lock();
        set_tracing_enabled(true);
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        set_trace_writer(Some(Box::new(sink.clone())));
        {
            let _span = SpanGuard::enter("trace.test.written");
        }
        set_trace_writer(None);
        set_tracing_enabled(false);
        let bytes = sink
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(text.contains("trace.test.written"));
        assert!(text.ends_with('\n'));
    }
}
