//! The record-ingest daemon: a readiness-driven reactor wrapping
//! [`ptm_net::CentralServer`] with write-ahead persistence.
//!
//! One event-loop thread owns the nonblocking listener and every
//! connection's socket, read decoder, and write buffer; a bounded worker
//! pool runs the estimate/commit work so a slow disk or an expensive
//! query never stalls the wire. Connection scale is bounded by file
//! descriptors and per-connection buffers, not OS threads.
//!
//! Lifecycle:
//!
//! 1. **Startup** — open (or create) the [`ptm_store::SegmentStore`] at
//!    the configured path and move every record the open read into the
//!    in-memory query engine before the first frame is served: one pass
//!    over the archive, O(records). Two different frames for one
//!    `(location, period)` fail the start with
//!    [`DaemonError::ReplayConflict`] (identical ones load once); a damaged
//!    archive fails it with [`DaemonError::Store`].
//! 2. **Ingest** — every upload frame carries one record; each is
//!    validated, appended to the archive and flushed, *then* published to
//!    the query engine, and only then acked (write-ahead). An identical
//!    re-send of an already-stored record is acked as an idempotent
//!    duplicate without touching the archive, which is what makes the
//!    client's at-least-once retry loop safe.
//! 3. **Shutdown** — [`RpcServer::shutdown`] stops the event loop, waits
//!    for in-flight jobs to finish (bounded), flushes their replies, then
//!    checkpoints the archive (commit, fsync, and the active segment's
//!    frame count into the manifest; no new segment file).
//!
//! # The wire path
//!
//! The reactor sweeps every connection each loop iteration: a nonblocking
//! read *is* the readiness check on a std-only build (no `epoll` without
//! `unsafe`), and the sweep cost is what the 1k-connection smoke test
//! bounds. Each connection owns a reusable [`FrameDecoder`] — frames are
//! CRC-checked and decoded **in place**, with no per-frame allocation in
//! steady state — and a reusable output buffer that accumulates any
//! number of reply frames ([`append_frame_with`]) before a single write,
//! which is what batches acks across a client's pipelined uploads.
//!
//! The reactor decodes each upload and derives the CRC of its record
//! bytes from the frame CRC it just verified
//! ([`ptm_store::crc32::crc32_combine`] over the 3–23 header bytes), and
//! the archive frame carries that CRC, so the record is checksummed once
//! in the daemon. A connection's upload frames go into its *inbox*, which
//! one worker job drains batch after batch: each batch of at most 64
//! frames is one writer-lock hold and one commit, acked frame by frame,
//! and the job ends only when its worker finds the inbox empty or another
//! job waiting for a worker. Frames that arrive while the job runs join
//! the inbox without another hand-off. Replies stay in request order per
//! connection because a connection has at most one job in flight at a
//! time: a query, ping or stats frame behind uploads waits until the
//! ingest job's last completion.
//!
//! # Concurrency
//!
//! The query engine is [`ptm_net::CentralServer`]'s per-location sharded
//! store, so read-only estimate queries run **concurrently** — with each
//! other and with uploads to locations they are not reading — across the
//! [`ServerConfig::workers`] pool threads. Uploads go through a dedicated
//! **writer path**: one mutex guarding the segment store serializes
//! ingest (appends go to a single active segment, so writes serialize
//! anyway). An ingest batch checks each frame against the engine
//! and commits under it, so no other job's record can land between a
//! frame's check and its commit. Queries never take the
//! writer lock: every record is in the engine from start, so archive I/O
//! is out of the estimation path entirely. While ingest is degraded, a
//! background maintenance thread retries the store reopen under the
//! configured cooldown; it is the only place a reopen is tried.
//!
//! # Shedding
//!
//! At the connection cap, new sockets are accepted into a bounded *shed*
//! backlog instead of being answered inline on the accept path (which
//! used to stall every other accept behind one slow peer). A shed
//! connection costs no worker and sends nothing unsolicited; when its
//! first frame arrives, the reactor answers it `Overloaded` (`GoingAway`
//! while draining) and closes. Beyond the backlog bound, excess sockets
//! are dropped immediately.
//!
//! Admitted connections queue their work on bounded per-class worker
//! queues (queries, uploads), and a job that finds its class queue full is
//! answered `Overloaded` with the measured-delay hint. Past the connection
//! cap, that queue is the only place a query is shed; an upload is also
//! shed while ingest is degraded.
//!
//! Misbehaving peers never take the daemon down: oversized, corrupt, or
//! truncated frames close that one connection (after a best-effort error
//! response) and bump `rpc.server.frames.bad`. A *panicking* request
//! handler is caught (`rpc.server.panics`), answered with an `Internal`
//! error frame, and every lock in the daemon recovers from poisoning — one
//! bad request must never turn into a whole-daemon outage.

use crate::frame::{append_frame_with, FrameDecoder, FrameError, DEFAULT_MAX_FRAME_LEN};
use crate::proto::{
    decode_request, encode_response_into, ErrorCode, ProtoError, Request, Response, WireTrace,
    PROTOCOL_VERSION,
};
use crate::reactor::{JobClass, Sink, WorkerPool, CLASS_COUNT};
use ptm_core::record::TrafficRecord;
use ptm_core::{LocationId, PeriodId};
use ptm_fault::{sites, FaultAction, FaultPlan, FaultyStream, SiteHandle};
use ptm_net::server::ServerError;
use ptm_net::CentralServer;
use ptm_store::crc32::{crc32, crc32_combine};
use ptm_store::{SegmentStore, StoreError, StoreHooks, StoreOptions, SyncPolicy};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`RpcServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Representative-bit count `s` for the point-to-point estimator.
    pub s: u32,
    /// Idle cutoff: a connection that sends no frame for this long is
    /// closed. Also the stall budget for a frame arriving in pieces: a
    /// peer mid-frame may pause up to this long in total before the
    /// connection is declared stalled.
    pub read_timeout: Duration,
    /// Granularity at which blocked reads, the accept loop and the
    /// maintenance thread re-check the shutdown and degraded flags.
    pub poll_interval: Duration,
    /// Connections served concurrently before new ones are shed (answered
    /// with [`Response::Overloaded`] once they speak, then closed); 0
    /// removes the cap.
    pub max_connections: usize,
    /// Worker threads running estimate/commit jobs off the event loop; at
    /// least one is always spawned.
    pub workers: usize,
    /// The `retry_after_ms` hint carried by every shed response.
    pub retry_after_ms: u32,
    /// Consecutive archive-append failures before ingest enters degraded
    /// (read-only) mode. A wedged archive enters it immediately.
    pub degraded_after_failures: u32,
    /// Wait before each archive-reopen probe while degraded, counted from
    /// entry into degraded mode and from each failed probe.
    pub degraded_cooldown: Duration,
    /// Durability level for archive commits.
    pub sync_policy: SyncPolicy,
    /// The active segment rotates (seals + fresh file) once its committed
    /// bytes reach this.
    pub rotate_bytes: u64,
    /// Where the flight recorder dumps its JSONL tail on entry into
    /// degraded mode and on a caught handler panic; `None` disables
    /// automatic dumps (an explicit `Request::Stats` still reads the ring).
    pub recorder_dump: Option<PathBuf>,
    /// Metrics snapshot written on degraded-mode transitions and at
    /// shutdown, so operators get numbers at the moment something went
    /// wrong rather than only on clean exit; `None` disables.
    pub metrics_snapshot: Option<PathBuf>,
    /// Deterministic fault-injection plan threaded into the archive
    /// backend, connection streams, and the ingest/estimate execution
    /// sites; `None` (the default) compiles every hook down to a no-op
    /// check. Test/chaos use only.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            s: 3,
            read_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
            max_connections: 256,
            workers: 4,
            retry_after_ms: 250,
            degraded_after_failures: 3,
            degraded_cooldown: Duration::from_secs(2),
            sync_policy: SyncPolicy::Flush,
            rotate_bytes: 8 * 1024 * 1024,
            recorder_dump: None,
            metrics_snapshot: None,
            fault_plan: None,
        }
    }
}

/// Errors starting or stopping the daemon.
#[derive(Debug)]
pub enum DaemonError {
    /// Socket-level failure (bind, accept-thread spawn).
    Io(io::Error),
    /// The archive could not be opened, read, or flushed.
    Store(StoreError),
    /// The query engine refuses an archived record: it already holds a
    /// different record for that `(location, period)` — at start, because
    /// the archive holds two different frames for that key.
    ReplayConflict(String),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(err) => write!(f, "daemon i/o error: {err}"),
            Self::Store(err) => write!(f, "daemon archive error: {err}"),
            Self::ReplayConflict(detail) => write!(f, "archive replay conflict: {detail}"),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            Self::Store(err) => Some(err),
            Self::ReplayConflict(_) => None,
        }
    }
}

impl From<io::Error> for DaemonError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

impl From<StoreError> for DaemonError {
    fn from(err: StoreError) -> Self {
        Self::Store(err)
    }
}

/// What startup recovered from the archive.
#[derive(Debug, Clone, Copy)]
pub struct ReplayReport {
    /// Records in the query engine once the archive is loaded (a key
    /// archived twice, identically, counts once).
    pub records: usize,
    /// Bytes discarded from a torn final frame (0 after a clean shutdown).
    pub torn_bytes: u64,
}

/// Read-only (degraded) mode bookkeeping: entered when the archive backend
/// keeps failing, left when the maintenance thread's reopen probe succeeds.
#[derive(Default)]
struct DegradedState {
    /// Set while ingest is shedding uploads because the archive is down.
    flag: AtomicBool,
    /// Consecutive archive-append failures; reset by any successful commit.
    failures: AtomicU32,
}

struct Shared {
    /// The sharded query engine. Internally locked per location; holds
    /// every archived record from start.
    central: CentralServer,
    /// The dedicated writer path: serializes ingest and guards the
    /// segment store. Queries never take it.
    writer: Mutex<SegmentStore>,
    shutdown: AtomicBool,
    config: ServerConfig,
    /// Live connection count, for the accept-side cap.
    conn_count: AtomicUsize,
    degraded: DegradedState,
    /// Where the store lives, for degraded-mode reopen probes.
    archive_path: PathBuf,
    /// Store options (fault hooks included) shared with the live store so
    /// reopened stores continue the same fault schedules.
    store_opts: StoreOptions,
    /// Connection-stream fault sites (no-ops without a plan).
    read_site: SiteHandle,
    write_site: SiteHandle,
    estimate_site: SiteHandle,
    /// Ingest-execution fault site, checked once per ingest batch under the
    /// writer lock (panic/delay injection through the seeded plan).
    ingest_site: SiteHandle,
    /// Graceful-drain flag: set by [`RpcServer::drain`]; the reactor stops
    /// admitting work and answers new requests with
    /// [`Response::GoingAway`].
    draining: AtomicBool,
    /// Set by the reactor once a drain has quiesced: no job in flight, no
    /// pending frames, every reply flushed.
    drained: AtomicBool,
    /// EWMA of worker-queue sojourn in microseconds — the measured queue
    /// delay behind every shed response's `retry_after_ms` hint
    /// (CoDel-style: the hint grows as the queue actually gets slower,
    /// instead of quoting a static number).
    queue_delay_us: AtomicU64,
    /// Per-class worker-queue depths, mirrored from the pool each reactor
    /// sweep so `Stats` can report them without reaching into the pool.
    queue_depths: [AtomicUsize; CLASS_COUNT],
    /// Pool jobs in flight, mirrored like `queue_depths`.
    worker_inflight: AtomicUsize,
}

/// Returns the `retry_after_ms` hint for a shed response: the configured
/// floor raised to the *measured* queue delay, so a genuinely backed-up
/// daemon tells clients to stay away longer — and an idle one never quotes
/// a stale scary number.
fn retry_hint_ms(shared: &Shared) -> u32 {
    let measured_ms = shared.queue_delay_us.load(Ordering::Relaxed) / 1000;
    let measured_ms = u32::try_from(measured_ms.min(60_000)).unwrap_or(60_000);
    shared.config.retry_after_ms.max(measured_ms)
}

/// Folds one measured queue sojourn into the EWMA (α = 1/8) and the
/// `rpc.server.queue_delay_us` histogram.
fn note_queue_delay(shared: &Shared, sojourn: Duration) {
    let us = u64::try_from(sojourn.as_micros()).unwrap_or(u64::MAX);
    if ptm_obs::metrics_enabled() {
        ptm_obs::histogram!("rpc.server.queue_delay_us").record(us);
    }
    let old = shared.queue_delay_us.load(Ordering::Relaxed);
    let new = old - old / 8 + us / 8;
    shared.queue_delay_us.store(new, Ordering::Relaxed);
}

/// Locks the writer path, recovering from poisoning and recording the
/// wait when metrics are enabled.
///
/// Poison recovery is safe here: a panic inside the critical section can
/// only leave buffered-but-unflushed archive bytes (the next flush writes
/// them) — record framing itself is a single buffered `write_all` per
/// record, and the in-memory store is mutated with single inserts.
fn lock_writer(writer: &Mutex<SegmentStore>) -> MutexGuard<'_, SegmentStore> {
    let start = (ptm_obs::metrics_enabled() || ptm_obs::tracing_enabled()).then(Instant::now);
    let guard = writer.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(start) = start {
        if ptm_obs::metrics_enabled() {
            ptm_obs::histogram!("rpc.shard.writer_wait").record(start.elapsed().as_nanos() as u64);
        }
        ptm_obs::tspan!("rpc.server.lock_wait", elapsed = start);
    }
    guard
}

/// A running daemon. Dropping it without calling [`RpcServer::shutdown`]
/// detaches the reactor thread (the process keeps serving); tests and the
/// CLI always shut down explicitly.
pub struct RpcServer {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    reactor_thread: Option<JoinHandle<()>>,
    maintenance_thread: Option<JoinHandle<()>>,
    replay: ReplayReport,
    archive_path: PathBuf,
}

impl RpcServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`), opens the archive at `path`
    /// (creating it if absent), loads every archived record into the query
    /// engine, and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Bind failures, archive corruption ([`DaemonError::Store`]), or a
    /// record the engine refuses ([`DaemonError::ReplayConflict`]).
    pub fn start(
        addr: impl ToSocketAddrs,
        archive_path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> Result<Self, DaemonError> {
        let archive_path = archive_path.as_ref().to_path_buf();
        let central = CentralServer::new(config.s);
        let (store_hooks, read_site, write_site, estimate_site, ingest_site) =
            match &config.fault_plan {
                Some(plan) => (
                    StoreHooks::from_plan(plan),
                    plan.site(sites::RPC_READ),
                    plan.site(sites::RPC_WRITE),
                    plan.site(sites::RPC_ESTIMATE),
                    plan.site(sites::RPC_INGEST),
                ),
                None => (
                    StoreHooks::disabled(),
                    SiteHandle::disabled(),
                    SiteHandle::disabled(),
                    SiteHandle::disabled(),
                    SiteHandle::disabled(),
                ),
            };
        let store_opts = StoreOptions {
            hooks: store_hooks,
            sync_policy: config.sync_policy,
            rotate_bytes: config.rotate_bytes,
        };
        // One pass: the open reads and checks every frame, and the records
        // it decoded move into the engine before any request.
        let (store, torn_bytes) = {
            let _replay_span = ptm_obs::tspan!("rpc.server.replay");
            let opened = SegmentStore::open(&archive_path, store_opts.clone())?;
            load_archive(&central, opened.records)?;
            ptm_obs::counter!("rpc.server.hydrations").add(central.location_count() as u64);
            (opened.store, opened.torn_bytes)
        };
        let replay = ReplayReport {
            records: central.record_count(),
            torn_bytes,
        };
        if replay.torn_bytes > 0 {
            ptm_obs::warn!("rpc.server", "archive had a torn tail";
                torn_bytes = replay.torn_bytes, path = archive_path.display().to_string());
        }
        ptm_obs::counter!("rpc.server.replay.records").add(replay.records as u64);

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            central,
            writer: Mutex::new(store),
            shutdown: AtomicBool::new(false),
            config,
            conn_count: AtomicUsize::new(0),
            degraded: DegradedState::default(),
            archive_path: archive_path.clone(),
            store_opts,
            read_site,
            write_site,
            estimate_site,
            ingest_site,
            draining: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            queue_delay_us: AtomicU64::new(0),
            queue_depths: std::array::from_fn(|_| AtomicUsize::new(0)),
            worker_inflight: AtomicUsize::new(0),
        });
        let job_shared = Arc::clone(&shared);
        let pool: WorkerPool<Job, Completion> = WorkerPool::new(
            shared.config.workers,
            "ptm-rpc-worker",
            CLASS_QUEUE_CAPS,
            SPIN_WINDOW,
            move |job, sojourn, sink| run_job(&job_shared, job, sojourn, sink),
        )?;
        let reactor_shared = Arc::clone(&shared);
        let reactor_thread = std::thread::Builder::new()
            .name("ptm-rpc-reactor".into())
            .spawn(move || reactor_loop(listener, reactor_shared, pool))?;
        let maint_shared = Arc::clone(&shared);
        let maintenance_thread = std::thread::Builder::new()
            .name("ptm-rpc-maint".into())
            .spawn(move || maintenance_loop(maint_shared))?;

        ptm_obs::info!("rpc.server", "daemon listening";
            addr = local_addr.to_string(),
            replayed = replay.records,
            archive = archive_path.display().to_string());
        Ok(Self {
            shared,
            local_addr,
            reactor_thread: Some(reactor_thread),
            maintenance_thread: Some(maintenance_thread),
            replay,
            archive_path,
        })
    }

    /// The bound socket address (useful after binding port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// What startup recovered from the archive.
    pub fn replay_report(&self) -> ReplayReport {
        self.replay
    }

    /// The archive file backing this daemon.
    pub fn archive_path(&self) -> &Path {
        &self.archive_path
    }

    /// Records in the query engine, which holds every archived record from
    /// start: the one place unique records are counted.
    pub fn record_count(&self) -> usize {
        self.shared.central.record_count()
    }

    /// Whether ingest is currently degraded (shedding uploads because the
    /// archive backend keeps failing). Queries stay available throughout.
    pub fn degraded(&self) -> bool {
        self.shared.degraded.flag.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: the daemon stops admitting new work and
    /// answers every *new* request with [`Response::GoingAway`] carrying
    /// the measured `retry_after_ms` hint, then closes that connection,
    /// while jobs already dispatched run to completion and their replies
    /// flush. Once [`RpcServer::drain_complete`] reports quiescence, call
    /// [`RpcServer::shutdown`] to checkpoint the store and exit.
    ///
    /// Idempotent; draining is one-way (there is no undrain).
    pub fn drain(&self) {
        if !self.shared.draining.swap(true, Ordering::SeqCst) {
            ptm_obs::gauge!("rpc.server.draining").set(1);
            ptm_obs::info!("rpc.server", "drain started: new work refused with GoingAway";
                inflight = self.shared.worker_inflight.load(Ordering::SeqCst) as u64);
        }
    }

    /// Whether [`RpcServer::drain`] has been called.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Whether a started drain has quiesced: no job in flight, no pending
    /// decoded frames, and every accepted reply flushed to its socket.
    /// Always `false` before [`RpcServer::drain`].
    pub fn drain_complete(&self) -> bool {
        self.shared.drained.load(Ordering::SeqCst)
    }

    /// Live admitted connections (shed connections are not counted). The
    /// reactor retires a closed connection's state on its next sweep, so
    /// teardown is reflected here promptly whether or not anyone is
    /// connecting.
    pub fn connection_count(&self) -> usize {
        self.shared.conn_count.load(Ordering::SeqCst)
    }

    /// Every location with at least one stored record, sorted by id.
    pub fn locations(&self) -> Vec<LocationId> {
        self.shared.central.locations()
    }

    /// Graceful shutdown: stop the event loop (in-flight jobs finish and
    /// their replies flush, within a bound), then checkpoint the store —
    /// pending frames committed and fsynced and the active segment's frame
    /// count recorded in the manifest, so the next open checks every acked
    /// frame against the manifest's counts.
    ///
    /// # Errors
    ///
    /// Store flush/sync failures (connections are already drained).
    pub fn shutdown(mut self) -> Result<(), DaemonError> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.reactor_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.maintenance_thread.take() {
            // Wake it from its poll_interval park so it sees the flag now.
            handle.thread().unpark();
            let _ = handle.join();
        }
        let mut store = lock_writer(&self.shared.writer);
        store.checkpoint()?;
        flush_observability(&self.shared.config, "shutdown");
        ptm_obs::info!("rpc.server", "daemon stopped";
            records = self.shared.central.record_count());
        Ok(())
    }
}

/// Decoded frames queued on one connection, in its pending queue and its
/// inbox together, before further reads pause (backpressure: the socket
/// buffer, and eventually the peer, absorb the excess).
const PENDING_CAP: usize = 512;

/// Upload frames per ingest batch: one writer-lock hold, one archive
/// commit.
const MAX_COALESCED_FRAMES: usize = 64;

/// Bounded per-class worker-queue capacities (query, upload): admission
/// control's backstop. Queries are latency-sensitive so their queue is
/// kept short; uploads tolerate the deeper backlog because the RSU retry
/// loop absorbs a shed cheaply. (Ping and stats are answered inline on the
/// reactor thread and never queue.) A full queue rejects at submit time
/// and the requester is answered `Overloaded` with the measured-delay
/// hint.
const CLASS_QUEUE_CAPS: [usize; CLASS_COUNT] = [128, 512];

/// How long a pool worker that just answered a query spins for the next
/// job before it parks (see [`crate::reactor`]). A closed-loop client on
/// loopback sends its next query well inside it: in the `query` benchmark
/// over 99% of spins end with a job.
const SPIN_WINDOW: Duration = Duration::from_micros(100);

/// How long after the last activity the reactor keeps spin-yielding
/// before idle sleeps start escalating. Request/response exchanges with
/// sub-millisecond think time stay inside this window and never eat a
/// sleep-wakeup latency penalty; a truly idle daemon burns at most one
/// window per activity burst before backing off.
const IDLE_SPIN_WINDOW: Duration = Duration::from_millis(2);

/// Output buffers larger than this are released once fully flushed.
const OUT_RECLAIM_ABOVE: usize = 256 * 1024;

/// How a request frame arrived: its trace context, when, and its wire
/// deadline.
#[derive(Clone, Copy)]
struct Arrival {
    trace: Option<WireTrace>,
    /// When the frame left the socket; the gap to dispatch is the
    /// request's queue wait (pending queue, inbox and worker queue).
    arrived: Instant,
    /// The wire deadline: `arrived` plus the remaining-budget
    /// `deadline_ms` the client stamped behind `FLAG_DEADLINE`. A job
    /// still queued past this instant is *doomed* — its caller has already
    /// given up — and is answered [`Response::DeadlineExceeded`] instead
    /// of executed. `None` (an unstamped request) never dooms.
    deadline: Option<Instant>,
}

impl Arrival {
    /// Whether the frame's wire deadline had passed at `now`.
    fn doomed_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|deadline| now > deadline)
    }
}

/// One upload as the reactor decoded it: the record and the CRC-32 of its
/// encoded bytes, derived from the frame's verified wire CRC
/// ([`record_crc`]).
///
/// The record goes into its `Arc` on the worker ([`validate_upload`]), not
/// here. Made on the reactor, the small `Arc` blocks sat between the
/// bitmaps in the reactor thread's malloc arena, so a round's freed
/// bitmaps no longer merged and the next round's took fresh memory: on a
/// 2-vCPU host, `ingest` peak RSS rose from 22 to 40 MiB, and read 20 MiB
/// either way with one arena (`MALLOC_ARENA_MAX=1`).
struct Upload {
    record: TrafficRecord,
    crc: u32,
}

/// What a decoded frame asks for.
enum Body {
    Upload(Upload),
    /// Ping, stats or a query.
    Other(Request),
}

/// One decoded request frame, queued per connection until it dispatches.
struct DecodedFrame {
    body: Body,
    arrival: Arrival,
}

/// A connection's upload frames handed to its ingest job, in arrival
/// order: the reactor pushes them, the connection's one ingest job takes
/// them a batch at a time.
type Inbox = Mutex<VecDeque<(Upload, Arrival)>>;

/// Work handed to the pool for one connection.
struct Job {
    conn_id: u64,
    kind: JobKind,
}

enum JobKind {
    /// One query frame.
    Query(Request, Arrival),
    /// Drain the connection's inbox: commit its upload frames batch after
    /// batch, acking each frame ([`drain_inbox`]).
    Ingest(Arc<Inbox>),
}

/// One reply frame, carried back to the reactor for encoding into the
/// connection's output buffer.
struct Reply {
    response: Response,
    trace: Option<ptm_obs::TraceContext>,
}

/// What a worker hands back for a query or an ingest batch: its frames'
/// replies, in order, and what the reactor does next.
struct Completion {
    conn_id: u64,
    replies: Vec<Reply>,
    /// Inbox frames these replies answer (0 for a query).
    frames: usize,
    /// The connection must close (handler panic).
    close: bool,
    /// The job's last completion: once it is applied, the connection has
    /// no job in flight. The reactor learns that a job ended only here.
    last: bool,
}

/// Why a connection is being retired, deciding which counter it bumps.
enum CloseKind {
    /// Peer closed, idle cutoff, or server-initiated after a reply.
    Normal,
    /// Peer stopped mid-frame past the stall budget.
    Stalled,
    /// Sat idle past the read timeout with no frame in flight.
    IdleTimeout,
}

/// Per-connection reactor state: the nonblocking socket plus reusable
/// read/write buffers and the pipelining queue.
struct Conn {
    id: u64,
    stream: FaultyStream<TcpStream>,
    peer: SocketAddr,
    decoder: FrameDecoder,
    /// Reusable output buffer; frames append here and flush with one
    /// write, which is what batches acks across pipelined uploads.
    out: Vec<u8>,
    /// Bytes of `out` already written to the socket.
    written: usize,
    /// Decoded frames awaiting dispatch (one job in flight at a time
    /// keeps replies in request order without request ids).
    pending: VecDeque<DecodedFrame>,
    /// Upload frames handed to the connection's ingest job.
    inbox: Arc<Inbox>,
    /// Frames pushed into `inbox` whose replies have not come back: the
    /// inbox and the batch being committed.
    inboxed: usize,
    /// The class of the connection's job in flight: a query, or an ingest
    /// job draining `inbox`.
    job: Option<JobClass>,
    /// True for connections admitted over the cap: no worker touches
    /// them, nothing unsolicited is sent, and their first frame is
    /// answered with a shed before the connection closes.
    shed: bool,
    /// When the last complete frame finished (idle cutoff baseline).
    last_frame: Instant,
    /// When the current partial frame started arriving (stall budget).
    frame_start: Option<Instant>,
    /// When the current unflushed output started waiting on the socket.
    write_start: Option<Instant>,
    /// Close once `out` drains and no job is in flight.
    close_after_flush: bool,
    /// Peer hung up; stop reading, finish any in-flight job, then close.
    read_closed: bool,
}

impl Conn {
    fn new(id: u64, stream: FaultyStream<TcpStream>, peer: SocketAddr, shed: bool) -> Self {
        Self {
            id,
            stream,
            peer,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_LEN),
            out: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            inbox: Arc::default(),
            inboxed: 0,
            job: None,
            shed,
            last_frame: Instant::now(),
            frame_start: None,
            write_start: None,
            close_after_flush: false,
            read_closed: false,
        }
    }

    fn has_unflushed(&self) -> bool {
        self.written < self.out.len()
    }
}

/// Encodes one reply frame into the connection's output buffer (no
/// allocation in steady state — the buffer is reused across frames) and
/// counts it. The actual socket write happens in the flush pass, possibly
/// batched with other replies.
fn queue_reply(conn: &mut Conn, reply: &Reply) {
    let _s = match reply.trace {
        Some(ctx) => ptm_obs::tspan!("rpc.server.encode_reply", child_of = ctx),
        None => ptm_obs::tspan!("rpc.server.encode_reply"),
    };
    let before = conn.out.len();
    append_frame_with(&mut conn.out, |buf| {
        encode_response_into(&reply.response, buf);
    });
    ptm_obs::counter!("rpc.server.frames.out").inc();
    ptm_obs::counter!("rpc.server.bytes.out").add((conn.out.len() - before) as u64);
}

/// Queues an untraced reply — the reactor's inline path for decode errors,
/// malformed frames, sheds and drain hand-offs.
fn queue_error_reply(conn: &mut Conn, response: Response) {
    queue_reply(
        conn,
        &Reply {
            response,
            trace: None,
        },
    );
}

/// Flushes as much buffered output as the socket accepts right now.
/// Returns `Err(kind)` when the connection must close (write error, no
/// progress, or a peer that stopped draining past the stall budget).
fn flush_conn(conn: &mut Conn, stall_budget: Duration) -> Result<(), CloseKind> {
    while conn.has_unflushed() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return Err(CloseKind::Normal),
            Ok(n) => {
                conn.written += n;
                conn.write_start = None;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                match conn.write_start {
                    Some(start) if start.elapsed() > stall_budget => {
                        ptm_obs::counter!("rpc.server.connections.stalled").inc();
                        ptm_obs::warn!("rpc.server", "peer stopped draining replies";
                            peer = conn.peer.to_string());
                        return Err(CloseKind::Normal);
                    }
                    Some(_) => {}
                    None => conn.write_start = Some(Instant::now()),
                }
                return Ok(());
            }
            Err(err) => {
                ptm_obs::debug!("rpc.server", "response write failed"; error = err.to_string());
                return Err(CloseKind::Normal);
            }
        }
    }
    if !conn.out.is_empty() {
        conn.written = 0;
        conn.out.clear();
        if conn.out.capacity() > OUT_RECLAIM_ABOVE {
            conn.out = Vec::new();
        }
    }
    Ok(())
}

/// Answers a shed connection's first complete frame, whatever it holds,
/// with `Overloaded` — `GoingAway` instead while the daemon is draining —
/// and closes the connection once the reply flushes.
fn answer_shed_hello(conn: &mut Conn, shared: &Shared) {
    let retry_after_ms = retry_hint_ms(shared);
    let response = if shared.draining.load(Ordering::SeqCst) {
        ptm_obs::counter!("rpc.server.going_away").inc();
        Response::GoingAway { retry_after_ms }
    } else {
        Response::Overloaded { retry_after_ms }
    };
    queue_error_reply(conn, response);
    conn.close_after_flush = true;
}

/// Decodes the complete frames in the connection's read buffer, in place,
/// and queues them for dispatch, until the backpressure cap, a partial
/// frame, or a frame that closes the connection.
fn decode_buffered(conn: &mut Conn, shared: &Shared, now: Instant) {
    while conn.pending.len() + conn.inboxed < PENDING_CAP {
        match conn.decoder.next_frame_with_crc() {
            Ok(Some((payload, wire_crc))) => {
                conn.last_frame = now;
                conn.frame_start = None;
                ptm_obs::counter!("rpc.server.frames.in").inc();
                ptm_obs::counter!("rpc.server.bytes.in").add(payload.len() as u64 + 8);
                if conn.shed {
                    answer_shed_hello(conn, shared);
                    return;
                }
                match decode_request(payload) {
                    Ok(decoded) => {
                        if shared.draining.load(Ordering::SeqCst) {
                            // Draining: hand the peer off.
                            ptm_obs::counter!("rpc.server.going_away").inc();
                            queue_error_reply(
                                conn,
                                Response::GoingAway {
                                    retry_after_ms: retry_hint_ms(shared),
                                },
                            );
                            conn.close_after_flush = true;
                            return;
                        }
                        let deadline = decoded
                            .deadline_ms
                            .map(|ms| now + Duration::from_millis(u64::from(ms)));
                        let body = match decoded.request {
                            Request::Upload(record) => Body::Upload(Upload {
                                record,
                                crc: record_crc(payload, decoded.header_len, wire_crc),
                            }),
                            request => Body::Other(request),
                        };
                        conn.pending.push_back(DecodedFrame {
                            body,
                            arrival: Arrival {
                                trace: decoded.trace,
                                arrived: now,
                                deadline,
                            },
                        });
                    }
                    Err(ProtoError::VersionMismatch { got, want }) => {
                        ptm_obs::counter!("rpc.server.version_mismatch").inc();
                        queue_error_reply(
                            conn,
                            Response::Error {
                                code: ErrorCode::VersionMismatch,
                                message: format!(
                                    "client speaks version {got}, server speaks {want}"
                                ),
                            },
                        );
                        conn.close_after_flush = true;
                        return;
                    }
                    Err(err) => {
                        ptm_obs::counter!("rpc.server.decode_errors").inc();
                        queue_error_reply(
                            conn,
                            Response::Error {
                                code: ErrorCode::Malformed,
                                message: err.to_string(),
                            },
                        );
                        conn.close_after_flush = true;
                        return;
                    }
                }
            }
            Ok(None) => break,
            Err(err) => {
                // Oversized or corrupt frame: best-effort error
                // reply, then close — the stream cannot be
                // resynchronized.
                ptm_obs::counter!("rpc.server.frames.bad").inc();
                ptm_obs::warn!("rpc.server", "bad frame"; error = err.to_string());
                queue_error_reply(
                    conn,
                    Response::Error {
                        code: ErrorCode::Malformed,
                        message: err.to_string(),
                    },
                );
                conn.close_after_flush = true;
                return;
            }
        }
    }
}

/// Reads whatever the socket has, decodes complete frames in place, and
/// queues them for dispatch. Returns `Err` when the connection must
/// close.
fn read_conn(conn: &mut Conn, shared: &Shared, activity: &mut bool) -> Result<(), CloseKind> {
    if conn.read_closed || conn.close_after_flush {
        return Ok(());
    }
    let now = Instant::now();
    // Frames the last read left buffered when the cap stopped its decode
    // go first: a peer that pipelined past the cap may have nothing more
    // to send, and its frames would otherwise wait for bytes that never
    // come until the stall cutoff closed the connection.
    if conn.decoder.has_partial() {
        let queued = conn.pending.len();
        decode_buffered(conn, shared, now);
        *activity |= conn.pending.len() != queued || conn.close_after_flush;
    }
    // Backpressure: a peer that pipelines faster than workers drain waits
    // in its socket buffer, not in server memory.
    if conn.close_after_flush || conn.pending.len() + conn.inboxed >= PENDING_CAP {
        return Ok(());
    }
    match conn.decoder.read_from(&mut conn.stream) {
        Ok(0) => {
            if conn.decoder.has_partial() {
                // EOF mid-frame: the old blocking reader called this
                // Truncated; same counter, same best-effort close.
                ptm_obs::counter!("rpc.server.frames.bad").inc();
                ptm_obs::warn!("rpc.server", "bad frame";
                    error = FrameError::Truncated.to_string());
                return Err(CloseKind::Normal);
            }
            conn.read_closed = true;
            if conn.job.is_some() || conn.has_unflushed() {
                return Ok(());
            }
            Err(CloseKind::Normal)
        }
        Ok(_) => {
            *activity = true;
            decode_buffered(conn, shared, now);
            if conn.close_after_flush {
                return Ok(());
            }
            if conn.decoder.has_partial() {
                if conn.frame_start.is_none() {
                    conn.frame_start = Some(now);
                }
            } else {
                conn.frame_start = None;
                conn.decoder.reclaim();
            }
            Ok(())
        }
        Err(err)
            if err.kind() == io::ErrorKind::WouldBlock || err.kind() == io::ErrorKind::TimedOut =>
        {
            // Quiet socket: idle and stall cutoffs both key off the read
            // timeout, but mean different things — mid-frame silence is a
            // stall (the peer owes us bytes), between-frame silence is
            // just idleness.
            if conn.decoder.has_partial() {
                let started = conn.frame_start.get_or_insert_with(Instant::now);
                if started.elapsed() > shared.config.read_timeout {
                    ptm_obs::counter!("rpc.server.frames.bad").inc();
                    ptm_obs::warn!("rpc.server", "bad frame";
                        error = FrameError::Stalled.to_string());
                    queue_error_reply(
                        conn,
                        Response::Error {
                            code: ErrorCode::Malformed,
                            message: FrameError::Stalled.to_string(),
                        },
                    );
                    conn.close_after_flush = true;
                    return Err(CloseKind::Stalled);
                }
            } else if conn.last_frame.elapsed() > shared.config.read_timeout
                && conn.job.is_none()
                && conn.pending.is_empty()
                && conn.inboxed == 0
            {
                return Err(CloseKind::IdleTimeout);
            }
            Ok(())
        }
        Err(err) if err.kind() == io::ErrorKind::Interrupted => Ok(()),
        Err(err) => {
            ptm_obs::counter!("rpc.server.frames.bad").inc();
            ptm_obs::warn!("rpc.server", "bad frame"; error = err.to_string());
            Err(CloseKind::Normal)
        }
    }
}

/// The CRC-32 of an upload's record bytes, `payload[header_len..]`, from
/// the CRC the frame decoder just verified over the whole payload: the
/// header's CRC, carried over the record's length, XORed back out. The
/// archive frame carries it instead of a second pass over the record; the
/// codec is canonical, so the bytes the segment append encodes are these.
fn record_crc(payload: &[u8], header_len: usize, wire_crc: u32) -> u32 {
    let (header, record) = payload.split_at(header_len);
    crc32_combine(crc32(header), wire_crc, record.len())
}

/// Answers every frame of a rejected job with `Overloaded` carrying the
/// measured-delay hint (admission control: the class queue was full), and
/// counts the shed per class. A rejected ingest job sheds every frame in
/// the inbox.
fn shed_rejected_job(conn: &mut Conn, shared: &Shared, job: Job, class: JobClass) {
    let frames = match job.kind {
        JobKind::Query(..) => 1,
        JobKind::Ingest(inbox) => {
            let shed = inbox
                // ptm-analyze: allow(reactor-blocking): no job of this connection is in flight, so nothing else holds its inbox
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drain(..)
                .count();
            conn.inboxed -= shed;
            shed
        }
    };
    let retry_after_ms = retry_hint_ms(shared);
    if ptm_obs::metrics_enabled() {
        ptm_obs::registry()
            .counter(format!("rpc.shed.by_class.{}", class.name()))
            .add(frames as u64);
    }
    for _ in 0..frames {
        queue_error_reply(conn, Response::Overloaded { retry_after_ms });
    }
}

/// Moves the uploads at the front of the pending queue into the inbox, in
/// order, under one lock. The first frame that is not an upload stops the
/// move: it waits for the ingest job's last completion.
fn feed_inbox(conn: &mut Conn) {
    let uploads = conn
        .pending
        .iter()
        .take_while(|frame| matches!(frame.body, Body::Upload(_)))
        .count();
    if uploads == 0 {
        return;
    }
    let mut inbox = conn
        .inbox
        // ptm-analyze: allow(reactor-blocking): bounded push under the inbox mutex; its ingest job holds it only to take a batch, never across a commit
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    for frame in conn.pending.drain(..uploads) {
        if let Body::Upload(upload) = frame.body {
            inbox.push_back((upload, frame.arrival));
        }
    }
    conn.inboxed += uploads;
}

/// Submits the connection's next job, or sheds it when its class queue is
/// full.
fn submit_job(
    conn: &mut Conn,
    shared: &Shared,
    pool: &WorkerPool<Job, Completion>,
    class: JobClass,
    kind: JobKind,
) {
    match pool.submit(
        class,
        Job {
            conn_id: conn.id,
            kind,
        },
    ) {
        Ok(()) => conn.job = Some(class),
        Err(job) => shed_rejected_job(conn, shared, job, class),
    }
}

/// Dispatches the connection's pending work. Ping and stats frames are
/// answered **inline on the reactor thread** — the introspection an
/// operator needs most during an incident stays answerable at 100% worker
/// saturation, because it never enters the worker queue at all
/// (`stats_json` only ever try-locks the writer, so this cannot stall the
/// loop). Other work submits to the pool under its class: uploads go into
/// the connection's inbox, drained by one ingest job (one commit per
/// batch, per-frame acks), and while that job runs, uploads that arrive
/// behind it join the inbox; queries dispatch alone. At most one pool job
/// per connection keeps replies in request order, and a class queue at
/// capacity rejects the job — answered as an `Overloaded` shed with the
/// measured-delay hint.
fn maybe_dispatch(conn: &mut Conn, shared: &Shared, pool: &WorkerPool<Job, Completion>) {
    if conn.close_after_flush || conn.shed {
        return;
    }
    loop {
        match conn.job {
            Some(JobClass::Upload) => return feed_inbox(conn),
            Some(JobClass::Query) => return,
            None => {}
        }
        let next_is_upload = conn
            .pending
            .front()
            .is_some_and(|frame| matches!(frame.body, Body::Upload(_)));
        // Frames an ended ingest job left in the inbox go first.
        if conn.inboxed > 0 || next_is_upload {
            feed_inbox(conn);
            let inbox = Arc::clone(&conn.inbox);
            return submit_job(conn, shared, pool, JobClass::Upload, JobKind::Ingest(inbox));
        }
        let Some(DecodedFrame {
            body: Body::Other(request),
            arrival,
        }) = conn.pending.pop_front()
        else {
            return;
        };
        if matches!(request, Request::Ping | Request::Stats) {
            let reply = run_control(shared, request, arrival);
            queue_reply(conn, &reply);
            // Further pending frames may dispatch now — loop, so a ping
            // queued behind another ping is not stranded until the next
            // sweep.
            continue;
        }
        return submit_job(
            conn,
            shared,
            pool,
            JobClass::Query,
            JobKind::Query(request, arrival),
        );
    }
}

/// Applies a worker's completion: replies are encoded into the output
/// buffer (ack batching happens here — one flush ships them all), a last
/// completion frees the connection for its next job, and pending work
/// dispatches.
fn apply_completion(
    conn: &mut Conn,
    completion: Completion,
    shared: &Shared,
    pool: &WorkerPool<Job, Completion>,
    dispatch_more: bool,
) {
    for reply in &completion.replies {
        queue_reply(conn, reply);
    }
    conn.inboxed -= completion.frames;
    if completion.close {
        conn.close_after_flush = true;
    }
    if completion.last {
        conn.job = None;
    }
    if dispatch_more {
        maybe_dispatch(conn, shared, pool);
    }
}

/// Retires a connection: counters, the admitted-count slot, and the map
/// entry.
fn finish_conn(conns: &mut HashMap<u64, Conn>, shared: &Shared, id: u64, kind: CloseKind) {
    let Some(conn) = conns.remove(&id) else {
        return;
    };
    match kind {
        CloseKind::IdleTimeout => {
            ptm_obs::counter!("rpc.server.connections.idle_timeout").inc();
        }
        CloseKind::Stalled | CloseKind::Normal => {}
    }
    ptm_obs::counter!("rpc.server.connections.closed").inc();
    if !conn.shed {
        shared.conn_count.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The event loop: accepts, sweeps every connection (a nonblocking read
/// is the readiness check), drains worker completions into output
/// buffers, and flushes — all on one thread, so connection state needs no
/// locks. Spins hot while work is in flight and backs off to
/// `poll_interval` sleeps when idle.
// ptm-analyze: reactor-root
fn reactor_loop(listener: TcpListener, shared: Arc<Shared>, pool: WorkerPool<Job, Completion>) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id = 0u64;
    let mut completions: Vec<Completion> = Vec::new();
    let mut closing: Vec<(u64, CloseKind)> = Vec::new();
    let mut last_activity = Instant::now();
    let mut idle_sleeps = 0u32;
    let shed_backlog_cap = shared.config.max_connections.max(64);

    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut activity = false;

        // Accept everything ready. Shedding never writes here — at
        // capacity the socket parks in the shed backlog and is answered
        // (or silently closed) from the sweep once it speaks, so one slow
        // peer cannot stall other accepts.
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    activity = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let cap = shared.config.max_connections;
                    let shed = cap != 0 && shared.conn_count.load(Ordering::SeqCst) >= cap;
                    if shed {
                        ptm_obs::counter!("rpc.shed.connections").inc();
                        ptm_obs::warn!("rpc.server", "connection shed at capacity";
                            peer = peer.to_string(), cap = cap);
                        let backlog = conns.values().filter(|c| c.shed).count();
                        if backlog >= shed_backlog_cap {
                            // Beyond the bounded backlog: drop without a
                            // goodbye rather than hold unbounded state.
                            continue;
                        }
                    } else {
                        shared.conn_count.fetch_add(1, Ordering::SeqCst);
                        ptm_obs::counter!("rpc.server.connections.accepted").inc();
                        ptm_obs::debug!("rpc.server", "connection accepted";
                            peer = peer.to_string());
                    }
                    let stream = FaultyStream::new(
                        stream,
                        shared.read_site.clone(),
                        shared.write_site.clone(),
                    );
                    next_id += 1;
                    conns.insert(next_id, Conn::new(next_id, stream, peer, shed));
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => {
                    ptm_obs::error!("rpc.server", "accept failed"; error = err.to_string());
                    break;
                }
            }
        }

        // Worker completions → reply frames in output buffers.
        pool.drain_completions(&mut completions);
        for completion in completions.drain(..) {
            activity = true;
            // The connection may already be gone (write error while its
            // job ran); the work is durable either way, the reply just
            // has nowhere to go.
            if let Some(conn) = conns.get_mut(&completion.conn_id) {
                apply_completion(conn, completion, &shared, &pool, true);
            }
        }

        // Sweep: read, dispatch, flush, decide closes.
        for conn in conns.values_mut() {
            let result = read_conn(conn, &shared, &mut activity)
                .and_then(|()| {
                    maybe_dispatch(conn, &shared, &pool);
                    flush_conn(conn, shared.config.read_timeout)
                })
                .and_then(|()| {
                    let drained = !conn.has_unflushed();
                    if drained && conn.job.is_none() {
                        if conn.close_after_flush {
                            return Err(CloseKind::Normal);
                        }
                        if conn.read_closed && conn.pending.is_empty() && conn.inboxed == 0 {
                            return Err(CloseKind::Normal);
                        }
                    }
                    Ok(())
                });
            if let Err(kind) = result {
                closing.push((conn.id, kind));
            }
        }
        for (id, kind) in closing.drain(..) {
            activity = true;
            finish_conn(&mut conns, &shared, id, kind);
        }

        // Mirror pool gauges into Shared each sweep: Stats is answered
        // inline on this thread, so the queue depths and in-flight count
        // it reports come from these atomics, never from locking the pool.
        let depths = pool.depths();
        let inflight = pool.inflight();
        for (slot, depth) in shared.queue_depths.iter().zip(depths.iter()) {
            slot.store(*depth, Ordering::Relaxed);
        }
        shared.worker_inflight.store(inflight, Ordering::Relaxed);
        ptm_obs::gauge!("rpc.server.worker_inflight").set(inflight as i64);
        ptm_obs::gauge!("rpc.server.queue_depth.query")
            .set(depths[JobClass::Query as usize] as i64);
        ptm_obs::gauge!("rpc.server.queue_depth.upload")
            .set(depths[JobClass::Upload as usize] as i64);

        // Drain quiescence: once draining, the loop keeps running —
        // answering new requests with GoingAway — until every admitted
        // job has finished, every reply has flushed, and nothing is
        // pending. `drain_complete()` observes the flag; the caller then
        // invokes `shutdown()` for the checkpointed exit.
        if shared.draining.load(Ordering::SeqCst)
            && !shared.drained.load(Ordering::SeqCst)
            && inflight == 0
            && depths.iter().all(|&d| d == 0)
            && conns.values().all(|c| {
                c.job.is_none() && c.pending.is_empty() && c.inboxed == 0 && !c.has_unflushed()
            })
        {
            shared.drained.store(true, Ordering::SeqCst);
            ptm_obs::info!(
                "rpc.server",
                "drain complete: in-flight work finished and flushed"
            );
        }

        // Idle policy: spin hot while anything is moving or in flight
        // (yield_now lets workers run on small machines), keep spinning
        // through the short post-activity window so ping-pong workloads
        // never pay a sleep wakeup, then escalate to sleeps capped at the
        // shutdown-poll interval.
        if activity || pool.inflight() > 0 {
            last_activity = Instant::now();
            idle_sleeps = 0;
            std::thread::yield_now();
        } else if last_activity.elapsed() < IDLE_SPIN_WINDOW {
            std::thread::yield_now();
        } else {
            idle_sleeps = idle_sleeps.saturating_add(1);
            let step = Duration::from_micros(50)
                .saturating_mul(idle_sleeps)
                .min(shared.config.poll_interval);
            // ptm-analyze: allow(reactor-blocking): idle-only backoff — sleeps only when no connection has pending work and the pool is empty
            std::thread::sleep(step);
        }
    }

    // Drain: in-flight jobs finish (bounded) and their replies flush, so
    // a request the daemon already accepted is answered before the store
    // checkpoints.
    let deadline = Instant::now() + Duration::from_secs(5);
    while pool.inflight() > 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    pool.drain_completions(&mut completions);
    for completion in completions.drain(..) {
        if let Some(conn) = conns.get_mut(&completion.conn_id) {
            apply_completion(conn, completion, &shared, &pool, false);
        }
    }
    for conn in conns.values_mut() {
        let flush_deadline = Instant::now() + Duration::from_millis(500);
        while conn.has_unflushed() && Instant::now() < flush_deadline {
            if flush_conn(conn, Duration::from_millis(500)).is_err() {
                break;
            }
            if conn.has_unflushed() {
                std::thread::yield_now();
            }
        }
    }
    let ids: Vec<u64> = conns.keys().copied().collect();
    for id in ids {
        finish_conn(&mut conns, &shared, id, CloseKind::Normal);
    }
    pool.shutdown_and_join();
}

/// The background maintenance thread, the only place a degraded-mode
/// store reopen is tried. Every `poll_interval` it checks the shutdown and
/// degraded flags; the cooldown clock starts when it first sees ingest
/// degraded and restarts after each failed probe, and only a probe that
/// is due takes the writer lock. It parks between checks, and
/// [`RpcServer::shutdown`] unparks it, so a stop never waits out the
/// interval.
fn maintenance_loop(shared: Arc<Shared>) {
    let mut degraded_since: Option<Instant> = None;
    loop {
        std::thread::park_timeout(shared.config.poll_interval);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if !shared.degraded.flag.load(Ordering::SeqCst) {
            degraded_since = None;
            continue;
        }
        let since = *degraded_since.get_or_insert_with(Instant::now);
        if since.elapsed() < shared.config.degraded_cooldown {
            continue;
        }
        let mut store = lock_writer(&shared.writer);
        if !try_recover(&shared, &mut store) {
            degraded_since = Some(Instant::now());
        }
    }
}

/// Runs one job on a pool worker: records the measured queue delay (the
/// sojourn feeds the CoDel-style retry hint), then answers a query or
/// drains an inbox, pushing each completion to the reactor as it is ready.
fn run_job(shared: &Shared, job: Job, sojourn: Duration, sink: &Sink<'_, Completion>) {
    note_queue_delay(shared, sojourn);
    let conn_id = job.conn_id;
    match job.kind {
        JobKind::Query(request, arrival) => {
            let (replies, close) = contained(shared, || {
                // Doomed work is dropped at job start, checked against the
                // frame's wire deadline (per frame in `ingest_frames`).
                if arrival.doomed_at(Instant::now()) {
                    vec![doomed_reply()]
                } else {
                    vec![run_query(shared, request, arrival)]
                }
            });
            sink.complete(Completion {
                conn_id,
                replies,
                frames: 0,
                close,
                last: true,
            });
        }
        JobKind::Ingest(inbox) => drain_inbox(shared, conn_id, &inbox, sink),
    }
}

/// Runs a handler, containing a panic: it is caught and answered, not
/// allowed to unwind. Every shared lock recovers from poisoning, so the
/// daemon keeps serving afterwards; the `true` returned with the
/// `Error{Internal}` reply closes only the affected connection.
fn contained(shared: &Shared, handler: impl FnOnce() -> Vec<Reply>) -> (Vec<Reply>, bool) {
    match std::panic::catch_unwind(AssertUnwindSafe(handler)) {
        Ok(replies) => (replies, false),
        Err(_) => {
            ptm_obs::counter!("rpc.server.panics").inc();
            ptm_obs::error!("rpc.server", "request handler panicked");
            // Preserve the evidence: the recorder tail is the last trace
            // of what the handler was doing.
            dump_recorder(&shared.config, "handler panic");
            let reply = Reply {
                response: Response::Error {
                    code: ErrorCode::Internal,
                    message: "internal error: request handler panicked".into(),
                },
                trace: None,
            };
            (vec![reply], true)
        }
    }
}

/// Runs a connection's ingest job: commits the inbox batch after batch,
/// each of at most [`MAX_COALESCED_FRAMES`] frames and handed back as its
/// own completion, until the worker finds the inbox empty, another job
/// waits for a worker, or a batch panics. The next batch is taken before
/// the current one's completion is pushed, so only the completion that
/// ends the job is marked last; the reactor learns of the end from it
/// alone, and frames it pushes into the inbox after the last take wait for
/// the job it then submits. So a connection never has two ingest jobs, or
/// an ingest job and a query, in flight at once.
fn drain_inbox(shared: &Shared, conn_id: u64, inbox: &Inbox, sink: &Sink<'_, Completion>) {
    let take = || {
        let mut queued = inbox.lock().unwrap_or_else(PoisonError::into_inner);
        let batch = queued.len().min(MAX_COALESCED_FRAMES);
        queued.drain(..batch).collect::<Vec<_>>()
    };
    let mut batch = take();
    loop {
        let frames = batch.len();
        let (replies, close) = contained(shared, || ingest_frames(shared, batch, Instant::now()));
        batch = if close || sink.others_waiting() {
            Vec::new()
        } else {
            take()
        };
        let last = batch.is_empty();
        sink.complete(Completion {
            conn_id,
            replies,
            frames,
            close,
            last,
        });
        if last {
            return;
        }
    }
}

/// Answers a doomed frame: its wire deadline expired while it waited in
/// the worker queue, so the caller has already given up — executing it
/// would burn a worker on an answer nobody reads.
fn doomed_reply() -> Reply {
    ptm_obs::counter!("rpc.server.deadline_dropped").inc();
    Reply {
        response: Response::DeadlineExceeded,
        trace: None,
    }
}

/// Opens the request's dispatch span — joining the trace context carried
/// in the header, or rooting a locally minted trace for an untraced
/// request — and records the queue wait since the frame left the socket.
fn open_dispatch(arrival: Arrival) -> ptm_obs::trace::SpanGuard {
    let root = match arrival.trace {
        Some(wire) => ptm_obs::tspan!(
            "rpc.server.dispatch",
            child_of = ptm_obs::TraceContext {
                trace_id: wire.trace_id,
                span_id: wire.parent_span,
            }
        ),
        None => ptm_obs::tspan!("rpc.server.dispatch"),
    };
    ptm_obs::tspan!("rpc.server.queue_wait", elapsed = arrival.arrived);
    root
}

/// Handles one ping or stats frame **inline on the reactor thread**. This
/// is deliberately a separate entry point from [`run_query`]: the
/// control path must stay free of blocking work
/// (query estimation, store commits), and keeping it as its own function
/// lets `ptm-analyze`'s `reactor-blocking` rule check that statically —
/// everything reachable from here runs with every connection stalled
/// behind it.
fn run_control(shared: &Shared, request: Request, arrival: Arrival) -> Reply {
    let root = open_dispatch(arrival);
    let trace = root.context();
    let response = match request {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
            s: shared.config.s,
            records: shared.central.record_count() as u64,
            degraded: shared.degraded.flag.load(Ordering::SeqCst),
        },
        Request::Stats => Response::Stats(stats_json(shared)),
        // Unreachable: `maybe_dispatch` routes only ping and stats frames
        // here. Answering instead of delegating to `run_query` keeps the
        // reactor's static call graph free of the worker-side
        // query/ingest paths.
        _ => Response::Error {
            code: ErrorCode::Internal,
            message: "non-control frame routed to the control path".into(),
        },
    };
    Reply { response, trace }
}

/// Handles one query frame on a pool worker. Every downstream stage
/// (estimate, encode-reply) parents into the dispatch span, so one round
/// trip is one connected span tree.
fn run_query(shared: &Shared, request: Request, arrival: Arrival) -> Reply {
    let root = open_dispatch(arrival);
    let trace = root.context();
    let response = match request {
        Request::QueryVolume { location, period } => {
            ptm_obs::counter!("rpc.server.queries").inc();
            answer_query(shared, |central| central.estimate_volume(location, period))
        }
        Request::QueryPoint { location, periods } => {
            ptm_obs::counter!("rpc.server.queries").inc();
            answer_query(shared, |central| {
                central.estimate_point_persistent(location, &periods)
            })
        }
        Request::QueryP2p {
            location_a,
            location_b,
            periods,
        } => {
            ptm_obs::counter!("rpc.server.queries").inc();
            answer_query(shared, |central| {
                central.estimate_p2p_persistent(location_a, location_b, &periods)
            })
        }
        // Unreachable: `maybe_dispatch` answers ping and stats inline, and
        // the reactor decodes every upload into an `Upload`.
        Request::Ping | Request::Stats | Request::Upload(_) => Response::Error {
            code: ErrorCode::Internal,
            message: "non-query frame routed to a query job".into(),
        },
    };
    Reply { response, trace }
}

/// Renders the live introspection document answered to [`Request::Stats`]
/// (schema documented in `docs/OBSERVABILITY.md` § Live introspection):
/// engine totals, per-shard record counts, histogram percentiles, the full
/// metrics snapshot, and the flight-recorder tail.
fn stats_json(shared: &Shared) -> String {
    let snapshot = ptm_obs::snapshot();
    let shards = shared.central.shard_stats();
    let mut out = String::with_capacity(2048);
    out.push_str("{\"records\":");
    out.push_str(&shared.central.record_count().to_string());
    out.push_str(",\"locations\":");
    out.push_str(&shards.len().to_string());
    out.push_str(",\"connections\":");
    out.push_str(&shared.conn_count.load(Ordering::SeqCst).to_string());
    out.push_str(",\"degraded\":");
    out.push_str(if shared.degraded.flag.load(Ordering::SeqCst) {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"draining\":");
    out.push_str(if shared.draining.load(Ordering::SeqCst) {
        "true"
    } else {
        "false"
    });
    // Overload surface: the reactor mirrors pool state into these atomics
    // every sweep, so Stats — answered inline on the reactor thread —
    // reports live queue pressure even at 100% worker saturation.
    out.push_str(&format!(
        ",\"overload\":{{\"queue_delay_us\":{},\"worker_inflight\":{},\
         \"queue_depth\":{{\"query\":{},\"upload\":{}}}}}",
        shared.queue_delay_us.load(Ordering::Relaxed),
        shared.worker_inflight.load(Ordering::Relaxed),
        shared.queue_depths[JobClass::Query as usize].load(Ordering::Relaxed),
        shared.queue_depths[JobClass::Upload as usize].load(Ordering::Relaxed),
    ));
    // Storage-engine gauges, read under a non-blocking writer probe so an
    // introspection request never queues behind a stalled commit. `null`
    // means "writer busy right now" — ask again.
    out.push_str(",\"store\":");
    let store_guard = match shared.writer.try_lock() {
        Ok(guard) => Some(guard),
        Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(std::sync::TryLockError::WouldBlock) => None,
    };
    match store_guard {
        Some(store) => out.push_str(&format!(
            "{{\"segments\":{},\"sealed\":{},\"active_bytes\":{},\"wedged\":{}}}",
            store.segment_count(),
            store.sealed_count(),
            store.active_bytes(),
            store.is_wedged(),
        )),
        None => out.push_str("null"),
    }
    out.push_str(",\"shards\":[");
    for (i, (location, records)) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"location\":{},\"records\":{records}}}",
            location.get()
        ));
    }
    out.push_str("],\"percentiles\":{");
    for (i, (name, hist)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let q = |q: f64| {
            hist.quantile(q)
                .map_or_else(|| "null".to_string(), |v| v.to_string())
        };
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            hist.count,
            q(0.5),
            q(0.9),
            q(0.99)
        ));
    }
    out.push_str("},\"metrics\":");
    out.push_str(&snapshot.to_json_pretty());
    out.push_str(",\"recorder\":[");
    for (i, entry) in ptm_obs::trace::recorder::entries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&entry.to_json());
    }
    out.push_str("]}");
    out
}

/// The read-only query path: computes the answer against the sharded
/// store, under shared read locks only — concurrent with other queries and
/// with uploads to other locations.
fn answer_query(
    shared: &Shared,
    compute: impl FnOnce(&CentralServer) -> Result<f64, ServerError>,
) -> Response {
    if let Some(action) = shared.estimate_site.check() {
        match action {
            FaultAction::Delay(pause) => std::thread::sleep(pause),
            _ => {
                return Response::Error {
                    code: ErrorCode::Internal,
                    message: "injected estimate fault".into(),
                };
            }
        }
    }
    let _s = ptm_obs::tspan!("rpc.server.estimate");
    estimate_response(compute(&shared.central))
}

fn estimate_response(result: Result<f64, ServerError>) -> Response {
    match result {
        Ok(value) => Response::Estimate(value),
        Err(err @ ServerError::MissingRecord { .. }) => Response::Error {
            code: ErrorCode::MissingRecord,
            message: err.to_string(),
        },
        Err(err @ ServerError::Estimate(_)) => Response::Error {
            code: ErrorCode::EstimateFailed,
            message: err.to_string(),
        },
        Err(err) => Response::Error {
            code: ErrorCode::Internal,
            message: err.to_string(),
        },
    }
}

/// Publishes the records a store open read into `central`. Each record
/// goes in as the `Arc` the open handed over, not cloned: the store keeps
/// no copy, so the engine's shard holds the only one.
/// `CentralServer::submit` accepts a record identical to the one it holds,
/// so a key archived twice identically, or loaded into an engine that
/// already holds it, is an idempotent re-publish; it refuses a different
/// one ([`DaemonError::ReplayConflict`]). Start loads into an empty engine;
/// degraded-mode recovery loads the reopened store into the live one.
fn load_archive(
    central: &CentralServer,
    records: Vec<Arc<TrafficRecord>>,
) -> Result<(), DaemonError> {
    for record in records {
        let (location, period) = (record.location(), record.period());
        central.submit(record).map_err(|_| {
            DaemonError::ReplayConflict(format!(
                "archive contradicts query engine at location {} period {}",
                location.get(),
                period.get()
            ))
        })?;
    }
    Ok(())
}

/// How one live frame of an ingest batch fared in validation.
enum FrameVerdict {
    /// A record that neither the engine nor an earlier frame of the batch
    /// holds, with its record CRC: staged for the batch's one commit.
    Fresh(Arc<TrafficRecord>, u32),
    /// An identical re-send of a record the engine or an earlier frame of
    /// the batch holds: acked without touching the archive.
    Duplicate,
    /// Refused with this error reply (different contents for a held key).
    Rejected(Response),
}

/// Checks one upload frame against the engine and against the records
/// `staged` by earlier frames of its batch, staging it when fresh: exactly
/// what committing the frames one at a time would have seen. Runs under
/// the writer lock.
fn validate_upload(
    central: &CentralServer,
    staged: &mut HashMap<(LocationId, PeriodId), Arc<TrafficRecord>>,
    upload: Upload,
) -> FrameVerdict {
    let (location, period) = (upload.record.location(), upload.record.period());
    let held = central
        .record(location, period)
        .or_else(|| staged.get(&(location, period)).cloned());
    match held {
        Some(existing) if *existing == upload.record => FrameVerdict::Duplicate,
        Some(_) => {
            ptm_obs::counter!("rpc.server.ingest.conflicts").inc();
            FrameVerdict::Rejected(Response::Error {
                code: ErrorCode::DuplicateConflict,
                message: format!(
                    "location {} period {} already holds different contents",
                    location.get(),
                    period.get()
                ),
            })
        }
        None => {
            let record = Arc::new(upload.record);
            staged.insert((location, period), Arc::clone(&record));
            FrameVerdict::Fresh(record, upload.crc)
        }
    }
}

/// One reply per frame of an ingest batch, in arrival order: a doomed
/// frame (`None`) is answered `DeadlineExceeded`, every other frame by
/// `answer`.
fn frame_replies<T>(
    frames: Vec<Option<T>>,
    traces: &[Option<ptm_obs::TraceContext>],
    mut answer: impl FnMut(T) -> Response,
) -> Vec<Reply> {
    frames
        .into_iter()
        .zip(traces)
        .map(|(frame, trace)| match frame {
            None => doomed_reply(),
            Some(frame) => Reply {
                response: answer(frame),
                trace: *trace,
            },
        })
        .collect()
}

/// The write-ahead ingest path for one batch of a connection's upload
/// frames. Each frame carries one record and gets one verdict: a frame
/// whose wire deadline passed before the batch started is doomed, and
/// every other frame is checked under the exclusive writer lock
/// ([`validate_upload`]) as fresh, an identical re-send or a conflicting
/// re-send. Every fresh record is persisted with a **single**
/// append+flush, under the CRC the reactor derived, then published, then
/// each frame is answered on its own. Because the archive is appended
/// *before* the records become queryable, a storage failure leaves the
/// engine untouched: every fresh and duplicate frame is answered
/// `Overloaded` (retry genuinely helps once the backend recovers) and
/// nothing is acked. A batch of doomed frames only takes no writer lock.
fn ingest_frames(shared: &Shared, frames: Vec<(Upload, Arrival)>, now: Instant) -> Vec<Reply> {
    if frames.iter().all(|(_, arrival)| arrival.doomed_at(now)) {
        return frames.iter().map(|_| doomed_reply()).collect();
    }
    let _t = ptm_obs::span!("rpc.server.ingest");
    // Open every live frame's dispatch span up front. The first one stays
    // open across the whole commit so lock-wait and commit spans (which
    // parent off the thread-local current span) land inside it; later
    // frames get their queue wait recorded and their trace context
    // captured for the encode-reply stage.
    let mut traces: Vec<Option<ptm_obs::TraceContext>> = Vec::with_capacity(frames.len());
    let mut uploads: Vec<Option<Upload>> = Vec::with_capacity(frames.len());
    let mut root0: Option<ptm_obs::trace::SpanGuard> = None;
    for (upload, arrival) in frames {
        if arrival.doomed_at(now) {
            traces.push(None);
            uploads.push(None);
            continue;
        }
        let root = open_dispatch(arrival);
        traces.push(root.context());
        uploads.push(Some(upload));
        root0.get_or_insert(root);
    }
    let _root0 = root0;
    let live = uploads.iter().flatten().count();
    if live > 1 {
        ptm_obs::counter!("rpc.server.frames.coalesced").add(live as u64);
    }
    let shed = || Response::Overloaded {
        retry_after_ms: shared.config.retry_after_ms,
    };

    let mut store = lock_writer(&shared.writer);
    // Registered execution-site hook: checked once per ingest batch, just
    // after the writer lock is taken. A scheduled `panic` exercises the
    // daemon's catch-unwind and poisoned-lock recovery; a `delay` holds
    // the lock to back the upload queue up; any other action fails the
    // batch's live frames.
    if let Some(action) = shared.ingest_site.check() {
        match action {
            // ptm-analyze: allow(no-unwrap): deliberate fault-injection site; fires only under a scheduled FaultPlan rule
            FaultAction::Panic => panic!("injected ingest fault"),
            FaultAction::Delay(pause) => std::thread::sleep(pause),
            _ => {
                return frame_replies(uploads, &traces, |_| Response::Error {
                    code: ErrorCode::Internal,
                    message: "injected ingest fault".into(),
                });
            }
        }
    }
    // Degraded (read-only) mode: the archive backend kept failing. Shed
    // uploads at once; the maintenance thread probes the reopen. Queries
    // never reach this path.
    if shared.degraded.flag.load(Ordering::SeqCst) {
        return frame_replies(uploads, &traces, |_| {
            ptm_obs::counter!("rpc.shed.uploads").inc();
            shed()
        });
    }

    let mut staged = HashMap::new();
    let verdicts: Vec<Option<FrameVerdict>> = uploads
        .into_iter()
        .map(|upload| upload.map(|upload| validate_upload(&shared.central, &mut staged, upload)))
        .collect();

    // Write-ahead: disk first, then the query engine, then the acks. One
    // append+flush covers every fresh record of the batch, in arrival
    // order. A failed append rolled the archive back to its last committed
    // frame (ptm-store's transactional commit), so no record of the batch
    // is durable and no frame is acked.
    let fresh = verdicts
        .iter()
        .flatten()
        .filter_map(|verdict| match verdict {
            FrameVerdict::Fresh(record, crc) => Some((record.as_ref(), *crc)),
            FrameVerdict::Duplicate | FrameVerdict::Rejected(_) => None,
        });
    let commit_span = ptm_obs::tspan!("rpc.server.commit");
    let commit_result = store.append_all_with_crc(fresh);
    drop(commit_span);
    if let Err(err) = commit_result {
        let failures = shared.degraded.failures.fetch_add(1, Ordering::SeqCst) + 1;
        ptm_obs::counter!("store.fault.append_errors").inc();
        ptm_obs::error!("rpc.server", "archive append failed; job rolled back";
            error = err.to_string(), consecutive = failures);
        if store.is_wedged() || failures >= shared.config.degraded_after_failures {
            enter_degraded(shared);
        }
        return frame_replies(verdicts, &traces, |verdict| match verdict {
            FrameVerdict::Fresh(..) | FrameVerdict::Duplicate => {
                ptm_obs::counter!("rpc.shed.uploads").inc();
                shed()
            }
            FrameVerdict::Rejected(response) => response,
        });
    }
    shared.degraded.failures.store(0, Ordering::SeqCst);

    // Publish and ack per frame. Validation plus the exclusive writer
    // lock make publish conflicts impossible; answer that frame
    // defensively rather than panic if the invariant is ever broken (its
    // record is already durable, so the remaining frames still publish).
    let mut accepted = 0u64;
    let mut duplicates = 0u64;
    let replies = frame_replies(verdicts, &traces, |verdict| match verdict {
        FrameVerdict::Fresh(record, _) => match shared.central.submit(record) {
            Ok(()) => {
                accepted += 1;
                Response::UploadOk {
                    accepted: 1,
                    duplicates: 0,
                }
            }
            Err(err) => {
                ptm_obs::error!("rpc.server", "publish after archive failed";
                    error = err.to_string());
                Response::Error {
                    code: ErrorCode::Internal,
                    message: err.to_string(),
                }
            }
        },
        FrameVerdict::Duplicate => {
            duplicates += 1;
            Response::UploadOk {
                accepted: 0,
                duplicates: 1,
            }
        }
        FrameVerdict::Rejected(response) => response,
    });

    if ptm_obs::metrics_enabled() {
        ptm_obs::gauge!("rpc.shard.records").set(shared.central.record_count() as i64);
    }
    ptm_obs::counter!("rpc.server.ingest.accepted").add(accepted);
    ptm_obs::counter!("rpc.server.ingest.duplicates").add(duplicates);
    replies
}

/// Flips ingest into degraded (read-only) mode. Idempotent.
fn enter_degraded(shared: &Shared) {
    if !shared.degraded.flag.swap(true, Ordering::SeqCst) {
        ptm_obs::counter!("store.recovery.degraded_entries").inc();
        ptm_obs::gauge!("rpc.server.degraded").set(1);
        ptm_obs::error!("rpc.server", "entering degraded mode: uploads shed, queries served";
            cooldown_ms = shared.config.degraded_cooldown.as_millis() as u64);
        // Capture the evidence at the moment of failure, not at exit.
        flush_observability(&shared.config, "degraded entry");
    }
}

/// Best-effort flight-recorder dump to the configured path; failures are
/// logged and swallowed (a broken dump path must not worsen the incident).
fn dump_recorder(config: &ServerConfig, why: &str) {
    let Some(path) = &config.recorder_dump else {
        return;
    };
    match ptm_obs::trace::recorder::dump_to(path) {
        Ok(entries) => {
            ptm_obs::info!("rpc.server", "flight recorder dumped";
                why = why, entries = entries, path = path.display().to_string());
        }
        Err(err) => {
            ptm_obs::warn!("rpc.server", "flight recorder dump failed";
                why = why, error = err.to_string());
        }
    }
}

/// Flushes the metrics snapshot and flight recorder to their configured
/// paths on a lifecycle transition (degraded entry/exit, shutdown), so the
/// on-disk picture is current when something goes wrong — not only after a
/// clean exit.
fn flush_observability(config: &ServerConfig, why: &str) {
    if let Some(path) = &config.metrics_snapshot {
        if ptm_obs::metrics_enabled() {
            if let Err(err) = std::fs::write(path, ptm_obs::snapshot().to_json_pretty()) {
                ptm_obs::warn!("rpc.server", "metrics snapshot flush failed";
                    why = why, error = err.to_string());
            }
        }
    }
    dump_recorder(config, why);
}

/// Degraded-mode reopen probe, called under the writer lock (the
/// maintenance thread paces it): reopen the segment store from disk,
/// reconcile its records with the query engine, and swap it in. Returns
/// whether ingest may resume.
fn try_recover(shared: &Shared, store: &mut MutexGuard<'_, SegmentStore>) -> bool {
    // Reopen from disk through the same hooks, so chaos schedules carry
    // across the swap. Open re-runs torn-tail recovery, which is what
    // heals a wedged store whose rollback truncate failed.
    let recovered = match SegmentStore::open(&shared.archive_path, shared.store_opts.clone()) {
        Ok(opened) => opened,
        Err(err) => {
            ptm_obs::warn!("rpc.server", "degraded-mode reopen probe failed";
                error = err.to_string());
            return false;
        }
    };
    // The store is written ahead of the query engine, so durable state can
    // only ever trail what is in memory — never contradict it. Every record
    // is re-published: one already in memory is an idempotent no-op, one on
    // disk but not in memory (a crash squeezed between commit and publish)
    // is added, and a contradiction means the directory was swapped out
    // from under us, so ingest stays down.
    if let Err(err) = load_archive(&shared.central, recovered.records) {
        ptm_obs::error!("rpc.server", "reconciling reopened store failed";
            error = err.to_string());
        return false;
    }
    **store = recovered.store;
    let (records, torn_bytes) = (shared.central.record_count(), recovered.torn_bytes);
    shared.degraded.failures.store(0, Ordering::SeqCst);
    shared.degraded.flag.store(false, Ordering::SeqCst);
    ptm_obs::counter!("store.recovery.reopens").inc();
    ptm_obs::gauge!("rpc.server.degraded").set(0);
    ptm_obs::info!("rpc.server", "left degraded mode; store reopened";
        records = records, torn_bytes = torn_bytes);
    flush_observability(&shared.config, "degraded exit");
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, ReadOutcome};
    use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use ptm_core::record::PeriodId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::io::Write;

    fn temp_archive(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ptm-rpc-server-{}-{name}.ptma", std::process::id()));
        // The path may hold a segment directory from an earlier run.
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn cleanup_archive(path: &PathBuf) {
        let _ = std::fs::remove_dir_all(path);
    }

    /// Post-shutdown durable record count, read straight off the disk.
    fn archived_records(path: &PathBuf) -> usize {
        let opened = SegmentStore::open(path, StoreOptions::default()).expect("open");
        opened.store.record_count()
    }

    fn sample_record(location: u64, period: u32) -> TrafficRecord {
        let scheme = EncodingScheme::new(7, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(u64::from(period) + location * 31);
        let mut record = TrafficRecord::new(
            LocationId::new(location),
            PeriodId::new(period),
            BitmapSize::new(512).expect("pow2"),
        );
        for _ in 0..40 {
            let v = VehicleSecrets::generate(&mut rng, 3);
            record.encode(&scheme, &v);
        }
        record
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        }
    }

    fn exchange(stream: &mut TcpStream, request: &Request) -> Response {
        let payload = crate::proto::encode_request(request);
        write_frame(stream, &payload).expect("write");
        match read_frame(stream, DEFAULT_MAX_FRAME_LEN).expect("read") {
            ReadOutcome::Frame(bytes) => crate::proto::decode_response(&bytes).expect("decode"),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    fn connect(addr: std::net::SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream
    }

    #[test]
    fn start_serve_shutdown_and_replay() {
        let path = temp_archive("lifecycle");
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let addr = server.local_addr();

        // Drive the daemon with raw frames (the client crate is tested
        // separately): upload two records, then re-send one identically.
        let mut stream = connect(addr);
        for (record, want_accepted, want_dup) in [
            (sample_record(1, 0), 1u32, 0u32),
            (sample_record(1, 1), 1, 0),
            (sample_record(1, 0), 0, 1),
        ] {
            let response = exchange(&mut stream, &Request::Upload(record));
            assert_eq!(
                response,
                Response::UploadOk {
                    accepted: want_accepted,
                    duplicates: want_dup
                }
            );
        }
        drop(stream);
        assert_eq!(server.record_count(), 2);
        server.shutdown().expect("shutdown");

        // Restart on the same archive: records replay from disk.
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("restart");
        assert_eq!(server.replay_report().records, 2);
        assert_eq!(server.record_count(), 2);
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn conflicting_duplicate_rejected_and_not_archived() {
        let path = temp_archive("conflict");
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let addr = server.local_addr();
        let mut stream = connect(addr);

        let original = sample_record(4, 0);
        let mut conflicting = sample_record(4, 0);
        conflicting.set_reported_index(0);
        conflicting.set_reported_index(1);
        assert_ne!(original, conflicting);

        for (record, want_err) in [(original, false), (conflicting, true)] {
            let response = exchange(&mut stream, &Request::Upload(record));
            if want_err {
                assert!(
                    matches!(
                        response,
                        Response::Error {
                            code: ErrorCode::DuplicateConflict,
                            ..
                        }
                    ),
                    "{response:?}"
                );
            } else {
                assert_eq!(
                    response,
                    Response::UploadOk {
                        accepted: 1,
                        duplicates: 0
                    }
                );
            }
        }
        server.shutdown().expect("shutdown");
        // Only the first record reached the archive.
        assert_eq!(archived_records(&path), 1);
        cleanup_archive(&path);
    }

    #[test]
    fn shutdown_does_not_wait_out_the_poll_interval() {
        // The maintenance thread checks its flags every poll_interval; a
        // shutdown must wake it rather than wait out a 10 s interval.
        let path = temp_archive("prompt-shutdown");
        let config = ServerConfig {
            poll_interval: Duration::from_secs(10),
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let mut stream = connect(server.local_addr());
        assert!(matches!(
            exchange(&mut stream, &Request::Ping),
            Response::Pong { .. }
        ));
        let started = Instant::now();
        server.shutdown().expect("shutdown");
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        cleanup_archive(&path);
    }

    #[test]
    fn garbage_frame_closes_connection_but_not_daemon() {
        let path = temp_archive("garbage");
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let addr = server.local_addr();

        // A frame whose checksum cannot match.
        let mut junk = Vec::new();
        junk.extend_from_slice(&4u32.to_le_bytes());
        junk.extend_from_slice(&0u32.to_le_bytes());
        junk.extend_from_slice(&[1, 2, 3, 4]);
        // A sound frame with the retired multi-record upload tag (3): a
        // count of one, then a length-prefixed record.
        let record = ptm_store::codec::encode_record(&sample_record(1, 0));
        let mut retired = vec![PROTOCOL_VERSION, 3, 0];
        retired.extend_from_slice(&1u32.to_le_bytes());
        retired.extend_from_slice(&(record.len() as u32).to_le_bytes());
        retired.extend_from_slice(&record);
        let mut retired_frame = Vec::new();
        write_frame(&mut retired_frame, &retired).expect("vec write");

        for bytes in [junk, retired_frame] {
            let mut stream = connect(addr);
            stream.write_all(&bytes).expect("write");
            // The server answers with a malformed-error frame and closes.
            match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                Ok(ReadOutcome::Frame(bytes)) => {
                    let response = crate::proto::decode_response(&bytes).expect("decode");
                    assert!(
                        matches!(
                            response,
                            Response::Error {
                                code: ErrorCode::Malformed,
                                ..
                            }
                        ),
                        "{response:?}"
                    );
                }
                other => panic!("expected error frame, got {other:?}"),
            }
            assert!(
                matches!(
                    read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN),
                    Ok(ReadOutcome::Closed)
                ),
                "connection must close after a malformed frame"
            );
        }

        // The daemon still serves a healthy client afterwards, and stored
        // nothing.
        let mut stream = connect(addr);
        let response = exchange(&mut stream, &Request::Ping);
        assert_eq!(
            response,
            Response::Pong {
                version: PROTOCOL_VERSION,
                s: 3,
                records: 0,
                degraded: false
            }
        );
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn panicked_handler_does_not_poison_the_daemon() {
        let path = temp_archive("panic");
        let mut config = test_config();
        // Registered chaos site, not a bespoke backdoor: the first ingest
        // job panics inside the writer lock.
        config.fault_plan = Some(FaultPlan::parse("rpc.ingest@1=panic", 7).expect("plan"));
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let addr = server.local_addr();

        // First request panics inside ingest while holding the writer
        // lock, poisoning it. The daemon must answer with an Internal
        // error frame instead of unwinding the connection thread.
        let mut stream = connect(addr);
        let response = exchange(&mut stream, &Request::Upload(sample_record(1, 0)));
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::Internal,
                    ..
                }
            ),
            "{response:?}"
        );
        drop(stream);

        // Regression: before poison recovery, every later request died on
        // `lock().expect("state lock")` — one bad request was a
        // whole-daemon outage. The next connection must be served fully.
        let mut stream = connect(addr);
        assert_eq!(
            exchange(&mut stream, &Request::Ping),
            Response::Pong {
                version: PROTOCOL_VERSION,
                s: 3,
                records: 0,
                degraded: false
            }
        );
        let record = sample_record(1, 0);
        assert_eq!(
            exchange(&mut stream, &Request::Upload(record.clone())),
            Response::UploadOk {
                accepted: 1,
                duplicates: 0
            }
        );
        match exchange(
            &mut stream,
            &Request::QueryVolume {
                location: record.location(),
                period: record.period(),
            },
        ) {
            Response::Estimate(value) => assert!(value.is_finite() && value > 0.0),
            other => panic!("expected estimate, got {other:?}"),
        }
        assert_eq!(server.record_count(), 1);
        server.shutdown().expect("shutdown");

        // The poisoned-then-recovered writer still archived correctly.
        assert_eq!(archived_records(&path), 1);
        cleanup_archive(&path);
    }

    #[test]
    fn slow_writer_is_served_not_disconnected() {
        let path = temp_archive("slow-writer");
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let addr = server.local_addr();

        // Dribble one upload frame a few bytes at a time, pausing well
        // past the server's poll interval (5 ms) between writes. The old
        // reader declared the connection stalled at the first mid-frame
        // timeout; the stall budget (read_timeout = 2 s) must keep it
        // alive to the end of the frame.
        let payload = crate::proto::encode_request(&Request::Upload(sample_record(8, 0)));
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("vec write");

        let mut stream = connect(addr);
        for chunk in framed.chunks(3).take(8) {
            stream.write_all(chunk).expect("dribble");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(25));
        }
        stream.write_all(&framed[3 * 8..]).expect("tail");
        match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).expect("read") {
            ReadOutcome::Frame(bytes) => {
                let response = crate::proto::decode_response(&bytes).expect("decode");
                assert_eq!(
                    response,
                    Response::UploadOk {
                        accepted: 1,
                        duplicates: 0
                    }
                );
            }
            other => panic!("expected upload ack, got {other:?}"),
        }
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn connection_cap_sheds_with_an_overloaded_frame() {
        let path = temp_archive("conn-cap");
        let config = ServerConfig {
            max_connections: 2,
            retry_after_ms: 33,
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let addr = server.local_addr();

        // Two pinged (so definitely registered) connections fill the cap.
        let mut held_a = connect(addr);
        let mut held_b = connect(addr);
        assert!(matches!(
            exchange(&mut held_a, &Request::Ping),
            Response::Pong { .. }
        ));
        assert!(matches!(
            exchange(&mut held_b, &Request::Ping),
            Response::Pong { .. }
        ));

        // The third connection receives nothing unsolicited; its first
        // request is answered with Overloaded and the connection closes.
        let mut shed = connect(addr);
        assert_eq!(
            exchange(&mut shed, &Request::Ping),
            Response::Overloaded { retry_after_ms: 33 }
        );
        assert!(matches!(
            read_frame(&mut shed, DEFAULT_MAX_FRAME_LEN),
            Ok(ReadOutcome::Closed)
        ));
        drop(shed);

        // Releasing one slot lets a new connection in (the reactor
        // retires the closed connection on its next sweep, so poll
        // briefly): a Pong instead of Overloaded means admitted.
        drop(held_a);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut retry = connect(addr);
            match exchange(&mut retry, &Request::Ping) {
                Response::Overloaded { .. } => {
                    assert!(Instant::now() < deadline, "slot never released");
                    std::thread::sleep(Duration::from_millis(10));
                }
                Response::Pong { .. } => break,
                other => panic!("unexpected response {other:?}"),
            }
        }
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn shed_path_never_writes_unsolicited_or_blocks_other_accepts() {
        // Regression for the accept-loop head-of-line blocking bug: the
        // old accept thread wrote the Overloaded frame inline with a 1 s
        // write timeout, so one slow shed peer could stall every other
        // accept — and the unsolicited frame raced the client's first
        // request. Now shed connections park silently until they speak.
        let path = temp_archive("shed-hol");
        let config = ServerConfig {
            max_connections: 1,
            retry_after_ms: 21,
            // Long idle cutoff: the sequential no-bytes check below takes
            // ~2 s across 20 lingerers, and none may be idle-closed before
            // its turn.
            read_timeout: Duration::from_secs(10),
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let addr = server.local_addr();

        let mut held = connect(addr);
        assert!(matches!(
            exchange(&mut held, &Request::Ping),
            Response::Pong { .. }
        ));

        // A pile of shed connections that never read and never speak.
        // Under the old inline write they would each have received an
        // unsolicited frame (and, unread, could stall the accept thread).
        let lingerers: Vec<TcpStream> = (0..20).map(|_| connect(addr)).collect();
        std::thread::sleep(Duration::from_millis(100));

        // While they linger, the admitted connection is served promptly.
        let start = Instant::now();
        assert!(matches!(
            exchange(&mut held, &Request::Ping),
            Response::Pong { .. }
        ));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "admitted connection stalled behind shed peers: {:?}",
            start.elapsed()
        );

        // No shed connection received a single unsolicited byte.
        for mut lingerer in lingerers {
            lingerer
                .set_read_timeout(Some(Duration::from_millis(100)))
                .expect("timeout");
            assert!(
                matches!(
                    read_frame(&mut lingerer, DEFAULT_MAX_FRAME_LEN),
                    Ok(ReadOutcome::Idle)
                ),
                "shed connection received unsolicited bytes"
            );
        }

        // A shed connection that does speak gets its Overloaded answer.
        let mut polite = connect(addr);
        assert_eq!(
            exchange(&mut polite, &Request::Ping),
            Response::Overloaded { retry_after_ms: 21 }
        );
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn drain_answers_going_away_then_reports_complete() {
        let path = temp_archive("drain");
        let config = ServerConfig {
            retry_after_ms: 37,
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let addr = server.local_addr();

        // Work accepted before the drain is still answered.
        let mut stream = connect(addr);
        assert_eq!(
            exchange(&mut stream, &Request::Upload(sample_record(1, 0))),
            Response::UploadOk {
                accepted: 1,
                duplicates: 0
            }
        );
        assert!(!server.draining());
        server.drain();
        assert!(server.draining());

        // A v3 request after the drain gets the explicit hand-off: the
        // reactor is still running, it just takes nothing new.
        let mut late = connect(addr);
        assert_eq!(
            exchange(&mut late, &Request::Ping),
            Response::GoingAway { retry_after_ms: 37 }
        );

        // With nothing in flight and every reply flushed, quiescence is
        // published for the caller to observe before shutting down.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !server.drain_complete() {
            assert!(Instant::now() < deadline, "drain never completed");
            std::thread::yield_now();
        }
        server.shutdown().expect("shutdown");

        // The checkpointed store reopens with the pre-drain upload intact.
        let reopened = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("restart");
        let mut stream = connect(reopened.local_addr());
        match exchange(&mut stream, &Request::Ping) {
            Response::Pong { records, .. } => assert_eq!(records, 1, "acked record lost"),
            other => panic!("expected Pong, got {other:?}"),
        }
        reopened.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn other_protocol_versions_get_one_typed_rejection() {
        // Every client in the workspace speaks PROTOCOL_VERSION. Any other
        // first byte — the retired two-byte v1/v2 headers included — is
        // answered Error{VersionMismatch}, and the connection closes.
        let path = temp_archive("version-reject");
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let addr = server.local_addr();
        for frame in [&[1u8, 1][..], &[2, 1], &[4, 1, 0]] {
            let mut stream = connect(addr);
            write_frame(&mut stream, frame).expect("write");
            match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).expect("read") {
                ReadOutcome::Frame(bytes) => assert_eq!(
                    crate::proto::decode_response(&bytes).expect("decode"),
                    Response::Error {
                        code: ErrorCode::VersionMismatch,
                        message: format!(
                            "client speaks version {}, server speaks {PROTOCOL_VERSION}",
                            frame[0]
                        ),
                    }
                ),
                other => panic!("expected a VersionMismatch frame for {frame:?}, got {other:?}"),
            }
            assert!(
                matches!(
                    read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN),
                    Ok(ReadOutcome::Closed)
                ),
                "connection must close after rejecting {frame:?}"
            );
        }
        // The daemon still serves a client that speaks its version.
        let mut stream = connect(addr);
        assert!(matches!(
            exchange(&mut stream, &Request::Ping),
            Response::Pong { .. }
        ));
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn doomed_queued_work_is_dropped_not_executed() {
        // A frame whose wire deadline passed while it waited in the
        // worker queue is answered DeadlineExceeded, not executed. One
        // worker is parked on an injected ingest delay; a query stamped
        // with a 1 ms budget queues behind it and dooms.
        let path = temp_archive("doomed");
        let config = ServerConfig {
            workers: 1,
            fault_plan: Some(FaultPlan::parse("rpc.ingest@1=delay:300", 7).expect("plan")),
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let addr = server.local_addr();

        // Occupy the lone worker with a delayed ingest on one connection.
        let mut slow = connect(addr);
        let payload = crate::proto::encode_request(&Request::Upload(sample_record(1, 0)));
        write_frame(&mut slow, &payload).expect("write upload");

        // Give the reactor a beat to dispatch the upload into the worker.
        std::thread::sleep(Duration::from_millis(50));

        // A deadline-stamped query on a second connection queues behind
        // it; its 1 ms budget is long gone by the time a worker frees up.
        let mut doomed = connect(addr);
        let query = crate::proto::encode_request_with(
            &Request::QueryVolume {
                location: LocationId::new(1),
                period: PeriodId::new(0),
            },
            None,
            Some(1),
        );
        write_frame(&mut doomed, &query).expect("write query");
        match read_frame(&mut doomed, DEFAULT_MAX_FRAME_LEN).expect("read") {
            ReadOutcome::Frame(bytes) => {
                assert_eq!(
                    crate::proto::decode_response(&bytes).expect("decode"),
                    Response::DeadlineExceeded
                );
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The parked upload still completes and acks.
        match read_frame(&mut slow, DEFAULT_MAX_FRAME_LEN).expect("read") {
            ReadOutcome::Frame(bytes) => {
                assert_eq!(
                    crate::proto::decode_response(&bytes).expect("decode"),
                    Response::UploadOk {
                        accepted: 1,
                        duplicates: 0
                    }
                );
            }
            other => panic!("expected UploadOk, got {other:?}"),
        }
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn every_frame_of_a_coalesced_job_gets_its_own_verdict() {
        // The lone worker is parked on an injected ingest delay, so five
        // upload frames written at once on a second connection queue up
        // and coalesce: a fresh record, different contents for its key, an
        // identical re-send of it, a frame stamped with a 1 ms budget
        // (long gone when the job starts), and another fresh record.
        let path = temp_archive("verdicts");
        let config = ServerConfig {
            workers: 1,
            fault_plan: Some(FaultPlan::parse("rpc.ingest@1=delay:300", 7).expect("plan")),
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let addr = server.local_addr();
        let parked = sample_record(1, 0);
        let mut slow = connect(addr);
        let payload = crate::proto::encode_request(&Request::Upload(parked.clone()));
        write_frame(&mut slow, &payload).expect("write upload");
        // Give the reactor a beat to dispatch the upload into the worker.
        std::thread::sleep(Duration::from_millis(50));

        let a = sample_record(2, 0);
        let mut a_different = a.clone();
        a_different.set_reported_index(0);
        a_different.set_reported_index(1);
        assert_ne!(a, a_different);
        let (b, c) = (sample_record(2, 1), sample_record(2, 2));
        let mut wave = Vec::new();
        for (record, deadline_ms) in [
            (&a, None),
            (&a_different, None),
            (&a, None),
            (&b, Some(1)),
            (&c, None),
        ] {
            let request = Request::Upload(record.clone());
            let payload = crate::proto::encode_request_with(&request, None, deadline_ms);
            write_frame(&mut wave, &payload).expect("vec write");
        }
        let mut stream = connect(addr);
        stream.write_all(&wave).expect("write wave");
        let upload_ok = |accepted, duplicates| Response::UploadOk {
            accepted,
            duplicates,
        };
        let mut replies = Vec::new();
        for _ in 0..5 {
            match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).expect("read") {
                ReadOutcome::Frame(bytes) => {
                    replies.push(crate::proto::decode_response(&bytes).expect("decode"));
                }
                other => panic!("expected a reply, got {other:?}"),
            }
        }
        assert_eq!(replies[0], upload_ok(1, 0), "{replies:?}");
        assert!(
            matches!(
                replies[1],
                Response::Error {
                    code: ErrorCode::DuplicateConflict,
                    ..
                }
            ),
            "{replies:?}"
        );
        assert_eq!(replies[2], upload_ok(0, 1), "{replies:?}");
        assert_eq!(replies[3], Response::DeadlineExceeded, "{replies:?}");
        assert_eq!(replies[4], upload_ok(1, 0), "{replies:?}");
        match read_frame(&mut slow, DEFAULT_MAX_FRAME_LEN).expect("read") {
            ReadOutcome::Frame(bytes) => assert_eq!(
                crate::proto::decode_response(&bytes).expect("decode"),
                upload_ok(1, 0)
            ),
            other => panic!("expected the parked ack, got {other:?}"),
        }
        server.shutdown().expect("shutdown");

        // The archive holds the parked record, A and C, and not B.
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("restart");
        assert_eq!(server.replay_report().records, 3);
        let held = |record: &TrafficRecord| {
            server
                .shared
                .central
                .record(record.location(), record.period())
        };
        for record in [&parked, &a, &c] {
            assert_eq!(held(record).as_deref(), Some(record));
        }
        assert_eq!(held(&b), None);
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn connection_teardown_releases_slots_without_new_accepts() {
        // Regression for the reaping bug: the old accept loop only reaped
        // finished connection handles on a *successful accept*, so
        // resources from closed connections lingered while the listener
        // idled. The reactor retires closed connections on its sweep —
        // the count must drop promptly with nobody connecting.
        let path = temp_archive("reap");
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let addr = server.local_addr();

        let mut conns: Vec<TcpStream> = (0..5).map(|_| connect(addr)).collect();
        for stream in &mut conns {
            assert!(matches!(
                exchange(stream, &Request::Ping),
                Response::Pong { .. }
            ));
        }
        assert_eq!(server.connection_count(), 5);

        drop(conns);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connection_count() > 0 {
            assert!(
                Instant::now() < deadline,
                "closed connections never reaped: {} still counted",
                server.connection_count()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn hydration_checks_engine_records_against_the_archive() {
        let path = temp_archive("hydrate-check");
        let location = LocationId::new(12);
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let mut stream = connect(server.local_addr());
        for period in 0..3 {
            let response = exchange(&mut stream, &Request::Upload(sample_record(12, period)));
            assert_eq!(
                response,
                Response::UploadOk {
                    accepted: 1,
                    duplicates: 0
                }
            );
        }
        drop(stream);
        server.shutdown().expect("shutdown");

        // A restarted daemon holds every archived record before it has
        // served a single request.
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("restart");
        assert_eq!(server.replay_report().records, 3);
        assert_eq!(
            server.shared.central.record_count(),
            server.replay_report().records
        );
        server.shutdown().expect("shutdown");

        let open = || {
            SegmentStore::open(&path, StoreOptions::default())
                .expect("open")
                .records
        };
        // An engine record that differs from the archived one for (12, 1)
        // makes the load refuse.
        let central = CentralServer::new(3);
        let different = TrafficRecord::new(
            location,
            PeriodId::new(1),
            BitmapSize::new(512).expect("pow2"),
        );
        assert_ne!(different, sample_record(12, 1));
        central.submit(different).expect("engine slot free");
        match load_archive(&central, open()) {
            Err(DaemonError::ReplayConflict(detail)) => assert_eq!(
                detail,
                "archive contradicts query engine at location 12 period 1"
            ),
            other => panic!("expected a replay conflict, got {other:?}"),
        }

        // An identical engine record is no contradiction: the load accepts
        // it as an idempotent re-publish.
        let central = CentralServer::new(3);
        central
            .submit(sample_record(12, 1))
            .expect("engine slot free");
        load_archive(&central, open()).expect("load");
        assert_eq!(central.record_count(), 3);
        cleanup_archive(&path);
    }

    #[test]
    fn start_refuses_two_different_frames_for_one_key_and_loads_identical_ones_once() {
        // The store is a log: it keeps both frames, and the load decides.
        let path = temp_archive("two-frames");
        let record = sample_record(12, 1);
        let different = TrafficRecord::new(
            LocationId::new(12),
            PeriodId::new(1),
            BitmapSize::new(512).expect("pow2"),
        );
        assert_ne!(different, record);
        {
            let mut store = SegmentStore::open(&path, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all([&record, &different]).expect("append");
        }
        match RpcServer::start("127.0.0.1:0", &path, test_config()) {
            Err(DaemonError::ReplayConflict(detail)) => assert_eq!(
                detail,
                "archive contradicts query engine at location 12 period 1"
            ),
            Err(other) => panic!("expected a replay conflict, got {other:?}"),
            Ok(_) => panic!("a start over two different frames for one key must fail"),
        }
        cleanup_archive(&path);

        let path = temp_archive("two-identical-frames");
        {
            let mut store = SegmentStore::open(&path, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all([&record, &record]).expect("append");
            assert_eq!(store.record_count(), 2, "the store counts frames");
        }
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        assert_eq!(server.shared.central.record_count(), 1);
        assert_eq!(server.replay_report().records, 1);
        assert_eq!(server.record_count(), 1);
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn start_refuses_a_damaged_sealed_segment_and_leaves_it_untouched() {
        let records: Vec<TrafficRecord> = (0..10).map(|period| sample_record(14, period)).collect();
        let frame = 8 + ptm_store::codec::encode_record(&records[9]).len() as u64;
        // The ten frames are promised by the manifest either as the active
        // segment's checkpointed count (default threshold) or as a sealed
        // segment (a 1-byte threshold rotates after the commit). Cut half
        // the last frame, then exactly one whole frame: the first is a torn
        // promised frame, the second reads as a clean nine-frame segment
        // that only the manifest's count of ten catches.
        for rotate_bytes in [StoreOptions::default().rotate_bytes, 1] {
            for cut in [frame / 2, frame] {
                let path = temp_archive(&format!("damaged-sealed-{rotate_bytes}-{cut}"));
                {
                    let opts = StoreOptions {
                        rotate_bytes,
                        ..StoreOptions::default()
                    };
                    let mut store = SegmentStore::open(&path, opts).expect("open").store;
                    store.append_all(&records).expect("append");
                    store.checkpoint().expect("checkpoint");
                }
                let segment = path.join("seg-00000000.ptms");
                let len = std::fs::metadata(&segment).expect("meta").len();
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&segment)
                    .expect("open rw");
                file.set_len(len - cut).expect("cut");
                drop(file);
                let before = std::fs::read(&segment).expect("read");
                match RpcServer::start("127.0.0.1:0", &path, test_config()) {
                    Err(DaemonError::Store(StoreError::CorruptFrame { offset })) => {
                        assert_eq!(offset, len - frame, "cut {cut}, rotate {rotate_bytes}");
                    }
                    Err(other) => panic!("cut {cut}: expected CorruptFrame, got {other:?}"),
                    Ok(_) => panic!("cut {cut}: a damaged promised frame must fail the start"),
                }
                assert_eq!(
                    std::fs::read(&segment).expect("reread"),
                    before,
                    "a promised frame is never truncated"
                );
                cleanup_archive(&path);
            }
        }
    }

    #[test]
    fn start_refuses_an_archive_that_lost_its_manifest() {
        let path = temp_archive("no-manifest");
        {
            let mut store = SegmentStore::open(&path, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all([&sample_record(15, 0)]).expect("append");
            store.checkpoint().expect("checkpoint");
        }
        std::fs::remove_file(path.join("MANIFEST")).expect("lose the manifest");
        let segment = path.join("seg-00000000.ptms");
        let before = std::fs::read(&segment).expect("read");
        match RpcServer::start("127.0.0.1:0", &path, test_config()) {
            Err(DaemonError::Store(StoreError::MissingManifest { segment: 0 })) => {}
            Err(other) => panic!("expected MissingManifest, got {other:?}"),
            Ok(_) => panic!("an archive without its manifest must fail the start"),
        }
        assert_eq!(std::fs::read(&segment).expect("reread"), before);
        cleanup_archive(&path);
    }

    #[test]
    fn recovery_from_a_store_that_contradicts_the_engine_stays_degraded() {
        let path = temp_archive("recover-conflict");
        // A cooldown the test never reaches: the maintenance thread stays
        // out of it, and the probe runs once, here.
        let config = ServerConfig {
            degraded_cooldown: Duration::from_secs(600),
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        // The engine and the archive disagree on (12, 1): a store swapped
        // out from under the daemon.
        let different = TrafficRecord::new(
            LocationId::new(12),
            PeriodId::new(1),
            BitmapSize::new(512).expect("pow2"),
        );
        server.shared.central.submit(different).expect("engine");
        {
            let mut store = lock_writer(&server.shared.writer);
            store
                .append_all([sample_record(12, 1)].iter())
                .expect("archive");
            enter_degraded(&server.shared);
            assert!(!try_recover(&server.shared, &mut store));
        }
        assert!(server.degraded(), "a contradicting store keeps ingest down");

        // Uploads are shed, not answered with the contradiction.
        let mut stream = connect(server.local_addr());
        assert_eq!(
            exchange(&mut stream, &Request::Upload(sample_record(13, 0))),
            Response::Overloaded {
                retry_after_ms: test_config().retry_after_ms
            }
        );
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    /// Reads `n` reply frames off a blocking client stream.
    fn read_replies(stream: &mut TcpStream, n: usize) -> Vec<Response> {
        (0..n)
            .map(
                |_| match read_frame(stream, DEFAULT_MAX_FRAME_LEN).expect("read") {
                    ReadOutcome::Frame(bytes) => {
                        crate::proto::decode_response(&bytes).expect("decode")
                    }
                    other => panic!("expected a reply, got {other:?}"),
                },
            )
            .collect()
    }

    /// The framed `Upload` requests for `records`, back to back.
    fn upload_wave(records: &[TrafficRecord]) -> Vec<u8> {
        let mut wave = Vec::new();
        for record in records {
            let payload = crate::proto::encode_request(&Request::Upload(record.clone()));
            write_frame(&mut wave, &payload).expect("vec write");
        }
        wave
    }

    const ACKED: Response = Response::UploadOk {
        accepted: 1,
        duplicates: 0,
    };

    #[test]
    fn uploads_of_every_size_and_header_reopen_bit_exact() {
        // Sub-word maps (m = 1, 2, 4) through 2^15 bits, each under all four
        // header shapes (3, 7, 19 and 23 bytes): every frame is archived
        // under the CRC derived from its wire CRC (checked against the
        // payload in debug builds), and a restart reads every record back
        // bit-exact.
        let path = temp_archive("sizes");
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut records = Vec::new();
        for (location, m) in [1usize, 2, 4, 8, 64, 512, 4096, 32768]
            .into_iter()
            .enumerate()
        {
            for shape in 0..4u32 {
                let mut record = TrafficRecord::new(
                    LocationId::new(20 + location as u64),
                    PeriodId::new(shape),
                    BitmapSize::new(m).expect("pow2"),
                );
                for bit in 0..m {
                    if rand::Rng::gen_bool(&mut rng, 0.3) {
                        record.set_reported_index(bit);
                    }
                }
                records.push((record, shape));
            }
        }
        let mut stream = connect(server.local_addr());
        for (record, shape) in &records {
            let trace = (shape & 1 == 1).then_some(WireTrace {
                trace_id: 9,
                parent_span: 1,
            });
            let deadline_ms = (shape & 2 == 2).then_some(60_000);
            let request = Request::Upload(record.clone());
            let payload = crate::proto::encode_request_with(&request, trace, deadline_ms);
            write_frame(&mut stream, &payload).expect("write");
            assert_eq!(read_replies(&mut stream, 1), [ACKED]);
        }
        server.shutdown().expect("shutdown");

        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("restart");
        assert_eq!(server.replay_report().records, records.len());
        for (record, _) in &records {
            let held = server
                .shared
                .central
                .record(record.location(), record.period());
            assert_eq!(held.as_deref(), Some(record), "m {}", record.len());
        }
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn uploads_and_a_query_in_one_write_are_answered_in_order() {
        // The first ingest batch is held while every frame arrives: the
        // query behind 40 uploads waits for the ingest job's last
        // completion, so it sees the 40th record, and the 10 uploads
        // behind the query do not join the inbox ahead of it.
        let path = temp_archive("inbox-order");
        let config = ServerConfig {
            fault_plan: Some(FaultPlan::parse("rpc.ingest@1=delay:100", 7).expect("plan")),
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let records: Vec<TrafficRecord> = (0..50).map(|period| sample_record(3, period)).collect();
        let mut wire = upload_wave(&records[..40]);
        let query = Request::QueryVolume {
            location: LocationId::new(3),
            period: PeriodId::new(39),
        };
        write_frame(&mut wire, &crate::proto::encode_request(&query)).expect("vec write");
        wire.extend(upload_wave(&records[40..]));
        let mut stream = connect(server.local_addr());
        stream.write_all(&wire).expect("write");
        let replies = read_replies(&mut stream, 51);
        for (i, reply) in replies.iter().enumerate() {
            if i == 40 {
                assert!(
                    matches!(reply, Response::Estimate(_)),
                    "reply {i}: {reply:?}"
                );
            } else {
                assert_eq!(reply, &ACKED, "reply {i}");
            }
        }
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn a_query_on_another_connection_overtakes_a_draining_inbox() {
        // One worker; connection A's first two ingest batches are held. A
        // query that arrives on B during the first batch runs as soon as
        // that batch ends, while A's inbox still holds frames: the ingest
        // job ends when another job waits, and resumes behind it.
        let path = temp_archive("inbox-priority");
        let plan = "rpc.ingest@1=delay:300;rpc.ingest@2=delay:300";
        let config = ServerConfig {
            workers: 1,
            fault_plan: Some(FaultPlan::parse(plan, 7).expect("plan")),
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let addr = server.local_addr();
        let records: Vec<TrafficRecord> = (0..100).map(|period| sample_record(4, period)).collect();
        let mut a = connect(addr);
        a.write_all(&upload_wave(&records)).expect("write");
        // Give the reactor a beat to hand A's first batch to the worker.
        std::thread::sleep(Duration::from_millis(50));
        let mut b = connect(addr);
        let query = Request::QueryVolume {
            location: LocationId::new(4),
            period: PeriodId::new(0),
        };
        let answer = exchange(&mut b, &query);
        assert!(matches!(answer, Response::Estimate(_)), "{answer:?}");
        assert!(
            server.record_count() < records.len(),
            "the query waited for A's whole inbox"
        );
        assert!(read_replies(&mut a, records.len())
            .iter()
            .all(|r| *r == ACKED));
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn a_panic_in_a_middle_batch_closes_only_its_connection() {
        // The first batch is held while all 200 frames arrive; the second
        // panics with the rest of the inbox behind it.
        let path = temp_archive("inbox-panic");
        let plan = "rpc.ingest@1=delay:200;rpc.ingest@2=panic";
        let config = ServerConfig {
            fault_plan: Some(FaultPlan::parse(plan, 7).expect("plan")),
            ..test_config()
        };
        let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
        let addr = server.local_addr();
        let records: Vec<TrafficRecord> = (0..200).map(|period| sample_record(5, period)).collect();
        let mut a = connect(addr);
        a.write_all(&upload_wave(&records)).expect("write");
        let mut acked = 0;
        loop {
            match read_replies(&mut a, 1).remove(0) {
                Response::Error {
                    code: ErrorCode::Internal,
                    ..
                } => break,
                reply => {
                    assert_eq!(reply, ACKED);
                    acked += 1;
                }
            }
        }
        assert!((1..=MAX_COALESCED_FRAMES).contains(&acked), "{acked} acked");
        assert!(
            matches!(
                read_frame(&mut a, DEFAULT_MAX_FRAME_LEN),
                Ok(ReadOutcome::Closed)
            ),
            "nothing follows the Internal reply: the connection closes"
        );
        let mut b = connect(addr);
        assert_eq!(
            exchange(&mut b, &Request::Upload(sample_record(6, 0))),
            ACKED
        );
        let query = Request::QueryVolume {
            location: LocationId::new(5),
            period: PeriodId::new(0),
        };
        assert!(matches!(exchange(&mut b, &query), Response::Estimate(_)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.shared.worker_inflight.load(Ordering::SeqCst) != 0
            || server
                .shared
                .queue_depths
                .iter()
                .any(|depth| depth.load(Ordering::SeqCst) != 0)
        {
            assert!(Instant::now() < deadline, "the pool gauges never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.record_count(), acked + 1);
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    /// A reactor-side connection over loopback, and the client's end.
    fn loopback_conn(id: u64) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, peer) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        let stream = FaultyStream::new(stream, SiteHandle::disabled(), SiteHandle::disabled());
        (Conn::new(id, stream, peer, false), client)
    }

    fn upload_frame(record: TrafficRecord) -> DecodedFrame {
        let crc = crc32(&ptm_store::codec::encode_record(&record));
        DecodedFrame {
            body: Body::Upload(Upload { record, crc }),
            arrival: Arrival {
                trace: None,
                arrived: Instant::now(),
                deadline: None,
            },
        }
    }

    /// A one-worker pool running the daemon's jobs for `shared`, whose
    /// class queues hold `cap` jobs each (0: unbounded) and whose worker
    /// waits on `gate` before each job.
    fn gated_pool(
        shared: &Arc<Shared>,
        cap: usize,
        gate: &Arc<Mutex<()>>,
    ) -> WorkerPool<Job, Completion> {
        let (shared, gate) = (Arc::clone(shared), Arc::clone(gate));
        WorkerPool::new(
            1,
            "test-gated",
            [cap, cap],
            Duration::ZERO,
            move |job, sojourn, sink| {
                drop(gate.lock().unwrap_or_else(PoisonError::into_inner));
                run_job(&shared, job, sojourn, sink);
            },
        )
        .expect("spawn")
    }

    /// Applies the pool's completions to `conns`, as the reactor does,
    /// until no connection has a job in flight or a frame waiting.
    fn settle_conns(pool: &WorkerPool<Job, Completion>, shared: &Shared, conns: &mut [&mut Conn]) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut completions = Vec::new();
        while conns
            .iter()
            .any(|c| c.job.is_some() || c.inboxed > 0 || !c.pending.is_empty())
        {
            assert!(Instant::now() < deadline, "jobs never settled");
            pool.drain_completions(&mut completions);
            for completion in completions.drain(..) {
                let conn = conns
                    .iter_mut()
                    .find(|c| c.id == completion.conn_id)
                    .expect("a known connection");
                apply_completion(conn, completion, shared, pool, true);
            }
            std::thread::yield_now();
        }
    }

    /// For tests that sweep a connection by hand: a stall or idle cutoff
    /// no test thread can outlast, so a slow test host cannot close it.
    fn hand_driven_config() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(600),
            ..test_config()
        }
    }

    /// One reactor read of `conn`, which must keep the connection open.
    fn read_open(conn: &mut Conn, shared: &Shared) {
        let mut activity = false;
        if let Err(kind) = read_conn(conn, shared, &mut activity) {
            let why = match kind {
                CloseKind::Normal => "closed",
                CloseKind::Stalled => "stalled mid-frame",
                CloseKind::IdleTimeout => "idle",
            };
            panic!("the reactor side gave the connection up: {why}");
        }
    }

    /// Every reply frame queued in a connection's output buffer.
    fn queued_replies(conn: &Conn) -> Vec<Response> {
        let mut out = std::io::Cursor::new(&conn.out[..]);
        let mut replies = Vec::new();
        while let ReadOutcome::Frame(bytes) =
            read_frame(&mut out, DEFAULT_MAX_FRAME_LEN).expect("frame")
        {
            replies.push(crate::proto::decode_response(&bytes).expect("decode"));
        }
        replies
    }

    #[test]
    fn frames_left_buffered_at_the_cap_decode_without_new_bytes() {
        // 600 one-bit uploads, 32 bytes a frame: the first read takes 512
        // frames (16 KiB) and fills the pending queue to the cap. As frames
        // leave the queue, the second read takes the last 88 frames' bytes
        // but the cap lets only 64 decode; the other 24 must decode when
        // the queue has room again, though the socket has nothing more.
        let path = temp_archive("cap-buffered");
        let server = RpcServer::start("127.0.0.1:0", &path, hand_driven_config()).expect("start");
        let shared = Arc::clone(&server.shared);
        let (mut conn, mut client) = loopback_conn(1);
        let records: Vec<TrafficRecord> = (0..PENDING_CAP as u32 + 88)
            .map(|period| {
                TrafficRecord::new(
                    LocationId::new(9),
                    PeriodId::new(period),
                    BitmapSize::new(1).expect("pow2"),
                )
            })
            .collect();
        let wave = upload_wave(&records);
        assert_eq!(wave.len(), 32 * records.len());
        client.write_all(&wave).expect("write");
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.pending.len() < PENDING_CAP {
            assert!(Instant::now() < deadline, "the first frames never arrived");
            read_open(&mut conn, &shared);
        }
        let take = |conn: &mut Conn| {
            conn.pending.drain(..64);
        };
        take(&mut conn);
        while conn.decoder.buffered() == 0 {
            assert!(Instant::now() < deadline, "the last frames never arrived");
            read_open(&mut conn, &shared);
        }
        assert_eq!(conn.pending.len(), PENDING_CAP);
        assert_eq!(conn.decoder.buffered(), 24 * 32);
        take(&mut conn);
        read_open(&mut conn, &shared);
        assert_eq!(conn.pending.len(), PENDING_CAP - 64 + 24);
        assert_eq!(conn.decoder.buffered(), 0);
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn a_full_upload_queue_sheds_the_inbox_and_fresh_frames_start_a_new_job() {
        let path = temp_archive("inbox-shed");
        let server = RpcServer::start("127.0.0.1:0", &path, test_config()).expect("start");
        let shared = Arc::clone(&server.shared);
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().expect("gate");
        let pool = gated_pool(&shared, 1, &gate);
        let (mut busy, _client) = loopback_conn(1);
        let (mut queued, _client) = loopback_conn(2);
        let (mut refused, _client) = loopback_conn(3);
        // One ingest job holds the worker and a second fills the upload
        // queue.
        busy.pending.push_back(upload_frame(sample_record(7, 0)));
        maybe_dispatch(&mut busy, &shared, &pool);
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.depths()[JobClass::Upload as usize] != 0 {
            assert!(Instant::now() < deadline, "worker never picked up job");
            std::thread::yield_now();
        }
        queued.pending.push_back(upload_frame(sample_record(7, 1)));
        maybe_dispatch(&mut queued, &shared, &pool);
        assert_eq!(queued.job, Some(JobClass::Upload));
        // The third connection's ingest job is refused: every frame it
        // moved into its inbox is answered Overloaded.
        for period in 2..5 {
            refused
                .pending
                .push_back(upload_frame(sample_record(7, period)));
        }
        maybe_dispatch(&mut refused, &shared, &pool);
        assert_eq!(refused.job, None);
        assert_eq!(refused.inboxed, 0);
        assert!(refused.inbox.lock().expect("inbox").is_empty());
        let replies = queued_replies(&refused);
        assert_eq!(replies.len(), 3);
        assert!(replies
            .iter()
            .all(|r| matches!(r, Response::Overloaded { .. })));
        // Once the queue has room, its next frames start a fresh ingest
        // job, and it acks them.
        drop(held);
        settle_conns(&pool, &shared, &mut [&mut busy, &mut queued]);
        for period in 5..7 {
            refused
                .pending
                .push_back(upload_frame(sample_record(7, period)));
        }
        maybe_dispatch(&mut refused, &shared, &pool);
        settle_conns(&pool, &shared, &mut [&mut refused]);
        assert_eq!(queued_replies(&refused)[3..], [ACKED, ACKED]);
        assert_eq!(server.record_count(), 4);
        pool.shutdown_and_join();
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }

    #[test]
    fn pending_frames_and_the_inbox_together_stay_within_the_cap() {
        let path = temp_archive("inbox-cap");
        let server = RpcServer::start("127.0.0.1:0", &path, hand_driven_config()).expect("start");
        let shared = Arc::clone(&server.shared);
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().expect("gate");
        let pool = gated_pool(&shared, 0, &gate);
        let (mut conn, mut client) = loopback_conn(1);
        let records: Vec<TrafficRecord> = (0..2 * PENDING_CAP as u32)
            .map(|period| sample_record(8, period))
            .collect();
        let wave = upload_wave(&records);
        let writer = std::thread::spawn(move || client.write_all(&wave).map(|()| client));
        let held_frames =
            |conn: &Conn| conn.pending.len() + conn.inbox.lock().expect("inbox").len();
        // The ingest job is held, so every upload the sweep reads goes into
        // the inbox, and reading stops at the cap.
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.pending.len() + conn.inboxed < PENDING_CAP {
            assert!(Instant::now() < deadline, "the connection never filled up");
            read_open(&mut conn, &shared);
            maybe_dispatch(&mut conn, &shared, &pool);
            assert!(held_frames(&conn) <= PENDING_CAP, "{}", held_frames(&conn));
        }
        for _ in 0..64 {
            read_open(&mut conn, &shared);
            maybe_dispatch(&mut conn, &shared, &pool);
            assert_eq!(held_frames(&conn), PENDING_CAP);
        }
        // Released, the job drains the inbox while reads refill it.
        drop(held);
        let mut completions = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.record_count() < records.len() || conn.job.is_some() {
            assert!(
                Instant::now() < deadline,
                "the uploads were never all acked"
            );
            read_open(&mut conn, &shared);
            maybe_dispatch(&mut conn, &shared, &pool);
            pool.drain_completions(&mut completions);
            for completion in completions.drain(..) {
                apply_completion(&mut conn, completion, &shared, &pool, true);
            }
            assert!(held_frames(&conn) <= PENDING_CAP, "{}", held_frames(&conn));
        }
        let _client = writer.join().expect("writer").expect("write");
        assert_eq!(conn.inboxed, 0);
        assert_eq!(queued_replies(&conn), vec![ACKED; records.len()]);
        pool.shutdown_and_join();
        server.shutdown().expect("shutdown");
        cleanup_archive(&path);
    }
}
