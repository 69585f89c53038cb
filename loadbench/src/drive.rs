//! The load generator: starts the real daemon in-process and drives it
//! over loopback through `RpcClient`, in rounds of fixed work.
//!
//! Every round starts a fresh daemon (`ServerConfig::default()`, port 0,
//! `ClientConfig::default()` on the client side) on its own archive
//! directory, so rounds are independent samples of the same work, each
//! with its own set-up time.

use crate::gen::{Kind, Query, QueryDraw, LOCATIONS};
use crate::procfs::{this_thread_cpu_s, ThreadCpu, GENERATOR, GROUPS};
use crate::stats;
use crate::trace::SpanLog;
use ptm_core::{LocationId, PeriodId, TrafficRecord};
use ptm_net::CentralServer;
use ptm_rpc::{ClientConfig, ClientError, RpcClient, RpcServer, ServerConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Records per `upload_pipelined` wave on closed-loop ingest.
pub const WAVE: usize = 64;
/// Periods ingested per `ingest` round (× 64 locations = 8192 records,
/// about 20 MB, so every round rotates segments twice).
pub const INGEST_PERIODS: u32 = 128;
/// Periods in the `query` / `mixed` archive (4096 records, 16 times the
/// store's 256-record page cache).
pub const PRELOAD_PERIODS: u32 = 64;
/// Read-back queries per `ingest` round, over the periods just acked.
/// About 0.2 s of queries: a shorter read-back swung with every burst of
/// outside load on the host.
pub const READBACK_QUERIES: usize = 4096;
/// Queries per connection per `query` round.
pub const QUERIES_PER_CONN: usize = 6000;
/// Records per open-loop wave on `mixed`.
pub const MIXED_WAVE: usize = 16;
/// Offered upload rate on `mixed`, records/s.
pub const MIXED_RATE: f64 = 2000.0;
/// Periods uploaded per `mixed` round (6144 records, about 3 s at the
/// offered rate). The cold-start hydration stall and the catch-up after
/// it hold up well under half of the round's waves, so the wave p50 stays
/// outside the stall while the p99 sits inside it.
pub const MIXED_PERIODS: u32 = 96;
/// Offered query rate on `mixed`, queries/s. The query stream is open
/// loop like the uploads: a closed query loop next to the uploader left
/// the figures to the scheduler of a 2-core host (see README.md).
pub const MIXED_QUERY_RATE: f64 = 1000.0;
/// Daemon starts timed per `ingest` round, each on an empty archive. One
/// start takes 1 to 2 ms, so a single start per round left `setup_s` to
/// the host's scheduling; the median of several is steadier.
pub const SETUP_STARTS: usize = 5;
/// Fewest rounds per run, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

type Res<T> = Result<T, String>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Query,
    Mixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Self::Ingest),
            "query" => Some(Self::Query),
            "mixed" => Some(Self::Mixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Ingest => "ingest",
            Self::Query => "query",
            Self::Mixed => "mixed",
        }
    }
}

/// Everything a run sends, generated before the first daemon starts.
pub struct Inputs {
    /// `ingest`: the records every round uploads into its empty archive.
    /// `query` / `mixed`: the archive's records.
    pub base: Vec<TrafficRecord>,
    /// `mixed`: the records uploaded on top of the archive.
    pub fresh: Vec<TrafficRecord>,
    /// `ingest` / `query`: the queries each connection sends per round,
    /// placed on the archive's periods.
    pub lists: Vec<Vec<Query>>,
    /// `mixed`: the query stream, placed on the acked periods as it is
    /// sent.
    pub draws: Vec<QueryDraw>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let s = ServerConfig::default().s;
        let traffic = crate::gen::Traffic::generate(seed, s);
        let (base, fresh) = match workload {
            Workload::Ingest => (traffic.records(0..INGEST_PERIODS), Vec::new()),
            Workload::Query => (traffic.records(0..PRELOAD_PERIODS), Vec::new()),
            Workload::Mixed => (
                traffic.records(0..PRELOAD_PERIODS),
                traffic.records(PRELOAD_PERIODS..PRELOAD_PERIODS + MIXED_PERIODS),
            ),
        };
        let rng = crate::gen::Rng::new(seed);
        let [first, second] = [2, 3].map(|k| QueryDraw::draw(&mut rng.fork(k), QUERIES_PER_CONN));
        let place = |draws: &[QueryDraw], available| -> Vec<Query> {
            draws.iter().map(|d| d.place(available)).collect()
        };
        let (lists, draws) = match workload {
            Workload::Ingest => (
                vec![place(&first[..READBACK_QUERIES], INGEST_PERIODS)],
                Vec::new(),
            ),
            Workload::Query => (
                vec![
                    place(&first, PRELOAD_PERIODS),
                    place(&second, PRELOAD_PERIODS),
                ],
                Vec::new(),
            ),
            Workload::Mixed => (Vec::new(), second),
        };
        Self {
            base,
            fresh,
            lists,
            draws,
        }
    }

    /// Every record the daemon holds at the end of a round.
    pub fn all_records(&self) -> impl Iterator<Item = &TrafficRecord> {
        self.base.iter().chain(&self.fresh)
    }
}

/// What the rounds of one run measured.
#[derive(Debug, Default)]
pub struct Samples {
    pub rounds: usize,
    pub setup_s: Vec<f64>,
    /// Per round: acked records ÷ timed upload wall time.
    pub ingest_rate: Vec<f64>,
    pub ingest_records: u64,
    /// Per round, per wave, ms (on `mixed`, from the wave's due time).
    pub ingest_lat_ms: Vec<Vec<f64>>,
    /// Per round: answered queries ÷ timed query wall time.
    pub query_rate: Vec<f64>,
    pub queries: u64,
    /// Per round, per query, ms.
    pub query_lat_ms: Vec<Vec<f64>>,
    /// How late the generator sent: after the due time on the open loop,
    /// after the previous reply on closed loops. ms.
    pub lag_ms: Vec<f64>,
    /// CPU seconds per thread group, and the wall seconds they cover.
    pub cpu_s: [f64; GROUPS.len()],
    pub cpu_wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Correctness-gate violations.
    pub violations: Vec<String>,
    /// Every distinct query answered, with the answer's bits.
    pub answers: HashMap<Query, u64>,
    /// Records uploaded, the preload's included: every upload the
    /// daemon's ingest counters see.
    pub uploaded: u64,
    pub peak_rss_mib: f64,
    pub base_rss_mib: f64,
    /// A daemon-written archive left behind for the layer replay.
    pub archive: Option<PathBuf>,
    pub spans: SpanLog,
}

impl Samples {
    fn answer(&mut self, query: Query, value: f64) {
        let bits = value.to_bits();
        if let Some(&seen) = self.answers.get(&query) {
            if seen != bits {
                self.violations.push(format!(
                    "{query:?} answered {} and {}",
                    f64::from_bits(seen),
                    value
                ));
            }
        } else {
            self.answers.insert(query, bits);
        }
    }

    fn fail(&mut self, what: &str, err: &ClientError) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!("{what}: {err}"));
        }
    }

    fn absorb(&mut self, t: ThreadOut) {
        round_of(&mut self.query_lat_ms).extend(t.lat_ms);
        self.lag_ms.extend(t.lag_ms);
        self.attempted += t.attempted;
        for (what, err) in &t.failures {
            self.fail(what, err);
        }
        for (query, value) in t.answers {
            self.answer(query, value);
        }
        self.spans.absorb(t.spans);
        self.cpu_s[GENERATOR] += t.cpu_s;
    }
}

/// How a run is observed.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Record the benchmark's own spans.
    pub spans: bool,
    /// Sample per-thread CPU around every timed phase.
    pub cpu: bool,
}

fn start(archive: &Path) -> Res<(RpcServer, RpcClient, f64)> {
    let t0 = Instant::now();
    let server = RpcServer::start("127.0.0.1:0", archive, ServerConfig::default())
        .map_err(|e| format!("daemon start: {e}"))?;
    let mut client = connect(&server)?;
    client.ping().map_err(|e| format!("first ping: {e}"))?;
    Ok((server, client, t0.elapsed().as_secs_f64()))
}

fn connect(server: &RpcServer) -> Res<RpcClient> {
    RpcClient::connect(server.local_addr(), ClientConfig::default())
        .map_err(|e| format!("client: {e}"))
}

fn issue(client: &mut RpcClient, query: &Query) -> Result<f64, ClientError> {
    match *query {
        Query::Volume { location, period } => {
            client.query_volume(LocationId::new(location), PeriodId::new(period))
        }
        Query::Point {
            location,
            first,
            len,
        } => client.query_point(LocationId::new(location), &Query::periods(first, len)),
        Query::P2p { a, b, first, len } => client.query_p2p(
            LocationId::new(a),
            LocationId::new(b),
            &Query::periods(first, len),
        ),
    }
}

/// Evaluates a query in process, for the correctness gate.
pub fn reference(central: &CentralServer, query: &Query) -> Result<f64, String> {
    let out = match *query {
        Query::Volume { location, period } => {
            central.estimate_volume(LocationId::new(location), PeriodId::new(period))
        }
        Query::Point {
            location,
            first,
            len,
        } => central
            .estimate_point_persistent(LocationId::new(location), &Query::periods(first, len)),
        Query::P2p { a, b, first, len } => central.estimate_p2p_persistent(
            LocationId::new(a),
            LocationId::new(b),
            &Query::periods(first, len),
        ),
    };
    out.map_err(|e| e.to_string())
}

fn expect_records(client: &mut RpcClient, expected: usize, s: &mut Samples) -> Res<()> {
    let info = client.ping().map_err(|e| format!("ping: {e}"))?;
    if info.records != expected as u64 {
        s.violations.push(format!(
            "daemon holds {} records, {} were acked",
            info.records, expected
        ));
    }
    Ok(())
}

/// Per-thread results of a load thread.
#[derive(Default)]
struct ThreadOut {
    lat_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<(String, ClientError)>,
    answers: Vec<(Query, f64)>,
    spans: SpanLog,
    /// CPU seconds the thread used; 0 when the phase is not sampled.
    cpu_s: f64,
    cpu: bool,
}

impl ThreadOut {
    /// Called on the load thread itself, before its first call.
    fn start(mode: Mode, index: u64) -> Self {
        Self {
            spans: SpanLog::new(mode.spans, index),
            cpu_s: if mode.cpu { this_thread_cpu_s() } else { 0.0 },
            cpu: mode.cpu,
            ..Self::default()
        }
    }

    /// Called on the load thread just before it returns.
    fn finish(mut self) -> Self {
        if self.cpu {
            self.cpu_s = this_thread_cpu_s() - self.cpu_s;
        }
        self
    }
}

/// Sleeps until `due` unless it has already passed.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}

/// The current round's samples.
fn round_of(rounds: &mut Vec<Vec<f64>>) -> &mut Vec<f64> {
    if rounds.is_empty() {
        rounds.push(Vec::new());
    }
    rounds.last_mut().expect("a round is open")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed-loop upload of `records` in `upload_pipelined` waves on one
/// connection. Returns the records acked.
fn ingest_phase(
    client: &mut RpcClient,
    records: &[TrafficRecord],
    s: &mut Samples,
    mode: Mode,
    parent: u64,
) -> usize {
    let cpu0 = mode.cpu.then(ThreadCpu::sample);
    let t0 = Instant::now();
    let phase = s.spans.begin("bench.ingest", parent, 0);
    let mut acked = 0usize;
    let mut prev_end = t0;
    for (i, wave) in records.chunks(WAVE).enumerate() {
        let open = s.spans.begin("bench.upload_wave", phase.id, i as u64);
        let sent = Instant::now();
        s.lag_ms.push(ms(sent - prev_end));
        s.attempted += 1;
        let result = client.upload_pipelined(wave, wave.len());
        prev_end = Instant::now();
        s.spans.end(open);
        match result {
            Ok(summary) if summary.accepted as usize == wave.len() && summary.duplicates == 0 => {
                acked += wave.len();
                round_of(&mut s.ingest_lat_ms).push(ms(prev_end - sent));
            }
            Ok(summary) => s.violations.push(format!(
                "wave {i}: {} accepted and {} duplicates for {} fresh records",
                summary.accepted,
                summary.duplicates,
                wave.len()
            )),
            Err(err) => s.fail("upload", &err),
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    s.spans.end(phase);
    s.ingest_rate.push(acked as f64 / wall);
    s.ingest_records += acked as u64;
    s.uploaded += acked as u64;
    if let Some(cpu0) = cpu0 {
        add_cpu(s, &cpu0, wall);
    }
    acked
}

fn add_cpu(s: &mut Samples, before: &ThreadCpu, wall: f64) {
    let used = ThreadCpu::sample().since(before);
    for (total, used) in s.cpu_s.iter_mut().zip(used) {
        *total += used;
    }
    s.cpu_wall_s += wall;
}

/// Closed-loop queries: one thread and connection per list.
fn query_phase(
    clients: &mut [RpcClient],
    lists: &[Vec<Query>],
    s: &mut Samples,
    mode: Mode,
    parent: u64,
) {
    let cpu0 = mode.cpu.then(ThreadCpu::sample);
    let phase = s.spans.begin("bench.query_phase", parent, 0);
    let t0 = Instant::now();
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .enumerate()
            .map(|(c, (client, list))| {
                std::thread::Builder::new()
                    .name(format!("loadgen-q{c}"))
                    .spawn_scoped(scope, move || {
                        let mut out = ThreadOut::start(mode, 1 + c as u64);
                        let mut prev_end = Instant::now();
                        for (i, query) in list.iter().enumerate() {
                            let open = out.spans.begin("bench.query", phase.id, i as u64);
                            let sent = Instant::now();
                            out.lag_ms.push(ms(sent - prev_end));
                            out.attempted += 1;
                            let result = issue(client, query);
                            prev_end = Instant::now();
                            out.spans.end(open);
                            match result {
                                Ok(value) => {
                                    out.lat_ms.push(ms(prev_end - sent));
                                    out.answers.push((query.clone(), value));
                                }
                                Err(err) => out.failures.push(("query".into(), err)),
                            }
                        }
                        out.finish()
                    })
                    .expect("spawn load thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    s.spans.end(phase);
    let answered: usize = outs.iter().map(|o| o.answers.len()).sum();
    s.query_rate.push(answered as f64 / wall);
    s.queries += answered as u64;
    for out in outs {
        s.absorb(out);
    }
    if let Some(cpu0) = cpu0 {
        add_cpu(s, &cpu0, wall);
    }
}

/// `ingest`: empty archive, closed-loop upload of the whole backlog, then
/// a closed-loop read-back of queries over the periods just acked. The
/// round's daemon is the last of `SETUP_STARTS` empty-archive starts.
fn ingest_round(
    inputs: &Inputs,
    archive: &Path,
    s: &mut Samples,
    mode: Mode,
    round: u64,
) -> Res<()> {
    let root = s.spans.begin("bench.round", 0, round);
    for k in 1..SETUP_STARTS {
        let empty = archive.with_extension(format!("start-{k}"));
        let (server, client, setup) = s
            .spans
            .time("bench.setup", root.id, round, || start(&empty))?;
        s.setup_s.push(setup);
        drop(client);
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let _ = std::fs::remove_dir_all(&empty);
    }
    let (server, mut client, setup) = s
        .spans
        .time("bench.setup", root.id, round, || start(archive))?;
    s.setup_s.push(setup);
    let acked = ingest_phase(&mut client, &inputs.base, s, mode, root.id);
    // The read-back is not the workload's own phase: its CPU stays out of
    // the per-thread shares, which attribute the write path.
    query_phase(
        std::slice::from_mut(&mut client),
        &inputs.lists[..1],
        s,
        Mode { cpu: false, ..mode },
        root.id,
    );
    expect_records(&mut client, acked, s)?;
    drop(client);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    s.spans.end(root);
    Ok(())
}

/// Hydrates every location with one volume query each.
fn warm_up(client: &mut RpcClient, s: &mut Samples) {
    for location in 1..=LOCATIONS {
        let query = Query::Volume {
            location,
            period: 0,
        };
        s.attempted += 1;
        match issue(client, &query) {
            Ok(value) => s.answer(query, value),
            Err(err) => s.fail("warm-up query", &err),
        }
    }
}

/// `query`: restart on a copy of the preloaded archive, hydrate every
/// location, then two closed-loop query connections.
fn query_round(
    inputs: &Inputs,
    pristine: &Path,
    archive: &Path,
    s: &mut Samples,
    mode: Mode,
    round: u64,
) -> Res<()> {
    copy_dir(pristine, archive)?;
    let root = s.spans.begin("bench.round", 0, round);
    let setup = s.spans.begin("bench.setup", root.id, round);
    let t0 = Instant::now();
    let (server, mut client, _) = start(archive)?;
    warm_up(&mut client, s);
    s.setup_s.push(t0.elapsed().as_secs_f64());
    s.spans.end(setup);
    let mut second = connect(&server)?;
    second.ping().map_err(|e| format!("ping: {e}"))?;
    let mut clients = [client, second];
    query_phase(&mut clients, &inputs.lists, s, mode, root.id);
    expect_records(&mut clients[0], inputs.base.len(), s)?;
    drop(clients);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    s.spans.end(root);
    Ok(())
}

/// `mixed`: restart on a copy of the preloaded archive with no warm-up.
/// One connection uploads the next periods open-loop at `MIXED_RATE`;
/// the other queries paced at `MIXED_QUERY_RATE` over periods already
/// acked.
fn mixed_round(
    inputs: &Inputs,
    pristine: &Path,
    archive: &Path,
    s: &mut Samples,
    mode: Mode,
    round: u64,
) -> Res<()> {
    copy_dir(pristine, archive)?;
    let root = s.spans.begin("bench.round", 0, round);
    let (server, uploader, setup) = s
        .spans
        .time("bench.setup", root.id, round, || start(archive))?;
    s.setup_s.push(setup);
    let mut querier = connect(&server)?;
    querier.ping().map_err(|e| format!("ping: {e}"))?;

    let cpu0 = mode.cpu.then(ThreadCpu::sample);
    let frontier = AtomicU32::new(PRELOAD_PERIODS);
    let done = AtomicBool::new(false);
    let interval = Duration::from_secs_f64(MIXED_WAVE as f64 / MIXED_RATE);
    let query_interval = Duration::from_secs_f64(1.0 / MIXED_QUERY_RATE);
    let phase = s.spans.begin("bench.mixed_phase", root.id, round);
    let t0 = Instant::now();
    let (up, up_wall, q, q_wall) = std::thread::scope(|scope| {
        let (frontier, done) = (&frontier, &done);
        let fresh = &inputs.fresh;
        let mut uploader = uploader;
        let up = std::thread::Builder::new()
            .name("loadgen-up".into())
            .spawn_scoped(scope, move || {
                let mut out = ThreadOut::start(mode, 1);
                let mut acked = 0usize;
                let mut violations = Vec::new();
                for (i, wave) in fresh.chunks(MIXED_WAVE).enumerate() {
                    let due = t0 + interval * i as u32;
                    wait_until(due);
                    let open = out.spans.begin("bench.upload_wave", phase.id, i as u64);
                    out.lag_ms
                        .push(ms(Instant::now().saturating_duration_since(due)));
                    out.attempted += 1;
                    let result = uploader.upload_pipelined(wave, wave.len());
                    out.spans.end(open);
                    match result {
                        Ok(summary)
                            if summary.accepted as usize == wave.len()
                                && summary.duplicates == 0 =>
                        {
                            out.lat_ms.push(ms(Instant::now() - due));
                            acked += wave.len();
                            frontier.store(
                                PRELOAD_PERIODS + (acked as u64 / LOCATIONS) as u32,
                                Ordering::Release,
                            );
                        }
                        Ok(summary) => violations.push(format!(
                            "wave {i}: {} accepted and {} duplicates for {} fresh records",
                            summary.accepted,
                            summary.duplicates,
                            wave.len()
                        )),
                        Err(err) => out.failures.push(("upload".into(), err)),
                    }
                }
                let wall = t0.elapsed().as_secs_f64();
                done.store(true, Ordering::Release);
                (out.finish(), acked, violations, wall)
            })
            .expect("spawn load thread");
        let draws = &inputs.draws;
        let q = std::thread::Builder::new()
            .name("loadgen-q1".into())
            .spawn_scoped(scope, move || {
                let mut out = ThreadOut::start(mode, 2);
                let mut i = 0usize;
                while !done.load(Ordering::Acquire) {
                    let due = t0 + query_interval * i as u32;
                    wait_until(due);
                    let query = draws[i % draws.len()].place(frontier.load(Ordering::Acquire));
                    let open = out.spans.begin("bench.query", phase.id, i as u64);
                    i += 1;
                    let sent = Instant::now();
                    out.lag_ms.push(ms(sent.saturating_duration_since(due)));
                    out.attempted += 1;
                    let result = issue(&mut querier, &query);
                    let took = sent.elapsed();
                    out.spans.end(open);
                    match result {
                        Ok(value) => {
                            // Per call: the pacing only keeps the query stream
                            // from saturating the host; the stall it causes
                            // shows as lag.
                            out.lat_ms.push(ms(took));
                            out.answers.push((query, value));
                        }
                        Err(err) => out.failures.push(("query".into(), err)),
                    }
                }
                let wall = t0.elapsed().as_secs_f64();
                (out.finish(), wall)
            })
            .expect("spawn load thread");
        let (up, up_wall) = {
            let (out, acked, violations, wall) = up.join().expect("uploader panicked");
            ((out, acked, violations), wall)
        };
        let (q, q_wall) = q.join().expect("querier panicked");
        (up, up_wall, q, q_wall)
    });
    s.spans.end(phase);
    if let Some(cpu0) = cpu0 {
        add_cpu(s, &cpu0, t0.elapsed().as_secs_f64());
    }
    let (mut up_out, acked, violations) = up;
    s.violations.extend(violations);
    s.ingest_rate.push(acked as f64 / up_wall);
    s.ingest_records += acked as u64;
    s.uploaded += acked as u64;
    round_of(&mut s.ingest_lat_ms).append(&mut up_out.lat_ms);
    let answered = q.answers.len();
    s.query_rate.push(answered as f64 / q_wall);
    s.queries += answered as u64;
    s.absorb(up_out);
    s.absorb(q);

    let mut client = connect(&server)?;
    expect_records(&mut client, inputs.base.len() + acked, s)?;
    drop(client);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    s.spans.end(root);
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Uploads `records` through the daemon's upload path into a fresh
/// archive at `archive`, checks the count and shuts down. Only the
/// gate's counts carry over into `s`: the preload sets a workload up and
/// is not one of its timed phases.
fn preload(archive: &Path, records: &[TrafficRecord], s: &mut Samples) -> Res<()> {
    let mut pre = Samples::default();
    let (server, mut client, _) = start(archive)?;
    let mode = Mode {
        spans: false,
        cpu: false,
    };
    let acked = ingest_phase(&mut client, records, &mut pre, mode, 0);
    expect_records(&mut client, acked, &mut pre)?;
    drop(client);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    s.attempted += pre.attempted;
    s.failed += pre.failed;
    s.failures.extend(pre.failures);
    s.violations.extend(pre.violations);
    s.uploaded += pre.uploaded;
    Ok(())
}

/// Runs rounds of `workload` until `seconds` have passed (at least
/// `MIN_ROUNDS`). Archives live under `scratch`; the last one is kept for
/// the layer replay.
///
/// `query` and `mixed` preload their archive once, before the rounds, and
/// start every round on a copy of it.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    mode: Mode,
    scratch: &Path,
    log_index: u64,
) -> Res<Samples> {
    let mut s = Samples {
        spans: SpanLog::new(mode.spans, log_index),
        base_rss_mib: crate::procfs::rss_mib(),
        ..Samples::default()
    };
    let pristine = scratch.join("pristine");
    if workload != Workload::Ingest {
        let _ = std::fs::remove_dir_all(&pristine);
        preload(&pristine, &inputs.base, &mut s)?;
    }
    let started = Instant::now();
    let mut last: Option<PathBuf> = None;
    while s.rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let archive = scratch.join(format!("round-{}", s.rounds));
        let _ = std::fs::remove_dir_all(&archive);
        let round = s.rounds as u64;
        if workload != Workload::Query {
            s.ingest_lat_ms.push(Vec::new());
        }
        s.query_lat_ms.push(Vec::new());
        match workload {
            Workload::Ingest => ingest_round(inputs, &archive, &mut s, mode, round)?,
            Workload::Query => query_round(inputs, &pristine, &archive, &mut s, mode, round)?,
            Workload::Mixed => mixed_round(inputs, &pristine, &archive, &mut s, mode, round)?,
        }
        if let Some(prev) = last.replace(archive) {
            let _ = std::fs::remove_dir_all(prev);
        }
        s.rounds += 1;
    }
    s.peak_rss_mib = crate::procfs::peak_rss_mib();
    s.archive = match workload {
        Workload::Ingest => last,
        _ => {
            if let Some(prev) = last {
                let _ = std::fs::remove_dir_all(prev);
            }
            Some(pristine)
        }
    };
    Ok(s)
}

/// The correctness gate: every distinct answer must be bit-exact against
/// an in-process `CentralServer` fed the same records.
pub fn verify(inputs: &Inputs, s: &mut Samples) {
    let central = CentralServer::new(ServerConfig::default().s);
    for record in inputs.all_records() {
        if let Err(e) = central.submit(record.clone()) {
            s.violations
                .push(format!("reference rejected a record: {e}"));
            return;
        }
    }
    let mut answers: Vec<(&Query, &u64)> = s.answers.iter().collect();
    answers.sort();
    let mut bad = Vec::new();
    for kind in Kind::ALL {
        if !answers.iter().any(|(query, _)| query.kind() == kind) {
            bad.push(format!("no {kind:?} query was answered"));
        }
    }
    for (query, &bits) in answers {
        match reference(&central, query) {
            Ok(value) if value.to_bits() == bits => {}
            Ok(value) => bad.push(format!(
                "{query:?}: daemon {} != in-process {value}",
                f64::from_bits(bits)
            )),
            Err(e) => bad.push(format!("{query:?}: in-process estimate failed: {e}")),
        }
    }
    s.violations.extend(bad);
}

/// Helpers for reporting.
impl Samples {
    pub fn ingest_rate(&self) -> f64 {
        stats::median(&self.ingest_rate)
    }

    pub fn query_rate(&self) -> f64 {
        stats::median(&self.query_rate)
    }

    pub fn cpu_share(&self, group: &str) -> f64 {
        let i = GROUPS
            .iter()
            .position(|g| *g == group)
            .expect("known group");
        stats::ratio(self.cpu_s[i], self.cpu_wall_s)
    }
}
