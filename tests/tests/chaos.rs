//! Seeded chaos tests for the store/RPC stack: deterministic fault plans
//! drive disk-full and fsync failures, connection resets, truncated frames,
//! and overload bursts against a real daemon on a loopback socket.
//!
//! The invariants under test, across every seed:
//!
//! - **Zero acked-record loss**: a record the client saw acked is on disk
//!   after any crash/restart sequence — the served ack is never ahead of
//!   durable state.
//! - **Shedding is explicit**: an overloaded or degraded daemon answers
//!   `Overloaded` with a retry hint instead of hanging or silently dropping.
//! - **Recovery is exact**: once the faults clear, estimates served over the
//!   wire match an in-process [`CentralServer`] fed the same records,
//!   bit for bit.
//!
//! Timing-sensitive tests share the process-global `ptm-obs` registry and
//! loopback ports, so everything serializes on [`lock`]. The whole suite is
//! budgeted to stay well under a minute (it is part of `scripts/ci.sh`).

#![forbid(unsafe_code)]

use ptm_core::encoding::{EncodingScheme, LocationId};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_fault::{sites, FaultAction, FaultPlan, Rule};
use ptm_integration_tests::{cleanup_archive, direct_record, fleet, temp_archive};
use ptm_net::CentralServer;
use ptm_rpc::proto::{decode_response, encode_request};
use ptm_rpc::{
    read_frame, write_frame, ClientConfig, ClientError, ErrorCode, ReadOutcome, Request, Response,
    RpcClient, RpcServer, ServerConfig, UploadSummary, DEFAULT_MAX_FRAME_LEN, MAX_PIPELINE_WINDOW,
};
use ptm_store::SyncPolicy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Every `seg-*.ptms` file in the archive directory, lowest id first (the
/// zero-padded names sort numerically). The last entry is the active
/// segment — crash simulations tear its tail, exactly where a dying
/// process would leave a half-written frame.
fn segment_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("archive dir")
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("seg-") && name.ends_with(".ptms"))
        })
        .collect();
    segments.sort();
    segments
}

/// The unsealed (active) segment's file, per the durable manifest. Not
/// simply the highest-numbered file: a kill mid-rotation can leave an
/// orphan with a higher id.
fn active_segment_file(dir: &Path) -> PathBuf {
    let manifest = ptm_store::Manifest::load(dir)
        .expect("manifest readable")
        .expect("manifest present");
    let active = manifest
        .segments
        .iter()
        .find(|s| !s.sealed)
        .expect("an active segment");
    dir.join(format!("seg-{:08}.ptms", active.id))
}

/// A small deterministic campaign (chaos runs restart daemons repeatedly,
/// so records stay light: 40 persistent + 80 transient vehicles, 1 KiB
/// bitmaps).
fn small_campaign(location: u64, periods: u32, seed: u64) -> Vec<TrafficRecord> {
    let scheme = EncodingScheme::new(11, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let persistent = fleet(&mut rng, 40, 3);
    let size = BitmapSize::new(1024).expect("pow2");
    (0..periods)
        .map(|p| {
            let transient = fleet(&mut rng, 80, 3);
            let mut all = persistent.clone();
            all.extend(transient);
            direct_record(
                &scheme,
                LocationId::new(location),
                PeriodId::new(p),
                size,
                &all,
            )
        })
        .collect()
}

fn reference_for(records: &[TrafficRecord]) -> CentralServer {
    let reference = CentralServer::new(3);
    for record in records {
        reference.submit(record.clone()).expect("reference submit");
    }
    reference
}

/// Asserts every estimate kind matches the in-process reference bit for bit.
fn assert_estimates_exact(
    client: &mut RpcClient,
    reference: &CentralServer,
    locations: &[u64],
    periods: u32,
    context: &str,
) {
    let periods: Vec<PeriodId> = (0..periods).map(PeriodId::new).collect();
    for &loc in locations {
        let location = LocationId::new(loc);
        let over_wire = client.query_point(location, &periods).expect("point");
        let in_process = reference
            .estimate_point_persistent(location, &periods)
            .expect("point");
        assert_eq!(
            over_wire.to_bits(),
            in_process.to_bits(),
            "point at {loc} ({context})"
        );
        let over_wire = client.query_volume(location, periods[0]).expect("volume");
        let in_process = reference
            .estimate_volume(location, periods[0])
            .expect("volume");
        assert_eq!(
            over_wire.to_bits(),
            in_process.to_bits(),
            "volume at {loc} ({context})"
        );
    }
    if locations.len() >= 2 {
        let a = LocationId::new(locations[0]);
        let b = LocationId::new(locations[1]);
        let over_wire = client.query_p2p(a, b, &periods).expect("p2p");
        let in_process = reference
            .estimate_p2p_persistent(a, b, &periods)
            .expect("p2p");
        assert_eq!(over_wire.to_bits(), in_process.to_bits(), "p2p ({context})");
    }
}

/// An upload that tolerates the two application-level failure shapes chaos
/// injects on the wire: a request chopped mid-frame earns a `Malformed`
/// answer (the real client would resend every record), and everything
/// transport-level is already retried inside [`RpcClient`]. Returns the
/// summary of the call that got every record acked.
fn upload_acked(client: &mut RpcClient, records: &[TrafficRecord], context: &str) -> UploadSummary {
    let mut resends = 5u32;
    loop {
        match client.upload_pipelined(records, MAX_PIPELINE_WINDOW) {
            Ok(summary) => {
                assert_eq!(
                    (summary.accepted + summary.duplicates) as usize,
                    records.len(),
                    "one outcome per record ({context})"
                );
                return summary;
            }
            // The server read a truncated request and said so; resend.
            Err(ClientError::Server {
                code: ErrorCode::Malformed,
                ..
            }) if resends > 0 => resends -= 1,
            Err(err) => panic!("upload failed ({context}): {err}"),
        }
    }
}

// ---------------------------------------------------------------------------
// 1. The seeded fault storm: disk-full, fsync failure, connection reset,
//    truncated frames, and a torn crash tail — across five fixed seeds.
// ---------------------------------------------------------------------------

fn storm_plan(seed: u64, fsync: bool) -> FaultPlan {
    let mut builder = FaultPlan::builder(seed)
        // The second commit hits a short write, then ENOSPC on the
        // continuation: the commit fails mid-frame and must roll back.
        .rule(sites::STORE_WRITE, Rule::nth(2, FaultAction::Short(4)))
        .rule(
            sites::STORE_WRITE,
            Rule::nth(3, FaultAction::Error(io::ErrorKind::StorageFull)),
        )
        // Some response frame dies mid-write: the ack is lost after the
        // commit, and the retry must land as an idempotent duplicate.
        .rule(sites::RPC_WRITE, Rule::nth(4, FaultAction::Reset))
        // Some request read dies: either an idle poll (silent close) or a
        // frame mid-read (the server answers Malformed and closes).
        .rule(sites::RPC_READ, Rule::nth(6, FaultAction::Reset))
        // And some later read sees a truncated stream (injected EOF).
        .rule(sites::RPC_READ, Rule::nth(8, FaultAction::Truncate));
    if fsync {
        // Under SyncPolicy::Fsync a commit is only durable after fsync;
        // fail one of those too.
        builder = builder.rule(
            sites::STORE_SYNC,
            Rule::nth(2, FaultAction::Error(io::ErrorKind::Other)),
        );
    }
    builder.build().expect("storm plan")
}

fn storm_server_config(plan: Option<&FaultPlan>, fsync: bool) -> ServerConfig {
    ServerConfig {
        s: 3,
        read_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        retry_after_ms: 15,
        degraded_after_failures: 4,
        sync_policy: if fsync {
            SyncPolicy::Fsync
        } else {
            SyncPolicy::Flush
        },
        fault_plan: plan.cloned(),
        ..ServerConfig::default()
    }
}

fn storm_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(2),
        max_attempts: 10,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(30),
        jitter_seed: seed,
        deadline: Some(Duration::from_secs(10)),
    }
}

fn run_storm(seed: u64) {
    let fsync = seed % 2 == 1;
    let path = temp_archive("chaos", &format!("storm-{seed}"));
    let plan = storm_plan(seed, fsync);
    let locations: Vec<u64> = vec![11, 12, 13];
    let all: Vec<TrafficRecord> = locations
        .iter()
        .flat_map(|&loc| small_campaign(loc, 3, seed.wrapping_mul(1000) + loc))
        .collect();

    // Phase 1: upload under fire. Every upload below must end acked even
    // though commits fail mid-frame, acks get reset, and reads get chopped.
    let mut acked = 0usize;
    {
        let server = RpcServer::start(
            "127.0.0.1:0",
            &path,
            storm_server_config(Some(&plan), fsync),
        )
        .expect("start");
        let mut client =
            RpcClient::connect(server.local_addr(), storm_client_config(seed)).expect("client");
        for record in all[..5].chunks(1) {
            upload_acked(&mut client, record, &format!("seed {seed} phase 1"));
            acked += 1;
        }
        assert!(
            !server.degraded(),
            "transient faults must not trip degraded mode (seed {seed})"
        );
        server.shutdown().expect("shutdown");
    }

    // Crash simulation: a torn frame header lands on the tail of the
    // active segment, as if the process died mid-append.
    {
        use std::io::Write as _;
        let active = segment_files(&path).pop().expect("active segment");
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(active)
            .expect("open for tearing");
        file.write_all(&[0x40, 0x00, 0x00, 0x00, 0xAB, 0xCD])
            .expect("torn tail");
    }

    // Phase 2: restart on the damaged file, with the same plan (schedules
    // carry across the restart). Replay must hold exactly the acked set.
    {
        let server = RpcServer::start(
            "127.0.0.1:0",
            &path,
            storm_server_config(Some(&plan), fsync),
        )
        .expect("restart");
        let replay = server.replay_report();
        assert_eq!(
            replay.records, acked,
            "zero acked-record loss across the crash (seed {seed})"
        );
        assert!(
            replay.torn_bytes > 0,
            "the torn tail must be detected and discarded (seed {seed})"
        );
        let mut client =
            RpcClient::connect(server.local_addr(), storm_client_config(seed)).expect("client");
        for record in all[5..].chunks(1) {
            upload_acked(&mut client, record, &format!("seed {seed} phase 2"));
        }
        // An RSU that lost its ack log re-sends everything; the daemon must
        // absorb the full campaign as duplicates without re-archiving.
        let summary = upload_acked(&mut client, &all, &format!("seed {seed} re-upload"));
        assert_eq!(summary.accepted, 0, "nothing new in the re-upload");
        assert_eq!(summary.duplicates as usize, all.len());
        server.shutdown().expect("shutdown");
    }

    // Phase 3: a clean daemon (no faults) on the same archive answers every
    // estimate exactly like an in-process engine fed the same records.
    {
        let server = RpcServer::start("127.0.0.1:0", &path, storm_server_config(None, fsync))
            .expect("clean restart");
        let replay = server.replay_report();
        assert_eq!(
            replay.records,
            all.len(),
            "full campaign on disk (seed {seed})"
        );
        assert_eq!(replay.torn_bytes, 0, "clean shutdown left no torn tail");
        assert_eq!(server.record_count(), all.len());
        let reference = reference_for(&all);
        let mut client =
            RpcClient::connect(server.local_addr(), storm_client_config(seed)).expect("client");
        assert_estimates_exact(
            &mut client,
            &reference,
            &locations,
            3,
            &format!("seed {seed} post-recovery"),
        );
        server.shutdown().expect("shutdown");
    }
    cleanup_archive(&path);
}

#[test]
fn seeded_fault_storm_loses_no_acked_record() {
    let _guard = lock();
    for seed in [3, 8, 42, 1337, 9002] {
        run_storm(seed);
    }
}

// ---------------------------------------------------------------------------
// 2. Overload burst: a parked worker behind a full Query class queue.
// ---------------------------------------------------------------------------

/// Slots in the daemon's Query class queue (`CLASS_QUEUE_CAPS` in the
/// `ptm-rpc` server, private there). The burst overfills it by eight.
const QUERY_QUEUE_SLOTS: usize = 128;

/// Polls the daemon's stats until the snapshot contains every one of
/// `needles`, failing with the last snapshot after ten seconds.
fn await_stats(client: &mut RpcClient, needles: &[&str], what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = client.stats().expect("stats");
        if needles.iter().all(|needle| snapshot.contains(needle)) {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: {snapshot}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Reads and decodes one response frame from a raw connection.
fn read_response(stream: &mut TcpStream) -> Response {
    match read_frame(stream, DEFAULT_MAX_FRAME_LEN).expect("read") {
        ReadOutcome::Frame(payload) => decode_response(&payload).expect("decode"),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

#[test]
fn overload_burst_sheds_explicitly_and_answers_the_rest_exactly() {
    let _guard = lock();
    let path = temp_archive("chaos", "burst");
    let plan = FaultPlan::builder(7)
        // Only the first estimate is slow: it parks the daemon's single
        // worker for 400 ms while the burst queues up behind it.
        .rule(
            sites::RPC_ESTIMATE,
            Rule::nth(1, FaultAction::Delay(Duration::from_millis(400))),
        )
        .build()
        .expect("burst plan");
    let config = ServerConfig {
        s: 3,
        read_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        workers: 1,
        retry_after_ms: 25,
        fault_plan: Some(plan),
        ..ServerConfig::default()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let addr = server.local_addr();

    let records = small_campaign(31, 2, 4242);
    let mut client = RpcClient::connect(addr, ClientConfig::default()).expect("client");
    client
        .upload_pipelined(&records, MAX_PIPELINE_WINDOW)
        .expect("upload");

    let periods = vec![PeriodId::new(0), PeriodId::new(1)];
    let request = encode_request(&Request::QueryPoint {
        location: LocationId::new(31),
        periods: periods.clone(),
    });
    let reference = reference_for(&records);
    let expected = reference
        .estimate_point_persistent(LocationId::new(31), &periods)
        .expect("reference point");

    ptm_obs::enable_metrics();
    let shed_before = ptm_obs::registry().counter("rpc.shed.by_class.query").get();

    // The burst connects first and waits on the barrier. No retries here:
    // each connection records the daemon's one answer, served or shed.
    let burst = QUERY_QUEUE_SLOTS + 8;
    let barrier = Barrier::new(burst + 1);
    let (parked_response, responses) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..burst)
            .map(|_| {
                let request = &request;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .expect("timeout");
                    barrier.wait();
                    write_frame(&mut stream, request).expect("send");
                    read_response(&mut stream)
                })
            })
            .collect();

        // A burst of connects can outrun the listener's accept backlog.
        // The kernel then completes the overflowed handshakes only on a
        // SYN-ACK retransmit about a second later, after the parked
        // worker has drained the queue. So hold the burst until the daemon
        // has accepted every connection (the burst plus `client`).
        let accepted = format!("\"connections\":{},", burst + 1);
        await_stats(
            &mut client,
            &[&accepted],
            "the daemon never accepted the whole burst",
        );

        // Park the only worker on the slow first estimate, and wait until
        // it is running that query rather than holding it in the queue.
        let mut parked = TcpStream::connect(addr).expect("connect parked");
        parked
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        write_frame(&mut parked, &request).expect("send parked");
        await_stats(
            &mut client,
            &[
                "\"worker_inflight\":1",
                "\"queue_depth\":{\"query\":0,\"upload\":0}",
            ],
            "the worker never picked up the parked query",
        );

        barrier.wait();
        let responses: Vec<Response> = handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect();
        (read_response(&mut parked), responses)
    });

    match parked_response {
        Response::Estimate(value) => assert_eq!(
            value.to_bits(),
            expected.to_bits(),
            "the parked query is answered bit-exact"
        ),
        other => panic!("expected the parked query's estimate, got {other:?}"),
    }
    let mut served = 0usize;
    let mut shed = 0usize;
    for response in &responses {
        match response {
            Response::Estimate(value) => {
                served += 1;
                assert_eq!(
                    value.to_bits(),
                    expected.to_bits(),
                    "served answers stay bit-exact under load"
                );
            }
            Response::Overloaded { retry_after_ms } => {
                shed += 1;
                assert!(
                    *retry_after_ms >= 25,
                    "a shed carries at least the configured hint, got {retry_after_ms} ms"
                );
            }
            other => panic!("expected Estimate or Overloaded, got {other:?}"),
        }
    }
    assert_eq!(served + shed, burst);
    assert!(
        served >= QUERY_QUEUE_SLOTS,
        "every queue slot is served: {served} served, {shed} shed"
    );
    assert!(shed >= 1, "a burst past the queue's capacity must shed");
    let shed_after = ptm_obs::registry().counter("rpc.shed.by_class.query").get();
    assert_eq!(
        shed_after - shed_before,
        shed as u64,
        "rpc.shed.by_class.query counts every shed"
    );
    ptm_obs::set_metrics_enabled(false);

    // A normal retrying client gets through once the burst is over.
    let over_wire = client
        .query_point(LocationId::new(31), &periods)
        .expect("post-burst query");
    assert_eq!(over_wire.to_bits(), expected.to_bits());
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

// ---------------------------------------------------------------------------
// 3. Degraded mode: a failing archive backend sheds uploads, keeps serving
//    queries, and recovers through the cooldown-gated reopen probe.
// ---------------------------------------------------------------------------

#[test]
fn degraded_mode_sheds_uploads_serves_queries_then_recovers() {
    let _guard = lock();
    let path = temp_archive("chaos", "degraded");
    // The second and third commits fail; everything after is healthy.
    let plan = FaultPlan::builder(99)
        .rule(
            sites::STORE_WRITE,
            Rule::every(2, 1, FaultAction::Error(io::ErrorKind::Other)).times(2),
        )
        .build()
        .expect("degraded plan");
    let config = ServerConfig {
        s: 3,
        read_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        retry_after_ms: 10,
        degraded_after_failures: 2,
        degraded_cooldown: Duration::from_millis(150),
        fault_plan: Some(plan),
        ..ServerConfig::default()
    };
    let records = small_campaign(21, 2, 2121);
    let reference = reference_for(&records);

    ptm_obs::enable_metrics();
    let entries_before = ptm_obs::registry()
        .counter("store.recovery.degraded_entries")
        .get();
    let reopens_before = ptm_obs::registry().counter("store.recovery.reopens").get();

    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let addr = server.local_addr();
    let mut client = RpcClient::connect(
        addr,
        ClientConfig {
            max_attempts: 8,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            ..ClientConfig::default()
        },
    )
    .expect("client");
    // A client with a single attempt surfaces each shed directly.
    let mut one_shot = RpcClient::connect(
        addr,
        ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
    .expect("one-shot client");

    // Commit 1 succeeds; commits 2 and 3 hit the injected backend failures
    // and cross the degraded threshold.
    client
        .upload_pipelined(&records[..1], 1)
        .expect("first upload");
    for round in 0..2 {
        match one_shot.upload_pipelined(&records[1..], 1) {
            Err(ClientError::Exhausted { last, .. }) => {
                assert!(
                    last.contains("overloaded"),
                    "storage failure surfaces as an explicit shed, got {last:?} (round {round})"
                );
            }
            other => panic!("expected a shed, got {other:?} (round {round})"),
        }
    }
    assert!(
        server.degraded(),
        "two consecutive commit failures trip degraded mode"
    );
    assert!(
        client.ping().expect("ping").degraded,
        "Pong reports degraded"
    );

    // Degraded means read-only, not down: queries still serve, exactly.
    let over_wire = client
        .query_volume(LocationId::new(21), PeriodId::new(0))
        .expect("query while degraded");
    let in_process = reference
        .estimate_volume(LocationId::new(21), PeriodId::new(0))
        .expect("reference volume");
    assert_eq!(over_wire.to_bits(), in_process.to_bits());

    // Inside the cooldown the daemon sheds without touching the backend.
    assert!(
        one_shot.upload_pipelined(&records[1..], 1).is_err(),
        "uploads inside the cooldown are shed"
    );
    assert!(server.degraded());

    // After the cooldown the maintenance thread probes the reopen; the
    // fault budget is exhausted, so ingest resumes and the record lands.
    std::thread::sleep(Duration::from_millis(250));
    let summary = client
        .upload_pipelined(&records[1..], 1)
        .expect("upload after recovery");
    assert_eq!(summary.accepted, 1);
    assert!(!server.degraded(), "successful probe leaves degraded mode");
    let info = client.ping().expect("ping");
    assert!(!info.degraded);
    assert_eq!(info.records, 2);

    let entries_after = ptm_obs::registry()
        .counter("store.recovery.degraded_entries")
        .get();
    let reopens_after = ptm_obs::registry().counter("store.recovery.reopens").get();
    assert_eq!(entries_after, entries_before + 1, "one degraded entry");
    assert_eq!(reopens_after, reopens_before + 1, "one recovery reopen");
    ptm_obs::set_metrics_enabled(false);
    server.shutdown().expect("shutdown");

    // A clean restart replays both records and answers exactly.
    let server = RpcServer::start(
        "127.0.0.1:0",
        &path,
        ServerConfig {
            s: 3,
            read_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .expect("clean restart");
    assert_eq!(
        server.replay_report().records,
        2,
        "both acked records survived"
    );
    let mut client =
        RpcClient::connect(server.local_addr(), ClientConfig::default()).expect("client");
    assert_estimates_exact(&mut client, &reference, &[21], 2, "post-degraded recovery");
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

// ---------------------------------------------------------------------------
// 4. Segment-lifecycle storm: kills landing inside rotation (seal and
//    manifest commit) must never lose an acked record.
// ---------------------------------------------------------------------------

/// Server config for the segment-lifecycle storm: a tiny rotation
/// threshold (frames are ~150 bytes, so every third commit rotates).
fn lifecycle_server_config(plan: Option<&FaultPlan>) -> ServerConfig {
    ServerConfig {
        rotate_bytes: 400,
        ..storm_server_config(plan, false)
    }
}

fn run_rotation_storm(seed: u64) {
    // Enough single-record commits for two rotations after the four
    // failed attempts.
    const PERIODS: u32 = 6;
    let path = temp_archive("chaos", &format!("rotate-{seed}"));
    // The first two seal attempts fail, then the first two manifest
    // commits that would publish a rotation (commit 1 creates the store):
    // each of those rotations defers (the commit that triggered it still
    // acks, and a failed manifest commit removes the new file, so the old
    // segment stays the write head) and retries on a later commit.
    let plan = FaultPlan::builder(seed)
        .rule(
            sites::STORE_SEAL,
            Rule::every(1, 1, FaultAction::Error(io::ErrorKind::Other)).times(2),
        )
        .rule(
            sites::STORE_MANIFEST,
            Rule::every(2, 1, FaultAction::Error(io::ErrorKind::Other)).times(2),
        )
        .build()
        .expect("rotation plan");
    let locations: Vec<u64> = vec![41, 42];
    let all: Vec<TrafficRecord> = locations
        .iter()
        .flat_map(|&loc| small_campaign(loc, PERIODS, seed.wrapping_mul(77) + loc))
        .collect();

    // Phase 1: upload one record at a time so every commit is a rotation
    // candidate; every upload must end acked despite the failing seals and
    // manifest commits.
    {
        let server = RpcServer::start("127.0.0.1:0", &path, lifecycle_server_config(Some(&plan)))
            .expect("start");
        let mut client =
            RpcClient::connect(server.local_addr(), storm_client_config(seed)).expect("client");
        for record in all.chunks(1) {
            upload_acked(&mut client, record, &format!("rotation seed {seed}"));
        }
        assert!(
            !server.degraded(),
            "deferred rotations must not trip degraded mode (seed {seed})"
        );
        for site in [sites::STORE_SEAL, sites::STORE_MANIFEST] {
            assert_eq!(plan.site(site).fired(), 2, "{site} (seed {seed})");
        }
        server.shutdown().expect("shutdown");
    }

    // Crash simulation for a kill mid-rotation. Rotation creates the next
    // segment file before the manifest commit that names it, so a kill
    // between the two leaves an orphan file: here the next id's, holding a
    // header and a partial frame. The active segment gains a torn frame
    // too (as if the kill landed mid-append).
    let orphan = {
        use std::io::Write as _;
        let segments = segment_files(&path);
        assert!(
            segments.len() >= 3,
            "tiny threshold forces rotations (seed {seed}): {segments:?}"
        );
        let manifest = ptm_store::Manifest::load(&path)
            .expect("manifest readable")
            .expect("manifest present");
        let orphan = path.join(format!("seg-{:08}.ptms", manifest.next_segment_id));
        let mut bytes = b"PTMS\x03\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&[0x40, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 0xAB]);
        std::fs::write(&orphan, bytes).expect("orphan segment");
        let mut active = std::fs::OpenOptions::new()
            .append(true)
            .open(active_segment_file(&path))
            .expect("open active for tearing");
        active
            .write_all(&[0x40, 0x00, 0x00, 0x00, 0xAB])
            .expect("torn tail");
        orphan
    };

    // Phase 2: a clean daemon reopens the damaged directory. The orphan is
    // swept and the torn tail discarded; no acked record may be missing and
    // every estimate must match the in-process reference bit for bit.
    {
        let server =
            RpcServer::start("127.0.0.1:0", &path, lifecycle_server_config(None)).expect("restart");
        assert!(
            !orphan.exists(),
            "the open sweeps the orphan segment (seed {seed})"
        );
        let replay = server.replay_report();
        assert_eq!(
            replay.records,
            all.len(),
            "zero acked-record loss across the rotation kill (seed {seed})"
        );
        assert!(
            replay.torn_bytes > 0,
            "the torn active tail must be detected (seed {seed})"
        );
        let reference = reference_for(&all);
        let mut client =
            RpcClient::connect(server.local_addr(), storm_client_config(seed)).expect("client");
        assert_estimates_exact(
            &mut client,
            &reference,
            &locations,
            PERIODS,
            &format!("rotation seed {seed} post-recovery"),
        );
        server.shutdown().expect("shutdown");
    }
    cleanup_archive(&path);
}

#[test]
fn kill_during_rotation_storm_loses_no_acked_record() {
    let _guard = lock();
    for seed in [5, 71] {
        run_rotation_storm(seed);
    }
}

// ---------------------------------------------------------------------------
// 5. Crash forensics: a handler panic dumps the flight recorder.
// ---------------------------------------------------------------------------

/// A panicking ingest (the injected poisoned-lock fault) must leave the
/// flight recorder on disk *before* answering `Internal`: the last spans
/// and events leading up to the crash are the whole point of the ring.
#[test]
fn handler_panic_dumps_a_nonempty_flight_recorder() {
    let _guard = lock();
    // Spans and mirrored events only reach the recorder while tracing is
    // on; no writer is needed — the ring is independent of the JSONL sink.
    ptm_obs::enable_tracing();

    let dump = std::env::temp_dir().join(format!(
        "ptm-chaos-{}-recorder-dump.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&dump);
    let path = temp_archive("chaos", "recorder");
    // The panic rides the registered rpc.ingest site: the first ingest
    // job (the pre-panic upload) passes, the second panics inside the
    // writer lock.
    let plan = FaultPlan::parse("rpc.ingest@2=panic", 77).expect("plan");
    let config = ServerConfig {
        recorder_dump: Some(dump.clone()),
        ..storm_server_config(Some(&plan), false)
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("daemon");
    let mut client =
        RpcClient::connect(server.local_addr(), storm_client_config(77)).expect("client");

    let records = small_campaign(21, 2, 77);
    upload_acked(&mut client, &records[..1], "pre-panic upload");
    match client.upload_pipelined(&records[1..], 1) {
        Err(ClientError::Server {
            code: ErrorCode::Internal,
            ..
        }) => {}
        other => panic!("expected Internal after the injected panic, got {other:?}"),
    }

    // Read the dump before shutdown: this is the panic-time snapshot, not
    // the clean-exit one (shutdown re-dumps over it).
    let dumped = std::fs::read_to_string(&dump).expect("panic dumped the flight recorder");
    assert!(
        !dumped.trim().is_empty(),
        "flight-recorder dump must not be empty"
    );
    for line in dumped.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "dump is JSONL, got line {line:?}"
        );
    }
    assert!(
        dumped.contains("rpc.server.dispatch"),
        "the spans leading up to the panic are in the dump: {dumped}"
    );

    drop(client);
    server.shutdown().expect("clean shutdown");
    ptm_obs::set_tracing_enabled(false);
    let _ = std::fs::remove_file(&dump);
    cleanup_archive(&path);
}
