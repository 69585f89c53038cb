//! Seeded overload storms against the deadline-aware reactor daemon.
//!
//! Each storm saturates a two-worker daemon with slow ingest jobs (every
//! commit stalls via the `rpc.ingest` fault site) while probing the three
//! overload-control guarantees end to end:
//!
//! * **doomed work never executes** — uploads stamped with a 1 ms wire
//!   deadline that expire in the queue are answered `DeadlineExceeded`
//!   and must be absent from the store afterwards, while every
//!   `UploadOk` ack must survive restart;
//! * **control stays answerable** — `Stats` returns while every worker
//!   is parked, because control frames run inline on the reactor;
//! * **drain loses nothing** — a draining daemon answers `GoingAway`,
//!   quiesces, and a clean restart replays exactly the acked set with
//!   estimates bit-for-bit equal to an in-process reference.

#![forbid(unsafe_code)]

use ptm_core::encoding::{EncodingScheme, LocationId};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_fault::FaultPlan;
use ptm_integration_tests::{cleanup_archive, direct_record, fleet, temp_archive};
use ptm_net::CentralServer;
use ptm_rpc::proto::{decode_response, encode_request_with};
use ptm_rpc::{
    read_frame, write_frame, ClientConfig, ClientError, ErrorCode, ReadOutcome, Request, Response,
    RpcClient, RpcServer, ServerConfig, DEFAULT_MAX_FRAME_LEN,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn campaign(location: u64, periods: u32, seed: u64) -> Vec<TrafficRecord> {
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

fn storm_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(5),
        max_attempts: 10,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(30),
        jitter_seed: seed,
        // A generous budget: it stamps FLAG_DEADLINE on every frame (so
        // the whole storm exercises the deadline wire path) without ever
        // dooming the uploads themselves.
        deadline: Some(Duration::from_secs(30)),
    }
}

/// One raw v3 request/response exchange on an already-open stream,
/// stamped with `deadline_ms`.
fn raw_exchange(stream: &mut TcpStream, request: &Request, deadline_ms: Option<u32>) -> Response {
    let payload = encode_request_with(request, None, deadline_ms);
    write_frame(stream, &payload).expect("raw write");
    match read_frame(stream, DEFAULT_MAX_FRAME_LEN).expect("raw read") {
        ReadOutcome::Frame(bytes) => decode_response(&bytes).expect("raw decode"),
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// Polls the live `Stats` snapshot until the overload gauges report a
/// fully settled pool: nothing in flight, every class queue empty.
fn assert_gauges_settle(client: &mut RpcClient, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snapshot = client.stats().expect("stats");
        if snapshot.contains("\"worker_inflight\":0")
            && snapshot.contains("\"queue_depth\":{\"query\":0,\"upload\":0}")
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "overload gauges never settled ({context}): {snapshot}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn run_overload_storm(seed: u64) {
    let path = temp_archive("overload", &format!("storm-{seed}"));
    // Every ingest commit stalls 25 ms: three uploader threads against two
    // workers keeps the pool saturated for the whole storm.
    let plan = FaultPlan::parse("rpc.ingest@1/1=delay:25", seed).expect("plan");
    let config = ServerConfig {
        s: 3,
        workers: 2,
        read_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(1),
        retry_after_ms: 10,
        fault_plan: Some(plan),
        ..ServerConfig::default()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let addr = server.local_addr();

    ptm_obs::enable_metrics();
    let doomed_before = ptm_obs::registry()
        .counter("rpc.server.deadline_dropped")
        .get();

    let locations: Vec<u64> = vec![21, 22, 23];
    let campaigns: Vec<Vec<TrafficRecord>> = locations
        .iter()
        .map(|&loc| campaign(loc, 6, seed.wrapping_mul(1000) + loc))
        .collect();

    // Saturate: one uploader thread per location, one ingest job (and one
    // 25 ms stall) per record.
    let uploaders: Vec<_> = campaigns
        .iter()
        .map(|records| {
            let records = records.clone();
            std::thread::spawn(move || {
                let mut client =
                    RpcClient::connect(addr, storm_client_config(seed)).expect("uploader connect");
                for record in records.chunks(1) {
                    let summary = client.upload_pipelined(record, 1).expect("storm upload");
                    assert_eq!(summary.accepted + summary.duplicates, 1);
                }
            })
        })
        .collect();

    // While the pool is saturated, Stats must keep answering (control
    // frames run inline on the reactor, never through the worker pool).
    let mut stats_client =
        RpcClient::connect(addr, storm_client_config(seed ^ 1)).expect("stats connect");
    std::thread::sleep(Duration::from_millis(30));
    for _ in 0..5 {
        let snapshot = stats_client.stats().expect("stats under saturation");
        assert!(
            snapshot.contains("\"overload\""),
            "stats must carry the overload block (seed {seed})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Doom probes: raw v3 uploads for a sentinel location carrying a 1 ms
    // wire deadline. Parked behind 25 ms ingest stalls, most expire in the
    // queue; the server must answer DeadlineExceeded *without executing*
    // them — verified against the store after restart.
    let sentinel = 900 + seed;
    let sentinel_records = campaign(sentinel, 8, seed.wrapping_mul(7919));
    let mut probe = TcpStream::connect(addr).expect("probe connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("probe timeout");
    let mut doomed_periods = Vec::new();
    let mut acked_periods = Vec::new();
    for (period, record) in sentinel_records.iter().enumerate() {
        match raw_exchange(&mut probe, &Request::Upload(record.clone()), Some(1)) {
            Response::DeadlineExceeded => doomed_periods.push(period),
            Response::UploadOk {
                accepted,
                duplicates,
            } => {
                assert_eq!(accepted + duplicates, 1, "one probe, one outcome");
                acked_periods.push(period);
            }
            other => panic!("probe got unexpected answer (seed {seed}): {other:?}"),
        }
    }
    assert!(
        !doomed_periods.is_empty(),
        "a saturated pool must doom at least one 1 ms-deadline probe (seed {seed})"
    );

    for uploader in uploaders {
        uploader.join().expect("uploader thread");
    }

    // Every doomed reply must be a drop, not an execution: the counter
    // moved once per doomed probe and nothing else doomed (the storm
    // clients carry a 30 s budget).
    let doomed_after = ptm_obs::registry()
        .counter("rpc.server.deadline_dropped")
        .get();
    assert_eq!(
        doomed_after - doomed_before,
        doomed_periods.len() as u64,
        "deadline_dropped must move exactly once per doomed probe (seed {seed})"
    );

    // The storm is over: queue-depth and in-flight gauges must settle to
    // zero (no phantom queue entries, no leaked in-flight slots).
    assert_gauges_settle(&mut stats_client, &format!("seed {seed}"));

    // Drain: new work is answered GoingAway with the hand-off hint while
    // the daemon quiesces.
    server.drain();
    match raw_exchange(&mut probe, &Request::Ping, None) {
        // The hand-off hint is floored by the measured queue-delay EWMA,
        // so after a storm of 25 ms sojourns it can exceed the configured
        // 10 ms — but never undercut it.
        Response::GoingAway { retry_after_ms } => assert!(retry_after_ms >= 10),
        other => panic!("draining daemon must answer GoingAway (seed {seed}): {other:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.drain_complete() {
        assert!(
            Instant::now() < deadline,
            "drain never reached quiescence (seed {seed})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(probe);
    drop(stats_client);
    server.shutdown().expect("shutdown");
    ptm_obs::set_metrics_enabled(false);

    // Clean restart: exactly the acked set survives — every campaign
    // record plus the probe uploads that were acked, none that doomed —
    // and estimates match an in-process reference bit for bit.
    let clean = ServerConfig {
        s: 3,
        poll_interval: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, clean).expect("clean restart");
    let expected: usize = campaigns.iter().map(Vec::len).sum::<usize>() + acked_periods.len();
    assert_eq!(
        server.replay_report().records,
        expected,
        "drain must lose zero acked records (seed {seed})"
    );
    let reference = CentralServer::new(3);
    for record in campaigns.iter().flatten() {
        reference.submit(record.clone()).expect("reference submit");
    }
    for &period in &acked_periods {
        reference
            .submit(sentinel_records[period].clone())
            .expect("reference sentinel");
    }
    let mut client =
        RpcClient::connect(server.local_addr(), storm_client_config(seed)).expect("verify client");
    for &loc in &locations {
        let location = LocationId::new(loc);
        for period in 0..6 {
            let period = PeriodId::new(period);
            let over_wire = client.query_volume(location, period).expect("volume");
            let in_process = reference.estimate_volume(location, period).expect("volume");
            assert_eq!(
                over_wire.to_bits(),
                in_process.to_bits(),
                "volume at {loc} (seed {seed})"
            );
        }
    }
    let sentinel_loc = LocationId::new(sentinel);
    for &period in &acked_periods {
        let period = PeriodId::new(period as u32);
        let over_wire = client
            .query_volume(sentinel_loc, period)
            .expect("acked sentinel");
        let in_process = reference
            .estimate_volume(sentinel_loc, period)
            .expect("acked sentinel");
        assert_eq!(over_wire.to_bits(), in_process.to_bits());
    }
    for &period in &doomed_periods {
        match client.query_volume(sentinel_loc, PeriodId::new(period as u32)) {
            Err(ClientError::Server {
                code: ErrorCode::MissingRecord,
                ..
            }) => {}
            other => panic!(
                "doomed period {period} must never have been executed (seed {seed}): {other:?}"
            ),
        }
    }
    server.shutdown().expect("clean shutdown");
    cleanup_archive(&path);
}

#[test]
fn seeded_overload_storms_hold_every_invariant() {
    let _guard = lock();
    for seed in [2, 9, 41, 777, 5309] {
        run_overload_storm(seed);
    }
}

/// Deterministic saturation: with a single worker parked on a 400 ms
/// ingest stall, `Stats` and `Ping` must answer long before the stall
/// ends — control never queues behind the pool.
#[test]
fn stats_answers_while_every_worker_is_parked() {
    let _guard = lock();
    let path = temp_archive("overload", "parked");
    let plan = FaultPlan::parse("rpc.ingest@1=delay:400", 5).expect("plan");
    let config = ServerConfig {
        s: 3,
        workers: 1,
        poll_interval: Duration::from_millis(1),
        fault_plan: Some(plan),
        ..ServerConfig::default()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let addr = server.local_addr();

    // Park the only worker: send the upload raw and do not read its ack.
    let record = campaign(31, 1, 99).remove(0);
    let mut parker = TcpStream::connect(addr).expect("parker connect");
    parker
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("parker timeout");
    let payload = encode_request_with(&Request::Upload(record), None, None);
    write_frame(&mut parker, &payload).expect("park write");
    std::thread::sleep(Duration::from_millis(50));

    let mut client = RpcClient::connect(addr, ClientConfig::default()).expect("client");
    let started = Instant::now();
    let snapshot = client.stats().expect("stats while parked");
    let info = client.ping().expect("ping while parked");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(300),
        "control answers must not wait out the 400 ms park (took {elapsed:?})"
    );
    assert!(snapshot.contains("\"worker_inflight\":1"), "{snapshot}");
    assert_eq!(info.records, 0, "the parked upload has not committed yet");

    // The parked upload still completes normally once the stall elapses.
    match read_frame(&mut parker, DEFAULT_MAX_FRAME_LEN).expect("park read") {
        ReadOutcome::Frame(bytes) => match decode_response(&bytes).expect("park decode") {
            Response::UploadOk { accepted, .. } => assert_eq!(accepted, 1),
            other => panic!("parked upload must still commit: {other:?}"),
        },
        other => panic!("expected the parked ack, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}
