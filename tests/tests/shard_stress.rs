//! Stress tests for the sharded central store behind the RPC daemon:
//! uploaders and queriers hammering the same process concurrently must
//! produce answers bit-for-bit identical to a sequential in-process run,
//! and a panicked upload must publish nothing.
//!
//! Every test takes [`lock`] to serialize against the others.

#![forbid(unsafe_code)]

use ptm_core::encoding::{EncodingScheme, LocationId};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_integration_tests::{cleanup_archive, direct_record, fleet, temp_archive};
use ptm_net::CentralServer;
use ptm_rpc::{ClientConfig, RpcClient, RpcServer, ServerConfig, MAX_PIPELINE_WINDOW};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn server_config() -> ServerConfig {
    ServerConfig {
        s: 3,
        read_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(5),
        max_attempts: 4,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..ClientConfig::default()
    }
}

/// A deterministic per-location campaign: `periods` records sharing a
/// persistent fleet plus transient traffic.
fn campaign(location: u64, periods: u32, seed: u64) -> Vec<TrafficRecord> {
    let scheme = EncodingScheme::new(11, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let persistent = fleet(&mut rng, 100, 3);
    let size = BitmapSize::new(4096).expect("pow2");
    (0..periods)
        .map(|p| {
            let transient = fleet(&mut rng, 200, 3);
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

/// Records are immutable once accepted, so any query that succeeds
/// mid-stress covers exactly the records it will cover in the final state:
/// a point query over all `P` periods only answers once all `P` are
/// present. Every `Ok` answer observed *during* the upload storm must
/// therefore already be bit-for-bit equal to the sequential reference.
#[test]
fn parallel_uploads_and_queries_match_sequential_bit_for_bit() {
    let _guard = lock();
    const PERIODS: u32 = 6;
    const QUERIERS: usize = 3;
    let locations: Vec<u64> = (21..=26).collect();
    let campaigns: Vec<Vec<TrafficRecord>> = locations
        .iter()
        .map(|&loc| campaign(loc, PERIODS, 4000 + loc))
        .collect();
    let periods: Vec<PeriodId> = (0..PERIODS).map(PeriodId::new).collect();

    // The sequential reference, computed before any concurrency exists.
    let reference = CentralServer::new(3);
    for records in &campaigns {
        for record in records {
            reference.submit(record.clone()).expect("reference submit");
        }
    }
    let expected_point: Vec<u64> = locations
        .iter()
        .map(|&loc| {
            reference
                .estimate_point_persistent(LocationId::new(loc), &periods)
                .expect("reference point")
                .to_bits()
        })
        .collect();
    let expected_volume: Vec<u64> = locations
        .iter()
        .map(|&loc| {
            reference
                .estimate_volume(LocationId::new(loc), periods[0])
                .expect("reference volume")
                .to_bits()
        })
        .collect();
    let p2p_pair = (LocationId::new(locations[0]), LocationId::new(locations[1]));
    let expected_p2p = reference
        .estimate_p2p_persistent(p2p_pair.0, p2p_pair.1, &periods)
        .expect("reference p2p")
        .to_bits();

    let path = temp_archive("shard-it", "stress");
    let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("start");
    let addr = server.local_addr();
    let done = AtomicBool::new(false);
    let verified = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Uploaders: one per location, one record per call so uploads to
        // different locations interleave at the finest grain the protocol
        // allows.
        for records in &campaigns {
            scope.spawn(move || {
                let mut client = RpcClient::connect(addr, client_config()).expect("client");
                for record in records {
                    let summary = client
                        .upload_pipelined(std::slice::from_ref(record), MAX_PIPELINE_WINDOW)
                        .expect("upload");
                    assert_eq!(summary.accepted, 1);
                }
            });
        }
        // Queriers: hammer every query kind for the whole storm. A query
        // may fail while its periods are still being uploaded; once it
        // answers, the answer must match the reference exactly. Each
        // querier runs one final full pass after the uploads finish, so
        // post-quiescence answers are verified too.
        for _ in 0..QUERIERS {
            scope.spawn(|| {
                let mut client = RpcClient::connect(addr, client_config()).expect("client");
                loop {
                    let last_pass = done.load(Ordering::Acquire);
                    for (i, &loc) in locations.iter().enumerate() {
                        let location = LocationId::new(loc);
                        if let Ok(est) = client.query_point(location, &periods) {
                            assert_eq!(est.to_bits(), expected_point[i], "point at {loc}");
                            verified.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Ok(est) = client.query_volume(location, periods[0]) {
                            assert_eq!(est.to_bits(), expected_volume[i], "volume at {loc}");
                            verified.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Ok(est) = client.query_p2p(p2p_pair.0, p2p_pair.1, &periods) {
                        assert_eq!(est.to_bits(), expected_p2p, "p2p");
                        verified.fetch_add(1, Ordering::Relaxed);
                    }
                    if last_pass {
                        break;
                    }
                }
            });
        }
        // Wait for the uploaders (their handles are unnamed, so join via a
        // dedicated marker thread is overkill: the scope joins everything;
        // flip `done` once the record count shows all uploads landed).
        let total = locations.len() * PERIODS as usize;
        while server.record_count() < total {
            std::thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);
    });

    // Every querier's final pass answered every query.
    let min_verified = QUERIERS * (locations.len() * 2 + 1);
    assert!(
        verified.load(Ordering::Relaxed) >= min_verified,
        "expected at least {min_verified} verified answers, got {}",
        verified.load(Ordering::Relaxed)
    );
    assert_eq!(server.record_count(), locations.len() * PERIODS as usize);
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

/// A panicking upload publishes nothing: the answers before and after it
/// are bit-identical, its retry is accepted exactly once, and the full
/// window then matches an in-process reference bit-for-bit.
#[test]
fn panicked_upload_publishes_nothing_and_its_retry_lands_once() {
    let _guard = lock();
    let path = temp_archive("shard-it", "panic-retry");
    // The second ingest job — the fourth-period upload below — panics via
    // the registered rpc.ingest site; the first (three frames written in
    // one wave, coalesced into one job) and the post-panic retry pass
    // untouched.
    let config = ServerConfig {
        fault_plan: Some(ptm_fault::FaultPlan::parse("rpc.ingest@2=panic", 41).expect("plan")),
        ..server_config()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");

    let location = LocationId::new(41);
    let records = campaign(41, 4, 410);
    client
        .upload_pipelined(&records[..3], MAX_PIPELINE_WINDOW)
        .expect("upload 3 periods");
    let periods: Vec<PeriodId> = (0..3).map(PeriodId::new).collect();
    let before = client.query_point(location, &periods).expect("query");

    // The fourth-period upload panics inside ingest while holding the
    // writer lock. The daemon answers Internal and publishes nothing.
    match client.upload_pipelined(std::slice::from_ref(&records[3]), MAX_PIPELINE_WINDOW) {
        Err(ptm_rpc::ClientError::Server {
            code: ptm_rpc::ErrorCode::Internal,
            ..
        }) => {}
        other => panic!("expected Internal from panicked ingest, got {other:?}"),
    }
    let after_panic = client.query_point(location, &periods).expect("query");
    assert_eq!(after_panic.to_bits(), before.to_bits());
    assert_eq!(
        server.record_count(),
        3,
        "the panicked upload stored nothing"
    );

    // The retry lands for real (the one-shot rule already fired), once.
    let summary = client
        .upload_pipelined(std::slice::from_ref(&records[3]), MAX_PIPELINE_WINDOW)
        .expect("retried upload");
    assert_eq!((summary.accepted, summary.duplicates), (1, 0));
    let after_retry = client.query_point(location, &periods).expect("query");
    assert_eq!(
        after_retry.to_bits(),
        before.to_bits(),
        "same periods, same answer"
    );

    // Full-window answer matches an in-process reference bit-for-bit.
    let reference = CentralServer::new(3);
    for record in &records {
        reference.submit(record.clone()).expect("reference submit");
    }
    let all_periods: Vec<PeriodId> = (0..4).map(PeriodId::new).collect();
    let over_wire = client
        .query_point(location, &all_periods)
        .expect("full window");
    let in_process = reference
        .estimate_point_persistent(location, &all_periods)
        .expect("reference");
    assert_eq!(over_wire.to_bits(), in_process.to_bits());

    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}
