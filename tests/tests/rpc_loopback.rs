//! End-to-end tests for the `ptm-rpc` upload channel: a real daemon on a
//! loopback socket, concurrent clients, restart replay, and fault
//! injection (lost connections, corrupt frames, oversized frames).
//!
//! Metric-asserting tests share the process-global `ptm-obs` registry, so
//! every test takes [`lock`] to serialize against the others.

#![forbid(unsafe_code)]

use ptm_core::encoding::{EncodingScheme, LocationId};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_integration_tests::{cleanup_archive, direct_record, fleet, temp_archive};
use ptm_net::CentralServer;
use ptm_rpc::{
    ClientConfig, ClientError, DaemonError, ErrorCode, RpcClient, RpcServer, ServerConfig,
    MAX_PIPELINE_WINDOW, PROTOCOL_VERSION,
};
use ptm_store::{SegmentStore, StoreError, StoreOptions};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
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
    let persistent = fleet(&mut rng, 120, 3);
    let size = BitmapSize::new(4096).expect("pow2");
    (0..periods)
        .map(|p| {
            let transient = fleet(&mut rng, 250, 3);
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

#[test]
fn concurrent_uploads_match_in_process_estimates_bit_for_bit() {
    let _guard = lock();
    let path = temp_archive("rpc-it", "e2e");
    let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("start");
    let addr = server.local_addr();

    const PERIODS: u32 = 4;
    let locations: Vec<u64> = (1..=6).collect();
    let campaigns: Vec<Vec<TrafficRecord>> = locations
        .iter()
        .map(|&loc| campaign(loc, PERIODS, 1000 + loc))
        .collect();

    // M client threads, one per location, each uploading its records.
    std::thread::scope(|scope| {
        for records in &campaigns {
            scope.spawn(move || {
                let mut client = RpcClient::connect(addr, client_config()).expect("client");
                let summary = client
                    .upload_pipelined(records, MAX_PIPELINE_WINDOW)
                    .expect("upload");
                assert_eq!(summary.accepted as usize, records.len());
                assert_eq!(summary.duplicates, 0);
            });
        }
    });
    assert_eq!(server.record_count(), locations.len() * PERIODS as usize);

    // The reference: the same records submitted to an in-process engine.
    let reference = CentralServer::new(3);
    for records in &campaigns {
        for record in records {
            reference.submit(record.clone()).expect("reference submit");
        }
    }

    let periods: Vec<PeriodId> = (0..PERIODS).map(PeriodId::new).collect();
    let mut client = RpcClient::connect(addr, client_config()).expect("client");
    for &loc in &locations {
        let location = LocationId::new(loc);
        let over_wire = client.query_point(location, &periods).expect("point");
        let in_process = reference
            .estimate_point_persistent(location, &periods)
            .expect("point");
        assert_eq!(over_wire.to_bits(), in_process.to_bits(), "point at {loc}");

        let over_wire = client.query_volume(location, periods[0]).expect("volume");
        let in_process = reference
            .estimate_volume(location, periods[0])
            .expect("volume");
        assert_eq!(over_wire.to_bits(), in_process.to_bits(), "volume at {loc}");
    }
    let a = LocationId::new(locations[0]);
    let b = LocationId::new(locations[1]);
    let over_wire = client.query_p2p(a, b, &periods).expect("p2p");
    let in_process = reference
        .estimate_p2p_persistent(a, b, &periods)
        .expect("p2p");
    assert_eq!(over_wire.to_bits(), in_process.to_bits(), "p2p");

    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

#[test]
fn restart_replays_archive_and_answers_identically() {
    let _guard = lock();
    let path = temp_archive("rpc-it", "replay");
    let records = campaign(9, 5, 77);
    let periods: Vec<PeriodId> = (0..5).map(PeriodId::new).collect();
    let location = LocationId::new(9);

    let first_answer;
    {
        let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("start");
        let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
        client
            .upload_pipelined(&records, MAX_PIPELINE_WINDOW)
            .expect("upload");
        first_answer = client.query_point(location, &periods).expect("query");
        server.shutdown().expect("shutdown");
    }

    // A fresh daemon process on the same archive answers from disk alone.
    let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("restart");
    assert_eq!(server.replay_report().records, records.len());
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
    let second_answer = client.query_point(location, &periods).expect("query");
    assert_eq!(first_answer.to_bits(), second_answer.to_bits());
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

#[test]
fn retry_after_server_killed_mid_campaign_leaves_no_duplicate_frames() {
    let _guard = lock();
    let path = temp_archive("rpc-it", "kill-retry");
    let records = campaign(3, 6, 13);

    // The daemon dies after only part of the campaign is acked.
    {
        let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("start");
        let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
        client
            .upload_pipelined(&records[..4], MAX_PIPELINE_WINDOW)
            .expect("partial upload");
        server.shutdown().expect("kill");
    }

    // The RSU cannot know which records were acked, so its retry re-sends
    // the whole campaign to the restarted daemon.
    let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("restart");
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
    let summary = client
        .upload_pipelined(&records, MAX_PIPELINE_WINDOW)
        .expect("retry upload");
    assert_eq!(summary.accepted, 2, "only the unacked tail is new");
    assert_eq!(summary.duplicates, 4, "the acked prefix is idempotent");
    server.shutdown().expect("shutdown");

    // The store is a log that counts frames, so a record archived twice
    // would count twice: one frame per record means no duplicate frames.
    let opened = SegmentStore::open(&path, StoreOptions::default()).expect("open");
    assert_eq!(
        opened.store.record_count(),
        records.len(),
        "every archived frame is unique"
    );
    cleanup_archive(&path);
}

#[test]
fn client_retries_transparently_after_idle_disconnect() {
    let _guard = lock();
    let path = temp_archive("rpc-it", "idle-retry");
    // An aggressive idle cutoff severs the client's connection quickly.
    let config = ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..server_config()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
    assert_eq!(client.ping().expect("ping").version, PROTOCOL_VERSION);

    // Wait until the server has dropped the idle connection, then call
    // again: the client must notice the dead stream and reconnect.
    std::thread::sleep(Duration::from_millis(400));
    let records = campaign(5, 2, 5);
    let summary = client
        .upload_pipelined(&records, MAX_PIPELINE_WINDOW)
        .expect("upload after disconnect");
    assert_eq!(summary.accepted as usize, records.len());
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

#[test]
fn corrupt_and_oversized_frames_close_the_connection_not_the_daemon() {
    let _guard = lock();
    use std::io::{Read, Write};
    let path = temp_archive("rpc-it", "faults");
    let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("start");
    let addr = server.local_addr();

    ptm_obs::enable_metrics();
    let bad_before = ptm_obs::registry().counter("rpc.server.frames.bad").get();

    // Fault 1: a frame whose checksum is wrong.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut junk = Vec::new();
        junk.extend_from_slice(&4u32.to_le_bytes());
        junk.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        junk.extend_from_slice(&[9, 9, 9, 9]);
        stream.write_all(&junk).expect("write");
        // The server sends a best-effort error frame, then closes: the
        // stream must reach EOF.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read until close");
    }

    // Fault 2: a header advertising a frame far over the 32 MiB limit.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut junk = Vec::new();
        junk.extend_from_slice(&(u32::MAX).to_le_bytes());
        junk.extend_from_slice(&0u32.to_le_bytes());
        stream.write_all(&junk).expect("write");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read until close");
    }

    let bad_after = ptm_obs::registry().counter("rpc.server.frames.bad").get();
    assert!(
        bad_after >= bad_before + 2,
        "bad-frame counter must count both faults: {bad_before} -> {bad_after}"
    );
    ptm_obs::set_metrics_enabled(false);

    // The daemon survived both and still serves healthy clients.
    let mut client = RpcClient::connect(addr, client_config()).expect("client");
    assert_eq!(client.ping().expect("ping").version, PROTOCOL_VERSION);
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

#[test]
fn conflicting_record_is_fatal_not_retried() {
    let _guard = lock();
    let path = temp_archive("rpc-it", "conflict-fatal");
    let location = LocationId::new(8);
    let records = campaign(8, 1, 21);
    {
        let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("start");
        let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
        client
            .upload_pipelined(&records, MAX_PIPELINE_WINDOW)
            .expect("first upload");
        server.shutdown().expect("shutdown");
    }

    // Restarted, with no query in between: the conflict is caught against
    // the record loaded from the archive at start.
    let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("restart");
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
    // Same slot, different contents: the daemon must refuse, and the
    // client must surface it as a server error without burning retries.
    let conflicting = campaign(8, 1, 22);
    match client.upload_pipelined(&conflicting, MAX_PIPELINE_WINDOW) {
        Err(ClientError::Server {
            code: ErrorCode::DuplicateConflict,
            ..
        }) => {}
        other => panic!("expected DuplicateConflict, got {other:?}"),
    }
    server.shutdown().expect("shutdown");

    // After one more restart the engine still answers with the original
    // record.
    let reference = CentralServer::new(3);
    reference
        .submit(records[0].clone())
        .expect("reference submit");
    let expected = reference
        .estimate_volume(location, PeriodId::new(0))
        .expect("reference volume");
    let server = RpcServer::start("127.0.0.1:0", &path, server_config()).expect("restart");
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
    let vol = client
        .query_volume(location, PeriodId::new(0))
        .expect("volume");
    assert_eq!(vol.to_bits(), expected.to_bits());
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

#[test]
fn corrupt_sealed_frame_fails_the_start() {
    let _guard = lock();
    // The first segment's frames are promised by the clean shutdown's
    // checkpoint (default threshold) or sealed by a rotation (a 1-byte
    // threshold rotates after the upload's commit).
    for rotate_bytes in [ServerConfig::default().rotate_bytes, 1] {
        let path = temp_archive("rpc-it", &format!("corrupt-sealed-{rotate_bytes}"));
        let config = ServerConfig {
            rotate_bytes,
            ..server_config()
        };
        {
            let server = RpcServer::start("127.0.0.1:0", &path, config.clone()).expect("start");
            let mut client =
                RpcClient::connect(server.local_addr(), client_config()).expect("client");
            client
                .upload_pipelined(&campaign(6, 2, 60), MAX_PIPELINE_WINDOW)
                .expect("upload");
            // The next open still reads and checks every one of the
            // segment's frames.
            server.shutdown().expect("shutdown");
        }

        // One flipped payload byte in the first record frame, which follows
        // the 8-byte segment header and the frame's own 8-byte header.
        let segment = path.join("seg-00000000.ptms");
        let mut bytes = std::fs::read(&segment).expect("read segment");
        bytes[8 + 8 + 30] ^= 0x01;
        std::fs::write(&segment, &bytes).expect("write segment");
        match RpcServer::start("127.0.0.1:0", &path, config) {
            Err(DaemonError::Store(StoreError::CorruptFrame { .. })) => {}
            Err(other) => panic!("expected a corrupt frame, got {other:?}"),
            Ok(server) => {
                server.shutdown().expect("shutdown");
                panic!("a daemon started on an archive with a corrupt frame");
            }
        }
        assert_eq!(
            std::fs::read(&segment).expect("reread segment"),
            bytes,
            "a promised frame is never truncated"
        );
        cleanup_archive(&path);
    }
}
