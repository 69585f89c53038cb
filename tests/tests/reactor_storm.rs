//! Connection-scale storms against the reactor daemon: slow-loris
//! dribblers that never finish a frame, a thousand concurrent loopback
//! connections, and bit-for-bit equivalence between pipelined uploads and
//! an in-process engine fed the same records.
//!
//! The old thread-per-connection daemon would have needed a thousand OS
//! threads (and could be wedged by one byte-at-a-time writer holding the
//! accept loop); the reactor owns every socket from one event loop, so
//! these tests double as regression coverage for the accept-loop
//! head-of-line blocking fix.

#![forbid(unsafe_code)]

use ptm_core::encoding::{EncodingScheme, LocationId};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_integration_tests::{cleanup_archive, direct_record, fleet, temp_archive};
use ptm_net::CentralServer;
use ptm_rpc::{
    read_frame, write_frame, ClientConfig, ReadOutcome, RpcClient, RpcServer, ServerConfig,
    DEFAULT_MAX_FRAME_LEN, MAX_PIPELINE_WINDOW,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// After a storm the worker pool's accounting must settle: nothing in
/// flight, every class admission queue empty. A leaked gauge here means
/// a panic or shutdown race lost a decrement.
fn assert_overload_gauges_settled(addr: std::net::SocketAddr, context: &str) {
    let mut client = RpcClient::connect(addr, client_config()).expect("gauge client");
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
            "overload gauges leaked after the storm ({context}): {snapshot}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(10),
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
    let persistent = fleet(&mut rng, 80, 3);
    let size = BitmapSize::new(2048).expect("pow2");
    (0..periods)
        .map(|p| {
            let transient = fleet(&mut rng, 150, 3);
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

/// Hundreds of half-open connections dribbling partial frame headers must
/// not starve a healthy client, and the daemon must retire every dribbler
/// on its stall cutoff without writing garbage.
#[test]
fn slow_loris_dribblers_do_not_starve_healthy_clients() {
    let _guard = lock();
    let path = temp_archive("storm", "loris");
    let config = ServerConfig {
        s: 3,
        max_connections: 2048,
        // Tight stall cutoff so the dribblers are retired quickly once
        // the healthy work is proven to have gone through.
        read_timeout: Duration::from_millis(750),
        poll_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let addr = server.local_addr();

    const DRIBBLERS: usize = 300;
    let mut dribblers = Vec::with_capacity(DRIBBLERS);
    for i in 0..DRIBBLERS {
        let mut stream = TcpStream::connect(addr).expect("dribbler connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // Three bytes of a frame header: never a complete length prefix,
        // so the decoder holds a partial frame forever.
        let teaser = [(i & 0xFF) as u8, 0x00, 0x00];
        stream.write_all(&teaser).expect("dribble");
        dribblers.push(stream);
    }

    // With every dribbler half-open, a healthy client's upload and query
    // must still complete promptly.
    let records = campaign(7, 3, 99);
    let started = Instant::now();
    let mut client = RpcClient::connect(addr, client_config()).expect("client");
    let summary = client
        .upload_pipelined(&records, MAX_PIPELINE_WINDOW)
        .expect("upload under storm");
    assert_eq!(summary.accepted as usize, records.len());
    let periods: Vec<PeriodId> = (0..3).map(PeriodId::new).collect();
    let estimate = client
        .query_point(LocationId::new(7), &periods)
        .expect("query under storm");
    assert!(estimate.is_finite());
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "healthy client starved by dribblers: {:?}",
        started.elapsed()
    );

    // Every dribbler is retired once it overstays the stall cutoff. A
    // polite daemon may answer with a Malformed error frame first; either
    // way the connection must reach EOF and never carry unsolicited bytes.
    let deadline = Instant::now() + Duration::from_secs(30);
    for (i, mut stream) in dribblers.into_iter().enumerate() {
        loop {
            match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                Ok(ReadOutcome::Frame(bytes)) => {
                    let response =
                        ptm_rpc::proto::decode_response(&bytes).expect("decodable farewell");
                    assert!(
                        matches!(
                            response,
                            ptm_rpc::Response::Error {
                                code: ptm_rpc::ErrorCode::Malformed,
                                ..
                            }
                        ),
                        "dribbler {i} got unexpected farewell: {response:?}"
                    );
                }
                Ok(ReadOutcome::Closed) => break,
                Ok(ReadOutcome::Idle) => {}
                // A reset instead of a graceful EOF also proves teardown.
                Err(_) => break,
            }
            assert!(
                Instant::now() < deadline,
                "dribbler {i} never retired by the stall cutoff"
            );
        }
    }

    assert_overload_gauges_settled(addr, "slow loris");
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

/// One thousand concurrent loopback connections, each completing a
/// ping round trip — far beyond what thread-per-connection could hold.
#[test]
fn one_thousand_concurrent_connections_all_get_answered() {
    let _guard = lock();
    let path = temp_archive("storm", "1k");
    let config = ServerConfig {
        s: 3,
        max_connections: 1500,
        read_timeout: Duration::from_secs(30),
        poll_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let addr = server.local_addr();

    const CONNS: usize = 1000;
    let ping = ptm_rpc::proto::encode_request(&ptm_rpc::Request::Ping);
    let mut streams = Vec::with_capacity(CONNS);
    // Open every connection and write every request before reading any
    // response: all thousand are concurrently live inside the daemon.
    for i in 0..CONNS {
        let mut stream =
            TcpStream::connect(addr).unwrap_or_else(|err| panic!("connect {i} failed: {err}"));
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        write_frame(&mut stream, &ping).unwrap_or_else(|err| panic!("ping {i} failed: {err}"));
        streams.push(stream);
    }
    let mut answered = 0usize;
    for (i, mut stream) in streams.into_iter().enumerate() {
        match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
            Ok(ReadOutcome::Frame(bytes)) => {
                let response = ptm_rpc::proto::decode_response(&bytes).expect("pong decodes");
                assert!(
                    matches!(response, ptm_rpc::Response::Pong { .. }),
                    "connection {i} got {response:?}"
                );
                answered += 1;
            }
            other => panic!("connection {i} got no answer: {other:?}"),
        }
    }
    assert_eq!(answered, CONNS);

    assert_overload_gauges_settled(addr, "thousand connections");
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}

/// The pipelined upload path (coalesced commits, batched acks) must be
/// observationally identical to an in-process engine fed the same records:
/// one ack per record, the same record count, bit-for-bit identical
/// estimates.
#[test]
fn pipelined_uploads_are_bit_for_bit_equivalent_to_an_in_process_engine() {
    let _guard = lock();
    let path = temp_archive("storm", "pipe");
    let config = ServerConfig {
        s: 3,
        poll_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let server = RpcServer::start("127.0.0.1:0", &path, config).expect("start");
    let reference = CentralServer::new(3);

    const PERIODS: u32 = 4;
    let locations: Vec<u64> = vec![3, 5, 9];
    for &location in &locations {
        let records = campaign(location, PERIODS, 500 + location);
        let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
        let pipelined = client
            .upload_pipelined(&records, 8)
            .expect("pipelined upload");
        assert_eq!(pipelined.accepted as usize, records.len());
        assert_eq!(pipelined.duplicates, 0);
        for record in records {
            reference.submit(record).expect("reference submit");
        }
    }
    assert_eq!(server.record_count(), reference.record_count());

    let periods: Vec<PeriodId> = (0..PERIODS).map(PeriodId::new).collect();
    let mut client = RpcClient::connect(server.local_addr(), client_config()).expect("client");
    for &location in &locations {
        let loc = LocationId::new(location);
        let point = client.query_point(loc, &periods).expect("point");
        let expected = reference
            .estimate_point_persistent(loc, &periods)
            .expect("reference point");
        assert_eq!(point.to_bits(), expected.to_bits(), "point @{location}");
        let volume = client.query_volume(loc, periods[0]).expect("volume");
        let expected = reference
            .estimate_volume(loc, periods[0])
            .expect("reference volume");
        assert_eq!(volume.to_bits(), expected.to_bits(), "volume @{location}");
    }
    let (a, b) = (LocationId::new(3), LocationId::new(9));
    let p2p = client.query_p2p(a, b, &periods).expect("p2p");
    let expected = reference
        .estimate_p2p_persistent(a, b, &periods)
        .expect("reference p2p");
    assert_eq!(p2p.to_bits(), expected.to_bits());

    assert_overload_gauges_settled(server.local_addr(), "pipelined server");
    server.shutdown().expect("shutdown");
    cleanup_archive(&path);
}
