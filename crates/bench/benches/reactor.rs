//! Reactor wire-path benchmarks: in-place frame decoding against the
//! copying baseline, pipelined (coalesced-commit, batched-ack) ingest
//! throughput, accept latency while the daemon already holds hundreds
//! of idle connections, and the cost of stamping a deadline budget into
//! the v3 request header. Run with `cargo bench -p ptm-bench --bench
//! reactor`.

use criterion::{criterion_group, criterion_main, Criterion};
use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_rpc::{
    read_frame, write_frame, ClientConfig, FrameDecoder, ReadOutcome, Request, RpcClient,
    RpcServer, ServerConfig, DEFAULT_MAX_FRAME_LEN,
};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;
use std::io::Cursor;
use std::net::TcpStream;
use std::time::Duration;

/// One realistic upload request payload (a ~4 KiB record), framed.
fn framed_upload() -> Vec<u8> {
    let scheme = EncodingScheme::new(77, 3);
    let mut rng = ChaCha12Rng::seed_from_u64(77);
    let size = BitmapSize::new(4096).expect("pow2");
    let mut record = TrafficRecord::new(LocationId::new(5), PeriodId::new(0), size);
    for _ in 0..64 {
        let v = VehicleSecrets::generate(&mut rng, 3);
        record.encode(&scheme, &v);
    }
    let payload = ptm_rpc::proto::encode_request(&Request::Upload(record));
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).expect("frame");
    framed
}

/// Zero-copy decode (one reusable buffer, payload borrowed in place)
/// versus the copying `read_frame` baseline (fresh `Vec` per frame), over
/// the same framed upload.
fn bench_frame_decode(c: &mut Criterion) {
    let framed = framed_upload();
    let mut group = c.benchmark_group("frame");

    group.bench_function("decode_in_place", |b| {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        b.iter(|| {
            let mut input: &[u8] = &framed;
            loop {
                if let Some(payload) = decoder.next_frame().expect("clean frame") {
                    break black_box(payload.len());
                }
                decoder.read_from(&mut input).expect("read");
            }
        });
    });

    group.bench_function("decode_copy", |b| {
        b.iter(|| {
            let mut cursor = Cursor::new(framed.as_slice());
            match read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect("clean frame") {
                ReadOutcome::Frame(payload) => black_box(payload.len()),
                other => panic!("expected a frame, got {other:?}"),
            }
        });
    });

    group.finish();
}

fn bench_server_config() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(1),
        max_connections: 1024,
        ..ServerConfig::default()
    }
}

/// Pipelined ingest throughput: one wave of fresh single-record uploads
/// per iteration, coalesced by the daemon into one commit with batched
/// acks. The median is per *wave* (16 records), not per record.
fn bench_pipelined_ingest(c: &mut Criterion) {
    let archive = std::env::temp_dir().join(format!("ptm-bench-pipe-{}.ptma", std::process::id()));
    let _ = std::fs::remove_file(&archive);
    let _ = std::fs::remove_dir_all(&archive);
    let server = RpcServer::start("127.0.0.1:0", &archive, bench_server_config()).expect("daemon");
    let mut client =
        RpcClient::connect(server.local_addr(), ClientConfig::default()).expect("client");

    const WAVE: usize = 16;
    let scheme = EncodingScheme::new(51, 3);
    let mut rng = ChaCha12Rng::seed_from_u64(51);
    let size = BitmapSize::new(512).expect("pow2");
    let mut period = 0u32;
    // Fresh (location, period) pairs every wave, so the daemon takes the
    // full commit path instead of the idempotent-duplicate shortcut.
    let mut next_wave = move |rng: &mut ChaCha12Rng| -> Vec<TrafficRecord> {
        (0..WAVE)
            .map(|_| {
                let mut r = TrafficRecord::new(LocationId::new(9), PeriodId::new(period), size);
                period += 1;
                for _ in 0..4 {
                    let v = VehicleSecrets::generate(rng, 3);
                    r.encode(&scheme, &v);
                }
                r
            })
            .collect()
    };

    let mut group = c.benchmark_group("reactor");
    group.bench_function("pipelined_ingest", |b| {
        b.iter(|| {
            let wave = next_wave(&mut rng);
            let summary = client
                .upload_pipelined(&wave, WAVE)
                .expect("pipelined upload");
            assert_eq!(summary.accepted as usize, WAVE);
        });
    });
    group.finish();

    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_file(&archive);
    let _ = std::fs::remove_dir_all(&archive);
}

/// Accept latency at connection scale: each iteration is a fresh TCP
/// connect plus one ping round trip against a daemon already holding 512
/// idle connections the reactor must keep sweeping.
fn bench_accept_latency(c: &mut Criterion) {
    let archive =
        std::env::temp_dir().join(format!("ptm-bench-accept-{}.ptma", std::process::id()));
    let _ = std::fs::remove_file(&archive);
    let _ = std::fs::remove_dir_all(&archive);
    let server = RpcServer::start("127.0.0.1:0", &archive, bench_server_config()).expect("daemon");
    let addr = server.local_addr();
    let ping = ptm_rpc::proto::encode_request(&Request::Ping);

    // The standing population: 512 idle connections that have each proven
    // themselves live with one ping.
    let mut held = Vec::with_capacity(512);
    for _ in 0..512 {
        let mut stream = TcpStream::connect(addr).expect("held connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write_frame(&mut stream, &ping).expect("held ping");
        match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).expect("held pong") {
            ReadOutcome::Frame(_) => {}
            other => panic!("held connection got {other:?}"),
        }
        held.push(stream);
    }

    let mut group = c.benchmark_group("reactor");
    group.bench_function("accept_latency", |b| {
        b.iter(|| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            write_frame(&mut stream, &ping).expect("ping");
            match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).expect("pong") {
                ReadOutcome::Frame(bytes) => black_box(bytes.len()),
                other => panic!("expected a pong, got {other:?}"),
            }
        });
    });
    group.finish();

    drop(held);
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_file(&archive);
    let _ = std::fs::remove_dir_all(&archive);
}

/// Deadline-stamping overhead: encoding the same ~4 KiB upload request
/// with and without the `FLAG_DEADLINE` budget stamp. The stamp is one
/// flag bit plus four little-endian bytes; this pair pins that adding it
/// to every client attempt stays within noise of the unstamped encode.
fn bench_deadline_stamp(c: &mut Criterion) {
    let scheme = EncodingScheme::new(77, 3);
    let mut rng = ChaCha12Rng::seed_from_u64(77);
    let size = BitmapSize::new(4096).expect("pow2");
    let mut record = TrafficRecord::new(LocationId::new(5), PeriodId::new(0), size);
    for _ in 0..64 {
        let v = VehicleSecrets::generate(&mut rng, 3);
        record.encode(&scheme, &v);
    }
    let request = Request::Upload(record);

    let mut group = c.benchmark_group("deadline");
    group.bench_function("encode_unstamped", |b| {
        b.iter(|| black_box(ptm_rpc::proto::encode_request_with(&request, None, None)).len());
    });
    group.bench_function("encode_stamped", |b| {
        b.iter(|| {
            black_box(ptm_rpc::proto::encode_request_with(
                &request,
                None,
                Some(5000),
            ))
            .len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_frame_decode,
    bench_pipelined_ingest,
    bench_accept_latency,
    bench_deadline_stamp
);
criterion_main!(benches);
