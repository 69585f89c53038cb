//! Micro-benchmarks of the kernels everything else is built on: bitmap
//! operations, vehicle encoding, joins, the crypto substrate, and the
//! event-driven V2I protocol.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ptm_core::bitmap::Bitmap;
use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::join::and_join;
use ptm_core::params::BitmapSize;
use ptm_core::record::PeriodId;
use ptm_crypto::hmac::hmac_sha256;
use ptm_crypto::{KeyPair, Sha256, SipHash24};
use ptm_net::{SimConfig, SimDuration, V2iSimulator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn bench_bitmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap");
    let m = 1 << 20;
    group.throughput(Throughput::Elements(m as u64));

    let mut rng = ChaCha12Rng::seed_from_u64(1);
    let mut a = Bitmap::new(m);
    let mut b = Bitmap::new(m);
    for _ in 0..m / 2 {
        a.set(rng.gen_range(0..m));
        b.set(rng.gen_range(0..m));
    }

    group.bench_function("count_ones_1M", |bch| bch.iter(|| a.count_ones()));
    group.bench_function("and_assign_1M", |bch| {
        bch.iter_batched(
            || a.clone(),
            |mut x| x.and_assign(&b).expect("same size"),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("expand_64k_to_1M", |bch| {
        let small = {
            let mut s = Bitmap::new(1 << 16);
            for _ in 0..(1 << 15) {
                s.set(rng.gen_range(0..1 << 16));
            }
            s
        };
        bch.iter(|| small.expand_to(m).expect("power of two"))
    });
    group.bench_function("and_join_10_mixed_sizes", |bch| {
        let maps: Vec<Bitmap> = (0..10)
            .map(|i| {
                let len = 1 << (16 + (i % 3));
                let mut bmp = Bitmap::new(len);
                for _ in 0..len / 2 {
                    bmp.set(rng.gen_range(0..len));
                }
                bmp
            })
            .collect();
        bch.iter(|| and_join(maps.iter()).expect("powers of two"))
    });
    group.finish();
}

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoding");
    let scheme = EncodingScheme::new(9, 3);
    let mut rng = ChaCha12Rng::seed_from_u64(2);
    let vehicles: Vec<VehicleSecrets> = (0..10_000)
        .map(|_| VehicleSecrets::generate(&mut rng, 3))
        .collect();
    let location = LocationId::new(5);

    group.throughput(Throughput::Elements(vehicles.len() as u64));
    group.bench_function("encode_10k_vehicles", |b| {
        b.iter(|| {
            vehicles
                .iter()
                .map(|v| scheme.encode_index(v, location, 1 << 16))
                .fold(0usize, |acc, i| acc ^ i)
        })
    });
    group.bench_function("generate_10k_vehicles", |b| {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        b.iter(|| {
            (0..10_000)
                .map(|_| VehicleSecrets::generate(&mut rng, 3))
                .count()
        })
    });
    group.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data = vec![0xABu8; 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_1k", |b| b.iter(|| Sha256::digest(&data)));
    group.bench_function("hmac_sha256_1k", |b| b.iter(|| hmac_sha256(b"key", &data)));
    let sip = SipHash24::new(1, 2);
    group.bench_function("siphash_1k", |b| b.iter(|| sip.hash(&data)));
    group.bench_function("siphash_8b", |b| b.iter(|| sip.hash_u64(0xDEADBEEF)));
    group.finish();

    let mut group = c.benchmark_group("signatures");
    let pair = KeyPair::from_seed(1);
    let sig = pair.sign(b"beacon payload");
    group.bench_function("schnorr_sign", |b| b.iter(|| pair.sign(b"beacon payload")));
    group.bench_function("schnorr_verify", |b| {
        b.iter(|| {
            pair.public()
                .verify(b"beacon payload", &sig)
                .expect("valid")
        })
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    use ptm_store::crc32::crc32;
    let mut group = c.benchmark_group("storage");
    let payload = vec![0xA5u8; 128 * 1024];
    // One upload record's wire payload (2,296 bytes): what each of a
    // record's CRC passes covers on the ingest path.
    let record_payload = &payload[..2296];
    group.throughput(Throughput::Bytes(record_payload.len() as u64));
    group.bench_function("crc32_record", |b| {
        b.iter(|| crc32(std::hint::black_box(record_payload)))
    });
    // The daemon's replacement for the segment append's pass: the record's
    // CRC from the verified frame CRC and the 3-byte untraced request
    // header in front of the record.
    let wire_crc = crc32(record_payload);
    group.bench_function("crc32_derive", |b| {
        b.iter(|| {
            let (header, record) = std::hint::black_box(record_payload).split_at(3);
            ptm_store::crc32::crc32_combine(
                crc32(header),
                std::hint::black_box(wire_crc),
                record.len(),
            )
        })
    });
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("crc32_128k", |b| b.iter(|| crc32(&payload)));

    let scheme = EncodingScheme::new(3, 3);
    let mut rng = ChaCha12Rng::seed_from_u64(12);
    let mut record = ptm_core::record::TrafficRecord::new(
        LocationId::new(1),
        PeriodId::new(0),
        BitmapSize::new(1 << 20).expect("pow2"),
    );
    for _ in 0..(1 << 19) {
        let v = VehicleSecrets::generate(&mut rng, 3);
        record.encode(&scheme, &v);
    }
    group.bench_function("encode_record_1M_bits", |b| {
        b.iter(|| ptm_store::codec::encode_record(&record))
    });
    let bytes = ptm_store::codec::encode_record(&record);
    group.bench_function("decode_record_1M_bits", |b| {
        b.iter(|| ptm_store::codec::decode_record(&bytes).expect("valid"))
    });

    // The archive append path with its permanent (disabled) fault hooks:
    // four small records buffered and committed with one flush into a
    // fresh segment store.
    let small_records: Vec<ptm_core::record::TrafficRecord> = (0..4)
        .map(|p| {
            let mut r = ptm_core::record::TrafficRecord::new(
                LocationId::new(2),
                PeriodId::new(p),
                BitmapSize::new(4096).expect("pow2"),
            );
            for _ in 0..500 {
                let v = VehicleSecrets::generate(&mut rng, 3);
                r.encode(&scheme, &v);
            }
            r
        })
        .collect();
    let bench_path = std::env::temp_dir().join(format!("ptm-bench-{}.ptma", std::process::id()));
    group.bench_function("archive_append_commit_4_records", |b| {
        b.iter_batched(
            || {
                let _ = std::fs::remove_dir_all(&bench_path);
                ptm_store::SegmentStore::open(&bench_path, ptm_store::StoreOptions::default())
                    .expect("create")
                    .store
            },
            |mut store| {
                store.append_all(small_records.iter()).expect("append");
                store
            },
            BatchSize::PerIteration,
        )
    });
    let _ = std::fs::remove_dir_all(&bench_path);
    group.finish();

    let mut group = c.benchmark_group("wire");
    let report = {
        use ptm_net::mac::TempMac;
        use ptm_net::message::{Message, Report};
        Message::Report(Report {
            mac: TempMac::random(&mut rng),
            dh_public: 77,
            nonce: 5,
            ciphertext: vec![0u8; 8],
            tag: [1u8; 32],
        })
    };
    group.bench_function("encode_report_frame", |b| {
        b.iter(|| ptm_net::wire::encode(&report))
    });
    let frame = ptm_net::wire::encode(&report);
    group.bench_function("decode_report_frame", |b| {
        b.iter(|| ptm_net::wire::decode(&frame).expect("valid"))
    });
    group.finish();
}

fn bench_rpc(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpc");
    let scheme = EncodingScheme::new(21, 3);
    let mut rng = ChaCha12Rng::seed_from_u64(17);
    let mut record = ptm_core::record::TrafficRecord::new(
        LocationId::new(15),
        PeriodId::new(0),
        BitmapSize::new(4096).expect("pow2"),
    );
    for _ in 0..1500 {
        let v = VehicleSecrets::generate(&mut rng, 3);
        record.encode(&scheme, &v);
    }

    // Transport frame round trip over an in-memory stream.
    let request = ptm_rpc::Request::Upload(record.clone());
    let payload = ptm_rpc::proto::encode_request(&request);
    group.throughput(Throughput::Bytes(
        (payload.len() + ptm_rpc::FRAME_HEADER_LEN) as u64,
    ));
    group.bench_function("frame_write_4k_record", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(payload.len() + ptm_rpc::FRAME_HEADER_LEN);
            ptm_rpc::frame::write_frame(&mut out, &payload).expect("vec write");
            out
        })
    });
    let mut framed = Vec::new();
    ptm_rpc::frame::write_frame(&mut framed, &payload).expect("vec write");
    group.bench_function("frame_read_4k_record", |b| {
        b.iter(|| {
            let mut cursor = std::io::Cursor::new(framed.as_slice());
            ptm_rpc::frame::read_frame(&mut cursor, ptm_rpc::DEFAULT_MAX_FRAME_LEN)
                .expect("valid frame")
        })
    });
    // The same read through the permanent fault hooks with no plan armed:
    // this is the production configuration, and it must cost nothing over
    // the bare stream.
    group.bench_function("frame_read_4k_record_fault_hooks_disabled", |b| {
        b.iter(|| {
            let mut stream =
                ptm_fault::FaultyStream::passthrough(std::io::Cursor::new(framed.as_slice()));
            ptm_rpc::frame::read_frame(&mut stream, ptm_rpc::DEFAULT_MAX_FRAME_LEN)
                .expect("valid frame")
        })
    });

    // Full frame round trip: write into a buffer, read it back.
    group.bench_function("frame_roundtrip_4k_record", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(payload.len() + ptm_rpc::FRAME_HEADER_LEN);
            ptm_rpc::frame::write_frame(&mut out, &payload).expect("vec write");
            let mut cursor = std::io::Cursor::new(out.as_slice());
            ptm_rpc::frame::read_frame(&mut cursor, ptm_rpc::DEFAULT_MAX_FRAME_LEN)
                .expect("valid frame")
        })
    });

    // Protocol codec round trip: a 64-frame wave of single-record `Upload`
    // payloads, what a pipelined upload sends.
    let wave: Vec<ptm_rpc::Request> = (0..64)
        .map(|p| {
            let mut r = ptm_core::record::TrafficRecord::new(
                record.location(),
                PeriodId::new(p),
                BitmapSize::new(4096).expect("pow2"),
            );
            for idx in record.bitmap().iter_ones() {
                r.set_reported_index(idx);
            }
            ptm_rpc::Request::Upload(r)
        })
        .collect();
    group.bench_function("proto_encode_upload_wave_64", |b| {
        b.iter(|| {
            wave.iter()
                .map(ptm_rpc::proto::encode_request)
                .collect::<Vec<_>>()
        })
    });
    let payloads: Vec<Vec<u8>> = wave.iter().map(ptm_rpc::proto::encode_request).collect();
    group.bench_function("proto_decode_upload_wave_64", |b| {
        b.iter(|| {
            payloads
                .iter()
                .map(|payload| ptm_rpc::proto::decode_request(payload).expect("valid"))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

fn bench_shard_store(c: &mut Criterion) {
    use ptm_net::CentralServer;

    let scheme = EncodingScheme::new(33, 3);
    let mut rng = ChaCha12Rng::seed_from_u64(29);
    let size = BitmapSize::new(4096).expect("pow2");
    const LOCATIONS: u64 = 8;
    const PERIODS: u32 = 4;
    let records: Vec<ptm_core::record::TrafficRecord> = (1..=LOCATIONS)
        .flat_map(|loc| {
            let fleet: Vec<VehicleSecrets> = (0..300)
                .map(|_| VehicleSecrets::generate(&mut rng, 3))
                .collect();
            (0..PERIODS)
                .map(|p| {
                    let mut r = ptm_core::record::TrafficRecord::new(
                        LocationId::new(loc),
                        PeriodId::new(p),
                        size,
                    );
                    for v in &fleet {
                        r.encode(&scheme, v);
                    }
                    r
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut group = c.benchmark_group("shard_store");
    group.bench_function("submit_32_records_8_locations", |b| {
        b.iter_batched(
            || records.clone(),
            |batch| {
                let server = CentralServer::new(3);
                for record in batch {
                    server.submit(record).expect("fresh");
                }
                server
            },
            BatchSize::LargeInput,
        )
    });

    let server = CentralServer::new(3);
    for record in &records {
        server.submit(record.clone()).expect("fresh");
    }
    let periods: Vec<PeriodId> = (0..PERIODS).map(PeriodId::new).collect();
    // Shared read locks: queries against distinct shards never contend.
    group.bench_function("point_estimate_sharded_read", |b| {
        let mut loc = 0u64;
        b.iter(|| {
            loc = loc % LOCATIONS + 1;
            server
                .estimate_point_persistent(LocationId::new(loc), &periods)
                .expect("stored")
        })
    });
    group.finish();
}

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("v2i_protocol");
    group.sample_size(10);
    // Full event-driven period: 200 vehicles through one RSU, lossless.
    group.bench_function("period_200_vehicles", |b| {
        let mut period = 0u32;
        let scheme = EncodingScheme::new(11, 3);
        let size = BitmapSize::new(2048).expect("pow2");
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            scheme,
            &[(LocationId::new(1), size)],
            4,
        );
        let vehicles: Vec<usize> = (0..200).map(|_| sim.add_vehicle()).collect();
        b.iter(|| {
            for (k, &v) in vehicles.iter().enumerate() {
                sim.schedule_pass(v, 0, SimDuration::from_millis(100 * k as u64));
            }
            sim.run_period(PeriodId::new(period)).expect("fresh period");
            period += 1;
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bitmap,
    bench_encoding,
    bench_crypto,
    bench_storage,
    bench_rpc,
    bench_shard_store,
    bench_protocol
);
criterion_main!(benches);
