//! Overhead of the ptm-obs instrumentation, disabled and enabled.
//!
//! The contract the hot paths rely on: with metrics **disabled** (the
//! default), every recording call is a relaxed atomic load plus a branch —
//! low single-digit nanoseconds. The `disabled/*` groups prove it; the
//! `enabled/*` groups show what turning metrics on costs; the `encode/*`
//! group measures the end-to-end price on the real vehicle-encoding path.
//!
//! Run order matters for global state, so each benchmark sets the enabled
//! flag explicitly rather than trusting a prior group to restore it.

use criterion::{criterion_group, criterion_main, Criterion};
use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;

fn bench_primitives_disabled(c: &mut Criterion) {
    ptm_obs::set_metrics_enabled(false);
    let mut group = c.benchmark_group("disabled");
    group.bench_function("counter_inc", |b| {
        let counter = ptm_obs::registry().counter("bench.disabled.counter");
        b.iter(|| counter.inc());
    });
    group.bench_function("counter_macro_inc", |b| {
        b.iter(|| ptm_obs::counter!("bench.disabled.macro_counter").inc());
    });
    group.bench_function("gauge_set", |b| {
        let gauge = ptm_obs::registry().gauge("bench.disabled.gauge");
        b.iter(|| gauge.set(black_box(42)));
    });
    group.bench_function("histogram_record", |b| {
        let hist = ptm_obs::registry().histogram("bench.disabled.hist");
        b.iter(|| hist.record(black_box(1234)));
    });
    group.bench_function("span", |b| {
        b.iter(|| {
            let _t = ptm_obs::span!("bench.disabled.span");
            black_box(0u64)
        });
    });
    group.bench_function("tspan", |b| {
        ptm_obs::set_tracing_enabled(false);
        b.iter(|| {
            let _t = ptm_obs::tspan!("bench.disabled.tspan");
            black_box(0u64)
        });
    });
    group.finish();
}

fn bench_primitives_enabled(c: &mut Criterion) {
    ptm_obs::set_metrics_enabled(true);
    let mut group = c.benchmark_group("enabled");
    group.bench_function("counter_inc", |b| {
        let counter = ptm_obs::registry().counter("bench.enabled.counter");
        b.iter(|| counter.inc());
    });
    group.bench_function("counter_macro_inc", |b| {
        b.iter(|| ptm_obs::counter!("bench.enabled.macro_counter").inc());
    });
    group.bench_function("gauge_set", |b| {
        let gauge = ptm_obs::registry().gauge("bench.enabled.gauge");
        b.iter(|| gauge.set(black_box(42)));
    });
    group.bench_function("histogram_record", |b| {
        let hist = ptm_obs::registry().histogram("bench.enabled.hist");
        b.iter(|| hist.record(black_box(1234)));
    });
    group.bench_function("span", |b| {
        b.iter(|| {
            let _t = ptm_obs::span!("bench.enabled.span");
            black_box(0u64)
        });
    });
    group.finish();
    ptm_obs::set_metrics_enabled(false);
}

/// The real workload the disabled-path guarantee protects: encoding a
/// vehicle into a traffic record, instrumented inside ptm-core.
fn bench_encode_path(c: &mut Criterion) {
    let scheme = EncodingScheme::new(0xBE7C, 3);
    let mut rng = ChaCha12Rng::seed_from_u64(9);
    let vehicles: Vec<VehicleSecrets> = (0..256)
        .map(|_| VehicleSecrets::generate(&mut rng, 3))
        .collect();
    let size = BitmapSize::new(1 << 14).expect("pow2");

    let mut group = c.benchmark_group("encode");
    for (label, enabled) in [("metrics_off", false), ("metrics_on", true)] {
        group.bench_function(label, |b| {
            ptm_obs::set_metrics_enabled(enabled);
            let mut record = TrafficRecord::new(LocationId::new(3), PeriodId::new(0), size);
            let mut i = 0usize;
            b.iter(|| {
                record.encode(&scheme, &vehicles[i % vehicles.len()]);
                i += 1;
            });
            ptm_obs::set_metrics_enabled(false);
        });
    }
    group.finish();
}

/// The traced-ingest contract: a loopback upload round trip with tracing
/// off must cost the same as the pre-tracing baseline (the `tspan!` sites
/// on the dispatch path degrade to relaxed loads), and turning tracing on
/// prices the full span tree — id minting, clock reads, JSONL encode.
fn bench_traced_ingest(c: &mut Criterion) {
    use ptm_core::params::SystemParams;
    use ptm_rpc::{ClientConfig, RpcClient, RpcServer, ServerConfig};

    let archive = std::env::temp_dir().join(format!("ptm-bench-trace-{}.ptma", std::process::id()));
    let _ = std::fs::remove_file(&archive);
    let server =
        RpcServer::start("127.0.0.1:0", &archive, ServerConfig::default()).expect("daemon");
    let mut client =
        RpcClient::connect(server.local_addr(), ClientConfig::default()).expect("loopback client");

    let params = SystemParams::paper_default();
    let scheme = EncodingScheme::new(51, params.num_representatives());
    let mut rng = ChaCha12Rng::seed_from_u64(51);
    let size = BitmapSize::new(512).expect("pow2");
    let mut period = 0u32;
    // Each iteration uploads a *fresh* (location, period) so the daemon
    // takes the full ingest path — dispatch, writer lock, archive commit —
    // instead of the idempotent-duplicate shortcut.
    let mut next_record = move |rng: &mut ChaCha12Rng| {
        let mut r = TrafficRecord::new(LocationId::new(9), PeriodId::new(period), size);
        period += 1;
        for _ in 0..16 {
            let v = VehicleSecrets::generate(rng, params.num_representatives());
            r.encode(&scheme, &v);
        }
        r
    };

    let mut group = c.benchmark_group("trace");
    for (label, traced) in [("ingest_untraced", false), ("ingest_traced", true)] {
        group.bench_function(label, |b| {
            if traced {
                // Include the serialization cost, not the disk: spans go
                // to a sink writer.
                ptm_obs::set_trace_writer(Some(Box::new(std::io::sink())));
            }
            ptm_obs::set_tracing_enabled(traced);
            b.iter(|| {
                let record = next_record(&mut rng);
                client
                    .upload_pipelined(std::slice::from_ref(&record), 1)
                    .expect("loopback upload")
            });
            ptm_obs::set_tracing_enabled(false);
            ptm_obs::set_trace_writer(None);
        });
    }
    group.finish();

    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_file(&archive);
}

criterion_group!(
    benches,
    bench_primitives_disabled,
    bench_primitives_enabled,
    bench_encode_path,
    bench_traced_ingest
);
criterion_main!(benches);
