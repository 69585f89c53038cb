//! Storage-engine benchmark: the open of a 100k-record segment store,
//! which reads every segment front to back once, checks each frame's
//! length and CRC, and decodes every record. Run with
//! `cargo bench -p ptm-bench --bench storage`.
//!
//! The store is built once, outside the timed loop: records carry 1 Kibit
//! bitmaps with no encodes, so the setup writes ~16 MB instead of
//! gigabytes.

use criterion::{criterion_group, criterion_main, Criterion};
use ptm_core::encoding::LocationId;
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_store::{SegmentStore, StoreOptions};
use std::path::PathBuf;

const LOCATIONS: u64 = 100;
const PERIODS: u32 = 1000;

fn tiny_records() -> Vec<TrafficRecord> {
    let size = BitmapSize::new(1024).expect("pow2");
    let mut records = Vec::with_capacity((LOCATIONS as usize) * (PERIODS as usize));
    for location in 1..=LOCATIONS {
        for period in 0..PERIODS {
            records.push(TrafficRecord::new(
                LocationId::new(location),
                PeriodId::new(period),
                size,
            ));
        }
    }
    records
}

fn build_v2(dir: &PathBuf, opts: &StoreOptions, records: &[TrafficRecord]) {
    let mut store = SegmentStore::open(dir, opts.clone())
        .expect("v2 create")
        .store;
    for chunk in records.chunks(1024) {
        store.append_all(chunk.iter()).expect("v2 append");
    }
    // Clean shutdown: seal the tail, as the daemon does.
    store.checkpoint().expect("checkpoint");
}

fn bench_storage(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("ptm-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("bench dir");
    let records = tiny_records();
    let opts = StoreOptions {
        rotate_bytes: 1 << 20,
        ..StoreOptions::default()
    };

    let v2_dir = base.join("archive-v2.ptma");
    build_v2(&v2_dir, &opts, &records);

    let mut group = c.benchmark_group("store");
    group.bench_function("v2_open_100k", |b| {
        b.iter(|| {
            SegmentStore::open(&v2_dir, opts.clone())
                .expect("v2 open")
                .records
                .len()
        })
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&base);
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
