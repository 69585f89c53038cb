//! Durable measurement campaigns: archive a month of records, crash,
//! recover, keep measuring.
//!
//! The central server accumulates one small bitmap per RSU per period for
//! years — records must outlive the collection process. This example runs a
//! 28-day campaign at one RSU, persisting each day to a segment store
//! (a directory of append-only segment files with CRC-framed records),
//! then simulates a crash (torn final frame in the active segment),
//! recovers, finishes the campaign, and answers calendar queries from the
//! reloaded data.
//!
//! ```sh
//! cargo run --release -p ptm-examples --bin durable_archive
//! ```

use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::params::SystemParams;
use ptm_core::point::PointEstimator;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_store::{SegmentStore, StoreOptions};
use ptm_traffic::generate::fill_transients;
use ptm_traffic::periods::{Calendar, Weekday};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn main() {
    let params = SystemParams::paper_default();
    let scheme = EncodingScheme::new(0xD0C5, params.num_representatives());
    let mut rng = ChaCha12Rng::seed_from_u64(28);
    let location = LocationId::new(4);
    let calendar = Calendar::new(Weekday::Monday, 28);
    let commuters: Vec<VehicleSecrets> = (0..900)
        .map(|_| VehicleSecrets::generate(&mut rng, params.num_representatives()))
        .collect();
    let size = params.bitmap_size(5_000.0);

    let mut path = std::env::temp_dir();
    path.push(format!("ptm-campaign-{}.ptma", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);

    let make_record = |period: PeriodId, rng: &mut ChaCha12Rng| -> TrafficRecord {
        let mut record = TrafficRecord::new(location, period, size);
        if calendar.weekday_of(period).is_workday() {
            for v in &commuters {
                record.encode(&scheme, v);
            }
        }
        fill_transients(&mut record, 4_000, rng);
        record
    };

    // Days 0..14 recorded, then the collector "crashes" mid-append.
    {
        let mut store = SegmentStore::open(&path, StoreOptions::default())
            .expect("create archive")
            .store;
        for day in 0..14u32 {
            store
                .append(&make_record(PeriodId::new(day), &mut rng))
                .expect("append");
        }
        store.sync().expect("sync");
    }
    // Simulate the crash: chop bytes off the active segment's tail. Two
    // weeks of records stay far below the 8 MiB rotation threshold, so the
    // first segment file is still the active one.
    let segment = path.join("seg-00000000.ptms");
    let len = std::fs::metadata(&segment).expect("meta").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .expect("open");
    file.set_len(len - 37).expect("truncate");
    drop(file);
    println!(
        "simulated crash: truncated the active segment mid-frame ({len} -> {} bytes)",
        len - 37
    );

    // Recovery: the torn day 13 frame is dropped; re-record it and go on.
    let recovered = SegmentStore::open(&path, StoreOptions::default()).expect("recover");
    let mut store = recovered.store;
    println!(
        "recovered {} intact records, discarded {} torn bytes",
        store.record_count(),
        recovered.torn_bytes
    );
    // Deterministic regeneration of the lost day, then the rest of the month.
    let mut rng2 = ChaCha12Rng::seed_from_u64(1000);
    for day in store.record_count() as u32..28 {
        store
            .append(&make_record(PeriodId::new(day), &mut rng2))
            .expect("append");
    }
    // Clean shutdown: commit and fsync the active segment and record its
    // frame count in the manifest; the next open checks every one of them.
    store.checkpoint().expect("checkpoint");
    drop(store);

    // Reload everything from disk and query.
    let records = SegmentStore::open(&path, StoreOptions::default())
        .expect("reload")
        .store
        .records_for_location(location)
        .expect("read");
    assert_eq!(records.len(), 28);
    println!("\nqueries answered from the on-disk archive alone:");
    let estimator = PointEstimator::new();
    let week2_workdays: Vec<TrafficRecord> = calendar
        .workdays_of_week(1)
        .into_iter()
        .map(|p| (*records[p.get() as usize]).clone())
        .collect();
    let est = estimator.estimate(&week2_workdays).expect("estimate");
    println!("  persistent over week-2 workdays: {est:.0}  (truth 900)");

    let with_err = estimator
        .estimate_with_error(&week2_workdays)
        .expect("estimate");
    let (lo, hi) = with_err.interval(2.0);
    println!("  with conservative 2-sigma bars:  [{lo:.0}, {hi:.0}]");

    let storage: u64 = std::fs::read_dir(&path)
        .expect("list archive")
        .map(|entry| entry.expect("entry").metadata().expect("meta").len())
        .sum();
    println!(
        "\nwhole 28-day campaign: {storage} bytes on disk ({} bytes/day, identities stored: none)",
        storage / 28
    );
    std::fs::remove_dir_all(&path).ok();
}
