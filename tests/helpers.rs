//! Shared helpers for the cross-crate integration tests.

#![forbid(unsafe_code)]

use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::params::BitmapSize;
use ptm_core::record::{PeriodId, TrafficRecord};
use rand::Rng;
use std::path::{Path, PathBuf};

/// Builds a record by directly encoding every vehicle (the fast path the
/// experiment harness uses), for comparison against protocol-produced
/// records.
pub fn direct_record(
    scheme: &EncodingScheme,
    location: LocationId,
    period: PeriodId,
    size: BitmapSize,
    vehicles: &[VehicleSecrets],
) -> TrafficRecord {
    let mut record = TrafficRecord::new(location, period, size);
    for v in vehicles {
        record.encode(scheme, v);
    }
    record
}

/// Generates `n` vehicles.
pub fn fleet<R: Rng + ?Sized>(rng: &mut R, n: usize, s: u32) -> Vec<VehicleSecrets> {
    (0..n).map(|_| VehicleSecrets::generate(rng, s)).collect()
}

/// A fresh archive path in the temp directory,
/// `ptm-<suite>-<pid>-<name>.ptma`, with anything an earlier run of the
/// same pid left there removed. The daemon makes a segment-store
/// directory there; [`cleanup_archive`] removes it.
pub fn temp_archive(suite: &str, name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ptm-{suite}-{}-{name}.ptma", std::process::id()));
    cleanup_archive(&path);
    path
}

/// Removes an archive directory made at a [`temp_archive`] path.
pub fn cleanup_archive(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}
