//! The central server: collects traffic records from RSUs and answers
//! persistent-traffic queries (paper Sec. II-A: "all RSUs are connected …
//! to a central server, where data are collected and processed").
//!
//! # Sharded store
//!
//! The record store is sharded **by location**: a read-mostly directory
//! maps each [`LocationId`] to its own shard, and each shard holds that
//! location's per-period records behind its own [`RwLock`]. The paper's
//! query side is embarrassingly parallel — point (Sec. III) and
//! point-to-point (Sec. IV) estimates are read-only AND/OR joins over
//! per-location records — so queries take *shared* read locks and proceed
//! concurrently with each other and with uploads to other locations. A
//! shard stores each record as an `Arc<TrafficRecord>`: a query gathers
//! shared handles under the read lock (a reference-count bump per record,
//! no bitmap copy) and runs the estimator after releasing it, and a volume
//! query counts its one record under the read lock. A query never holds
//! two shard locks at once (point-to-point gathers one location's handles,
//! releases that lock, then gathers the other), so the locking scheme
//! cannot deadlock.
//!
//! A record is immutable once accepted: an identical re-upload is an
//! idempotent no-op and a different one for the same `(location, period)`
//! is refused, so an answer over a set of records never changes once
//! every one of them is present.
//!
//! All locks recover from poisoning (`PoisonError::into_inner`): a
//! panicking reader or writer must not turn one bad request into a
//! permanent outage for every later request. Shard state is a plain map,
//! mutated with single `insert`s, so a recovered guard is never
//! mid-invariant.
//!
//! Shard instrumentation (through `ptm-obs`, disabled by default):
//! `rpc.shard.locations` (gauge, shard count),
//! `rpc.shard.lock_wait.read` / `rpc.shard.lock_wait.write` (histograms,
//! ns spent waiting to acquire a shard lock), and
//! `net.server.resident_bytes` (gauge, bitmap bytes of every stored record
//! — in the daemon, the only in-memory copy of an archived record).

use ptm_core::encoding::LocationId;
use ptm_core::error::EstimateError;
use ptm_core::p2p::PointToPointEstimator;
use ptm_core::point::{NaiveAndEstimator, PointEstimator};
use ptm_core::record::{PeriodId, TrafficRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Errors from server-side query processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// A *different* record for this `(location, period)` was already
    /// uploaded (identical re-sends are accepted idempotently).
    DuplicateRecord {
        /// Location of the duplicate upload.
        location: LocationId,
        /// Period of the duplicate upload.
        period: PeriodId,
    },
    /// The query needs a record the server never received.
    MissingRecord {
        /// Location with the gap.
        location: LocationId,
        /// Period with the gap.
        period: PeriodId,
    },
    /// The underlying estimator failed.
    Estimate(EstimateError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateRecord { location, period } => write!(
                f,
                "duplicate record for location {} period {}",
                location.get(),
                period.get()
            ),
            Self::MissingRecord { location, period } => write!(
                f,
                "missing record for location {} period {}",
                location.get(),
                period.get()
            ),
            Self::Estimate(err) => write!(f, "estimation failed: {err}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Estimate(err) => Some(err),
            _ => None,
        }
    }
}

impl From<EstimateError> for ServerError {
    fn from(err: EstimateError) -> Self {
        Self::Estimate(err)
    }
}

/// One location's records, keyed by period.
#[derive(Debug, Default)]
struct ShardInner {
    records: HashMap<PeriodId, Arc<TrafficRecord>>,
}

#[derive(Debug, Default)]
struct LocationShard {
    inner: RwLock<ShardInner>,
}

/// Acquires a shard read lock, recovering from poisoning and recording the
/// wait when metrics are enabled.
fn shard_read(lock: &RwLock<ShardInner>) -> RwLockReadGuard<'_, ShardInner> {
    let start = ptm_obs::metrics_enabled().then(Instant::now);
    // ptm-analyze: allow(reactor-blocking): short-held shard lock — every holder does in-memory map work only, so the inline stats path cannot stall behind I/O
    let guard = lock.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(start) = start {
        ptm_obs::histogram!("rpc.shard.lock_wait.read").record(start.elapsed().as_nanos() as u64);
    }
    guard
}

/// Acquires a shard write lock, recovering from poisoning and recording
/// the wait when metrics are enabled.
fn shard_write(lock: &RwLock<ShardInner>) -> RwLockWriteGuard<'_, ShardInner> {
    let start = ptm_obs::metrics_enabled().then(Instant::now);
    // ptm-analyze: allow(reactor-blocking): ingest runs on pool workers; the reactor edge is name aliasing of `pool.submit` with `CentralServer::submit` (see docs/ANALYSIS.md on resolution-lite)
    let guard = lock.write().unwrap_or_else(PoisonError::into_inner);
    if let Some(start) = start {
        ptm_obs::histogram!("rpc.shard.lock_wait.write").record(start.elapsed().as_nanos() as u64);
    }
    guard
}

/// The record store plus query engine.
///
/// Internally sharded by location (see the module docs), so every method
/// takes `&self`: uploads and queries from many threads proceed
/// concurrently, and a query blocks only on a simultaneous upload to a
/// location it is reading.
#[derive(Debug, Default)]
pub struct CentralServer {
    /// Location directory. Read-mostly: taken for writing only when a
    /// location uploads its first record.
    shards: RwLock<HashMap<LocationId, Arc<LocationShard>>>,
    /// Total stored records, maintained alongside the shards so
    /// [`CentralServer::record_count`] never walks the directory.
    total_records: AtomicUsize,
    /// Bitmap bytes of the stored records; grows with accepted submits
    /// only (see [`CentralServer::resident_bytes`]).
    resident_bytes: AtomicU64,
    /// Representative-bit count `s`, needed by the point-to-point estimator.
    s: u32,
}

impl CentralServer {
    /// Creates a server for a system configured with `s` representative
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    pub fn new(s: u32) -> Self {
        assert!(s >= 1, "s must be at least 1");
        Self {
            shards: RwLock::new(HashMap::new()),
            total_records: AtomicUsize::new(0),
            resident_bytes: AtomicU64::new(0),
            s,
        }
    }

    /// The shard for `location`, if it has ever stored a record.
    fn shard(&self, location: LocationId) -> Option<Arc<LocationShard>> {
        self.shards
            // ptm-analyze: allow(reactor-blocking): directory reads are Arc clones under a short-held lock; the reactor edge is `pool.submit` aliasing `CentralServer::submit`
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&location)
            .map(Arc::clone)
    }

    /// The shard for `location`, created on first use.
    fn shard_or_create(&self, location: LocationId) -> Arc<LocationShard> {
        if let Some(shard) = self.shard(location) {
            return shard;
        }
        // ptm-analyze: allow(reactor-blocking): shard creation happens on worker ingest; the reactor edge is `pool.submit` aliasing `CentralServer::submit`
        let mut directory = self.shards.write().unwrap_or_else(PoisonError::into_inner);
        let shard = Arc::clone(directory.entry(location).or_default());
        ptm_obs::gauge!("rpc.shard.locations").set(directory.len() as i64);
        shard
    }

    /// Accepts an uploaded record.
    ///
    /// Submission is **idempotent**: re-submitting a record identical to
    /// the one already stored for its `(location, period)` succeeds without
    /// changing anything (an RSU retrying an upload whose ack was lost must
    /// not be punished). Only a *conflicting* duplicate — same slot,
    /// different contents — is an error, because silently keeping either
    /// copy would corrupt the measurement.
    ///
    /// An owned record is moved into a new `Arc`; an `Arc` (the daemon's
    /// archive load hands over the store's) is kept as it is, without a
    /// copy.
    ///
    /// # Errors
    ///
    /// [`ServerError::DuplicateRecord`] when the `(location, period)` slot
    /// already holds a record with different contents.
    pub fn submit(&self, record: impl Into<Arc<TrafficRecord>>) -> Result<(), ServerError> {
        let record = record.into();
        let location = record.location();
        let period = record.period();
        let shard = self.shard_or_create(location);
        let mut inner = shard_write(&shard.inner);
        if let Some(existing) = inner.records.get(&period) {
            if **existing == *record {
                ptm_obs::counter!("net.server.submit.duplicate_idempotent").inc();
                return Ok(());
            }
            ptm_obs::counter!("net.server.submit.duplicate").inc();
            return Err(ServerError::DuplicateRecord { location, period });
        }
        if ptm_obs::metrics_enabled() {
            ptm_obs::counter!("net.server.submit.accepted").inc();
            ptm_obs::counter!("net.server.bits_stored").add(record.bitmap().count_ones() as u64);
            // Per-location record gauges use dynamic names, so they go
            // through the registry rather than a cached macro handle.
            ptm_obs::registry()
                .gauge(format!("net.server.records.loc{}", location.get()))
                .inc();
        }
        let bytes = record.bitmap().len().div_ceil(8) as u64;
        inner.records.insert(period, record);
        let total = self.total_records.fetch_add(1, Ordering::Relaxed) + 1;
        ptm_obs::gauge!("net.server.records").set(total as i64);
        let resident = self.resident_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        ptm_obs::gauge!("net.server.resident_bytes").set(resident as i64);
        Ok(())
    }

    /// Bitmap bytes (`len.div_ceil(8)` per record) of every stored record:
    /// the memory the shards hold resident. Idempotent re-sends and
    /// rejected conflicts leave it unchanged. Published as the
    /// `net.server.resident_bytes` gauge.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// Number of stored records.
    pub fn record_count(&self) -> usize {
        self.total_records.load(Ordering::Relaxed)
    }

    /// Number of locations that have stored at least one record (i.e. the
    /// number of live shards).
    pub fn location_count(&self) -> usize {
        self.shards
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Every location that has stored at least one record, sorted by id.
    ///
    /// Sorted output makes the listing stable across calls regardless of
    /// hash-map iteration order, so operational tooling (the daemon's
    /// degraded-mode recovery sweep, status printouts) sees a
    /// deterministic view.
    pub fn locations(&self) -> Vec<LocationId> {
        let mut out: Vec<LocationId> = self
            .shards
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .copied()
            .collect();
        out.sort_unstable_by_key(|loc| loc.get());
        out
    }

    /// Per-shard introspection rows `(location, stored records)`, sorted
    /// by location id — what the daemon's stats RPC and `ptm top` report as
    /// shard depths. Shard locks are taken one at a time, so the listing is
    /// per-shard consistent but not a global snapshot.
    pub fn shard_stats(&self) -> Vec<(LocationId, usize)> {
        let shards: Vec<(LocationId, Arc<LocationShard>)> = self
            .shards
            // ptm-analyze: allow(reactor-blocking): Stats answers inline by design; this directory read lock only clones Arcs and writers hold it only for in-memory inserts
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(loc, shard)| (*loc, Arc::clone(shard)))
            .collect();
        let mut out: Vec<(LocationId, usize)> = shards
            .into_iter()
            .map(|(loc, shard)| (loc, shard_read(&shard.inner).records.len()))
            .collect();
        out.sort_unstable_by_key(|(loc, _)| loc.get());
        out
    }

    /// Fetches one record: a shared handle to the stored copy, not a
    /// clone of its bitmap.
    pub fn record(&self, location: LocationId, period: PeriodId) -> Option<Arc<TrafficRecord>> {
        let shard = self.shard(location)?;
        let inner = shard_read(&shard.inner);
        inner.records.get(&period).map(Arc::clone)
    }

    /// Shared handles to this location's records for `periods`, taken
    /// under one read lock so the set is a consistent snapshot of the
    /// location.
    fn gather(
        &self,
        location: LocationId,
        periods: &[PeriodId],
    ) -> Result<Vec<Arc<TrafficRecord>>, ServerError> {
        if periods.is_empty() {
            return Ok(Vec::new());
        }
        let missing = |period: PeriodId| ServerError::MissingRecord { location, period };
        let shard = self.shard(location).ok_or_else(|| missing(periods[0]))?;
        let inner = shard_read(&shard.inner);
        periods
            .iter()
            .map(|&period| {
                inner
                    .records
                    .get(&period)
                    .map(Arc::clone)
                    .ok_or_else(|| missing(period))
            })
            .collect()
    }

    /// Plain traffic volume at one location in one period (paper Eq. 1),
    /// counted under the shard's read lock.
    ///
    /// # Errors
    ///
    /// Missing record or saturated bitmap.
    pub fn estimate_volume(
        &self,
        location: LocationId,
        period: PeriodId,
    ) -> Result<f64, ServerError> {
        let _t = ptm_obs::span!("net.server.estimate.volume");
        ptm_obs::counter!("net.server.query.volume").inc();
        let missing = || ServerError::MissingRecord { location, period };
        let shard = self.shard(location).ok_or_else(missing)?;
        let inner = shard_read(&shard.inner);
        let record = inner.records.get(&period).ok_or_else(missing)?;
        Ok(ptm_core::lpc::estimate_cardinality(record.bitmap())?)
    }

    /// Point persistent traffic over the listed periods (paper Eq. 12).
    ///
    /// # Errors
    ///
    /// Missing records or estimator failure.
    pub fn estimate_point_persistent(
        &self,
        location: LocationId,
        periods: &[PeriodId],
    ) -> Result<f64, ServerError> {
        let _t = ptm_obs::span!("net.server.estimate.point");
        ptm_obs::counter!("net.server.query.point").inc();
        let records = self.gather(location, periods)?;
        Ok(PointEstimator::new().estimate(&records)?)
    }

    /// The naive AND benchmark for point persistent traffic.
    ///
    /// # Errors
    ///
    /// Missing records or estimator failure.
    pub fn estimate_point_persistent_naive(
        &self,
        location: LocationId,
        periods: &[PeriodId],
    ) -> Result<f64, ServerError> {
        let _t = ptm_obs::span!("net.server.estimate.naive");
        ptm_obs::counter!("net.server.query.naive").inc();
        let records = self.gather(location, periods)?;
        Ok(NaiveAndEstimator::new().estimate(&records)?)
    }

    /// Point-to-point persistent traffic between two locations (Eq. 21).
    ///
    /// The two locations are gathered one after the other (never holding
    /// both shard locks), so concurrent point-to-point queries over
    /// overlapping location pairs cannot deadlock.
    ///
    /// # Errors
    ///
    /// Missing records or estimator failure.
    pub fn estimate_p2p_persistent(
        &self,
        location_a: LocationId,
        location_b: LocationId,
        periods: &[PeriodId],
    ) -> Result<f64, ServerError> {
        let _t = ptm_obs::span!("net.server.estimate.p2p");
        ptm_obs::counter!("net.server.query.p2p").inc();
        let records_a = self.gather(location_a, periods)?;
        let records_b = self.gather(location_b, periods)?;
        Ok(PointToPointEstimator::new(self.s).estimate(&records_a, &records_b)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_core::encoding::{EncodingScheme, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::panic::AssertUnwindSafe;

    fn record_with(
        location: LocationId,
        period: PeriodId,
        m: usize,
        vehicles: &[VehicleSecrets],
        scheme: &EncodingScheme,
    ) -> TrafficRecord {
        let mut r = TrafficRecord::new(location, period, BitmapSize::new(m).expect("pow2"));
        for v in vehicles {
            r.encode(scheme, v);
        }
        r
    }

    #[test]
    fn submit_and_query_roundtrip() {
        let server = CentralServer::new(3);
        let scheme = EncodingScheme::new(7, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let fleet: Vec<VehicleSecrets> = (0..500)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        let loc = LocationId::new(1);
        for p in 0..4u32 {
            let rec = record_with(loc, PeriodId::new(p), 4096, &fleet, &scheme);
            server.submit(rec).expect("first upload");
        }
        assert_eq!(server.record_count(), 4);
        assert_eq!(server.location_count(), 1);
        let periods: Vec<PeriodId> = (0..4).map(PeriodId::new).collect();
        let est = server
            .estimate_point_persistent(loc, &periods)
            .expect("estimate");
        assert!((est - 500.0).abs() / 500.0 < 0.1, "estimate {est}");
        let vol = server
            .estimate_volume(loc, PeriodId::new(0))
            .expect("volume");
        assert!((vol - 500.0).abs() / 500.0 < 0.1, "volume {vol}");
    }

    #[test]
    fn locations_listing_is_sorted_and_complete() {
        let server = CentralServer::new(3);
        assert!(server.locations().is_empty());
        for id in [9u64, 2, 40, 7] {
            let rec = TrafficRecord::new(
                LocationId::new(id),
                PeriodId::new(0),
                BitmapSize::new(64).expect("pow2"),
            );
            server.submit(rec).expect("upload");
        }
        let listed: Vec<u64> = server.locations().iter().map(|l| l.get()).collect();
        assert_eq!(listed, vec![2, 7, 9, 40]);
    }

    #[test]
    fn identical_resend_is_idempotent() {
        let server = CentralServer::new(3);
        let loc = LocationId::new(2);
        let mut rec = TrafficRecord::new(loc, PeriodId::new(0), BitmapSize::new(64).expect("pow2"));
        rec.set_reported_index(5);
        server.submit(rec.clone()).expect("first");
        // An RSU retrying after a lost ack re-sends the same bytes: success,
        // and the store is unchanged.
        server.submit(rec.clone()).expect("identical resend");
        assert_eq!(server.record_count(), 1);
        assert_eq!(server.record(loc, PeriodId::new(0)).as_deref(), Some(&rec));
    }

    #[test]
    fn resident_bytes_track_only_accepted_records() {
        let server = CentralServer::new(3);
        let records: Vec<TrafficRecord> = [(1u64, 0u32, 64usize), (1, 1, 4096), (2, 0, 8)]
            .into_iter()
            .map(|(loc, period, m)| {
                let mut r = TrafficRecord::new(
                    LocationId::new(loc),
                    PeriodId::new(period),
                    BitmapSize::new(m).expect("pow2"),
                );
                r.set_reported_index(1);
                r
            })
            .collect();
        for record in &records {
            server.submit(record.clone()).expect("accepted");
        }
        // An idempotent re-send and a rejected conflict store nothing new.
        server
            .submit(records[1].clone())
            .expect("idempotent resend");
        let mut conflicting = records[2].clone();
        conflicting.set_reported_index(2);
        assert!(server.submit(conflicting).is_err());

        let stored: u64 = records
            .iter()
            .map(|r| {
                let stored = server.record(r.location(), r.period()).expect("stored");
                stored.bitmap().len().div_ceil(8) as u64
            })
            .sum();
        assert_eq!(stored, 8 + 512 + 1);
        assert_eq!(server.resident_bytes(), stored);
    }

    #[test]
    fn conflicting_duplicate_rejected() {
        let server = CentralServer::new(3);
        let loc = LocationId::new(2);
        let rec = TrafficRecord::new(loc, PeriodId::new(0), BitmapSize::new(64).expect("pow2"));
        server.submit(rec.clone()).expect("first");
        let mut conflicting = rec.clone();
        conflicting.set_reported_index(3);
        assert_eq!(
            server.submit(conflicting),
            Err(ServerError::DuplicateRecord {
                location: loc,
                period: PeriodId::new(0)
            })
        );
        // The original record survives the rejected conflict untouched.
        assert_eq!(server.record(loc, PeriodId::new(0)).as_deref(), Some(&rec));
    }

    #[test]
    fn missing_record_reported() {
        let server = CentralServer::new(3);
        let loc = LocationId::new(3);
        let err = server
            .estimate_point_persistent(loc, &[PeriodId::new(0), PeriodId::new(1)])
            .expect_err("missing");
        assert_eq!(
            err,
            ServerError::MissingRecord {
                location: loc,
                period: PeriodId::new(0)
            }
        );
    }

    #[test]
    fn p2p_query() {
        let server = CentralServer::new(3);
        let scheme = EncodingScheme::new(9, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let commons: Vec<VehicleSecrets> = (0..800)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        let (a, b) = (LocationId::new(10), LocationId::new(20));
        for p in 0..3u32 {
            server
                .submit(record_with(a, PeriodId::new(p), 8192, &commons, &scheme))
                .expect("upload");
            server
                .submit(record_with(b, PeriodId::new(p), 8192, &commons, &scheme))
                .expect("upload");
        }
        let periods: Vec<PeriodId> = (0..3).map(PeriodId::new).collect();
        let est = server
            .estimate_p2p_persistent(a, b, &periods)
            .expect("estimate");
        assert!((est - 800.0).abs() / 800.0 < 0.15, "estimate {est}");
    }

    #[test]
    fn estimate_error_wrapped() {
        let server = CentralServer::new(3);
        let loc = LocationId::new(5);
        server
            .submit(TrafficRecord::new(
                loc,
                PeriodId::new(0),
                BitmapSize::new(64).expect("pow2"),
            ))
            .expect("upload");
        let err = server
            .estimate_point_persistent(loc, &[PeriodId::new(0)])
            .expect_err("too few records");
        assert!(matches!(
            err,
            ServerError::Estimate(EstimateError::TooFewRecords { .. })
        ));
        // Display and source() behave.
        assert!(err.to_string().contains("estimation failed"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn records_grow_only_on_accepted_submits_and_per_location() {
        let server = CentralServer::new(3);
        let (a, b) = (LocationId::new(1), LocationId::new(2));
        assert!(server.shard_stats().is_empty(), "untouched location");

        let mut rec = TrafficRecord::new(a, PeriodId::new(0), BitmapSize::new(64).expect("pow2"));
        rec.set_reported_index(5);
        server.submit(rec.clone()).expect("first");
        assert_eq!(server.shard_stats(), vec![(a, 1)]);

        // Idempotent re-send: records unchanged.
        server.submit(rec.clone()).expect("resend");
        assert_eq!(server.shard_stats(), vec![(a, 1)]);

        // Rejected conflict: records unchanged.
        let mut conflicting = rec.clone();
        conflicting.set_reported_index(7);
        assert!(server.submit(conflicting).is_err());
        assert_eq!(server.shard_stats(), vec![(a, 1)]);

        // Uploads to one location never change another location's records.
        let other = TrafficRecord::new(b, PeriodId::new(0), BitmapSize::new(64).expect("pow2"));
        server.submit(other).expect("other location");
        assert_eq!(server.shard_stats(), vec![(a, 1), (b, 1)]);

        let second = TrafficRecord::new(a, PeriodId::new(1), BitmapSize::new(64).expect("pow2"));
        server.submit(second).expect("second period");
        assert_eq!(server.shard_stats(), vec![(a, 2), (b, 1)]);
    }

    #[test]
    fn poisoned_shard_lock_is_recovered() {
        let server = CentralServer::new(3);
        let loc = LocationId::new(7);
        let mut rec = TrafficRecord::new(loc, PeriodId::new(0), BitmapSize::new(64).expect("pow2"));
        rec.set_reported_index(3);
        server.submit(rec.clone()).expect("first");

        // Poison the shard's lock the way a panicking handler thread would.
        let shard = server.shard(loc).expect("shard exists");
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = shard.inner.write().expect("not yet poisoned");
            panic!("injected handler panic");
        }));
        assert!(poisoned.is_err());
        assert!(
            shard.inner.read().is_err(),
            "lock must actually be poisoned"
        );

        // Every path still works: the store recovers the guard instead of
        // cascading the panic into every later request.
        assert_eq!(server.record(loc, PeriodId::new(0)).as_deref(), Some(&rec));
        let mut next =
            TrafficRecord::new(loc, PeriodId::new(1), BitmapSize::new(64).expect("pow2"));
        next.set_reported_index(4);
        server.submit(next).expect("submit after poison");
        assert_eq!(server.record_count(), 2);
        assert!(server.estimate_volume(loc, PeriodId::new(0)).is_ok());
    }

    #[test]
    fn concurrent_uploads_and_queries_across_locations() {
        let server = CentralServer::new(3);
        let scheme = EncodingScheme::new(5, 3);
        const LOCATIONS: u64 = 8;
        const PERIODS: u32 = 3;
        let server_ref = &server;
        let scheme_ref = &scheme;
        std::thread::scope(|scope| {
            for loc in 0..LOCATIONS {
                let server = server_ref;
                let scheme = scheme_ref;
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(loc);
                    let fleet: Vec<VehicleSecrets> = (0..50)
                        .map(|_| VehicleSecrets::generate(&mut rng, 3))
                        .collect();
                    for p in 0..PERIODS {
                        let rec = record_with(
                            LocationId::new(loc),
                            PeriodId::new(p),
                            1024,
                            &fleet,
                            scheme,
                        );
                        server.submit(rec).expect("concurrent submit");
                    }
                });
                // Concurrent readers: any Ok answer is fine, any missing
                // record is fine; nothing may panic or deadlock.
                let server = server_ref;
                scope.spawn(move || {
                    let periods: Vec<PeriodId> = (0..PERIODS).map(PeriodId::new).collect();
                    for _ in 0..20 {
                        let _ = server.estimate_point_persistent(LocationId::new(loc), &periods);
                        let _ = server.estimate_volume(LocationId::new(loc), PeriodId::new(0));
                    }
                });
            }
        });
        assert_eq!(
            server.record_count(),
            (LOCATIONS * u64::from(PERIODS)) as usize
        );
        assert_eq!(server.location_count(), LOCATIONS as usize);
    }
}
