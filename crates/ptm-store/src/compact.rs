//! Crash-safe background compaction for the segmented store.
//!
//! Rotation leaves behind small segments; supersession (a later frame for
//! the same `(location, period)`) leaves dead frames inside them. A
//! compaction pass copies only the *live* frames of its victim segments
//! into one fresh merged segment, seals it, and publishes the swap with a
//! single atomic manifest commit — victims stay live until that rename, so
//! a crash (or injected `store.write` / `store.seal` / `store.manifest`
//! fault) at any point leaves the previous segment set fully intact and
//! the merged file an orphan the next `open()` sweeps away.
//!
//! Correctness of the swap: at compaction time the merged segment's keys
//! are exactly the victims' live keys — disjoint from every surviving
//! segment (a key can be live in only one segment). The merged segment's
//! *id* is freshly allocated (it exceeds even the active segment's), but
//! its **supersession rank** is the maximum victim rank: the reopen
//! lookup rebuild orders segments by rank, so frames appended to the
//! active segment after the merge — which carry a higher rank once that
//! segment seals — keep superseding the merged copies across a restart.

use crate::codec::StoreError;
use crate::crc32::crc32;
use crate::index::SegmentIndex;
use crate::io::{build_io, check_site};
use crate::manifest::SegmentMeta;
use crate::segment::{FrameLoc, SealedSegment, SegmentStore};
use ptm_core::record::PeriodId;
use ptm_core::LocationId;
use std::io::Write;

/// What one compaction pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Victim segments merged (and deleted).
    pub merged_segments: usize,
    /// Dead (superseded) frames dropped instead of copied.
    pub dropped_frames: u64,
    /// Bytes of victim files reclaimed, net of the merged file's size.
    pub reclaimed_bytes: i64,
    /// Id of the merged segment, when one was produced.
    pub new_segment: Option<u64>,
}

impl SegmentStore {
    /// Sealed segments worth merging: smaller than the rotation threshold
    /// (`small_bytes`), or carrying dead frames. Ascending by id.
    pub fn compaction_candidates(&self, small_bytes: u64) -> Vec<u64> {
        self.sealed
            .iter()
            .filter(|(id, segment)| {
                segment.bytes < small_bytes || self.live_frames(**id) < segment.records
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Live frames currently resolved to `segment` by the store lookup.
    fn live_frames(&self, segment: u64) -> u64 {
        let Some(sealed) = self.sealed.get(&segment) else {
            return 0;
        };
        sealed
            .index
            .iter()
            .filter(|(location, entry)| {
                self.lookup
                    .get(&(*location, entry.period))
                    .is_some_and(|loc| loc.segment == segment && loc.offset == entry.offset)
            })
            .count() as u64
    }

    /// Merges the small/superseded sealed segments into one fresh sealed
    /// segment, committing the swap atomically via the manifest. A no-op
    /// (empty report) when fewer than two victims exist and nothing is
    /// superseded.
    ///
    /// # Errors
    ///
    /// I/O failures and injected `store.write` / `store.seal` /
    /// `store.manifest` faults. On error the previous segment set is
    /// untouched and the partial merged file is removed.
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        let _s = ptm_obs::tspan!("store.compact");
        // "Small" = under twice the rotation threshold: rotation-sealed
        // segments land just past `rotate_bytes`, and merging several of
        // them into one file is exactly the point.
        let victims = self.compaction_candidates(self.opts.rotate_bytes.saturating_mul(2));
        let total_live: u64 = victims.iter().map(|id| self.live_frames(*id)).sum();
        let total_frames: u64 = victims
            .iter()
            .filter_map(|id| self.sealed.get(id))
            .map(|s| s.records)
            .sum();
        if victims.len() < 2 && total_live == total_frames {
            return Ok(CompactionReport::default());
        }

        let new_id = self.manifest.next_segment_id;
        // The merged frames are copies of the victims' — they must rank
        // exactly where the newest victim ranked, below any segment whose
        // appends postdate this merge.
        let rank = victims
            .iter()
            .filter_map(|id| self.sealed.get(id).map(|s| s.rank))
            .max()
            .unwrap_or(new_id);
        let merged = match self.write_merged_segment(&victims, new_id, rank) {
            Ok(merged) => merged,
            Err(err) => {
                let _ =
                    std::fs::remove_file(self.dir.join(crate::segment::segment_file_name(new_id)));
                ptm_obs::counter!("store.compact.failures").inc();
                ptm_obs::warn!("store.archive", "compaction failed; segment set unchanged";
                    error = err.to_string());
                return Err(err);
            }
        };

        // Publish: victims out, merged segment in, one atomic rename.
        let mut manifest = self.manifest.clone();
        manifest.segments.retain(|s| !victims.contains(&s.id));
        let at = manifest
            .segments
            .iter()
            .position(|s| s.id > new_id)
            .unwrap_or(manifest.segments.len());
        manifest.segments.insert(
            at,
            SegmentMeta {
                id: new_id,
                sealed: true,
                records: merged.records,
                rank,
            },
        );
        manifest.next_segment_id = new_id + 1;
        if let Err(err) = manifest.commit(&self.dir, &self.opts.hooks.manifest) {
            let _ = std::fs::remove_file(&merged.path);
            ptm_obs::counter!("store.compact.failures").inc();
            ptm_obs::warn!("store.archive",
                "compaction manifest commit failed; segment set unchanged";
                error = err.to_string());
            return Err(err);
        }
        self.manifest = manifest;

        // The swap is durable; retire the victims in memory and on disk.
        let mut reclaimed: i64 = -(merged.bytes as i64);
        let mut dropped = 0u64;
        for id in &victims {
            if let Some(victim) = self.sealed.remove(id) {
                reclaimed += victim.bytes as i64;
                dropped += victim.records;
                let _ = std::fs::remove_file(&victim.path);
            }
        }
        dropped -= merged.records;
        for (location, entry) in merged.index.iter() {
            self.lookup.insert(
                (location, entry.period),
                FrameLoc {
                    segment: new_id,
                    offset: entry.offset,
                    len: entry.len,
                },
            );
        }
        let records = merged.records;
        self.sealed.insert(new_id, merged);
        self.compactions += 1;

        ptm_obs::counter!("store.compact.runs").inc();
        ptm_obs::counter!("store.compact.merged_segments").add(victims.len() as u64);
        ptm_obs::counter!("store.compact.dropped_frames").add(dropped);
        ptm_obs::counter!("store.compact.reclaimed_bytes").add(reclaimed.max(0) as u64);
        ptm_obs::info!("store.archive", "compaction merged segments";
            merged_segments = victims.len() as u64, new_segment = new_id,
            live_records = records, dropped_frames = dropped,
            reclaimed_bytes = reclaimed);
        self.publish_gauges();
        Ok(CompactionReport {
            merged_segments: victims.len(),
            dropped_frames: dropped,
            reclaimed_bytes: reclaimed,
            new_segment: Some(new_id),
        })
    }

    /// Copies the victims' live frames into a fresh sealed segment file
    /// (written through the fault hooks — compaction I/O is injectable).
    fn write_merged_segment(
        &self,
        victims: &[u64],
        new_id: u64,
        rank: u64,
    ) -> Result<SealedSegment, StoreError> {
        // Gather live keys per victim, ordered by (segment, location,
        // period) for a deterministic merged layout.
        let mut live: Vec<((LocationId, PeriodId), FrameLoc)> = Vec::new();
        for id in victims {
            let Some(victim) = self.sealed.get(id) else {
                continue;
            };
            for (location, entry) in victim.index.iter() {
                let key = (location, entry.period);
                if self
                    .lookup
                    .get(&key)
                    .is_some_and(|loc| loc.segment == *id && loc.offset == entry.offset)
                {
                    live.push((
                        key,
                        FrameLoc {
                            segment: *id,
                            offset: entry.offset,
                            len: entry.len,
                        },
                    ));
                }
            }
        }

        let path = self.dir.join(crate::segment::segment_file_name(new_id));
        let mut index = SegmentIndex::new();
        {
            let file = std::fs::File::create(&path)?;
            let mut io = build_io(file, &self.opts.hooks);
            let mut buf = Vec::with_capacity(64 * 1024);
            buf.extend_from_slice(b"PTMS");
            buf.extend_from_slice(&2u16.to_le_bytes());
            buf.extend_from_slice(&0u16.to_le_bytes());
            let mut offset = crate::segment::HEADER_LEN;
            // Re-read and re-verify every victim frame (one open file per
            // victim); corruption stops the pass rather than propagating
            // into the merged file.
            self.read_frames(&live, |(location, period), payload| {
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&crc32(payload).to_le_bytes());
                buf.extend_from_slice(payload);
                index.insert(*location, *period, offset, payload.len() as u32);
                offset += 8 + payload.len() as u64;
                if buf.len() >= 64 * 1024 {
                    io.write_all(&buf)?;
                    buf.clear();
                }
                Ok(())
            })?;
            // Seal in the same stroke: footer index frame + trailer.
            check_site(&self.opts.hooks.seal, "compaction seal")?;
            let footer = index.encode();
            buf.extend_from_slice(&((footer.len() as u32) | 0x8000_0000).to_le_bytes());
            buf.extend_from_slice(&crc32(&footer).to_le_bytes());
            buf.extend_from_slice(&footer);
            buf.extend_from_slice(&offset.to_le_bytes());
            buf.extend_from_slice(b"PTMF");
            io.write_all(&buf)?;
            io.flush()?;
            io.sync()?;
        }
        let bytes = std::fs::metadata(&path)?.len();
        let records = index.len() as u64;
        Ok(SealedSegment {
            path,
            index,
            records,
            bytes,
            rank,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::StoreOptions;
    use crate::StoreHooks;
    use ptm_core::encoding::{EncodingScheme, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use ptm_core::record::TrafficRecord;
    use ptm_fault::{sites, FaultAction, FaultPlan, Rule};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ptm-compact-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn sample_records(location: u64, count: u32) -> Vec<TrafficRecord> {
        let scheme = EncodingScheme::new(9, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(location);
        (0..count)
            .map(|p| {
                let mut record = TrafficRecord::new(
                    LocationId::new(location),
                    PeriodId::new(p),
                    BitmapSize::new(1024).expect("pow2"),
                );
                for _ in 0..60 {
                    let v = VehicleSecrets::generate(&mut rng, 3);
                    record.encode(&scheme, &v);
                }
                record
            })
            .collect()
    }

    fn fragmented_store(dir: &PathBuf, rotate_bytes: u64) -> (SegmentStore, Vec<TrafficRecord>) {
        let opts = StoreOptions {
            rotate_bytes,
            ..StoreOptions::default()
        };
        let records = sample_records(11, 10);
        let mut store = SegmentStore::open(dir, opts).expect("open").store;
        // One flush per record: many tiny sealed segments.
        for record in &records {
            store.append_all([record]).expect("append");
        }
        (store, records)
    }

    #[test]
    fn compaction_merges_small_segments_and_preserves_reads() {
        let dir = temp_dir("merge");
        let (mut store, records) = fragmented_store(&dir, 400);
        let sealed_before = store.sealed_count();
        assert!(sealed_before >= 3, "setup must fragment the store");

        let report = store.compact().expect("compact");
        assert_eq!(report.merged_segments, sealed_before);
        assert!(report.new_segment.is_some());
        assert!(store.sealed_count() < sealed_before);
        assert_eq!(store.record_count(), records.len());
        for record in &records {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(*got, *record);
        }
        // Victim files are gone; reopening resolves identically.
        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("reopen")
            .store;
        assert_eq!(store.record_count(), records.len());
        for record in &records {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(*got, *record);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_superseded_frames() {
        let dir = temp_dir("supersede");
        let (mut store, records) = fragmented_store(&dir, 400);
        // Re-append half the records: the old frames become dead weight.
        for record in records.iter().take(5) {
            store.append_all([record]).expect("supersede");
        }
        store.checkpoint().expect("checkpoint");
        let report = store.compact().expect("compact");
        assert!(report.dropped_frames >= 5, "dead frames must be dropped");
        assert_eq!(store.record_count(), records.len());
        for record in &records {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(*got, *record);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_compaction_supersedes_across_reopen() {
        let dir = temp_dir("post-compact-supersede");
        let (mut store, records) = fragmented_store(&dir, 400);
        let report = store.compact().expect("compact");
        assert!(report.new_segment.is_some(), "setup must actually merge");

        // The merged segment's id exceeds the active segment's. Supersede
        // a key that was copied into the merged segment, then seal the
        // active segment behind it: the newer frame now lives in a
        // *lower-id* (but higher-ranked) sealed segment.
        let altered = TrafficRecord::new(
            records[0].location(),
            records[0].period(),
            BitmapSize::new(1024).expect("pow2"),
        );
        assert_ne!(altered, records[0], "the superseding frame must differ");
        store.append_all([&altered]).expect("supersede");
        store.checkpoint().expect("seal the superseding frame");
        let got = store
            .get(altered.location(), altered.period())
            .expect("read")
            .expect("present");
        assert_eq!(*got, altered, "live lookup sees the newest frame");

        // Recovery must be exact: the reopen rebuild may not resurrect
        // the merged segment's stale copy just because its id is larger.
        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("reopen")
            .store;
        let got = store
            .get(altered.location(), altered.period())
            .expect("read")
            .expect("present");
        assert_eq!(*got, altered, "newest frame still wins after reopen");
        for record in records.iter().skip(1) {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(*got, *record);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nothing_to_do_is_a_clean_noop() {
        let dir = temp_dir("noop");
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("open")
            .store;
        store.append_all(&sample_records(1, 3)).expect("fill");
        assert_eq!(store.compact().expect("noop"), CompactionReport::default());
        assert_eq!(store.compaction_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_manifest_fault_rolls_back_compaction() {
        let dir = temp_dir("fault");
        let (store, records) = fragmented_store(&dir, 400);
        drop(store);
        let plan = FaultPlan::builder(17)
            .rule(
                sites::STORE_MANIFEST,
                Rule::nth(1, FaultAction::Error(std::io::ErrorKind::Other)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            rotate_bytes: 400,
            ..StoreOptions::default()
        };
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        let sealed_before = store.sealed_count();
        let next_before = store.manifest.next_segment_id;

        store.compact().expect_err("injected manifest fault");
        assert_eq!(store.sealed_count(), sealed_before, "victims untouched");
        assert_eq!(store.manifest.next_segment_id, next_before);
        assert!(
            !dir.join(crate::segment::segment_file_name(next_before))
                .exists(),
            "partial merged file removed"
        );
        for record in &records {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(*got, *record);
        }
        // The schedule fired once; the retry compacts successfully.
        let report = store.compact().expect("retry");
        assert!(report.new_segment.is_some());
        assert_eq!(store.record_count(), records.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_fault_leaves_orphan_for_open_to_sweep() {
        let dir = temp_dir("write-fault");
        let (store, records) = fragmented_store(&dir, 400);
        drop(store);
        let plan = FaultPlan::builder(23)
            .rule(
                sites::STORE_WRITE,
                Rule::nth(1, FaultAction::Error(std::io::ErrorKind::StorageFull)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            rotate_bytes: 400,
            ..StoreOptions::default()
        };
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        store.compact().expect_err("injected write fault");
        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("reopen")
            .store;
        assert_eq!(store.record_count(), records.len());
        for record in &records {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(*got, *record);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
