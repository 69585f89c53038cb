//! Crash-safe background compaction for the segmented store.
//!
//! Rotation leaves behind small sealed segments. A compaction pass copies
//! every frame of its victims — the sealed segments under twice the
//! rotation threshold — verbatim, in id order, into one fresh segment,
//! fsyncs it, and publishes the swap with a single atomic manifest commit
//! that names the merged segment sealed with its victims' summed frame
//! count. Victims stay live until that rename, so a crash (or injected
//! `store.write` / `store.seal` / `store.manifest` fault) at any point
//! leaves the previous segment set fully intact and the merged file an
//! orphan the next `open()` sweeps away. Every copied frame is read through
//! the store's one frame reader first: its CRC is checked and each victim
//! must hold exactly the frames its manifest entry promises, so damage
//! stops the pass instead of spreading into the merged file.

use crate::codec::StoreError;
use crate::io::{build_io, check_site};
use crate::manifest::SegmentMeta;
use crate::segment::{read_segment, segment_file_name, segment_header, SegmentStore};
use std::path::Path;

/// The merged file is written in chunks of about this many bytes.
const WRITE_CHUNK: usize = 64 * 1024;

/// What one compaction pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Victim segments merged (and deleted).
    pub merged_segments: usize,
    /// Bytes of victim files reclaimed, net of the merged file's size.
    pub reclaimed_bytes: i64,
    /// Id of the merged segment, when one was produced.
    pub new_segment: Option<u64>,
}

/// A sealed segment chosen for a merge.
struct Victim {
    id: u64,
    records: u64,
    bytes: u64,
}

impl SegmentStore {
    /// Sealed segments smaller than `small_bytes`, ascending by id.
    fn compaction_victims(&self, small_bytes: u64) -> Result<Vec<Victim>, StoreError> {
        let mut victims = Vec::new();
        for meta in self.manifest.segments.iter().filter(|s| s.sealed) {
            let bytes = std::fs::metadata(self.dir.join(segment_file_name(meta.id)))?.len();
            if bytes < small_bytes {
                victims.push(Victim {
                    id: meta.id,
                    records: meta.records,
                    bytes,
                });
            }
        }
        Ok(victims)
    }

    /// Merges the small sealed segments into one fresh sealed segment,
    /// committing the swap atomically via the manifest. A no-op (empty
    /// report) when fewer than two victims exist.
    ///
    /// # Errors
    ///
    /// I/O failures, frame corruption in a victim, and injected
    /// `store.write` / `store.seal` / `store.manifest` faults. On error the
    /// previous segment set is untouched and the partial merged file is
    /// removed.
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        let _s = ptm_obs::tspan!("store.compact");
        // "Small" = under twice the rotation threshold: rotation-sealed
        // segments land just past `rotate_bytes`, and merging several of
        // them into one file is exactly the point.
        let victims = self.compaction_victims(self.opts.rotate_bytes.saturating_mul(2))?;
        if victims.len() < 2 {
            return Ok(CompactionReport::default());
        }

        let new_id = self.manifest.next_segment_id;
        let merged_path = self.dir.join(segment_file_name(new_id));
        let merged_bytes = match self.write_merged_segment(&victims, &merged_path) {
            Ok(bytes) => bytes,
            Err(err) => {
                let _ = std::fs::remove_file(&merged_path);
                ptm_obs::counter!("store.compact.failures").inc();
                ptm_obs::warn!("store.archive", "compaction failed; segment set unchanged";
                    error = err.to_string());
                return Err(err);
            }
        };

        // Publish: victims out, merged segment in, one atomic rename. The
        // merged id is the largest allocated, so it goes last.
        let records: u64 = victims.iter().map(|v| v.records).sum();
        let mut manifest = self.manifest.clone();
        manifest
            .segments
            .retain(|s| !victims.iter().any(|v| v.id == s.id));
        manifest.segments.push(SegmentMeta {
            id: new_id,
            sealed: true,
            records,
        });
        manifest.next_segment_id = new_id + 1;
        if let Err(err) = manifest.commit(&self.dir, &self.opts.hooks.manifest) {
            let _ = std::fs::remove_file(&merged_path);
            ptm_obs::counter!("store.compact.failures").inc();
            ptm_obs::warn!("store.archive",
                "compaction manifest commit failed; segment set unchanged";
                error = err.to_string());
            return Err(err);
        }
        self.manifest = manifest;

        // The swap is durable; retire the victims' files.
        let mut reclaimed: i64 = -(merged_bytes as i64);
        for victim in &victims {
            reclaimed += victim.bytes as i64;
            let _ = std::fs::remove_file(self.dir.join(segment_file_name(victim.id)));
        }
        self.compactions += 1;

        ptm_obs::counter!("store.compact.runs").inc();
        ptm_obs::counter!("store.compact.merged_segments").add(victims.len() as u64);
        ptm_obs::counter!("store.compact.reclaimed_bytes").add(reclaimed.max(0) as u64);
        ptm_obs::info!("store.archive", "compaction merged segments";
            merged_segments = victims.len() as u64, new_segment = new_id,
            records = records, reclaimed_bytes = reclaimed);
        self.publish_gauges();
        Ok(CompactionReport {
            merged_segments: victims.len(),
            reclaimed_bytes: reclaimed,
            new_segment: Some(new_id),
        })
    }

    /// Copies the victims' CRC-checked frames verbatim into a fresh segment
    /// file at `path` (written through the fault hooks — compaction I/O is
    /// injectable), fsyncs it, and returns its length.
    fn write_merged_segment(&self, victims: &[Victim], path: &Path) -> Result<u64, StoreError> {
        let file = std::fs::File::create(path)?;
        let mut io = build_io(file, &self.opts.hooks);
        let mut buf = Vec::with_capacity(2 * WRITE_CHUNK);
        buf.extend_from_slice(&segment_header());
        let mut written = 0u64;
        for victim in victims {
            let victim_path = self.dir.join(segment_file_name(victim.id));
            read_segment(&victim_path, u64::MAX, |frame| {
                buf.extend_from_slice(frame);
                if buf.len() >= WRITE_CHUNK {
                    io.write_all(&buf)?;
                    written += buf.len() as u64;
                    buf.clear();
                }
                Ok(())
            })?
            .check_count(victim.records)?;
        }
        check_site(&self.opts.hooks.seal, "compaction seal")?;
        io.write_all(&buf)?;
        io.flush()?;
        io.sync()?;
        Ok(written + buf.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{StoreOptions, HEADER_LEN};
    use crate::StoreHooks;
    use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use ptm_core::record::{PeriodId, TrafficRecord};
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

    /// Every record of the fragmented store's one location, read back.
    fn read_back(store: &mut SegmentStore) -> Vec<TrafficRecord> {
        store
            .records_for_location(LocationId::new(11))
            .expect("read")
            .iter()
            .map(|record| (**record).clone())
            .collect()
    }

    #[test]
    fn compaction_merges_small_segments_and_preserves_reads() {
        let dir = temp_dir("merge");
        let (mut store, records) = fragmented_store(&dir, 400);
        let sealed_before = store.sealed_count();
        assert!(sealed_before >= 3, "setup must fragment the store");
        // The merged file must be the victims' frames, byte for byte.
        let mut frames = segment_header().to_vec();
        for meta in store.manifest.segments.iter().filter(|s| s.sealed) {
            let bytes = std::fs::read(dir.join(segment_file_name(meta.id))).expect("victim");
            frames.extend_from_slice(&bytes[HEADER_LEN as usize..]);
        }

        let report = store.compact().expect("compact");
        assert_eq!(report.merged_segments, sealed_before);
        let merged = report.new_segment.expect("merged segment");
        assert_eq!(
            std::fs::read(dir.join(segment_file_name(merged))).expect("merged"),
            frames
        );
        assert_eq!(store.sealed_count(), 1);
        assert_eq!(store.record_count(), records.len());
        assert_eq!(read_back(&mut store), records);
        // Victim files are gone; reopening reads the same records.
        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("reopen")
            .store;
        assert_eq!(store.record_count(), records.len());
        assert_eq!(read_back(&mut store), records);
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
            !dir.join(segment_file_name(next_before)).exists(),
            "partial merged file removed"
        );
        assert_eq!(read_back(&mut store), records);
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
        assert_eq!(read_back(&mut store), records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
