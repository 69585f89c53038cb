//! The CRC-checked manifest naming the live segment set.
//!
//! One `MANIFEST` file per store directory:
//!
//! ```text
//! "PTMM" (4) | version u16 = 3 | reserved u16
//! u64 next segment id
//! u32 segment count
//! per segment: u64 id | u8 sealed | u64 record count
//! u32 crc32 of everything above
//! ```
//!
//! The manifest is the only record of which segment is sealed: a segment
//! file carries no footer. A sealed segment's record count is exact, and
//! `open` refuses a sealed file holding any other number of frames. The
//! active segment's count is the frames its last checkpoint fsynced;
//! `open` refuses an active file holding fewer.
//!
//! Commits are atomic: the new manifest is written to a sibling temp file,
//! fsynced, then renamed over `MANIFEST`. A crash (or injected
//! `store.manifest` fault) anywhere before the rename leaves the previous
//! manifest untouched — which is what makes segment rotation and
//! checkpoints crash-safe: the old segment set and counts stay live until
//! the single rename publishes the new ones.

use crate::codec::StoreError;
use crate::crc32::crc32;
use crate::io::check_site;
use ptm_fault::SiteHandle;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"PTMM";
const VERSION: u16 = 3;
/// Bytes per segment entry: id, sealed flag, record count.
const ENTRY_LEN: usize = 17;

/// The manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// The temp file a commit stages into before the atomic rename.
pub const MANIFEST_TEMP: &str = "MANIFEST.tmp";

/// One live segment, as recorded by the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The segment's id (also its file name, `seg-<id>.ptms`).
    pub id: u64,
    /// Whether the segment is sealed (no further appends). Exactly one
    /// unsealed (active) segment exists once a store has opened.
    pub sealed: bool,
    /// Frames in a sealed segment, exact. For the active segment, the
    /// frames its last checkpoint made durable (0 before any): `open` holds
    /// them to the sealed standard and counts the frames past them.
    pub records: u64,
}

/// The live segment set plus the id allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Next id to hand out when a segment is created.
    pub next_segment_id: u64,
    /// Live segments, ascending by id.
    pub segments: Vec<SegmentMeta>,
}

fn le_u16(bytes: &[u8]) -> u16 {
    let mut raw = [0u8; 2];
    raw.copy_from_slice(&bytes[..2]);
    u16::from_le_bytes(raw)
}

fn le_u32(bytes: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(raw)
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(raw)
}

impl Manifest {
    /// The segment entry for `id`, if live.
    pub fn segment(&self, id: u64) -> Option<&SegmentMeta> {
        self.segments.iter().find(|s| s.id == id)
    }

    /// Serializes the manifest, CRC included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.segments.len() * ENTRY_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.next_segment_id.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for segment in &self.segments {
            out.extend_from_slice(&segment.id.to_le_bytes());
            out.push(u8::from(segment.sealed));
            out.extend_from_slice(&segment.records.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes and CRC-checks a manifest file's bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadHeader`] on wrong magic/version,
    /// [`StoreError::CorruptFrame`] on a CRC mismatch,
    /// [`StoreError::MalformedRecord`] on truncation or invariant breaks.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < 24 {
            return Err(StoreError::MalformedRecord {
                reason: format!("manifest is {} bytes", bytes.len()),
            });
        }
        if bytes[0..4] != MAGIC || le_u16(&bytes[4..6]) != VERSION {
            return Err(StoreError::BadHeader);
        }
        let body = &bytes[..bytes.len() - 4];
        let expected_crc = le_u32(&bytes[bytes.len() - 4..]);
        if crc32(body) != expected_crc {
            return Err(StoreError::CorruptFrame { offset: 0 });
        }
        let next_segment_id = le_u64(&body[8..16]);
        let count = le_u32(&body[16..20]) as usize;
        let entries = &body[20..];
        if entries.len() != count * ENTRY_LEN {
            return Err(StoreError::MalformedRecord {
                reason: format!(
                    "manifest claims {count} segments but carries {} entry bytes",
                    entries.len()
                ),
            });
        }
        let mut segments = Vec::with_capacity(count);
        for chunk in entries.chunks_exact(ENTRY_LEN) {
            segments.push(SegmentMeta {
                id: le_u64(&chunk[0..8]),
                sealed: chunk[8] != 0,
                records: le_u64(&chunk[9..17]),
            });
        }
        let ids_ascend = segments.windows(2).all(|w| w[0].id < w[1].id);
        let ids_allocated = segments.iter().all(|s| s.id < next_segment_id);
        if !ids_ascend || !ids_allocated {
            return Err(StoreError::MalformedRecord {
                reason: "manifest segment ids out of order or unallocated".into(),
            });
        }
        if segments.iter().filter(|s| !s.sealed).count() > 1 {
            return Err(StoreError::MalformedRecord {
                reason: "manifest names more than one active segment".into(),
            });
        }
        Ok(Self {
            next_segment_id,
            segments,
        })
    }

    /// Loads the manifest from `dir`, or `None` when the store has never
    /// committed one.
    ///
    /// # Errors
    ///
    /// Decode failures ([`Manifest::decode`]) and I/O failures.
    pub fn load(dir: &Path) -> Result<Option<Self>, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(Self::decode(&bytes)?)),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(err.into()),
        }
    }

    /// Atomically publishes this manifest into `dir` (temp file + fsync +
    /// rename), consulting the `store.manifest` fault site first.
    ///
    /// # Errors
    ///
    /// Injected `store.manifest` faults and real I/O failures. On error the
    /// previously committed manifest is untouched; a leftover temp file is
    /// removed best-effort.
    pub fn commit(&self, dir: &Path, site: &SiteHandle) -> Result<(), StoreError> {
        let temp = dir.join(MANIFEST_TEMP);
        let publish = || -> std::io::Result<()> {
            check_site(site, "manifest commit")?;
            let mut file = File::create(&temp)?;
            file.write_all(&self.encode())?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&temp, dir.join(MANIFEST_FILE))?;
            // Durability of the rename itself: fsync the directory (best
            // effort — some filesystems refuse directory handles).
            if let Ok(dir_handle) = File::open(dir) {
                let _ = dir_handle.sync_all();
            }
            Ok(())
        };
        publish().map_err(|err| {
            let _ = std::fs::remove_file(&temp);
            err.into()
        })
    }

    /// Path of the manifest inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_fault::{sites, FaultAction, FaultPlan, Rule};

    fn sample() -> Manifest {
        Manifest {
            next_segment_id: 3,
            segments: vec![
                SegmentMeta {
                    id: 0,
                    sealed: true,
                    records: 120,
                },
                SegmentMeta {
                    id: 2,
                    sealed: false,
                    records: 0,
                },
            ],
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ptm-manifest-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("mkdir");
        path
    }

    #[test]
    fn encode_decode_roundtrip() {
        let manifest = sample();
        let back = Manifest::decode(&manifest.encode()).expect("decode");
        assert_eq!(back, manifest);
        assert_eq!(back.segment(0).map(|s| s.records), Some(120));
        assert!(back.segment(1).is_none());
    }

    #[test]
    fn corruption_and_truncation_rejected() {
        let bytes = sample().encode();
        for at in [0usize, 7, 20, bytes.len() - 2] {
            let mut twisted = bytes.clone();
            twisted[at] ^= 0xFF;
            assert!(Manifest::decode(&twisted).is_err(), "flip at {at}");
        }
        for cut in [0usize, 10, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unsorted_ids_rejected() {
        let mut manifest = sample();
        manifest.segments.reverse();
        assert!(Manifest::decode(&manifest.encode()).is_err());
    }

    #[test]
    fn second_active_segment_rejected() {
        let mut manifest = sample();
        manifest.segments[0].sealed = false;
        assert!(Manifest::decode(&manifest.encode()).is_err());
    }

    #[test]
    fn commit_then_load() {
        let dir = temp_dir("commit");
        assert!(Manifest::load(&dir).expect("empty load").is_none());
        let manifest = sample();
        manifest
            .commit(&dir, &SiteHandle::disabled())
            .expect("commit");
        let loaded = Manifest::load(&dir).expect("load").expect("present");
        assert_eq!(loaded, manifest);
        assert!(!dir.join(MANIFEST_TEMP).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fault_preserves_previous_manifest() {
        let dir = temp_dir("fault");
        let old = Manifest {
            next_segment_id: 1,
            segments: vec![SegmentMeta {
                id: 0,
                sealed: false,
                records: 0,
            }],
        };
        old.commit(&dir, &SiteHandle::disabled()).expect("seed");

        let plan = FaultPlan::builder(5)
            .rule(
                sites::STORE_MANIFEST,
                Rule::nth(1, FaultAction::Error(std::io::ErrorKind::Other)),
            )
            .build()
            .expect("plan");
        let site = plan.site(sites::STORE_MANIFEST);
        let new = sample();
        assert!(new.commit(&dir, &site).is_err());
        let loaded = Manifest::load(&dir).expect("load").expect("present");
        assert_eq!(loaded, old, "failed commit must not disturb the manifest");
        assert!(!dir.join(MANIFEST_TEMP).exists());

        // The schedule fired once; the retry goes through.
        new.commit(&dir, &site).expect("retry");
        assert_eq!(Manifest::load(&dir).expect("load").expect("some"), new);
        std::fs::remove_dir_all(&dir).ok();
    }
}
