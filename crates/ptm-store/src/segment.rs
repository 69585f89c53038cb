//! The segmented archive (storage engine v2).
//!
//! A store is a **directory**: a CRC-checked [`Manifest`] naming the live
//! segment set, plus one `seg-<id>.ptms` file per segment. Writes go to the
//! single *active* segment (transactional commits through the
//! [`StorageIo`] fault boundary) and rotate to a fresh segment once the
//! active one reaches `rotate_bytes`. Rotation *seals* the outgoing
//! segment: a footer [`SegmentIndex`] frame — its length word carries the
//! high bit so a sequential scanner recognizes it — followed by a 12-byte
//! trailer (`index frame offset u64 | "PTMF"`).
//!
//! ```text
//! segment: "PTMS" (4) | version u16 = 2 | reserved u16
//!          record frames:  len u32 | crc32 u32 | payload
//!          sealed only:    (len | 0x8000_0000) u32 | crc32 u32 | index
//!                          index frame offset u64 | "PTMF"
//! ```
//!
//! `open()` therefore reads **manifest + footers only** — O(index), not
//! O(records): sealed segments load their index from the trailer without
//! touching record payloads, and only the active segment is scanned
//! (key-peek, no bitmap decode) with torn-tail recovery: a final frame cut
//! short by a crash is discarded and the file truncated back to the last
//! complete frame, while a checksum failure with complete frames after it
//! is media damage, reported as [`StoreError::CorruptFrame`].
//!
//! Every read — a single [`SegmentStore::get`], a location's whole history
//! in [`SegmentStore::records_for_location`], compaction's copy of live
//! frames — goes through one frame reader: one open file per segment, one
//! seek plus one read per frame into a reused buffer, with each index
//! entry bounded by its segment's length before anything is allocated and
//! every frame's length word and CRC checked. The store keeps no decoded
//! record resident. Background merging lives in [`crate::compact`].

use crate::codec::{decode_record, encode_record, peek_key, StoreError};
use crate::crc32::crc32;
use crate::index::SegmentIndex;
use crate::io::{build_io, check_site, StorageIo, StoreHooks, SyncPolicy};
use crate::manifest::{Manifest, SegmentMeta, MANIFEST_TEMP};
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_core::LocationId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"PTMS";
const VERSION: u16 = 2;
pub(crate) const HEADER_LEN: u64 = 8;
/// High bit of a frame's length word marks the footer index frame.
const INDEX_FLAG: u32 = 0x8000_0000;
const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;
const TRAILER_MAGIC: [u8; 4] = *b"PTMF";
const TRAILER_LEN: u64 = 12;
/// Replay progress cadence: one structured event per this many records.
const REPLAY_PROGRESS_EVERY: u64 = 4096;

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

/// `seg-<id>.ptms`, zero-padded so lexicographic order is id order.
pub(crate) fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.ptms")
}

/// Inverse of [`segment_file_name`].
pub(crate) fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".ptms")?
        .parse()
        .ok()
}

/// Tuning knobs for a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Fault hooks threaded into the active segment's backend, the seal
    /// path, and manifest commits.
    pub hooks: StoreHooks,
    /// Durability policy for active-segment commits.
    pub sync_policy: SyncPolicy,
    /// The active segment rotates once its committed bytes reach this.
    pub rotate_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            hooks: StoreHooks::disabled(),
            sync_policy: SyncPolicy::Flush,
            rotate_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Where one live record's frame is, store-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameLoc {
    pub(crate) segment: u64,
    pub(crate) offset: u64,
    pub(crate) len: u32,
}

/// A sealed segment's in-memory face: its footer index and file totals.
#[derive(Debug)]
pub(crate) struct SealedSegment {
    pub(crate) path: PathBuf,
    pub(crate) index: SegmentIndex,
    /// Frames in the file (including superseded ones).
    pub(crate) records: u64,
    /// File length in bytes.
    pub(crate) bytes: u64,
    /// Supersession rank (see [`SegmentMeta::rank`]): the lookup rebuild
    /// resolves duplicate keys by ascending rank, not raw id, because a
    /// compacted segment's id exceeds segments holding *newer* frames.
    pub(crate) rank: u64,
}

/// The write head: one unsealed segment with buffered, transactional
/// commits.
#[derive(Debug)]
pub(crate) struct ActiveSegment {
    pub(crate) id: u64,
    pub(crate) path: PathBuf,
    io: Box<dyn StorageIo>,
    pub(crate) committed_len: u64,
    pub(crate) committed_records: u64,
    pub(crate) index: SegmentIndex,
    pending: Vec<u8>,
    pending_entries: Vec<(LocationId, PeriodId, u64, u32)>,
    pub(crate) wedged: bool,
}

impl ActiveSegment {
    /// Creates a fresh segment file (header via plain I/O, appends through
    /// the hooks — fault schedules start at the first record write).
    fn create(dir: &Path, id: u64, hooks: &StoreHooks) -> Result<Self, StoreError> {
        let path = dir.join(segment_file_name(id));
        {
            let mut file = File::create(&path)?;
            file.write_all(&MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.write_all(&0u16.to_le_bytes())?;
            file.flush()?;
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Self {
            id,
            path,
            io: build_io(file, hooks),
            committed_len: HEADER_LEN,
            committed_records: 0,
            index: SegmentIndex::new(),
            pending: Vec::new(),
            pending_entries: Vec::new(),
            wedged: false,
        })
    }

    /// Reattaches the write head to an existing segment file whose frames
    /// have already been scanned (and torn tail truncated).
    fn reopen(
        dir: &Path,
        id: u64,
        hooks: &StoreHooks,
        index: SegmentIndex,
        records: u64,
        committed_len: u64,
    ) -> Result<Self, StoreError> {
        let path = dir.join(segment_file_name(id));
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Self {
            id,
            path,
            io: build_io(file, hooks),
            committed_len,
            committed_records: records,
            index,
            pending: Vec::new(),
            pending_entries: Vec::new(),
            wedged: false,
        })
    }

    fn append(&mut self, record: &TrafficRecord) -> Result<(), StoreError> {
        if self.wedged {
            return Err(StoreError::Wedged);
        }
        let payload = encode_record(record);
        let offset = self.committed_len + self.pending.len() as u64;
        self.pending.reserve(8 + payload.len());
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(&payload).to_le_bytes());
        self.pending.extend_from_slice(&payload);
        self.pending_entries.push((
            record.location(),
            record.period(),
            offset,
            payload.len() as u32,
        ));
        Ok(())
    }

    /// Writes everything pending and returns the committed entries, or
    /// rolls the file back to the committed watermark (wedging on a failed
    /// truncate).
    fn commit(
        &mut self,
        sync_policy: SyncPolicy,
    ) -> Result<Vec<(LocationId, PeriodId, u64, u32)>, StoreError> {
        if self.wedged {
            return Err(StoreError::Wedged);
        }
        if self.pending.is_empty() {
            self.io.flush()?;
            return Ok(Vec::new());
        }
        let written = self
            .io
            .write_all(&self.pending)
            .and_then(|()| self.io.flush());
        if let Err(err) = written {
            self.rollback();
            return Err(err.into());
        }
        if sync_policy == SyncPolicy::Fsync {
            if let Err(err) = self.io.sync() {
                self.rollback();
                return Err(err.into());
            }
        }
        self.committed_len += self.pending.len() as u64;
        self.committed_records += self.pending_entries.len() as u64;
        self.pending.clear();
        let entries = std::mem::take(&mut self.pending_entries);
        for (location, period, offset, len) in &entries {
            self.index.insert(*location, *period, *offset, *len);
        }
        Ok(entries)
    }

    fn rollback(&mut self) {
        let dropped_bytes = self.pending.len() as u64;
        let dropped_records = self.pending_entries.len();
        self.pending.clear();
        self.pending_entries.clear();
        ptm_obs::counter!("store.recovery.rollbacks").inc();
        ptm_obs::counter!("store.recovery.rolled_back_records").add(dropped_records as u64);
        match self.io.set_len(self.committed_len) {
            Ok(()) => {
                ptm_obs::counter!("store.recovery.rolled_back_bytes").add(dropped_bytes);
                ptm_obs::warn!(
                    "store.archive",
                    "segment commit failed; rolled back to last durable frame";
                    segment = self.id,
                    committed_len = self.committed_len,
                    dropped_records = dropped_records as u64
                );
            }
            Err(err) => {
                self.wedged = true;
                ptm_obs::counter!("store.recovery.wedged").inc();
                ptm_obs::gauge!("store.archive.wedged").set(1);
                ptm_obs::error!(
                    "store.archive",
                    "segment rollback truncate failed; store wedged until reopen";
                    segment = self.id,
                    error = format!("{err}"),
                    committed_len = self.committed_len
                );
            }
        }
    }

    /// Appends the footer index frame + trailer and fsyncs, turning this
    /// segment into a sealed one. Consults the `store.seal` fault site; on
    /// failure the footer is truncated away so the segment stays active
    /// (wedging only if even that truncate fails).
    fn seal(&mut self, hooks: &StoreHooks) -> Result<(), StoreError> {
        debug_assert!(self.pending.is_empty(), "seal requires a committed segment");
        let payload = self.index.encode();
        let mut footer = Vec::with_capacity(8 + payload.len() + TRAILER_LEN as usize);
        footer.extend_from_slice(&((payload.len() as u32) | INDEX_FLAG).to_le_bytes());
        footer.extend_from_slice(&crc32(&payload).to_le_bytes());
        footer.extend_from_slice(&payload);
        footer.extend_from_slice(&self.committed_len.to_le_bytes());
        footer.extend_from_slice(&TRAILER_MAGIC);
        let sealed = check_site(&hooks.seal, "segment seal")
            .map_err(StoreError::from)
            .and_then(|()| {
                self.io.write_all(&footer)?;
                self.io.flush()?;
                self.io.sync()?;
                Ok(())
            });
        if let Err(err) = sealed {
            // Drop the partial footer; the segment keeps accepting appends.
            if let Err(trunc) = self.io.set_len(self.committed_len) {
                self.wedged = true;
                ptm_obs::counter!("store.recovery.wedged").inc();
                ptm_obs::gauge!("store.archive.wedged").set(1);
                ptm_obs::error!(
                    "store.archive",
                    "seal rollback truncate failed; store wedged until reopen";
                    segment = self.id,
                    error = format!("{trunc}")
                );
            }
            return Err(err);
        }
        self.committed_len += footer.len() as u64;
        Ok(())
    }

    /// Truncates a just-written footer back off, returning the segment to
    /// active duty — the undo of [`ActiveSegment::seal`] for a rotation
    /// that could not be published. Wedges on a failed truncate, exactly
    /// like the other rollback paths.
    fn unseal(&mut self, committed_len: u64) {
        match self.io.set_len(committed_len) {
            Ok(()) => self.committed_len = committed_len,
            Err(err) => {
                self.wedged = true;
                ptm_obs::counter!("store.recovery.wedged").inc();
                ptm_obs::gauge!("store.archive.wedged").set(1);
                ptm_obs::error!(
                    "store.archive",
                    "unseal truncate failed; store wedged until reopen";
                    segment = self.id,
                    error = format!("{err}")
                );
            }
        }
    }
}

/// How much of a buffer [`read_exact_or_eof`] filled.
enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// `read_exact` that tells a clean EOF (nothing read) from a torn one
/// (some bytes, then EOF).
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, StoreError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(if filled == 0 {
                ReadOutcome::Eof
            } else {
                ReadOutcome::Partial
            });
        }
        filled += n;
    }
    Ok(ReadOutcome::Full)
}

/// What scanning a segment file found.
#[derive(Debug)]
pub(crate) enum ScanOutcome {
    /// A complete footer index frame: the segment is sealed.
    Sealed {
        index: SegmentIndex,
        records: u64,
        bytes: u64,
    },
    /// No footer: the segment is (still) active. Any torn tail has been
    /// truncated away.
    Active {
        index: SegmentIndex,
        records: u64,
        committed_len: u64,
        torn_bytes: u64,
    },
}

/// Sequentially validates a segment's frames (CRC per frame, key peek only
/// — bitmaps are not decoded), truncating a torn tail. Finding a complete
/// index frame proves the segment was sealed even if the trailer (or the
/// manifest update after it) never landed.
pub(crate) fn scan_segment(path: &Path, segment_id: u64) -> Result<ScanOutcome, StoreError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);

    let mut header = [0u8; 8];
    reader
        .read_exact(&mut header)
        .map_err(|_| StoreError::BadHeader)?;
    if header[0..4] != MAGIC || le_u16(&header[4..6]) != VERSION {
        return Err(StoreError::BadHeader);
    }

    let mut index = SegmentIndex::new();
    let mut records = 0u64;
    let mut offset = HEADER_LEN;
    let mut torn_bytes = 0u64;
    loop {
        let mut frame_header = [0u8; 8];
        match read_exact_or_eof(&mut reader, &mut frame_header)? {
            ReadOutcome::Eof => break,
            ReadOutcome::Partial => {
                torn_bytes = file_len - offset;
                break;
            }
            ReadOutcome::Full => {}
        }
        let len_raw = le_u32(&frame_header[0..4]);
        let expected_crc = le_u32(&frame_header[4..8]);
        let is_index = len_raw & INDEX_FLAG != 0;
        let len = len_raw & !INDEX_FLAG;
        if len > MAX_PAYLOAD {
            return Err(StoreError::CorruptFrame { offset });
        }
        let mut payload = vec![0u8; len as usize];
        match read_exact_or_eof(&mut reader, &mut payload)? {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Partial => {
                torn_bytes = file_len - offset;
                break;
            }
        }
        if crc32(&payload) != expected_crc {
            let frame_end = offset + 8 + len as u64;
            if frame_end >= file_len.saturating_sub(TRAILER_LEN) {
                // The final frame (a trailer may follow it): torn, not
                // mid-file damage.
                torn_bytes = file_len - offset;
                break;
            }
            return Err(StoreError::CorruptFrame { offset });
        }
        if is_index {
            // A complete, checksummed index frame seals the segment; its
            // contents supersede the scan (identical by construction).
            let index = SegmentIndex::decode(&payload)?;
            let records = index.len() as u64;
            return Ok(ScanOutcome::Sealed {
                index,
                records,
                bytes: file_len,
            });
        }
        let (location, period) = peek_key(&payload)?;
        index.insert(location, period, offset, len);
        records += 1;
        offset += 8 + len as u64;
        ptm_obs::counter!("store.replay.records").inc();
        if records.is_multiple_of(REPLAY_PROGRESS_EVERY) {
            ptm_obs::info!("store.replay", "segment scan progress";
                segment = segment_id, records = records, bytes = offset);
        }
    }
    if torn_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(offset)?;
        ptm_obs::counter!("store.replay.torn_bytes").add(torn_bytes);
    }
    Ok(ScanOutcome::Active {
        index,
        records,
        committed_len: offset,
        torn_bytes,
    })
}

/// Fast sealed open: trailer → index frame, no record bytes touched.
/// `None` means "no usable trailer" — the caller falls back to a scan.
fn load_sealed_index(path: &Path) -> Result<Option<(SegmentIndex, u64)>, StoreError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN + 8 + TRAILER_LEN {
        return Ok(None);
    }
    let mut trailer = [0u8; TRAILER_LEN as usize];
    file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
    file.read_exact(&mut trailer)?;
    if trailer[8..12] != TRAILER_MAGIC {
        return Ok(None);
    }
    let index_offset = le_u64(&trailer[0..8]);
    // checked_add: a corrupt trailer can carry an offset near u64::MAX,
    // and a wrapped sum here would pass validation and turn the scan
    // fallback into a hard open() failure.
    match index_offset.checked_add(8 + TRAILER_LEN) {
        Some(end) if index_offset >= HEADER_LEN && end <= file_len => {}
        _ => return Ok(None),
    }
    file.seek(SeekFrom::Start(index_offset))?;
    let mut frame_header = [0u8; 8];
    file.read_exact(&mut frame_header)?;
    let len_raw = le_u32(&frame_header[0..4]);
    if len_raw & INDEX_FLAG == 0 {
        return Ok(None);
    }
    let len = len_raw & !INDEX_FLAG;
    if len > MAX_PAYLOAD || index_offset + 8 + len as u64 + TRAILER_LEN != file_len {
        return Ok(None);
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload)?;
    if crc32(&payload) != le_u32(&frame_header[4..8]) {
        return Ok(None);
    }
    let index = SegmentIndex::decode(&payload)?;
    let records = index.len() as u64;
    Ok(Some((index, records)))
}

/// An open [`SegmentStore`] plus what recovery found on the way in.
#[derive(Debug)]
pub struct OpenedStore {
    /// The store, positioned for appends and reads.
    pub store: SegmentStore,
    /// Bytes discarded from the active segment's torn tail (0 after a
    /// clean shutdown).
    pub torn_bytes: u64,
}

/// The segmented archive. See the module docs for the on-disk format.
#[derive(Debug)]
pub struct SegmentStore {
    pub(crate) dir: PathBuf,
    pub(crate) opts: StoreOptions,
    pub(crate) manifest: Manifest,
    pub(crate) sealed: BTreeMap<u64, SealedSegment>,
    pub(crate) active: ActiveSegment,
    pub(crate) lookup: HashMap<(LocationId, PeriodId), FrameLoc>,
    pub(crate) location_set: BTreeSet<u64>,
    pub(crate) compactions: u64,
}

impl SegmentStore {
    /// Opens (or creates) a segment store at directory `dir`.
    ///
    /// Startup is O(index): sealed segments load their footer index via
    /// the trailer, only the active segment is scanned (with torn-tail
    /// truncation), orphan files from interrupted rotations or compactions
    /// are removed, and the manifest is re-committed if reconciliation
    /// changed it.
    ///
    /// # Errors
    ///
    /// Manifest/segment corruption and I/O failures — including
    /// [`StoreError::Io`] when `dir` names a regular file, which is left
    /// untouched.
    pub fn open(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<OpenedStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let _ = std::fs::remove_file(dir.join(MANIFEST_TEMP));

        let mut manifest = Manifest::load(&dir)?.unwrap_or_default();
        let mut manifest_dirty = false;

        // Drop segment files the manifest does not own: leftovers of a
        // rotation or compaction that died before its manifest commit.
        // Nothing acked ever lives in them (appends begin only after the
        // owning manifest commit), so deletion is safe.
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = parse_segment_file_name(name) {
                if manifest.segment(id).is_none() {
                    ptm_obs::warn!("store.archive", "removing orphan segment file";
                        segment = id);
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }

        let mut sealed = BTreeMap::new();
        let mut active: Option<ActiveSegment> = None;
        let mut torn_bytes = 0u64;
        {
            let _s = ptm_obs::tspan!("store.index.load");
            for meta in manifest.segments.clone() {
                let path = dir.join(segment_file_name(meta.id));
                if meta.sealed {
                    let (index, records) = match load_sealed_index(&path)? {
                        Some(loaded) => loaded,
                        None => {
                            // Trailer unusable (e.g. media damage): rebuild
                            // the index the slow way.
                            match scan_segment(&path, meta.id)? {
                                ScanOutcome::Sealed { index, records, .. } => (index, records),
                                ScanOutcome::Active { index, records, .. } => (index, records),
                            }
                        }
                    };
                    let bytes = std::fs::metadata(&path)?.len();
                    sealed.insert(
                        meta.id,
                        SealedSegment {
                            path,
                            index,
                            records,
                            bytes,
                            rank: meta.rank,
                        },
                    );
                    continue;
                }
                // The (single) unsealed entry: scan it. Finding a footer
                // means the crash landed between seal and manifest commit.
                let _scan = ptm_obs::tspan!("store.replay.scan");
                match scan_segment(&path, meta.id)? {
                    ScanOutcome::Sealed {
                        index,
                        records,
                        bytes,
                    } => {
                        sealed.insert(
                            meta.id,
                            SealedSegment {
                                path,
                                index,
                                records,
                                bytes,
                                rank: meta.rank,
                            },
                        );
                        for slot in &mut manifest.segments {
                            if slot.id == meta.id {
                                slot.sealed = true;
                                slot.records = records;
                            }
                        }
                        manifest_dirty = true;
                    }
                    ScanOutcome::Active {
                        index,
                        records,
                        committed_len,
                        torn_bytes: torn,
                    } => {
                        torn_bytes += torn;
                        active = Some(ActiveSegment::reopen(
                            &dir,
                            meta.id,
                            &opts.hooks,
                            index,
                            records,
                            committed_len,
                        )?);
                    }
                }
            }
        }

        let active = match active {
            Some(active) => active,
            None => {
                let id = manifest.next_segment_id;
                let active = ActiveSegment::create(&dir, id, &opts.hooks)?;
                manifest.next_segment_id += 1;
                manifest.segments.push(SegmentMeta {
                    id,
                    sealed: false,
                    records: 0,
                    rank: id,
                });
                manifest_dirty = true;
                active
            }
        };
        if manifest_dirty {
            manifest.commit(&dir, &opts.hooks.manifest)?;
        }

        let mut store = Self {
            dir,
            opts,
            manifest,
            sealed,
            active,
            lookup: HashMap::new(),
            location_set: BTreeSet::new(),
            compactions: 0,
        };
        store.rebuild_lookup();
        ptm_obs::gauge!("store.archive.wedged").set(0);
        store.publish_gauges();
        Ok(OpenedStore { store, torn_bytes })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live records (latest frame per `(location, period)`).
    pub fn record_count(&self) -> usize {
        self.lookup.len()
    }

    /// Locations with at least one live record.
    pub fn location_count(&self) -> usize {
        self.location_set.len()
    }

    /// Every location with a live record, ascending.
    pub fn locations(&self) -> Vec<LocationId> {
        self.location_set
            .iter()
            .map(|id| LocationId::new(*id))
            .collect()
    }

    /// Whether a live record exists for `(location, period)`.
    pub fn contains(&self, location: LocationId, period: PeriodId) -> bool {
        self.lookup.contains_key(&(location, period))
    }

    /// Live periods for `location`, ascending.
    pub fn periods_for_location(&self, location: LocationId) -> Vec<PeriodId> {
        let mut periods = BTreeSet::new();
        for segment in self.sealed.values() {
            for entry in segment.index.entries_for(location) {
                periods.insert(entry.period.get());
            }
        }
        for entry in self.active.index.entries_for(location) {
            periods.insert(entry.period.get());
        }
        periods.into_iter().map(PeriodId::new).collect()
    }

    /// Whether a failed rollback wedged the write head (appends refused
    /// until the store is reopened).
    pub fn is_wedged(&self) -> bool {
        self.active.wedged
    }

    /// Total live segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Sealed segments.
    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// Committed bytes in the active segment.
    pub fn active_bytes(&self) -> u64 {
        self.active.committed_len
    }

    /// Compactions completed by this store instance.
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// The configured durability policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.opts.sync_policy
    }

    /// Buffers a record (no file I/O until the next commit).
    ///
    /// # Errors
    ///
    /// [`StoreError::Wedged`] after a failed rollback.
    pub fn append(&mut self, record: &TrafficRecord) -> Result<(), StoreError> {
        self.active.append(record)
    }

    /// Appends every record in order, then commits once (and rotates the
    /// active segment if it crossed the size threshold). Returns how many
    /// records this call appended.
    ///
    /// # Errors
    ///
    /// I/O failures (after rollback); [`StoreError::Wedged`].
    pub fn append_all<'a, I>(&mut self, records: I) -> Result<usize, StoreError>
    where
        I: IntoIterator<Item = &'a TrafficRecord>,
    {
        let mut appended = 0usize;
        for record in records {
            self.append(record)?;
            appended += 1;
        }
        self.flush()?;
        Ok(appended)
    }

    /// Commits pending frames (fsyncs too under [`SyncPolicy::Fsync`]),
    /// then rotates if the active segment is full.
    ///
    /// # Errors
    ///
    /// I/O failures (after rollback); [`StoreError::Wedged`].
    pub fn flush(&mut self) -> Result<(), StoreError> {
        let committed = self.active.commit(self.opts.sync_policy)?;
        if !committed.is_empty() {
            let segment = self.active.id;
            for (location, period, offset, len) in committed {
                self.lookup.insert(
                    (location, period),
                    FrameLoc {
                        segment,
                        offset,
                        len,
                    },
                );
                self.location_set.insert(location.get());
            }
        }
        if self.active.committed_records > 0 && self.active.committed_len >= self.opts.rotate_bytes
        {
            self.rotate();
        }
        self.publish_gauges();
        Ok(())
    }

    /// Commits pending frames and fsyncs (explicit durability point).
    ///
    /// # Errors
    ///
    /// I/O failures; [`StoreError::Wedged`].
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.flush()?;
        if self.opts.sync_policy == SyncPolicy::Fsync {
            return Ok(());
        }
        self.active.io.sync()?;
        Ok(())
    }

    /// Commits, then seals the active segment (regardless of size) and
    /// starts a fresh one, leaving the whole store indexable — the next
    /// open is pure O(index). The clean-shutdown path.
    ///
    /// # Errors
    ///
    /// Commit failures. Seal/rotation failures are logged and deferred
    /// (the scan-based recovery covers an unsealed tail segment).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        if self.active.committed_records > 0 {
            self.rotate();
        }
        self.publish_gauges();
        Ok(())
    }

    /// Seals the active segment and swings the write head to a fresh one.
    /// Entirely best-effort: every failure mode either defers the rotation
    /// (the footer is truncated back off and the segment keeps accepting
    /// appends) or wedges the store, so a failed rotation never un-acks
    /// committed data.
    ///
    /// Ordering is load-bearing: the new segment file is created and the
    /// manifest naming it is committed *before* the write head swings.
    /// Acking appends into a segment the durable manifest does not own
    /// would hand them to `open()`'s orphan sweep on the next start.
    fn rotate(&mut self) {
        let _s = ptm_obs::tspan!("store.segment.rotate");
        let unsealed_len = self.active.committed_len;
        if let Err(err) = self.active.seal(&self.opts.hooks) {
            ptm_obs::counter!("store.segment.seal_failures").inc();
            ptm_obs::warn!("store.archive", "segment seal failed; rotation deferred";
                segment = self.active.id, error = err.to_string());
            return;
        }
        let new_id = self.manifest.next_segment_id;
        let new_active = match ActiveSegment::create(&self.dir, new_id, &self.opts.hooks) {
            Ok(active) => active,
            Err(err) => {
                ptm_obs::counter!("store.segment.rotation_deferrals").inc();
                ptm_obs::warn!("store.archive",
                    "segment create after seal failed; rotation deferred";
                    segment = new_id, error = err.to_string());
                let _ = std::fs::remove_file(self.dir.join(segment_file_name(new_id)));
                self.active.unseal(unsealed_len);
                return;
            }
        };
        let mut manifest = self.manifest.clone();
        let records = self.active.committed_records;
        for slot in &mut manifest.segments {
            if slot.id == self.active.id {
                slot.sealed = true;
                slot.records = records;
            }
        }
        manifest.next_segment_id = new_id + 1;
        manifest.segments.push(SegmentMeta {
            id: new_id,
            sealed: false,
            records: 0,
            rank: new_id,
        });
        if let Err(err) = manifest.commit(&self.dir, &self.opts.hooks.manifest) {
            // Unpublished: the new file is an orphan the next open would
            // sweep, so nothing may be acked into it. Unseal the old
            // segment and keep writing there; rotation retries on a later
            // flush.
            ptm_obs::counter!("store.segment.rotation_deferrals").inc();
            ptm_obs::warn!("store.archive",
                "manifest commit failed; rotation deferred";
                segment = self.active.id, error = err.to_string());
            drop(new_active);
            let _ = std::fs::remove_file(self.dir.join(segment_file_name(new_id)));
            self.active.unseal(unsealed_len);
            return;
        }
        let retired = std::mem::replace(&mut self.active, new_active);
        let rank = retired.id;
        self.sealed.insert(
            retired.id,
            SealedSegment {
                path: retired.path,
                index: retired.index,
                records,
                bytes: retired.committed_len,
                rank,
            },
        );
        self.manifest = manifest;
        ptm_obs::counter!("store.segment.rotations").inc();
        ptm_obs::info!("store.archive", "segment rotated";
            sealed_segment = retired.id, new_segment = new_id, records = records);
    }

    /// Reads the live record for `(location, period)` straight from its
    /// segment file (one frame, uncached), or `None` when the store has
    /// none.
    ///
    /// # Errors
    ///
    /// I/O failures and frame corruption.
    pub fn get(
        &mut self,
        location: LocationId,
        period: PeriodId,
    ) -> Result<Option<Arc<TrafficRecord>>, StoreError> {
        let Some(loc) = self.lookup.get(&(location, period)).copied() else {
            return Ok(None);
        };
        let mut record = None;
        self.read_frames(&[((), loc)], |(), payload| {
            record = Some(Arc::new(decode_record(payload)?));
            Ok(())
        })?;
        Ok(record)
    }

    /// Loads every live record for `location`, periods ascending. Frames
    /// are read in `(segment, offset)` order, and each record comes back
    /// in an `Arc` nothing else holds, so a caller can keep that `Arc` as
    /// the record's only copy instead of cloning it.
    ///
    /// # Errors
    ///
    /// I/O failures and frame corruption.
    pub fn records_for_location(
        &mut self,
        location: LocationId,
    ) -> Result<Vec<Arc<TrafficRecord>>, StoreError> {
        let mut frames: Vec<(PeriodId, FrameLoc)> = self
            .periods_for_location(location)
            .into_iter()
            .filter_map(|period| Some((period, *self.lookup.get(&(location, period))?)))
            .collect();
        frames.sort_unstable_by_key(|(_, loc)| (loc.segment, loc.offset));
        let mut records = Vec::with_capacity(frames.len());
        self.read_frames(&frames, |period, payload| {
            records.push((period.get(), decode_record(payload)?));
            Ok(())
        })?;
        records.sort_unstable_by_key(|(period, _)| *period);
        Ok(records
            .into_iter()
            .map(|(_, record)| Arc::new(record))
            .collect())
    }

    /// The frame reader behind every read. Walks `frames` in the order
    /// given, opening one file per run of frames from the same segment
    /// (callers group them by segment), and makes one seek plus one read
    /// of header and payload per frame into a buffer reused across frames.
    /// Before the buffer grows, the entry must fit its segment: `len <=
    /// MAX_PAYLOAD` and `offset + 8 + len` within the file. After the read,
    /// the header's length word must equal the entry's and the CRC must
    /// match. `visit` then gets the frame's tag and its payload.
    pub(crate) fn read_frames<T>(
        &self,
        frames: &[(T, FrameLoc)],
        mut visit: impl FnMut(&T, &[u8]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut buf = Vec::new();
        for run in frames.chunk_by(|(_, a), (_, b)| a.segment == b.segment) {
            let Some((_, first)) = run.first() else {
                continue;
            };
            // ptm-analyze: allow(reactor-blocking): store reads run on worker jobs; the reactor edge is `conns.insert` (HashMap) aliasing `SegmentIndex::insert`, whose `location.get()` aliases `SegmentStore::get`
            let mut file = File::open(self.segment_path(first.segment)?)?;
            let file_len = file.metadata()?.len();
            for (tag, loc) in run {
                let corrupt = || StoreError::CorruptFrame { offset: loc.offset };
                let end = loc.offset.checked_add(8 + u64::from(loc.len));
                if loc.len > MAX_PAYLOAD || end.is_none_or(|end| end > file_len) {
                    return Err(corrupt());
                }
                buf.resize(8 + loc.len as usize, 0);
                file.seek(SeekFrom::Start(loc.offset))?;
                file.read_exact(&mut buf)?;
                let (header, payload) = buf.split_at(8);
                if le_u32(&header[0..4]) != loc.len || crc32(payload) != le_u32(&header[4..8]) {
                    return Err(corrupt());
                }
                visit(tag, payload)?;
            }
        }
        Ok(())
    }

    /// The file holding `segment`, active or sealed.
    fn segment_path(&self, segment: u64) -> Result<&Path, StoreError> {
        if segment == self.active.id {
            return Ok(&self.active.path);
        }
        match self.sealed.get(&segment) {
            Some(sealed) => Ok(&sealed.path),
            None => Err(StoreError::MalformedRecord {
                reason: format!("lookup names unknown segment {segment}"),
            }),
        }
    }

    /// Rebuilds the store-wide lookup from segment indexes, ascending
    /// *rank* with the active segment last — higher-ranked segments
    /// supersede earlier frames for the same key. Rank, not raw id: a
    /// compacted segment's id exceeds the id of the segment that was
    /// active during the merge, but its frames are older than anything
    /// appended there afterwards.
    fn rebuild_lookup(&mut self) {
        self.lookup.clear();
        self.location_set.clear();
        let mut by_rank: Vec<(&u64, &SealedSegment)> = self.sealed.iter().collect();
        by_rank.sort_by_key(|(id, segment)| (segment.rank, **id));
        for (id, segment) in by_rank {
            for (location, entry) in segment.index.iter() {
                self.lookup.insert(
                    (location, entry.period),
                    FrameLoc {
                        segment: *id,
                        offset: entry.offset,
                        len: entry.len,
                    },
                );
                self.location_set.insert(location.get());
            }
        }
        let active_id = self.active.id;
        for (location, entry) in self.active.index.iter() {
            self.lookup.insert(
                (location, entry.period),
                FrameLoc {
                    segment: active_id,
                    offset: entry.offset,
                    len: entry.len,
                },
            );
            self.location_set.insert(location.get());
        }
    }

    pub(crate) fn publish_gauges(&self) {
        if ptm_obs::metrics_enabled() {
            ptm_obs::gauge!("store.segments").set(self.segment_count() as i64);
            ptm_obs::gauge!("store.segments.sealed").set(self.sealed_count() as i64);
            ptm_obs::gauge!("store.segment.active_bytes").set(self.active.committed_len as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_core::encoding::{EncodingScheme, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use ptm_fault::{sites, FaultAction, FaultPlan, Rule};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::io::ErrorKind;

    fn temp_dir(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ptm-segment-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
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

    fn small_rotate_opts(rotate_bytes: u64) -> StoreOptions {
        StoreOptions {
            rotate_bytes,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn roundtrip_reads_through_cache() {
        let dir = temp_dir("roundtrip");
        let records = sample_records(7, 5);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("open")
            .store;
        assert_eq!(store.append_all(&records).expect("batch"), 5);
        assert_eq!(store.record_count(), 5);
        for record in &records {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(*got, *record);
        }
        // Reads are uncached: every pass decodes the frame again and hands
        // back an Arc nothing else holds.
        for record in &records {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(Arc::strong_count(&got), 1);
            assert_eq!(*got, *record);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Copies a (flat) store directory to a fresh temp directory.
    fn copy_store(src: &Path, name: &str) -> PathBuf {
        let dst = temp_dir(name);
        std::fs::create_dir_all(&dst).expect("mkdir");
        for entry in std::fs::read_dir(src).expect("list") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
        }
        dst
    }

    /// Rewrites a sealed segment's footer index through `edit` and
    /// re-checksums the index frame, so only the edited entries lie.
    fn rewrite_footer_index(path: &Path, edit: impl FnOnce(&mut SegmentIndex)) {
        let mut bytes = std::fs::read(path).expect("read segment");
        let index_at = le_u64(&bytes[bytes.len() - TRAILER_LEN as usize..]) as usize;
        let len = (le_u32(&bytes[index_at..]) & !INDEX_FLAG) as usize;
        let payload = index_at + 8..index_at + 8 + len;
        let mut index = SegmentIndex::decode(&bytes[payload.clone()]).expect("footer index");
        edit(&mut index);
        let encoded = index.encode();
        assert_eq!(encoded.len(), len, "entry edits keep the index size");
        bytes[index_at + 4..index_at + 8].copy_from_slice(&crc32(&encoded).to_le_bytes());
        bytes[payload].copy_from_slice(&encoded);
        std::fs::write(path, bytes).expect("write segment");
    }

    #[test]
    fn records_for_location_matches_a_model_across_segments_compaction_and_reopen() {
        let dir = temp_dir("reader-model");
        let (target, other) = (LocationId::new(7), LocationId::new(8));
        let mut model: BTreeMap<(u64, u32), TrafficRecord> = BTreeMap::new();
        let check = |store: &mut SegmentStore, model: &BTreeMap<(u64, u32), TrafficRecord>| {
            for location in [target, other] {
                let got: Vec<TrafficRecord> = store
                    .records_for_location(location)
                    .expect("read")
                    .iter()
                    .map(|record| (**record).clone())
                    .collect();
                let want: Vec<TrafficRecord> = model
                    .range((location.get(), 0)..=(location.get(), u32::MAX))
                    .map(|(_, record)| record.clone())
                    .collect();
                assert_eq!(got, want, "location {}", location.get());
            }
        };
        let targets = sample_records(7, 12);
        let others = sample_records(8, 6);
        let mut store = SegmentStore::open(&dir, small_rotate_opts(400))
            .expect("open")
            .store;
        // Interleaved with another location, so the target's frames are
        // never contiguous; tiny segments rotate every couple of commits.
        for (record, neighbour) in targets.iter().zip(&others).take(6) {
            store.append_all([record, neighbour]).expect("append");
            for r in [record, neighbour] {
                model.insert((r.location().get(), r.period().get()), r.clone());
            }
        }
        assert!(store.sealed_count() >= 3, "setup must fragment the store");
        check(&mut store, &model);
        assert!(store.compact().expect("compact").new_segment.is_some());
        check(&mut store, &model);

        // Supersede a merged period, then append later periods out of
        // period order, so offset order and period order disagree.
        let altered = TrafficRecord::new(
            target,
            PeriodId::new(2),
            BitmapSize::new(1024).expect("pow2"),
        );
        assert_ne!(altered, targets[2], "the superseding frame must differ");
        let later = [11, 9, 10, 6, 8, 7].map(|period| &targets[period]);
        for record in std::iter::once(&altered).chain(later) {
            store.append_all([record]).expect("append");
            model.insert(
                (record.location().get(), record.period().get()),
                record.clone(),
            );
        }
        let segments: BTreeSet<u64> = store
            .lookup
            .iter()
            .filter(|((location, _), _)| *location == target)
            .map(|(_, loc)| loc.segment)
            .collect();
        assert!(segments.len() >= 3, "target spread over {segments:?}");
        check(&mut store, &model);
        let sealed_loc = store.lookup[&(target, PeriodId::new(0))];
        assert!(store.sealed.contains_key(&sealed_loc.segment));
        drop(store);

        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("reopen")
            .store;
        check(&mut store, &model);
        drop(store);

        let segment_of = |dir: &Path| dir.join(segment_file_name(sealed_loc.segment));
        let read_copy = |copy: &Path| {
            let result = SegmentStore::open(copy, StoreOptions::default())
                .expect("open copy")
                .store
                .records_for_location(target);
            std::fs::remove_dir_all(copy).ok();
            result
        };
        let corrupt = StoreError::CorruptFrame {
            offset: sealed_loc.offset,
        };

        // One flipped payload byte in a sealed frame fails its CRC.
        let copy = copy_store(&dir, "reader-model-flip");
        let mut bytes = std::fs::read(segment_of(&copy)).expect("read");
        bytes[(sealed_loc.offset + 8 + 30) as usize] ^= 0x01;
        std::fs::write(segment_of(&copy), bytes).expect("write");
        let err = read_copy(&copy).expect_err("flipped byte");
        assert_eq!(err.to_string(), corrupt.to_string());

        // An index entry whose len disagrees with the frame header.
        let copy = copy_store(&dir, "reader-model-len");
        rewrite_footer_index(&segment_of(&copy), |index| {
            index.insert(
                target,
                PeriodId::new(0),
                sealed_loc.offset,
                sealed_loc.len + 1,
            );
        });
        let err = read_copy(&copy).expect_err("len mismatch");
        assert_eq!(err.to_string(), corrupt.to_string());

        // Entries pointing past the end of the file, or too long to be a
        // frame at all: an error before any read or allocation.
        let file_len = std::fs::metadata(segment_of(&dir)).expect("meta").len();
        for (offset, len) in [
            (file_len, sealed_loc.len),
            (file_len - 4, sealed_loc.len),
            (u64::MAX - 4, sealed_loc.len),
            (sealed_loc.offset, MAX_PAYLOAD),
            (sealed_loc.offset, u32::MAX),
        ] {
            let copy = copy_store(&dir, "reader-model-past-end");
            rewrite_footer_index(&segment_of(&copy), |index| {
                index.insert(target, PeriodId::new(0), offset, len);
            });
            let err = read_copy(&copy).expect_err("entry past the end");
            assert_eq!(err.to_string(), format!("corrupt frame at offset {offset}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_and_reopen_is_indexed() {
        let dir = temp_dir("rotate");
        let records = sample_records(3, 12);
        {
            let mut store = SegmentStore::open(&dir, small_rotate_opts(600))
                .expect("open")
                .store;
            for record in &records {
                store.append_all([record]).expect("append");
            }
            assert!(store.sealed_count() >= 2, "tiny threshold forces rotations");
            store.checkpoint().expect("checkpoint");
        }
        let opened = SegmentStore::open(&dir, small_rotate_opts(600)).expect("reopen");
        assert_eq!(opened.torn_bytes, 0);
        let mut store = opened.store;
        assert_eq!(store.record_count(), 12);
        for record in &records {
            let got = store
                .get(record.location(), record.period())
                .expect("read")
                .expect("present");
            assert_eq!(*got, *record);
        }
        assert_eq!(
            store.periods_for_location(LocationId::new(3)).len(),
            12,
            "period listing spans every sealed segment"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_active_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let records = sample_records(5, 3);
        {
            let mut store = SegmentStore::open(&dir, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all(&records).expect("batch");
            store.sync().expect("sync");
        }
        let seg_path = dir.join(segment_file_name(0));
        let len = std::fs::metadata(&seg_path).expect("meta").len();
        let file = OpenOptions::new()
            .write(true)
            .open(&seg_path)
            .expect("open rw");
        file.set_len(len - 10).expect("truncate");
        drop(file);

        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert!(opened.torn_bytes > 0);
        let mut store = opened.store;
        assert_eq!(store.record_count(), 2);
        // The lost record can be re-appended on a clean boundary.
        store.append_all(&records[2..]).expect("repair");
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("clean");
        assert_eq!(opened.torn_bytes, 0);
        assert_eq!(opened.store.record_count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_on_exact_frame_boundary_is_clean() {
        let dir = temp_dir("boundary");
        let records = sample_records(5, 3);
        {
            let mut store = SegmentStore::open(&dir, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all(&records).expect("batch");
        }
        // Chop exactly the last frame: the cut lands on a frame boundary,
        // so recovery sees a clean two-record segment (torn_bytes 0).
        let payload_len = encode_record(&records[2]).len() as u64;
        let seg_path = dir.join(segment_file_name(0));
        let len = std::fs::metadata(&seg_path).expect("meta").len();
        let file = OpenOptions::new()
            .write(true)
            .open(&seg_path)
            .expect("open rw");
        file.set_len(len - (8 + payload_len)).expect("truncate");
        drop(file);

        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(opened.torn_bytes, 0);
        assert_eq!(opened.store.record_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_seal_and_manifest_commit_recovers_sealed() {
        let dir = temp_dir("seal-crash");
        let records = sample_records(2, 4);
        {
            let mut store = SegmentStore::open(&dir, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all(&records).expect("batch");
            // Seal the active segment by hand, but "crash" before any
            // manifest update: the manifest still says unsealed.
            store
                .active
                .seal(&StoreHooks::disabled())
                .expect("manual seal");
        }
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        let store = opened.store;
        assert_eq!(store.record_count(), 4);
        assert_eq!(
            store.sealed_count(),
            1,
            "scan must detect the footer and mark the segment sealed"
        );
        assert!(
            store
                .manifest
                .segments
                .iter()
                .any(|s| s.id == 0 && s.sealed),
            "manifest reconciled"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_seal_fault_defers_rotation_without_data_loss() {
        let dir = temp_dir("seal-fault");
        let plan = FaultPlan::builder(21)
            .rule(
                sites::STORE_SEAL,
                Rule::nth(1, FaultAction::Error(ErrorKind::Other)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            rotate_bytes: 400,
            ..StoreOptions::default()
        };
        let records = sample_records(9, 6);
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        // Every append commits fine; the first rotation attempt hits the
        // injected seal fault and is deferred, later ones succeed.
        for record in &records {
            store.append_all([record]).expect("appends never fail");
        }
        assert_eq!(store.record_count(), 6);
        assert!(!store.is_wedged());
        assert!(store.sealed_count() >= 1, "later rotations succeeded");
        drop(store);
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(opened.store.record_count(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rotation_manifest_commit_defers_and_loses_nothing() {
        let dir = temp_dir("rotate-manifest-fault");
        // Manifest commit #1 is open()'s store creation; #2 is the first
        // rotation's publish. Failing it must defer the rotation — the
        // write head may not swing to a segment the durable manifest does
        // not own, or the records acked there would be swept as an orphan
        // by the next open.
        let plan = FaultPlan::builder(31)
            .rule(
                sites::STORE_MANIFEST,
                Rule::nth(2, FaultAction::Error(ErrorKind::Other)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            rotate_bytes: 400,
            ..StoreOptions::default()
        };
        let records = sample_records(13, 6);
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        for record in &records {
            store.append_all([record]).expect("appends still ack");
        }
        assert!(!store.is_wedged(), "a deferred rotation is not a wedge");
        assert!(
            store.sealed_count() >= 1,
            "the rotation retries once the fault budget is spent"
        );
        // Kill: no checkpoint, cold reopen. The orphan sweep must not
        // find any acked record in an unowned segment file.
        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("reopen")
            .store;
        assert_eq!(
            store.record_count(),
            records.len(),
            "zero acked-record loss across the failed manifest commit"
        );
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
    fn implausible_trailer_offset_falls_back_to_scan() {
        let dir = temp_dir("bogus-trailer");
        let records = sample_records(4, 3);
        {
            let mut store = SegmentStore::open(&dir, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all(&records).expect("batch");
            store.checkpoint().expect("seal");
        }
        // Corrupt the trailer's index offset to u64::MAX: the fast-path
        // offset arithmetic must not wrap into a "plausible" value — the
        // open falls back to the frame scan (which still finds the intact
        // footer) instead of erroring out.
        let seg_path = dir.join(segment_file_name(0));
        let len = std::fs::metadata(&seg_path).expect("meta").len();
        {
            let mut file = OpenOptions::new()
                .write(true)
                .open(&seg_path)
                .expect("open rw");
            file.seek(SeekFrom::Start(len - TRAILER_LEN)).expect("seek");
            file.write_all(&u64::MAX.to_le_bytes()).expect("poison");
        }
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("open survives a bogus trailer offset")
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
    fn orphan_segment_files_are_removed_on_open() {
        let dir = temp_dir("orphan");
        {
            let mut store = SegmentStore::open(&dir, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all(&sample_records(1, 2)).expect("batch");
        }
        // A rotation/compaction that died after creating its file but
        // before the manifest commit leaves an unowned segment file.
        std::fs::write(dir.join(segment_file_name(77)), b"garbage").expect("orphan");
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert!(!dir.join(segment_file_name(77)).exists());
        assert_eq!(opened.store.record_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_batch_write_error_rolls_back_store() {
        let dir = temp_dir("midbatch");
        let plan = FaultPlan::builder(11)
            .rule(sites::STORE_WRITE, Rule::nth(1, FaultAction::Short(4)))
            .rule(
                sites::STORE_WRITE,
                Rule::nth(2, FaultAction::Error(ErrorKind::StorageFull)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            ..StoreOptions::default()
        };
        let records = sample_records(2, 3);
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        let err = store
            .append_all(&records)
            .expect_err("injected ENOSPC must surface");
        assert!(matches!(err, StoreError::Io(ref io) if io.kind() == ErrorKind::StorageFull));
        assert_eq!(store.record_count(), 0, "nothing counted past the failure");
        assert!(!store.is_wedged());
        assert_eq!(store.append_all(&records).expect("retry"), 3);
        drop(store);
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(opened.torn_bytes, 0);
        assert_eq!(opened.store.record_count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_failure_rolls_back_under_fsync_policy() {
        let dir = temp_dir("fsync-rollback");
        // fsync #1 is the first commit's; #2 fails the second commit.
        let plan = FaultPlan::builder(12)
            .rule(
                sites::STORE_SYNC,
                Rule::nth(2, FaultAction::Error(ErrorKind::Other)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            sync_policy: SyncPolicy::Fsync,
            ..StoreOptions::default()
        };
        let records = sample_records(6, 3);
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        assert_eq!(store.sync_policy(), SyncPolicy::Fsync);
        store.append_all(&records[..1]).expect("first commit");
        let committed_bytes = store.active_bytes();

        store
            .append_all(&records[1..])
            .expect_err("failed fsync must fail the commit");
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.active_bytes(), committed_bytes);
        assert_eq!(
            std::fs::metadata(dir.join(segment_file_name(0)))
                .expect("meta")
                .len(),
            committed_bytes,
            "the unsynced frames are truncated away"
        );
        assert!(!store.is_wedged());

        assert_eq!(store.append_all(&records[1..]).expect("retry syncs"), 2);
        assert_eq!(store.record_count(), 3);
        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("reopen")
            .store;
        let got: Vec<TrafficRecord> = store
            .records_for_location(LocationId::new(6))
            .expect("read")
            .iter()
            .map(|record| (**record).clone())
            .collect();
        assert_eq!(got, records, "each record exactly once, bit-exact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rollback_wedges_store_until_reopen() {
        let dir = temp_dir("wedged");
        // Write #1 lands the first commit. The second commit writes 4 bytes,
        // then hits ENOSPC, and the rollback truncate fails.
        let plan = FaultPlan::builder(13)
            .rule(sites::STORE_WRITE, Rule::nth(2, FaultAction::Short(4)))
            .rule(
                sites::STORE_WRITE,
                Rule::nth(3, FaultAction::Error(ErrorKind::StorageFull)),
            )
            .rule(
                sites::STORE_SET_LEN,
                Rule::nth(1, FaultAction::Error(ErrorKind::Other)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            ..StoreOptions::default()
        };
        let records = sample_records(3, 3);
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        store.append_all(&records[..1]).expect("acked record");

        store.append_all(&records[1..]).expect_err("commit fails");
        assert!(store.is_wedged(), "failed truncate must wedge the store");
        assert!(matches!(store.append(&records[1]), Err(StoreError::Wedged)));
        assert!(matches!(
            store.append_all(&records[1..]),
            Err(StoreError::Wedged)
        ));
        assert_eq!(store.record_count(), 1);
        drop(store);

        // A reopen discards the 4 torn bytes and keeps the acked record.
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(opened.torn_bytes, 4);
        let mut store = opened.store;
        assert!(!store.is_wedged());
        assert_eq!(store.record_count(), 1);
        assert_eq!(
            store
                .get(records[0].location(), records[0].period())
                .expect("read")
                .as_deref(),
            Some(&records[0])
        );
        assert_eq!(
            store.append_all(&records[1..]).expect("appends work again"),
            2
        );
        drop(store);
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("clean");
        assert_eq!(opened.torn_bytes, 0);
        assert_eq!(opened.store.record_count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_active_segment_is_an_error_not_a_skip() {
        let dir = temp_dir("corrupt");
        {
            let mut store = SegmentStore::open(&dir, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all(&sample_records(5, 3)).expect("batch");
        }
        let seg_path = dir.join(segment_file_name(0));
        // Flip a payload byte in the FIRST frame; complete frames follow,
        // so this is media damage, not a torn tail.
        let mut bytes = std::fs::read(&seg_path).expect("read");
        bytes[30] ^= 0xFF;
        std::fs::write(&seg_path, &bytes).expect("write");
        match SegmentStore::open(&dir, StoreOptions::default()) {
            Err(StoreError::CorruptFrame { offset }) => assert_eq!(offset, HEADER_LEN),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        assert_eq!(
            std::fs::read(&seg_path).expect("reread"),
            bytes,
            "a corrupt segment is reported, never truncated"
        );

        bytes[..4].copy_from_slice(b"NOTA");
        std::fs::write(&seg_path, &bytes).expect("write");
        assert!(matches!(
            SegmentStore::open(&dir, StoreOptions::default()),
            Err(StoreError::BadHeader)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn regular_file_at_store_path_is_refused_untouched() {
        let path = temp_dir("file-in-the-way");
        let contents = b"PTMA\x01\x00\x00\x00 not a segment directory".to_vec();
        std::fs::write(&path, &contents).expect("write file");
        assert!(matches!(
            SegmentStore::open(&path, StoreOptions::default()),
            Err(StoreError::Io(_))
        ));
        assert!(path.is_file());
        assert_eq!(std::fs::read(&path).expect("reread"), contents);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_key_append_supersedes() {
        let dir = temp_dir("supersede");
        let records = sample_records(8, 2);
        let mut altered = records[1].clone();
        altered.set_reported_index(0);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("open")
            .store;
        store.append_all(&records).expect("batch");
        store.append_all([&altered]).expect("supersede");
        assert_eq!(store.record_count(), 2, "same key counts once");
        let got = store
            .get(altered.location(), altered.period())
            .expect("read")
            .expect("present");
        assert_eq!(*got, altered, "later frame wins");
        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("reopen")
            .store;
        let got = store
            .get(altered.location(), altered.period())
            .expect("read")
            .expect("present");
        assert_eq!(*got, altered, "supersession survives reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    // --- property tests (vendored deterministic proptest stub) -----------

    use proptest::prelude::*;

    fn tiny_record(location: u64, period: u32, ones: &[usize]) -> TrafficRecord {
        let mut record = TrafficRecord::new(
            LocationId::new(location),
            PeriodId::new(period),
            BitmapSize::new(64).expect("pow2"),
        );
        for idx in ones {
            record.set_reported_index(idx % 64);
        }
        record
    }

    proptest! {
        /// Any truncation point inside the active segment — including one
        /// landing exactly on a frame boundary — recovers the longest
        /// clean prefix, never errors, and leaves the file appendable.
        #[test]
        fn scan_recovers_any_truncation(
            periods in 1u32..5,
            ones in proptest::collection::vec(0usize..64, 1..8),
            cut_back in 0u64..200,
        ) {
            let dir = temp_dir(&format!("prop-tear-{periods}-{cut_back}"));
            let records: Vec<TrafficRecord> =
                (0..periods).map(|p| tiny_record(1, p, &ones)).collect();
            let mut frame_ends = vec![HEADER_LEN];
            {
                let mut store = SegmentStore::open(&dir, StoreOptions::default())
                    .expect("open").store;
                store.append_all(&records).expect("batch");
                for record in &records {
                    let last = *frame_ends.last().expect("nonempty");
                    frame_ends.push(last + 8 + encode_record(record).len() as u64);
                }
            }
            let seg_path = dir.join(segment_file_name(0));
            let len = std::fs::metadata(&seg_path).expect("meta").len();
            let cut = len.saturating_sub(cut_back).max(HEADER_LEN);
            let file = OpenOptions::new().write(true).open(&seg_path).expect("rw");
            file.set_len(cut).expect("truncate");
            drop(file);

            let survivors = frame_ends.iter().filter(|end| **end <= cut).count() - 1;
            let on_boundary = frame_ends.contains(&cut);
            let opened = SegmentStore::open(&dir, StoreOptions::default())
                .expect("recovery never errors");
            prop_assert_eq!(opened.store.record_count(), survivors);
            prop_assert_eq!(opened.torn_bytes == 0, on_boundary);

            // The recovered store accepts appends on a clean boundary.
            let mut store = opened.store;
            store.append_all(&records[survivors..]).expect("repair");
            prop_assert_eq!(store.record_count(), records.len());
            std::fs::remove_dir_all(&dir).ok();
        }

        /// Segment index encode/decode is lossless for arbitrary entry
        /// sets, and every truncation of the encoding is rejected.
        #[test]
        fn index_roundtrips_and_rejects_truncation(
            entries in proptest::collection::vec(
                (0u64..50, 0u32..100, 8u64..100_000, 1u32..10_000), 0..40),
            cut in any::<proptest::sample::Index>(),
        ) {
            let mut index = SegmentIndex::new();
            for (location, period, offset, len) in &entries {
                index.insert(LocationId::new(*location), PeriodId::new(*period), *offset, *len);
            }
            let bytes = index.encode();
            let back = SegmentIndex::decode(&bytes).expect("roundtrip");
            prop_assert_eq!(&back, &index);
            if bytes.len() > 4 {
                let cut = 4 + cut.index(bytes.len() - 4);
                if cut < bytes.len() {
                    prop_assert!(SegmentIndex::decode(&bytes[..cut]).is_err());
                }
            }
        }
    }
}
