//! The segmented archive (storage format v3).
//!
//! A store is a **directory**: a CRC-checked [`Manifest`] naming the live
//! segment set and which of its segments are sealed, plus one
//! `seg-<id>.ptms` file per segment. A segment file is a header followed by
//! CRC frames and nothing else:
//!
//! ```text
//! segment: "PTMS" (4) | version u16 = 3 | reserved u16
//!          record frames:  len u32 | crc32 u32 | payload
//! ```
//!
//! Writes go to the single *active* segment (transactional commits through
//! the [`StorageIo`] fault boundary) and rotate to a fresh segment once the
//! active one reaches `rotate_bytes`. An append builds its frame in place
//! in the pending buffer: header reserved, record encoded after it, the
//! payload slice checksummed (unless the caller supplied its CRC, see
//! [`SegmentStore::append_all_with_crc`]) and the header backfilled.
//! Rotation fsyncs the outgoing segment and commits a manifest that marks
//! it sealed with its exact frame count, so every sealed segment is one
//! rotation. A clean shutdown ([`SegmentStore::checkpoint`]) seals nothing:
//! it fsyncs the active segment and records its frame count in the
//! manifest.
//!
//! The archive is a log: a second frame for a `(location, period)` key is
//! kept, not superseded, and nothing is ever rewritten. Key uniqueness is
//! the daemon's invariant, checked against its query engine before
//! anything is appended.
//!
//! [`SegmentStore::open`] reads every segment front to back, once, through
//! one frame reader (`read_segment`, which also serves
//! [`SegmentStore::records_for_location`]): every frame's length word is
//! bounded before anything is allocated, its CRC checked and its payload
//! decoded. Damage is judged by the manifest. A sealed segment with a short
//! or bad frame, or with a frame count other than the manifest's, is
//! [`StoreError::CorruptFrame`] and is never truncated; so is an active
//! segment missing any of the frames its last checkpoint recorded. Only
//! the frames past those get torn-tail recovery: a final frame cut short,
//! or failing its CRC with nothing after it, is discarded and the file
//! truncated back to the last complete frame. A directory without a
//! manifest owns no segment: it is refused with
//! [`StoreError::MissingManifest`] when any segment file in it holds a
//! complete frame, and otherwise its frameless segment files are swept.

use crate::codec::{decode_record, encode_record_into, peek_key, StoreError};
use crate::crc32::crc32;
use crate::io::{build_io, check_site, StorageIo, StoreHooks, SyncPolicy};
use crate::manifest::{Manifest, SegmentMeta, MANIFEST_TEMP};
use ptm_core::record::TrafficRecord;
use ptm_core::LocationId;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"PTMS";
const VERSION: u16 = 3;
const HEADER_LEN: u64 = 8;
/// A frame's `len u32 | crc32 u32` prefix.
const FRAME_HEADER_LEN: usize = 8;
const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;
/// The frame reader's buffer: one sequential read per 64 KiB of segment.
const READ_BUFFER: usize = 64 * 1024;
/// Open progress cadence: one structured event per this many records.
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

/// `seg-<id>.ptms`, zero-padded so lexicographic order is id order.
fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.ptms")
}

/// Inverse of [`segment_file_name`].
fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".ptms")?
        .parse()
        .ok()
}

/// The header every segment file starts with.
fn segment_header() -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header
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

/// The write head: one unsealed segment with buffered, transactional
/// commits.
#[derive(Debug)]
struct ActiveSegment {
    id: u64,
    io: Box<dyn StorageIo>,
    committed_len: u64,
    committed_records: u64,
    pending: Vec<u8>,
    /// The location of each pending frame, in append order.
    pending_locations: Vec<LocationId>,
    wedged: bool,
}

impl ActiveSegment {
    /// Creates a fresh segment file, or rewrites one that lost its header
    /// (header via plain I/O, appends through the hooks — fault schedules
    /// start at the first record write).
    fn create(dir: &Path, id: u64, hooks: &StoreHooks) -> Result<Self, StoreError> {
        let path = dir.join(segment_file_name(id));
        {
            let mut file = File::create(&path)?;
            file.write_all(&segment_header())?;
            file.flush()?;
        }
        Self::reopen(dir, id, hooks, 0, HEADER_LEN)
    }

    /// Reattaches the write head to an existing segment file whose frames
    /// have already been read (and torn tail truncated).
    fn reopen(
        dir: &Path,
        id: u64,
        hooks: &StoreHooks,
        records: u64,
        committed_len: u64,
    ) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .append(true)
            .open(dir.join(segment_file_name(id)))?;
        Ok(Self {
            id,
            io: build_io(file, hooks),
            committed_len,
            committed_records: records,
            pending: Vec::new(),
            pending_locations: Vec::new(),
            wedged: false,
        })
    }

    /// Buffers one frame. `crc` is the payload's CRC-32 when the caller
    /// already holds it; the frame is checksummed here otherwise.
    fn append(&mut self, record: &TrafficRecord, crc: Option<u32>) -> Result<(), StoreError> {
        if self.wedged {
            return Err(StoreError::Wedged);
        }
        let header_at = self.pending.len();
        self.pending.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        encode_record_into(record, &mut self.pending);
        let payload = &self.pending[header_at + FRAME_HEADER_LEN..];
        let len = (payload.len() as u32).to_le_bytes();
        let crc = match crc {
            Some(crc) => {
                debug_assert_eq!(crc, crc32(payload), "supplied CRC is not the payload's");
                crc
            }
            None => crc32(payload),
        }
        .to_le_bytes();
        self.pending[header_at..header_at + 4].copy_from_slice(&len);
        self.pending[header_at + 4..header_at + FRAME_HEADER_LEN].copy_from_slice(&crc);
        self.pending_locations.push(record.location());
        Ok(())
    }

    /// Writes everything pending and returns the committed frames'
    /// locations, or rolls the file back to the committed watermark
    /// (wedging on a failed truncate).
    fn commit(&mut self, sync_policy: SyncPolicy) -> Result<Vec<LocationId>, StoreError> {
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
        self.committed_records += self.pending_locations.len() as u64;
        self.pending.clear();
        Ok(std::mem::take(&mut self.pending_locations))
    }

    fn rollback(&mut self) {
        let dropped_bytes = self.pending.len() as u64;
        let dropped_records = self.pending_locations.len();
        self.pending.clear();
        self.pending_locations.clear();
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

    /// Makes the committed frames durable before a manifest marks this
    /// segment sealed. Consults the `store.seal` fault site first; on any
    /// failure nothing changed and the segment stays the write head.
    fn seal(&mut self, hooks: &StoreHooks) -> Result<(), StoreError> {
        debug_assert!(self.pending.is_empty(), "seal requires a committed segment");
        check_site(&hooks.seal, "segment seal")?;
        self.io.sync()?;
        Ok(())
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

/// What one [`read_segment`] pass found.
#[derive(Debug, Clone, Copy)]
struct Pass {
    /// Complete, CRC-checked frames read.
    frames: u64,
    /// The offset just past the last of them; 0 when the file is shorter
    /// than its header.
    end: u64,
    /// Bytes after `end`: a final frame cut short, or failing its CRC with
    /// nothing after it. 0 when the segment ends on a frame boundary.
    torn_bytes: u64,
}

impl Pass {
    /// Requires exactly `records` frames and a clean end, as the manifest
    /// promises for a sealed segment.
    fn check_count(self, records: u64) -> Result<(), StoreError> {
        if self.torn_bytes > 0 || self.frames != records {
            return Err(StoreError::CorruptFrame { offset: self.end });
        }
        Ok(())
    }

    /// Requires at least the `records` frames the manifest promises for
    /// the active segment (those its last checkpoint made durable); only
    /// frames past them may be missing or torn.
    fn check_prefix(self, records: u64) -> Result<(), StoreError> {
        if self.frames < records {
            return Err(StoreError::CorruptFrame { offset: self.end });
        }
        Ok(())
    }
}

/// The one frame reader: reads the segment file at `path` front to back,
/// up to `limit` bytes, through one buffered reader and one frame buffer
/// reused across frames. A file shorter than its header holds no frame
/// (its bytes are torn); a header with the wrong magic or version is
/// [`StoreError::BadHeader`]. Each frame's length word is bounded by
/// `MAX_PAYLOAD` before the buffer grows, its CRC is checked, and `visit`
/// gets its payload. A final frame cut short, or failing its CRC with
/// nothing after it, ends the pass as torn (the caller decides what that
/// means); a CRC failure with bytes after it is media damage,
/// [`StoreError::CorruptFrame`] at that frame's offset.
fn read_segment(
    path: &Path,
    limit: u64,
    mut visit: impl FnMut(&[u8]) -> Result<(), StoreError>,
) -> Result<Pass, StoreError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len().min(limit);
    let mut reader = BufReader::with_capacity(READ_BUFFER, file.take(len));
    let mut header = [0u8; HEADER_LEN as usize];
    if !matches!(
        read_exact_or_eof(&mut reader, &mut header)?,
        ReadOutcome::Full
    ) {
        return Ok(Pass {
            frames: 0,
            end: 0,
            torn_bytes: len,
        });
    }
    if header[0..4] != MAGIC || le_u16(&header[4..6]) != VERSION {
        return Err(StoreError::BadHeader);
    }
    let mut pass = Pass {
        frames: 0,
        end: HEADER_LEN,
        torn_bytes: 0,
    };
    let mut frame = Vec::new();
    loop {
        frame.resize(FRAME_HEADER_LEN, 0);
        match read_exact_or_eof(&mut reader, &mut frame)? {
            ReadOutcome::Eof => return Ok(pass),
            ReadOutcome::Partial => break,
            ReadOutcome::Full => {}
        }
        let payload_len = le_u32(&frame[0..4]);
        if payload_len > MAX_PAYLOAD {
            return Err(StoreError::CorruptFrame { offset: pass.end });
        }
        frame.resize(FRAME_HEADER_LEN + payload_len as usize, 0);
        match read_exact_or_eof(&mut reader, &mut frame[FRAME_HEADER_LEN..])? {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Partial => break,
        }
        let frame_end = pass.end + frame.len() as u64;
        if crc32(&frame[FRAME_HEADER_LEN..]) != le_u32(&frame[4..8]) {
            if frame_end < len {
                return Err(StoreError::CorruptFrame { offset: pass.end });
            }
            break;
        }
        visit(&frame[FRAME_HEADER_LEN..])?;
        pass.frames += 1;
        pass.end = frame_end;
    }
    pass.torn_bytes = len - pass.end;
    Ok(pass)
}

/// Refuses a store directory that has no manifest but holds a segment file
/// with a complete frame. Without a manifest every segment file is unowned,
/// and `open`'s orphan sweep would delete acked records. A first open
/// creates its segment before its first manifest commit, so a crash there
/// leaves a segment with no frame, which the sweep may still remove. Reads
/// only; every file is left as it was.
fn refuse_unowned_frames(dir: &Path) -> Result<(), StoreError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(id) = name.to_str().and_then(parse_segment_file_name) else {
            continue;
        };
        if read_segment(&entry.path(), u64::MAX, |_| Ok(()))?.frames > 0 {
            return Err(StoreError::MissingManifest { segment: id });
        }
    }
    Ok(())
}

/// An open [`SegmentStore`] plus what the open read and recovered.
#[derive(Debug)]
pub struct OpenedStore {
    /// The store, positioned for appends.
    pub store: SegmentStore,
    /// Every record in the archive, in manifest order, each in an `Arc`
    /// nothing else holds, so a caller can keep that `Arc` as the record's
    /// only copy. A key written twice comes back twice.
    pub records: Vec<Arc<TrafficRecord>>,
    /// Bytes discarded from the active segment's torn tail, or from a
    /// header a crash cut short (0 after a clean shutdown).
    pub torn_bytes: u64,
}

/// The segmented archive. See the module docs for the on-disk format.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    opts: StoreOptions,
    manifest: Manifest,
    active: ActiveSegment,
    location_set: BTreeSet<u64>,
}

impl SegmentStore {
    /// Opens (or creates) a segment store at directory `dir`, reading
    /// every record in it.
    ///
    /// One pass: orphan files from interrupted rotations are removed (a
    /// directory without a manifest is refused instead when any segment
    /// file in it holds a complete frame), then
    /// every segment the manifest names is read front to back once (a
    /// `store.replay.scan` span each) and every record decoded. Only the
    /// active segment's frames past its checkpointed count get torn-tail
    /// truncation; an active segment that lost its header with nothing
    /// checkpointed is rewritten empty, its bytes counted as torn.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingManifest`] when there is no `MANIFEST` but a
    /// segment file holds a complete frame (every file left untouched);
    /// [`StoreError::BadHeader`] for a manifest or segment of another
    /// format version (left untouched); [`StoreError::CorruptFrame`] for a
    /// damaged frame, a sealed segment whose frame count differs from the
    /// manifest's, or an active segment missing a checkpointed frame, a
    /// header cut short included (never truncated); I/O failures — including
    /// [`StoreError::Io`] when `dir` names a regular file, which is left
    /// untouched.
    pub fn open(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<OpenedStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let _ = std::fs::remove_file(dir.join(MANIFEST_TEMP));

        let mut manifest = match Manifest::load(&dir)? {
            Some(manifest) => manifest,
            None => {
                refuse_unowned_frames(&dir)?;
                Manifest::default()
            }
        };

        // Drop segment files the manifest does not own: leftovers of a
        // rotation that died before its manifest commit, or of a first open
        // that died before its first one.
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

        let mut records: Vec<Arc<TrafficRecord>> = Vec::new();
        let mut location_set = BTreeSet::new();
        let mut active_pass = None;
        for meta in &manifest.segments {
            let _scan = ptm_obs::tspan!("store.replay.scan");
            let pass = read_segment(&dir.join(segment_file_name(meta.id)), u64::MAX, |payload| {
                let record = decode_record(payload)?;
                location_set.insert(record.location().get());
                records.push(Arc::new(record));
                if (records.len() as u64).is_multiple_of(REPLAY_PROGRESS_EVERY) {
                    ptm_obs::info!("store.replay", "archive read progress";
                        segment = meta.id, records = records.len() as u64);
                }
                Ok(())
            })?;
            ptm_obs::counter!("store.replay.records").add(pass.frames);
            if meta.sealed {
                pass.check_count(meta.records)?;
            } else {
                pass.check_prefix(meta.records)?;
                active_pass = Some((meta.id, pass));
            }
        }

        // Every segment checked out; only now touch the active one's tail.
        let mut torn_bytes = 0u64;
        let active = match active_pass {
            Some((id, pass)) => {
                if pass.torn_bytes > 0 {
                    ptm_obs::counter!("store.replay.torn_bytes").add(pass.torn_bytes);
                    torn_bytes = pass.torn_bytes;
                }
                if pass.end < HEADER_LEN {
                    // Shorter than its header with nothing checkpointed: a
                    // crash before the file's first fsync. It holds nothing.
                    ptm_obs::warn!("store.archive", "active segment had no header; rewritten empty";
                        segment = id, torn_bytes = torn_bytes);
                    ActiveSegment::create(&dir, id, &opts.hooks)?
                } else {
                    if pass.torn_bytes > 0 {
                        let file = OpenOptions::new()
                            .write(true)
                            .open(dir.join(segment_file_name(id)))?;
                        file.set_len(pass.end)?;
                    }
                    ActiveSegment::reopen(&dir, id, &opts.hooks, pass.frames, pass.end)?
                }
            }
            None => {
                let id = manifest.next_segment_id;
                let active = ActiveSegment::create(&dir, id, &opts.hooks)?;
                manifest.next_segment_id += 1;
                manifest.segments.push(SegmentMeta {
                    id,
                    sealed: false,
                    records: 0,
                });
                manifest.commit(&dir, &opts.hooks.manifest)?;
                active
            }
        };

        let store = Self {
            dir,
            opts,
            manifest,
            active,
            location_set,
        };
        ptm_obs::gauge!("store.archive.wedged").set(0);
        store.publish_gauges();
        Ok(OpenedStore {
            store,
            records,
            torn_bytes,
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed record frames, sealed and active. The store keeps every
    /// frame, so a key appended twice counts twice.
    pub fn record_count(&self) -> usize {
        let sealed: u64 = self
            .manifest
            .segments
            .iter()
            .filter(|s| s.sealed)
            .map(|s| s.records)
            .sum();
        (sealed + self.active.committed_records) as usize
    }

    /// Every location with a committed record, ascending.
    pub fn locations(&self) -> Vec<LocationId> {
        self.location_set
            .iter()
            .map(|id| LocationId::new(*id))
            .collect()
    }

    /// Whether a failed rollback wedged the write head (appends refused
    /// until the store is reopened).
    pub fn is_wedged(&self) -> bool {
        self.active.wedged
    }

    /// Total live segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Sealed segments.
    pub fn sealed_count(&self) -> usize {
        self.manifest.segments.iter().filter(|s| s.sealed).count()
    }

    /// Committed bytes in the active segment.
    pub fn active_bytes(&self) -> u64 {
        self.active.committed_len
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
        self.active.append(record, None)
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
        self.commit_all(records.into_iter().map(|record| (record, None)))
    }

    /// [`SegmentStore::append_all`] for records whose encoded payload's
    /// CRC-32 the caller already holds: each frame carries its supplied
    /// CRC instead of a second pass over the payload. The daemon derives
    /// it from the wire frame's verified CRC, which covers the same bytes
    /// because the record codec is canonical (`decode_record` then
    /// `encode_record_into` gives back the bytes decoded). Debug builds
    /// check every supplied CRC against the payload.
    ///
    /// # Errors
    ///
    /// I/O failures (after rollback); [`StoreError::Wedged`].
    pub fn append_all_with_crc<'a, I>(&mut self, records: I) -> Result<usize, StoreError>
    where
        I: IntoIterator<Item = (&'a TrafficRecord, u32)>,
    {
        self.commit_all(records.into_iter().map(|(record, crc)| (record, Some(crc))))
    }

    /// The one append path: buffers each record's frame, under its
    /// supplied CRC or a computed one, then commits once.
    fn commit_all<'a>(
        &mut self,
        records: impl Iterator<Item = (&'a TrafficRecord, Option<u32>)>,
    ) -> Result<usize, StoreError> {
        let mut appended = 0usize;
        for (record, crc) in records {
            self.active.append(record, crc)?;
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
        for location in self.active.commit(self.opts.sync_policy)? {
            self.location_set.insert(location.get());
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

    /// Commits and fsyncs the active segment, then commits a manifest that
    /// records its frame count — the clean-shutdown path. Nothing is sealed
    /// and no file is created; the next open holds those frames to the
    /// sealed-segment standard. A store with no frames since the last
    /// checkpoint commits no manifest.
    ///
    /// # Errors
    ///
    /// Commit and fsync failures. A failed manifest commit is logged and
    /// leaves the old count: the frames are already fsynced, so they reopen
    /// as an unpromised tail.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        let (id, records) = (self.active.id, self.active.committed_records);
        if self
            .manifest
            .segment(id)
            .is_some_and(|s| s.records >= records)
        {
            return Ok(());
        }
        let mut manifest = self.manifest.clone();
        for slot in &mut manifest.segments {
            if slot.id == id {
                slot.records = records;
            }
        }
        match manifest.commit(&self.dir, &self.opts.hooks.manifest) {
            Ok(()) => self.manifest = manifest,
            Err(err) => {
                ptm_obs::warn!("store.archive",
                    "checkpoint manifest commit failed; frames stay an unpromised tail";
                    segment = id, error = err.to_string());
            }
        }
        Ok(())
    }

    /// Seals the active segment and swings the write head to a fresh one:
    /// check the `store.seal` site and fsync the outgoing segment, create
    /// the next segment file, commit the manifest. Entirely best-effort:
    /// any failure defers the rotation with the outgoing segment still the
    /// write head, so a failed rotation never un-acks committed data.
    ///
    /// Ordering is load-bearing: the new segment file is created and the
    /// manifest naming it is committed *before* the write head swings.
    /// Acking appends into a segment the durable manifest does not own
    /// would hand them to `open()`'s orphan sweep on the next start.
    fn rotate(&mut self) {
        let _s = ptm_obs::tspan!("store.segment.rotate");
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
        });
        if let Err(err) = manifest.commit(&self.dir, &self.opts.hooks.manifest) {
            // Unpublished: the new file is an orphan the next open would
            // sweep, so nothing may be acked into it. Keep writing to the
            // old segment; rotation retries on a later flush.
            ptm_obs::counter!("store.segment.rotation_deferrals").inc();
            ptm_obs::warn!("store.archive",
                "manifest commit failed; rotation deferred";
                segment = self.active.id, error = err.to_string());
            drop(new_active);
            let _ = std::fs::remove_file(self.dir.join(segment_file_name(new_id)));
            return;
        }
        let retired = std::mem::replace(&mut self.active, new_active);
        self.manifest = manifest;
        ptm_obs::counter!("store.segment.rotations").inc();
        ptm_obs::info!("store.archive", "segment rotated";
            sealed_segment = retired.id, new_segment = new_id, records = records);
    }

    /// Loads every committed record for `location`, periods ascending, by
    /// a pass over the whole archive through the same frame reader `open`
    /// uses (only matching frames are decoded). Each record comes back in
    /// an `Arc` nothing else holds. A key written twice comes back twice.
    ///
    /// # Errors
    ///
    /// I/O failures and frame corruption, including a segment whose frame
    /// count differs from what the store committed to it.
    pub fn records_for_location(
        &mut self,
        location: LocationId,
    ) -> Result<Vec<Arc<TrafficRecord>>, StoreError> {
        let mut records = Vec::new();
        for meta in &self.manifest.segments {
            let (limit, frames) = if meta.sealed {
                (u64::MAX, meta.records)
            } else {
                (self.active.committed_len, self.active.committed_records)
            };
            let path = self.dir.join(segment_file_name(meta.id));
            read_segment(&path, limit, |payload| {
                if peek_key(payload)?.0 == location {
                    records.push(decode_record(payload)?);
                }
                Ok(())
            })?
            .check_count(frames)?;
        }
        records.sort_by_key(|record| record.period().get());
        Ok(records.into_iter().map(Arc::new).collect())
    }

    fn publish_gauges(&self) {
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
    use crate::codec::encode_record;
    use crate::manifest::MANIFEST_FILE;
    use ptm_core::encoding::{EncodingScheme, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use ptm_core::record::PeriodId;
    use ptm_fault::{sites, FaultAction, FaultPlan, Rule};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;
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

    fn owned(records: &[Arc<TrafficRecord>]) -> Vec<TrafficRecord> {
        records.iter().map(|record| (**record).clone()).collect()
    }

    /// Every committed record, read back through `records_for_location`,
    /// ordered by location, then period.
    fn read_back(store: &mut SegmentStore) -> Vec<TrafficRecord> {
        let mut out = Vec::new();
        for location in store.locations() {
            out.extend(owned(&store.records_for_location(location).expect("read")));
        }
        out
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

    /// Every file in a store directory, by name, with its bytes.
    fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .expect("list")
            .map(|entry| {
                let entry = entry.expect("entry");
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).expect("read"))
            })
            .collect()
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
        // Reads are uncached: every pass decodes the frames again and hands
        // back Arcs nothing else holds.
        for _ in 0..2 {
            let got = store
                .records_for_location(LocationId::new(7))
                .expect("read");
            assert!(got.iter().all(|record| Arc::strong_count(record) == 1));
            assert_eq!(owned(&got), records);
        }
        drop(store);
        // The open hands over what it read the same way.
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert!(opened
            .records
            .iter()
            .all(|record| Arc::strong_count(record) == 1));
        assert_eq!(owned(&opened.records), records);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Damage done to a segment file's bytes.
    type Damage = fn(&mut Vec<u8>);

    fn set_len_word(frame: &mut [u8], len: u32) {
        frame[0..4].copy_from_slice(&len.to_le_bytes());
    }

    #[test]
    fn records_for_location_matches_a_model_across_segments_compaction_and_reopen() {
        let dir = temp_dir("reader-model");
        let (target, other) = (LocationId::new(7), LocationId::new(8));
        let mut model: BTreeMap<(u64, u32), TrafficRecord> = BTreeMap::new();
        let check = |store: &mut SegmentStore, model: &BTreeMap<(u64, u32), TrafficRecord>| {
            for location in [target, other] {
                let got = owned(&store.records_for_location(location).expect("read"));
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

        // Later periods out of period order, so file order and period
        // order disagree.
        for record in [11, 9, 10, 6, 8, 7].map(|period| &targets[period]) {
            store.append_all([record]).expect("append");
            model.insert(
                (record.location().get(), record.period().get()),
                record.clone(),
            );
        }
        assert!(store.segment_count() >= 3, "target spread over segments");
        check(&mut store, &model);
        let sealed_id = store
            .manifest
            .segments
            .iter()
            .find(|segment| segment.sealed)
            .expect("a sealed segment")
            .id;
        drop(store);

        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        let mut from_open = owned(&opened.records);
        from_open.sort_by_key(|record| (record.location().get(), record.period().get()));
        assert_eq!(from_open, model.values().cloned().collect::<Vec<_>>());
        let mut store = opened.store;
        check(&mut store, &model);
        drop(store);

        // Damage to the first frame of a sealed segment: a store opened
        // before it refuses its next read, and `open` refuses the archive,
        // both before any oversized allocation and without truncating.
        let cases: [(&str, Damage); 5] = [
            ("flip", |bytes| bytes[HEADER_LEN as usize + 8 + 30] ^= 0x01),
            ("len-plus-one", |bytes| {
                let len = le_u32(&bytes[8..12]);
                set_len_word(&mut bytes[8..], len + 1);
            }),
            ("past-end", |bytes| {
                let len = bytes.len() as u32;
                set_len_word(&mut bytes[8..], len);
            }),
            ("over-max", |bytes| {
                set_len_word(&mut bytes[8..], MAX_PAYLOAD + 1)
            }),
            ("u32-max", |bytes| set_len_word(&mut bytes[8..], u32::MAX)),
        ];
        for (name, damage) in cases {
            let copy = copy_store(&dir, &format!("reader-model-{name}"));
            let segment = copy.join(segment_file_name(sealed_id));
            let mut live = SegmentStore::open(&copy, StoreOptions::default())
                .expect("open copy")
                .store;
            let mut bytes = std::fs::read(&segment).expect("read");
            damage(&mut bytes);
            std::fs::write(&segment, &bytes).expect("write");
            let err = live.records_for_location(target).expect_err(name);
            assert_eq!(err.to_string(), "corrupt frame at offset 8", "{name}");
            drop(live);
            let err = SegmentStore::open(&copy, StoreOptions::default()).expect_err(name);
            assert_eq!(err.to_string(), "corrupt frame at offset 8", "{name}");
            assert_eq!(std::fs::read(&segment).expect("reread"), bytes, "{name}");
            std::fs::remove_dir_all(&copy).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_and_reopen_is_indexed() {
        let dir = temp_dir("rotate");
        let records = sample_records(3, 12);
        {
            // Five frames per segment: two rotations, then a two-frame tail.
            let mut store = SegmentStore::open(&dir, small_rotate_opts(700))
                .expect("open")
                .store;
            for record in &records {
                store.append_all([record]).expect("append");
            }
            assert!(store.sealed_count() >= 2, "tiny threshold forces rotations");
            let sealed = store.sealed_count();
            store.checkpoint().expect("checkpoint");
            assert_eq!(store.sealed_count(), sealed, "a checkpoint seals nothing");
        }
        // The manifest's counts cover every record; the reopen reads each
        // segment once and hands every record over.
        let opened = SegmentStore::open(&dir, small_rotate_opts(700)).expect("reopen");
        assert_eq!(opened.torn_bytes, 0);
        assert_eq!(owned(&opened.records), records);
        let mut store = opened.store;
        assert_eq!(store.record_count(), 12);
        let active = store
            .manifest
            .segment(store.active.id)
            .expect("active entry");
        assert_eq!(
            (active.sealed, active.records),
            (false, 2),
            "checkpoint recorded the tail's frames"
        );
        assert_eq!(store.active.committed_records, 2);
        assert_eq!(read_back(&mut store), records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_restarts_checkpoint_one_active_segment() {
        let dir = temp_dir("restarts");
        // A manifest-site rule that never fires: its op count is the
        // number of manifest commits.
        let plan = FaultPlan::builder(41)
            .rule(
                sites::STORE_MANIFEST,
                Rule::nth(1_000, FaultAction::Error(ErrorKind::Other)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            ..StoreOptions::default()
        };
        let records = sample_records(2, 15);
        for cycle in records.chunks(3) {
            let mut store = SegmentStore::open(&dir, opts.clone()).expect("open").store;
            store.append_all(cycle).expect("append");
            store.checkpoint().expect("checkpoint");
        }
        // The store's creation, then one checkpoint per cycle.
        assert_eq!(opts.hooks.manifest.ops(), 6);
        let files: Vec<String> = snapshot(&dir)
            .into_keys()
            .filter(|name| name.starts_with("seg-"))
            .collect();
        assert_eq!(
            files,
            [segment_file_name(0)],
            "no clean restart made a segment"
        );
        let opened = SegmentStore::open(&dir, opts.clone()).expect("reopen");
        assert_eq!(opened.torn_bytes, 0);
        assert_eq!(owned(&opened.records), records);
        let mut store = opened.store;
        assert_eq!(store.sealed_count(), 0);
        assert_eq!(
            store.manifest.segments,
            [SegmentMeta {
                id: 0,
                sealed: false,
                records: 15
            }]
        );
        // A shutdown with no writes commits nothing.
        store.checkpoint().expect("checkpoint");
        assert_eq!(opts.hooks.manifest.ops(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_checkpoint_manifest_commit_keeps_the_old_count() {
        let dir = temp_dir("checkpoint-fault");
        // Manifest commit #1 creates the store; #2 is the checkpoint's.
        let plan = FaultPlan::builder(43)
            .rule(
                sites::STORE_MANIFEST,
                Rule::nth(2, FaultAction::Error(ErrorKind::Other)),
            )
            .build()
            .expect("plan");
        let opts = StoreOptions {
            hooks: StoreHooks::from_plan(&plan),
            ..StoreOptions::default()
        };
        let records = sample_records(5, 3);
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        store.append_all(&records).expect("append");
        store
            .checkpoint()
            .expect("a failed manifest commit is not an error");
        assert_eq!(store.manifest.segments[0].records, 0, "the old count stays");
        drop(store);
        // The fsynced frames reopen as an unpromised tail.
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(opened.torn_bytes, 0);
        assert_eq!(owned(&opened.records), records);
        assert_eq!(opened.store.manifest.segments[0].records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// How the frames of [`promised_ten`] were made durable.
    #[derive(Debug, Clone, Copy)]
    enum Promise {
        /// `checkpoint`: the active segment, its count in the manifest.
        Checkpoint,
        /// Rotation: a sealed segment.
        Rotation,
    }

    /// Ten records in segment 0, promised by the manifest as `how` says,
    /// the segment file's length, and the length of each frame.
    fn promised_ten(name: &str, how: Promise) -> (PathBuf, u64, u64) {
        let dir = temp_dir(&format!("{name}-{how:?}"));
        let records = sample_records(6, 10);
        let opts = match how {
            Promise::Checkpoint => StoreOptions::default(),
            Promise::Rotation => small_rotate_opts(1),
        };
        let mut store = SegmentStore::open(&dir, opts).expect("open").store;
        store.append_all(&records).expect("batch");
        match how {
            Promise::Checkpoint => {
                store.checkpoint().expect("checkpoint");
                assert_eq!(store.sealed_count(), 0);
            }
            Promise::Rotation => assert_eq!(store.sealed_count(), 1),
        }
        assert_eq!(store.manifest.segments[0].records, 10);
        drop(store);
        let len = std::fs::metadata(dir.join(segment_file_name(0)))
            .expect("meta")
            .len();
        let frame = (FRAME_HEADER_LEN + encode_record(&records[9]).len()) as u64;
        (dir, len, frame)
    }

    /// Cuts segment 0 to `cut` bytes and requires `open` to refuse it at
    /// `offset` while leaving every file byte-identical.
    fn assert_cut_promised_is_refused(dir: &Path, cut: u64, offset: u64) {
        let segment = dir.join(segment_file_name(0));
        let file = OpenOptions::new()
            .write(true)
            .open(&segment)
            .expect("open rw");
        file.set_len(cut).expect("cut");
        drop(file);
        let before = snapshot(dir);
        match SegmentStore::open(dir, StoreOptions::default()) {
            Err(StoreError::CorruptFrame { offset: at }) => assert_eq!(at, offset),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        assert_eq!(snapshot(dir), before, "a promised frame is never truncated");
    }

    #[test]
    fn sealed_segment_cut_mid_frame_is_refused_untouched() {
        for how in [Promise::Checkpoint, Promise::Rotation] {
            let (dir, len, frame) = promised_ten("sealed-torn", how);
            // 100 bytes into the last frame: torn-tail recovery would drop
            // an acked record from a segment the manifest says holds ten.
            assert_cut_promised_is_refused(&dir, len - 100, len - frame);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sealed_segment_missing_a_whole_frame_is_refused_untouched() {
        for how in [Promise::Checkpoint, Promise::Rotation] {
            let (dir, len, frame) = promised_ten("sealed-short", how);
            // A cut on a frame boundary reads as a clean nine-frame
            // segment; only the manifest's count of ten catches it.
            assert_cut_promised_is_refused(&dir, len - frame, len - frame);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn an_active_segment_that_lost_its_header_reopens_empty() {
        let records = sample_records(4, 6);
        let more = sample_records(5, 2);
        for cut in [0u64, 4] {
            let dir = temp_dir(&format!("headerless-{cut}"));
            {
                // One commit, then rotation: segment 0 sealed, segment 1
                // the fresh active one.
                let mut store = SegmentStore::open(&dir, small_rotate_opts(1))
                    .expect("open")
                    .store;
                store.append_all(&records).expect("append");
                assert_eq!(store.sealed_count(), 1);
            }
            // A crash before the new file's first fsync can leave it
            // shorter than its header.
            let active = dir.join(segment_file_name(1));
            let file = OpenOptions::new().write(true).open(&active).expect("rw");
            file.set_len(cut).expect("cut");
            drop(file);
            let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("opens");
            assert_eq!(opened.torn_bytes, cut);
            assert_eq!(owned(&opened.records), records);
            let mut store = opened.store;
            store.append_all(&more).expect("append");
            drop(store);
            let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("clean");
            assert_eq!(opened.torn_bytes, 0);
            assert_eq!(
                owned(&opened.records),
                [records.clone(), more.clone()].concat()
            );
            drop(opened);

            // A sealed segment that short is still refused, untouched.
            let sealed = dir.join(segment_file_name(0));
            let file = OpenOptions::new().write(true).open(&sealed).expect("rw");
            file.set_len(cut).expect("cut");
            drop(file);
            let before = snapshot(&dir);
            assert!(matches!(
                SegmentStore::open(&dir, StoreOptions::default()),
                Err(StoreError::CorruptFrame { offset: 0 })
            ));
            assert_eq!(snapshot(&dir), before);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn v2_segment_and_manifest_are_refused_untouched() {
        let dir = temp_dir("v2");
        {
            let mut store = SegmentStore::open(&dir, StoreOptions::default())
                .expect("open")
                .store;
            store.append_all(&sample_records(4, 3)).expect("batch");
        }
        // Each file's version field (bytes 4..6) set back to 2: a v2
        // header, refused before anything else is read.
        for file in [segment_file_name(0), "MANIFEST".to_string()] {
            let copy = copy_store(&dir, "v2-copy");
            let path = copy.join(&file);
            let mut bytes = std::fs::read(&path).expect("read");
            bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
            std::fs::write(&path, &bytes).expect("write");
            let before = snapshot(&copy);
            assert!(
                matches!(
                    SegmentStore::open(&copy, StoreOptions::default()),
                    Err(StoreError::BadHeader)
                ),
                "{file}"
            );
            assert_eq!(snapshot(&copy), before, "{file}: left as it was");
            std::fs::remove_dir_all(&copy).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_second_frame_for_a_key_is_kept() {
        let dir = temp_dir("log");
        let records = sample_records(8, 2);
        let mut altered = records[1].clone();
        altered.set_reported_index(0);
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("open")
            .store;
        store.append_all(&records).expect("batch");
        store.append_all([&altered]).expect("second frame");
        assert_eq!(store.record_count(), 3, "the store counts frames");
        drop(store);
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(
            owned(&opened.records),
            vec![records[0].clone(), records[1].clone(), altered],
            "every frame comes back, in the order written"
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
        assert_eq!(read_back(&mut store), records);
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
        // A rotation that died after creating its file but before the
        // manifest commit leaves an unowned segment file.
        std::fs::write(dir.join(segment_file_name(77)), b"garbage").expect("orphan");
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert!(!dir.join(segment_file_name(77)).exists());
        assert_eq!(opened.store.record_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_without_its_manifest_is_refused_untouched() {
        let dir = temp_dir("no-manifest");
        {
            // Every commit rotates: three sealed segments and the active
            // one, checkpointed.
            let mut store = SegmentStore::open(&dir, small_rotate_opts(100))
                .expect("open")
                .store;
            for batch in sample_records(3, 10).chunks(4) {
                store.append_all(batch).expect("append");
            }
            store.checkpoint().expect("checkpoint");
        }
        std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("lose the manifest");
        let before = snapshot(&dir);
        assert_eq!(before.len(), 4, "four segment files");
        match SegmentStore::open(&dir, StoreOptions::default()) {
            Err(StoreError::MissingManifest { .. }) => {}
            other => panic!("expected MissingManifest, got {other:?}"),
        }
        assert_eq!(snapshot(&dir), before, "every segment left as it was");
        std::fs::remove_dir_all(&dir).ok();

        // A first open that died before its manifest commit leaves a
        // segment with no frame (a header, or less): swept, and the store
        // opens empty.
        for cut in [HEADER_LEN, 3, 0] {
            let dir = temp_dir(&format!("no-manifest-{cut}"));
            drop(SegmentStore::open(&dir, StoreOptions::default()).expect("create"));
            std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("lose the manifest");
            let segment = dir.join(segment_file_name(0));
            let file = OpenOptions::new().write(true).open(&segment).expect("rw");
            file.set_len(cut).expect("cut");
            drop(file);
            let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("opens");
            assert!(opened.records.is_empty(), "cut {cut}");
            assert_eq!(opened.store.segment_count(), 1, "cut {cut}");
            assert_eq!(
                std::fs::read(&segment).expect("read"),
                segment_header(),
                "cut {cut}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A fixed record: bit `i` of an `m`-bit map is set when
    /// `(37 i + 11) mod 7 < 2`.
    fn fixed_record(location: u64, period: u32, m: usize) -> TrafficRecord {
        let mut record = TrafficRecord::new(
            LocationId::new(location),
            PeriodId::new(period),
            BitmapSize::new(m).expect("pow2"),
        );
        for i in (0..m).filter(|i| (i * 37 + 11) % 7 < 2) {
            record.set_reported_index(i);
        }
        record
    }

    /// The frames of a 256-bit and a 16-bit record, byte for byte as the
    /// v3 segment format has always written them: the in-place frame
    /// builder changes no byte on disk.
    #[test]
    fn segment_frames_keep_their_golden_bytes() {
        const GOLDEN: &str = "3400000007f0b1a008070605040302010d0c0b0a000100000000000024128944\
            2291482412894422914824128944229148241289442291482412894416000000\
            8b26d3c209000000000000000200000010000000000000002412";
        let dir = temp_dir("golden");
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("open")
            .store;
        let records = [
            fixed_record(0x0102_0304_0506_0708, 0x0A0B_0C0D, 256),
            fixed_record(9, 2, 16),
        ];
        store.append_all(&records).expect("append");
        drop(store);
        let bytes = std::fs::read(dir.join(segment_file_name(0))).expect("read");
        let hex: String = bytes[HEADER_LEN as usize..]
            .iter()
            .map(|byte| format!("{byte:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Frames written with supplied CRCs are the bytes `append_all` writes.
    #[test]
    fn supplied_crcs_write_the_same_frames() {
        let records: Vec<TrafficRecord> = [1, 2, 4, 256, 4096]
            .into_iter()
            .enumerate()
            .map(|(period, m)| fixed_record(3, period as u32, m))
            .collect();
        let segment = |name: &str, supplied: bool| {
            let dir = temp_dir(name);
            let mut store = SegmentStore::open(&dir, StoreOptions::default())
                .expect("open")
                .store;
            if supplied {
                let crcs: Vec<u32> = records.iter().map(|r| crc32(&encode_record(r))).collect();
                store
                    .append_all_with_crc(records.iter().zip(crcs))
                    .expect("append")
            } else {
                store.append_all(&records).expect("append")
            };
            drop(store);
            let bytes = std::fs::read(dir.join(segment_file_name(0))).expect("read");
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        assert_eq!(
            segment("crc-computed", false),
            segment("crc-supplied", true)
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "supplied CRC is not the payload's")]
    fn a_wrong_supplied_crc_fails_a_debug_build() {
        let dir = temp_dir("crc-wrong");
        let mut store = SegmentStore::open(&dir, StoreOptions::default())
            .expect("open")
            .store;
        let record = fixed_record(3, 0, 64);
        let wrong = crc32(&encode_record(&record)) ^ 1;
        std::fs::remove_dir_all(&dir).ok();
        let _ = store.append_all_with_crc([(&record, wrong)]);
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
        assert_eq!(
            read_back(&mut store),
            records,
            "each record exactly once, bit-exact"
        );
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
        // Reads stop at the committed watermark, not at the torn bytes.
        assert_eq!(read_back(&mut store), records[..1]);
        drop(store);

        // A reopen discards the 4 torn bytes and keeps the acked record.
        let opened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(opened.torn_bytes, 4);
        assert_eq!(owned(&opened.records), records[..1]);
        let mut store = opened.store;
        assert!(!store.is_wedged());
        assert_eq!(store.record_count(), 1);
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

    /// Every cut of the active segment, each on a fresh copy: 4 frames
    /// checkpointed (then none), then frames committed one `append_all`
    /// each but never checkpointed. A cut inside the checkpointed frames
    /// (or their header) is `CorruptFrame` at the last complete frame's end
    /// (0 inside the header), every file byte-identical; any other cut
    /// opens with every complete frame before it and reports the partial
    /// frame (or header) as torn, and a second open reads clean.
    #[test]
    fn every_cut_of_the_active_segment_recovers_or_is_refused() {
        let records: Vec<TrafficRecord> = (0..7u32)
            .map(|period| tiny_record(3, period, &[period as usize, 11, 40]))
            .collect();
        let mut ends = vec![HEADER_LEN];
        for record in &records {
            let end =
                ends[ends.len() - 1] + (FRAME_HEADER_LEN + encode_record(record).len()) as u64;
            ends.push(end);
        }
        for checkpointed in [4usize, 0] {
            let dir = temp_dir(&format!("cut-sweep-{checkpointed}"));
            {
                let mut store = SegmentStore::open(&dir, StoreOptions::default())
                    .expect("open")
                    .store;
                if checkpointed > 0 {
                    store.append_all(&records[..checkpointed]).expect("append");
                    store.checkpoint().expect("checkpoint");
                }
                for record in &records[checkpointed..] {
                    store.append_all([record]).expect("append");
                }
            }
            let len = std::fs::metadata(dir.join(segment_file_name(0)))
                .expect("meta")
                .len();
            assert_eq!(len, ends[records.len()]);
            assert!(len < 2048, "the sweep stays small");
            for cut in 0..len {
                let copy = copy_store(&dir, &format!("cut-sweep-{checkpointed}-copy"));
                let file = OpenOptions::new()
                    .write(true)
                    .open(copy.join(segment_file_name(0)))
                    .expect("rw");
                file.set_len(cut).expect("cut");
                drop(file);
                // Complete frames before the cut, and where they end (0
                // when the header itself is cut).
                let frames = ends
                    .iter()
                    .filter(|end| **end <= cut)
                    .count()
                    .saturating_sub(1);
                let kept = if cut < HEADER_LEN { 0 } else { ends[frames] };
                if frames < checkpointed {
                    let before = snapshot(&copy);
                    match SegmentStore::open(&copy, StoreOptions::default()) {
                        Err(StoreError::CorruptFrame { offset }) => {
                            assert_eq!(offset, kept, "cut {cut}")
                        }
                        other => panic!("cut {cut}: expected CorruptFrame, got {other:?}"),
                    }
                    assert_eq!(snapshot(&copy), before, "cut {cut}: left untouched");
                } else {
                    let opened = SegmentStore::open(&copy, StoreOptions::default())
                        .unwrap_or_else(|err| panic!("cut {cut}: {err}"));
                    assert_eq!(owned(&opened.records), records[..frames], "cut {cut}");
                    assert_eq!(opened.torn_bytes, cut - kept, "cut {cut}");
                    drop(opened);
                    let again = SegmentStore::open(&copy, StoreOptions::default()).expect("reopen");
                    assert_eq!(again.torn_bytes, 0, "cut {cut}");
                    assert_eq!(owned(&again.records), records[..frames], "cut {cut}");
                }
                std::fs::remove_dir_all(&copy).ok();
            }
            std::fs::remove_dir_all(&dir).ok();
        }
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
    }
}
