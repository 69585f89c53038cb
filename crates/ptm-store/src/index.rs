//! Per-segment footer index: `location → sorted period entries → frame
//! offsets`.
//!
//! A sealed segment carries one encoded [`SegmentIndex`] in its footer
//! frame, so `open()` can answer "which frames does this segment hold, and
//! where" without decoding a single record payload. Layout (all integers
//! little-endian):
//!
//! ```text
//! u32 location count
//! per location:
//!   u64 location | u32 entry count
//!   per entry (sorted by period): u32 period | u64 offset | u32 len
//! ```
//!
//! `offset` is the byte offset of the *frame header* inside the segment
//! file and `len` the payload length, so a reader can fetch exactly one
//! frame with a seek plus one bounded read.

use crate::codec::StoreError;
use ptm_core::record::PeriodId;
use ptm_core::LocationId;
use std::collections::BTreeMap;

/// Where one record's frame lives inside a segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// The record's period.
    pub period: PeriodId,
    /// Byte offset of the frame header in the segment file.
    pub offset: u64,
    /// Payload length in bytes (the frame is `8 + len` bytes).
    pub len: u32,
}

/// The footer index of one segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentIndex {
    // BTreeMap keyed by the raw location id: deterministic encode order.
    entries: BTreeMap<u64, Vec<IndexEntry>>,
}

/// Encoded bytes per entry: `u32 period | u64 offset | u32 len`.
const ENTRY_LEN: usize = 16;

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

impl SegmentIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of indexed frames.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records (or supersedes) the frame for `(location, period)`. Entries
    /// stay sorted by period per location; a re-insert of an existing
    /// period replaces the older frame — within one segment the later
    /// append wins, mirroring replay order.
    pub fn insert(&mut self, location: LocationId, period: PeriodId, offset: u64, len: u32) {
        let entries = self.entries.entry(location.get()).or_default();
        let entry = IndexEntry {
            period,
            offset,
            len,
        };
        match entries.binary_search_by_key(&period.get(), |e| e.period.get()) {
            Ok(at) => entries[at] = entry,
            Err(at) => entries.insert(at, entry),
        }
    }

    /// The frame holding `(location, period)`, if this segment has one.
    pub fn lookup(&self, location: LocationId, period: PeriodId) -> Option<IndexEntry> {
        let entries = self.entries.get(&location.get())?;
        entries
            .binary_search_by_key(&period.get(), |e| e.period.get())
            .ok()
            .map(|at| entries[at])
    }

    /// Iterates `(location, entry)` over every indexed frame, locations
    /// ascending, periods ascending within a location.
    pub fn iter(&self) -> impl Iterator<Item = (LocationId, IndexEntry)> + '_ {
        self.entries
            .iter()
            .flat_map(|(loc, entries)| entries.iter().map(|entry| (LocationId::new(*loc), *entry)))
    }

    /// Locations with at least one indexed frame, ascending.
    pub fn locations(&self) -> impl Iterator<Item = LocationId> + '_ {
        self.entries.keys().map(|loc| LocationId::new(*loc))
    }

    /// Every entry indexed for `location`, sorted by period (empty slice
    /// when the segment holds nothing for it).
    pub fn entries_for(&self, location: LocationId) -> &[IndexEntry] {
        self.entries.get(&location.get()).map_or(&[], Vec::as_slice)
    }

    /// The inclusive `(first, last)` period range indexed for `location`.
    pub fn period_range(&self, location: LocationId) -> Option<(PeriodId, PeriodId)> {
        let entries = self.entries.get(&location.get())?;
        let first = entries.first()?;
        let last = entries.last()?;
        Some((first.period, last.period))
    }

    /// Serializes the index (no framing; the segment wraps this in a
    /// CRC-checked footer frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.entries.len() * 16);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (location, entries) in &self.entries {
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for entry in entries {
                out.extend_from_slice(&entry.period.get().to_le_bytes());
                out.extend_from_slice(&entry.offset.to_le_bytes());
                out.extend_from_slice(&entry.len.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes an index payload.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedRecord`] for truncated or trailing bytes, and
    /// for an entry count the remaining bytes cannot hold (checked before
    /// anything is reserved for the entries).
    pub fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let short = |what: &str| StoreError::MalformedRecord {
            reason: format!("segment index truncated in {what}"),
        };
        let mut at = 0usize;
        let mut take = |n: usize, what: &str| -> Result<&[u8], StoreError> {
            let end = at.checked_add(n).ok_or_else(|| short(what))?;
            let slice = payload.get(at..end).ok_or_else(|| short(what))?;
            at = end;
            Ok(slice)
        };
        let locations = le_u32(take(4, "location count")?);
        let mut entries = BTreeMap::new();
        for _ in 0..locations {
            let location = le_u64(take(8, "location id")?);
            // The whole entry block is taken as one bounded slice, so a
            // count the remaining bytes cannot hold fails before anything
            // is reserved for it.
            let count = le_u32(take(4, "entry count")?) as usize;
            let block = count
                .checked_mul(ENTRY_LEN)
                .ok_or_else(|| short("entries"))?;
            let list: Vec<IndexEntry> = take(block, "entries")?
                .chunks_exact(ENTRY_LEN)
                .map(|raw| IndexEntry {
                    period: PeriodId::new(le_u32(&raw[0..4])),
                    offset: le_u64(&raw[4..12]),
                    len: le_u32(&raw[12..16]),
                })
                .collect();
            if !list.is_sorted_by_key(|e| e.period.get()) {
                return Err(StoreError::MalformedRecord {
                    reason: format!("segment index periods unsorted for location {location}"),
                });
            }
            entries.insert(location, list);
        }
        if at != payload.len() {
            return Err(StoreError::MalformedRecord {
                reason: format!("segment index has {} trailing bytes", payload.len() - at),
            });
        }
        Ok(Self { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SegmentIndex {
        let mut index = SegmentIndex::new();
        index.insert(LocationId::new(7), PeriodId::new(3), 8, 100);
        index.insert(LocationId::new(7), PeriodId::new(1), 116, 90);
        index.insert(LocationId::new(2), PeriodId::new(0), 214, 80);
        index
    }

    #[test]
    fn roundtrip_and_lookup() {
        let index = sample();
        assert_eq!(index.len(), 3);
        let back = SegmentIndex::decode(&index.encode()).expect("decode");
        assert_eq!(back, index);
        let entry = back
            .lookup(LocationId::new(7), PeriodId::new(1))
            .expect("hit");
        assert_eq!(entry.offset, 116);
        assert!(back.lookup(LocationId::new(7), PeriodId::new(9)).is_none());
        assert!(back.lookup(LocationId::new(9), PeriodId::new(1)).is_none());
        assert_eq!(
            back.period_range(LocationId::new(7)),
            Some((PeriodId::new(1), PeriodId::new(3)))
        );
    }

    #[test]
    fn reinsert_supersedes() {
        let mut index = sample();
        index.insert(LocationId::new(7), PeriodId::new(3), 999, 42);
        assert_eq!(index.len(), 3);
        let entry = index
            .lookup(LocationId::new(7), PeriodId::new(3))
            .expect("hit");
        assert_eq!((entry.offset, entry.len), (999, 42));
    }

    #[test]
    fn truncated_or_trailing_bytes_rejected() {
        let bytes = sample().encode();
        for cut in [0usize, 3, 5, bytes.len() - 1] {
            assert!(SegmentIndex::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(SegmentIndex::decode(&extended).is_err());
    }

    #[test]
    fn entry_count_beyond_remaining_bytes_is_rejected_before_reserving() {
        // One location claiming u32::MAX entries with a 4-byte tail: a
        // CRC-valid but malformed footer must not ask for 64 GiB up front.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            SegmentIndex::decode(&bytes),
            Err(StoreError::MalformedRecord { .. })
        ));
    }
}
