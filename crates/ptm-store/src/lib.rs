//! Durable storage for traffic records.
//!
//! The paper's central server accumulates one record per RSU per period
//! indefinitely ("at a later time, other people … may gain access to the
//! records", Sec. II-B — i.e. records outlive the collection process). This
//! crate provides the archive that makes that real: a directory of
//! segment files (`docs/STORAGE.md`).
//!
//! * [`codec`] — a compact, versioned binary encoding of
//!   [`ptm_core::record::TrafficRecord`];
//! * [`crc32`] — a from-scratch CRC-32 (IEEE) for frame integrity: four
//!   slicing-by-16 lanes per 1 KiB block, joined by a table that multiplies
//!   the register by `x^2048 mod P` (the update is linear over GF(2)), with
//!   16 + 4 KiB of tables built at compile time;
//! * [`segment`] — the [`segment::SegmentStore`], a log that is never
//!   rewritten: writes go to one active segment as per-frame-checksummed,
//!   transactional commits (a failed append rolls the file back to the last
//!   good frame, so an acked batch is never ahead of durable state) and
//!   rotate through size-bounded segment files of CRC frames and nothing
//!   else; a clean shutdown checkpoints the active segment instead of
//!   sealing it; `open()` reads every segment once through one frame
//!   reader, recovers a torn active tail past the checkpointed frames,
//!   refuses a damaged sealed segment or checkpointed frame (or segment
//!   frames with no manifest to own them), and hands over
//!   every record it read (the store keeps no decoded record resident; the
//!   daemon's query engine holds the only in-memory copy);
//! * [`manifest`] — the CRC-checked [`manifest::Manifest`] naming the live
//!   segment set and which segments are sealed, with each sealed segment's
//!   exact frame count and the active segment's checkpointed count,
//!   committed atomically (temp file + rename);
//! * [`io`] — the pluggable [`io::StorageIo`] backend segments are written
//!   through, with a fault-injecting decorator ([`io::HookedIo`]) wired to
//!   [`ptm_fault`] for chaos testing (see `docs/FAULTS.md`), and the
//!   [`SyncPolicy`] that decides when a commit is durable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Production code must propagate errors, not abort: unwrap/expect are
// test-only conveniences (enforced by `cargo clippy -p ptm-store
// -- -D warnings` in scripts/ci.sh).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod crc32;
pub mod io;
pub mod manifest;
pub mod segment;

pub use codec::StoreError;
pub use io::{StorageIo, StoreHooks, SyncPolicy};
pub use manifest::Manifest;
pub use segment::{OpenedStore, SegmentStore, StoreOptions};
