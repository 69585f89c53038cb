//! Deterministic fault injection for the persistent traffic measurement
//! stack.
//!
//! Production code in `ptm-store` and `ptm-rpc` keeps permanent *fault
//! sites* — named hook points on the real I/O paths (archive writes and
//! fsyncs, RPC stream reads and writes, estimate execution). Each site is a
//! [`SiteHandle`]; the default handle is disabled and its per-operation
//! [`SiteHandle::check`] is one branch on a `None`, which keeps the hooks
//! free when no faults are scheduled.
//!
//! Tests (and `ptm serve --faults`) build a [`FaultPlan`] — a seeded set of
//! per-site [`Rule`] schedules — and hand its handles to the code under
//! test. The same seed and spec reproduce the same faults, so chaos runs
//! are replayable. [`FaultyStream`] applies the same actions to any
//! `Read + Write` transport.
//!
//! ```
//! use ptm_fault::{sites, FaultAction, FaultPlan, Rule};
//!
//! let plan = FaultPlan::parse("store.write@3=enospc", 42).expect("spec");
//! let site = plan.site(sites::STORE_WRITE);
//! assert_eq!(site.check(), None);
//! assert_eq!(site.check(), None);
//! assert_eq!(
//!     site.check(),
//!     Some(FaultAction::Error(std::io::ErrorKind::StorageFull))
//! );
//! let _ = Rule::every(1, 2, FaultAction::Reset).times(3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Production code must propagate errors, not abort: unwrap/expect are
// test-only conveniences (same gate as ptm-rpc/ptm-store; enforced by
// `cargo clippy -p ptm-fault -- -D warnings` in scripts/ci.sh).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod plan;
mod stream;

pub use plan::{FaultAction, FaultPlan, FaultPlanBuilder, PlanError, Rule, SiteHandle};
pub use stream::FaultyStream;

/// The registry of fault-site names production code exposes.
///
/// [`FaultPlanBuilder::build`] rejects rules naming sites outside this list,
/// so a typo in a chaos spec fails loudly instead of silently never firing.
pub mod sites {
    /// Archive record/frame writes ([`std::io::Write::write`] on the
    /// storage backend).
    pub const STORE_WRITE: &str = "store.write";
    /// Archive buffer flushes ([`std::io::Write::flush`]).
    pub const STORE_FLUSH: &str = "store.flush";
    /// Archive fsyncs (`File::sync_all`).
    pub const STORE_SYNC: &str = "store.sync";
    /// Archive truncations during rollback (`File::set_len`).
    pub const STORE_SET_LEN: &str = "store.set_len";
    /// Segment-store manifest commits (the atomic temp-write + rename that
    /// publishes a new segment set).
    pub const STORE_MANIFEST: &str = "store.manifest";
    /// Segment seals at rotation (the fsync of the outgoing segment,
    /// checked before the manifest marks it sealed).
    pub const STORE_SEAL: &str = "store.seal";
    /// RPC server stream reads (request frames arriving).
    pub const RPC_READ: &str = "rpc.read";
    /// RPC server stream writes (response frames leaving).
    pub const RPC_WRITE: &str = "rpc.write";
    /// Estimate execution on a server worker, once per query
    /// (latency or failure while computing a query answer).
    pub const RPC_ESTIMATE: &str = "rpc.estimate";
    /// Ingest execution under the server's writer lock, checked once per
    /// ingest batch (one commit) just after the lock is taken. A `panic` here
    /// exercises the daemon's catch-unwind and poisoned-lock recovery; a
    /// `delay` holds the writer lock to back up the upload queue.
    pub const RPC_INGEST: &str = "rpc.ingest";

    /// Every registered site.
    pub const ALL: &[&str] = &[
        STORE_WRITE,
        STORE_FLUSH,
        STORE_SYNC,
        STORE_SET_LEN,
        STORE_MANIFEST,
        STORE_SEAL,
        RPC_READ,
        RPC_WRITE,
        RPC_ESTIMATE,
        RPC_INGEST,
    ];

    /// Whether `name` is a registered site.
    pub fn is_known(name: &str) -> bool {
        ALL.contains(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_its_own_names() {
        for name in sites::ALL {
            assert!(sites::is_known(name));
        }
        assert!(!sites::is_known("store.write "));
        assert!(!sites::is_known(""));
    }
}
