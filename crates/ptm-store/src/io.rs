//! Pluggable storage backends for the segment store.
//!
//! The active segment ([`crate::SegmentStore`]) writes through a boxed
//! [`StorageIo`] rather than a raw [`File`], so tests (and `ptm serve
//! --faults`) can interpose [`HookedIo`] — a backend that consults
//! [`ptm_fault`] fault sites before every write, flush, fsync, and
//! truncate. With no plan configured the store talks to a plain
//! [`FileIo`] and the hooks cost nothing.

use ptm_fault::{sites, FaultAction, FaultPlan, SiteHandle};
use std::fmt::Debug;
use std::fs::File;
use std::io::{self, Write};

/// When a commit is considered durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Commits flush to the OS (data survives a process crash, not
    /// necessarily a power cut). The default.
    #[default]
    Flush,
    /// Every commit also fsyncs; an fsync failure rolls the commit back, so
    /// an acked batch is on stable storage.
    Fsync,
}

/// The operations the store needs from its backing storage.
///
/// This is [`Write`] plus the two durability calls a write-ahead log relies
/// on: fsync ([`StorageIo::sync`]) and truncate ([`StorageIo::set_len`], the
/// rollback primitive).
pub trait StorageIo: Write + Debug + Send {
    /// Forces written data to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// I/O failures.
    fn sync(&mut self) -> io::Result<()>;

    /// Truncates (or extends) the backing file to exactly `len` bytes.
    ///
    /// # Errors
    ///
    /// I/O failures.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The production backend: a plain append-mode [`File`].
#[derive(Debug)]
pub struct FileIo {
    file: File,
}

impl FileIo {
    /// Wraps an already-opened file (the store opens it in append mode,
    /// so writes land at EOF even after a [`StorageIo::set_len`] rollback).
    pub fn new(file: File) -> Self {
        Self { file }
    }
}

impl Write for FileIo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl StorageIo for FileIo {
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// One [`SiteHandle`] per store fault site.
#[derive(Debug, Clone, Default)]
pub struct StoreHooks {
    /// Fires on every backend `write` call.
    pub write: SiteHandle,
    /// Fires on every backend `flush` call.
    pub flush: SiteHandle,
    /// Fires on every backend `sync` (fsync) call.
    pub sync: SiteHandle,
    /// Fires on every backend `set_len` (rollback truncate) call.
    pub set_len: SiteHandle,
    /// Fires on every segment-store manifest commit.
    pub manifest: SiteHandle,
    /// Fires on every segment seal — the outgoing segment's fsync at
    /// rotation.
    pub seal: SiteHandle,
}

impl StoreHooks {
    /// Hooks that never fire (the production default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Resolves the `store.*` sites from a plan.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        Self {
            write: plan.site(sites::STORE_WRITE),
            flush: plan.site(sites::STORE_FLUSH),
            sync: plan.site(sites::STORE_SYNC),
            set_len: plan.site(sites::STORE_SET_LEN),
            manifest: plan.site(sites::STORE_MANIFEST),
            seal: plan.site(sites::STORE_SEAL),
        }
    }

    /// Whether any site is wired to an active plan.
    pub fn is_active(&self) -> bool {
        self.write.is_active()
            || self.flush.is_active()
            || self.sync.is_active()
            || self.set_len.is_active()
            || self.manifest.is_active()
            || self.seal.is_active()
    }
}

/// The backend for an append-mode segment file: plain [`FileIo`], wrapped
/// in [`HookedIo`] only when a fault plan is active.
pub(crate) fn build_io(file: File, hooks: &StoreHooks) -> Box<dyn StorageIo> {
    if hooks.is_active() {
        Box::new(HookedIo::new(FileIo::new(file), hooks.clone()))
    } else {
        Box::new(FileIo::new(file))
    }
}

/// A [`StorageIo`] decorator that injects scheduled faults.
#[derive(Debug)]
pub struct HookedIo<B> {
    inner: B,
    hooks: StoreHooks,
}

impl<B: StorageIo> HookedIo<B> {
    /// Decorates `inner` with the given hooks.
    pub fn new(inner: B, hooks: StoreHooks) -> Self {
        Self { inner, hooks }
    }
}

fn injected() {
    ptm_obs::counter!("store.fault.injected").inc();
}

/// Applies a non-write fault action (flush/sync/set_len have no byte stream
/// to shorten or corrupt, so those actions degrade to plain errors).
fn apply_control(action: FaultAction, what: &str) -> io::Result<()> {
    injected();
    match action {
        FaultAction::Delay(pause) => {
            std::thread::sleep(pause);
            Ok(())
        }
        FaultAction::Error(kind) => Err(io::Error::new(kind, format!("injected {what} fault"))),
        FaultAction::Reset => Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("injected {what} reset"),
        )),
        // Blocking file I/O has no readiness model and the store must
        // propagate errors rather than abort, so the stream-oriented
        // (WouldBlock) and execution-site (Panic) actions degrade to
        // plain errors here too.
        FaultAction::Short(_)
        | FaultAction::Corrupt(_)
        | FaultAction::Truncate
        | FaultAction::WouldBlock
        | FaultAction::Panic => Err(io::Error::other(format!("injected {what} fault"))),
    }
}

/// Consults a non-stream fault site (manifest commit, segment seal) before
/// the guarded operation runs. `Delay` pauses and proceeds; every other
/// action fails the operation.
pub(crate) fn check_site(handle: &SiteHandle, what: &str) -> io::Result<()> {
    match handle.check() {
        None => Ok(()),
        Some(action) => apply_control(action, what),
    }
}

impl<B: StorageIo> Write for HookedIo<B> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(action) = self.hooks.write.check() else {
            return self.inner.write(buf);
        };
        injected();
        match action {
            FaultAction::Error(kind) => Err(io::Error::new(kind, "injected write fault")),
            FaultAction::Reset => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected write reset",
            )),
            // Claims success, delivers nothing: the bytes evaporate.
            FaultAction::Truncate => Ok(buf.len()),
            FaultAction::Delay(pause) => {
                std::thread::sleep(pause);
                self.inner.write(buf)
            }
            FaultAction::Short(limit) => self.inner.write(&buf[..limit.min(buf.len())]),
            FaultAction::Corrupt(mask) => {
                let twisted: Vec<u8> = buf.iter().map(|byte| byte ^ mask).collect();
                self.inner.write(&twisted)
            }
            // No readiness model on blocking file writes: degrade to a
            // plain error (same policy as apply_control).
            FaultAction::WouldBlock | FaultAction::Panic => {
                Err(io::Error::other("injected write fault"))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(action) = self.hooks.flush.check() {
            apply_control(action, "flush")?;
        }
        self.inner.flush()
    }
}

impl<B: StorageIo> StorageIo for HookedIo<B> {
    fn sync(&mut self) -> io::Result<()> {
        if let Some(action) = self.hooks.sync.check() {
            apply_control(action, "fsync")?;
        }
        self.inner.sync()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if let Some(action) = self.hooks.set_len.check() {
            apply_control(action, "set_len")?;
        }
        self.inner.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_fault::Rule;

    #[test]
    fn disabled_hooks_are_inert() {
        let hooks = StoreHooks::disabled();
        assert!(!hooks.is_active());
        let plan = FaultPlan::builder(1)
            .rule(sites::STORE_WRITE, Rule::nth(1, FaultAction::Reset))
            .build()
            .expect("plan");
        assert!(StoreHooks::from_plan(&plan).is_active());
    }
}
