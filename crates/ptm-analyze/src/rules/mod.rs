//! The rule engine: the [`Rule`] trait, the registry of shipped rules, and
//! shared token-pattern helpers.

use crate::findings::Finding;
use crate::scanner::{Token, TokenKind};
use crate::workspace::Workspace;

mod crate_header;
mod determinism;
mod fault_site_registry;
mod gauge_balance;
mod lock_order;
mod metric_registry;
mod no_unwrap;
mod poison_recovery;
mod proto_tags;
mod reactor_blocking;

pub use crate_header::CrateHeader;
pub use determinism::Determinism;
pub use fault_site_registry::FaultSiteRegistry;
pub use gauge_balance::GaugeBalance;
pub use lock_order::LockOrder;
pub use metric_registry::MetricRegistry;
pub use no_unwrap::NoUnwrap;
pub use poison_recovery::PoisonRecovery;
pub use proto_tags::ProtoTags;
pub use reactor_blocking::ReactorBlocking;

/// One invariant checker over the scanned workspace.
pub trait Rule {
    /// Stable rule id, used in findings and allow directives.
    fn id(&self) -> &'static str;
    /// One-line description for `ptm-analyze rules`.
    fn description(&self) -> &'static str;
    /// Appends findings for every violation in `ws`.
    fn check(&self, ws: &Workspace, findings: &mut Vec<Finding>);
}

/// Crates whose non-test code must never abort: they run inside the daemon
/// or on its durable-write path (see docs/ANALYSIS.md).
pub const SERVER_CRATES: &[&str] = &["ptm-rpc", "ptm-store", "ptm-fault", "ptm-net"];

/// Crates whose results must be a pure function of their seeds.
pub const SEEDED_CRATES: &[&str] = &["ptm-core", "ptm-sim", "ptm-fault"];

/// Every shipped rule, in catalogue order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoUnwrap),
        Box::new(PoisonRecovery),
        Box::new(MetricRegistry),
        Box::new(FaultSiteRegistry),
        Box::new(ProtoTags),
        Box::new(Determinism),
        Box::new(CrateHeader),
        Box::new(LockOrder),
        Box::new(ReactorBlocking),
        Box::new(GaugeBalance),
    ]
}

/// Whether the token at `i` is an identifier equal to `name`.
pub(crate) fn ident_at(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_ident(name))
}

/// Whether the token at `i` is the punctuation `c`.
pub(crate) fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

/// Whether the token at `i` opens a macro argument list.
pub(crate) fn open_delim_at(tokens: &[Token], i: usize) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
}

/// Whether the token at `i` is a string literal.
pub(crate) fn string_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens
        .get(i)
        .and_then(|t| (t.kind == TokenKind::StringLit).then_some(t.text.as_str()))
}
