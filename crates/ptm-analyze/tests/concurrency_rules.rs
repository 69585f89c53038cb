//! End-to-end fixtures for the three concurrency rules, run through the
//! public `ptm_analyze::run` entry point (full rule registry + allow
//! pass) rather than the rules' own unit harnesses. Each fixture is a
//! minimal reproduction of the bug class the rule exists for, paired
//! with the fixed variant that must come back clean.

#![forbid(unsafe_code)]

use ptm_analyze::findings::Finding;
use ptm_analyze::workspace::{FileKind, SourceFile, Workspace};

/// Runs the full analyzer over one in-memory server-crate file and
/// returns only the findings of `rule` (other rules may legitimately
/// fire on a fixture — e.g. `no-unwrap` on a `.lock().unwrap()`).
fn findings_for(rule: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::from_source(
        "ptm-rpc",
        "crates/ptm-rpc/src/fixture.rs",
        FileKind::Src,
        src,
    );
    let ws = Workspace::in_memory(vec![file], vec![]);
    ptm_analyze::run(&ws)
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn lock_inversion_pair_yields_one_cycle_with_witness_chain() {
    let findings = findings_for(
        "lock-order",
        "fn ingest(queue: &Mutex<u32>, index: &Mutex<u32>) {\n\
             let q = queue.lock().unwrap();\n\
             let i = index.lock().unwrap();\n\
         }\n\
         fn rotate(queue: &Mutex<u32>, index: &Mutex<u32>) {\n\
             let i = index.lock().unwrap();\n\
             let q = queue.lock().unwrap();\n\
         }\n",
    );
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let message = &findings[0].message;
    assert!(message.contains("potential deadlock"), "message: {message}");
    // The witness names both locks and both functions: who holds what
    // while acquiring what.
    for needle in ["queue", "index", "ingest", "rotate", "holds"] {
        assert!(
            message.contains(needle),
            "message lacks `{needle}`: {message}"
        );
    }
}

#[test]
fn consistent_lock_order_is_clean() {
    let findings = findings_for(
        "lock-order",
        "fn ingest(queue: &Mutex<u32>, index: &Mutex<u32>) {\n\
             let q = queue.lock().unwrap();\n\
             let i = index.lock().unwrap();\n\
         }\n\
         fn rotate(queue: &Mutex<u32>, index: &Mutex<u32>) {\n\
             let q = queue.lock().unwrap();\n\
             let i = index.lock().unwrap();\n\
         }\n",
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn sleep_reachable_from_reactor_root_yields_one_finding_with_chain() {
    let findings = findings_for(
        "reactor-blocking",
        "// ptm-analyze: reactor-root\n\
         fn event_loop() { idle_backoff(); }\n\
         fn idle_backoff() { std::thread::sleep(STEP); }\n",
    );
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let message = &findings[0].message;
    assert!(message.contains("thread::sleep"), "message: {message}");
    assert!(
        message.contains("event_loop -> idle_backoff"),
        "witness chain missing: {message}"
    );
}

#[test]
fn sleep_behind_the_worker_pool_is_clean() {
    let findings = findings_for(
        "reactor-blocking",
        "// ptm-analyze: reactor-root\n\
         fn event_loop() { submit(); }\n\
         fn submit() {}\n\
         // ptm-analyze: worker-entry\n\
         fn worker_loop() { idle_backoff(); }\n\
         fn idle_backoff() { std::thread::sleep(STEP); }\n",
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn unbalanced_gauge_increment_yields_one_finding() {
    let findings = findings_for(
        "gauge-balance",
        "fn accept(s: &Server) { s.active_conns.fetch_add(1, Ordering::SeqCst); }\n",
    );
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let message = &findings[0].message;
    assert!(message.contains("active_conns"), "message: {message}");
    assert!(message.contains("never"), "message: {message}");
}

#[test]
fn gauge_with_drop_guard_decrement_is_clean() {
    let findings = findings_for(
        "gauge-balance",
        "fn accept(s: &Server) -> ConnGuard { s.active_conns.fetch_add(1, Ordering::SeqCst); ConnGuard }\n\
         impl Drop for ConnGuard {\n\
             fn drop(&mut self) { self.active_conns.fetch_sub(1, Ordering::SeqCst); }\n\
         }\n",
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}
