//! `lock-order`: a cycle in the interprocedural lock-order graph is a
//! potential deadlock.

use crate::callgraph::CallGraph;
use crate::findings::Finding;
use crate::locks;
use crate::rules::{Rule, SERVER_CRATES};
use crate::workspace::Workspace;

/// Flags cycles in the lock-order graph of the server crates, with the
/// full witness chain (who holds what while acquiring what) in the
/// finding message.
pub struct LockOrder;

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "no cycles in the server crates' lock-order graph (potential deadlock)"
    }

    fn check(&self, ws: &Workspace, findings: &mut Vec<Finding>) {
        let graph = CallGraph::build(ws, SERVER_CRATES);
        let analysis = locks::analyze(ws, &graph);
        for cycle in &analysis.cycles {
            let ring = cycle.keys.join(" -> ");
            let witness = cycle.witnesses.join("; ");
            findings.push(Finding {
                rule: self.id(),
                path: cycle.path.clone(),
                line: cycle.line,
                message: format!(
                    "lock-order cycle `{}` — potential deadlock; witness: {}",
                    ring, witness
                ),
                hint: "acquire these locks in one global order, or narrow a guard's \
                       scope so they are never held together"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileKind, SourceFile, Workspace};

    fn check(src: &str) -> Vec<Finding> {
        let file =
            SourceFile::from_source("ptm-rpc", "crates/ptm-rpc/src/x.rs", FileKind::Src, src);
        let ws = Workspace::in_memory(vec![file], vec![]);
        let mut findings = Vec::new();
        LockOrder.check(&ws, &mut findings);
        findings
    }

    #[test]
    fn inversion_pair_is_reported_with_witness_chain() {
        let findings = check(
            "fn ingest(manifest: &Mutex<u32>, shard: &RwLock<u32>) {\n\
                 let m = manifest.lock().unwrap();\n\
                 let s = shard.write().unwrap();\n\
             }\n\
             fn rotate(manifest: &Mutex<u32>, shard: &RwLock<u32>) {\n\
                 let s = shard.write().unwrap();\n\
                 let m = manifest.lock().unwrap();\n\
             }\n",
        );
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        let f = &findings[0];
        assert!(f.message.contains("manifest"), "message: {}", f.message);
        assert!(f.message.contains("shard"), "message: {}", f.message);
        assert!(f.message.contains("ingest"), "message: {}", f.message);
        assert!(f.message.contains("rotate"), "message: {}", f.message);
        assert!(f.message.contains("holds"), "message: {}", f.message);
    }

    #[test]
    fn consistent_order_is_clean() {
        let findings = check(
            "fn ingest(manifest: &Mutex<u32>, shard: &RwLock<u32>) {\n\
                 let m = manifest.lock().unwrap();\n\
                 let s = shard.write().unwrap();\n\
             }\n\
             fn rotate(manifest: &Mutex<u32>, shard: &RwLock<u32>) {\n\
                 let m = manifest.lock().unwrap();\n\
                 let s = shard.write().unwrap();\n\
             }\n",
        );
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn interprocedural_inversion_is_reported() {
        let findings = check(
            "fn a_then_b(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                 let ga = a.lock().unwrap();\n\
                 take_b(b);\n\
             }\n\
             fn take_b(b: &Mutex<u32>) {\n\
                 let gb = b.lock().unwrap();\n\
             }\n\
             fn b_then_a(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                 let gb = b.lock().unwrap();\n\
                 take_a(a);\n\
             }\n\
             fn take_a(a: &Mutex<u32>) {\n\
                 let ga = a.lock().unwrap();\n\
             }\n",
        );
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert!(findings[0].message.contains("take_b") || findings[0].message.contains("take_a"));
    }
}
