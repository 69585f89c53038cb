//! Analyzer self-benchmark: the linter runs inside `cargo test`
//! (`self_check`) and on every CI run, so its own cost is a tracked
//! number. Run with `cargo bench -p ptm-bench --bench analyze`.
//!
//! Three pieces are timed separately over this repository's own source
//! tree, because they scale differently: `workspace_load` is I/O plus
//! lexing (linear in bytes), `full_check` is every rule over an
//! already-loaded workspace (linear in tokens, with the call-graph
//! fixpoint on top), and `lock_analysis` isolates the structural layers —
//! call-graph construction plus lock-site/may-acquire analysis — that the
//! concurrency rules added. The group declares files-per-iteration
//! throughput, and the scanned file count is printed next to the
//! medians, so files/sec is `files * 1e9 / median_ns`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ptm_analyze::callgraph::CallGraph;
use ptm_analyze::rules::SERVER_CRATES;
use ptm_analyze::workspace::Workspace;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // crates/bench -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn bench_analyze(c: &mut Criterion) {
    let root = repo_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "workspace discovery looks broken: only {} files found",
        ws.files.len()
    );
    let files = ws.files.len() as u64;
    // Same line shape the criterion stub prints, so the count reads
    // alongside the medians (files/sec = count * 1e9 / median_ns).
    println!("bench: analyze/files_scanned count {files}");

    let mut group = c.benchmark_group("analyze");
    group.throughput(Throughput::Elements(files));
    group.bench_function("workspace_load", |b| {
        b.iter(|| Workspace::load(&root).expect("workspace loads").files.len())
    });
    group.bench_function("full_check", |b| {
        b.iter(|| ptm_analyze::run(&ws).files_scanned)
    });
    group.bench_function("lock_analysis", |b| {
        b.iter(|| {
            let graph = CallGraph::build(&ws, SERVER_CRATES);
            ptm_analyze::locks::analyze(&ws, &graph).sites.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
