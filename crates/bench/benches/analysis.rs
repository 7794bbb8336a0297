//! Benchmarks: the static-analysis toolchain itself.
//!
//! The lint engine and the concurrency audit run on every `check.sh` and
//! every CI push, so their wall-clock cost is part of the developer loop.
//! Five groups:
//!
//! - `lex` — raw lexer throughput over the workspace's largest sources;
//!   the floor every token-based pass builds on.
//! - `lint` — full-workspace `lint_workspace` (read + lex + parse + every
//!   rule over every `crates/*/src` file).
//! - `audit` — full-workspace `audit_workspace` (send-sync manifest,
//!   lock-discipline fixpoint, atomic-ordering pass).
//! - `callgraph` — interprocedural call-graph construction alone, the
//!   shared foundation under `audit-hotpath`.
//! - `hotpath` — the full hot-path certifier (graph build + panic
//!   reachability + allocation/lock budgets + ratchet check).

#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use pup_analysis::callgraph::CallGraph;
use pup_analysis::concurrency::audit_workspace;
use pup_analysis::lex::lex;
use pup_analysis::lint::{lint_workspace, workspace_rs_files};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Lexer throughput over the whole workspace, concatenated into memory
/// first so the measurement excludes I/O.
fn bench_lex(c: &mut Criterion) {
    let root = workspace_root();
    let sources: Vec<String> = workspace_rs_files(&root)
        .expect("workspace is readable")
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("source is readable"))
        .collect();
    let bytes: usize = sources.iter().map(String::len).sum();
    assert!(bytes > 100_000, "workspace corpus suspiciously small: {bytes} bytes");

    let mut group = c.benchmark_group("lex");
    group.sample_size(20);
    group.bench_function("workspace_sources", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for src in &sources {
                tokens += lex(black_box(src)).len();
            }
            black_box(tokens)
        })
    });
    group.finish();
}

/// The full lint pass as `check.sh` runs it (strict mode included, since
/// that is the gating configuration).
fn bench_lint(c: &mut Criterion) {
    let root = workspace_root();
    let mut group = c.benchmark_group("lint");
    group.sample_size(20);
    group.bench_function("workspace", |b| {
        b.iter(|| {
            let report = lint_workspace(black_box(&root)).expect("lint runs");
            black_box((report.files_checked, report.diagnostics.len()))
        })
    });
    group.finish();
}

/// The full concurrency audit as CI runs it.
fn bench_audit(c: &mut Criterion) {
    let root = workspace_root();
    let mut group = c.benchmark_group("audit");
    group.sample_size(20);
    group.bench_function("workspace", |b| {
        b.iter(|| {
            let report = audit_workspace(black_box(&root)).expect("audit runs");
            black_box((report.files_checked, report.findings.len()))
        })
    });
    group.finish();
}

/// Call-graph construction alone: read + lex + fn extraction + call-site
/// resolution scaffolding for the whole workspace.
fn bench_callgraph(c: &mut Criterion) {
    let root = workspace_root();
    let mut group = c.benchmark_group("callgraph");
    group.sample_size(20);
    group.bench_function("build", |b| {
        b.iter(|| {
            let graph = CallGraph::build(black_box(&root)).expect("graph builds");
            black_box((graph.fns.len(), graph.files_scanned))
        })
    });
    group.finish();
}

/// The full hot-path certifier as CI runs it: call graph, panic
/// reachability, allocation/lock budgets, escape hygiene, ratchet.
fn bench_hotpath(c: &mut Criterion) {
    let root = workspace_root();
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(20);
    group.bench_function("workspace", |b| {
        b.iter(|| {
            let report =
                pup_analysis::hotpath::audit_workspace(black_box(&root)).expect("audit runs");
            black_box((report.fn_count, report.sites.len(), report.findings.len()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lex, bench_lint, bench_audit, bench_callgraph, bench_hotpath);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("analysis", &criterion::take_results())
        .expect("write BENCH_analysis.json");
    println!("wrote {}", path.display());
}
