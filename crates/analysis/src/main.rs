//! CLI for the PUP correctness tooling.
//!
//! ```text
//! cargo run -p pup-analysis -- lint [--strict] [--fix [--force]] [--format json] [ROOT]
//! cargo run -p pup-analysis -- audit-concurrency [--format json] [ROOT]
//! cargo run -p pup-analysis -- audit-hotpath [--format json] [--update-ratchet] [ROOT]
//! cargo run -p pup-analysis -- audit-graph [ROOT]
//! ```
//!
//! `lint` walks `ROOT/crates/*/src` (default: the current directory),
//! prints one `file:line: [rule] message` diagnostic per violation, and
//! exits 1 when anything is found, 0 on a clean tree, 2 on usage or I/O
//! errors. With `--strict`, stale `// pup-lint: allow(...)` escapes (ones
//! that no longer suppress any finding) are violations too. With `--fix`,
//! stale escapes are deleted in place first — `// pup-lint: allow(...)`
//! names that suppress nothing plus `// pup-audit: allow(...)` escapes
//! the concurrency and hot-path audits report stale; that rewrites
//! files, so a dirty git tree is refused unless `--force` is given.
//!
//! `audit-concurrency` runs the Send/Sync shareability manifest, the
//! lock-discipline pass and the atomic-ordering lint (see
//! `pup_analysis::concurrency`) and exits with the same 0/1/2 protocol.
//! In text mode it lists each lock-ordering edge (`from -> to at
//! file:line`) under its lock and edge counts.
//!
//! `audit-hotpath` builds the workspace call graph, certifies every
//! `// pup-hot: <label>` root panic-free (modulo reasoned
//! `// pup-audit: allow(hotpath-panic)` escapes), and checks per-root
//! lock budgets against the `locks` fields of
//! `results/hotpath_ratchet.json`: growth fails, shrinkage prompts
//! `--update-ratchet`. The `allocs` fields are measured allocations per
//! call, gated by `crates/core/tests/hot_allocs.rs`; this command carries
//! them through unchanged.
//!
//! `--format json` (for `lint`, `audit-concurrency` and `audit-hotpath`)
//! emits a single machine-readable JSON object on stdout instead of text;
//! CI uploads it as an artifact.
//!
//! `audit-graph` instantiates all seven model types on a tiny synthetic
//! dataset, records their training-loss graphs as tape IR, and runs the
//! static passes in `pup_analysis::graph` (dead-parameter, dead-subgraph,
//! shape, op-coverage, determinism). Diagnostics are file-less
//! (`model: [pass] message`); the exit protocol is the same as `lint`.

use std::path::PathBuf;
use std::process::ExitCode;

use pup_analysis::concurrency::{self, json_escape};
use pup_analysis::{fix, graph, hotpath, lint};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let mut strict = false;
            let mut apply_fix = false;
            let mut force = false;
            let mut json = false;
            let mut root = PathBuf::from(".");
            let mut args = args.peekable();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--strict" => strict = true,
                    "--fix" => apply_fix = true,
                    "--force" => force = true,
                    "--format" => match args.next().as_deref() {
                        Some("json") => json = true,
                        Some("text") => json = false,
                        other => {
                            eprintln!("pup-analysis: unknown format {other:?}");
                            return ExitCode::from(2);
                        }
                    },
                    _ => root = PathBuf::from(arg),
                }
            }
            if apply_fix {
                if let Some(code) = run_fix(&root, force) {
                    return code;
                }
            }
            run_lint(&root, strict, json)
        }
        Some("audit-concurrency") => {
            let mut json = false;
            let mut root = PathBuf::from(".");
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--format" => match args.next().as_deref() {
                        Some("json") => json = true,
                        Some("text") => json = false,
                        other => {
                            eprintln!("pup-analysis: unknown format {other:?}");
                            return ExitCode::from(2);
                        }
                    },
                    _ => root = PathBuf::from(arg),
                }
            }
            run_audit_concurrency(&root, json)
        }
        Some("audit-hotpath") => {
            let mut json = false;
            let mut update = false;
            let mut root = PathBuf::from(".");
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--update-ratchet" => update = true,
                    "--format" => match args.next().as_deref() {
                        Some("json") => json = true,
                        Some("text") => json = false,
                        other => {
                            eprintln!("pup-analysis: unknown format {other:?}");
                            return ExitCode::from(2);
                        }
                    },
                    _ => root = PathBuf::from(arg),
                }
            }
            run_audit_hotpath(&root, json, update)
        }
        Some("audit-graph") => {
            let root = PathBuf::from(args.next().unwrap_or_else(|| ".".to_string()));
            run_audit_graph(&root)
        }
        _ => {
            eprintln!(
                "usage: pup-analysis lint [--strict] [--fix [--force]] [--format json] [ROOT]"
            );
            eprintln!("       pup-analysis audit-concurrency [--format json] [ROOT]");
            eprintln!(
                "       pup-analysis audit-hotpath [--format json] [--update-ratchet] [ROOT]"
            );
            eprintln!("       pup-analysis audit-graph [ROOT]");
            eprintln!();
            eprintln!("lint walks ROOT/crates/*/src and enforces the workspace lint rules:");
            for rule in lint::Rule::ALLOWABLE {
                eprintln!("  - {}", rule.name());
            }
            eprintln!();
            eprintln!("Suppress a site with `// pup-lint: allow(<rule>)` on or above it;");
            eprintln!("--strict additionally reports escapes that suppress nothing, and");
            eprintln!("--fix deletes those stale escapes in place (pup-lint and stale");
            eprintln!("pup-audit escapes from both audits).");
            eprintln!();
            eprintln!("audit-concurrency runs the Send/Sync manifest, lock-discipline and");
            eprintln!("atomic-ordering passes.");
            eprintln!();
            eprintln!("audit-hotpath builds the workspace call graph and certifies every");
            eprintln!("`// pup-hot: <label>` root panic-free (escapes:");
            eprintln!("`// pup-audit: allow(hotpath-panic): <why>`), ratcheting per-root");
            eprintln!("lock budgets in results/hotpath_ratchet.json.");
            eprintln!();
            eprintln!("audit-graph records every model's training-loss graph as tape IR");
            eprintln!("and runs the static passes: dead-parameter, dead-subgraph, shape,");
            eprintln!("op-coverage, determinism.");
            ExitCode::from(2)
        }
    }
}

/// Applies `--fix`; returns an exit code only on refusal or error.
fn run_fix(root: &std::path::Path, force: bool) -> Option<ExitCode> {
    if !force && fix::working_tree_dirty(root) == Some(true) {
        eprintln!(
            "pup-analysis: lint --fix rewrites files but the git tree has uncommitted \
             changes; commit/stash them or pass --force"
        );
        return Some(ExitCode::from(2));
    }
    match fix::fix_workspace(root) {
        Ok(outcome) => {
            for file in &outcome.files_changed {
                eprintln!("pup-lint: fixed {}", file.display());
            }
            eprintln!(
                "pup-lint: removed {} stale escape(s) in {} file(s)",
                outcome.escapes_removed,
                outcome.files_changed.len()
            );
            None
        }
        Err(e) => {
            eprintln!("pup-analysis: cannot fix {}: {e}", root.display());
            Some(ExitCode::from(2))
        }
    }
}

fn run_lint(root: &std::path::Path, strict: bool, json: bool) -> ExitCode {
    match lint::lint_workspace_with(root, strict) {
        Ok(report) => {
            if json {
                print_lint_json(&report);
            } else {
                for diag in &report.diagnostics {
                    println!("{diag}");
                }
                if report.diagnostics.is_empty() {
                    println!("pup-lint: clean ({} files checked)", report.files_checked);
                } else {
                    println!(
                        "pup-lint: {} violation(s) in {} files checked",
                        report.diagnostics.len(),
                        report.files_checked
                    );
                }
            }
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("pup-analysis: cannot lint {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn print_lint_json(report: &lint::LintReport) {
    let mut out = String::from("{\n  \"schema\": \"pup-lint/1\",\n");
    out.push_str(&format!("  \"files_checked\": {},\n", report.files_checked));
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        let comma = if i + 1 < report.diagnostics.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"span\": [{}, {}], \
             \"message\": \"{}\"}}{comma}\n",
            json_escape(&d.file.to_string_lossy()),
            d.line,
            d.rule.name(),
            d.span.0,
            d.span.1,
            json_escape(&d.message),
        ));
    }
    out.push_str("  ]\n}");
    println!("{out}");
}

fn run_audit_concurrency(root: &std::path::Path, json: bool) -> ExitCode {
    let report = match concurrency::audit_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pup-analysis: cannot audit {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        print_audit_json(&report);
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "audit-concurrency: {} lock(s), {} ordering edge(s)",
            report.locks.len(),
            report.lock_edges.len(),
        );
        for (from, to, file, line) in &report.lock_edges {
            println!("  {from} -> {to} at {}:{line}", file.display());
        }
        if report.findings.is_empty() {
            println!("audit-concurrency: clean ({} files checked)", report.files_checked);
        } else {
            println!(
                "audit-concurrency: {} finding(s) in {} files checked",
                report.findings.len(),
                report.files_checked
            );
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_audit_json(report: &concurrency::AuditReport) {
    let mut out = String::from("{\n  \"schema\": \"pup-audit/1\",\n");
    out.push_str(&format!("  \"files_checked\": {},\n", report.files_checked));
    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let comma = if i + 1 < report.findings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"pass\": \"{}\", \"message\": \"{}\"}}{comma}\n",
            json_escape(&f.file.to_string_lossy()),
            f.line,
            f.pass.name(),
            json_escape(&f.message),
        ));
    }
    out.push_str("  ],\n  \"lock_edges\": [\n");
    for (i, (a, b, file, line)) in report.lock_edges.iter().enumerate() {
        let comma = if i + 1 < report.lock_edges.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"from\": \"{}\", \"to\": \"{}\", \"file\": \"{}\", \"line\": {line}}}{comma}\n",
            json_escape(a),
            json_escape(b),
            json_escape(&file.to_string_lossy()),
        ));
    }
    out.push_str("  ]\n}");
    println!("{out}");
}

fn run_audit_hotpath(root: &std::path::Path, json: bool, update: bool) -> ExitCode {
    let report = match hotpath::audit_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pup-analysis: cannot audit {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if update {
        if let Err(e) = hotpath::update_ratchet(root, &report.roots) {
            eprintln!("pup-analysis: cannot update ratchet: {e}");
            return ExitCode::from(2);
        }
        eprintln!("audit-hotpath: ratchet set for {} hot root(s)", report.roots.len());
        // Re-run so ratchet findings (if any) reflect the new budgets.
        return run_audit_hotpath(root, json, false);
    }
    if json {
        print_hotpath_json(&report);
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        for r in &report.roots {
            let recorded = report
                .ratchet
                .as_ref()
                .and_then(|m| m.get(&r.label))
                .map_or_else(|| "unset".to_string(), |&(_, locks)| locks.to_string());
            println!(
                "audit-hotpath: root `{}` ({}): {} fn(s) reachable, {} lock site(s) \
                 (ratchet: {recorded})",
                r.label, r.qual, r.reachable, r.locks
            );
        }
        for s in &report.sites {
            println!(
                "audit-hotpath: lock {}:{}: {} via `{}`",
                s.file.display(),
                s.line,
                s.construct,
                s.root
            );
        }
        if report.findings.is_empty() {
            println!(
                "audit-hotpath: certified ({} fn(s) in {} files)",
                report.fn_count, report.files_checked
            );
        } else {
            println!(
                "audit-hotpath: {} finding(s) in {} files checked",
                report.findings.len(),
                report.files_checked
            );
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_hotpath_json(report: &hotpath::AuditReport) {
    let mut out = String::from("{\n  \"schema\": \"pup-hotpath/1\",\n");
    out.push_str(&format!("  \"files_checked\": {},\n", report.files_checked));
    out.push_str(&format!("  \"fn_count\": {},\n", report.fn_count));
    out.push_str("  \"roots\": [\n");
    for (i, r) in report.roots.iter().enumerate() {
        let comma = if i + 1 < report.roots.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"fn\": \"{}\", \"reachable\": {}, \"locks\": {}}}{comma}\n",
            json_escape(&r.label),
            json_escape(&r.qual),
            r.reachable,
            r.locks,
        ));
    }
    out.push_str("  ],\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let comma = if i + 1 < report.findings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"pass\": \"{}\", \"message\": \"{}\"}}{comma}\n",
            json_escape(&f.file.to_string_lossy()),
            f.line,
            f.pass.name(),
            json_escape(&f.message),
        ));
    }
    out.push_str("  ],\n  \"sites\": [\n");
    for (i, s) in report.sites.iter().enumerate() {
        let comma = if i + 1 < report.sites.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"construct\": \"{}\", \"root\": \"{}\"}}{comma}\n",
            json_escape(&s.file.to_string_lossy()),
            s.line,
            json_escape(&s.construct),
            json_escape(&s.root),
        ));
    }
    out.push_str("  ]\n}");
    println!("{out}");
}

fn run_audit_graph(root: &std::path::Path) -> ExitCode {
    let report = graph::audit_workspace(root);
    for note in &report.notes {
        eprintln!("{note}");
    }
    for diag in &report.diagnostics {
        println!("{diag}");
    }
    for m in &report.models {
        println!("audit-graph: {}: {} tape nodes, {} parameters", m.model, m.nodes, m.params);
    }
    if report.diagnostics.is_empty() {
        println!("audit-graph: clean ({} models audited)", report.models.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "audit-graph: {} finding(s) across {} models",
            report.diagnostics.len(),
            report.models.len()
        );
        ExitCode::from(1)
    }
}
