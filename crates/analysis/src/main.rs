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
//! errors. With `--strict`, stale or unknown `// pup-lint: allow(...)`
//! names are violations too. With `--fix`, the stale escapes of the lint
//! and both audits are deleted in place first (`pup_analysis::escape`
//! holds the escape rules); that rewrites files, so a dirty git tree is
//! refused unless `--force` is given.
//!
//! `audit-concurrency` runs the Send/Sync shareability manifest, the
//! lock-discipline pass and the atomic-ordering lint (see
//! `pup_analysis::concurrency`) and exits with the same 0/1/2 protocol.
//! In text mode it lists each lock-ordering edge (`from -> to at
//! file:line`) under its lock and edge counts.
//!
//! `audit-hotpath` builds the workspace call graph, certifies every
//! `// pup-hot: <label>` root panic-free (modulo reasoned
//! `// pup-audit: allow(hotpath-panic): <why>` escapes), and checks per-root
//! lock budgets against the `locks` fields of
//! `results/hotpath_ratchet.json`: growth fails, shrinkage prompts
//! `--update-ratchet`. The `allocs` fields are measured allocations per
//! call, gated by `crates/core/tests/hot_allocs.rs`; this command carries
//! them through unchanged.
//!
//! `--format json` (for `lint`, `audit-concurrency` and `audit-hotpath`)
//! emits one JSON object (`pup_obs::json`) on stdout instead of text; CI
//! uploads it as an artifact.
//!
//! `audit-graph` instantiates all seven model types on a tiny synthetic
//! dataset, records their training-loss graphs as tape IR, and runs the
//! static passes in `pup_analysis::graph` (dead-parameter, dead-subgraph,
//! shape, op-coverage, determinism). Diagnostics are file-less
//! (`model: [pass] message`); the exit protocol is the same as `lint`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pup_analysis::{concurrency, fix, graph, hotpath, lint};
use pup_obs::json::Value;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let flags: &[&str] = match command.as_str() {
        "lint" => &["--strict", "--fix", "--force"],
        "audit-concurrency" => &[],
        "audit-hotpath" => &["--update-ratchet"],
        "audit-graph" => {
            return run_audit_graph(&PathBuf::from(args.next().unwrap_or_else(|| ".".into())));
        }
        _ => return usage(),
    };
    // `--format json|text`, the flags the subcommand accepts, and ROOT
    // (any other argument; default `.`).
    let (mut root, mut json, mut given) = (PathBuf::from("."), false, Vec::new());
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
            flag if flags.contains(&flag) => given.push(arg),
            _ => root = PathBuf::from(arg),
        }
    }
    let has = |flag: &str| given.iter().any(|g| g == flag);
    match command.as_str() {
        "lint" => {
            if has("--fix") {
                if let Some(code) = run_fix(&root, has("--force")) {
                    return code;
                }
            }
            run_lint(&root, has("--strict"), json)
        }
        "audit-concurrency" => run_audit_concurrency(&root, json),
        _ => run_audit_hotpath(&root, json, has("--update-ratchet")),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: pup-analysis lint [--strict] [--fix [--force]] [--format json] [ROOT]");
    eprintln!("       pup-analysis audit-concurrency [--format json] [ROOT]");
    eprintln!("       pup-analysis audit-hotpath [--format json] [--update-ratchet] [ROOT]");
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

/// Applies `--fix`; returns an exit code only on refusal or error.
fn run_fix(root: &Path, force: bool) -> Option<ExitCode> {
    if !force && fix::working_tree_dirty(root) == Some(true) {
        eprintln!(
            "pup-analysis: lint --fix rewrites files but the git tree has uncommitted \
             changes; commit/stash them or pass --force"
        );
        return Some(ExitCode::from(2));
    }
    let outcome = match fix::fix_workspace(root) {
        Ok(outcome) => outcome,
        Err(e) => return Some(cannot("fix", root, e)),
    };
    for file in &outcome.files_changed {
        eprintln!("pup-lint: fixed {}", file.display());
    }
    let (removed, files) = (outcome.escapes_removed, outcome.files_changed.len());
    eprintln!("pup-lint: removed {removed} stale escape(s) in {files} file(s)");
    None
}

/// Reports an unreadable ROOT: exit 2.
fn cannot(verb: &str, root: &Path, e: std::io::Error) -> ExitCode {
    eprintln!("pup-analysis: cannot {verb} {}: {e}", root.display());
    ExitCode::from(2)
}

/// Exit 0 on a clean report, 1 on any finding.
fn exit_code(findings: usize) -> ExitCode {
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_lint(root: &Path, strict: bool, json: bool) -> ExitCode {
    let report = match lint::lint_workspace_with(root, strict) {
        Ok(report) => report,
        Err(e) => return cannot("lint", root, e),
    };
    let (found, files) = (report.diagnostics.len(), report.files_checked);
    if json {
        println!("{}", lint_json(&report).render());
    } else {
        for diag in &report.diagnostics {
            println!("{diag}");
        }
        if found == 0 {
            println!("pup-lint: clean ({files} files checked)");
        } else {
            println!("pup-lint: {found} violation(s) in {files} files checked");
        }
    }
    exit_code(found)
}

fn lint_json(report: &lint::LintReport) -> Value {
    let diagnostics = report.diagnostics.iter().map(|d| {
        obj(vec![
            ("file", path(&d.file)),
            ("line", num(d.line)),
            ("rule", Value::str(d.rule.name())),
            ("span", Value::Arr(vec![num(d.span.0), num(d.span.1)])),
            ("message", Value::str(&d.message)),
        ])
    });
    obj(vec![
        ("schema", Value::str("pup-lint/1")),
        ("files_checked", num(report.files_checked)),
        ("diagnostics", Value::Arr(diagnostics.collect())),
    ])
}

fn run_audit_concurrency(root: &Path, json: bool) -> ExitCode {
    let report = match concurrency::audit_workspace(root) {
        Ok(r) => r,
        Err(e) => return cannot("audit", root, e),
    };
    let (found, files) = (report.findings.len(), report.files_checked);
    if json {
        println!("{}", audit_json(&report).render());
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
        if found == 0 {
            println!("audit-concurrency: clean ({files} files checked)");
        } else {
            println!("audit-concurrency: {found} finding(s) in {files} files checked");
        }
    }
    exit_code(found)
}

fn audit_json(report: &concurrency::AuditReport) -> Value {
    let findings =
        report.findings.iter().map(|f| finding(&f.file, f.line, f.pass.name(), &f.message));
    let edges = report.lock_edges.iter().map(|(from, to, file, line)| {
        obj(vec![
            ("from", Value::str(from)),
            ("to", Value::str(to)),
            ("file", path(file)),
            ("line", num(*line)),
        ])
    });
    obj(vec![
        ("schema", Value::str("pup-audit/1")),
        ("files_checked", num(report.files_checked)),
        ("findings", Value::Arr(findings.collect())),
        ("lock_edges", Value::Arr(edges.collect())),
    ])
}

fn run_audit_hotpath(root: &Path, json: bool, update: bool) -> ExitCode {
    let report = match hotpath::audit_workspace(root) {
        Ok(r) => r,
        Err(e) => return cannot("audit", root, e),
    };
    let (found, files) = (report.findings.len(), report.files_checked);
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
        println!("{}", hotpath_json(&report).render());
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
        if found == 0 {
            println!("audit-hotpath: certified ({} fn(s) in {files} files)", report.fn_count);
        } else {
            println!("audit-hotpath: {found} finding(s) in {files} files checked");
        }
    }
    exit_code(found)
}

fn hotpath_json(report: &hotpath::AuditReport) -> Value {
    let roots = report.roots.iter().map(|r| {
        obj(vec![
            ("label", Value::str(&r.label)),
            ("fn", Value::str(&r.qual)),
            ("reachable", num(r.reachable)),
            ("locks", num(r.locks)),
        ])
    });
    let findings =
        report.findings.iter().map(|f| finding(&f.file, f.line, f.pass.name(), &f.message));
    let sites = report.sites.iter().map(|s| {
        obj(vec![
            ("file", path(&s.file)),
            ("line", num(s.line)),
            ("construct", Value::str(&s.construct)),
            ("root", Value::str(&s.root)),
        ])
    });
    obj(vec![
        ("schema", Value::str("pup-hotpath/1")),
        ("files_checked", num(report.files_checked)),
        ("fn_count", num(report.fn_count)),
        ("roots", Value::Arr(roots.collect())),
        ("findings", Value::Arr(findings.collect())),
        ("sites", Value::Arr(sites.collect())),
    ])
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: usize) -> Value {
    Value::num(n as f64)
}

fn path(p: &Path) -> Value {
    Value::str(&p.to_string_lossy())
}

/// One audit finding, in the shape both audit reports share.
fn finding(file: &Path, line: usize, pass: &str, message: &str) -> Value {
    obj(vec![
        ("file", path(file)),
        ("line", num(line)),
        ("pass", Value::str(pass)),
        ("message", Value::str(message)),
    ])
}

fn run_audit_graph(root: &Path) -> ExitCode {
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
    let (found, models) = (report.diagnostics.len(), report.models.len());
    if found == 0 {
        println!("audit-graph: clean ({models} models audited)");
    } else {
        println!("audit-graph: {found} finding(s) across {models} models");
    }
    exit_code(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_json_report_parses_back() {
        let root = std::env::temp_dir().join(format!("pup-analysis-json-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/serve/src")).expect("temp tree");
        let src = "// pup-hot: \"quoted\"\npub fn f(p: f64) -> bool {\n    p == 0.5\n}\n\
                   pub struct S {\n    s: std::rc::Rc<u32>,\n}\n";
        std::fs::write(root.join("crates/serve/src/lib.rs"), src).expect("write seed file");
        let reports = [
            lint_json(&lint::lint_workspace(&root).expect("lint")),
            audit_json(&concurrency::audit_workspace(&root).expect("audit-concurrency")),
            hotpath_json(&hotpath::audit_workspace(&root).expect("audit-hotpath")),
        ];
        std::fs::remove_dir_all(&root).ok();
        let [lint, audit, hot] = reports.map(|v| Value::parse(&v.render()).expect("valid JSON"));
        let at = |v: &Value, key: &str, i: usize, field: &str| match v.get(key) {
            Some(Value::Arr(items)) => items[i].get(field).cloned(),
            _ => None,
        };

        assert_eq!(lint.get("schema"), Some(&Value::str("pup-lint/1")));
        assert_eq!(lint.get("files_checked").and_then(Value::as_u64), Some(1));
        assert_eq!(at(&lint, "diagnostics", 1, "rule"), Some(Value::str("float-eq")));
        assert_eq!(audit.get("schema"), Some(&Value::str("pup-audit/1")));
        assert_eq!(at(&audit, "findings", 0, "pass"), Some(Value::str("non-send")));
        assert_eq!(at(&audit, "findings", 0, "line").and_then(|l| l.as_u64()), Some(6));
        assert_eq!(audit.get("lock_edges"), Some(&Value::Arr(Vec::new())));
        assert_eq!(hot.get("schema"), Some(&Value::str("pup-hotpath/1")));
        assert_eq!(at(&hot, "roots", 0, "label"), Some(Value::str("\"quoted\"")));
        for key in ["files_checked", "fn_count", "findings", "sites"] {
            assert!(hot.get(key).is_some(), "missing `{key}`: {hot:?}");
        }
    }
}
