//! Mechanical cleanup for `pup-analysis lint --fix`.
//!
//! The only fix the driver applies is deleting **stale** allow escapes:
//! `// pup-lint: allow(<rule>)` comments whose names no longer suppress
//! any finding (including names of rules that do not exist), plus
//! `// pup-audit: allow(<kind>)` escapes the concurrency and hot-path
//! audits report as stale. Removing a stale escape can never introduce a
//! violation — the escape was suppressing nothing — so the pass is safe
//! to run unattended and is idempotent: the second run finds nothing
//! left to delete.
//!
//! Ordering matters: the lint pass rewrites files first, then both
//! audits run against the updated tree so the stale lines they report
//! match what is on disk.
//!
//! Edits rewrite files in place, so the CLI refuses to run on a dirty git
//! tree unless `--force` is given (a non-git tree is treated as consent).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::syntax::SourceFile;
use crate::{concurrency, hotpath, lint};

/// What a workspace fix pass did.
#[derive(Debug, Default)]
pub struct FixOutcome {
    /// Files rewritten.
    pub files_changed: Vec<PathBuf>,
    /// Individual stale escape names removed.
    pub escapes_removed: usize,
}

/// Whether `root` is a git work tree with uncommitted changes. `None`
/// when `git` is unavailable or `root` is not a repository — the caller
/// treats that as "nothing to protect".
pub fn working_tree_dirty(root: &Path) -> Option<bool> {
    let out =
        Command::new("git").arg("-C").arg(root).args(["status", "--porcelain"]).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(!out.stdout.iter().all(|&b| b.is_ascii_whitespace()))
}

/// Removes stale allow escapes from every workspace file. Returns what
/// changed; files without stale escapes are left untouched.
pub fn fix_workspace(root: &Path) -> io::Result<FixOutcome> {
    let mut outcome = FixOutcome::default();
    for file in lint::workspace_rs_files(root)? {
        let source = fs::read_to_string(&file)?;
        if let Some((fixed, removed)) = fix_source(&file, &source) {
            write_atomic(&file, &fixed)?;
            outcome.files_changed.push(file);
            outcome.escapes_removed += removed;
        }
    }
    fix_audit_escapes(root, &mut outcome)?;
    Ok(outcome)
}

/// Deletes `// pup-audit: allow(…)` escapes that the concurrency and
/// hot-path audits report as stale. Runs after the lint pass so the line
/// numbers in the audit reports match the tree on disk.
fn fix_audit_escapes(root: &Path, outcome: &mut FixOutcome) -> io::Result<()> {
    let mut stale: BTreeMap<PathBuf, BTreeSet<(usize, String)>> = BTreeMap::new();
    for (file, line, kind) in concurrency::audit_workspace(root)?.stale_escapes {
        stale.entry(file).or_default().insert((line, kind));
    }
    for s in hotpath::audit_workspace(root)?.stale_escapes {
        stale.entry(s.file).or_default().insert((s.line, s.kind));
    }
    for (file, lines) in stale {
        let source = fs::read_to_string(&file)?;
        if let Some((fixed, removed)) = delete_audit_escapes(&source, &lines) {
            write_atomic(&file, &fixed)?;
            if !outcome.files_changed.contains(&file) {
                outcome.files_changed.push(file);
            }
            outcome.escapes_removed += removed;
        }
    }
    Ok(())
}

/// Computes the text of `source` with the audit escape comments at the
/// given `(line, kind)` positions deleted, or `None` when none match.
pub fn delete_audit_escapes(
    source: &str,
    stale: &BTreeSet<(usize, String)>,
) -> Option<(String, usize)> {
    let file = SourceFile::parse(source);
    let mut edits: Vec<(usize, usize, String)> = Vec::new();
    for esc in hotpath::escape_comments(&file) {
        if stale.iter().any(|(line, kind)| *line == esc.line && *kind == esc.kind) {
            edits.push(comment_deletion(source, esc.span));
        }
    }
    if edits.is_empty() {
        return None;
    }
    let removed = edits.len();
    edits.sort_by_key(|&(s, _, _)| s);
    let mut fixed = source.to_string();
    for (start, end, replacement) in edits.into_iter().rev() {
        fixed.replace_range(start..end, &replacement);
    }
    Some((fixed, removed))
}

fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("rs.pup-fix-tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// Computes the fixed text for one file, or `None` when there is nothing
/// to fix. Returns the new source and the number of escape names removed.
pub fn fix_source(path: &Path, source: &str) -> Option<(String, usize)> {
    let analysis = lint::analyze_source(path, source, true);
    // Collect replacements as (start, end, replacement), non-overlapping,
    // then apply back-to-front so earlier offsets stay valid.
    let mut edits: Vec<(usize, usize, String)> = Vec::new();
    let mut removed = 0usize;
    for (site, live) in analysis.allows.iter().zip(&analysis.live) {
        let stale: Vec<&String> =
            site.names.iter().zip(live).filter_map(|(name, &l)| (!l).then_some(name)).collect();
        if stale.is_empty() {
            continue;
        }
        removed += stale.len();
        if stale.len() == site.names.len() {
            edits.push(comment_deletion(source, site.span));
        } else {
            // Keep the live names: rewrite just the name list.
            let live_names: Vec<&str> = site
                .names
                .iter()
                .zip(live)
                .filter_map(|(name, &l)| l.then_some(name.as_str()))
                .collect();
            let comment = &source[site.span.0..site.span.1];
            let marker = "allow(";
            let open = comment.find(marker).map(|a| a + marker.len())?;
            let close = comment[open..].find(')').map(|c| open + c)?;
            edits.push((site.span.0 + open, site.span.0 + close, live_names.join(", ")));
        }
    }
    if edits.is_empty() {
        return None;
    }
    edits.sort_by_key(|&(s, _, _)| s);
    let mut fixed = source.to_string();
    for (start, end, replacement) in edits.into_iter().rev() {
        fixed.replace_range(start..end, &replacement);
    }
    Some((fixed, removed))
}

/// The deletion span for a fully stale escape comment: the whole line when
/// the comment is alone on it (leading whitespace only and nothing after),
/// otherwise the comment plus the spaces separating it from the code.
fn comment_deletion(source: &str, span: (usize, usize)) -> (usize, usize, String) {
    let (start, end) = span;
    let line_start = source[..start].rfind('\n').map_or(0, |p| p + 1);
    let line_end = source[end..].find('\n').map_or(source.len(), |p| end + p + 1);
    let alone = source[line_start..start].chars().all(|c| c == ' ' || c == '\t')
        && source[end..line_end].trim().is_empty();
    if alone {
        (line_start, line_end, String::new())
    } else {
        let mut s = start;
        while s > line_start && matches!(source.as_bytes()[s - 1], b' ' | b'\t') {
            s -= 1;
        }
        (s, end, String::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_escape_on_its_own_line_is_deleted_whole() {
        let src = "fn f() -> u32 {\n    // pup-lint: allow(clone-in-loop)\n    42\n}\n";
        let (fixed, removed) = fix_source(Path::new("lib.rs"), src).expect("stale escape");
        assert_eq!(fixed, "fn f() -> u32 {\n    42\n}\n");
        assert_eq!(removed, 1);
    }

    #[test]
    fn stale_trailing_escape_keeps_the_code() {
        let src = "fn f() -> u32 {\n    42 // pup-lint: allow(float-eq)\n}\n";
        let (fixed, removed) = fix_source(Path::new("lib.rs"), src).expect("stale escape");
        assert_eq!(fixed, "fn f() -> u32 {\n    42\n}\n");
        assert_eq!(removed, 1);
    }

    #[test]
    fn live_escapes_are_untouched() {
        let src = "// pup-lint: allow(float-eq)\nfn f(p: f64) -> bool { p == 0.0 }\n";
        assert!(fix_source(Path::new("lib.rs"), src).is_none());
    }

    #[test]
    fn partially_stale_escape_keeps_live_names() {
        let src =
            "// pup-lint: allow(float-eq, clone-in-loop)\nfn f(p: f64) -> bool { p == 0.0 }\n";
        let (fixed, removed) = fix_source(Path::new("lib.rs"), src).expect("half stale");
        assert_eq!(fixed, "// pup-lint: allow(float-eq)\nfn f(p: f64) -> bool { p == 0.0 }\n");
        assert_eq!(removed, 1);
    }

    #[test]
    fn unknown_rule_names_are_removed() {
        let src = "fn f() {\n    // pup-lint: allow(no-such-rule)\n    let _x = 1;\n}\n";
        let (fixed, removed) = fix_source(Path::new("lib.rs"), src).expect("unknown name");
        assert_eq!(fixed, "fn f() {\n    let _x = 1;\n}\n");
        assert_eq!(removed, 1);
    }

    #[test]
    fn fix_is_idempotent() {
        let src = "fn f() -> u32 {\n    // pup-lint: allow(clone-in-loop)\n    42 // pup-lint: allow(float-eq)\n}\n";
        let (once, _) = fix_source(Path::new("lib.rs"), src).expect("stale escapes");
        assert!(fix_source(Path::new("lib.rs"), &once).is_none(), "second pass must be a no-op");
    }

    #[test]
    fn stale_audit_escape_is_deleted_by_line_and_kind() {
        let src =
            "fn f() {\n    // pup-audit: allow(hotpath-panic): old reason\n    let _x = 1;\n}\n";
        let stale: BTreeSet<(usize, String)> =
            [(2, "hotpath-panic".to_string())].into_iter().collect();
        let (fixed, removed) = delete_audit_escapes(src, &stale).expect("stale escape");
        assert_eq!(fixed, "fn f() {\n    let _x = 1;\n}\n");
        assert_eq!(removed, 1);
    }

    #[test]
    fn live_audit_escapes_with_other_kinds_survive() {
        let src = "fn f() {\n    // pup-audit: allow(non-send): still live\n    let _x = 1;\n}\n";
        let stale: BTreeSet<(usize, String)> =
            [(2, "hotpath-panic".to_string())].into_iter().collect();
        assert!(delete_audit_escapes(src, &stale).is_none());
    }

    #[test]
    fn trailing_audit_escape_keeps_the_code() {
        let src = "fn f() {\n    let _x = 1; // pup-audit: allow(hotpath-panic): gone\n}\n";
        let stale: BTreeSet<(usize, String)> =
            [(2, "hotpath-panic".to_string())].into_iter().collect();
        let (fixed, _) = delete_audit_escapes(src, &stale).expect("stale escape");
        assert_eq!(fixed, "fn f() {\n    let _x = 1;\n}\n");
    }

    #[test]
    fn audit_escape_deletion_is_idempotent() {
        let src = "fn f() {\n    // pup-audit: allow(hotpath-panic): old\n    let _x = 1;\n}\n";
        let stale: BTreeSet<(usize, String)> =
            [(2, "hotpath-panic".to_string())].into_iter().collect();
        let (once, _) = delete_audit_escapes(src, &stale).expect("stale escape");
        assert!(delete_audit_escapes(&once, &stale).is_none(), "second pass must be a no-op");
    }

    #[test]
    fn fixed_file_lints_clean_in_strict_mode() {
        let src = "fn f(p: f64) -> bool {\n    // pup-lint: allow(float-eq, clone-in-loop)\n    p == 0.0\n}\n";
        let (fixed, _) = fix_source(Path::new("lib.rs"), src).expect("stale name");
        let diags = lint::lint_source_with(Path::new("lib.rs"), &fixed, true);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
