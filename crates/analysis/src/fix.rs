//! Mechanical cleanup for `pup-analysis lint --fix`.
//!
//! The only fix the driver applies is deleting **stale** escapes of the
//! lint and both audits, as [`crate::escape::fix`] defines them. Removing
//! a stale escape can never introduce a violation — the escape was
//! suppressing nothing — so the pass is safe to run unattended and is
//! idempotent: the second run finds nothing left to delete.
//!
//! Ordering matters: the lint names go first, then both audits run on the
//! rewritten tree. Deleting a stale lint escape can bring an audit escape
//! back next to its site, and that escape is live again, not stale.
//!
//! Edits rewrite files in place, so the CLI refuses to run on a dirty git
//! tree unless `--force` is given (a non-git tree is treated as consent).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::escape::{self, Problem};
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

/// Removes stale escapes from every workspace file. Returns what changed;
/// files without stale escapes are left untouched.
pub fn fix_workspace(root: &Path) -> io::Result<FixOutcome> {
    let mut outcome = FixOutcome::default();
    for (file, source) in lint::workspace_sources(root)? {
        write_fixed(&file, fix_source(&file, &source), &mut outcome)?;
    }
    let mut by_file: BTreeMap<PathBuf, Vec<Problem>> = BTreeMap::new();
    let audits = concurrency::audit_workspace(root)?.escapes;
    for p in audits.into_iter().chain(hotpath::audit_workspace(root)?.escapes) {
        by_file.entry(p.file.to_path_buf()).or_default().push(p);
    }
    for (file, problems) in by_file {
        write_fixed(&file, escape::fix(&fs::read_to_string(&file)?, &problems), &mut outcome)?;
    }
    Ok(outcome)
}

/// Writes a fixed file in place, if there is one, and counts the names it
/// lost.
fn write_fixed(
    file: &Path,
    fixed: Option<(String, usize)>,
    out: &mut FixOutcome,
) -> io::Result<()> {
    let Some((text, removed)) = fixed else { return Ok(()) };
    let tmp = file.with_extension("rs.pup-fix-tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, file)?;
    if !out.files_changed.iter().any(|f| f == file) {
        out.files_changed.push(file.to_path_buf());
    }
    out.escapes_removed += removed;
    Ok(())
}

/// Computes the text of one file with its stale `pup-lint` names deleted,
/// or `None` when there is nothing to fix. Returns the new source and the
/// number of names removed.
pub fn fix_source(path: &Path, source: &str) -> Option<(String, usize)> {
    escape::fix(source, &lint::analyze_source(path, source).1.hygiene())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escape::{Ledger, Reader};
    use crate::syntax::SourceFile;

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

    /// The text of `src` with the stale `hotpath-panic` escapes deleted
    /// that audit-hotpath reports; no site here is on a hot path.
    fn fix_hotpath(src: &str) -> Option<(String, usize)> {
        let ledger = Ledger::parse(Path::new("lib.rs"), &SourceFile::parse(src), Reader::Hotpath);
        escape::fix(src, &ledger.hygiene())
    }

    #[test]
    fn stale_audit_escape_is_deleted_whole() {
        let src =
            "fn f() {\n    // pup-audit: allow(hotpath-panic): old reason\n    let _x = 1;\n}\n";
        let (fixed, removed) = fix_hotpath(src).expect("stale escape");
        assert_eq!(fixed, "fn f() {\n    let _x = 1;\n}\n");
        assert_eq!(removed, 1);
    }

    #[test]
    fn live_audit_escapes_with_other_kinds_survive() {
        let src = "fn f() {\n    // pup-audit: allow(non-send): still live\n    let _x = 1;\n}\n";
        assert!(fix_hotpath(src).is_none());
    }

    #[test]
    fn trailing_audit_escape_keeps_the_code() {
        let src = "fn f() {\n    let _x = 1; // pup-audit: allow(hotpath-panic): gone\n}\n";
        let (fixed, _) = fix_hotpath(src).expect("stale escape");
        assert_eq!(fixed, "fn f() {\n    let _x = 1;\n}\n");
    }

    #[test]
    fn audit_escape_deletion_is_idempotent() {
        let src = "fn f() {\n    // pup-audit: allow(hotpath-panic): old\n    let _x = 1;\n}\n";
        let (once, _) = fix_hotpath(src).expect("stale escape");
        assert!(fix_hotpath(&once).is_none(), "second pass must be a no-op");
    }

    #[test]
    fn fixed_file_lints_clean_in_strict_mode() {
        let src = "fn f(p: f64) -> bool {\n    // pup-lint: allow(float-eq, clone-in-loop)\n    p == 0.0\n}\n";
        let (fixed, _) = fix_source(Path::new("lib.rs"), src).expect("stale name");
        let diags = lint::lint_source_with(Path::new("lib.rs"), &fixed, true);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
