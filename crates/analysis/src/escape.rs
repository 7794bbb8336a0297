//! The escape ledger: how `lint`, `audit-concurrency`, `audit-hotpath` and
//! `lint --fix` parse, match, check and delete escape comments.
//!
//! | marker | syntax | suppresses |
//! |--------|--------|------------|
//! | `pup-lint` | `// pup-lint: allow(rule-a, rule-b)` | always; no reason needed |
//! | `pup-audit` | `// pup-audit: allow(kind): <reason>` | only with a non-empty reason |
//!
//! An escape lives in a plain (non-doc) comment — one spelled in a string
//! literal or doc comment is prose — and covers a finding on its own line
//! or on the line below. A [`Ledger`] holds one file's escapes of the
//! marker its [`Reader`] reads and records which names suppressed
//! something; [`Ledger::hygiene`] reports the reader's names that are
//! unknown, reasonless or stale, and [`fix`] deletes the stale ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lex::TokenKind;
use crate::lint::Rule;
use crate::syntax::SourceFile;

/// The tool reading escapes: `lint` reads the `pup-lint` marker, the two
/// audits the `pup-audit` one. Each owns a set of names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// `lint`: every [`Rule::ALLOWABLE`] name; also reports unknown names.
    Lint,
    /// `audit-concurrency`: four kinds; also reports unknown audit kinds.
    Concurrency,
    /// `audit-hotpath`: `hotpath-panic`.
    Hotpath,
}

/// Every `pup-audit` kind and the audit that owns it.
const AUDIT_KINDS: &[(&str, Reader)] = &[
    ("non-send", Reader::Concurrency),
    ("lock-order", Reader::Concurrency),
    ("guard-across-scoring", Reader::Concurrency),
    ("relaxed-handoff", Reader::Concurrency),
    (crate::hotpath::ESCAPE_KIND, Reader::Hotpath),
];

/// The reader that owns `name` under the marker `reader` reads, if any.
fn owner(reader: Reader, name: &str) -> Option<Reader> {
    if reader == Reader::Lint {
        return Rule::ALLOWABLE.iter().any(|r| r.name() == name).then_some(Reader::Lint);
    }
    AUDIT_KINDS.iter().find(|(kind, _)| *kind == name).map(|&(_, r)| r)
}

/// One escape comment: the names of its `allow(…)` list at byte range
/// `list`, and whether each suppressed a finding.
#[derive(Debug)]
struct Escape {
    line: usize,
    span: (usize, usize),
    /// Where the marker (`pup-lint: allow(` or `pup-audit: allow(`) starts.
    marker: usize,
    list: (usize, usize),
    names: Vec<String>,
    used: Vec<bool>,
    reason: bool,
}

/// One file's escapes of the marker a [`Reader`] reads.
#[derive(Debug)]
pub struct Ledger {
    file: PathBuf,
    reader: Reader,
    escapes: Vec<Escape>,
}

impl Ledger {
    /// Collects the escapes `reader` reads from the plain comments of `file`:
    /// the first marker in each, a `pup-lint` list split on commas, a
    /// `pup-audit` kind taken whole.
    pub fn parse(path: &Path, file: &SourceFile<'_>, reader: Reader) -> Ledger {
        let lint = reader == Reader::Lint;
        let needle = if lint { "pup-lint: allow(" } else { "pup-audit: allow(" };
        let mut escapes = Vec::new();
        for t in &file.tokens {
            let plain = matches!(
                t.kind,
                TokenKind::LineComment { doc: false } | TokenKind::BlockComment { doc: false }
            );
            let text = t.text(file.src);
            let Some(marker) = text.find(needle).filter(|_| plain) else { continue };
            let open = marker + needle.len();
            let Some(close) = text[open..].find(')').map(|c| open + c) else { continue };
            let list = text[open..close].trim();
            let names: Vec<String> = if lint {
                list.split(',').map(|s| s.trim().to_string()).collect()
            } else {
                vec![list.to_string()]
            };
            let after = text[close + 1..].trim_start().strip_prefix(':');
            escapes.push(Escape {
                line: file.line_of(t.start + open),
                span: (t.start, t.end),
                marker: t.start + marker,
                list: (t.start + open, t.start + close),
                used: vec![false; names.len()],
                names,
                reason: after.is_some_and(|r| !r.trim().is_empty()),
            });
        }
        Ledger { file: path.to_path_buf(), reader, escapes }
    }

    /// Whether an escape covers a finding of `name` on `line`: one on that
    /// line or the line above that may suppress (a `pup-audit` escape needs
    /// a reason). Marks every covering name used.
    pub fn suppress(&mut self, line: usize, name: &str) -> bool {
        let mut hit = false;
        for esc in &mut self.escapes {
            let armed = self.reader == Reader::Lint || esc.reason;
            if armed && (esc.line == line || esc.line + 1 == line) {
                for (candidate, used) in esc.names.iter().zip(&mut esc.used) {
                    if candidate == name {
                        *used = true;
                        hit = true;
                    }
                }
            }
        }
        hit
    }

    /// The hygiene problems of the reader's names, in file order: a name no
    /// tool owns (`audit-hotpath` leaves unknown kinds to
    /// `audit-concurrency`), an owned `pup-audit` escape without a reason,
    /// or an owned name that suppressed nothing.
    pub fn hygiene(&self) -> Vec<Problem> {
        let mut out = Vec::new();
        for esc in &self.escapes {
            for (name, &used) in esc.names.iter().zip(&esc.used) {
                let fault = match owner(self.reader, name) {
                    None if self.reader != Reader::Hotpath => Fault::Unknown,
                    Some(r) if r != self.reader => continue,
                    Some(_) if self.reader != Reader::Lint && !esc.reason => Fault::Reasonless,
                    Some(_) if !used => Fault::Stale,
                    _ => continue,
                };
                let (file, reader, name) = (self.file.to_path_buf(), self.reader, name.to_string());
                out.push(Problem { file, line: esc.line, span: esc.span, reader, name, fault });
            }
        }
        out
    }
}

/// What is wrong with an escape name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No tool owns the name.
    Unknown,
    /// A `pup-audit` escape without a reason: it suppresses nothing.
    Reasonless,
    /// The name suppressed nothing.
    Stale,
}

/// One hygiene problem with one escape name.
#[derive(Debug, Clone)]
pub struct Problem {
    /// File of the escape.
    pub file: PathBuf,
    /// 1-based line of the marker.
    pub line: usize,
    /// Byte span of the whole comment.
    pub span: (usize, usize),
    /// The tool that reported it.
    pub reader: Reader,
    /// The name inside `allow(…)`.
    pub name: String,
    /// What is wrong with it.
    pub fault: Fault,
}

impl Problem {
    /// The finding message the reporting tool prints.
    pub fn message(&self) -> String {
        let (name, lint) = (&self.name, self.reader == Reader::Lint);
        let why = if self.reader == Reader::Hotpath { "cannot fire" } else { "is safe" };
        match self.fault {
            Fault::Unknown if lint => {
                format!("allow escape names unknown rule `{name}`; delete or fix it")
            }
            Fault::Unknown => format!("audit escape names unknown pass `{name}`"),
            Fault::Reasonless => format!(
                "audit escape `allow({name})` has no reason; write \
                 `// pup-audit: allow({name}): <why this {why}>`"
            ),
            Fault::Stale => format!(
                "stale {}escape: `allow({name})` suppresses nothing; delete it",
                if lint { "" } else { "audit " }
            ),
        }
    }
}

/// Deletes the stale names among `problems` (all from the file whose text
/// is `source`), and unknown `pup-lint` names, which can never suppress; an
/// unknown audit kind keeps its reviewed reason for a human to re-point.
/// The whole comment goes when none of its names survive. Otherwise a
/// marker whose names are all dead loses its own text (from its marker to
/// the next marker or the comment's end), and a partly live list just its
/// dead names. Returns the new text and the number of names removed, or
/// `None` when there is nothing to delete.
pub fn fix(source: &str, problems: &[Problem]) -> Option<(String, usize)> {
    let file = SourceFile::parse(source);
    // Each comment's escapes, one per marker.
    let mut comments: BTreeMap<(usize, usize), Vec<FixPart>> = BTreeMap::new();
    let mut removed = 0;
    // One ledger per marker: `pup-lint`, then `pup-audit`.
    for reader in [Reader::Lint, Reader::Concurrency] {
        for esc in Ledger::parse(Path::new(""), &file, reader).escapes {
            let dead = |name: &str| {
                problems.iter().any(|p| {
                    p.span == esc.span
                        && p.name == name
                        && (p.reader == Reader::Lint) == (reader == Reader::Lint)
                        && (p.fault == Fault::Stale
                            || (p.fault == Fault::Unknown && p.reader == Reader::Lint))
                })
            };
            let live: Vec<String> = esc.names.iter().filter(|n| !dead(n)).cloned().collect();
            let cut = esc.names.len() - live.len();
            removed += cut;
            let part = FixPart { marker: esc.marker, list: esc.list, live, cut: cut > 0 };
            comments.entry(esc.span).or_default().push(part);
        }
    }
    let mut edits: Vec<(usize, usize, String)> = Vec::new();
    for ((start, end), mut parts) in comments {
        if parts.iter().all(|p| p.live.is_empty()) {
            let (from, to) = comment_deletion(source, (start, end));
            edits.push((from, to, String::new()));
            continue;
        }
        parts.sort_by_key(|p| p.marker);
        let body = &source[..end];
        let body_end = body.strip_suffix("*/").unwrap_or(body).trim_end().len();
        for (k, part) in parts.iter().enumerate() {
            let next = parts.get(k + 1).map(|p| p.marker);
            if part.live.is_empty() {
                // The last marker takes the spaces before it with it, any
                // other the spaces up to the next marker.
                let from = match next {
                    Some(_) => part.marker,
                    None => body[..part.marker].trim_end().len(),
                };
                edits.push((from, next.unwrap_or(body_end), String::new()));
            } else if part.cut {
                edits.push((part.list.0, part.list.1, part.live.join(", ")));
            }
        }
    }
    let mut fixed = source.to_string();
    edits.sort_by_key(|&(from, ..)| from);
    for (start, end, replacement) in edits.into_iter().rev() {
        fixed.replace_range(start..end, &replacement);
    }
    (removed > 0).then_some((fixed, removed))
}

/// One marker's escape in a comment, as [`fix`] sees it.
struct FixPart {
    /// Where the marker starts.
    marker: usize,
    /// The byte range of its `allow(…)` list.
    list: (usize, usize),
    /// The names that stay.
    live: Vec<String>,
    /// Whether a name goes.
    cut: bool,
}

/// The deletion for a whole escape comment: its line when the comment is
/// alone on it, otherwise the comment and the spaces before it.
fn comment_deletion(source: &str, (start, end): (usize, usize)) -> (usize, usize) {
    let line_start = source[..start].rfind('\n').map_or(0, |p| p + 1);
    let line_end = source[end..].find('\n').map_or(source.len(), |p| end + p + 1);
    let before = source[line_start..start].trim_end_matches([' ', '\t']);
    if before.is_empty() && source[end..line_end].trim().is_empty() {
        return (line_start, line_end);
    }
    (line_start + before.len(), end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(src: &str, reader: Reader) -> Ledger {
        Ledger::parse(Path::new("lib.rs"), &SourceFile::parse(src), reader)
    }

    #[test]
    fn hygiene_reports_only_the_readers_own_names() {
        let src = "// pup-audit: allow(hotpath-panic): hot\nfn a() {}\n\
                   // pup-audit: allow(non-sned): typo\nfn b() {}\n\
                   // pup-audit: allow(lock-order): stale\nfn c() {}\n";
        let problems = |reader| -> Vec<(usize, Fault)> {
            ledger(src, reader).hygiene().iter().map(|p| (p.line, p.fault)).collect()
        };
        assert_eq!(problems(Reader::Hotpath), [(1, Fault::Stale)]);
        assert_eq!(problems(Reader::Concurrency), [(3, Fault::Unknown), (5, Fault::Stale)]);
    }

    #[test]
    fn unknown_lint_names_are_fixed_but_unknown_audit_kinds_are_kept() {
        let src = "// pup-lint: allow(no-such-rule)\n// pup-audit: allow(no-such-kind): r\n";
        let (fixed, removed) = fix(src, &ledger(src, Reader::Lint).hygiene()).expect("unknown");
        assert_eq!((fixed.as_str(), removed), ("// pup-audit: allow(no-such-kind): r\n", 1));
        assert!(fix(&fixed, &ledger(&fixed, Reader::Concurrency).hygiene()).is_none());
    }

    #[test]
    fn a_dead_marker_loses_only_its_own_text() {
        let mixed =
            "// pup-lint: allow(float-eq, as-cast-truncation) pup-audit: allow(non-send): m";
        let stale = |src: &str| -> Vec<Problem> {
            let mut lint = ledger(src, Reader::Lint);
            lint.suppress(2, "float-eq");
            let mut problems = lint.hygiene();
            problems.extend(ledger(src, Reader::Concurrency).hygiene());
            problems
        };
        let src = format!("{mixed}\nfn f(p: f64) -> bool {{ p == 2.5 }}\n");
        let (fixed, removed) = fix(&src, &stale(&src)).expect("two stale names");
        assert_eq!(removed, 2);
        assert_eq!(fixed, "// pup-lint: allow(float-eq)\nfn f(p: f64) -> bool { p == 2.5 }\n");
        // The dead marker first: its text goes up to the live one.
        let src = "// pup-audit: allow(non-send): m pup-lint: allow(float-eq)\nfn f() {}\n";
        let (fixed, _) = fix(src, &stale(src)).expect("a stale audit escape");
        assert_eq!(fixed, "// pup-lint: allow(float-eq)\nfn f() {}\n");
        // Both markers dead: the whole comment goes.
        let src =
            "/* pup-lint: allow(as-cast-truncation) pup-audit: allow(non-send): m */\nfn f() {}\n";
        let (fixed, removed) = fix(src, &stale(src)).expect("every name stale");
        assert_eq!((fixed.as_str(), removed), ("fn f() {}\n", 2));
    }
}
