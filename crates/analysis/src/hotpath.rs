//! Hot-path certifier: panic-reachability and lock budgets over the
//! [`crate::callgraph`] call graph.
//!
//! A fn annotated `// pup-hot: <label>` is a **hot root** — an entry point
//! whose transitive callees form a serving- or training-critical inner
//! loop. This module runs two reachability-fixpoint passes over the graph:
//!
//! 1. **Panic-reachability.** Per-fn summaries record every syntactic
//!    panic source in the body: `panic!`-family macros (`panic!`,
//!    `unreachable!`, `todo!`, `unimplemented!`), `assert!`-family macros
//!    (`debug_assert*` is *not* a source — it compiles out of release
//!    builds), `.unwrap()` / `.expect(…)`, index/range expressions
//!    `x[…]`, and integer `/` `%` (with float-arithmetic excluded by
//!    heuristic). Facts propagate caller-ward: a root certifies only when
//!    zero unescaped sources are reachable from it. A legitimate site is
//!    acknowledged with an escape ([`crate::escape`]) on or directly above
//!    it: `// pup-audit: allow(hotpath-panic): <why this cannot fire>`. The
//!    escape is live only if a site it suppresses is in a hot fn.
//! 2. **Lock budget.** The same reachable set is scanned for lock
//!    acquisitions (`.lock()` / `.read()` / `.write()`). Budgets are not
//!    zero — they are **ratcheted**: the per-root counts live in the
//!    `locks` fields of `results/hotpath_ratchet.json`; growth fails the
//!    audit, shrinkage prompts `--update-ratchet`.
//!
//! Allocations are not estimated here. The `allocs` fields of the same
//! file hold allocations per call that a counting allocator measures on
//! one seeded call of each root (`crates/core/tests/hot_allocs.rs`); this
//! audit reads and rewrites only `locks` and carries `allocs` through.
//!
//! Soundness caveats (see DESIGN.md §13): calls through fn-pointer /
//! closure *values* are invisible to the graph, and bare-name fan-out can
//! add edges no execution takes. The first is why closures are attributed
//! to their enclosing fn (a closure defined on the hot path is audited
//! there, wherever it is later invoked from); the second only ever makes
//! the certifier stricter.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pup_obs::json::Value;

use crate::callgraph::{innermost, CallGraph};
use crate::escape::{Ledger, Problem, Reader};
use crate::lex::TokenKind;
use crate::lint::workspace_sources;
use crate::syntax::{in_any, SourceFile};

/// Repo-relative path of the committed hot-path budget ratchet.
pub const RATCHET_PATH: &str = "results/hotpath_ratchet.json";

/// The escape kind this audit owns.
pub const ESCAPE_KIND: &str = "hotpath-panic";

/// Which pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// An unescaped panic source reachable from a hot root.
    PanicReach,
    /// A malformed or stale `// pup-audit: allow(hotpath-panic)` escape.
    Escape,
    /// Budget ratchet violations and bookkeeping prompts.
    Ratchet,
    /// Workspace-shape problems (e.g. no hot roots annotated at all).
    Roots,
}

impl Pass {
    /// Stable machine name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::PanicReach => "hotpath-panic",
            Pass::Escape => "escape",
            Pass::Ratchet => "ratchet",
            Pass::Roots => "roots",
        }
    }
}

/// One certifier finding.
#[derive(Debug)]
pub struct Finding {
    /// File the finding is anchored to.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Producing pass.
    pub pass: Pass,
    /// Human-readable message (includes the call chain for panic findings).
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.pass.name(), self.message)
    }
}

/// Per-root budget summary.
#[derive(Debug)]
pub struct RootReport {
    /// The `// pup-hot:` label.
    pub label: String,
    /// Qualified name of the root fn.
    pub qual: String,
    /// Number of workspace fns reachable from the root (root included).
    pub reachable: usize,
    /// Lock-acquisition sites reachable from the root.
    pub locks: usize,
}

/// One lock site on some root's hot path (for the worklist print and the
/// JSON report). A site reachable from several roots is attributed to the
/// first (label-sorted) root that reaches it.
#[derive(Debug)]
pub struct SiteItem {
    /// File of the site.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// The acquisition (`.lock()`, `.read()`, `.write()`).
    pub construct: String,
    /// Label of the root this site is attributed to.
    pub root: String,
}

/// The full certifier report.
#[derive(Debug)]
pub struct AuditReport {
    /// All findings, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Per-root budgets, sorted by label.
    pub roots: Vec<RootReport>,
    /// Lock worklist, sorted by (file, line).
    pub sites: Vec<SiteItem>,
    /// The committed ratchet, if present: label -> (allocs, locks); only
    /// `locks` is compared here.
    pub ratchet: Option<BTreeMap<String, (usize, usize)>>,
    /// Number of files scanned.
    pub files_checked: usize,
    /// Number of fn nodes in the call graph.
    pub fn_count: usize,
    /// Hygiene problems of the `allow(hotpath-panic)` escapes; `lint --fix`
    /// deletes the stale ones.
    pub escapes: Vec<Problem>,
}

/// A local panic/lock site before fn attribution.
struct RawSite {
    offset: usize,
    line: usize,
    construct: String,
}

/// Per-file local facts: panic sources and lock sites.
struct FileSites {
    panics: Vec<RawSite>,
    locks: Vec<RawSite>,
}

/// Macros that unconditionally may panic. `debug_assert*` is absent on
/// purpose: it compiles out of release builds, which is what serves.
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Idents that must not precede a `[` for it to be an index expression.
const NON_INDEX_KEYWORDS: &[&str] =
    &["let", "in", "return", "else", "match", "if", "while", "mut", "ref", "move", "box", "as"];

/// Extracts all local sites from one parsed file (non-test code only).
fn extract_sites(file: &SourceFile<'_>) -> FileSites {
    let test_spans = file.test_spans();
    let mut sites = FileSites { panics: Vec::new(), locks: Vec::new() };

    for p in 0..file.code.len() {
        let ti = file.code[p];
        let at = file.tokens[ti].start;
        if in_any(&test_spans, at) {
            continue;
        }
        let panic_site = |construct: String, sites: &mut FileSites| {
            sites.panics.push(RawSite { offset: at, line: file.line_of(at), construct });
        };
        match file.tokens[ti].kind {
            TokenKind::Ident => {
                let word = file.text(ti);
                let bang = file.code.get(p + 1).is_some_and(|&n| file.is_punct(n, b'!'));
                if bang && PANIC_MACROS.contains(&word) {
                    panic_site(format!("{word}!"), &mut sites);
                }
            }
            TokenKind::Punct if file.is_punct(ti, b'.') => {
                let Some(&name) = file.code.get(p + 1) else { continue };
                if file.tokens[name].kind != TokenKind::Ident {
                    continue;
                }
                match file.text(name) {
                    "unwrap" if file.match_seq(p, &[".", "unwrap", "(", ")"]) => {
                        panic_site(".unwrap()".to_string(), &mut sites);
                    }
                    "expect" if file.match_seq(p, &[".", "expect", "("]) => {
                        panic_site(".expect(…)".to_string(), &mut sites);
                    }
                    w @ ("lock" | "read" | "write")
                        if file.code.get(p + 2).is_some_and(|&n| file.is_punct(n, b'(')) =>
                    {
                        sites.locks.push(RawSite {
                            offset: at,
                            line: file.line_of(at),
                            construct: format!(".{w}()"),
                        });
                    }
                    _ => {}
                }
            }
            TokenKind::Punct if file.is_punct(ti, b'[') && is_index_expr(file, p) => {
                panic_site("index `[…]`".to_string(), &mut sites);
            }
            TokenKind::Punct if file.is_punct(ti, b'/') || file.is_punct(ti, b'%') => {
                let op = if file.is_punct(ti, b'/') { '/' } else { '%' };
                if is_integer_div(file, p, at) {
                    panic_site(format!("integer `{op}`"), &mut sites);
                }
            }
            _ => {}
        }
    }
    sites
}

/// Whether the `[` at code position `p` starts an index (or range-index)
/// expression: it must directly follow a value — an ident that is not a
/// keyword, a closing `)` / `]`, or a string literal. Attributes (`#[`),
/// macro brackets (`name![`), array types/literals and slice patterns all
/// fail that test.
fn is_index_expr(file: &SourceFile<'_>, p: usize) -> bool {
    let Some(prev) = p.checked_sub(1).map(|q| file.code[q]) else { return false };
    match file.tokens[prev].kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&file.text(prev)),
        TokenKind::Punct => file.is_punct(prev, b')') || file.is_punct(prev, b']'),
        TokenKind::Str | TokenKind::RawStr => true,
        _ => false,
    }
}

/// Whether the `/` or `%` at code position `p` (byte `at`) is integer
/// arithmetic that may panic (divide by zero / overflow). Float
/// arithmetic is excluded by heuristic: a float literal, an `f32`/`f64`
/// ident, or a float-only method (`sqrt`, `exp`, `ln`, `powi`, `powf`)
/// anywhere in the innermost enclosing fn body marks the whole fn floaty
/// — local float bindings (`let m_hat = mi / bc1`) carry no per-statement
/// type marker, so per-statement scanning is not enough. The cost is a
/// missed integer division inside float-heavy fns; the heuristic trades
/// that for not drowning the report in float false positives. A nonzero
/// integer literal divisor cannot divide by zero and is skipped too.
fn is_integer_div(file: &SourceFile<'_>, p: usize, at: usize) -> bool {
    // `/=`? The lexer never glues puncts, so compound assignment shows up
    // as `/` followed by `=` — still a division, still audited.
    let Some(&next) = file.code.get(p + 1) else { return false };
    match file.tokens[next].kind {
        TokenKind::Float => return false,
        TokenKind::Int => {
            let text = file.text(next);
            let nonzero = text.trim_start_matches('0').chars().any(|c| c.is_ascii_hexdigit());
            if nonzero {
                return false;
            }
        }
        _ => {}
    }
    if let Some(prev) = p.checked_sub(1).map(|q| file.code[q]) {
        if file.tokens[prev].kind == TokenKind::Float {
            return false;
        }
        // A `/` directly after `(`/`,`/`=` etc. is not a binary operator
        // position we understand; be quiet rather than noisy.
        if file.tokens[prev].kind == TokenKind::Punct
            && !(file.is_punct(prev, b')') || file.is_punct(prev, b']'))
        {
            return false;
        }
    }
    // Enclosing-fn float heuristic: innermost fn body containing `at`.
    let span = file
        .fn_defs()
        .iter()
        .filter_map(|d| d.body)
        .map(|(open, close)| (file.tokens[open].start, file.tokens[close].end))
        .filter(|&(lo, hi)| lo <= at && at < hi)
        .min_by_key(|&(lo, hi)| hi - lo);
    if let Some((lo, hi)) = span {
        let floaty = file.code.iter().any(|&ti| {
            let t = &file.tokens[ti];
            if t.start < lo || t.start >= hi {
                return false;
            }
            t.kind == TokenKind::Float
                || (t.kind == TokenKind::Ident
                    && matches!(
                        file.text(ti),
                        "f32" | "f64" | "sqrt" | "exp" | "ln" | "powi" | "powf"
                    ))
        });
        if floaty {
            return false;
        }
    }
    true
}

/// Runs the certifier over `<root>/crates/*/src`.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    Ok(audit_sources(root, &workspace_sources(root)?))
}

/// The panic and lock sites attributed to a fn node.
struct FnSites {
    /// Unescaped panic sources: (line, construct).
    panics: Vec<(usize, String)>,
    /// Lock sites: (offset, line, construct).
    locks: Vec<(usize, usize, String)>,
}

/// Runs the certifier over in-memory sources. `root` is only used to read
/// the committed ratchet; pass a directory without one to skip the check.
pub fn audit_sources(root: &Path, sources: &[(PathBuf, String)]) -> AuditReport {
    let mut graph = CallGraph::build_from_sources(sources);
    graph.attach_crate_deps(root);
    let mut report = AuditReport {
        findings: Vec::new(),
        roots: Vec::new(),
        sites: Vec::new(),
        ratchet: read_ratchet(root),
        files_checked: sources.len(),
        fn_count: graph.fns.len(),
        escapes: Vec::new(),
    };

    // Group fn indices by file for site attribution.
    let mut fns_by_file: BTreeMap<&Path, Vec<usize>> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        fns_by_file.entry(f.file.as_path()).or_default().push(i);
    }

    // Per-root reachability: BFS with parent pointers so every finding
    // names its call chain.
    let roots = graph.hot_roots();
    if roots.is_empty() {
        report.findings.push(Finding {
            file: PathBuf::from("crates"),
            line: 1,
            pass: Pass::Roots,
            message: "no `// pup-hot: <label>` roots annotated anywhere in the workspace; \
                      the hot-path certifier has nothing to certify"
                .to_string(),
        });
    }
    let mut hot_reach: Vec<bool> = vec![false; graph.fns.len()];
    let mut reach: Vec<(BTreeMap<usize, usize>, BTreeSet<usize>)> = Vec::new();
    for (_, start) in &roots {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(*start);
        queue.push_back(*start);
        while let Some(i) = queue.pop_front() {
            hot_reach[i] = true;
            for call in &graph.fns[i].calls {
                for j in graph.callees(i, call) {
                    if seen.insert(j) {
                        parent.insert(j, i);
                        queue.push_back(j);
                    }
                }
            }
        }
        reach.push((parent, seen));
    }

    // Extract local sites per file and attribute each to the innermost
    // enclosing fn. Escapes apply to the panic sites of hot fns only, so an
    // escape that covers nothing but cold code is stale.
    let mut per_fn: Vec<FnSites> =
        (0..graph.fns.len()).map(|_| FnSites { panics: Vec::new(), locks: Vec::new() }).collect();
    for (path, text) in sources {
        let file = SourceFile::parse(text);
        let sites = extract_sites(&file);
        let mut ledger = Ledger::parse(path, &file, Reader::Hotpath);
        let owners = fns_by_file.get(path.as_path()).map_or(&[][..], |v| &v[..]);
        let owner_of = |offset: usize| innermost(&graph.fns, owners.iter().copied(), offset);
        for s in sites.panics {
            let Some(owner) = owner_of(s.offset) else { continue };
            if hot_reach[owner] && !ledger.suppress(s.line, ESCAPE_KIND) {
                per_fn[owner].panics.push((s.line, s.construct));
            }
        }
        for s in sites.locks {
            if let Some(owner) = owner_of(s.offset) {
                per_fn[owner].locks.push((s.offset, s.line, s.construct));
            }
        }
        report.escapes.extend(ledger.hygiene());
    }

    // Panic sites are keyed by line and lock sites by byte offset, so each
    // kind keeps its own set: a shared one would let a lock whose offset
    // equals a claimed panic line drop out of the budget.
    let mut claimed_panics: BTreeSet<(PathBuf, usize)> = BTreeSet::new();
    let mut claimed_locks: BTreeSet<(PathBuf, usize)> = BTreeSet::new();
    for ((label, start), (parent, seen)) in roots.iter().zip(&reach) {
        let chain = |mut i: usize| -> String {
            let mut names = vec![graph.fns[i].qual.as_str()];
            while let Some(&p) = parent.get(&i) {
                names.push(graph.fns[p].qual.as_str());
                i = p;
            }
            names.reverse();
            names.join(" -> ")
        };
        let mut locks = 0usize;
        for &i in seen {
            let f = &graph.fns[i];
            for (line, construct) in &per_fn[i].panics {
                if claimed_panics.insert((f.file.to_path_buf(), *line)) {
                    report.findings.push(Finding {
                        file: f.file.to_path_buf(),
                        line: *line,
                        pass: Pass::PanicReach,
                        message: format!(
                            "{construct} reachable from hot root `{label}` via {}; make it \
                             infallible or annotate \
                             `// pup-audit: allow(hotpath-panic): <why this cannot fire>`",
                            chain(i)
                        ),
                    });
                }
            }
            for (offset, line, construct) in &per_fn[i].locks {
                if claimed_locks.insert((f.file.to_path_buf(), *offset)) {
                    locks += 1;
                    report.sites.push(SiteItem {
                        file: f.file.to_path_buf(),
                        line: *line,
                        construct: construct.to_string(),
                        root: label.to_string(),
                    });
                }
            }
        }
        report.roots.push(RootReport {
            label: label.to_string(),
            qual: graph.fns[*start].qual.to_string(),
            reachable: seen.len(),
            locks,
        });
    }
    for p in &report.escapes {
        report.findings.push(Finding {
            file: p.file.to_path_buf(),
            line: p.line,
            pass: Pass::Escape,
            message: p.message(),
        });
    }

    ratchet_pass(&mut report);
    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Compares per-root lock budgets against the committed ratchet.
fn ratchet_pass(report: &mut AuditReport) {
    let finding = |message: String| Finding {
        file: PathBuf::from(RATCHET_PATH),
        line: 1,
        pass: Pass::Ratchet,
        message,
    };
    let Some(ratchet) = &report.ratchet else {
        if report.roots.iter().any(|r| r.locks > 0) {
            report.findings.push(finding(
                "no hot-path ratchet recorded but hot roots have lock budgets; run \
                 `audit-hotpath --update-ratchet` and commit the result"
                    .to_string(),
            ));
        }
        return;
    };
    for r in &report.roots {
        let (label, now) = (&r.label, r.locks);
        let message = match ratchet.get(label) {
            None => format!(
                "hot root `{label}` has no recorded budget; run \
                 `audit-hotpath --update-ratchet` and commit the result"
            ),
            Some(&(_, rec)) if now > rec => format!(
                "hot root `{label}` lock budget grew: {now} site(s) vs ratchet {rec}; hot \
                 loops only get leaner — remove the new lock sites instead"
            ),
            Some(&(_, rec)) if now < rec => format!(
                "hot root `{label}` lock budget shrank: {now} site(s) vs ratchet {rec}; lock \
                 in the progress with `audit-hotpath --update-ratchet`"
            ),
            Some(_) => continue,
        };
        report.findings.push(finding(message));
    }
    for label in ratchet.keys() {
        if !report.roots.iter().any(|r| &r.label == label) {
            report.findings.push(finding(format!(
                "ratchet records root `{label}` but no fn is annotated \
                 `// pup-hot: {label}`; run `audit-hotpath --update-ratchet`"
            )));
        }
    }
}

/// Rewrites the committed ratchet's lock budgets to the current per-root
/// counts. Each root's measured `allocs` is carried through unchanged
/// (0 for a root the file does not record yet).
pub fn update_ratchet(root: &Path, roots: &[RootReport]) -> io::Result<()> {
    let path = root.join(RATCHET_PATH);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let recorded = read_ratchet(root).unwrap_or_default();
    let mut body = String::from("{\n  \"schema\": \"pup-hotpath-ratchet/1\",\n  \"roots\": {\n");
    let mut sorted: Vec<&RootReport> = roots.iter().collect();
    sorted.sort_by(|a, b| a.label.cmp(&b.label));
    for (i, r) in sorted.iter().enumerate() {
        let comma = if i + 1 < sorted.len() { "," } else { "" };
        let allocs = recorded.get(&r.label).map_or(0, |&(allocs, _)| allocs);
        body.push_str(&format!(
            "    \"{}\": {{\"allocs\": {allocs}, \"locks\": {}}}{comma}\n",
            r.label, r.locks
        ));
    }
    body.push_str("  }\n}\n");
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, body)?;
    fs::rename(&tmp, path)
}

/// Reads the committed ratchet: label -> (measured allocs per call, lock
/// sites).
pub fn read_ratchet(root: &Path) -> Option<BTreeMap<String, (usize, usize)>> {
    let doc = Value::parse(&fs::read_to_string(root.join(RATCHET_PATH)).ok()?).ok()?;
    let Some(Value::Obj(roots)) = doc.get("roots") else { return None };
    let count = |v: &Value, field: &str| usize::try_from(v.get(field)?.as_u64()?).ok();
    roots
        .iter()
        .map(|(label, v)| Some((label.to_string(), (count(v, "allocs")?, count(v, "locks")?))))
        .collect()
}
