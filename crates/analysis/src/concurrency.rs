//! Concurrency-safety audit for the crates whose state crosses threads.
//!
//! The serving stack (`pup-serve`, `pup-obs`, `pup-ckpt`) shares scorers
//! and telemetry across worker threads. rustc's `Send`/`Sync` bounds
//! guard each shared value; this audit adds the checks the compiler
//! cannot make:
//!
//! - **send-sync manifest** — `serve`/`obs`/`ckpt` are *must-be-Send*:
//!   any `Rc`, `RefCell`, `Cell`, `UnsafeCell`, `thread_local!` or
//!   `static mut` there is a finding unless it carries a reviewed escape
//!   (`// pup-audit: allow(non-send): <reason>` — the reason is
//!   mandatory). Other crates (the single-threaded autograd tape in
//!   `pup-tensor` included) are unconstrained.
//! - **lock discipline** — Mutex/RwLock declarations and acquisitions are
//!   collected into an acquisition-order graph (interprocedural, with
//!   guard-returning helpers like `locked()` resolved through parameter
//!   substitution). Ordering cycles are findings, as is holding a guard
//!   across a call into scoring code (`crates/models`).
//! - **atomic-ordering lint** — `Ordering::Relaxed` on an `AtomicBool`
//!   load/store is flagged: a relaxed flag publishes no happens-before
//!   edge, so gating a data handoff on it is a race.
//!
//! Everything runs on the same [`crate::lex`]/[`crate::syntax`] token
//! machinery as the lint driver, so strings, comments and wrapped lines
//! can never confuse a pass. Run it with
//! `cargo run -p pup-analysis -- audit-concurrency`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lex::TokenKind;
use crate::lint::workspace_rs_files;
use crate::syntax::{in_any, FnDef, SourceFile};

/// Escape kinds this audit owns (reason + staleness are checked here).
pub const CONCURRENCY_KINDS: &[&str] =
    &["non-send", "lock-order", "guard-across-scoring", "relaxed-handoff"];

/// Every valid `// pup-audit: allow(<kind>)` across all audits. This audit
/// owns unknown-kind detection for the whole family; kinds owned by other
/// audits (`hotpath-panic` → `audit-hotpath`) are hygiene-checked there.
pub const ALL_ESCAPE_KINDS: &[&str] =
    &["non-send", "lock-order", "guard-across-scoring", "relaxed-handoff", "hotpath-panic"];

/// The audit pass a finding came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// A non-Send construct in a must-be-Send crate.
    NonSend,
    /// A lock-ordering cycle.
    LockOrder,
    /// A guard held across a call into scoring code.
    GuardAcrossScoring,
    /// `Ordering::Relaxed` gating an `AtomicBool` handoff.
    RelaxedHandoff,
    /// A malformed or stale `// pup-audit: allow(…)` escape.
    Escape,
}

impl Pass {
    /// The pass name as used in escapes and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Pass::NonSend => "non-send",
            Pass::LockOrder => "lock-order",
            Pass::GuardAcrossScoring => "guard-across-scoring",
            Pass::RelaxedHandoff => "relaxed-handoff",
            Pass::Escape => "escape",
        }
    }
}

/// One audit finding (a violation; the audit exits non-zero on any).
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The pass that produced it.
    pub pass: Pass,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.pass.name(), self.message)
    }
}

/// Result of a full workspace audit.
#[derive(Debug)]
pub struct AuditReport {
    /// Violations; non-empty means exit 1.
    pub findings: Vec<Finding>,
    /// Lock ids discovered by the lock-discipline pass.
    pub locks: Vec<String>,
    /// Acquisition-order edges `from -> to` with an example site.
    pub lock_edges: Vec<(String, String, PathBuf, usize)>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
    /// Stale escapes (a `lint --fix` run may delete them): file, 1-based
    /// line of the marker, escape kind.
    pub stale_escapes: Vec<(PathBuf, usize, String)>,
}

/// Whether a crate's state is shared across worker threads, making its
/// non-Send constructs violations.
fn must_be_send(crate_name: &str) -> bool {
    matches!(crate_name, "serve" | "obs" | "ckpt")
}

/// The crate directory name for a workspace file path (`crates/<name>/…`).
/// The *last* `crates` component wins so roots that themselves live under
/// a `crates/` directory (or contain `..` hops) resolve correctly.
fn crate_of(path: &Path) -> String {
    let comps: Vec<String> =
        path.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    comps
        .iter()
        .rposition(|c| c == "crates")
        .and_then(|i| comps.get(i + 1))
        .cloned()
        .unwrap_or_default()
}

/// A `// pup-audit: allow(<kind>): <reason>` escape.
struct AuditEscape {
    file: usize,
    line: usize,
    kind: String,
    has_reason: bool,
    used: bool,
}

/// A lock (or atomic-flag) reference inside a function: either a concrete
/// workspace lock id or the caller's `i`-th parameter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum LockRef {
    Concrete(String),
    Param(usize),
}

/// An ordered event inside a function body.
#[derive(Debug, Clone)]
enum Event {
    /// A direct `.lock()`/`.read()`/`.write()` acquisition; the guard is
    /// live until byte offset `until`.
    Acquire { lock: LockRef, offset: usize, line: usize, until: usize },
    /// A call to a named function; `args` holds each argument's resolved
    /// lock reference (when its base identifier names one). If the call is
    /// `let`-bound and the target returns a guard, the substituted locks
    /// stay live until `until_if_guard`.
    Call {
        name: String,
        offset: usize,
        line: usize,
        args: Vec<Option<LockRef>>,
        let_bound: bool,
        until_if_guard: usize,
        stmt_end: usize,
    },
}

impl Event {
    fn offset(&self) -> usize {
        match self {
            Event::Acquire { offset, .. } | Event::Call { offset, .. } => *offset,
        }
    }
}

/// A function's audit-relevant shape.
struct FnInfo {
    name: String,
    /// Parameter names; `true` marks a Mutex/RwLock-typed parameter. Only
    /// read back by unit tests — the passes consume params during event
    /// construction — but kept on the struct as the fn's audit record.
    #[cfg_attr(not(test), allow(dead_code))]
    params: Vec<(String, bool)>,
    returns_guard: bool,
    scoring: bool,
    events: Vec<Event>,
    /// Locks acquired directly or transitively (fixpoint-computed).
    summary: BTreeSet<LockRef>,
}

/// Everything extracted from one file before the global passes run.
struct FileFacts {
    path: PathBuf,
    crate_name: String,
    /// Lock name -> lock id declared in this file.
    lock_decls: BTreeMap<String, String>,
    /// Names declared as `AtomicBool` in this file.
    atomic_bools: BTreeSet<String>,
    non_send_sites: Vec<(usize, String)>,
    relaxed_sites: Vec<(usize, String)>,
    escapes: Vec<(usize, String, bool)>,
    fns: Vec<FnInfo>,
}

/// Runs the full audit over `<root>/crates/*/src`.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let files = workspace_rs_files(root)?;
    let mut facts = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file)?;
        facts.push(extract_facts(file, &source));
    }
    let mut report = AuditReport {
        findings: Vec::new(),
        locks: Vec::new(),
        lock_edges: Vec::new(),
        files_checked: files.len(),
        stale_escapes: Vec::new(),
    };

    let mut escapes: Vec<AuditEscape> = facts
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            f.escapes.iter().map(move |(line, kind, has_reason)| AuditEscape {
                file: fi,
                line: *line,
                kind: kind.to_string(),
                has_reason: *has_reason,
                used: false,
            })
        })
        .collect();

    send_sync_pass(&facts, &mut escapes, &mut report);
    relaxed_pass(&facts, &mut escapes, &mut report);
    lock_pass(&facts, &mut escapes, &mut report);

    // Escape hygiene: every escape must name a known pass, carry a reason,
    // and still suppress something. Kinds owned by other audits are left
    // to them (only unknown-kind detection is centralised here).
    for esc in &escapes {
        let known = ALL_ESCAPE_KINDS.contains(&esc.kind.as_str());
        let owned = CONCURRENCY_KINDS.contains(&esc.kind.as_str());
        let message = if !known {
            format!("audit escape names unknown pass `{}`", esc.kind)
        } else if !owned {
            continue;
        } else if !esc.has_reason {
            format!(
                "audit escape `allow({})` has no reason; write \
                 `// pup-audit: allow({}): <why this is safe>`",
                esc.kind, esc.kind
            )
        } else if !esc.used {
            report.stale_escapes.push((
                facts[esc.file].path.to_path_buf(),
                esc.line,
                esc.kind.to_string(),
            ));
            format!("stale audit escape: `allow({})` suppresses nothing; delete it", esc.kind)
        } else {
            continue;
        };
        report.findings.push(Finding {
            file: facts[esc.file].path.to_path_buf(),
            line: esc.line,
            pass: Pass::Escape,
            message,
        });
    }

    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Marks a matching escape (same line or the line above) used and returns
/// whether the finding is suppressed.
fn suppressed(escapes: &mut [AuditEscape], file: usize, line: usize, kind: &str) -> bool {
    let mut hit = false;
    for esc in escapes.iter_mut() {
        if esc.file == file
            && esc.kind == kind
            && esc.has_reason
            && (esc.line == line || esc.line + 1 == line)
        {
            esc.used = true;
            hit = true;
        }
    }
    hit
}

fn send_sync_pass(facts: &[FileFacts], escapes: &mut [AuditEscape], report: &mut AuditReport) {
    for (fi, f) in facts.iter().enumerate() {
        if !must_be_send(&f.crate_name) {
            continue;
        }
        for (line, construct) in &f.non_send_sites {
            if suppressed(escapes, fi, *line, "non-send") {
                continue;
            }
            report.findings.push(Finding {
                file: f.path.to_path_buf(),
                line: *line,
                pass: Pass::NonSend,
                message: format!(
                    "`{construct}` in must-be-Send crate `{}`: this state is \
                     shared across worker threads; use Arc/Mutex/atomics, or \
                     annotate `// pup-audit: allow(non-send): <reason>`",
                    f.crate_name
                ),
            });
        }
    }
}

fn relaxed_pass(facts: &[FileFacts], escapes: &mut [AuditEscape], report: &mut AuditReport) {
    for (fi, f) in facts.iter().enumerate() {
        for (line, name) in &f.relaxed_sites {
            if suppressed(escapes, fi, *line, "relaxed-handoff") {
                continue;
            }
            report.findings.push(Finding {
                file: f.path.to_path_buf(),
                line: *line,
                pass: Pass::RelaxedHandoff,
                message: format!(
                    "`Ordering::Relaxed` on AtomicBool `{name}`: a relaxed flag \
                     publishes no happens-before edge, so readers can see the flag \
                     before the data it gates; use Release/Acquire, or annotate \
                     `// pup-audit: allow(relaxed-handoff): <reason>`"
                ),
            });
        }
    }
}

/// The interprocedural lock-discipline pass: fixpoint acquire summaries,
/// edge construction, cycle detection, guard-across-scoring.
fn lock_pass(facts: &[FileFacts], escapes: &mut [AuditEscape], report: &mut AuditReport) {
    // Global lock-name resolution: name -> ids (ambiguity kept to detect).
    let mut global: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in facts {
        for (name, id) in &f.lock_decls {
            global.entry(name).or_default().insert(id);
        }
    }
    report.locks = global
        .values()
        .flatten()
        .map(|s| s.to_string())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    // fn name -> indices into a flat fn list.
    let all_fns: Vec<(usize, usize)> = facts
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| (0..f.fns.len()).map(move |k| (fi, k)))
        .collect();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (flat, &(fi, k)) in all_fns.iter().enumerate() {
        by_name.entry(&facts[fi].fns[k].name).or_default().push(flat);
    }

    // Fixpoint: propagate summaries through calls with param substitution.
    let mut summaries: Vec<BTreeSet<LockRef>> =
        all_fns.iter().map(|&(fi, k)| facts[fi].fns[k].summary.clone()).collect();
    for _ in 0..summaries.len().max(4) {
        let mut changed = false;
        for (flat, &(fi, k)) in all_fns.iter().enumerate() {
            let f = &facts[fi].fns[k];
            let mut add = Vec::new();
            for ev in &f.events {
                let Event::Call { name, args, .. } = ev else { continue };
                for &target in by_name.get(name.as_str()).into_iter().flatten() {
                    for lock in &summaries[target] {
                        match lock {
                            LockRef::Concrete(id) => add.push(LockRef::Concrete(id.to_string())),
                            LockRef::Param(i) => {
                                if let Some(Some(arg)) = args.get(*i) {
                                    // pup-lint: allow(clone-in-loop) — a two-variant enum, not a matrix
                                    add.push(arg.clone());
                                }
                            }
                        }
                    }
                }
            }
            for lock in add {
                changed |= summaries[flat].insert(lock);
            }
        }
        if !changed {
            break;
        }
    }

    // Per-fn: expand guard-returning calls into acquisitions, then build
    // ordering edges among everything held concurrently.
    let mut edges: BTreeMap<(String, String), (PathBuf, usize)> = BTreeMap::new();
    for &(fi, k) in &all_fns {
        let f = &facts[fi].fns[k];
        let mut held: Vec<(String, usize, usize, usize)> = Vec::new(); // (id, offset, until, line)
        let mut calls: Vec<(&Event, Vec<usize>)> = Vec::new();
        for ev in &f.events {
            match ev {
                Event::Acquire { lock: LockRef::Concrete(id), offset, line, until } => {
                    held.push((id.to_string(), *offset, *until, *line));
                }
                Event::Acquire { .. } => {}
                Event::Call { name, .. } => {
                    let targets: Vec<usize> =
                        by_name.get(name.as_str()).cloned().unwrap_or_default();
                    calls.push((ev, targets));
                }
            }
        }
        // Guard-returning helper calls are acquisitions at the call site.
        for (ev, targets) in &calls {
            let Event::Call { args, line, offset, let_bound, until_if_guard, stmt_end, .. } = ev
            else {
                continue;
            };
            for &t in targets {
                let (tfi, tk) = all_fns[t];
                let target = &facts[tfi].fns[tk];
                if !target.returns_guard {
                    continue;
                }
                let until = if *let_bound { *until_if_guard } else { *stmt_end };
                for lock in &summaries[t] {
                    let id = match lock {
                        LockRef::Concrete(id) => Some(id.to_string()),
                        LockRef::Param(i) => match args.get(*i) {
                            Some(Some(LockRef::Concrete(id))) => Some(id.to_string()),
                            _ => None,
                        },
                    };
                    if let Some(id) = id {
                        held.push((id, *offset, until, *line));
                    }
                }
            }
        }
        held.sort_by_key(|&(_, offset, _, _)| offset);
        // Edges: a -> b for every b acquired while a is live.
        for (i, (a_id, a_off, a_until, _)) in held.iter().enumerate() {
            for (b_id, b_off, _, b_line) in held.iter().skip(i + 1) {
                if b_off < a_until
                    && a_id != b_id
                    && !suppressed(escapes, fi, *b_line, "lock-order")
                {
                    edges
                        .entry((a_id.to_string(), b_id.to_string()))
                        .or_insert_with(|| (facts[fi].path.to_path_buf(), *b_line));
                }
            }
            // Calls made while the guard is live: transitive edges plus the
            // guard-across-scoring check.
            for (ev, targets) in &calls {
                let Event::Call { name, offset, line, args, .. } = ev else { continue };
                if *offset <= *a_off || *offset >= *a_until {
                    continue;
                }
                for &t in targets {
                    let (tfi, tk) = all_fns[t];
                    let target = &facts[tfi].fns[tk];
                    if target.scoring && !suppressed(escapes, fi, *line, "guard-across-scoring") {
                        report.findings.push(Finding {
                            file: facts[fi].path.to_path_buf(),
                            line: *line,
                            pass: Pass::GuardAcrossScoring,
                            message: format!(
                                "guard on `{a_id}` held across call into scoring fn \
                                 `{name}`: scoring latency becomes lock hold time and \
                                 stalls every other thread; drop the guard first, or \
                                 annotate `// pup-audit: allow(guard-across-scoring): \
                                 <reason>`"
                            ),
                        });
                    }
                    for lock in &summaries[t] {
                        let id = match lock {
                            LockRef::Concrete(id) => Some(id.to_string()),
                            LockRef::Param(i) => match args.get(*i) {
                                Some(Some(LockRef::Concrete(id))) => Some(id.to_string()),
                                _ => None,
                            },
                        };
                        let Some(id) = id else { continue };
                        if id != *a_id && !suppressed(escapes, fi, *line, "lock-order") {
                            edges
                                .entry((a_id.to_string(), id))
                                .or_insert_with(|| (facts[fi].path.to_path_buf(), *line));
                        }
                    }
                }
            }
        }
    }

    report.lock_edges = edges
        .iter()
        .map(|((a, b), (p, l))| (a.to_string(), b.to_string(), p.clone(), *l))
        .collect();

    // Cycle detection over the edge graph.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack = vec![start];
        let mut on_path = BTreeSet::from([start]);
        find_cycles(start, &adj, &mut stack, &mut on_path, &mut |cycle| {
            let mut key: Vec<String> = cycle.iter().map(|s| s.to_string()).collect();
            key.sort();
            if reported.insert(key) {
                let (file, line) = edges
                    .get(&(cycle[0].to_string(), cycle[1 % cycle.len()].to_string()))
                    .cloned()
                    .unwrap_or_else(|| (PathBuf::from("?"), 0));
                report.findings.push(Finding {
                    file,
                    line,
                    pass: Pass::LockOrder,
                    message: format!(
                        "lock-ordering cycle: {} -> {}; two threads taking these locks \
                         in opposite orders deadlock — pick one global order",
                        cycle.join(" -> "),
                        cycle[0]
                    ),
                });
            }
        });
    }
}

fn find_cycles<'g>(
    node: &'g str,
    adj: &BTreeMap<&'g str, Vec<&'g str>>,
    stack: &mut Vec<&'g str>,
    on_path: &mut BTreeSet<&'g str>,
    emit: &mut impl FnMut(&[&str]),
) {
    for &next in adj.get(node).into_iter().flatten() {
        if next == stack[0] {
            emit(stack);
        } else if !on_path.contains(next) {
            stack.push(next);
            on_path.insert(next);
            find_cycles(next, adj, stack, on_path, emit);
            stack.pop();
            on_path.remove(next);
        }
    }
}

/// Whether the non-Send type ident at code position `p` is merely the
/// qualifier of an accessor path such as `Cell::get` passed to
/// `LocalKey::with`. Those reads are not *sites* — the declaration is —
/// so they are skipped. Constructor-ish members (`Rc::new`, `Rc::clone`,
/// `RefCell::new`, …) still count: each one creates non-Send state.
fn is_accessor_path(file: &SourceFile<'_>, p: usize) -> bool {
    let Some(&c1) = file.code.get(p + 1) else { return false };
    let Some(&c2) = file.code.get(p + 2) else { return false };
    if !(file.is_punct(c1, b':') && file.is_punct(c2, b':')) {
        return false;
    }
    let Some(&member) = file.code.get(p + 3) else { return false };
    file.tokens[member].kind == TokenKind::Ident
        && !matches!(file.text(member), "new" | "from" | "clone" | "downgrade" | "default")
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] =
    &["if", "while", "for", "match", "loop", "return", "in", "else", "fn", "move", "as"];

/// Extracts every audit-relevant fact from one file.
fn extract_facts(path: &Path, source: &str) -> FileFacts {
    let file = SourceFile::parse(source);
    let test_spans = file.test_spans();
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?").to_string();
    let mut facts = FileFacts {
        path: path.to_path_buf(),
        crate_name: crate_of(path),
        lock_decls: BTreeMap::new(),
        atomic_bools: BTreeSet::new(),
        non_send_sites: Vec::new(),
        relaxed_sites: Vec::new(),
        escapes: Vec::new(),
        fns: Vec::new(),
    };

    // Escapes.
    const MARKER: &str = "pup-audit: allow(";
    for t in &file.tokens {
        let plain = matches!(
            t.kind,
            TokenKind::LineComment { doc: false } | TokenKind::BlockComment { doc: false }
        );
        if !plain {
            continue;
        }
        let text = t.text(source);
        let Some(at) = text.find(MARKER) else { continue };
        let rest = &text[at + MARKER.len()..];
        let Some(close) = rest.find(')') else { continue };
        let kind = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let has_reason = after.strip_prefix(':').map(str::trim).is_some_and(|r| !r.is_empty());
        facts.escapes.push((file.line_of(t.start + at), kind, has_reason));
    }

    // Non-Send constructs.
    for (p, &ti) in file.code.iter().enumerate() {
        let at = file.tokens[ti].start;
        if in_any(&test_spans, at) {
            continue;
        }
        let construct = match file.tokens[ti].kind {
            TokenKind::Ident => match file.text(ti) {
                w @ ("Rc" | "RefCell" | "Cell" | "UnsafeCell") if !is_accessor_path(&file, p) => {
                    Some(w.to_string())
                }
                "thread_local" if file.code.get(p + 1).is_some_and(|&n| file.is_punct(n, b'!')) => {
                    Some("thread_local!".to_string())
                }
                "static" if file.code.get(p + 1).is_some_and(|&n| file.is_ident(n, "mut")) => {
                    Some("static mut".to_string())
                }
                _ => None,
            },
            _ => None,
        };
        if let Some(construct) = construct {
            let line = file.line_of(at);
            if !facts.non_send_sites.iter().any(|(l, c)| *l == line && *c == construct) {
                facts.non_send_sites.push((line, construct));
            }
        }
    }

    // Lock and AtomicBool declarations.
    for (p, &ti) in file.code.iter().enumerate() {
        if file.tokens[ti].kind != TokenKind::Ident {
            continue;
        }
        let word = file.text(ti);
        if !matches!(word, "Mutex" | "RwLock" | "AtomicBool") {
            continue;
        }
        // `Name::new(` constructor — if in a let statement, the binding is
        // the declaration.
        if file.match_seq(p, &[word, ":", ":", "new"]) {
            let at = file.tokens[ti].start;
            if let Some(stmt) = file.enclosing_statement(at) {
                if stmt.is_let {
                    if let Some(sp) = file.code_pos(stmt.first) {
                        if let Some(&name_ti) = file.code.get(sp + 1) {
                            if file.tokens[name_ti].kind == TokenKind::Ident {
                                register_decl(&mut facts, word, file.text(name_ti), &stem);
                            }
                        }
                    }
                }
            }
            continue;
        }
        // Type-ascription form: walk back over the type-path prefix
        // (`Arc<`, `std::sync::`, …) to the single `:` that binds a name.
        let mut q = p;
        while q > 0 {
            q -= 1;
            let tj = file.code[q];
            if file.is_punct(tj, b':') {
                let double = q > 0 && file.is_punct(file.code[q - 1], b':');
                if double {
                    q -= 1; // skip the `::` pair, keep walking the path
                    continue;
                }
                // Single colon: type ascription. The token before names it.
                if q > 0 {
                    let name_ti = file.code[q - 1];
                    if file.tokens[name_ti].kind == TokenKind::Ident {
                        register_decl(&mut facts, word, file.text(name_ti), &stem);
                    }
                }
                break;
            }
            let ok = file.tokens[tj].kind == TokenKind::Ident || file.is_punct(tj, b'<');
            if !ok {
                break;
            }
        }
    }

    // `Ordering::Relaxed` on declared AtomicBools.
    for meth in ["load", "store"] {
        for p in file.find_seq(&[".", meth, "("]) {
            let at = file.tokens[file.code[p]].start;
            if in_any(&test_spans, at) || p == 0 {
                continue;
            }
            let recv = file.code[p - 1];
            if file.tokens[recv].kind != TokenKind::Ident {
                continue;
            }
            let name = file.text(recv);
            if !facts.atomic_bools.contains(name) {
                continue;
            }
            let open = file.code[p + 2];
            let Some(close) = file.matching(open) else { continue };
            let relaxed =
                file.code.iter().any(|&i| i > open && i < close && file.is_ident(i, "Relaxed"));
            if relaxed {
                let line = file.line_of(at);
                if !facts.relaxed_sites.iter().any(|(l, n)| *l == line && n == name) {
                    facts.relaxed_sites.push((line, name.to_string()));
                }
            }
        }
    }

    // Function shapes and events.
    let defs = file.fn_defs();
    for def in &defs {
        facts.fns.push(extract_fn(&file, def, &facts.lock_decls, path));
    }
    facts
}

fn register_decl(facts: &mut FileFacts, type_word: &str, name: &str, stem: &str) {
    if type_word == "AtomicBool" {
        facts.atomic_bools.insert(name.to_string());
    } else {
        facts.lock_decls.entry(name.to_string()).or_insert_with(|| format!("{stem}::{name}"));
    }
}

fn extract_fn(
    file: &SourceFile<'_>,
    def: &FnDef,
    lock_decls: &BTreeMap<String, String>,
    path: &Path,
) -> FnInfo {
    let name = def.name.map(|i| file.text(i)).unwrap_or("?").to_string();
    let path_str = path.to_string_lossy().replace('\\', "/");
    let scoring = path_str.contains("models/src");

    // Parameters: split the param list on depth-0 commas.
    let mut params: Vec<(String, bool)> = Vec::new();
    if let Some((open, close)) = def.params {
        let (Some(op), Some(cp)) = (file.code_pos(open), file.code_pos(close)) else {
            return FnInfo {
                name,
                params,
                returns_guard: false,
                scoring,
                events: Vec::new(),
                summary: BTreeSet::new(),
            };
        };
        let mut seg: Vec<usize> = Vec::new();
        let mut q = op + 1;
        while q < cp {
            let ti = file.code[q];
            if file.is_punct(ti, b'(') || file.is_punct(ti, b'[') || file.is_punct(ti, b'{') {
                if let Some(mp) = file.matching(ti).and_then(|c| file.code_pos(c)) {
                    for r in q..=mp {
                        seg.push(file.code[r]);
                    }
                    q = mp + 1;
                    continue;
                }
            }
            if file.is_punct(ti, b',') {
                push_param(file, &seg, &mut params);
                seg.clear();
            } else {
                seg.push(ti);
            }
            q += 1;
        }
        push_param(file, &seg, &mut params);
    }

    // Return type: guard-returning helpers.
    let mut returns_guard = false;
    if let (Some((_, pc)), Some((bo, _))) = (def.params, def.body) {
        if let (Some(start), Some(end)) = (file.code_pos(pc), file.code_pos(bo)) {
            for r in start..end {
                let ti = file.code[r];
                if file.tokens[ti].kind == TokenKind::Ident
                    && matches!(
                        file.text(ti),
                        "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"
                    )
                {
                    returns_guard = true;
                }
            }
        }
    }

    let mut events = Vec::new();
    if let Some((bo, bc)) = def.body {
        let body = (file.tokens[bo].start, file.tokens[bc].end);
        collect_events(file, body, &params, lock_decls, &mut events);
    }

    let summary = events
        .iter()
        .filter_map(|ev| match ev {
            Event::Acquire { lock, .. } => Some(lock.clone()),
            Event::Call { .. } => None,
        })
        .collect();
    FnInfo { name, params, returns_guard, scoring, events, summary }
}

fn push_param(file: &SourceFile<'_>, seg: &[usize], params: &mut Vec<(String, bool)>) {
    let Some(&first_ident) =
        seg.iter().find(|&&ti| file.tokens[ti].kind == TokenKind::Ident && file.text(ti) != "mut")
    else {
        return;
    };
    let is_lock = seg.iter().any(|&ti| {
        file.tokens[ti].kind == TokenKind::Ident && matches!(file.text(ti), "Mutex" | "RwLock")
    });
    params.push((file.text(first_ident).to_string(), is_lock));
}

/// Collects acquire and call events inside one fn body (byte span).
fn collect_events(
    file: &SourceFile<'_>,
    body: (usize, usize),
    params: &[(String, bool)],
    lock_decls: &BTreeMap<String, String>,
    events: &mut Vec<Event>,
) {
    let resolve = |name: &str| -> Option<LockRef> {
        if let Some(i) = params.iter().position(|(p, is_lock)| *is_lock && p == name) {
            return Some(LockRef::Param(i));
        }
        lock_decls.get(name).map(|id| LockRef::Concrete(id.to_string()))
    };
    let block_end = |at: usize| -> usize {
        file.enclosing_brace(at)
            .and_then(|open| file.matching(open))
            .map(|close| file.tokens[close].end)
            .unwrap_or(body.1)
    };

    // Direct acquisitions: `recv.lock()` / `.read()` / `.write()`.
    for meth in ["lock", "read", "write"] {
        for p in file.find_seq(&[".", meth, "(", ")"]) {
            let at = file.tokens[file.code[p]].start;
            if at < body.0 || at >= body.1 || p == 0 {
                continue;
            }
            let recv = file.code[p - 1];
            if file.tokens[recv].kind != TokenKind::Ident {
                continue;
            }
            let Some(lock) = resolve(file.text(recv)) else { continue };
            let Some(stmt) = file.enclosing_statement(at) else { continue };
            let until = if stmt.is_let { block_end(at) } else { stmt.span.1 };
            events.push(Event::Acquire { lock, offset: at, line: file.line_of(at), until });
        }
    }

    // Calls: `name(` not preceded by `.` (method calls are out of scope).
    for p in 0..file.code.len() {
        let ti = file.code[p];
        if file.tokens[ti].kind != TokenKind::Ident {
            continue;
        }
        let at = file.tokens[ti].start;
        if at < body.0 || at >= body.1 {
            continue;
        }
        let Some(&open) = file.code.get(p + 1) else { continue };
        if !file.is_punct(open, b'(') {
            continue;
        }
        let name = file.text(ti);
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        if p > 0 && file.is_punct(file.code[p - 1], b'.') {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if p > 0 && file.is_ident(file.code[p - 1], "fn") {
            continue;
        }
        let Some(close) = file.matching(open) else { continue };
        // Argument base identifiers, per depth-0 comma segment: the last
        // ident of the leading `a.b.c` chain (so `&self.stats` -> `stats`).
        let (Some(op), Some(cp)) = (file.code_pos(open), file.code_pos(close)) else { continue };
        let mut args: Vec<Option<LockRef>> = Vec::new();
        let mut seg: Vec<usize> = Vec::new();
        let mut q = op + 1;
        while q <= cp {
            let tj = file.code[q];
            let end_of_arg = q == cp || file.is_punct(tj, b',');
            if end_of_arg {
                if !seg.is_empty() {
                    args.push(arg_base(file, &seg).and_then(|base| resolve(&base)));
                }
                seg.clear();
            } else if file.is_punct(tj, b'(') || file.is_punct(tj, b'[') || file.is_punct(tj, b'{')
            {
                if let Some(mp) = file.matching(tj).and_then(|c| file.code_pos(c)) {
                    for r in q..=mp {
                        seg.push(file.code[r]);
                    }
                    q = mp + 1;
                    continue;
                }
                seg.push(tj);
            } else {
                seg.push(tj);
            }
            q += 1;
        }
        let Some(stmt) = file.enclosing_statement(at) else { continue };
        events.push(Event::Call {
            name: name.to_string(),
            offset: at,
            line: file.line_of(at),
            args,
            let_bound: stmt.is_let,
            until_if_guard: block_end(at),
            stmt_end: stmt.span.1,
        });
    }
    events.sort_by_key(Event::offset);
}

/// The identifier a call argument resolves locks through: the final ident
/// of its leading field chain (`&self.stats` -> `stats`, `&m` -> `m`).
fn arg_base(file: &SourceFile<'_>, seg: &[usize]) -> Option<String> {
    let mut last: Option<usize> = None;
    for &ti in seg {
        match file.tokens[ti].kind {
            TokenKind::Ident => last = Some(ti),
            TokenKind::Punct
                if matches!(file.src.as_bytes()[file.tokens[ti].start], b'&' | b'.') => {}
            _ => break,
        }
    }
    last.map(|ti| file.text(ti).to_string())
}

/// Escapes a string for inclusion in JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            // pup-lint: allow(as-cast-truncation) — char to u32 is lossless
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(path: &str, src: &str) -> FileFacts {
        extract_facts(Path::new(path), src)
    }

    #[test]
    fn crate_policies() {
        assert!(must_be_send("serve"));
        assert!(must_be_send("obs"));
        assert!(must_be_send("ckpt"));
        assert!(!must_be_send("tensor"));
        assert!(!must_be_send("models"));
        assert_eq!(crate_of(Path::new("crates/serve/src/lib.rs")), "serve");
    }

    #[test]
    fn non_send_constructs_collected_outside_tests() {
        let src = "use std::rc::Rc;\nuse std::cell::RefCell;\n\npub struct T {\n    inner: Rc<RefCell<u32>>,\n}\n\nstatic mut COUNTER: u32 = 0;\n\nthread_local! {\n    static BUF: u32 = 0;\n}\n\n#[cfg(test)]\nmod tests {\n    use std::rc::Rc;\n    fn f() { let _ = Rc::new(1); }\n}\n";
        let f = facts("crates/serve/src/lib.rs", src);
        let kinds: Vec<&str> = f.non_send_sites.iter().map(|(_, c)| c.as_str()).collect();
        assert!(kinds.contains(&"Rc"));
        assert!(kinds.contains(&"RefCell"));
        assert!(kinds.contains(&"static mut"));
        assert!(kinds.contains(&"thread_local!"));
        // Lines 15-16 are test code: excluded.
        assert!(f.non_send_sites.iter().all(|(l, _)| *l < 14), "{:?}", f.non_send_sites);
        // Line 5 has both Rc and RefCell: two entries, same line.
        assert_eq!(f.non_send_sites.iter().filter(|(l, _)| *l == 5).count(), 2);
    }

    #[test]
    fn accessor_paths_are_not_sites_but_constructors_are() {
        let src = "fn f() -> bool {\n    FLAG.with(Cell::get)\n}\nfn g() -> Rc<u32> {\n    Rc::new(1)\n}\n";
        let f = facts("crates/serve/src/x.rs", src);
        let kinds: Vec<&str> = f.non_send_sites.iter().map(|(_, c)| c.as_str()).collect();
        assert!(
            !kinds.contains(&"Cell"),
            "Cell::get is a read, not a site: {:?}",
            f.non_send_sites
        );
        assert_eq!(
            kinds.iter().filter(|&&k| k == "Rc").count(),
            2,
            "the Rc type position and Rc::new both count: {:?}",
            f.non_send_sites
        );
    }

    #[test]
    fn lock_decls_found_in_fields_statics_and_lets() {
        let src = "use std::sync::{Mutex, RwLock};\npub struct S {\n    stats: Mutex<u32>,\n    map: std::sync::RwLock<Vec<u32>>,\n    shared: Arc<Mutex<u8>>,\n}\nstatic REGISTRY: Mutex<u32> = Mutex::new(0);\nfn local() {\n    let gate = Mutex::new(1);\n    drop(gate);\n}\n";
        let f = facts("crates/serve/src/state.rs", src);
        assert_eq!(f.lock_decls.get("stats").map(String::as_str), Some("state::stats"));
        assert_eq!(f.lock_decls.get("map").map(String::as_str), Some("state::map"));
        assert_eq!(f.lock_decls.get("shared").map(String::as_str), Some("state::shared"));
        assert_eq!(f.lock_decls.get("REGISTRY").map(String::as_str), Some("state::REGISTRY"));
        assert_eq!(f.lock_decls.get("gate").map(String::as_str), Some("state::gate"));
    }

    #[test]
    fn relaxed_atomic_bool_flagged_but_counters_ignored() {
        let src = "pub struct S {\n    ready: AtomicBool,\n    count: AtomicU64,\n}\nimpl S {\n    fn publish(&self) {\n        ready.store(true, Ordering::Relaxed);\n        count.fetch_add(1, Ordering::Relaxed);\n    }\n    fn check(&self) -> bool {\n        ready.load(Ordering::Acquire)\n    }\n}\n";
        let f = facts("crates/serve/src/flags.rs", src);
        assert_eq!(f.relaxed_sites.len(), 1, "{:?}", f.relaxed_sites);
        assert_eq!(f.relaxed_sites[0].1, "ready");
        assert_eq!(f.relaxed_sites[0].0, 7);
    }

    #[test]
    fn audit_escape_parsing_requires_reason() {
        let src = "// pup-audit: allow(non-send): telemetry buffers are per-thread by design\nfn a() {}\n// pup-audit: allow(non-send)\nfn b() {}\n// pup-audit: allow(non-send):\nfn c() {}\n";
        let f = facts("crates/obs/src/lib.rs", src);
        assert_eq!(f.escapes.len(), 3);
        assert!(f.escapes[0].2, "reason present");
        assert!(!f.escapes[1].2, "no colon, no reason");
        assert!(!f.escapes[2].2, "colon but empty reason");
    }

    #[test]
    fn events_track_acquisitions_and_guard_liveness() {
        let src = "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn both(&self) {\n        let ga = self.a.lock();\n        self.b.lock();\n    }\n}\n";
        let f = facts("crates/serve/src/pair.rs", src);
        let both = f.fns.iter().find(|f| f.name == "both").expect("fn");
        let acquires: Vec<&Event> =
            both.events.iter().filter(|e| matches!(e, Event::Acquire { .. })).collect();
        assert_eq!(acquires.len(), 2, "{:?}", both.events);
        // The let-bound guard on `a` outlives the statement acquiring `b`.
        let Event::Acquire { lock, until, .. } = acquires[0] else { unreachable!() };
        assert_eq!(*lock, LockRef::Concrete("pair::a".to_string()));
        let Event::Acquire { offset: b_off, .. } = acquires[1] else { unreachable!() };
        assert!(until > b_off, "let-bound guard must span the next acquisition");
    }

    #[test]
    fn param_locks_and_guard_returns_recognised() {
        let src = "fn locked(m: &Mutex<u32>) -> MutexGuard<'_, u32> {\n    m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n";
        let f = facts("crates/serve/src/util.rs", src);
        let locked = &f.fns[0];
        assert_eq!(locked.params, vec![("m".to_string(), true)]);
        assert!(locked.returns_guard);
        assert_eq!(
            locked.summary.iter().collect::<Vec<_>>(),
            vec![&LockRef::Param(0)],
            "the helper's summary is its parameter"
        );
    }

    #[test]
    fn arg_bases_resolve_field_chains() {
        let src = "pub struct S { stats: Mutex<u32> }\nimpl S {\n    fn f(&self) {\n        helper(&self.stats, 1);\n    }\n}\n";
        let f = facts("crates/serve/src/args.rs", src);
        let caller = f.fns.iter().find(|f| f.name == "f").expect("fn");
        let Some(Event::Call { name, args, .. }) =
            caller.events.iter().find(|e| matches!(e, Event::Call { .. }))
        else {
            panic!("no call event: {:?}", caller.events)
        };
        assert_eq!(name, "helper");
        assert_eq!(args[0], Some(LockRef::Concrete("args::stats".to_string())));
        assert_eq!(args[1], None);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
