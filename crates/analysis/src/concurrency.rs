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
//!   collected into an acquisition-order graph over the workspace
//!   [`CallGraph`] (the one `audit-hotpath` runs on), with guard-returning
//!   helpers like `locked()` resolved through parameter substitution.
//!   Ordering cycles are findings, as is holding a guard across a call
//!   into scoring code (`crates/models`).
//! - **atomic-ordering lint** — `Ordering::Relaxed` on an `AtomicBool`
//!   load/store is flagged: a relaxed flag publishes no happens-before
//!   edge, so gating a data handoff on it is a race.
//!
//! Each pass honours `// pup-audit: allow(<pass>): <reason>` escapes
//! through [`crate::escape`]; this audit also reports unknown audit kinds.
//! Everything runs on the same [`crate::lex`]/[`crate::syntax`] token
//! machinery as the lint driver, so strings, comments and wrapped lines
//! can never confuse a pass. Run it with
//! `cargo run -p pup-analysis -- audit-concurrency`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{crate_of, innermost, CallGraph, FnNode};
use crate::escape::{Ledger, Problem, Reader};
use crate::lex::TokenKind;
use crate::lint::workspace_sources;
use crate::syntax::{in_any, FnDef, SourceFile, Stmt};

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
    /// Hygiene problems of the escapes this audit owns; `lint --fix`
    /// deletes the stale ones.
    pub escapes: Vec<Problem>,
}

/// Whether a crate's state is shared across worker threads, making its
/// non-Send constructs violations.
fn must_be_send(crate_name: &str) -> bool {
    matches!(crate_name, "serve" | "obs" | "ckpt")
}

/// A lock (or atomic-flag) reference inside a function: either a concrete
/// workspace lock id or the caller's `i`-th parameter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum LockRef {
    Concrete(String),
    Param(usize),
}

/// A guard: the lock it holds, where it is taken, and the byte offset at
/// which it stops being live.
#[derive(Debug)]
struct Guard {
    lock: LockRef,
    offset: usize,
    line: usize,
    until: usize,
}

/// A non-method call site with at least one workspace callee.
#[derive(Debug)]
struct LockCall {
    name: String,
    offset: usize,
    line: usize,
    /// The callees, from [`CallGraph::callees`].
    targets: Vec<usize>,
    /// Each argument's lock reference, when its base identifier names one.
    args: Vec<Option<LockRef>>,
    /// Where a guard the call returns stops being live (0 when no target
    /// returns a guard).
    guard_until: usize,
}

/// A fn body's lock-relevant shape, indexed like [`CallGraph::fns`]. Test
/// fns keep the empty default: the lock pass leaves test code alone.
#[derive(Debug, Default)]
struct LockBody {
    /// Index of the file in the audited source list.
    file: usize,
    /// Parameter names; `true` marks a Mutex/RwLock-typed parameter.
    params: Vec<(String, bool)>,
    returns_guard: bool,
    /// Direct `.lock()`/`.read()`/`.write()` acquisitions.
    acquires: Vec<Guard>,
    calls: Vec<LockCall>,
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
}

/// Runs the full audit over `<root>/crates/*/src`.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let sources = workspace_sources(root)?;
    let mut graph = CallGraph::build_from_sources(&sources);
    graph.attach_crate_deps(root);
    let parsed: Vec<SourceFile<'_>> =
        sources.iter().map(|(_, text)| SourceFile::parse(text)).collect();
    let facts: Vec<FileFacts> =
        sources.iter().zip(&parsed).map(|((path, _), file)| extract_facts(path, file)).collect();
    let bodies = lock_bodies(&graph, &parsed, &facts);
    let mut report = AuditReport {
        findings: Vec::new(),
        locks: Vec::new(),
        lock_edges: Vec::new(),
        files_checked: sources.len(),
        escapes: Vec::new(),
    };

    let mut ledgers: Vec<Ledger> = sources
        .iter()
        .zip(&parsed)
        .map(|((path, _), file)| Ledger::parse(path, file, Reader::Concurrency))
        .collect();

    send_sync_pass(&facts, &mut ledgers, &mut report);
    relaxed_pass(&facts, &mut ledgers, &mut report);
    lock_pass(&facts, &graph, &bodies, &mut ledgers, &mut report);

    for p in ledgers.iter().flat_map(Ledger::hygiene) {
        report.findings.push(Finding {
            file: p.file.to_path_buf(),
            line: p.line,
            pass: Pass::Escape,
            message: p.message(),
        });
        report.escapes.push(p);
    }

    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn send_sync_pass(facts: &[FileFacts], ledgers: &mut [Ledger], report: &mut AuditReport) {
    for (fi, f) in facts.iter().enumerate() {
        if !must_be_send(&f.crate_name) {
            continue;
        }
        for (line, construct) in &f.non_send_sites {
            if ledgers[fi].suppress(*line, "non-send") {
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

fn relaxed_pass(facts: &[FileFacts], ledgers: &mut [Ledger], report: &mut AuditReport) {
    for (fi, f) in facts.iter().enumerate() {
        for (line, name) in &f.relaxed_sites {
            if ledgers[fi].suppress(*line, "relaxed-handoff") {
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

/// A callee's lock reference as seen from the call site: concrete ids pass
/// through, parameter locks take the matching argument's lock (if any).
fn substitute(lock: &LockRef, args: &[Option<LockRef>]) -> Option<LockRef> {
    match lock {
        LockRef::Concrete(_) => Some(lock.clone()),
        LockRef::Param(i) => args.get(*i).cloned().flatten(),
    }
}

/// The interprocedural lock-discipline pass: fixpoint acquire summaries,
/// edge construction, cycle detection, guard-across-scoring.
fn lock_pass(
    facts: &[FileFacts],
    graph: &CallGraph,
    bodies: &[LockBody],
    ledgers: &mut [Ledger],
    report: &mut AuditReport,
) {
    report.locks = facts
        .iter()
        .flat_map(|f| f.lock_decls.values().cloned())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    // Fixpoint: propagate summaries through calls with param substitution.
    // Monotone over a finite set of lock refs, so it terminates.
    let mut summaries: Vec<BTreeSet<LockRef>> =
        bodies.iter().map(|b| b.acquires.iter().map(|g| g.lock.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for (i, body) in bodies.iter().enumerate() {
            let add: Vec<LockRef> = body
                .calls
                .iter()
                .flat_map(|c| c.targets.iter().map(move |&t| (c, t)))
                .flat_map(|(c, t)| summaries[t].iter().filter_map(|l| substitute(l, &c.args)))
                .collect();
            for lock in add {
                changed |= summaries[i].insert(lock);
            }
        }
        if !changed {
            break;
        }
    }
    let concrete = |lock: &LockRef, args: &[Option<LockRef>]| match substitute(lock, args) {
        Some(LockRef::Concrete(id)) => Some(id),
        _ => None,
    };

    // Per fn: guard-returning calls are acquisitions at the call site; then
    // build ordering edges among everything held concurrently.
    let mut edges: BTreeMap<(String, String), (PathBuf, usize)> = BTreeMap::new();
    for body in bodies {
        let fi = body.file;
        let path = &facts[fi].path;
        let mut held: Vec<(String, usize, usize, usize)> = Vec::new(); // (id, offset, until, line)
        for g in &body.acquires {
            if let LockRef::Concrete(id) = &g.lock {
                held.push((id.to_string(), g.offset, g.until, g.line));
            }
        }
        for c in &body.calls {
            for &t in c.targets.iter().filter(|&&t| bodies[t].returns_guard) {
                for id in summaries[t].iter().filter_map(|l| concrete(l, &c.args)) {
                    held.push((id, c.offset, c.guard_until, c.line));
                }
            }
        }
        held.sort_by_key(|&(_, offset, _, _)| offset);
        // Edges: a -> b for every b acquired while a is live.
        for (i, (a_id, a_off, a_until, _)) in held.iter().enumerate() {
            for (b_id, b_off, _, b_line) in held.iter().skip(i + 1) {
                if b_off < a_until && a_id != b_id && !ledgers[fi].suppress(*b_line, "lock-order") {
                    edges
                        .entry((a_id.to_string(), b_id.to_string()))
                        .or_insert_with(|| (path.to_path_buf(), *b_line));
                }
            }
            // Calls made while the guard is live: transitive edges plus the
            // guard-across-scoring check.
            for c in &body.calls {
                if c.offset <= *a_off || c.offset >= *a_until {
                    continue;
                }
                let scoring = c.targets.iter().any(|&t| graph.fns[t].crate_name == "models");
                if scoring && !ledgers[fi].suppress(c.line, "guard-across-scoring") {
                    report.findings.push(Finding {
                        file: path.to_path_buf(),
                        line: c.line,
                        pass: Pass::GuardAcrossScoring,
                        message: format!(
                            "guard on `{a_id}` held across call into scoring fn `{}`: \
                             scoring latency becomes lock hold time and stalls every \
                             other thread; drop the guard first, or annotate \
                             `// pup-audit: allow(guard-across-scoring): <reason>`",
                            c.name
                        ),
                    });
                }
                for &t in &c.targets {
                    for id in summaries[t].iter().filter_map(|l| concrete(l, &c.args)) {
                        if id != *a_id && !ledgers[fi].suppress(c.line, "lock-order") {
                            edges
                                .entry((a_id.to_string(), id))
                                .or_insert_with(|| (path.to_path_buf(), c.line));
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

/// Extracts the per-file facts: non-Send sites, lock and `AtomicBool`
/// declarations, relaxed flag accesses.
fn extract_facts(path: &Path, file: &SourceFile<'_>) -> FileFacts {
    let test_spans = file.test_spans();
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?").to_string();
    let mut facts = FileFacts {
        path: path.to_path_buf(),
        crate_name: crate_of(path),
        lock_decls: BTreeMap::new(),
        atomic_bools: BTreeSet::new(),
        non_send_sites: Vec::new(),
        relaxed_sites: Vec::new(),
    };

    // Non-Send constructs.
    for (p, &ti) in file.code.iter().enumerate() {
        let at = file.tokens[ti].start;
        if in_any(&test_spans, at) {
            continue;
        }
        let construct = match file.tokens[ti].kind {
            TokenKind::Ident => match file.text(ti) {
                w @ ("Rc" | "RefCell" | "Cell" | "UnsafeCell") if !is_accessor_path(file, p) => {
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
                if let Some(name) = let_binding(file, &stmt) {
                    register_decl(&mut facts, word, name, &stem);
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
    facts
}

fn register_decl(facts: &mut FileFacts, type_word: &str, name: &str, stem: &str) {
    if type_word == "AtomicBool" {
        facts.atomic_bools.insert(name.to_string());
    } else {
        facts.lock_decls.entry(name.to_string()).or_insert_with(|| format!("{stem}::{name}"));
    }
}

/// The name a `let` statement binds, when its pattern is a plain
/// (optionally `mut`) identifier.
fn let_binding<'a>(file: &SourceFile<'a>, stmt: &Stmt) -> Option<&'a str> {
    if !stmt.is_let {
        return None;
    }
    let p = file.code_pos(stmt.first)?;
    let mut name = *file.code.get(p + 1)?;
    if file.is_ident(name, "mut") {
        name = *file.code.get(p + 2)?;
    }
    (file.tokens[name].kind == TokenKind::Ident).then(|| file.text(name))
}

/// The code tokens between the brackets at code positions `open` and
/// `close`, split at depth-0 commas (bracketed groups stay whole).
fn comma_segments(file: &SourceFile<'_>, open: usize, close: usize) -> Vec<Vec<usize>> {
    let mut segs: Vec<Vec<usize>> = vec![Vec::new()];
    let mut q = open + 1;
    while q < close {
        let ti = file.code[q];
        let group = file.is_punct(ti, b'(') || file.is_punct(ti, b'[') || file.is_punct(ti, b'{');
        let end = group.then(|| file.matching(ti).and_then(|c| file.code_pos(c))).flatten();
        let end = end.unwrap_or(q).min(close - 1);
        if file.is_punct(ti, b',') {
            segs.push(Vec::new());
        } else if let Some(seg) = segs.last_mut() {
            seg.extend_from_slice(&file.code[q..=end]);
        }
        q = end + 1;
    }
    segs.retain(|s| !s.is_empty());
    segs
}

/// The parameters of `def`: each one's name, and whether its type names
/// a `Mutex` or `RwLock`.
fn params_of(file: &SourceFile<'_>, def: &FnDef) -> Vec<(String, bool)> {
    let Some((open, close)) = def.params else { return Vec::new() };
    let (Some(op), Some(cp)) = (file.code_pos(open), file.code_pos(close)) else {
        return Vec::new();
    };
    let ident = |ti: usize| file.tokens[ti].kind == TokenKind::Ident;
    comma_segments(file, op, cp)
        .iter()
        .filter_map(|seg| {
            let &name = seg.iter().find(|&&ti| ident(ti) && file.text(ti) != "mut")?;
            let is_lock =
                seg.iter().any(|&ti| ident(ti) && matches!(file.text(ti), "Mutex" | "RwLock"));
            Some((file.text(name).to_string(), is_lock))
        })
        .collect()
}

/// Whether the return type of `def` names a lock guard.
fn returns_guard(file: &SourceFile<'_>, def: &FnDef) -> bool {
    let (Some((_, pc)), Some((bo, _))) = (def.params, def.body) else { return false };
    let (Some(start), Some(end)) = (file.code_pos(pc), file.code_pos(bo)) else { return false };
    file.code[start..end].iter().any(|&ti| {
        file.tokens[ti].kind == TokenKind::Ident
            && matches!(file.text(ti), "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard")
    })
}

/// Byte offset at which a guard taken at `at` in `node`'s body stops
/// being live. A guard the enclosing `let` binds lives to the end of its
/// block, or to an earlier `drop(name)` of its binding in that same block;
/// a `chained` guard (`let n = locked(&m).len();`) or one no `let` binds
/// is a temporary, dropped at the end of its statement.
fn guard_until(file: &SourceFile<'_>, node: &FnNode, at: usize, chained: bool) -> Option<usize> {
    let stmt = file.enclosing_statement(at)?;
    if !stmt.is_let || chained {
        return Some(stmt.span.1);
    }
    let block = file.enclosing_brace(at);
    let block_end =
        block.and_then(|open| file.matching(open)).map_or(stmt.span.1, |c| file.tokens[c].end);
    let Some(name) = let_binding(file, &stmt) else { return Some(block_end) };
    let drops_name = |offset: usize| {
        let Some(p) = code_pos_at(file, offset) else { return false };
        let close = file.matching(file.code[p + 1]).unwrap_or(0);
        file.code[p + 1..].iter().take_while(|&&ti| ti < close).any(|&ti| file.is_ident(ti, name))
    };
    let drop = node.calls.iter().find(|c| {
        (c.callee == "drop" && c.qualifier.is_none() && !c.is_method)
            && (c.offset > at && c.offset < block_end)
            && file.enclosing_brace(c.offset) == block
            && drops_name(c.offset)
    });
    Some(drop.map_or(block_end, |c| c.offset))
}

/// The code position of the token starting at byte `offset`.
fn code_pos_at(file: &SourceFile<'_>, offset: usize) -> Option<usize> {
    let p = file.code.partition_point(|&ti| file.tokens[ti].start < offset);
    file.code.get(p).filter(|&&ti| file.tokens[ti].start == offset).map(|_| p)
}

/// Reads every non-test fn body's lock facts: parameters, guard-returning
/// shape, direct acquisitions (attributed to the innermost body) and the
/// non-method call sites [`CallGraph::callees`] resolves. Method calls are
/// out of scope, as `recv.method(…)` fans out to every same-named method.
fn lock_bodies(graph: &CallGraph, parsed: &[SourceFile<'_>], facts: &[FileFacts]) -> Vec<LockBody> {
    let mut bodies: Vec<LockBody> = graph.fns.iter().map(|_| LockBody::default()).collect();
    // `build_from_sources` pushes one node per `fn_defs()` entry, file by
    // file in source order, so each file's defs are a contiguous run.
    let mut runs = Vec::with_capacity(parsed.len());
    let mut base = 0;
    for (fi, file) in parsed.iter().enumerate() {
        let defs = file.fn_defs();
        for (k, def) in defs.iter().enumerate() {
            let body = &mut bodies[base + k];
            body.file = fi;
            if !graph.fns[base + k].is_test {
                body.params = params_of(file, def);
                body.returns_guard = returns_guard(file, def);
            }
        }
        runs.push((base, base + defs.len()));
        base += defs.len();
    }

    for (fi, file) in parsed.iter().enumerate() {
        let (first, end) = runs[fi];
        let resolve = |i: usize, name: &str| -> Option<LockRef> {
            let params = &bodies[i].params;
            if let Some(k) = params.iter().position(|(p, is_lock)| *is_lock && p == name) {
                return Some(LockRef::Param(k));
            }
            facts[fi].lock_decls.get(name).map(|id| LockRef::Concrete(id.to_string()))
        };

        // Direct acquisitions: `recv.lock()` / `.read()` / `.write()`.
        let mut acquires = Vec::new();
        for meth in ["lock", "read", "write"] {
            for p in file.find_seq(&[".", meth, "(", ")"]) {
                let at = file.tokens[file.code[p]].start;
                let Some(i) = innermost(&graph.fns, first..end, at) else { continue };
                let Some(recv) = file.prev_code(p) else { continue };
                if graph.fns[i].is_test || file.tokens[recv].kind != TokenKind::Ident {
                    continue;
                }
                let Some(lock) = resolve(i, file.text(recv)) else { continue };
                let Some(until) = guard_until(file, &graph.fns[i], at, false) else { continue };
                acquires.push((i, Guard { lock, offset: at, line: file.line_of(at), until }));
            }
        }

        // Calls, as the graph resolves them.
        let mut calls = Vec::new();
        for i in (first..end).filter(|&i| !graph.fns[i].is_test) {
            let node = &graph.fns[i];
            for call in node.calls.iter().filter(|c| !c.is_method) {
                let targets = graph.callees(i, call);
                let Some(p) = code_pos_at(file, call.offset).filter(|_| !targets.is_empty()) else {
                    continue;
                };
                let open = file.code[p + 1];
                let Some(cp) = file.matching(open).and_then(|c| file.code_pos(c)) else { continue };
                let args = comma_segments(file, p + 1, cp)
                    .iter()
                    .map(|seg| arg_base(file, seg).and_then(|base| resolve(i, base)))
                    .collect();
                // A helper's guard lives past its statement only when the
                // `let` binds the call itself (`let g = locked(&m);`); in
                // `locked(&m).summary()` it is a statement temporary.
                let chained = file.code.get(cp + 1).is_some_and(|&ti| !file.is_punct(ti, b';'));
                let helper = targets.iter().any(|&t| bodies[t].returns_guard);
                let until = helper.then(|| guard_until(file, node, call.offset, chained)).flatten();
                calls.push((
                    i,
                    LockCall {
                        name: call.callee.to_string(),
                        offset: call.offset,
                        line: call.line,
                        targets,
                        args,
                        guard_until: until.unwrap_or(0),
                    },
                ));
            }
        }
        for (i, guard) in acquires {
            bodies[i].acquires.push(guard);
        }
        for (i, call) in calls {
            bodies[i].calls.push(call);
        }
    }
    bodies
}

/// The identifier a call argument resolves locks through: the final ident
/// of its leading field chain (`&self.stats` -> `stats`, `&m` -> `m`).
fn arg_base<'a>(file: &SourceFile<'a>, seg: &[usize]) -> Option<&'a str> {
    let mut last: Option<usize> = None;
    for &ti in seg {
        match file.tokens[ti].kind {
            TokenKind::Ident => last = Some(ti),
            TokenKind::Punct
                if matches!(file.src.as_bytes()[file.tokens[ti].start], b'&' | b'.') => {}
            _ => break,
        }
    }
    last.map(|ti| file.text(ti))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(path: &str, src: &str) -> FileFacts {
        extract_facts(Path::new(path), &SourceFile::parse(src))
    }

    /// The call graph and lock bodies of a one-file workspace.
    fn bodies(path: &str, src: &str) -> (CallGraph, Vec<LockBody>) {
        let graph = CallGraph::build_from_sources(&[(PathBuf::from(path), src.to_string())]);
        let parsed = [SourceFile::parse(src)];
        let bodies = lock_bodies(&graph, &parsed, &[extract_facts(Path::new(path), &parsed[0])]);
        (graph, bodies)
    }

    fn body<'b>(g: &CallGraph, bodies: &'b [LockBody], name: &str) -> &'b LockBody {
        &bodies[g.fns.iter().position(|f| f.name == name).expect("fn present")]
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
        // The audit reads escapes through the ledger it shares with the lint,
        // audit-hotpath and `lint --fix`.
        let src = "// pup-audit: allow(non-send): telemetry buffers are per-thread by design\nfn a() {}\n// pup-audit: allow(non-send)\nfn b() {}\n// pup-audit: allow(non-send):\nfn c() {}\n";
        let mut ledger =
            Ledger::parse(Path::new("lib.rs"), &SourceFile::parse(src), Reader::Concurrency);
        assert!(ledger.suppress(2, "non-send"), "reason present");
        assert!(!ledger.suppress(4, "non-send"), "no colon, no reason");
        assert!(!ledger.suppress(6, "non-send"), "colon but empty reason");
        let lines: Vec<usize> = ledger.hygiene().iter().map(|p| p.line).collect();
        assert_eq!(lines, [3, 5], "the reasonless escapes are findings");
    }

    #[test]
    fn events_track_acquisitions_and_guard_liveness() {
        let src = "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn both(&self) {\n        let ga = self.a.lock();\n        self.b.lock();\n    }\n}\n";
        let (g, bodies) = bodies("crates/serve/src/pair.rs", src);
        let both = body(&g, &bodies, "both");
        assert_eq!(both.acquires.len(), 2, "{:?}", both.acquires);
        // The let-bound guard on `a` outlives the statement acquiring `b`.
        let (ga, gb) = (&both.acquires[0], &both.acquires[1]);
        assert_eq!(ga.lock, LockRef::Concrete("pair::a".to_string()));
        assert!(ga.until > gb.offset, "let-bound guard must span the next acquisition");
    }

    #[test]
    fn param_locks_and_guard_returns_recognised() {
        let src = "fn locked(m: &Mutex<u32>) -> MutexGuard<'_, u32> {\n    m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n";
        let (g, bodies) = bodies("crates/serve/src/util.rs", src);
        let locked = body(&g, &bodies, "locked");
        assert_eq!(locked.params, vec![("m".to_string(), true)]);
        assert!(locked.returns_guard);
        let locks: Vec<&LockRef> = locked.acquires.iter().map(|g| &g.lock).collect();
        assert_eq!(locks, [&LockRef::Param(0)], "the helper acquires its parameter");
    }

    #[test]
    fn arg_bases_resolve_field_chains() {
        // Only calls the graph resolves are recorded, so `helper` is defined.
        let src = "pub struct S { stats: Mutex<u32> }\nfn helper(m: &Mutex<u32>, n: u32) {}\nimpl S {\n    fn f(&self) {\n        helper(&self.stats, 1);\n    }\n}\n";
        let (g, bodies) = bodies("crates/serve/src/args.rs", src);
        let call = &body(&g, &bodies, "f").calls[0];
        assert_eq!(call.name, "helper");
        assert_eq!(call.args[0], Some(LockRef::Concrete("args::stats".to_string())));
        assert_eq!(call.args[1], None);
    }
}
