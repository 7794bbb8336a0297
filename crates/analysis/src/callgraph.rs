//! Workspace-wide interprocedural call graph over [`crate::syntax`] spans.
//!
//! The hot-path certifier ([`crate::hotpath`]) needs to answer "which
//! functions can a serve-time scoring request reach?" without running
//! anything, and the concurrency audit's lock pass ([`crate::concurrency`])
//! needs to know which fns a call under a guard may run. This module builds
//! the conservative call graph both questions are asked against:
//!
//! - **Nodes** are every `fn` defined in `crates/*/src` — free functions,
//!   inherent methods, trait methods and trait default bodies. Closures are
//!   not nodes: a closure body lies inside its enclosing fn's body span, so
//!   its calls and panic sites are attributed to that fn (the closure runs
//!   on the hot path iff its owner does — conservative and simple).
//!   Nested `fn` items are attributed to themselves, not their parent
//!   (attribution is by *innermost* enclosing body).
//! - **Edges** are syntactic call sites. A qualified call `Type::method(…)`
//!   resolves to workspace fns named `method` inside an `impl` (or `trait`)
//!   block for `Type`; if none exists the callee is foreign (std or a shim)
//!   and the edge is dropped. An unqualified call `helper(…)` resolves to
//!   the non-test workspace free fns with that name (nearest scope first) —
//!   never to a method or associated fn, which Rust cannot name bare, so a
//!   local closure `rank(…)` reaches no `Shortlist::rank` — and
//!   a method call `recv.method(…)` to **every** non-test method with that
//!   name — the conservative trait-impl fan-out that makes
//!   `scorer.score(u)` reach every `Scorer::score` implementation without a
//!   type system. Macro invocations (`name!`), the `fn name(` definition
//!   site itself and a bare `drop(x)` (`std::mem::drop`) are never calls.
//!
//! The graph is deliberately sound-for-reachability rather than precise:
//! it may contain edges no execution takes (two unrelated types sharing a
//! method name), but a call it *misses* would be a hole in the certifier,
//! so every ambiguity resolves toward more edges. The one soundness caveat
//! is function pointers / closures passed as values and invoked through a
//! variable — see DESIGN.md §13.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lex::TokenKind;
use crate::lint::workspace_sources;
use crate::syntax::{in_any, SourceFile};

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "else", "fn", "move", "as", "where",
    "impl", "dyn",
];

/// One function node in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// File the fn is defined in.
    pub file: PathBuf,
    /// Crate directory name (`crates/<name>/…`).
    pub crate_name: String,
    /// Bare fn name (`score`).
    pub name: String,
    /// Display name: `<file-stem>::<ImplType>::<name>` for methods,
    /// `<file-stem>::<name>` for free fns.
    pub qual: String,
    /// The `impl`/`trait` type the fn is a method of, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte span of the body block, `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the fn lives in test-gated code (`#[test]`, `#[cfg(test)]`).
    pub is_test: bool,
    /// The `// pup-hot: <label>` annotation naming this fn a hot root.
    pub hot_root: Option<String>,
    /// Call sites inside the body, in source order.
    pub calls: Vec<CallSite>,
}

/// One syntactic call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee's bare name.
    pub callee: String,
    /// The `Type` of a qualified `Type::method(` call, if any.
    pub qualifier: Option<String>,
    /// Whether this was a `.method(` receiver call.
    pub is_method: bool,
    /// Byte offset of the callee ident.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// The whole-workspace call graph.
pub struct CallGraph {
    /// Every fn node, ordered by (file, offset).
    pub fns: Vec<FnNode>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Name -> indices of non-test fns with that bare name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Transitive crate dependency closure (`serve` -> {`models`, …}),
    /// read from the workspace `Cargo.toml`s. `None` (in-memory builds)
    /// means no cross-crate pruning.
    crate_deps: Option<BTreeMap<String, BTreeSet<String>>>,
}

impl CallGraph {
    /// Builds the graph for every `.rs` file under `<root>/crates/*/src`,
    /// pruning cross-crate edges the `Cargo.toml` dependency graph
    /// forbids (a `serve` fn cannot really call into `analysis`; without
    /// the pruning, bare-name fan-out would manufacture such edges).
    pub fn build(root: &Path) -> io::Result<CallGraph> {
        let mut graph = Self::build_from_sources(&workspace_sources(root)?);
        graph.attach_crate_deps(root);
        Ok(graph)
    }

    /// Reads `<root>/crates/*/Cargo.toml` and enables cross-crate edge
    /// pruning. A root without any manifests (fixture trees) leaves the
    /// graph unpruned.
    pub fn attach_crate_deps(&mut self, root: &Path) {
        let closure = crate_dep_closure(root);
        if !closure.is_empty() {
            self.crate_deps = Some(closure);
        }
    }

    /// Builds the graph from in-memory `(path, source)` pairs. No crate
    /// dependency information: every cross-crate edge is allowed.
    pub fn build_from_sources(sources: &[(PathBuf, String)]) -> CallGraph {
        let mut fns = Vec::new();
        for (path, text) in sources {
            extract_fns(path, text, &mut fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !f.is_test && f.body.is_some() {
                by_name.entry(f.name.to_string()).or_default().push(i);
            }
        }
        CallGraph { fns, files_scanned: sources.len(), by_name, crate_deps: None }
    }

    /// Whether a fn of `caller_crate` can call into `callee_crate`.
    fn crate_edge_ok(&self, caller_crate: &str, callee_crate: &str) -> bool {
        if caller_crate == callee_crate {
            return true;
        }
        match &self.crate_deps {
            None => true,
            Some(deps) => deps.get(caller_crate).is_some_and(|d| d.contains(callee_crate)),
        }
    }

    /// Indices of the fns the call site in `self.fns[caller]` may dispatch
    /// to, approximating Rust name resolution without types:
    ///
    /// - `Self::method` resolves against the caller's impl type.
    /// - `Type::method` restricts to the qualifier's impl block when any
    ///   such fn exists; then `pup_x::f` to free fns of crate `x`;
    ///   `crate::f` / `super::f` / `self::f` to the caller's crate;
    ///   `module::f` to fns defined in a file named `module.rs`. A
    ///   qualifier matching none of those is foreign (`Vec::new`,
    ///   `Instant::now`): no workspace edge at all.
    /// - A bare call `helper(…)` resolves to free fns only (a fn outside
    ///   any `impl` or `trait` block, or nested in a fn body): same-file
    ///   first, then same-crate, then (for `use`-imported fns)
    ///   workspace-wide. A bare name that matches no free fn is a local
    ///   closure, a tuple constructor or a foreign fn: no workspace edge. A
    ///   bare `drop(x)` is `std::mem::drop` and resolves to nothing
    ///   (implicit drops are not modelled either).
    /// - A method call `recv.method(…)` fans out to **every** non-test
    ///   method (a fn inside an `impl` or `trait` block) with the name —
    ///   the conservative trait-impl fan-out that makes `scorer.score(u)`
    ///   reach every implementation without a type system. Method syntax
    ///   never calls a free fn.
    ///
    /// Edges the crate dependency graph forbids are dropped.
    pub fn callees(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let Some(all) = self.by_name.get(&call.callee) else { return Vec::new() };
        let caller_crate = self.fns[caller].crate_name.as_str();
        let allowed = |this: &Self, set: Vec<usize>| -> Vec<usize> {
            set.into_iter()
                .filter(|&i| this.crate_edge_ok(caller_crate, &this.fns[i].crate_name))
                .collect()
        };
        let pick = |pred: &dyn Fn(&FnNode) -> bool| -> Vec<usize> {
            all.iter().copied().filter(|&i| pred(&self.fns[i])).collect()
        };
        let qualifier = match call.qualifier.as_deref() {
            Some("Self") => match self.fns[caller].impl_type.as_deref() {
                Some(ty) => Some(ty.to_string()),
                // `Self::x` outside an impl cannot happen in code that
                // compiles; resolve to nothing.
                None => return Vec::new(),
            },
            other => other.map(str::to_string),
        };
        if let Some(q) = qualifier {
            let typed = pick(&|f| f.impl_type.as_deref() == Some(q.as_str()));
            if !typed.is_empty() {
                return allowed(self, typed);
            }
            if let Some(dep) = q.strip_prefix("pup_") {
                return allowed(self, pick(&|f| f.crate_name == dep && f.impl_type.is_none()));
            }
            if matches!(q.as_str(), "crate" | "super" | "self") {
                return pick(&|f| f.crate_name == caller_crate);
            }
            let module = pick(&|f| f.file.file_stem().and_then(|s| s.to_str()) == Some(q.as_str()));
            return allowed(self, module);
        }
        if call.is_method {
            return allowed(self, pick(&|f| f.impl_type.is_some()));
        }
        if call.callee == "drop" {
            return Vec::new();
        }
        let free = |pred: &dyn Fn(&FnNode) -> bool| pick(&|f| f.impl_type.is_none() && pred(f));
        let same_file = free(&|f| f.file == self.fns[caller].file);
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate = free(&|f| f.crate_name == caller_crate);
        if !same_crate.is_empty() {
            return same_crate;
        }
        allowed(self, free(&|_| true))
    }

    /// The fns annotated `// pup-hot: <label>`, as `(label, index)` pairs.
    pub fn hot_roots(&self) -> Vec<(String, usize)> {
        let mut roots: Vec<(String, usize)> = self
            .fns
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.hot_root.as_ref().map(|l| (l.to_string(), i)))
            .collect();
        roots.sort();
        roots
    }
}

/// The fn among `candidates` (indices into `fns`) whose body most tightly
/// encloses byte `offset`: sites inside a nested fn belong to it, not to
/// its parent.
pub(crate) fn innermost(
    fns: &[FnNode],
    candidates: impl IntoIterator<Item = usize>,
    offset: usize,
) -> Option<usize> {
    candidates
        .into_iter()
        .filter_map(|i| fns[i].body.map(|span| (i, span)))
        .filter(|&(_, span)| offset > span.0 && offset < span.1)
        .min_by_key(|&(_, span)| span.1 - span.0)
        .map(|(i, _)| i)
}

/// Reads each `crates/<name>/Cargo.toml` and returns the transitive
/// dependency closure keyed by crate directory name. Only `pup-*`
/// workspace dependencies matter; `[dev-dependencies]` are excluded —
/// non-test code (all the certifier looks at) cannot reach them.
fn crate_dep_closure(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let crates_dir = root.join("crates");
    let entries = match fs::read_dir(&crates_dir) {
        Ok(e) => e,
        Err(_) => return direct,
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Ok(manifest) = fs::read_to_string(entry.path().join("Cargo.toml")) else { continue };
        let mut in_deps = false;
        let mut deps = BTreeSet::new();
        for line in manifest.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some(rest) = line.strip_prefix("pup-") {
                if let Some(dep) = rest.split(['=', ' ', '.']).next() {
                    if !dep.is_empty() {
                        deps.insert(dep.to_string());
                    }
                }
            }
        }
        direct.insert(name, deps);
    }
    // Transitive closure (the graph is tiny; iterate to fixpoint).
    let mut closure = direct.clone();
    loop {
        let mut changed = false;
        for name in direct.keys() {
            let reachable: BTreeSet<String> = closure[name]
                .iter()
                .flat_map(|d| closure.get(d).into_iter().flatten().cloned())
                .collect();
            if let Some(set) = closure.get_mut(name) {
                for r in reachable {
                    changed |= set.insert(r);
                }
            }
        }
        if !changed {
            break;
        }
    }
    closure
}

/// The crate directory name for a workspace file path (`crates/<name>/…`).
/// The *last* `crates` component wins so roots that themselves live under
/// a `crates/` directory (or contain `..` hops) resolve correctly.
pub(crate) fn crate_of(path: &Path) -> String {
    let comps: Vec<String> =
        path.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    comps
        .iter()
        .rposition(|c| c == "crates")
        .and_then(|i| comps.get(i + 1))
        .cloned()
        .unwrap_or_default()
}

/// One `impl`/`trait` block: the type name and its body's byte span.
fn impl_blocks(file: &SourceFile<'_>) -> Vec<(String, (usize, usize))> {
    let mut blocks = Vec::new();
    for p in 0..file.code.len() {
        let kw = file.code[p];
        let word = if file.tokens[kw].kind == TokenKind::Ident { file.text(kw) } else { "" };
        if word != "impl" && word != "trait" {
            continue;
        }
        // Walk to the body `{`, skipping (…)/[…] and generic <…> runs; the
        // impl type is the last plain ident seen before the body (or before
        // `where` — a where clause may mention other types but the impl
        // type is already decided by then), except that in
        // `impl Trait for Type` everything before `for` is the trait. For
        // `trait Name {` the name is the type (default bodies dispatch
        // through it).
        let mut ty: Option<String> = None;
        let mut in_where = false;
        let mut q = p + 1;
        let mut angle = 0i32;
        while let Some(&ti) = file.code.get(q) {
            if file.is_punct(ti, b'(') || file.is_punct(ti, b'[') {
                match file.matching(ti).and_then(|c| file.code_pos(c)) {
                    Some(cp) => {
                        q = cp + 1;
                        continue;
                    }
                    None => break,
                }
            } else if file.is_punct(ti, b'<') {
                angle += 1;
            } else if file.is_punct(ti, b'>') {
                angle -= 1;
            } else if file.is_punct(ti, b'{') && angle <= 0 {
                if let Some(close) = file.matching(ti) {
                    if let Some(ty) = ty {
                        blocks.push((ty, (file.tokens[ti].start, file.tokens[close].end)));
                    }
                }
                break;
            } else if file.is_punct(ti, b';') {
                break;
            } else if !in_where && file.tokens[ti].kind == TokenKind::Ident && angle == 0 {
                match file.text(ti) {
                    "for" => ty = None, // `impl Trait for Type`: restart on the type
                    "where" => in_where = true,
                    "dyn" | "mut" | "const" => {}
                    w => ty = Some(w.to_string()),
                }
            }
            q += 1;
        }
    }
    blocks
}

/// Extracts every fn node (with call sites) from one file into `out`.
fn extract_fns(path: &Path, source: &str, out: &mut Vec<FnNode>) {
    let file = SourceFile::parse(source);
    let test_spans = file.test_spans();
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?").to_string();
    let crate_name = crate_of(path);
    let impls = impl_blocks(&file);
    let defs = file.fn_defs();

    // Body spans of all defs, for innermost-fn attribution of call sites.
    let bodies: Vec<Option<(usize, usize)>> = defs
        .iter()
        .map(|d| d.body.map(|(o, c)| (file.tokens[o].start, file.tokens[c].end)))
        .collect();

    let base = out.len();
    for (k, def) in defs.iter().enumerate() {
        let kw_at = file.tokens[def.kw].start;
        let name = def.name.map(|i| file.text(i)).unwrap_or("?").to_string();
        // A fn is a method of the innermost `impl`/`trait` block around it,
        // unless a fn body lies between the two: then it is a nested item.
        let enclosing_body = bodies
            .iter()
            .flatten()
            .filter(|span| kw_at > span.0 && kw_at < span.1)
            .map(|span| span.0)
            .max();
        let impl_type = impls
            .iter()
            .filter(|(_, span)| kw_at >= span.0 && kw_at < span.1)
            .min_by_key(|(_, span)| span.1 - span.0)
            .filter(|(_, span)| enclosing_body.is_none_or(|body| body < span.0))
            .map(|(ty, _)| ty.to_string());
        let qual = match &impl_type {
            Some(ty) => format!("{stem}::{ty}::{name}"),
            None => format!("{stem}::{name}"),
        };
        let hot_root = hot_annotation(&file, def.kw);
        out.push(FnNode {
            file: path.to_path_buf(),
            crate_name: crate_name.to_string(),
            name,
            qual,
            impl_type,
            line: file.line_of(kw_at),
            body: bodies[k],
            is_test: in_any(&test_spans, kw_at),
            hot_root,
            calls: Vec::new(),
        });
    }

    // Call sites, attributed to the innermost enclosing fn body.
    for p in 0..file.code.len() {
        let ti = file.code[p];
        if file.tokens[ti].kind != TokenKind::Ident {
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
        let at = file.tokens[ti].start;
        // `fn name(` is a definition; `name!(` is a macro. Both out.
        if p > 0 {
            let prev = file.code[p - 1];
            if file.is_ident(prev, "fn") {
                continue;
            }
        }
        // (A macro bang comes *after* the name: `name!(…)` lexes as
        // ident, `!`, `(` — the token after the name is `!`, so the
        // `(`-check above already excluded it.)
        let is_method = p > 0 && file.is_punct(file.code[p - 1], b'.');
        let qualifier = (!is_method)
            .then(|| {
                // `Type::name(` — two colons then an ident, walking over
                // a possible turbofish-free path.
                if p >= 3
                    && file.is_punct(file.code[p - 1], b':')
                    && file.is_punct(file.code[p - 2], b':')
                    && file.tokens[file.code[p - 3]].kind == TokenKind::Ident
                {
                    Some(file.text(file.code[p - 3]).to_string())
                } else {
                    None
                }
            })
            .flatten();
        let Some(owner) = innermost(out, base..out.len(), at) else { continue };
        out[owner].calls.push(CallSite {
            callee: name.to_string(),
            qualifier,
            is_method,
            offset: at,
            line: file.line_of(at),
        });
    }
}

/// Reads a `// pup-hot: <label>` annotation from the plain comments
/// directly above the `fn` keyword (attributes and doc comments may sit in
/// between).
pub(crate) fn hot_annotation(file: &SourceFile<'_>, fn_kw: usize) -> Option<String> {
    const MARKER: &str = "pup-hot:";
    let mut ti = fn_kw;
    // Walk raw tokens backwards over trivia, doc comments, attributes and
    // visibility/ABI keywords until something that ends the item header.
    while ti > 0 {
        ti -= 1;
        match file.tokens[ti].kind {
            TokenKind::Whitespace
            | TokenKind::LineComment { doc: true }
            | TokenKind::BlockComment { doc: true } => continue,
            TokenKind::LineComment { doc: false } | TokenKind::BlockComment { doc: false } => {
                let text = file.tokens[ti].text(file.src);
                if let Some(at) = text.find(MARKER) {
                    let label = text[at + MARKER.len()..]
                        .trim_start_matches(['*', ' '])
                        .trim_end_matches(['*', '/', ' '])
                        .trim();
                    if !label.is_empty() {
                        return Some(label.to_string());
                    }
                }
                continue;
            }
            TokenKind::Ident
                if matches!(file.text(ti), "pub" | "unsafe" | "const" | "async" | "extern") =>
            {
                continue;
            }
            TokenKind::Str => continue, // `extern "C"`
            TokenKind::Punct if file.is_punct(ti, b']') => {
                // Skip a whole `#[…]` attribute.
                match file.matching(ti) {
                    Some(open) => {
                        let mut j = open;
                        while j > 0 && file.tokens[j - 1].kind == TokenKind::Whitespace {
                            j -= 1;
                        }
                        if j > 0 && file.is_punct(j - 1, b'#') {
                            ti = j - 1;
                            continue;
                        }
                        return None;
                    }
                    None => return None,
                }
            }
            TokenKind::Punct if file.is_punct(ti, b')') => {
                // `pub(crate)` visibility group.
                match file.matching(ti) {
                    Some(open) => {
                        ti = open;
                        continue;
                    }
                    None => return None,
                }
            }
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let sources: Vec<(PathBuf, String)> =
            files.iter().map(|(p, s)| (PathBuf::from(p), s.to_string())).collect();
        CallGraph::build_from_sources(&sources)
    }

    fn find<'g>(g: &'g CallGraph, name: &str) -> &'g FnNode {
        &g.fns[idx(g, name)]
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn free_fns_methods_and_trait_defaults_are_nodes() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "pub fn free() {}\n\
             pub struct S;\n\
             impl S {\n    pub fn method(&self) {}\n}\n\
             pub trait T {\n    fn required(&self);\n    fn provided(&self) { self.required() }\n}\n\
             impl T for S {\n    fn required(&self) {}\n}\n",
        )]);
        assert_eq!(find(&g, "free").impl_type, None);
        assert_eq!(find(&g, "method").impl_type.as_deref(), Some("S"));
        assert_eq!(find(&g, "provided").impl_type.as_deref(), Some("T"));
        let required: Vec<_> = g.fns.iter().filter(|f| f.name == "required").collect();
        assert_eq!(required.len(), 2, "declaration + impl");
        assert!(required.iter().any(|f| f.body.is_some()));
        assert_eq!(find(&g, "free").qual, "lib::free");
        assert_eq!(find(&g, "method").qual, "lib::S::method");
    }

    #[test]
    fn method_calls_fan_out_to_all_impls() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "trait Scorer { fn score(&self) -> f64; }\n\
             struct A;\nimpl Scorer for A { fn score(&self) -> f64 { 1.0 } }\n\
             struct B;\nimpl Scorer for B { fn score(&self) -> f64 { 2.0 } }\n\
             fn drive(s: &dyn Scorer) -> f64 { s.score() }\n",
        )]);
        let drive = idx(&g, "drive");
        assert_eq!(g.fns[drive].calls.len(), 1);
        let callees = g.callees(drive, &g.fns[drive].calls[0]);
        assert_eq!(callees.len(), 2, "both impls reachable: {callees:?}");
    }

    #[test]
    fn method_calls_never_resolve_to_free_fns() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "fn sum(xs: &[f64]) -> f64 { xs[0] }\n\
             struct M;\nimpl M { fn sum(&self) -> f64 { 0.0 } }\n\
             fn on_type(m: &M) -> f64 { m.sum() }\n\
             fn on_iter(xs: &[f64]) -> f64 { xs.iter().copied().sum() }\n",
        )]);
        let on_type = idx(&g, "on_type");
        let callees = g.callees(on_type, &g.fns[on_type].calls[0]);
        let quals: Vec<&str> = callees.iter().map(|&i| g.fns[i].qual.as_str()).collect();
        assert_eq!(quals, ["lib::M::sum"], "the free `sum` is not a method");
        // An iterator `.sum()` still reaches the workspace method (fan-out
        // by name), never the free fn.
        let on_iter = idx(&g, "on_iter");
        let call = g.fns[on_iter].calls.iter().find(|c| c.callee == "sum").expect("call").clone();
        assert!(g.callees(on_iter, &call).iter().all(|&i| g.fns[i].impl_type.is_some()));
    }

    #[test]
    fn bare_calls_never_resolve_to_methods() {
        // The SLO engine's case: a local closure named like a method
        // elsewhere in the workspace is not a call into that method.
        let g = graph(&[
            (
                "crates/models/src/topk.rs",
                "pub struct Shortlist;
                 impl Shortlist {
    pub fn rank(self) -> Vec<u32> { Vec::new() }
}
",
            ),
            (
                "crates/obs/src/slo.rs",
                "fn worst(levels: &[u8]) -> u8 {
    let rank = |l: u8| l * 2;
                     levels.iter().map(|&l| rank(l)).max().unwrap_or(0)
}
",
            ),
        ]);
        let worst = idx(&g, "worst");
        let call = g.fns[worst].calls.iter().find(|c| c.callee == "rank").expect("call").clone();
        assert!(!call.is_method && call.qualifier.is_none(), "a bare call: {call:?}");
        assert!(
            g.callees(worst, &call).is_empty(),
            "`rank(l)` is the closure, not Shortlist::rank"
        );
    }

    #[test]
    fn fns_nested_in_method_bodies_are_free_fns() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "struct S;
impl S {
    fn method(&self) -> u8 {
                     fn helper() -> u8 { 1 }
        helper()
    }
}
",
        )]);
        assert_eq!(find(&g, "method").impl_type.as_deref(), Some("S"));
        assert_eq!(find(&g, "helper").impl_type, None, "nested in a body, not in the impl");
        let method = idx(&g, "method");
        let callees = g.callees(method, &g.fns[method].calls[0]);
        assert_eq!(callees, [idx(&g, "helper")]);
    }

    #[test]
    fn bare_drop_is_std_mem_drop_not_a_drop_impl() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "struct S;\nimpl Drop for S { fn drop(&mut self) { helper() } }\n\
             fn helper() {}\n\
             fn release(s: S) { drop(s) }\n",
        )]);
        let release = idx(&g, "release");
        let call = &g.fns[release].calls[0];
        assert_eq!(call.callee, "drop");
        assert!(g.callees(release, call).is_empty(), "`drop(s)` runs no workspace fn by name");
    }

    #[test]
    fn qualified_calls_resolve_to_the_named_impl_only() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "struct A;\nimpl A { fn make() -> A { A } }\n\
             struct B;\nimpl B { fn make() -> B { B } }\n\
             fn f() { let _ = A::make(); }\n\
             fn foreign() { let _ = Vec::new(); }\n",
        )]);
        let f = idx(&g, "f");
        let make_call = g.fns[f].calls.iter().find(|c| c.callee == "make").expect("call").clone();
        let callees = g.callees(f, &make_call);
        assert_eq!(callees.len(), 1);
        assert_eq!(g.fns[callees[0]].qual, "lib::A::make");
        // `Vec::new` has no workspace impl: a foreign leaf, no edges.
        let foreign = idx(&g, "foreign");
        let new_call =
            g.fns[foreign].calls.iter().find(|c| c.callee == "new").expect("call").clone();
        assert!(g.callees(foreign, &new_call).is_empty());
    }

    #[test]
    fn closure_calls_attribute_to_the_enclosing_fn_and_nested_fns_to_themselves() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "fn helper() {}\nfn inner_target() {}\n\
             fn outer() {\n    let c = || helper();\n    c();\n    fn nested() { inner_target() }\n    nested();\n}\n",
        )]);
        let outer = find(&g, "outer");
        assert!(
            outer.calls.iter().any(|c| c.callee == "helper"),
            "closure body call belongs to outer: {:?}",
            outer.calls
        );
        assert!(
            !outer.calls.iter().any(|c| c.callee == "inner_target"),
            "nested fn body is its own node"
        );
        let nested = find(&g, "nested");
        assert!(nested.calls.iter().any(|c| c.callee == "inner_target"));
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "fn f() {\n    println!(\"x\");\n    vec![1, 2];\n}\n",
        )]);
        assert!(find(&g, "f").calls.is_empty(), "{:?}", find(&g, "f").calls);
    }

    #[test]
    fn hot_annotations_are_read_above_attributes_and_docs() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "// pup-hot: serve-request\n/// Docs.\n#[inline]\npub fn process() {}\n\
             fn plain() {}\n",
        )]);
        assert_eq!(find(&g, "process").hot_root.as_deref(), Some("serve-request"));
        assert_eq!(find(&g, "plain").hot_root, None);
        assert_eq!(g.hot_roots().len(), 1);
    }

    #[test]
    fn test_fns_are_marked_and_excluded_from_resolution() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn live() { super::live() }\n}\n\
             fn caller() { live() }\n",
        )]);
        let caller = idx(&g, "caller");
        let callees = g.callees(caller, &g.fns[caller].calls[0]);
        assert_eq!(callees.len(), 1, "only the non-test fn resolves");
        assert!(!g.fns[callees[0]].is_test);
    }

    #[test]
    fn self_calls_resolve_to_the_callers_impl() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "struct A;\nimpl A {\n    fn new() -> A { A }\n    fn fresh() -> A { Self::new() }\n}\n\
             struct B;\nimpl B { fn new() -> B { B } }\n",
        )]);
        let fresh = idx(&g, "fresh");
        let call = g.fns[fresh].calls.iter().find(|c| c.callee == "new").expect("call").clone();
        assert_eq!(call.qualifier.as_deref(), Some("Self"));
        let callees = g.callees(fresh, &call);
        assert_eq!(callees.len(), 1, "Self:: does not fan out: {callees:?}");
        assert_eq!(g.fns[callees[0]].qual, "lib::A::new");
    }
}
