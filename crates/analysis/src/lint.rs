//! Token-based static lint driver for the PUP workspace.
//!
//! The driver walks every `crates/*/src` tree and enforces repo conventions
//! that `rustc`/`clippy` either cannot express or cannot scope the way we
//! need:
//!
//! | rule | meaning |
//! |------|---------|
//! | `panic-in-backward` | no `panic!` inside backward closures of `ops.rs` / `autograd.rs` |
//! | `clone-in-loop` | no `.clone()` / `.value_clone()` inside loop bodies (perf smell) |
//! | `unguarded-ln` | no `.ln()`/`.log2()`/`.log10()` or division by a tape value without an epsilon/clamp guard in model/loss code |
//! | `float-eq` | no `==`/`!=` between `f64` expressions outside tests |
//! | `crash-unsafe-io` | no `fs::write`/`File::create` in a function that never calls `rename` (write-temp-then-rename keeps saves atomic) |
//! | `raw-print-in-lib` | no `println!`/`eprintln!` in library code (bins and tests exempt); telemetry goes through `pup-obs`, data through return values |
//! | `untraced-hot-root` | every `// pup-hot:` root fn must open a telemetry span (`pup_obs::span(..)` or a trace-context `.span(..)`) so hot-path work is visible in traces |
//! | `blocking-io-without-timeout` | no socket reads/writes in a function that never arms a timeout or deadline (bins and tests exempt); one dead peer must not park a thread forever |
//! | `stale-allow` | (`--strict` only) an allow escape that suppresses nothing |
//!
//! Every rule matches **code tokens** from the [`crate::lex`] lexer inside
//! scopes computed by [`crate::syntax`] — not lines, not regexes. That
//! kills the classic line-scanner false-positive/negative classes for
//! good: needles inside string literals, doc comments, or raw strings can
//! never fire; `#[cfg(all(test, …))]` and multi-line attributes exclude
//! test code correctly; method chains and comparisons split across lines
//! by rustfmt are still seen whole; and an identifier that merely
//! *contains* a guard word (`unclamped`) no longer quiets `unguarded-ln`.
//!
//! A site opts out with `// pup-lint: allow(<rule>)` on the offending line
//! or the line above; [`crate::escape`] parses and matches escapes for the
//! lint and both audits. In strict mode a name that suppresses nothing or
//! names no rule is a `stale-allow` violation, and `lint --fix` deletes it.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::escape::{Ledger, Reader};
use crate::lex::TokenKind;
use crate::syntax::{in_any, SourceFile, Stmt};

/// The lint rules the driver enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `panic!` inside a backward closure in `ops.rs` / `autograd.rs`.
    PanicInBackward,
    /// `.clone()` / `.value_clone()` inside a loop body.
    CloneInLoop,
    /// Unguarded `.ln()` / `.log2()` / `.log10()` or division by a
    /// tape-derived value in model/loss code.
    UnguardedLn,
    /// `==` / `!=` between `f64` expressions outside tests.
    FloatEq,
    /// `fs::write` / `File::create` in a function that never calls
    /// `rename`: a crash mid-write tears the target file.
    CrashUnsafeIo,
    /// `println!` / `eprintln!` in crate library code (bins/tests exempt):
    /// structured output belongs in `pup-obs` telemetry or return values.
    RawPrintInLib,
    /// A lossy `as` cast (`as u32`, `as f32`, float `as usize`) in
    /// non-test code.
    AsCastTruncation,
    /// A `// pup-hot:` root fn that never opens a telemetry span: the
    /// hottest paths are exactly the ones a trace must not go dark on.
    UntracedHotRoot,
    /// Socket reads/writes in a function that never arms a timeout or
    /// deadline: one dead peer can park the thread forever.
    BlockingIoNoTimeout,
    /// An allow escape that no longer suppresses any finding (strict mode).
    StaleAllow,
}

impl Rule {
    /// Every rule an allow escape may name.
    pub const ALLOWABLE: &'static [Rule] = &[
        Rule::PanicInBackward,
        Rule::CloneInLoop,
        Rule::UnguardedLn,
        Rule::FloatEq,
        Rule::CrashUnsafeIo,
        Rule::RawPrintInLib,
        Rule::AsCastTruncation,
        Rule::UntracedHotRoot,
        Rule::BlockingIoNoTimeout,
    ];

    /// The rule's name as used in `// pup-lint: allow(<name>)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicInBackward => "panic-in-backward",
            Rule::CloneInLoop => "clone-in-loop",
            Rule::UnguardedLn => "unguarded-ln",
            Rule::FloatEq => "float-eq",
            Rule::CrashUnsafeIo => "crash-unsafe-io",
            Rule::RawPrintInLib => "raw-print-in-lib",
            Rule::AsCastTruncation => "as-cast-truncation",
            Rule::UntracedHotRoot => "untraced-hot-root",
            Rule::BlockingIoNoTimeout => "blocking-io-without-timeout",
            Rule::StaleAllow => "stale-allow",
        }
    }
}

/// A single lint finding, pointing at `file:line` with a byte span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Byte span `[start, end)` of the offending tokens.
    pub span: (usize, usize),
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule.name(), self.message)
    }
}

/// Result of a full workspace walk.
#[derive(Debug)]
pub struct LintReport {
    /// All findings, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

/// Lints every `.rs` file under `<root>/crates/*/src` (non-strict).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    lint_workspace_with(root, false)
}

/// Lints every `.rs` file under `<root>/crates/*/src`; with `strict`, allow
/// escapes that suppress nothing are reported as `stale-allow` violations.
pub fn lint_workspace_with(root: &Path, strict: bool) -> io::Result<LintReport> {
    let sources = workspace_sources(root)?;
    let mut diagnostics: Vec<Diagnostic> =
        sources.iter().flat_map(|(file, text)| lint_source_with(file, text, strict)).collect();
    diagnostics.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintReport { diagnostics, files_checked: sources.len() })
}

/// Every `.rs` file under `<root>/crates/*/src` with its text, sorted.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    workspace_rs_files(root)?.into_iter().map(|f| fs::read_to_string(&f).map(|t| (f, t))).collect()
}

/// Every `.rs` file under `<root>/crates/*/src`, sorted.
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a single file's source text (non-strict). Exposed for tests;
/// `path` only influences the path-scoped rules (`panic-in-backward`,
/// `unguarded-ln`, `raw-print-in-lib`, `blocking-io-without-timeout`) and
/// the reported location.
pub fn lint_source(path: &Path, source: &str) -> Vec<Diagnostic> {
    lint_source_with(path, source, false)
}

/// A candidate finding before allow-escape filtering.
struct Candidate {
    offset: usize,
    end: usize,
    rule: Rule,
    message: String,
}

/// Lints a single file's source text; with `strict`, the hygiene problems
/// of its `pup-lint` escapes (stale and unknown names) are reported too.
pub fn lint_source_with(path: &Path, source: &str, strict: bool) -> Vec<Diagnostic> {
    let (mut diags, ledger) = analyze_source(path, source);
    if strict {
        diags.extend(ledger.hygiene().into_iter().map(|p| Diagnostic {
            file: p.file.to_path_buf(),
            line: p.line,
            span: p.span,
            rule: Rule::StaleAllow,
            message: p.message(),
        }));
    }
    diags.sort_by_key(|d| d.line);
    diags
}

/// Lints a single file: the findings no escape suppresses, and the file's
/// `pup-lint` escape ledger with each name's use recorded. `fix` deletes
/// the stale names the ledger reports.
pub fn analyze_source(path: &Path, source: &str) -> (Vec<Diagnostic>, Ledger) {
    let file = SourceFile::parse(source);
    let mut ledger = Ledger::parse(path, &file, Reader::Lint);
    let test_spans = file.test_spans();
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let path_str = path.to_string_lossy().replace('\\', "/");
    let scope = PathScope {
        is_tape_file: file_name == "ops.rs" || file_name == "autograd.rs",
        is_model_or_loss: path_str.contains("models/src") || path_str.contains("tensor/src"),
        is_bin: path_str.contains("/src/bin/") || file_name == "main.rs",
    };

    let mut candidates = Vec::new();
    if scope.is_tape_file {
        panic_in_backward(&file, &test_spans, &mut candidates);
    }
    clone_in_loop(&file, &test_spans, &mut candidates);
    if !scope.is_bin {
        raw_print_in_lib(&file, &test_spans, &mut candidates);
    }
    if scope.is_model_or_loss {
        unguarded_ln(&file, &test_spans, &mut candidates);
    }
    float_eq(&file, &test_spans, &mut candidates);
    crash_unsafe_io(&file, &test_spans, &mut candidates);
    as_cast_truncation(&file, &test_spans, &mut candidates);
    untraced_hot_root(&file, &test_spans, &mut candidates);
    if !scope.is_bin {
        blocking_io_without_timeout(&file, &test_spans, &mut candidates);
    }

    let diags = candidates
        .into_iter()
        .filter_map(|c| {
            let line = file.line_of(c.offset);
            (!ledger.suppress(line, c.rule.name())).then(|| Diagnostic {
                file: path.to_path_buf(),
                line,
                span: (c.offset, c.end),
                rule: c.rule,
                message: c.message,
            })
        })
        .collect();
    (diags, ledger)
}

/// Which path-scoped rules apply to this file.
struct PathScope {
    is_tape_file: bool,
    is_model_or_loss: bool,
    is_bin: bool,
}

/// `panic-in-backward`: `panic!` inside `Box::new(…)` argument lists of
/// the tape files.
fn panic_in_backward(
    file: &SourceFile<'_>,
    test_spans: &[(usize, usize)],
    out: &mut Vec<Candidate>,
) {
    let backward_spans = file.call_arg_spans(&["Box", "new"]);
    for p in file.find_seq(&["panic", "!"]) {
        let at = file.tokens[file.code[p]].start;
        if in_any(&backward_spans, at) && !in_any(test_spans, at) {
            out.push(Candidate {
                offset: at,
                end: file.tokens[file.code[p + 1]].end,
                rule: Rule::PanicInBackward,
                message: "`panic!` inside a backward closure: a broken gradient must \
                          surface through the tape auditor, not ad-hoc panics"
                    .to_string(),
            });
        }
    }
}

/// `clone-in-loop`: `.clone()` / `.value_clone()` inside loop bodies.
fn clone_in_loop(file: &SourceFile<'_>, test_spans: &[(usize, usize)], out: &mut Vec<Candidate>) {
    let loop_spans = file.loop_body_spans();
    for needle in ["clone", "value_clone"] {
        for p in file.find_seq(&[".", needle, "(", ")"]) {
            let at = file.tokens[file.code[p]].start;
            if in_any(&loop_spans, at) && !in_any(test_spans, at) {
                out.push(Candidate {
                    offset: at,
                    end: file.tokens[file.code[p + 3]].end,
                    rule: Rule::CloneInLoop,
                    message: format!(
                        "`.{needle}()` inside a loop body allocates per iteration; hoist \
                         it or annotate with `// pup-lint: allow(clone-in-loop)`"
                    ),
                });
            }
        }
    }
}

/// `raw-print-in-lib`: `println!` / `eprintln!` in library code.
fn raw_print_in_lib(
    file: &SourceFile<'_>,
    test_spans: &[(usize, usize)],
    out: &mut Vec<Candidate>,
) {
    for needle in ["println", "eprintln"] {
        for p in file.find_seq(&[needle, "!"]) {
            let at = file.tokens[file.code[p]].start;
            if !in_any(test_spans, at) {
                out.push(Candidate {
                    offset: at,
                    end: file.tokens[file.code[p + 1]].end,
                    rule: Rule::RawPrintInLib,
                    message: format!(
                        "`{needle}!` in library code; record telemetry via pup-obs or \
                         return the data to the caller, or annotate with \
                         `// pup-lint: allow(raw-print-in-lib)`"
                    ),
                });
            }
        }
    }
}

/// Guard tokens that quiet `unguarded-ln` when they appear in the same
/// statement: a floor/clamp call, an epsilon identifier, or a small
/// negative-exponent float literal.
fn stmt_has_guard(file: &SourceFile<'_>, stmt: &Stmt) -> bool {
    let (Some(first), Some(last)) = (file.code_pos(stmt.first), file.code_pos(stmt.last)) else {
        return false;
    };
    for p in first..=last {
        let ti = file.code[p];
        match file.tokens[ti].kind {
            TokenKind::Ident => {
                let text = file.text(ti);
                if matches!(text, "max" | "clamp" | "ln_1p") {
                    return true;
                }
                let lower = text.to_ascii_lowercase();
                if lower.contains("eps") && !lower.contains("step") {
                    return true;
                }
            }
            TokenKind::Float => {
                let text = file.text(ti);
                if text.contains("e-") || text.contains("E-") {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// `unguarded-ln`: `.ln()` / `.log2()` / `.log10()` calls and divisions by
/// tape-derived values with no epsilon/clamp guard in the same statement.
/// Model/loss code only: a log of a zero-probability or a division by an
/// un-floored norm turns one bad batch into NaN weights.
fn unguarded_ln(file: &SourceFile<'_>, test_spans: &[(usize, usize)], out: &mut Vec<Candidate>) {
    let mut consider = |at: usize, end: usize, what: String| {
        let guarded =
            file.enclosing_statement(at).map(|stmt| stmt_has_guard(file, &stmt)).unwrap_or(false);
        if guarded {
            return;
        }
        out.push(Candidate {
            offset: at,
            end,
            rule: Rule::UnguardedLn,
            message: format!(
                "{what} without an epsilon/clamp guard in the same statement; floor \
                 the argument (e.g. `.max(EPS)`) or annotate with \
                 `// pup-lint: allow(unguarded-ln)`"
            ),
        });
    };
    for needle in ["ln", "log2", "log10"] {
        for p in file.find_seq(&[".", needle, "(", ")"]) {
            let at = file.tokens[file.code[p]].start;
            if !in_any(test_spans, at) {
                let end = file.tokens[file.code[p + 3]].end;
                consider(at, end, format!("`.{needle}()` in model/loss code"));
            }
        }
    }
    // Division by a tape-derived value: scan the divisor expression (the
    // token run after `/` up to the next lower-precedence operator at the
    // same depth) for tape-read calls.
    const TAPE_READS: &[&[&str]] = &[
        &[".", "scalar", "("],
        &[".", "value", "("],
        &[".", "sum", "("],
        &[".", "mean", "("],
        &[".", "get", "("],
    ];
    for p in 0..file.code.len() {
        let ti = file.code[p];
        if !file.is_punct(ti, b'/') {
            continue;
        }
        let at = file.tokens[ti].start;
        if in_any(test_spans, at) {
            continue;
        }
        // `/=` is a division too; `//` never reaches the code stream.
        let mut depth = 0i32;
        let mut q = p + 1;
        let mut tape_read = false;
        while let Some(&tj) = file.code.get(q) {
            if file.tokens[tj].kind == TokenKind::Punct {
                match file.src.as_bytes()[file.tokens[tj].start] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    }
                    b'+' | b'-' | b',' | b';' | b'=' | b'<' | b'>' | b'|' | b'&' if depth == 0 => {
                        break;
                    }
                    _ => {}
                }
            }
            if depth >= 0 && TAPE_READS.iter().any(|pat| file.match_seq(q, pat)) {
                tape_read = true;
            }
            q += 1;
        }
        if tape_read {
            consider(at, file.tokens[ti].end, "division by a tape-derived value".to_string());
        }
    }
}

/// Tokens allowed inside a comparison operand's postfix chain.
fn operand_token(file: &SourceFile<'_>, ti: usize) -> bool {
    matches!(file.tokens[ti].kind, TokenKind::Ident | TokenKind::Int | TokenKind::Float)
        || file.is_punct(ti, b'.')
}

/// Whether a set of operand tokens "looks f64": a float literal, an
/// `f64`/`f32` cast, or a `.scalar`-style tape read.
fn floaty(file: &SourceFile<'_>, tokens: &[usize]) -> bool {
    tokens.iter().any(|&ti| match file.tokens[ti].kind {
        TokenKind::Float => true,
        TokenKind::Ident => {
            let t = file.text(ti);
            t == "f64" || t == "f32" || t.contains("scalar")
        }
        _ => false,
    })
}

/// `as-cast-truncation`: lossy `as` casts in non-test code. Casting to
/// `u8`/`u16`/`u32`/`i8`/`i16`/`i32` silently drops high bits; `as f32`
/// drops mantissa precision; `as usize` truncates toward zero when the
/// source operand chain looks like a float. Widening or same-width casts
/// (`as f64`, `as u64`, `as i64`, integer `as usize`) stay quiet —
/// the rule targets silent value corruption, not representation changes.
fn as_cast_truncation(
    file: &SourceFile<'_>,
    test_spans: &[(usize, usize)],
    out: &mut Vec<Candidate>,
) {
    const LOSSY: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
    for p in 0..file.code.len() {
        let kw = file.code[p];
        if !file.is_ident(kw, "as") {
            continue;
        }
        let Some(&ty) = file.code.get(p + 1) else { continue };
        if file.tokens[ty].kind != TokenKind::Ident {
            continue;
        }
        let at = file.tokens[kw].start;
        if in_any(test_spans, at) {
            continue;
        }
        let target = file.text(ty);
        let lossy = if LOSSY.contains(&target) {
            true
        } else if target == "usize" {
            // Walk the source operand's postfix chain backward, entering
            // matched `(…)` groups whole (same walk as `float-eq`).
            let mut left = Vec::new();
            let mut q = p;
            while q > 0 {
                let ti = file.code[q - 1];
                if file.is_punct(ti, b')') {
                    match file.matching(ti).and_then(|o| file.code_pos(o)) {
                        Some(op) => {
                            for r in op..q {
                                left.push(file.code[r]);
                            }
                            q = op;
                            continue;
                        }
                        None => break,
                    }
                }
                if operand_token(file, ti) {
                    left.push(ti);
                    q -= 1;
                } else {
                    break;
                }
            }
            floaty(file, &left)
        } else {
            false
        };
        if lossy {
            out.push(Candidate {
                offset: at,
                end: file.tokens[ty].end,
                rule: Rule::AsCastTruncation,
                message: format!(
                    "`as {target}` may lose value bits silently; use `try_from` (or round \
                     explicitly) or annotate with `// pup-lint: allow(as-cast-truncation)`"
                ),
            });
        }
    }
}

/// `float-eq`: `==` / `!=` where either operand's postfix chain looks like
/// an `f64` expression. Exact float comparison is almost always a bug
/// outside tests; legitimate exact sentinels (`p == 0.0` fast paths) opt
/// out explicitly. Operands are walked across lines, so comparisons split
/// by rustfmt are still seen whole (a miss class of the old line engine).
fn float_eq(file: &SourceFile<'_>, test_spans: &[(usize, usize)], out: &mut Vec<Candidate>) {
    for p in 0..file.code.len() {
        let a = file.code[p];
        let Some(&b) = file.code.get(p + 1) else { continue };
        let first = if file.is_punct(a, b'=') {
            "="
        } else if file.is_punct(a, b'!') {
            "!"
        } else {
            continue;
        };
        // The two bytes must be adjacent to form one operator.
        if !file.is_punct(b, b'=') || file.tokens[a].end != file.tokens[b].start {
            continue;
        }
        // Exclude composites: `<=` `>=` `==` prefix, and `x === y` typos.
        if let Some(prev) = file.prev_code(p) {
            if file.tokens[prev].end == file.tokens[a].start
                && (file.is_punct(prev, b'<')
                    || file.is_punct(prev, b'>')
                    || file.is_punct(prev, b'=')
                    || file.is_punct(prev, b'!'))
            {
                continue;
            }
        }
        if file
            .code
            .get(p + 2)
            .is_some_and(|&c| file.is_punct(c, b'=') && file.tokens[b].end == file.tokens[c].start)
        {
            continue;
        }
        let at = file.tokens[a].start;
        if in_any(test_spans, at) {
            continue;
        }
        // Left operand: walk back over the postfix chain, entering matched
        // `(…)` groups whole.
        let mut left = Vec::new();
        let mut q = p;
        while q > 0 {
            let ti = file.code[q - 1];
            if file.is_punct(ti, b')') {
                match file.matching(ti).and_then(|o| file.code_pos(o)) {
                    Some(op) => {
                        for r in op..q {
                            left.push(file.code[r]);
                        }
                        q = op;
                        continue;
                    }
                    None => break,
                }
            }
            if operand_token(file, ti) {
                left.push(ti);
                q -= 1;
            } else {
                break;
            }
        }
        // Right operand: symmetric, forwards.
        let mut right = Vec::new();
        let mut q = p + 2;
        while let Some(&ti) = file.code.get(q) {
            if file.is_punct(ti, b'(') {
                match file.matching(ti).and_then(|c| file.code_pos(c)) {
                    Some(cp) => {
                        for r in q..=cp {
                            right.push(file.code[r]);
                        }
                        q = cp + 1;
                        continue;
                    }
                    None => break,
                }
            }
            if operand_token(file, ti) {
                right.push(ti);
                q += 1;
            } else {
                break;
            }
        }
        if floaty(file, &left) || floaty(file, &right) {
            let needle = if first == "=" { "==" } else { "!=" };
            let show = |toks: &[usize]| -> String {
                let mut sorted = toks.to_vec();
                sorted.sort_unstable();
                sorted.iter().map(|&ti| file.text(ti)).collect()
            };
            out.push(Candidate {
                offset: at,
                end: file.tokens[b].end,
                rule: Rule::FloatEq,
                message: format!(
                    "`{needle}` between f64 expressions (`{}` vs `{}`); \
                     compare against a tolerance or annotate with \
                     `// pup-lint: allow(float-eq)`",
                    show(&left),
                    show(&right)
                ),
            });
        }
    }
}

/// `crash-unsafe-io`: `fs::write(` / `File::create(` inside a function
/// whose body never calls `rename`. A write that lands in place can be
/// torn by a crash mid-write; the convention is to write a temporary
/// sibling and `fs::rename` it over the target (see `pup_ckpt::store`).
fn crash_unsafe_io(file: &SourceFile<'_>, test_spans: &[(usize, usize)], out: &mut Vec<Candidate>) {
    let fn_spans = file.fn_body_spans();
    let rename_offsets: Vec<usize> = file
        .find_seq(&["rename", "("])
        .into_iter()
        .map(|p| file.tokens[file.code[p]].start)
        .collect();
    for (path, shown) in [
        (&["fs", ":", ":", "write", "("][..], "fs::write("),
        (&["File", ":", ":", "create", "("][..], "File::create("),
    ] {
        for p in file.find_seq(path) {
            let at = file.tokens[file.code[p]].start;
            if in_any(test_spans, at) {
                continue;
            }
            // The innermost enclosing fn body decides: a `rename(` anywhere
            // in it means this write is half of an atomic replace.
            let enclosing =
                fn_spans.iter().filter(|&&(s, e)| at >= s && at < e).min_by_key(|&&(s, e)| e - s);
            if let Some(&(s, e)) = enclosing {
                if rename_offsets.iter().any(|&r| r >= s && r < e) {
                    continue;
                }
            }
            out.push(Candidate {
                offset: at,
                end: file.tokens[file.code[p + path.len() - 1]].end,
                rule: Rule::CrashUnsafeIo,
                message: format!(
                    "`{shown}..)` with no `rename` in the enclosing function: a crash \
                     mid-write tears the file; write a temp sibling and `fs::rename` it \
                     into place, or annotate with `// pup-lint: allow(crash-unsafe-io)`"
                ),
            });
        }
    }
}

/// `untraced-hot-root`: a `// pup-hot: <label>` root fn whose body never
/// opens a telemetry span. The annotation promises the fn is a certified
/// hot path; the span is what makes that path visible in request traces
/// and flame reports — a dark hot root is the first place a latency
/// investigation dead-ends. Counts both `pup_obs::span(..)` thread-local
/// spans and `.span(..)` calls on a carried trace context.
fn untraced_hot_root(
    file: &SourceFile<'_>,
    test_spans: &[(usize, usize)],
    out: &mut Vec<Candidate>,
) {
    // Byte offsets of every `::span(` / `.span(` call in the file.
    let span_opens: Vec<usize> = file
        .find_seq(&["span", "("])
        .into_iter()
        .filter(|&p| {
            p > 0 && {
                let prev = file.code[p - 1];
                file.is_punct(prev, b'.')
                    || (file.is_punct(prev, b':') && p > 1 && file.is_punct(file.code[p - 2], b':'))
            }
        })
        .map(|p| file.tokens[file.code[p]].start)
        .collect();
    for d in file.fn_defs() {
        let Some(label) = crate::callgraph::hot_annotation(file, d.kw) else { continue };
        let at = file.tokens[d.kw].start;
        if in_any(test_spans, at) {
            continue;
        }
        let Some((open, close)) = d.body else { continue };
        let (b0, b1) = (file.tokens[open].start, file.tokens[close].end);
        if span_opens.iter().any(|&s| s > b0 && s < b1) {
            continue;
        }
        out.push(Candidate {
            offset: at,
            end: file.tokens[d.kw].end,
            rule: Rule::UntracedHotRoot,
            message: format!(
                "`// pup-hot: {label}` root opens no telemetry span; open \
                 `pup_obs::span(..)` or a trace-context `.span(..)` in its body, \
                 or annotate with `// pup-lint: allow(untraced-hot-root)`"
            ),
        });
    }
}

/// `blocking-io-without-timeout`: a function that touches a socket type
/// (`TcpStream` / `UnixStream`) and performs blocking reads or writes,
/// yet never mentions a timeout or deadline anywhere in its span. Such a
/// function parks its thread indefinitely behind one dead peer — the
/// exact hang class the serving gateway's typed-failure contract forbids.
/// Arming the socket elsewhere is expressible by threading a
/// `*_timeout`-named value through, or by the allow escape.
fn blocking_io_without_timeout(
    file: &SourceFile<'_>,
    test_spans: &[(usize, usize)],
    out: &mut Vec<Candidate>,
) {
    const SOCKET_TYPES: &[&str] = &["TcpStream", "UnixStream", "UdpSocket"];
    const SINKS: &[&str] =
        &["read", "read_exact", "read_to_end", "read_to_string", "write", "write_all"];
    // Byte offsets of every `.sink(` method call in the file.
    let mut sink_calls: Vec<(usize, &str)> = Vec::new();
    for sink in SINKS {
        for p in file.find_seq(&[".", sink, "("]) {
            sink_calls.push((file.tokens[file.code[p]].start, *sink));
        }
    }
    for d in file.fn_defs() {
        let at = file.tokens[d.kw].start;
        if in_any(test_spans, at) {
            continue;
        }
        let Some((_, body_close)) = d.body else { continue };
        // The fn's whole span, params included: a deadline passed as an
        // argument counts as the caller owning the budget.
        let (f0, f1) = (file.tokens[d.kw].start, file.tokens[body_close].end);
        let mut touches_socket = false;
        let mut guarded = false;
        for &ti in &file.code {
            let t = &file.tokens[ti];
            if t.start < f0 || t.end > f1 || t.kind != TokenKind::Ident {
                continue;
            }
            let text = file.text(ti);
            if SOCKET_TYPES.contains(&text) {
                touches_socket = true;
            }
            let lower = text.to_ascii_lowercase();
            if lower.contains("timeout") || lower.contains("deadline") {
                guarded = true;
            }
        }
        if !touches_socket || guarded {
            continue;
        }
        let Some(&(call_at, sink)) = sink_calls.iter().find(|(s, _)| *s > f0 && *s < f1) else {
            continue;
        };
        let name = d.name.map(|n| file.text(n)).unwrap_or("<fn>");
        out.push(Candidate {
            offset: call_at,
            end: call_at + sink.len() + 1,
            rule: Rule::BlockingIoNoTimeout,
            message: format!(
                "`{name}` calls `.{sink}(` on a socket but never arms a \
                 timeout: one dead peer parks this thread forever; call \
                 `set_read_timeout`/`set_write_timeout` (or charge a deadline) \
                 in this function, or annotate with \
                 `// pup-lint: allow(blocking-io-without-timeout)`"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(name: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(Path::new(name), src)
    }

    fn lint_strict(name: &str, src: &str) -> Vec<Diagnostic> {
        lint_source_with(Path::new(name), src, true)
    }

    #[test]
    fn narrowing_int_cast_is_flagged() {
        let src = "pub fn f(x: u64) -> u32 {\n    x as u32\n}\n";
        let d = lint_str("lib.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::AsCastTruncation);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn f32_cast_is_flagged_but_f64_is_not() {
        let d = lint_str("lib.rs", "pub fn f(x: f64) -> f32 {\n    x as f32\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::AsCastTruncation);
        assert!(lint_str("lib.rs", "pub fn f(x: u32) -> f64 {\n    x as f64\n}\n").is_empty());
    }

    #[test]
    fn float_to_usize_cast_is_flagged_but_int_to_usize_is_not() {
        let src = "pub fn f(x: f64) -> usize {\n    (x * 0.5) as usize\n}\n";
        let d = lint_str("lib.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::AsCastTruncation);
        assert!(lint_str("lib.rs", "pub fn f(x: u32) -> usize {\n    x as usize\n}\n").is_empty());
    }

    #[test]
    fn as_cast_in_tests_and_with_escape_is_quiet() {
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(x: u64) -> u32 {\n        x as u32\n    }\n}\n";
        assert!(lint_str("lib.rs", test_src).is_empty());
        let escaped =
            "pub fn f(x: u64) -> u32 {\n    // pup-lint: allow(as-cast-truncation)\n    x as u32\n}\n";
        assert!(lint_str("lib.rs", escaped).is_empty());
    }

    #[test]
    fn use_as_alias_is_not_a_cast() {
        assert!(lint_str("lib.rs", "use std::io::Result as IoResult;\npub fn f() {}\n").is_empty());
    }

    #[test]
    fn allow_comment_suppresses_on_same_or_previous_line() {
        let same = "fn f(p: f64) -> bool { p == 0.0 } // pup-lint: allow(float-eq)\n";
        assert!(lint_str("lib.rs", same).is_empty());
        let above = "// pup-lint: allow(float-eq)\nfn f(p: f64) -> bool { p == 0.0 }\n";
        assert!(lint_str("lib.rs", above).is_empty());
        let wrong_rule = "// pup-lint: allow(clone-in-loop)\nfn f(p: f64) -> bool { p == 0.0 }\n";
        assert_eq!(lint_str("lib.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn allow_inside_string_literal_is_not_an_escape() {
        let src = "fn f(p: f64) -> bool {\n    let _m = \"pup-lint: allow(float-eq)\";\n    p == 0.0\n}\n";
        let d = lint_str("lib.rs", src);
        assert_eq!(d.len(), 1, "a string mentioning the escape must not suppress: {d:?}");
        assert_eq!(d[0].rule, Rule::FloatEq);
    }

    #[test]
    fn allow_inside_doc_comment_is_not_an_escape() {
        let src = "/// Use `// pup-lint: allow(float-eq)` to opt out.\nfn f(p: f64) -> bool { p == 0.0 }\n";
        let d = lint_str("lib.rs", src);
        assert_eq!(d.len(), 1, "doc prose must not suppress: {d:?}");
    }

    #[test]
    fn needles_inside_strings_and_comments_ignored() {
        let src = "fn f() -> &'static str {\n    // p == 0.0 in a comment\n    \"p == 0.0 in a string\"\n}\n";
        assert!(lint_str("lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_all_test_is_excluded() {
        // The old regex engine searched for the literal `#[cfg(test)]` and
        // flagged sites inside `#[cfg(all(test, …))]` modules — a
        // documented false-positive class this engine fixes.
        let src = "#[cfg(all(test, feature = \"slow\"))]\nmod tests {\n    fn f(p: f64) -> bool {\n        p == 0.0\n    }\n}\n";
        assert!(lint_str("lib.rs", src).is_empty(), "cfg(all(test, ..)) is test code");
        let multiline =
            "#[cfg(\n    test\n)]\nmod tests {\n    fn f(p: f64) -> bool { p == 0.0 }\n}\n";
        assert!(lint_str("lib.rs", multiline).is_empty(), "multi-line cfg attr is test code");
    }

    #[test]
    fn panic_in_backward_scoped_to_tape_files() {
        let src =
            "fn op() {\n    let b = Box::new(|g: &u32| {\n        panic!(\"bad\");\n    });\n}\n";
        let d = lint_str("ops.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::PanicInBackward);
        assert_eq!(d[0].line, 3);
        // Same text in a non-tape file: not this rule's business.
        assert!(lint_str("metrics.rs", src).is_empty());
        // panic! outside the closure is not this rule's business either.
        let outside = "fn op() {\n    panic!(\"bad\");\n}\n";
        assert!(lint_str("ops.rs", outside).is_empty());
    }

    #[test]
    fn clone_in_loop_flagged() {
        let src = "fn f(v: &[Vec<u32>]) {\n    for x in v {\n        let y = x.clone();\n        drop(y);\n    }\n}\n";
        let d = lint_str("lib.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::CloneInLoop);
        assert_eq!(d[0].line, 3);
        let outside =
            "fn f(v: &Vec<u32>) {\n    let y = v.clone();\n    for x in &y { drop(x); }\n}\n";
        assert!(lint_str("lib.rs", outside).is_empty());
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "impl Clone for Foo {\n    fn clone(&self) -> Self { self.inner.clone() }\n}\n";
        assert!(lint_str("lib.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_and_char_literals_masked() {
        let src = "fn f() {\n    let s = r#\"p == 0.0\"#;\n    let c = '\\'';\n    let lt: &'static str = \"\";\n    drop((s, c, lt));\n}\n";
        assert!(lint_str("lib.rs", src).is_empty());
    }

    // --- unguarded-ln ---------------------------------------------------

    #[test]
    fn unguarded_ln_flagged_in_model_code() {
        let src = "fn loss(p: f64) -> f64 {\n    p.ln()\n}\n";
        let d = lint_str("crates/models/src/pup.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::UnguardedLn);
        assert_eq!(d[0].line, 2);
        // Out of scope: not model/loss code.
        assert!(lint_str("crates/eval/src/metrics.rs", src).is_empty());
        // A guard in the same statement quiets it.
        let guarded = "fn loss(p: f64) -> f64 {\n    p.max(EPS).ln()\n}\n";
        assert!(lint_str("crates/models/src/pup.rs", guarded).is_empty());
        // So does an explicit escape.
        let escaped =
            "fn loss(p: f64) -> f64 {\n    // pup-lint: allow(unguarded-ln)\n    p.ln()\n}\n";
        assert!(lint_str("crates/models/src/pup.rs", escaped).is_empty());
    }

    #[test]
    fn unguarded_ln_ignores_identifiers_that_merely_contain_guard_words() {
        // `unclamped` contains "clamp"; the old substring engine treated it
        // as a guard and missed the unguarded log — a documented miss class.
        let src = "fn loss(x: f64) -> f64 {\n    let unclamped = x.ln();\n    unclamped\n}\n";
        let d = lint_str("crates/models/src/pup.rs", src);
        assert_eq!(d.len(), 1, "`unclamped` is not a guard: {d:?}");
        assert_eq!(d[0].rule, Rule::UnguardedLn);
    }

    #[test]
    fn unguarded_ln_sees_guards_on_other_lines_of_the_statement() {
        // The old engine only looked at the offending line; a wrapped
        // statement with the floor on its own line was a false positive.
        let src = "fn loss(p: f64) -> f64 {\n    p\n        .max(1e-12)\n        .ln()\n}\n";
        assert!(lint_str("crates/models/src/pup.rs", src).is_empty());
    }

    #[test]
    fn unguarded_division_by_tape_value_flagged() {
        let src = "fn norm(x: &Var, t: &Var) -> f64 {\n    x.scalar() / t.scalar()\n}\n";
        let d = lint_str("crates/models/src/trainer.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::UnguardedLn);
        let guarded =
            "fn norm(x: &Var, t: &Var) -> f64 {\n    x.scalar() / t.scalar().max(1e-12)\n}\n";
        assert!(lint_str("crates/models/src/trainer.rs", guarded).is_empty());
        // Division by a plain count is fine.
        let count = "fn mean(sum: f64, n: usize) -> f64 {\n    sum / n as f64\n}\n";
        assert!(lint_str("crates/models/src/trainer.rs", count).is_empty());
    }

    // --- float-eq -------------------------------------------------------

    #[test]
    fn float_eq_flagged_outside_tests() {
        let src = "fn f(p: f64) -> bool {\n    p == 0.0\n}\n";
        let d = lint_str("lib.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::FloatEq);
        assert_eq!(d[0].line, 2);
        let ne = "fn f(p: f64) -> bool {\n    p != 1.5\n}\n";
        assert_eq!(lint_str("lib.rs", ne).len(), 1);
        // Integer comparisons are fine.
        let int = "fn f(r: usize) -> bool {\n    r % 2 == 0\n}\n";
        assert!(lint_str("lib.rs", int).is_empty());
        // Tests may compare exactly.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(p: f64) -> bool {\n        p == 0.0\n    }\n}\n";
        assert!(lint_str("lib.rs", test_src).is_empty());
        // Escapes work.
        let escaped = "fn f(p: f64) -> bool {\n    p == 0.0 // pup-lint: allow(float-eq)\n}\n";
        assert!(lint_str("lib.rs", escaped).is_empty());
    }

    #[test]
    fn float_eq_ignores_composite_operators() {
        let src = "fn f(p: f64) -> bool {\n    p <= 0.0 || p >= 1.0\n}\n";
        assert!(lint_str("lib.rs", src).is_empty());
    }

    #[test]
    fn float_eq_sees_operands_across_lines() {
        // The old engine read operands from the operator's line only, so a
        // wrapped comparison with the float on the next line was a miss.
        let src = "fn f(p: f64) -> bool {\n    p ==\n        0.0\n}\n";
        let d = lint_str("lib.rs", src);
        assert_eq!(d.len(), 1, "wrapped comparison must still be seen: {d:?}");
        assert_eq!(d[0].rule, Rule::FloatEq);
    }

    // --- crash-unsafe-io ------------------------------------------------

    #[test]
    fn in_place_write_without_rename_is_flagged() {
        let src = "fn save(p: &Path, s: &str) -> io::Result<()> {\n    fs::write(p, s)\n}\n";
        let d = lint_str("io.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::CrashUnsafeIo);
        assert_eq!(d[0].line, 2);

        let create = "fn save(p: &Path) -> io::Result<File> {\n    File::create(p)\n}\n";
        let d = lint_str("io.rs", create);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::CrashUnsafeIo);
    }

    #[test]
    fn write_temp_then_rename_is_clean() {
        let src = "fn save(p: &Path, s: &str) -> io::Result<()> {\n    let tmp = p.with_extension(\"tmp\");\n    fs::write(&tmp, s)?;\n    fs::rename(&tmp, p)\n}\n";
        assert!(lint_str("io.rs", src).is_empty());
        let create = "fn save(p: &Path, s: &[u8]) -> io::Result<()> {\n    let tmp = p.with_extension(\"tmp\");\n    let mut f = File::create(&tmp)?;\n    f.write_all(s)?;\n    f.sync_all()?;\n    fs::rename(&tmp, p)\n}\n";
        assert!(lint_str("io.rs", create).is_empty());
    }

    #[test]
    fn crash_unsafe_io_respects_tests_and_escapes() {
        let test_src = "#[cfg(test)]\nmod tests {\n    fn scratch(p: &Path) {\n        fs::write(p, \"x\").unwrap();\n    }\n}\n";
        assert!(lint_str("io.rs", test_src).is_empty());
        let escaped = "fn corrupt(p: &Path) -> io::Result<()> {\n    // pup-lint: allow(crash-unsafe-io)\n    fs::write(p, \"x\")\n}\n";
        assert!(lint_str("io.rs", escaped).is_empty());
    }

    #[test]
    fn rename_in_a_different_fn_does_not_launder_a_write() {
        let src = "fn save(p: &Path, s: &str) -> io::Result<()> {\n    fs::write(p, s)\n}\n\nfn other(a: &Path, b: &Path) -> io::Result<()> {\n    fs::rename(a, b)\n}\n";
        let d = lint_str("io.rs", src);
        assert_eq!(d.len(), 1, "the rename lives in an unrelated fn: {d:?}");
        assert_eq!(d[0].rule, Rule::CrashUnsafeIo);
    }

    // --- untraced-hot-root ----------------------------------------------

    #[test]
    fn untraced_hot_root_flags_spanless_roots() {
        let src = "// pup-hot: serve-request\npub fn process(x: u32) -> u32 {\n    x + 1\n}\n";
        let d = lint_str("crates/serve/src/engine.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::UntracedHotRoot);
        assert_eq!(d[0].line, 2, "anchored at the fn keyword");
        assert!(d[0].message.contains("serve-request"));
    }

    #[test]
    fn untraced_hot_root_accepts_obs_and_context_spans() {
        let obs = "// pup-hot: train-epoch\npub fn run_epoch(x: u32) -> u32 {\n    \
                   let _span = pup_obs::span(\"epoch\");\n    x + 1\n}\n";
        assert!(lint_str("crates/models/src/trainer.rs", obs).is_empty());
        let ctx = "// pup-hot: swap-request\npub fn handle(ctx: &TraceContext) -> u32 {\n    \
                   let _shadow = ctx.span(\"shadow\");\n    1\n}\n";
        assert!(lint_str("crates/serve/src/swap.rs", ctx).is_empty());
    }

    #[test]
    fn untraced_hot_root_ignores_span_mentions_that_are_not_calls() {
        // A bare `span(` call (local fn), a span in a *different* fn, and
        // prose in strings/comments are not this fn's telemetry span.
        let src = "// pup-hot: eval-rank\npub fn rank(x: u32) -> u32 {\n    \
                   // pup_obs::span(\"prose\")\n    span(x)\n}\n\n\
                   fn other() {\n    let _s = pup_obs::span(\"elsewhere\");\n}\n";
        let d = lint_str("crates/eval/src/ranking.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::UntracedHotRoot);
    }

    #[test]
    fn untraced_hot_root_escape_and_tests_are_exempt() {
        let escaped = "// pup-hot: eval-rank\n// pup-lint: allow(untraced-hot-root)\n\
                       pub fn rank(x: u32) -> u32 {\n    x\n}\n";
        assert!(lint_str("crates/eval/src/ranking.rs", escaped).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    // pup-hot: fake\n    \
                        fn hot(x: u32) -> u32 {\n        x\n    }\n}\n";
        assert!(lint_str("crates/eval/src/ranking.rs", test_src).is_empty());
    }

    // --- blocking-io-without-timeout -------------------------------------

    #[test]
    fn blocking_io_flagged_without_any_timeout_in_scope() {
        let src = "use std::io::Read;\nuse std::net::TcpStream;\n\n\
                   fn fetch(mut s: TcpStream) -> Vec<u8> {\n    \
                   let mut buf = Vec::new();\n    \
                   let _ = s.read_to_end(&mut buf);\n    buf\n}\n";
        let d = lint_str("crates/serve/src/netio.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::BlockingIoNoTimeout);
        assert_eq!(d[0].line, 6, "anchored at the blocking call");
        assert!(d[0].message.contains("fetch") && d[0].message.contains("read_to_end"));
    }

    #[test]
    fn blocking_io_quiet_when_a_timeout_or_deadline_is_armed() {
        let armed = "fn fetch(mut s: std::net::TcpStream) -> Vec<u8> {\n    \
                     s.set_read_timeout(Some(std::time::Duration::from_secs(1))).ok();\n    \
                     let mut buf = Vec::new();\n    let _ = s.read_to_end(&mut buf);\n    buf\n}\n";
        assert!(lint_str("crates/serve/src/netio.rs", armed).is_empty());
        // A deadline parameter counts: the caller owns the budget.
        let budgeted = "fn pump(s: &mut TcpStream, deadline_ns: u64) {\n    \
                        let mut b = [0u8; 8];\n    let _ = s.read(&mut b);\n}\n";
        assert!(lint_str("crates/serve/src/netio.rs", budgeted).is_empty());
    }

    #[test]
    fn blocking_io_ignores_functions_without_socket_types() {
        // Plain `Read`/`Write` plumbing (files, in-memory buffers) is not
        // this rule's business.
        let src = "fn copy(mut r: impl std::io::Read) -> Vec<u8> {\n    \
                   let mut buf = Vec::new();\n    let _ = r.read_to_end(&mut buf);\n    buf\n}\n";
        assert!(lint_str("crates/serve/src/netio.rs", src).is_empty());
    }

    #[test]
    fn blocking_io_exempts_bins_tests_and_escapes() {
        let src = "fn fetch(mut s: std::net::TcpStream) {\n    \
                   let mut b = [0u8; 8];\n    let _ = s.read(&mut b);\n}\n";
        assert!(lint_str("crates/core/src/bin/pup.rs", src).is_empty(), "bins exempt");
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(mut s: std::net::TcpStream) {\n        \
                        let mut b = [0u8; 8];\n        let _ = s.read(&mut b);\n    }\n}\n";
        assert!(lint_str("crates/serve/src/netio.rs", test_src).is_empty(), "tests exempt");
        let escaped = "fn fetch(mut s: std::net::TcpStream) {\n    let mut b = [0u8; 8];\n    \
                       // pup-lint: allow(blocking-io-without-timeout)\n    \
                       let _ = s.read(&mut b);\n}\n";
        assert!(lint_str("crates/serve/src/netio.rs", escaped).is_empty(), "escape honored");
    }

    // --- raw-print-in-lib -----------------------------------------------

    #[test]
    fn raw_print_flagged_in_lib_code() {
        let src = "fn f(x: u32) {\n    println!(\"{x}\");\n    eprintln!(\"{x}\");\n}\n";
        let d = lint_str("crates/models/src/trainer.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == Rule::RawPrintInLib));
        assert_eq!((d[0].line, d[1].line), (2, 3));
        // One candidate per call: `eprintln!` must not also match as
        // `println!`.
        assert!(d[1].message.contains("eprintln!"));
    }

    #[test]
    fn raw_print_exempt_in_bins_and_tests() {
        let src = "fn f(x: u32) {\n    println!(\"{x}\");\n}\n";
        assert!(lint_str("crates/core/src/bin/pup.rs", src).is_empty());
        assert!(lint_str("crates/analysis/src/main.rs", src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(x: u32) {\n        println!(\"{x}\");\n    }\n}\n";
        assert!(lint_str("crates/models/src/trainer.rs", test_src).is_empty());
    }

    #[test]
    fn raw_print_escape_and_masking_work() {
        let escaped =
            "fn f(x: u32) {\n    // pup-lint: allow(raw-print-in-lib)\n    println!(\"{x}\");\n}\n";
        assert!(lint_str("crates/models/src/trainer.rs", escaped).is_empty());
        // Needles inside strings/comments never fire.
        let masked =
            "fn f() -> &'static str {\n    // println! here is prose\n    \"eprintln!\"\n}\n";
        assert!(lint_str("crates/models/src/trainer.rs", masked).is_empty());
    }

    // --- stale-allow ----------------------------------------------------

    #[test]
    fn stale_allow_reported_only_in_strict_mode() {
        let src = "// pup-lint: allow(float-eq)\nfn f() -> u32 {\n    42\n}\n";
        assert!(lint_str("lib.rs", src).is_empty(), "non-strict ignores stale escapes");
        let d = lint_strict("lib.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::StaleAllow);
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("float-eq"));
    }

    #[test]
    fn live_allow_is_not_stale() {
        let src = "// pup-lint: allow(float-eq)\nfn f(p: f64) -> bool { p == 0.0 }\n";
        assert!(lint_strict("lib.rs", src).is_empty());
    }

    #[test]
    fn unknown_rule_in_allow_reported_in_strict_mode() {
        // Rules retired in favour of clippy/rustc lints are unknown now, so
        // a leftover escape naming one fails `--strict`.
        for name in ["no-such-rule", "unwrap-in-lib", "mutex-unwrap", "undocumented-pub-op"] {
            let src = format!(
                "// pup-lint: allow({name})\nfn f(x: Option<u32>) -> u32 {{ x.unwrap() }}\n"
            );
            let d = lint_strict("lib.rs", &src);
            assert_eq!(d.len(), 1, "{name}: {d:?}");
            assert_eq!(d[0].rule, Rule::StaleAllow);
            assert!(d[0].message.contains(&format!("unknown rule `{name}`")), "{}", d[0].message);
        }
    }

    #[test]
    fn one_stale_name_in_multi_name_allow_is_reported() {
        let src =
            "// pup-lint: allow(float-eq, clone-in-loop)\nfn f(p: f64) -> bool { p == 0.0 }\n";
        let d = lint_strict("lib.rs", src);
        assert_eq!(d.len(), 1, "only the clone-in-loop half is stale: {d:?}");
        assert!(d[0].message.contains("clone-in-loop"));
    }
}
