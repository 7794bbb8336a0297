//! # pup-analysis
//!
//! Correctness tooling for the PUP reproduction, complementing the runtime
//! tape auditor in `pup_tensor::checks`:
//!
//! - [`lint`] — a workspace-aware static lint driver enforcing the repo's
//!   reliability conventions that rustc and clippy cannot check (no
//!   `panic!` inside backward closures, no unguarded logs in loss code, no
//!   torn in-place writes, no matrix clones inside hot loops). Run it with
//!   `cargo run -p pup-analysis -- lint`; it exits non-zero when any
//!   violation is found.
//! - [`escape`] — the escape ledger the lint and both audits share: a site
//!   opts out with `// pup-lint: allow(<rule>)` or
//!   `// pup-audit: allow(<kind>): <reason>` on or directly above its line;
//!   the ledger parses them, records which suppressed a finding, reports
//!   unknown, reasonless and stale ones, and deletes the stale ones.
//! - [`gradcheck`] — a reusable central-finite-difference gradient checker
//!   for any scalar-valued function of [`pup_tensor::Var`] inputs. The
//!   integration tests sweep it over every public op in `pup_tensor::ops`
//!   and the BPR losses of all six models.
//! - [`graph`] — static passes over the tape IR exported by
//!   `pup_tensor::tape`: dead-parameter / dead-subgraph detection, shape
//!   re-derivation, op-coverage cross-checks against the gradcheck sweep
//!   registry, and a same-seed determinism audit. Run all of them against
//!   every model with `cargo run -p pup-analysis -- audit-graph`.
//! - [`lex`] / [`syntax`] — the lossless Rust lexer and item/block span
//!   parser the lint and audit passes are built on. Tokens tile the source
//!   byte-for-byte; scopes (test items, fn bodies, loop bodies,
//!   statements) are computed by bracket matching on code tokens, so
//!   needles in strings, comments or wrapped lines can never confuse a
//!   rule.
//! - [`concurrency`] — the Send/Sync shareability audit: no non-Send
//!   state in the crates shared across worker threads (`serve`, `obs`,
//!   `ckpt`), a Mutex/RwLock acquisition-order pass over the [`callgraph`]
//!   call graph, and an atomic-ordering lint. Run it with
//!   `cargo run -p pup-analysis -- audit-concurrency`.
//! - [`callgraph`] / [`hotpath`] — the workspace-wide interprocedural call
//!   graph (free fns, methods with conservative trait fan-out, closures
//!   attributed to their enclosing fn) and the hot-path certifier built on
//!   it: a panic-reachability fixpoint that proves every `// pup-hot:`
//!   root panic-free modulo reasoned `hotpath-panic` escapes, plus a ratcheted per-root lock budget (the `locks` fields of
//!   `results/hotpath_ratchet.json`; the `allocs` fields are measured by a
//!   counting allocator in `crates/core/tests/hot_allocs.rs`). Run it with
//!   `cargo run -p pup-analysis -- audit-hotpath`.
//! - [`fix`] — `lint --fix`: deletes the stale escapes of the lint and
//!   both audits in place, idempotently.

pub mod callgraph;
pub mod concurrency;
pub mod escape;
pub mod fix;
pub mod gradcheck;
pub mod graph;
pub mod hotpath;
pub mod lex;
pub mod lint;
pub mod syntax;
