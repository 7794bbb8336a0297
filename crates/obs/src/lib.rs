//! pup-obs: dependency-free structured telemetry for the PUP workspace.
//!
//! Three primitives, all opt-in per thread (the same thread-local pattern
//! as `pup_tensor::tape` recording):
//!
//! - **Spans** — hierarchical timed regions with RAII guards
//!   ([`span`]). Parentage comes from a thread-local stack; dropping a
//!   guard out of order closes any still-open descendants at the same
//!   instant, so unbalanced drops cannot corrupt the tree.
//! - **Metrics** — monotonic counters ([`counter_add`]), last/min/max
//!   gauges ([`gauge_set`]), fixed-bucket histograms with p50/p95/p99
//!   summaries ([`observe`], [`time`]), and append-only series for
//!   per-epoch curves ([`record`]).
//! - **Sinks** — the in-memory [`Telemetry`] registry returned by
//!   [`finish`] (used directly in tests), an atomic line-framed JSONL
//!   writer ([`Telemetry::write_jsonl`]), and a human-readable tree
//!   report ([`report::render`]).
//!
//! Three cross-thread companions complement the thread-local core:
//! request-scoped tracing with carried contexts ([`trace`]), live
//! multi-window SLO monitors ([`slo`]), and a lock-free flight-recorder
//! ring ([`recorder`]). Their outputs merge into the same [`Telemetry`]
//! via [`record_trace_span`] / [`record_slo_event`] / [`record_exemplar`].
//!
//! # Zero-cost-when-off contract
//!
//! Collection is **off** by default. Every public recording function
//! first reads a thread-local `Cell<bool>`; when collection is inactive
//! it returns immediately — no allocation, no `Instant::now()` clock
//! read, no formatting. Guards created while off hold `None` and their
//! `Drop` is a no-op. `crates/bench/benches/telemetry.rs` measures this
//! fast path.
//!
//! # Lifecycle
//!
//! ```
//! pup_obs::start();
//! {
//!     let _outer = pup_obs::span("fit");
//!     let _t = pup_obs::time("fwd", "spmm"); // histogram "fwd.spmm", ns
//!     pup_obs::counter_add("sampler.draws", 1);
//!     pup_obs::record("train.epoch_loss", 0.69);
//! }
//! let telemetry = pup_obs::finish();
//! assert_eq!(telemetry.counter("sampler.draws"), Some(1));
//! ```
//!
//! Like tape recording, nested [`start`] calls panic: collection is a
//! singleton per thread. Guards that outlive the collection they were
//! opened in (or leak into a later one) are ignored via a generation
//! check rather than corrupting the new collection.

pub mod bench;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod slo;
mod telemetry;
pub mod trace;

pub use telemetry::{
    CounterRecord, ExemplarRecord, GaugeRecord, HistRecord, ObsError, SeriesRecord, SpanRecord,
    Telemetry, SCHEMA_VERSION,
};

// pup-audit: allow(non-send): telemetry collectors are per-thread by design; nothing crosses threads
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

use metrics::{GaugeStat, Histogram};

// pup-audit: allow(non-send): per-thread collector storage keeps the disabled path contention-free
thread_local! {
    /// Fast-path flag: `true` iff a collector is installed on this thread.
    // pup-audit: allow(non-send): only touched through LocalKey::with on the owning thread
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Bumped on every `start()` so stale guards can detect that their
    /// collection is gone.
    // pup-audit: allow(non-send): only touched through LocalKey::with on the owning thread
    static GENERATION: Cell<u64> = const { Cell::new(0) };
    // pup-audit: allow(non-send): only touched through LocalKey::with on the owning thread
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

struct OpenSpan {
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    dur_ns: Option<u64>,
}

struct Collector {
    epoch: Instant,
    spans: Vec<OpenSpan>,
    stack: Vec<u32>,
    counters: Vec<(&'static str, u64)>,
    counter_idx: HashMap<&'static str, usize>,
    gauges: Vec<(&'static str, GaugeStat)>,
    gauge_idx: HashMap<&'static str, usize>,
    hists: Vec<((&'static str, &'static str), Histogram)>,
    hist_idx: HashMap<(&'static str, &'static str), usize>,
    series: Vec<(&'static str, f64)>,
    traces: Vec<trace::TraceSpanRecord>,
    slos: Vec<slo::SloEvent>,
    exemplars: Vec<ExemplarRecord>,
}

impl Collector {
    fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
            counter_idx: HashMap::new(),
            gauges: Vec::new(),
            gauge_idx: HashMap::new(),
            hists: Vec::new(),
            hist_idx: HashMap::new(),
            series: Vec::new(),
            traces: Vec::new(),
            slos: Vec::new(),
            exemplars: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str) -> u32 {
        // pup-lint: allow(as-cast-truncation) — span ids are per-run sequence numbers
        let id = self.spans.len() as u32;
        let span = OpenSpan {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: None,
        };
        self.spans.push(span);
        self.stack.push(id);
        id
    }

    /// Close `id` and any still-open descendants above it on the stack.
    /// A span that is no longer on the stack (already closed by an
    /// unbalanced ancestor drop) is ignored.
    fn close_span(&mut self, id: u32) {
        if !self.stack.contains(&id) {
            return;
        }
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            let span = &mut self.spans[top as usize];
            if span.dur_ns.is_none() {
                span.dur_ns = Some(end.saturating_sub(span.start_ns));
            }
            if top == id {
                break;
            }
        }
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        match self.counter_idx.get(name) {
            // pup-audit: allow(hotpath-panic): slot index comes from the name map, which is kept in sync with the vec
            Some(&i) => self.counters[i].1 += delta,
            None => {
                self.counter_idx.insert(name, self.counters.len());
                self.counters.push((name, delta));
            }
        }
    }

    fn gauge_set(&mut self, name: &'static str, value: f64) {
        match self.gauge_idx.get(name) {
            // pup-audit: allow(hotpath-panic): slot index comes from the name map, which is kept in sync with the vec
            Some(&i) => self.gauges[i].1.set(value),
            None => {
                self.gauge_idx.insert(name, self.gauges.len());
                self.gauges.push((name, GaugeStat::first(value)));
            }
        }
    }

    fn observe(&mut self, kind: &'static str, name: &'static str, value: f64) {
        let key = (kind, name);
        match self.hist_idx.get(&key) {
            // pup-audit: allow(hotpath-panic): slot index comes from the name map, which is kept in sync with the vec
            Some(&i) => self.hists[i].1.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                self.hist_idx.insert(key, self.hists.len());
                self.hists.push((key, h));
            }
        }
    }

    fn into_telemetry(mut self) -> Telemetry {
        // Close anything still open at the finish instant.
        if let Some(&root) = self.stack.first() {
            self.close_span(root);
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| SpanRecord {
                // pup-lint: allow(as-cast-truncation) — span ids are per-run sequence numbers
                id: id as u32,
                parent: s.parent,
                name: s.name.to_string(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns.unwrap_or(0),
            })
            .collect();
        let mut counters: Vec<CounterRecord> = self
            .counters
            .iter()
            .map(|(name, value)| CounterRecord { name: name.to_string(), value: *value })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeRecord> = self
            .gauges
            .iter()
            .map(|(name, stat)| GaugeRecord { name: name.to_string(), stat: stat.clone() })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut hists: Vec<HistRecord> = self
            .hists
            .iter()
            .filter_map(|((kind, name), h)| {
                h.summary().map(|summary| HistRecord { name: format!("{kind}.{name}"), summary })
            })
            .collect();
        hists.sort_by(|a, b| a.name.cmp(&b.name));
        let mut next_idx: HashMap<&'static str, u64> = HashMap::new();
        let series = self
            .series
            .iter()
            .map(|(name, value)| {
                let idx = next_idx.entry(name).or_insert(0);
                let rec = SeriesRecord { name: name.to_string(), idx: *idx, value: *value };
                *idx += 1;
                rec
            })
            .collect();
        Telemetry {
            spans,
            counters,
            gauges,
            hists,
            series,
            traces: self.traces,
            slo_events: self.slos,
            exemplars: self.exemplars,
        }
    }
}

/// Is telemetry collection active on this thread? One `Cell` read — this
/// is the guard instrumented code uses before doing any enabled-only work
/// (e.g. computing a gradient norm just to feed a gauge).
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(Cell::get)
}

/// Begin collecting telemetry on this thread.
///
/// # Panics
/// Panics if collection is already active (mirrors
/// `pup_tensor::tape::start_recording`).
pub fn start() {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        assert!(slot.is_none(), "pup-obs: telemetry collection already active on this thread");
        *slot = Some(Collector::new());
    });
    GENERATION.with(|g| g.set(g.get().wrapping_add(1)));
    ACTIVE.with(|a| a.set(true));
}

/// Stop collecting and return everything captured. Spans still open are
/// closed at this instant.
///
/// # Panics
/// Panics if collection is not active.
#[expect(clippy::expect_used, reason = "API contract, mirrors tape::finish_recording")]
pub fn finish() -> Telemetry {
    ACTIVE.with(|a| a.set(false));
    let collector = COLLECTOR.with(|c| c.borrow_mut().take());
    collector.expect("pup-obs: finish() without start()").into_telemetry()
}

/// Stop collecting and discard everything captured. No-op when inactive.
pub fn abort() {
    ACTIVE.with(|a| a.set(false));
    COLLECTOR.with(|c| c.borrow_mut().take());
}

/// RAII guard for a span opened with [`span`]. Closing is idempotent and
/// generation-checked, so dropping guards out of order, after [`finish`],
/// or across collections is always safe.
#[must_use = "a span guard measures the scope it is alive in"]
pub struct SpanGuard {
    key: Option<(u64, u32)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((generation, id)) = self.key {
            if !enabled() || GENERATION.with(Cell::get) != generation {
                return;
            }
            COLLECTOR.with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.close_span(id);
                }
            });
        }
    }
}

/// Open a scoped span named `name`. Returns an inert guard when collection
/// is off (no clock read, no allocation).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { key: None };
    }
    let id = COLLECTOR.with(|c| c.borrow_mut().as_mut().map(|col| col.open_span(name)));
    SpanGuard { key: id.map(|id| (GENERATION.with(Cell::get), id)) }
}

/// RAII timer created by [`time`]; on drop, records elapsed nanoseconds
/// into the `<kind>.<name>` histogram.
#[must_use = "a timer measures the scope it is alive in"]
pub struct Timer {
    start: Option<(u64, Instant)>,
    kind: &'static str,
    name: &'static str,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((generation, start)) = self.start {
            if !enabled() || GENERATION.with(Cell::get) != generation {
                return;
            }
            let ns = start.elapsed().as_nanos() as u64;
            COLLECTOR.with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.observe(self.kind, self.name, ns as f64);
                }
            });
        }
    }
}

/// Time a scope into the `<kind>.<name>` nanosecond histogram (e.g.
/// `time("fwd", "spmm")`). Inert when collection is off.
#[inline]
pub fn time(kind: &'static str, name: &'static str) -> Timer {
    if !enabled() {
        return Timer { start: None, kind, name };
    }
    Timer { start: Some((GENERATION.with(Cell::get), Instant::now())), kind, name }
}

/// Add `delta` to the named counter. No-op when collection is off.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.counter_add(name, delta);
        }
    });
}

/// Set the named gauge (last/min/max/n tracked). No-op when off.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.gauge_set(name, value);
        }
    });
}

/// Observe a value into the `metric.<name>` histogram. No-op when off.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.observe("metric", name, value);
        }
    });
}

/// Append a point to the named series (per-epoch curves). No-op when off.
#[inline]
pub fn record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.series.push((name, value));
        }
    });
}

/// Append a completed cross-thread trace span (drained from a
/// [`trace::TraceSink`]) to this thread's collection. No-op when off.
pub fn record_trace_span(span: trace::TraceSpanRecord) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.traces.push(span);
        }
    });
}

/// Append an SLO event (from an [`slo::SloEngine`] log) to this thread's
/// collection. No-op when off.
pub fn record_slo_event(event: slo::SloEvent) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.slos.push(event);
        }
    });
}

/// Append a histogram tail exemplar to this thread's collection. No-op
/// when off.
pub fn record_exemplar(exemplar: ExemplarRecord) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.exemplars.push(exemplar);
        }
    });
}
