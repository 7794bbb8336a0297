//! Live SLO evaluation: multi-window burn-rate monitors in the SRE style.
//!
//! An objective ("99.9% of admitted requests answered", "p99 latency under
//! 50ms") defines an *error budget* — the fraction of requests allowed to
//! violate it. The engine watches two request-counted sliding windows (a
//! fast one that reacts quickly and a slow one that filters blips) and
//! computes each window's **burn rate**: observed violation rate divided
//! by budget. Both windows over the warn threshold raises a warning; both
//! over the page threshold pages; dropping back below warn on both
//! recovers. Windows are counted in requests, not wall-clock seconds, for
//! the same reason the circuit breaker counts cooldown in requests: the
//! whole event sequence becomes a pure function of the request/outcome
//! order, which is what lets chaos tests replay it bit-identically.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Severity of one SLO state change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloLevel {
    /// Both windows burn above the warn threshold.
    Warn,
    /// Both windows burn above the page threshold.
    Page,
    /// A previously warned/paged monitor dropped below the warn threshold.
    Recovered,
}

impl SloLevel {
    /// Stable label for reports and JSONL.
    pub fn label(&self) -> &'static str {
        match self {
            SloLevel::Warn => "warn",
            SloLevel::Page => "page",
            SloLevel::Recovered => "recovered",
        }
    }

    /// Parses [`SloLevel::label`] output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "warn" => Some(SloLevel::Warn),
            "page" => Some(SloLevel::Page),
            "recovered" => Some(SloLevel::Recovered),
            _ => None,
        }
    }
}

/// Which objective a monitor tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloMonitor {
    /// Fraction of admitted requests answered (primary or degraded).
    Availability,
    /// Fraction of answered requests within the latency objective.
    Latency,
}

impl SloMonitor {
    /// Stable label for reports and JSONL.
    pub fn label(&self) -> &'static str {
        match self {
            SloMonitor::Availability => "availability",
            SloMonitor::Latency => "latency",
        }
    }

    /// Parses [`SloMonitor::label`] output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "availability" => Some(SloMonitor::Availability),
            "latency" => Some(SloMonitor::Latency),
            _ => None,
        }
    }
}

/// One recorded SLO state transition, tagged with the outcome sequence
/// number at which it fired — the SLO analogue of a breaker `Transition`
/// or a `SwapTransition`. Same-seed chaos runs must produce equal event
/// sequences.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloEvent {
    /// Count of outcomes recorded when the event fired (1-based).
    pub seq: u64,
    /// The monitor that changed state.
    pub monitor: SloMonitor,
    /// New severity.
    pub level: SloLevel,
    /// Fast-window burn rate at the moment of the event.
    pub fast_burn: f64,
    /// Slow-window burn rate at the moment of the event.
    pub slow_burn: f64,
}

/// Objectives and alerting thresholds. Parsed from the `--slo` CLI spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Availability objective: fraction of admitted requests that must be
    /// answered (e.g. `0.999`).
    pub availability: f64,
    /// Latency objective: answered requests should finish within this
    /// many nanoseconds at [`SloSpec::latency_quantile`]. `None` disables
    /// the latency monitor.
    pub latency_ns: Option<u64>,
    /// The quantile the latency objective applies to (e.g. `0.99`).
    pub latency_quantile: f64,
    /// Fast window size in requests.
    pub fast_window: usize,
    /// Slow window size in requests.
    pub slow_window: usize,
    /// Burn rate at which both windows raise a warning.
    pub warn_burn: f64,
    /// Burn rate at which both windows page.
    pub page_burn: f64,
    /// Outcomes that must be observed before any event can fire; damps
    /// the first few requests where one bad outcome dominates the rate.
    pub min_samples: usize,
}

impl Default for SloSpec {
    fn default() -> Self {
        Self {
            availability: 0.999,
            latency_ns: None,
            latency_quantile: 0.99,
            fast_window: 1_000,
            slow_window: 10_000,
            warn_burn: 2.0,
            page_burn: 10.0,
            min_samples: 100,
        }
    }
}

impl SloSpec {
    /// Parses a comma-separated `key=value` spec, e.g.
    /// `avail=0.999,p99-ms=50,fast=1000,slow=10000,warn=2,page=10,min=100`.
    /// Unspecified keys keep their defaults; an empty string is the
    /// default spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("slo spec: expected key=value, got '{part}'"))?;
            let bad = |k: &str| format!("slo spec: invalid value for '{k}': '{value}'");
            match key {
                "avail" => {
                    let v: f64 = value.parse().map_err(|_| bad(key))?;
                    if !(0.0..1.0).contains(&v) {
                        return Err(format!("slo spec: avail must be in [0,1), got {v}"));
                    }
                    out.availability = v;
                }
                "p99-ms" => {
                    let v: f64 = value.parse().map_err(|_| bad(key))?;
                    if v <= 0.0 || v.is_nan() {
                        return Err(format!("slo spec: p99-ms must be positive, got {v}"));
                    }
                    out.latency_ns = Some((v * 1e6) as u64);
                    out.latency_quantile = 0.99;
                }
                "fast" => out.fast_window = value.parse().map_err(|_| bad(key))?,
                "slow" => out.slow_window = value.parse().map_err(|_| bad(key))?,
                "warn" => out.warn_burn = value.parse().map_err(|_| bad(key))?,
                "page" => out.page_burn = value.parse().map_err(|_| bad(key))?,
                "min" => out.min_samples = value.parse().map_err(|_| bad(key))?,
                other => return Err(format!("slo spec: unknown key '{other}'")),
            }
        }
        if out.fast_window == 0 || out.slow_window == 0 {
            return Err("slo spec: windows must be positive".to_string());
        }
        if out.warn_burn > out.page_burn {
            return Err("slo spec: warn burn must not exceed page burn".to_string());
        }
        Ok(out)
    }

    /// Error budget of the availability objective.
    fn availability_budget(&self) -> f64 {
        (1.0 - self.availability).max(f64::MIN_POSITIVE)
    }

    /// Error budget of the latency objective.
    fn latency_budget(&self) -> f64 {
        (1.0 - self.latency_quantile).max(f64::MIN_POSITIVE)
    }
}

/// Fixed-capacity sliding window counting violating outcomes.
#[derive(Debug)]
struct SlidingWindow {
    ring: Vec<bool>,
    head: usize,
    len: usize,
    bad: usize,
}

impl SlidingWindow {
    fn new(capacity: usize) -> Self {
        Self { ring: vec![false; capacity.max(1)], head: 0, len: 0, bad: 0 }
    }

    fn push(&mut self, violation: bool) {
        let capacity = self.ring.len();
        // pup-audit: allow(hotpath-panic): capacity >= 1 from new() and head is reduced modulo it.
        let slot = &mut self.ring[self.head % capacity];
        if self.len == capacity && *slot {
            self.bad -= 1;
        }
        *slot = violation;
        if violation {
            self.bad += 1;
        }
        // pup-audit: allow(hotpath-panic): capacity >= 1 from new().
        self.head = (self.head + 1) % capacity;
        if self.len < capacity {
            self.len += 1;
        }
    }

    fn violation_rate(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.bad as f64 / self.len as f64
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Ok,
    Warn,
    Page,
}

struct MonitorState {
    monitor: SloMonitor,
    budget: f64,
    fast: SlidingWindow,
    slow: SlidingWindow,
    level: Level,
}

impl MonitorState {
    fn new(monitor: SloMonitor, budget: f64, spec: &SloSpec) -> Self {
        Self {
            monitor,
            budget,
            fast: SlidingWindow::new(spec.fast_window),
            slow: SlidingWindow::new(spec.slow_window),
            level: Level::Ok,
        }
    }

    /// Feeds one outcome and returns the event this transition emits, if
    /// any.
    fn record(&mut self, violation: bool, seq: u64, spec: &SloSpec) -> Option<SloEvent> {
        self.fast.push(violation);
        self.slow.push(violation);
        if self.fast.len < spec.min_samples.min(self.fast.ring.len()) {
            return None;
        }
        // pup-audit: allow(hotpath-panic): f64 division saturates, it never panics.
        let fast_burn = self.fast.violation_rate() / self.budget;
        // pup-audit: allow(hotpath-panic): f64 division saturates, it never panics.
        let slow_burn = self.slow.violation_rate() / self.budget;
        let level = if fast_burn >= spec.page_burn && slow_burn >= spec.page_burn {
            Level::Page
        } else if fast_burn >= spec.warn_burn && slow_burn >= spec.warn_burn {
            Level::Warn
        } else {
            Level::Ok
        };
        if level == self.level {
            return None;
        }
        let previous = self.level;
        self.level = level;
        let event_level = match level {
            Level::Page => SloLevel::Page,
            Level::Warn => SloLevel::Warn,
            Level::Ok => {
                debug_assert!(previous != Level::Ok);
                SloLevel::Recovered
            }
        };
        Some(SloEvent { seq, monitor: self.monitor, level: event_level, fast_burn, slow_burn })
    }
}

struct EngineInner {
    seq: u64,
    availability: MonitorState,
    latency: Option<MonitorState>,
    events: Vec<SloEvent>,
    pages: u64,
}

/// Online SLO engine: feed it one outcome per admitted request, in
/// completion order, and it maintains the burn-rate state machines and
/// the event log.
pub struct SloEngine {
    spec: SloSpec,
    inner: Mutex<EngineInner>,
}

/// Poisoned-lock recovery: the engine holds counters and a log with no
/// invariants spanning the lock; a wedged SLO monitor must never take the
/// serving path down with it.
fn locked(inner: &Mutex<EngineInner>) -> MutexGuard<'_, EngineInner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SloEngine {
    /// An engine with all monitors at OK.
    pub fn new(spec: SloSpec) -> Self {
        let latency = spec
            .latency_ns
            .map(|_| MonitorState::new(SloMonitor::Latency, spec.latency_budget(), &spec));
        Self {
            inner: Mutex::new(EngineInner {
                seq: 0,
                availability: MonitorState::new(
                    SloMonitor::Availability,
                    spec.availability_budget(),
                    &spec,
                ),
                latency,
                events: Vec::new(),
                pages: 0,
            }),
            spec,
        }
    }

    /// The spec this engine evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Records the terminal outcome of one admitted request: whether it
    /// was answered, and (for answered requests) its latency. Returns the
    /// highest-severity event this outcome emitted, if any.
    pub fn record_outcome(&self, answered: bool, latency_ns: Option<u64>) -> Option<SloLevel> {
        let mut inner = locked(&self.inner);
        inner.seq += 1;
        let seq = inner.seq;
        let spec = self.spec;
        let mut emitted: Option<SloLevel> = None;
        let mut push = |events: &mut Vec<SloEvent>, pages: &mut u64, event: SloEvent| {
            if event.level == SloLevel::Page {
                *pages += 1;
            }
            let severity = |l: SloLevel| match l {
                SloLevel::Page => 2,
                SloLevel::Warn => 1,
                SloLevel::Recovered => 0,
            };
            if emitted.is_none_or(|prev| severity(event.level) > severity(prev)) {
                emitted = Some(event.level);
            }
            events.push(event);
        };
        let EngineInner { availability, latency, events, pages, .. } = &mut *inner;
        if let Some(event) = availability.record(!answered, seq, &spec) {
            push(events, pages, event);
        }
        if let (Some(monitor), Some(objective)) = (latency.as_mut(), spec.latency_ns) {
            // Latency only judges requests that produced an answer; a
            // rejection is already charged to the availability monitor.
            if let Some(ns) = latency_ns.filter(|_| answered) {
                if let Some(event) = monitor.record(ns > objective, seq, &spec) {
                    push(events, pages, event);
                }
            }
        }
        emitted
    }

    /// The full event log so far, in emission order.
    pub fn events(&self) -> Vec<SloEvent> {
        locked(&self.inner).events.clone()
    }

    /// Total page-level events emitted.
    pub fn page_count(&self) -> u64 {
        locked(&self.inner).pages
    }

    /// Monitors currently stuck at page severity — the CI gate requires
    /// this to be zero at the end of a run.
    pub fn unrecovered_pages(&self) -> u64 {
        let inner = locked(&self.inner);
        let mut n = 0;
        if inner.availability.level == Level::Page {
            n += 1;
        }
        if inner.latency.as_ref().is_some_and(|l| l.level == Level::Page) {
            n += 1;
        }
        n
    }

    /// Outcomes recorded so far.
    pub fn outcomes(&self) -> u64 {
        locked(&self.inner).seq
    }
}

/// Replays an event log to the set of monitors still at page severity —
/// used by `pup slo-report`, which only has the JSONL, not the engine.
pub fn unrecovered_from_events(events: &[SloEvent]) -> Vec<SloMonitor> {
    let mut avail = false;
    let mut latency = false;
    for event in events {
        let flag = match event.monitor {
            SloMonitor::Availability => &mut avail,
            SloMonitor::Latency => &mut latency,
        };
        *flag = event.level == SloLevel::Page;
    }
    let mut out = Vec::new();
    if avail {
        out.push(SloMonitor::Availability);
    }
    if latency {
        out.push(SloMonitor::Latency);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight_spec() -> SloSpec {
        SloSpec {
            availability: 0.9,
            latency_ns: Some(1_000),
            latency_quantile: 0.9,
            fast_window: 4,
            slow_window: 8,
            warn_burn: 1.0,
            page_burn: 2.0,
            min_samples: 2,
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let spec = SloSpec::parse("avail=0.99,p99-ms=50,fast=100,slow=400,warn=1.5,page=4,min=10")
            .expect("valid spec");
        assert_eq!(spec.availability, 0.99);
        assert_eq!(spec.latency_ns, Some(50_000_000));
        assert_eq!((spec.fast_window, spec.slow_window), (100, 400));
        assert_eq!((spec.warn_burn, spec.page_burn), (1.5, 4.0));
        assert_eq!(spec.min_samples, 10);
        assert_eq!(SloSpec::parse("").expect("empty is default"), SloSpec::default());
        assert!(SloSpec::parse("avail=1.5").is_err());
        assert!(SloSpec::parse("bogus=1").is_err());
        assert!(SloSpec::parse("warn=5,page=2").is_err());
        assert!(SloSpec::parse("no-equals").is_err());
    }

    #[test]
    fn pages_then_recovers_on_availability() {
        let engine = SloEngine::new(SloSpec { latency_ns: None, ..tight_spec() });
        // Budget is 0.1; two rejections in a 4-window is rate 0.5 = burn 5.
        assert_eq!(engine.record_outcome(true, Some(10)), None);
        assert_eq!(engine.record_outcome(false, None), Some(SloLevel::Page));
        assert_eq!(engine.unrecovered_pages(), 1);
        // Enough good outcomes to flush both windows back under warn.
        let mut recovered = false;
        for _ in 0..8 {
            if engine.record_outcome(true, Some(10)) == Some(SloLevel::Recovered) {
                recovered = true;
            }
        }
        assert!(recovered, "events: {:?}", engine.events());
        assert_eq!(engine.unrecovered_pages(), 0);
        assert_eq!(engine.page_count(), 1);
        let events = engine.events();
        assert_eq!(
            events.first().map(|e| (e.monitor, e.level)),
            Some((SloMonitor::Availability, SloLevel::Page))
        );
        assert_eq!(events.last().map(|e| e.level), Some(SloLevel::Recovered));
    }

    #[test]
    fn latency_monitor_judges_only_answered_requests() {
        let engine = SloEngine::new(tight_spec());
        // Slow answers violate the 1µs objective; budget 0.1.
        engine.record_outcome(true, Some(10));
        let level = engine.record_outcome(true, Some(5_000));
        assert_eq!(level, Some(SloLevel::Page));
        let events = engine.events();
        assert!(events.iter().all(|e| e.monitor == SloMonitor::Latency));
        // A rejection does not feed the latency windows.
        let before = events.len();
        engine.record_outcome(false, None);
        let after: Vec<_> = engine
            .events()
            .into_iter()
            .skip(before)
            .filter(|e| e.monitor == SloMonitor::Latency)
            .collect();
        assert!(after.is_empty());
    }

    #[test]
    fn event_sequence_is_deterministic_for_identical_outcomes() {
        let run = || {
            let engine = SloEngine::new(tight_spec());
            for i in 0..64u64 {
                let answered = i % 7 != 3;
                let latency = answered.then_some(if i % 11 == 0 { 9_000 } else { 100 });
                engine.record_outcome(answered, latency);
            }
            engine.events()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unrecovered_from_events_replays_final_state() {
        let mk =
            |monitor, level, seq| SloEvent { seq, monitor, level, fast_burn: 0.0, slow_burn: 0.0 };
        let events = vec![
            mk(SloMonitor::Availability, SloLevel::Page, 1),
            mk(SloMonitor::Latency, SloLevel::Page, 2),
            mk(SloMonitor::Availability, SloLevel::Recovered, 3),
        ];
        assert_eq!(unrecovered_from_events(&events), vec![SloMonitor::Latency]);
        assert!(unrecovered_from_events(&[]).is_empty());
    }
}
