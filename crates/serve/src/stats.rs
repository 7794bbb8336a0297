//! Cross-thread service statistics and the printable bench report.
//!
//! `pup-obs` collectors are deliberately thread-local, but serving workers
//! run on their own threads — so the service aggregates into one shared
//! [`ServeStats`] (atomic counters + mutex-protected `pup_obs` histograms)
//! and bridges a summary back into the main thread's `pup-obs` collector
//! via [`ServeStats::publish_obs`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pup_obs::metrics::{Exemplar, HistSummary, Histogram};
use pup_obs::slo::SloEvent;
use pup_obs::trace::TraceId;

use crate::breaker::{BreakerState, CircuitBreaker, Transition};
use crate::faults::FaultInjector;
use crate::swap::SwapTransition;

/// Shared, thread-safe counters and latency histograms for one service.
#[derive(Default)]
pub struct ServeStats {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_invalid: AtomicU64,
    primary: AtomicU64,
    degraded_breaker: AtomicU64,
    degraded_deadline: AtomicU64,
    degraded_failure: AtomicU64,
    scorer_faults: AtomicU64,
    latency_spikes: AtomicU64,
    retries: AtomicU64,
    max_queue_depth: AtomicU64,
    swaps_started: AtomicU64,
    shadow_scored: AtomicU64,
    shadow_errors: AtomicU64,
    total_ns: Mutex<Histogram>,
    queue_wait_ns: Mutex<Histogram>,
    primary_ns: Mutex<Histogram>,
    fallback_ns: Mutex<Histogram>,
    shadow_overlap: Mutex<Histogram>,
    shadow_delta: Mutex<Histogram>,
}

/// Poisoned-lock recovery: histograms have no cross-field invariants worth
/// dying for; a telemetry lock must never take the data path down with it.
fn locked(m: &Mutex<Histogram>) -> MutexGuard<'_, Histogram> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

macro_rules! bump {
    ($($method:ident => $field:ident),* $(,)?) => {
        $(
            #[doc = concat!("Increments the `", stringify!($field), "` counter.")]
            pub fn $method(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )*
    };
}

impl ServeStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the `submitted` counter and returns this request's
    /// admission sequence number, which doubles as its [`TraceId`]: the
    /// N-th submitted request is trace N, on every thread it touches.
    pub fn note_submitted(&self) -> TraceId {
        TraceId(self.submitted.fetch_add(1, Ordering::Relaxed))
    }

    bump! {
        note_admitted => admitted,
        note_shed => shed,
        note_rejected_deadline => rejected_deadline,
        note_rejected_invalid => rejected_invalid,
        note_primary => primary,
        note_degraded_breaker => degraded_breaker,
        note_degraded_deadline => degraded_deadline,
        note_degraded_failure => degraded_failure,
        note_scorer_fault => scorer_faults,
        note_latency_spike => latency_spikes,
        note_retry => retries,
        note_swap_started => swaps_started,
        note_shadow_scored => shadow_scored,
        note_shadow_error => shadow_errors,
    }

    /// Records an observed queue depth (keeps the maximum).
    pub fn note_queue_depth(&self, depth: usize) {
        self.max_queue_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Records a request's total latency (real + virtual nanoseconds).
    pub fn observe_total_ns(&self, ns: u64) {
        locked(&self.total_ns).observe(ns as f64);
    }

    /// Records a traced request's total latency: like
    /// [`observe_total_ns`](Self::observe_total_ns), but the histogram
    /// bucket also retains the trace id if this is the slowest traced
    /// observation the bucket has seen — the tail exemplar that lets a
    /// report jump from a p99 bucket to the offending stitched trace.
    pub fn observe_total_traced(&self, ns: u64, trace: Option<TraceId>) {
        match trace {
            Some(id) => locked(&self.total_ns).observe_traced(ns as f64, id.0),
            None => locked(&self.total_ns).observe(ns as f64),
        }
    }

    /// The tail exemplars retained by the total-latency histogram.
    pub fn total_exemplars(&self) -> Vec<Exemplar> {
        locked(&self.total_ns).exemplars()
    }

    /// Records time a request spent queued before a worker picked it up.
    pub fn observe_queue_wait_ns(&self, ns: u64) {
        locked(&self.queue_wait_ns).observe(ns as f64);
    }

    /// Records one successful primary score pass duration.
    pub fn observe_primary_ns(&self, ns: u64) {
        locked(&self.primary_ns).observe(ns as f64);
    }

    /// Records one fallback answer duration.
    pub fn observe_fallback_ns(&self, ns: u64) {
        locked(&self.fallback_ns).observe(ns as f64);
    }

    /// Records one shadow-vs-primary ranking comparison: top-K overlap
    /// (0..=1) and mean absolute score delta over the served items.
    pub fn observe_shadow(&self, overlap: f64, delta: f64) {
        locked(&self.shadow_overlap).observe(overlap);
        locked(&self.shadow_delta).observe(delta);
    }

    /// Snapshots everything into a report, folding in the breaker trace
    /// and the fault injector's consumption counters.
    pub fn report(&self, breaker: &CircuitBreaker, faults: &FaultInjector) -> ServeReport {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let trace = breaker.trace();
        let count_to = |s: BreakerState| trace.iter().filter(|t| t.to == s).count() as u64;
        let admitted = get(&self.admitted);
        let answered = get(&self.primary)
            + get(&self.degraded_breaker)
            + get(&self.degraded_deadline)
            + get(&self.degraded_failure);
        // Snapshot each histogram in its own statement: a guard temporary
        // inside the struct literal below would stay live across the rest
        // of the expression.
        let total_ns = locked(&self.total_ns).summary();
        let queue_wait_ns = locked(&self.queue_wait_ns).summary();
        let primary_ns = locked(&self.primary_ns).summary();
        let fallback_ns = locked(&self.fallback_ns).summary();
        let shadow_overlap = locked(&self.shadow_overlap).summary();
        let shadow_delta = locked(&self.shadow_delta).summary();
        ServeReport {
            submitted: get(&self.submitted),
            admitted,
            shed: get(&self.shed),
            rejected_deadline: get(&self.rejected_deadline),
            rejected_invalid: get(&self.rejected_invalid),
            primary: get(&self.primary),
            degraded_breaker: get(&self.degraded_breaker),
            degraded_deadline: get(&self.degraded_deadline),
            degraded_failure: get(&self.degraded_failure),
            scorer_faults: get(&self.scorer_faults),
            latency_spikes: get(&self.latency_spikes),
            retries: get(&self.retries),
            max_queue_depth: get(&self.max_queue_depth),
            availability: if admitted == 0 { 1.0 } else { answered as f64 / admitted as f64 },
            total_ns,
            queue_wait_ns,
            primary_ns,
            fallback_ns,
            breaker_trips: count_to(BreakerState::Open),
            breaker_half_opens: count_to(BreakerState::HalfOpen),
            breaker_closes: count_to(BreakerState::Closed),
            breaker_trace: trace,
            score_attempts: faults.attempts(),
            faults_pending: faults.pending() as u64,
            swaps_started: get(&self.swaps_started),
            shadow_scored: get(&self.shadow_scored),
            shadow_errors: get(&self.shadow_errors),
            shadow_overlap,
            shadow_delta,
            active_gen: 0,
            swap_transitions: Vec::new(),
            slo_events: Vec::new(),
            slo_unrecovered_pages: 0,
        }
    }

    /// Publishes the aggregate numbers into the calling thread's `pup-obs`
    /// collector (no-op when telemetry is off), so `serve-bench` reports
    /// land in the same spans/counters/JSONL sinks as training telemetry.
    pub fn publish_obs(&self, breaker: &CircuitBreaker, faults: &FaultInjector) {
        let r = self.report(breaker, faults);
        pup_obs::counter_add("serve.submitted", r.submitted);
        pup_obs::counter_add("serve.admitted", r.admitted);
        pup_obs::counter_add("serve.shed", r.shed);
        pup_obs::counter_add("serve.rejected.deadline", r.rejected_deadline);
        pup_obs::counter_add("serve.rejected.invalid", r.rejected_invalid);
        pup_obs::counter_add("serve.answered.primary", r.primary);
        pup_obs::counter_add("serve.answered.degraded", r.degraded());
        pup_obs::counter_add("serve.scorer_faults", r.scorer_faults);
        pup_obs::counter_add("serve.latency_spikes", r.latency_spikes);
        pup_obs::counter_add("serve.retries", r.retries);
        pup_obs::counter_add("serve.breaker.trips", r.breaker_trips);
        pup_obs::counter_add("serve.breaker.half_opens", r.breaker_half_opens);
        pup_obs::counter_add("serve.breaker.closes", r.breaker_closes);
        pup_obs::gauge_set("serve.queue.max_depth", r.max_queue_depth as f64);
        pup_obs::gauge_set("serve.availability", r.availability);
        pup_obs::counter_add("swap.started", r.swaps_started);
        pup_obs::counter_add("swap.shadow_scored", r.shadow_scored);
        pup_obs::counter_add("swap.shadow_errors", r.shadow_errors);
        for (name, summary) in [
            ("serve.latency.total_ns", &r.total_ns),
            ("serve.latency.queue_wait_ns", &r.queue_wait_ns),
            ("serve.latency.primary_ns", &r.primary_ns),
            ("serve.latency.fallback_ns", &r.fallback_ns),
            ("swap.shadow.overlap", &r.shadow_overlap),
            ("swap.shadow.score_delta", &r.shadow_delta),
        ] {
            if let Some(s) = summary {
                pup_obs::record(name, s.p99);
            }
        }
    }
}

/// Everything `serve-bench` prints: one immutable snapshot of a run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Requests offered to the service.
    pub submitted: u64,
    /// Requests that passed admission control.
    pub admitted: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Admitted requests rejected because their deadline ran out.
    pub rejected_deadline: u64,
    /// Requests rejected for malformed ids.
    pub rejected_invalid: u64,
    /// Responses served by the primary model.
    pub primary: u64,
    /// Responses degraded because the breaker was open.
    pub degraded_breaker: u64,
    /// Responses degraded because the deadline could not fit a score pass.
    pub degraded_deadline: u64,
    /// Responses degraded because the scorer kept failing after retries.
    pub degraded_failure: u64,
    /// Injected scorer faults observed.
    pub scorer_faults: u64,
    /// Injected latency spikes observed.
    pub latency_spikes: u64,
    /// Retry attempts spent.
    pub retries: u64,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: u64,
    /// Answered responses / admitted requests (1.0 when nothing admitted).
    pub availability: f64,
    /// Total request latency distribution (ns; real + virtual).
    pub total_ns: Option<HistSummary>,
    /// Queue-wait latency distribution (ns).
    pub queue_wait_ns: Option<HistSummary>,
    /// Primary score-pass latency distribution (ns).
    pub primary_ns: Option<HistSummary>,
    /// Fallback answer latency distribution (ns).
    pub fallback_ns: Option<HistSummary>,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Times the breaker went half-open.
    pub breaker_half_opens: u64,
    /// Times the breaker closed from half-open.
    pub breaker_closes: u64,
    /// The full breaker transition trace.
    pub breaker_trace: Vec<Transition>,
    /// Primary scoring attempts drawn (including retries).
    pub score_attempts: u64,
    /// Scheduled faults that never fired (0 when the schedule completed).
    pub faults_pending: u64,
    /// Hot-swap attempts initiated.
    pub swaps_started: u64,
    /// Shadow comparisons attempted (successful or not).
    pub shadow_scored: u64,
    /// Shadow scoring failures (score errors, NaN scores).
    pub shadow_errors: u64,
    /// Shadow top-K overlap distribution (0..=1).
    pub shadow_overlap: Option<HistSummary>,
    /// Shadow mean-absolute score-delta distribution.
    pub shadow_delta: Option<HistSummary>,
    /// Generation serving when the report was taken (filled by
    /// [`crate::engine::ServiceShared::report`]).
    pub active_gen: u64,
    /// The resolved swap transition trace (filled by
    /// [`crate::engine::ServiceShared::report`]).
    pub swap_transitions: Vec<SwapTransition>,
    /// The live SLO event log (filled by
    /// [`crate::engine::ServiceShared::report`] when an SLO engine is
    /// attached; empty otherwise).
    pub slo_events: Vec<SloEvent>,
    /// Monitors still at page severity when the report was taken — the CI
    /// gate requires zero.
    pub slo_unrecovered_pages: u64,
}

impl ServeReport {
    /// Total degraded responses across all degradation causes.
    pub fn degraded(&self) -> u64 {
        self.degraded_breaker + self.degraded_deadline + self.degraded_failure
    }

    /// Renders the human-readable report `pup serve-bench` prints.
    pub fn render(&self) -> String {
        fn ms(ns: f64) -> f64 {
            ns / 1e6
        }
        fn hist_line(name: &str, h: &Option<HistSummary>) -> String {
            match h {
                Some(s) => format!(
                    "  {name:<12} p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms  max {:.3}ms  (n={})\n",
                    ms(s.p50),
                    ms(s.p95),
                    ms(s.p99),
                    ms(s.max),
                    s.count
                ),
                None => format!("  {name:<12} (no samples)\n"),
            }
        }
        let mut out = String::new();
        out.push_str("== serve-bench report ==\n");
        out.push_str(&format!(
            "requests:     {} submitted | {} admitted | {} shed (queue full)\n",
            self.submitted, self.admitted, self.shed
        ));
        out.push_str(&format!(
            "answered:     {} primary | {} degraded (breaker {}, deadline {}, scorer {})\n",
            self.primary,
            self.degraded(),
            self.degraded_breaker,
            self.degraded_deadline,
            self.degraded_failure
        ));
        out.push_str(&format!(
            "rejected:     {} deadline | {} invalid-id\n",
            self.rejected_deadline, self.rejected_invalid
        ));
        out.push_str(&format!("availability: {:.4}% of admitted\n", self.availability * 100.0));
        out.push_str("latency:\n");
        out.push_str(&hist_line("total", &self.total_ns));
        out.push_str(&hist_line("queue-wait", &self.queue_wait_ns));
        out.push_str(&hist_line("primary", &self.primary_ns));
        out.push_str(&hist_line("fallback", &self.fallback_ns));
        out.push_str(&format!("queue:        max depth {}\n", self.max_queue_depth));
        out.push_str(&format!(
            "breaker:      {} trips | {} half-opens | {} closes\n",
            self.breaker_trips, self.breaker_half_opens, self.breaker_closes
        ));
        for t in &self.breaker_trace {
            out.push_str(&format!(
                "  transition @decision {}: {} -> {}\n",
                t.seq,
                t.from.label(),
                t.to.label()
            ));
        }
        out.push_str(&format!(
            "faults:       {} scorer errors | {} latency spikes | {} retries | {} attempts | {} pending\n",
            self.scorer_faults,
            self.latency_spikes,
            self.retries,
            self.score_attempts,
            self.faults_pending
        ));
        if !self.slo_events.is_empty() || self.slo_unrecovered_pages > 0 {
            let pages =
                self.slo_events.iter().filter(|e| e.level == pup_obs::slo::SloLevel::Page).count();
            out.push_str(&format!(
                "slo:          {} events | {} pages | {} unrecovered\n",
                self.slo_events.len(),
                pages,
                self.slo_unrecovered_pages
            ));
            for e in &self.slo_events {
                out.push_str(&format!(
                    "  slo @outcome {}: {} {} (burn fast {:.2} / slow {:.2})\n",
                    e.seq,
                    e.monitor.label(),
                    e.level.label(),
                    e.fast_burn,
                    e.slow_burn
                ));
            }
        }
        if self.swaps_started > 0 || !self.swap_transitions.is_empty() {
            let promoted = self
                .swap_transitions
                .iter()
                .filter(|t| t.outcome == crate::swap::SwapOutcome::Promoted)
                .count();
            out.push_str(&format!(
                "swap:         serving gen {} | {} attempts | {} promoted | {} rolled back | \
                 {} shadowed ({} errors)\n",
                self.active_gen,
                self.swaps_started,
                promoted,
                self.swap_transitions.len() - promoted,
                self.shadow_scored,
                self.shadow_errors
            ));
            if let Some(s) = &self.shadow_overlap {
                out.push_str(&format!(
                    "  shadow      overlap mean {:.3}  min {:.3}  (n={})",
                    s.mean(),
                    s.min,
                    s.count
                ));
                if let Some(d) = &self.shadow_delta {
                    out.push_str(&format!("  |Δscore| mean {:.3e}  max {:.3e}", d.mean(), d.max));
                }
                out.push('\n');
            }
            for t in &self.swap_transitions {
                out.push_str(&format!(
                    "  swap @attempt {}: gen {} -> gen {}: {}\n",
                    t.seq,
                    t.from_gen,
                    t.to_gen,
                    t.outcome.label()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use pup_ckpt::chaos::FaultPlan;

    #[test]
    fn availability_counts_degraded_as_answered() {
        let stats = ServeStats::new();
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        let faults = FaultInjector::new(FaultPlan::none());
        for _ in 0..4 {
            stats.note_submitted();
            stats.note_admitted();
        }
        stats.note_primary();
        stats.note_primary();
        stats.note_degraded_breaker();
        stats.note_rejected_deadline();
        let r = stats.report(&breaker, &faults);
        assert_eq!(r.degraded(), 1);
        assert!((r.availability - 0.75).abs() < 1e-12);
        assert!(r.render().contains("availability: 75.0000%"));
    }

    #[test]
    fn empty_run_reports_full_availability() {
        let stats = ServeStats::new();
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        let faults = FaultInjector::none();
        let r = stats.report(&breaker, &faults);
        assert_eq!(r.availability, 1.0);
        assert!(r.total_ns.is_none());
    }
}
