//! The per-request resilience pipeline.
//!
//! [`process`] is the single code path every admitted request takes,
//! whether it arrives synchronously ([`handle_now`]) or through a worker
//! thread ([`crate::server::Server`]). Its contract: return a ranked
//! [`Response`] (tagged primary vs. degraded) or a typed [`ServeError`] —
//! never panic, never block beyond the scorer call itself.

use std::time::Instant;

use pup_ckpt::chaos::FaultPlan;
use pup_eval::try_rank_unseen;
use pup_models::ScoreError;
use pup_obs::slo::SloEngine;
use pup_obs::trace::{TraceContext, TraceId, TraceSink};

use crate::breaker::CircuitBreaker;
use crate::deadline::Deadline;
use crate::fallback::Fallback;
use crate::faults::FaultInjector;
use crate::flight::PostMortem;
use crate::scorer::Scorer;
use crate::stats::{ServeReport, ServeStats};
use crate::swap::{SwapConfig, SwapController};
use crate::{Request, Response, ServeConfig, ServeError, Source, Stage};

/// Everything the pipeline shares across requests and worker threads;
/// all of it is `Send + Sync`. The scorers live in the swap controller
/// (see [`crate::swap`]).
pub struct ServiceShared {
    /// Pipeline tunables.
    pub cfg: ServeConfig,
    /// The circuit breaker around the primary scorer.
    pub breaker: CircuitBreaker,
    /// Shared counters and latency histograms.
    pub stats: ServeStats,
    /// Deterministic fault source.
    pub faults: FaultInjector,
    /// Popularity fallback + per-user seen sets.
    pub fallback: Fallback,
    /// Users the primary model can score (`usize::MAX` = any user).
    pub n_users: usize,
    /// The model-lifecycle controller (inert at generation 0 unless a
    /// swap is initiated).
    pub swap: SwapController,
    /// Cross-thread trace sink; `None` = tracing off (the default), and
    /// every per-request trace context degenerates to a free no-op.
    pub tracer: Option<TraceSink>,
    /// Live SLO engine; `None` = no objectives configured.
    pub slo: Option<SloEngine>,
    /// Flight recorder + dump policy; `None` = no black box.
    pub postmortem: Option<PostMortem>,
}

impl ServiceShared {
    /// Assembles shared state with no fault injection.
    pub fn new(cfg: ServeConfig, fallback: Fallback, n_users: usize) -> Self {
        Self::with_faults(cfg, fallback, n_users, FaultPlan::none())
    }

    /// Assembles shared state with a scripted fault plan.
    pub fn with_faults(
        cfg: ServeConfig,
        fallback: Fallback,
        n_users: usize,
        plan: FaultPlan,
    ) -> Self {
        Self::with_swap(cfg, fallback, n_users, plan, SwapController::new(0, SwapConfig::default()))
    }

    /// Assembles shared state with a scripted fault plan and an explicit
    /// swap controller (serving generation + shadow tunables).
    pub fn with_swap(
        cfg: ServeConfig,
        fallback: Fallback,
        n_users: usize,
        plan: FaultPlan,
        swap: SwapController,
    ) -> Self {
        let breaker = CircuitBreaker::new(cfg.breaker);
        Self {
            cfg,
            breaker,
            stats: ServeStats::new(),
            faults: FaultInjector::new(plan),
            fallback,
            n_users,
            swap,
            tracer: None,
            slo: None,
            postmortem: None,
        }
    }

    /// Attaches a trace sink: every admitted request from here on gets a
    /// stitched cross-thread trace. Call before the service starts.
    pub fn enable_tracing(&mut self, sink: TraceSink) {
        self.tracer = Some(sink);
    }

    /// Attaches a live SLO engine fed one outcome per admitted request.
    pub fn enable_slo(&mut self, engine: SloEngine) {
        self.slo = Some(engine);
    }

    /// Attaches a flight recorder with its dump policy.
    pub fn enable_flight_recorder(&mut self, postmortem: PostMortem) {
        self.postmortem = Some(postmortem);
    }

    /// A root trace context for request `trace`: real when a tracer is
    /// attached, the free disabled context otherwise.
    pub fn root_ctx(&self, trace: TraceId) -> TraceContext {
        match &self.tracer {
            Some(sink) => sink.root(trace),
            None => TraceContext::disabled(),
        }
    }

    /// Feeds one terminal request outcome to the SLO engine, if attached.
    /// Page-triggered flight dumps are handled by the worker-loop poll,
    /// not here — the hot path never does file I/O.
    fn note_outcome(&self, answered: bool, latency_ns: Option<u64>) {
        if let Some(slo) = &self.slo {
            let _ = slo.record_outcome(answered, latency_ns);
        }
    }

    /// Publishes the aggregate stats plus the observability extras —
    /// stitched trace spans, SLO events, tail exemplars — into the
    /// calling thread's `pup-obs` collector (no-op when telemetry is
    /// off), so one JSONL file carries the whole story of a run.
    pub fn publish_obs(&self) {
        self.stats.publish_obs(&self.breaker, &self.faults);
        if !pup_obs::enabled() {
            return;
        }
        if let Some(sink) = &self.tracer {
            for span in sink.snapshot_spans() {
                pup_obs::record_trace_span(span);
            }
        }
        if let Some(slo) = &self.slo {
            for event in slo.events() {
                pup_obs::record_slo_event(event);
            }
        }
        for ex in self.stats.total_exemplars() {
            pup_obs::record_exemplar(pup_obs::ExemplarRecord {
                hist: "serve.latency.total_ns".to_string(),
                le: ex.le,
                value: ex.value,
                trace: ex.trace,
            });
        }
    }

    /// Snapshots the full service report: stats + breaker trace + fault
    /// counters + the swap transition trace and serving generation.
    pub fn report(&self) -> ServeReport {
        let mut report = self.stats.report(&self.breaker, &self.faults);
        report.active_gen = self.swap.active_gen();
        report.swap_transitions = self.swap.transitions();
        if let Some(slo) = &self.slo {
            report.slo_events = slo.events();
            report.slo_unrecovered_pages = slo.unrecovered_pages();
        }
        report
    }
}

/// Why the primary path was abandoned in favor of the fallback.
enum Degraded {
    BreakerOpen,
    Deadline,
    ScorerFailed { retries: u32 },
}

/// Runs one admitted request through the pipeline. `deadline` was started
/// at submission, so time spent queued is already charged. `ctx` is the
/// request's carried trace context (parented by the `request` root span
/// the submitter opened); every stage span lands in the same stitched
/// tree no matter which thread runs it. The request's terminal outcome —
/// answered or rejected — is fed to the SLO engine exactly once, here.
// pup-hot: serve-request
pub fn process(
    shared: &ServiceShared,
    scorer: &dyn Scorer,
    req: Request,
    deadline: &mut Deadline,
    ctx: &TraceContext,
) -> Result<Response, ServeError> {
    let _span = pup_obs::span("serve.request");
    let result = pipeline(shared, scorer, req, deadline, ctx);
    match &result {
        Ok(resp) => shared.note_outcome(true, Some(resp.latency_ns)),
        Err(_) => shared.note_outcome(false, None),
    }
    result
}

/// The pipeline body: every return path below is a terminal outcome that
/// [`process`] reports to the SLO engine.
fn pipeline(
    shared: &ServiceShared,
    scorer: &dyn Scorer,
    req: Request,
    deadline: &mut Deadline,
    ctx: &TraceContext,
) -> Result<Response, ServeError> {
    // Stage: post-queue deadline check. A request whose budget died while
    // it waited can no longer be answered in time at all — typed rejection.
    if deadline.exceeded() {
        shared.stats.note_rejected_deadline();
        return Err(ServeError::DeadlineExceeded {
            stage: Stage::Queue,
            budget_ns: deadline.budget_ns(),
        });
    }
    // Stage: id validation. Malformed ids are request bugs, not service
    // faults: they reject without touching the breaker or the fallback.
    if shared.n_users != usize::MAX && req.user >= shared.n_users {
        shared.stats.note_rejected_invalid();
        return Err(ScoreError::UserOutOfRange { user: req.user, n_users: shared.n_users }.into());
    }

    // Stage: route. Deadline first (local, free), then the breaker (which
    // counts this request's routing decision).
    let degraded = if !deadline.fits(shared.cfg.primary_cost_hint_ns) {
        Degraded::Deadline
    } else if !shared.breaker.allow() {
        Degraded::BreakerOpen
    } else {
        match primary_attempts(shared, scorer, req, deadline, ctx)? {
            PrimaryOutcome::Answered(resp) => return Ok(resp),
            PrimaryOutcome::Degraded(d) => d,
        }
    };

    // Stage: graceful degradation — the popularity fallback always answers.
    let t0 = Instant::now();
    let fallback_span = ctx.span("fallback");
    let items = shared.fallback.answer(req.user, req.k);
    drop(fallback_span);
    let fallback_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.stats.observe_fallback_ns(fallback_ns);
    let (source, retries) = match degraded {
        Degraded::BreakerOpen => {
            shared.stats.note_degraded_breaker();
            (Source::DegradedBreakerOpen, 0)
        }
        Degraded::Deadline => {
            shared.stats.note_degraded_deadline();
            (Source::DegradedDeadline, 0)
        }
        Degraded::ScorerFailed { retries } => {
            shared.stats.note_degraded_failure();
            (Source::DegradedScorerFailed, retries)
        }
    };
    Ok(finish(shared, req, items, source, retries, deadline, ctx))
}

/// Outcome of the primary attempt loop.
enum PrimaryOutcome {
    Answered(Response),
    Degraded(Degraded),
}

/// Primary scoring with retry-and-backoff under the deadline budget. The
/// `score` span covers the whole attempt loop (retries included); the
/// `rank` span nests under it.
fn primary_attempts(
    shared: &ServiceShared,
    scorer: &dyn Scorer,
    req: Request,
    deadline: &mut Deadline,
    ctx: &TraceContext,
) -> Result<PrimaryOutcome, ServeError> {
    let score_span = ctx.span("score");
    let cfg = &shared.cfg;
    let mut retries = 0u32;
    for attempt in 0..=cfg.max_retries {
        let faults = shared.faults.next_attempt();
        if let Some(spike_ns) = faults.spike_ns {
            // The spike models the scorer stalling: charge it against the
            // budget without sleeping so tests stay fast and deterministic.
            deadline.charge_virtual(spike_ns);
            shared.stats.note_latency_spike();
        }
        if faults.scorer_error {
            shared.stats.note_scorer_fault();
            shared.breaker.record_failure();
            let backoff_ns = cfg.retry_backoff_ns.saturating_mul(1u64 << attempt.min(62));
            if attempt < cfg.max_retries && {
                deadline.charge_virtual(backoff_ns);
                deadline.fits(cfg.primary_cost_hint_ns)
            } {
                retries += 1;
                shared.stats.note_retry();
                continue;
            }
            return Ok(PrimaryOutcome::Degraded(Degraded::ScorerFailed { retries }));
        }
        // A spike large enough to consume the whole remaining budget means
        // even an instant score pass would land late: give the fallback a
        // chance rather than rejecting outright.
        if !deadline.fits(cfg.primary_cost_hint_ns) {
            return Ok(PrimaryOutcome::Degraded(Degraded::Deadline));
        }
        let t0 = Instant::now();
        match scorer.score(req.user) {
            Ok(scores) => {
                let primary_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                shared.stats.observe_primary_ns(primary_ns);
                shared.breaker.record_success();
                if deadline.exceeded() {
                    // The (real) score pass itself overran the budget.
                    shared.stats.note_rejected_deadline();
                    return Err(ServeError::DeadlineExceeded {
                        stage: Stage::Score,
                        budget_ns: deadline.budget_ns(),
                    });
                }
                let rank_span = score_span.ctx().span("rank");
                let seen = shared.fallback.seen_items(req.user);
                let ranked =
                    try_rank_unseen(&scores, scorer.n_items(), seen, req.k).map_err(|e| {
                        shared.stats.note_rejected_invalid();
                        ServeError::Score(e)
                    })?;
                drop(rank_span);
                if deadline.exceeded() {
                    shared.stats.note_rejected_deadline();
                    return Err(ServeError::DeadlineExceeded {
                        stage: Stage::Rank,
                        budget_ns: deadline.budget_ns(),
                    });
                }
                shared.stats.note_primary();
                // Close the score span before `respond` opens so the two
                // stages read as siblings in the stitched tree.
                drop(score_span);
                return Ok(PrimaryOutcome::Answered(finish(
                    shared,
                    req,
                    ranked,
                    Source::Primary,
                    retries,
                    deadline,
                    ctx,
                )));
            }
            Err(e) => {
                // A typed model error (out-of-range id) is a property of
                // the request, not scorer health: reject, don't retry.
                shared.stats.note_rejected_invalid();
                return Err(e.into());
            }
        }
    }
    // `max_retries + 1` attempts all returned `continue`-or-return above;
    // reaching here means the loop bound itself was exhausted.
    Ok(PrimaryOutcome::Degraded(Degraded::ScorerFailed { retries }))
}

/// Stamps latency and assembles the response. The total-latency histogram
/// keeps the trace id of its slowest traced request per bucket, so a p99
/// bucket in a report resolves to a concrete stitched trace.
fn finish(
    shared: &ServiceShared,
    req: Request,
    items: Vec<u32>,
    source: Source,
    retries: u32,
    deadline: &Deadline,
    ctx: &TraceContext,
) -> Response {
    let _respond = ctx.span("respond");
    let latency_ns = deadline.elapsed_ns();
    shared.stats.observe_total_traced(latency_ns, ctx.trace_id());
    Response { user: req.user, items, source, latency_ns, retries }
}

/// Synchronous single-request path: admission (without a queue) plus
/// [`process`], sharing all pipeline semantics with the threaded server.
/// This is what `pup recommend` and the deterministic chaos tests use.
pub fn handle_now(
    shared: &ServiceShared,
    scorer: &dyn Scorer,
    req: Request,
) -> Result<Response, ServeError> {
    let trace = shared.stats.note_submitted();
    shared.stats.note_admitted();
    let mut deadline = Deadline::new(shared.cfg.deadline_ns);
    let request_span = shared.root_ctx(trace).span("request");
    let ctx = request_span.ctx();
    let result = process(shared, scorer, req, &mut deadline, &ctx);
    drop(request_span);
    crate::flight::record_request(shared, trace, 0, &result, &deadline);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BreakerConfig, BreakerState};

    /// A scorer that prefers higher item ids, with bounds checks.
    struct Linear {
        n_users: usize,
        n_items: usize,
    }

    impl Scorer for Linear {
        fn name(&self) -> &str {
            "linear"
        }
        fn n_items(&self) -> usize {
            self.n_items
        }
        fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
            if user >= self.n_users {
                return Err(ScoreError::UserOutOfRange { user, n_users: self.n_users });
            }
            Ok((0..self.n_items).map(|i| i as f64).collect())
        }
    }

    fn shared_with(plan: FaultPlan, cfg: ServeConfig) -> ServiceShared {
        // 3 users, 6 items; user 0 has seen items 4 and 5.
        let fallback = Fallback::from_train(3, 6, &[(0, 4), (0, 5), (1, 4), (2, 3)]).unwrap();
        ServiceShared::with_faults(cfg, fallback, 3, plan)
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            deadline_ns: 5_000_000_000, // 5s: real time is never the trigger
            primary_cost_hint_ns: 1_000,
            max_retries: 2,
            retry_backoff_ns: 10,
            breaker: BreakerConfig { failure_threshold: 2, cooldown_requests: 2, close_after: 1 },
            ..Default::default()
        }
    }

    #[test]
    fn primary_answer_excludes_seen_items() {
        let shared = shared_with(FaultPlan::none(), cfg());
        let scorer = Linear { n_users: 3, n_items: 6 };
        let resp = handle_now(&shared, &scorer, Request { user: 0, k: 3 }).unwrap();
        assert_eq!(resp.source, Source::Primary);
        // Items 5 and 4 are seen; best unseen by score are 3, 2, 1.
        assert_eq!(resp.items, vec![3, 2, 1]);
        assert_eq!(resp.retries, 0);
    }

    #[test]
    fn invalid_user_is_a_typed_rejection() {
        let shared = shared_with(FaultPlan::none(), cfg());
        let scorer = Linear { n_users: 3, n_items: 6 };
        let err = handle_now(&shared, &scorer, Request { user: 42, k: 3 }).unwrap_err();
        assert_eq!(err, ServeError::Score(ScoreError::UserOutOfRange { user: 42, n_users: 3 }));
        let report = shared.stats.report(&shared.breaker, &shared.faults);
        assert_eq!(report.rejected_invalid, 1);
    }

    #[test]
    fn transient_fault_retries_then_succeeds() {
        // Attempt 0 fails; attempt 1 (the retry) succeeds.
        let shared = shared_with(FaultPlan::scorer_errors_at([0]), cfg());
        let scorer = Linear { n_users: 3, n_items: 6 };
        let resp = handle_now(&shared, &scorer, Request { user: 1, k: 2 }).unwrap();
        assert_eq!(resp.source, Source::Primary);
        assert_eq!(resp.retries, 1);
        assert_eq!(shared.breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn exhausted_retries_degrade_tagged_scorer_failed() {
        // All three attempts of the single request fail.
        let shared = shared_with(FaultPlan::scorer_errors_at([0, 1, 2]), cfg());
        let scorer = Linear { n_users: 3, n_items: 6 };
        let resp = handle_now(&shared, &scorer, Request { user: 2, k: 2 }).unwrap();
        assert_eq!(resp.source, Source::DegradedScorerFailed);
        assert!(!resp.items.is_empty(), "fallback must still rank items");
        // failure_threshold = 2 < 3 failures: the breaker tripped.
        assert_eq!(shared.breaker.state(), BreakerState::Open);
    }

    #[test]
    fn open_breaker_degrades_and_tags() {
        let shared = shared_with(FaultPlan::scorer_errors_at([0, 1, 2]), cfg());
        let scorer = Linear { n_users: 3, n_items: 6 };
        // First request trips the breaker (3 consecutive failures).
        let _ = handle_now(&shared, &scorer, Request { user: 0, k: 2 }).unwrap();
        // Next request routes straight to the fallback.
        let resp = handle_now(&shared, &scorer, Request { user: 2, k: 2 }).unwrap();
        assert_eq!(resp.source, Source::DegradedBreakerOpen);
        // User 2 saw item 3; popularity order is 4, 3, 5, 0... -> 4, 5.
        assert_eq!(resp.items, vec![4, 5]);
    }

    #[test]
    fn tight_budget_degrades_to_fallback() {
        let mut c = cfg();
        c.primary_cost_hint_ns = u64::MAX; // a score pass can never fit
        let shared = shared_with(FaultPlan::none(), c);
        let scorer = Linear { n_users: 3, n_items: 6 };
        let resp = handle_now(&shared, &scorer, Request { user: 1, k: 2 }).unwrap();
        assert_eq!(resp.source, Source::DegradedDeadline);
    }

    #[test]
    fn exhausted_budget_is_a_typed_rejection() {
        let mut c = cfg();
        c.deadline_ns = 0;
        let shared = shared_with(FaultPlan::none(), c);
        let scorer = Linear { n_users: 3, n_items: 6 };
        let err = handle_now(&shared, &scorer, Request { user: 1, k: 2 }).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { stage: Stage::Queue, .. }));
    }

    #[test]
    fn giant_spike_degrades_not_hangs() {
        // The spike eats the whole budget virtually — no sleeping involved.
        let shared = shared_with(FaultPlan::latency_spikes_at([(0, u64::MAX)]), cfg());
        let scorer = Linear { n_users: 3, n_items: 6 };
        let resp = handle_now(&shared, &scorer, Request { user: 1, k: 2 }).unwrap();
        assert_eq!(resp.source, Source::DegradedDeadline);
    }
}
