//! Zero-downtime model swaps: shadow scoring, promotion, and rollback.
//!
//! The [`SwapController`] is the in-memory half of the model lifecycle
//! (the durable half is `pup_ckpt::registry::ModelRegistry`). A swap from
//! generation N to N+1 moves through an explicit state machine:
//!
//! ```text
//!            initiate_swap(to_gen)
//!                   │ validate: manifest + checksum + decode (beside the
//!                   │ candidate's build) + NaN probe
//!                   │ (failure → RolledBack(ValidationFailed | NanProbe),
//!                   │  recorded, N keeps serving)
//!                   ▼
//!             ┌──────────┐  every primary-answered request also scored
//!             │ SHADOWING │  by N+1; top-K overlap + score deltas recorded
//!             └────┬─────┘  for `shadow_requests` requests
//!                  │ budget exhausted
//!        ┌─────────┴──────────┐
//!        │ min overlap ≥ floor │ any shadow error / NaN / divergence
//!        ▼                     ▼
//!    PROMOTE (flip CURRENT)  ROLLBACK (N keeps serving)
//! ```
//!
//! Each generation is built once and shared: [`initiate_swap`]'s probe
//! build becomes the candidate the controller holds, and promotion moves
//! it into the active slot as an `Arc`. Workers never block on a swap:
//! each [`WorkerModel`] checks one atomic version counter per request and
//! re-reads the shared scorers only *between* requests, so in-flight work
//! always drains on the scorer it started with and not a single request
//! is dropped by a swap — promotion failure included. Every resolved
//! attempt appends a [`SwapTransition`] to the controller's trace; with
//! the same seed and the same `pup_ckpt::chaos::FaultPlan` swap faults
//! (consume-once, keyed by swap attempt), the trace replays identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pup_ckpt::registry::{ModelRegistry, PromoteOutcome};
use pup_eval::try_rank_unseen;

use crate::engine::ServiceShared;
use crate::faults::FaultInjector;
use crate::scorer::Scorer;
use crate::{Request, Response};

/// Builds the scorer of a *specific* model generation: once for the
/// active generation when the server starts, and once per swap for the
/// candidate.
pub type GenScorerFactory = Arc<dyn Fn(u64) -> Result<Box<dyn Scorer>, String> + Send + Sync>;

/// Decides whether a shadow-validated generation actually becomes
/// `CURRENT`. Receives the swap attempt's sequence number (for consuming
/// kill-mid-flip faults) and the fault injector; returns the durable
/// outcome. Wired to `ModelRegistry::promote_chaos` in production; absent
/// in pure in-memory tests (promotion then always succeeds).
pub type PromoteHook =
    Box<dyn Fn(u64, u64, &FaultInjector) -> Result<PromoteOutcome, String> + Send + Sync>;

/// Why a swap attempt was rolled back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollbackReason {
    /// The candidate failed registry validation (checksum, decode,
    /// fingerprint, or the promote-time flip re-validation).
    ValidationFailed,
    /// A probe or shadow score came back NaN.
    NanProbe,
    /// Shadow top-K overlap fell below the configured floor.
    ShadowDivergence,
    /// Shadow scoring itself failed (a score error).
    ShadowError,
    /// The process died mid pointer-flip; the old generation still serves.
    KilledMidFlip,
    /// The shadow window ended without enough evidence to promote.
    WindowExpired,
}

impl RollbackReason {
    /// Stable label for reports and traces.
    pub fn label(&self) -> &'static str {
        match self {
            Self::ValidationFailed => "validation-failed",
            Self::NanProbe => "nan-probe",
            Self::ShadowDivergence => "shadow-divergence",
            Self::ShadowError => "shadow-error",
            Self::KilledMidFlip => "killed-mid-flip",
            Self::WindowExpired => "window-expired",
        }
    }
}

/// How a resolved swap attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The candidate generation was promoted and now serves.
    Promoted,
    /// The old generation kept (or resumed) serving.
    RolledBack(RollbackReason),
}

impl SwapOutcome {
    /// Stable label for reports and traces.
    pub fn label(&self) -> String {
        match self {
            Self::Promoted => "promoted".to_string(),
            Self::RolledBack(reason) => format!("rolled-back({})", reason.label()),
        }
    }
}

/// One resolved swap attempt in the deterministic transition trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapTransition {
    /// Swap attempt sequence number (global, 0-based).
    pub seq: u64,
    /// Generation that was serving when the attempt started.
    pub from_gen: u64,
    /// Candidate generation of the attempt.
    pub to_gen: u64,
    /// How the attempt resolved.
    pub outcome: SwapOutcome,
}

/// Why a swap could not even begin (distinct from a rollback, which is a
/// *resolved* attempt).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// Another swap is still shadowing.
    InProgress {
        /// The candidate generation already being shadowed.
        pending_gen: u64,
    },
    /// The candidate is the generation already serving.
    SameGeneration {
        /// The offending generation.
        gen: u64,
    },
    /// Registry validation rejected the candidate.
    Validation {
        /// The candidate generation.
        gen: u64,
        /// The underlying `CkptError`, rendered.
        detail: String,
    },
    /// The candidate produced NaN probe scores.
    NanProbe {
        /// The candidate generation.
        gen: u64,
        /// The probe user that exposed the NaN.
        user: usize,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InProgress { pending_gen } => {
                write!(f, "swap already in progress (shadowing generation {pending_gen})")
            }
            Self::SameGeneration { gen } => {
                write!(f, "generation {gen} is already serving")
            }
            Self::Validation { gen, detail } => {
                write!(f, "generation {gen} failed validation: {detail}")
            }
            Self::NanProbe { gen, user } => {
                write!(f, "generation {gen} produced NaN probe scores for user {user}")
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// Tunables of the shadow-promotion protocol.
#[derive(Clone, Copy, Debug)]
pub struct SwapConfig {
    /// Primary-answered requests to shadow before deciding. Zero skips
    /// shadowing entirely (promote on validation alone).
    pub shadow_requests: u64,
    /// Minimum top-K overlap every shadowed request must reach; any
    /// observation below this floor rolls the swap back.
    pub min_overlap: f64,
    /// Users probed for NaN scores during validation.
    pub probe_users: usize,
}

impl Default for SwapConfig {
    fn default() -> Self {
        Self { shadow_requests: 32, min_overlap: 0.5, probe_users: 4 }
    }
}

/// An in-flight swap attempt.
struct Pending {
    seq: u64,
    to_gen: u64,
    /// The candidate's scorer, built once by [`initiate_swap`] and shared
    /// by every worker's shadow pass; `None` once the server has shut down.
    candidate: Option<Arc<dyn Scorer>>,
    budget: u64,
    remaining: u64,
    shadowed: u64,
    min_overlap: f64,
    forced_divergence: bool,
    failed: Option<RollbackReason>,
}

struct Inner {
    /// The active generation's scorer; `None` until the server installs it.
    active_scorer: Option<Arc<dyn Scorer>>,
    pending: Option<Pending>,
    transitions: Vec<SwapTransition>,
    promote_hook: Option<PromoteHook>,
}

/// Coordinates one service's model generation across all workers.
///
/// The serving generation and a version counter live in atomics so the
/// per-request fast path is a single relaxed load; everything stateful
/// (the active and candidate scorers, the pending shadow window, the
/// transition trace, the promote hook) sits behind one mutex that is only
/// touched on version changes and shadow observations.
pub struct SwapController {
    cfg: SwapConfig,
    active: AtomicU64,
    version: AtomicU64,
    /// Rollback count mirrored outside the lock so the flight recorder
    /// can poll "did a swap roll back since I last looked" without
    /// contending with the scoring path.
    rollbacks: AtomicU64,
    inner: Mutex<Inner>,
}

/// Poisoned-lock recovery: swap bookkeeping must never take the scoring
/// path down; the trace and pending window have no invariant worth dying
/// for.
fn locked(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SwapController {
    /// A controller serving `active_gen` with no swap in flight.
    pub fn new(active_gen: u64, cfg: SwapConfig) -> Self {
        Self {
            cfg,
            active: AtomicU64::new(active_gen),
            version: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                active_scorer: None,
                pending: None,
                transitions: Vec::new(),
                promote_hook: None,
            }),
        }
    }

    /// The generation new admissions score on.
    pub fn active_gen(&self) -> u64 {
        // Qualified call: the token-based call-graph audit would alias a
        // bare `.load(…)` to the workspace's checkpoint-loading fns.
        AtomicU64::load(&self.active, Ordering::Acquire)
    }

    /// Monotonic counter bumped on every scorer install / shadow start /
    /// promote / rollback; workers re-read the shared scorers when it
    /// moves.
    pub fn version(&self) -> u64 {
        AtomicU64::load(&self.version, Ordering::Acquire)
    }

    /// The swap tunables.
    pub fn config(&self) -> SwapConfig {
        self.cfg
    }

    /// Number of resolved swap attempts that ended in a rollback.
    /// Lock-free: reads the mirrored counter, safe to poll per request.
    pub fn rollbacks(&self) -> u64 {
        AtomicU64::load(&self.rollbacks, Ordering::Acquire)
    }

    /// Installs the durable promotion hook (registry pointer flip).
    pub fn set_promote_hook(&self, hook: PromoteHook) {
        locked(&self.inner).promote_hook = Some(hook);
    }

    /// Installs the active generation's scorer (server start-up).
    fn install(&self, scorer: Arc<dyn Scorer>) {
        locked(&self.inner).active_scorer = Some(scorer);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// A worker view of the shared scorers, read under one lock so the
    /// version and both scorers agree; `None` before [`Self::install`].
    fn worker_view(&self) -> Option<WorkerModel> {
        let inner = locked(&self.inner);
        Some(WorkerModel {
            version: self.version(),
            primary_gen: self.active_gen(),
            primary: Arc::clone(inner.active_scorer.as_ref()?),
            shadow: inner
                .pending
                .as_ref()
                .and_then(|p| Some((p.to_gen, Arc::clone(p.candidate.as_ref()?)))),
        })
    }

    /// Drops the active and candidate scorers once no worker reads them
    /// (the server has joined its workers), so a model does not outlive the
    /// server through a still-shared [`ServiceShared`]. A pending window
    /// stays open, without its candidate, for [`Self::resolve_now`].
    pub(crate) fn release_scorers(&self) {
        let mut inner = locked(&self.inner);
        inner.active_scorer = None;
        if let Some(p) = &mut inner.pending {
            p.candidate = None;
        }
    }

    /// The candidate generation currently being shadowed, if any.
    pub fn shadow_pending(&self) -> Option<u64> {
        locked(&self.inner).pending.as_ref().map(|p| p.to_gen)
    }

    /// Snapshot of the resolved transition trace, oldest first.
    pub fn transitions(&self) -> Vec<SwapTransition> {
        locked(&self.inner).transitions.clone()
    }

    /// Records a swap attempt that failed before shadowing could start
    /// (validation, probe): the trace gets a rolled-back entry and the
    /// serving generation is untouched.
    pub fn record_rejected(&self, seq: u64, to_gen: u64, reason: RollbackReason) {
        let from_gen = self.active_gen();
        let mut inner = locked(&self.inner);
        inner.transitions.push(SwapTransition {
            seq,
            from_gen,
            to_gen,
            outcome: SwapOutcome::RolledBack(reason),
        });
        AtomicU64::fetch_add(&self.rollbacks, 1, Ordering::Release);
    }

    /// Opens the shadow window for `to_gen`, scored by `candidate`. With a
    /// zero shadow budget the attempt resolves immediately (promotion on
    /// validation alone). `forced_divergence` is the injected
    /// shadow-divergence fault: every shadow observation in this window
    /// reads as zero overlap.
    pub fn begin_shadow(
        &self,
        faults: &FaultInjector,
        seq: u64,
        to_gen: u64,
        candidate: Arc<dyn Scorer>,
        forced_divergence: bool,
    ) -> Result<(), SwapError> {
        let mut inner = locked(&self.inner);
        if let Some(p) = &inner.pending {
            return Err(SwapError::InProgress { pending_gen: p.to_gen });
        }
        if to_gen == self.active_gen() {
            return Err(SwapError::SameGeneration { gen: to_gen });
        }
        let budget = self.cfg.shadow_requests;
        inner.pending = Some(Pending {
            seq,
            to_gen,
            candidate: Some(candidate),
            budget,
            remaining: budget,
            shadowed: 0,
            min_overlap: 1.0,
            forced_divergence,
            failed: None,
        });
        if budget == 0 {
            self.resolve(&mut inner, faults);
        }
        // Workers see the bump and pick up the shared candidate.
        self.version.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Feeds one shadow observation (top-K overlap of the candidate vs.
    /// the served ranking) into the pending window; resolves the swap when
    /// the budget is spent. Observations for a generation that is no
    /// longer pending are ignored (a racing worker past resolution).
    pub fn record_shadow(&self, faults: &FaultInjector, to_gen: u64, overlap: f64) {
        let mut inner = locked(&self.inner);
        let Some(p) = &mut inner.pending else { return };
        if p.to_gen != to_gen {
            return;
        }
        let observed = if p.forced_divergence { 0.0 } else { overlap };
        p.shadowed += 1;
        if observed < p.min_overlap {
            p.min_overlap = observed;
        }
        p.remaining = p.remaining.saturating_sub(1);
        if p.remaining == 0 {
            self.resolve(&mut inner, faults);
        }
    }

    /// Marks the pending window as failed (shadow scoring error, NaN) and
    /// resolves it immediately — instant rollback, the serving generation
    /// never changes.
    pub fn record_shadow_failure(
        &self,
        faults: &FaultInjector,
        to_gen: u64,
        reason: RollbackReason,
    ) {
        let mut inner = locked(&self.inner);
        let Some(p) = &mut inner.pending else { return };
        if p.to_gen != to_gen {
            return;
        }
        p.failed = Some(reason);
        self.resolve(&mut inner, faults);
    }

    /// Resolves a still-open window with the evidence at hand (bench or
    /// server shutdown): promotes only when at least one shadowed request
    /// was observed and none diverged; otherwise rolls back as expired.
    pub fn resolve_now(&self, faults: &FaultInjector) {
        let mut inner = locked(&self.inner);
        if inner.pending.is_some() {
            self.resolve(&mut inner, faults);
        }
    }

    /// Resolves the pending attempt: decides promote vs. rollback, runs
    /// the durable hook, moves a promoted candidate into the active slot,
    /// and appends to the trace. Caller holds the lock; `pending` must be
    /// `Some`.
    fn resolve(&self, inner: &mut Inner, faults: &FaultInjector) {
        let Some(p) = inner.pending.take() else { return };
        let from_gen = self.active_gen();
        let outcome = if let Some(reason) = p.failed {
            SwapOutcome::RolledBack(reason)
        } else if p.shadowed == 0 && p.budget > 0 {
            SwapOutcome::RolledBack(RollbackReason::WindowExpired)
        } else if p.min_overlap < self.cfg.min_overlap {
            SwapOutcome::RolledBack(RollbackReason::ShadowDivergence)
        } else {
            match &inner.promote_hook {
                Some(hook) => match hook(p.seq, p.to_gen, faults) {
                    Ok(PromoteOutcome::Flipped) => SwapOutcome::Promoted,
                    Ok(PromoteOutcome::KilledMidFlip) => {
                        SwapOutcome::RolledBack(RollbackReason::KilledMidFlip)
                    }
                    Err(_) => SwapOutcome::RolledBack(RollbackReason::ValidationFailed),
                },
                None => SwapOutcome::Promoted,
            }
        };
        if outcome == SwapOutcome::Promoted {
            self.active.store(p.to_gen, Ordering::Release);
            inner.active_scorer = p.candidate;
        } else {
            AtomicU64::fetch_add(&self.rollbacks, 1, Ordering::Release);
        }
        inner.transitions.push(SwapTransition { seq: p.seq, from_gen, to_gen: p.to_gen, outcome });
        self.version.fetch_add(1, Ordering::Release);
    }
}

/// One worker thread's view of the model lifecycle: the shared scorer of
/// the active generation, plus (while a swap is shadowing) the shared
/// candidate scored alongside it.
///
/// The view is re-read only *between* requests, on a version change —
/// in-flight work drains on the scorer it started with. Every worker
/// holds `Arc`s to the same scorers; none builds its own.
#[derive(Clone)]
pub struct WorkerModel {
    version: u64,
    primary_gen: u64,
    primary: Arc<dyn Scorer>,
    shadow: Option<(u64, Arc<dyn Scorer>)>,
}

impl WorkerModel {
    /// Builds the active generation's scorer — once — and installs it in
    /// the controller. Clone the returned view for every further worker.
    pub fn build(shared: &ServiceShared, factory: &GenScorerFactory) -> Result<Self, String> {
        shared.swap.install(Arc::from(factory(shared.swap.active_gen())?));
        shared.swap.worker_view().ok_or_else(|| "no scorer installed".to_string())
    }

    /// The generation this worker's primary scorer belongs to.
    pub fn primary_gen(&self) -> u64 {
        self.primary_gen
    }

    /// Runs one admitted request: re-reads the shared scorers if the swap
    /// version moved, scores on the primary, and (while shadowing) scores
    /// the candidate alongside — outside the request's deadline, so
    /// shadowing can never reject or slow the caller's answer. `ctx` is
    /// the request's carried trace context; the shadow pass shows up in
    /// the stitched tree as a `shadow` span so its (off-deadline) cost
    /// stays visible.
    // pup-hot: swap-request
    pub fn handle(
        &mut self,
        shared: &ServiceShared,
        req: Request,
        deadline: &mut crate::deadline::Deadline,
        ctx: &pup_obs::trace::TraceContext,
    ) -> Result<Response, crate::ServeError> {
        if shared.swap.version() != self.version {
            if let Some(view) = shared.swap.worker_view() {
                *self = view;
            }
        }
        let result = crate::engine::process(shared, self.primary.as_ref(), req, deadline, ctx);
        if self.shadow.is_some() {
            if let Ok(resp) = &result {
                if resp.source == crate::Source::Primary {
                    let _shadow = ctx.span("shadow");
                    self.shadow_observe(shared, req, resp);
                }
            }
        }
        result
    }

    /// Scores the shadow candidate for a primary-answered request, diffs
    /// the rankings, and reports the observation to the controller + stats.
    fn shadow_observe(&self, shared: &ServiceShared, req: Request, resp: &Response) {
        let Some((to_gen, candidate)) = &self.shadow else { return };
        let to_gen = *to_gen;
        let fail = |reason| {
            shared.stats.note_shadow_error();
            shared.swap.record_shadow_failure(&shared.faults, to_gen, reason);
        };
        shared.stats.note_shadow_scored();
        let Ok(shadow_scores) = candidate.score(req.user) else {
            return fail(RollbackReason::ShadowError);
        };
        if shadow_scores.iter().any(|s| s.is_nan()) {
            return fail(RollbackReason::NanProbe);
        }
        let seen = shared.fallback.seen_items(req.user);
        let Ok(shadow_ranked) = try_rank_unseen(&shadow_scores, candidate.n_items(), seen, req.k)
        else {
            return fail(RollbackReason::ShadowError);
        };
        let overlap = topk_overlap(&resp.items, &shadow_ranked);
        // Score deltas need the primary's scores, which the response does
        // not carry; re-score here, off the request's deadline (the shadow
        // window is bounded, so the extra pass is too).
        let delta = match self.primary.score(req.user) {
            Ok(primary_scores) => mean_abs_delta(&resp.items, &primary_scores, &shadow_scores),
            Err(_) => 0.0,
        };
        shared.stats.observe_shadow(overlap, delta);
        shared.swap.record_shadow(&shared.faults, to_gen, overlap);
    }
}

/// Overlap@K of two rankings: |intersection| / the longer length. Two
/// empty rankings agree perfectly.
fn topk_overlap(served: &[u32], shadow: &[u32]) -> f64 {
    let denom = served.len().max(shadow.len());
    if denom == 0 {
        return 1.0;
    }
    let hits = served.iter().filter(|i| shadow.contains(i)).count();
    hits as f64 / denom as f64
}

/// Mean |primary − shadow| score difference over the served items.
fn mean_abs_delta(served: &[u32], primary: &[f64], shadow: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    for &item in served {
        let idx = item as usize;
        if let (Some(p), Some(s)) = (primary.get(idx), shadow.get(idx)) {
            sum += (p - s).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// Kicks off a swap to `to_gen` against `registry`: consumes this
/// attempt's chaos faults, validates the candidate (manifest, checksum,
/// payload decode, NaN probe), and opens the shadow window with the
/// probed scorer as the shared candidate. A validation failure is an
/// *instant* rollback — recorded in the trace, surfaced as a typed
/// [`SwapError`], serving generation untouched. The registry check runs
/// beside the candidate's build (see [`checked_build`]).
pub fn initiate_swap(
    shared: &ServiceShared,
    registry: &ModelRegistry,
    factory: &GenScorerFactory,
    to_gen: u64,
) -> Result<(), SwapError> {
    let seq = shared.faults.next_swap_attempt();
    shared.stats.note_swap_started();
    if shared.faults.fire_swap_corrupt(seq) {
        // The injected fault damages the candidate on disk *before*
        // validation — validation must now catch it.
        let _ = registry.corrupt_generation_for_chaos(to_gen);
    }
    let forced_divergence = shared.faults.fire_shadow_divergence(seq);
    let invalid = |detail: String| {
        shared.swap.record_rejected(seq, to_gen, RollbackReason::ValidationFailed);
        Err(SwapError::Validation { gen: to_gen, detail })
    };
    let probe: Arc<dyn Scorer> = match checked_build(registry, factory, to_gen) {
        Ok(p) => Arc::from(p),
        Err(detail) => return invalid(detail),
    };
    let n_probes = if shared.n_users == usize::MAX {
        shared.swap.config().probe_users
    } else {
        shared.n_users.min(shared.swap.config().probe_users)
    };
    for user in 0..n_probes {
        match probe.score(user) {
            Ok(scores) => {
                if scores.iter().any(|s| s.is_nan()) {
                    shared.swap.record_rejected(seq, to_gen, RollbackReason::NanProbe);
                    return Err(SwapError::NanProbe { gen: to_gen, user });
                }
            }
            Err(e) => return invalid(e.to_string()),
        }
    }
    shared.swap.begin_shadow(&shared.faults, seq, to_gen, probe, forced_divergence)
}

/// Checks generation `to_gen` in `registry` and builds its scorer, the two
/// side by side: the check on a scoped thread of its own, the build on the
/// caller's thread, so the factory's telemetry stays where it was. The
/// verdict is the serial one: a failed check wins, with its own detail,
/// whatever the build did; a passed check returns the build's result. If
/// no thread can be started, the check runs first and the build only after
/// it passed, as in a serial swap.
fn checked_build(
    registry: &ModelRegistry,
    factory: &GenScorerFactory,
    to_gen: u64,
) -> Result<Box<dyn Scorer>, String> {
    std::thread::scope(|s| {
        let check = std::thread::Builder::new().spawn_scoped(s, || registry.validate(to_gen));
        let built = check.is_ok().then(|| factory(to_gen));
        let checked = match check {
            Ok(handle) => handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Err(_) => registry.validate(to_gen),
        };
        checked.map_err(|e| e.to_string())?;
        built.unwrap_or_else(|| factory(to_gen))
    })
}

/// Installs the standard durable promotion hook: the registry's atomic
/// pointer flip, with the kill-mid-flip fault consumed from the shared
/// plan at flip time.
pub fn wire_registry_promotion(shared: &ServiceShared, registry: ModelRegistry) {
    shared.swap.set_promote_hook(Box::new(move |seq, gen, faults| {
        let kill = faults.fire_swap_kill_flip(seq);
        registry.promote_chaos(gen, kill).map_err(|e| e.to_string())
    }));
}
