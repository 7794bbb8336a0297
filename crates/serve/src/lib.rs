//! # pup-serve
//!
//! Fault-tolerant top-K scoring service over trained PUP-repro models.
//!
//! Offline evaluation can afford to crash on a bad input and re-run; a
//! scoring service answering live traffic cannot. Every request entering
//! this crate flows through an explicit resilience pipeline and leaves it
//! in exactly one of two ways: a [`Response`] carrying ranked items (tagged
//! primary vs. degraded via [`Source`]), or a typed [`ServeError`]
//! rejection. Never a panic, never an unbounded wait.
//!
//! The pipeline, stage by stage:
//!
//! ```text
//!           submit
//!             │  admission control: user-id validity, bounded queue
//!             ▼  (over capacity → ServeError::QueueFull, shed)
//!        ┌─────────┐
//!        │  queue  │  bounded, FIFO; depth gauge
//!        └────┬────┘
//!             ▼  deadline check (budget spent in queue → typed rejection)
//!        ┌──────────┐    closed/half-open     ┌──────────────┐
//!        │ breaker? ├────────────────────────▶│ primary score│──retry──┐
//!        └────┬─────┘                         └──────┬───────┘ backoff │
//!             │ open                                 │ ok        ▲─────┘
//!             ▼                                      ▼
//!        ┌──────────┐                         ┌──────────────┐
//!        │ fallback │  popularity top-K       │  rank top-K  │
//!        └────┬─────┘                         └──────┬───────┘
//!             ▼                                      ▼
//!          Response(degraded)                  Response(primary)
//! ```
//!
//! Determinism is a design constraint, not an accident: the circuit breaker
//! counts logical requests instead of wall-clock time, injected latency
//! (via `pup_ckpt::chaos::FaultPlan`) is charged as *virtual* nanoseconds
//! against the deadline budget rather than slept, and retry backoff is
//! charged the same way — so a chaos test replays the exact same breaker
//! transition trace for the same fault schedule, with no real waiting.

pub mod breaker;
pub mod deadline;
pub mod engine;
pub mod fallback;
pub mod faults;
pub mod flight;
pub mod loadgen;
pub mod net;
pub mod queue;
pub mod scorer;
pub mod server;
pub mod stats;
pub mod swap;

use std::fmt;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Transition};
pub use deadline::Deadline;
pub use engine::ServiceShared;
pub use fallback::Fallback;
pub use faults::{AttemptFaults, FaultInjector};
pub use flight::PostMortem;
pub use loadgen::{run_closed_loop, BenchConfig, SwapPlan};
pub use net::{Gateway, NetConfig, NetError, NetReport, TenantConfig};
pub use pup_models::ScoreError;
pub use queue::AdmissionQueue;
pub use scorer::{RecommenderScorer, Scorer};
pub use server::{ResponseHandle, Server};
pub use stats::{ServeReport, ServeStats};
pub use swap::{
    initiate_swap, wire_registry_promotion, GenScorerFactory, RollbackReason, SwapConfig,
    SwapController, SwapError, SwapOutcome, SwapTransition, WorkerModel,
};

/// Pipeline stage at which a deadline was found exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The budget ran out while the request waited in the admission queue.
    Queue,
    /// The budget ran out during (or because of) a primary scoring attempt.
    Score,
    /// The budget ran out while ranking the scored candidates.
    Rank,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Queue => "queue",
            Stage::Score => "score",
            Stage::Rank => "rank",
        })
    }
}

/// Typed rejection: the one alternative to a ranked [`Response`].
///
/// Every variant is an explicit, recoverable service answer — the caller
/// can retry later ([`QueueFull`](Self::QueueFull)), fix the request
/// ([`Score`](Self::Score)), or give up cleanly. None of them ever
/// manifests as a panic or a hang inside the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Load shedding: the bounded admission queue is at capacity.
    QueueFull {
        /// Configured queue capacity that was hit.
        capacity: usize,
    },
    /// The per-request deadline budget was exhausted at `stage`.
    DeadlineExceeded {
        /// Stage at which the exhaustion was detected.
        stage: Stage,
        /// The request's total budget in nanoseconds.
        budget_ns: u64,
    },
    /// The request carried a malformed id (unknown user, bad candidate).
    Score(ScoreError),
    /// The service is shutting down and no longer admits requests.
    Shutdown,
    /// The active generation's scorer could not be built at startup.
    WorkerInit(String),
    /// The worker answering this request died before replying. Indicates a
    /// bug (workers never panic by contract); surfaced instead of hanging.
    ChannelClosed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "request shed: admission queue at capacity ({capacity})")
            }
            Self::DeadlineExceeded { stage, budget_ns } => {
                write!(f, "deadline of {budget_ns}ns exhausted at stage `{stage}`")
            }
            Self::Score(e) => write!(f, "scoring rejected the request: {e}"),
            Self::Shutdown => f.write_str("service is shutting down"),
            Self::WorkerInit(e) => write!(f, "failed to build the serving scorer: {e}"),
            Self::ChannelClosed => f.write_str("worker died before replying"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ScoreError> for ServeError {
    fn from(e: ScoreError) -> Self {
        Self::Score(e)
    }
}

/// A top-K recommendation request.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// User to recommend for.
    pub user: usize,
    /// Number of items wanted.
    pub k: usize,
}

/// Who produced the ranking in a [`Response`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The primary model scored the request.
    Primary,
    /// Fallback ranking: the circuit breaker was open (or half-open and
    /// this request was not the probe).
    DegradedBreakerOpen,
    /// Fallback ranking: the remaining deadline budget could not fit a
    /// full primary score pass.
    DegradedDeadline,
    /// Fallback ranking: the primary scorer kept failing after retries.
    DegradedScorerFailed,
}

impl Source {
    /// Whether the response came from the degraded (fallback) path.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, Source::Primary)
    }

    /// Stable label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Source::Primary => "primary",
            Source::DegradedBreakerOpen => "degraded(breaker-open)",
            Source::DegradedDeadline => "degraded(deadline)",
            Source::DegradedScorerFailed => "degraded(scorer-failed)",
        }
    }
}

/// A served recommendation: the service's affirmative answer.
#[derive(Clone, Debug)]
pub struct Response {
    /// The requesting user.
    pub user: usize,
    /// Ranked item ids, best first, at most `k` of them.
    pub items: Vec<u32>,
    /// Primary or degraded provenance of the ranking.
    pub source: Source,
    /// Total latency charged to the request: real elapsed time plus
    /// virtual nanoseconds from injected spikes and retry backoff.
    pub latency_ns: u64,
    /// Primary scoring retries this request consumed.
    pub retries: u32,
}

/// Tunables of the resilience pipeline.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bounded admission-queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Worker threads; all of them share one scorer per model generation.
    pub workers: usize,
    /// Per-request deadline budget in nanoseconds.
    pub deadline_ns: u64,
    /// Primary scoring retries after the first failed attempt.
    pub max_retries: u32,
    /// Base backoff charged (virtually) before retry `n` as
    /// `retry_backoff_ns << n`.
    pub retry_backoff_ns: u64,
    /// Estimated cost of one full primary score pass; when the remaining
    /// budget drops below this, the request degrades to the fallback
    /// instead of starting a primary attempt it cannot finish.
    pub primary_cost_hint_ns: u64,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            workers: 2,
            deadline_ns: 50_000_000, // 50ms
            max_retries: 2,
            retry_backoff_ns: 100_000,       // 100µs, doubling
            primary_cost_hint_ns: 1_000_000, // 1ms
            breaker: BreakerConfig::default(),
        }
    }
}
