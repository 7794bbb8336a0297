//! Serving chaos tests: scripted fault schedules drive the full resilience
//! pipeline and the breaker's transition trace is asserted exactly —
//! including bit-for-bit reproducibility across two same-seed runs.
//!
//! Determinism holds because the breaker counts logical requests (not
//! wall-clock time) and injected latency is charged as virtual nanoseconds
//! instead of slept, so a single-worker, single-client run has a fully
//! scripted attempt order.

#![allow(clippy::expect_used)]

use std::sync::Arc;

use pup_ckpt::chaos::FaultPlan;
use pup_serve::breaker::Transition;
use pup_serve::engine::handle_now;
use pup_serve::{
    run_closed_loop, BenchConfig, BreakerConfig, BreakerState, Fallback, GenScorerFactory, Request,
    ScoreError, Scorer, ServeConfig, ServeError, ServiceShared, Source,
};

/// Deterministic stand-in for a model replica: favors high item ids.
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

const N_USERS: usize = 4;
const N_ITEMS: usize = 8;

fn fallback() -> Fallback {
    Fallback::from_train(N_USERS, N_ITEMS, &[(0, 1), (1, 2), (2, 3), (3, 2)]).expect("fallback")
}

/// Breaker thresholds small enough to walk the whole lifecycle in a few
/// requests: trip after 3 consecutive failures, half-open after 2 skipped
/// requests, close after 2 probe successes.
fn chaos_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_retries: 0,
        breaker: BreakerConfig { failure_threshold: 3, cooldown_requests: 2, close_after: 2 },
        ..Default::default()
    }
}

/// Runs `n` synchronous requests through a fresh service with `plan` and
/// returns (per-request sources, breaker trace).
fn run_sync(plan: FaultPlan, n: usize) -> (Vec<Source>, Vec<Transition>) {
    let shared = ServiceShared::with_faults(chaos_config(), fallback(), N_USERS, plan);
    let scorer = Linear { n_users: N_USERS, n_items: N_ITEMS };
    let mut sources = Vec::new();
    for i in 0..n {
        let resp = handle_now(&shared, &scorer, Request { user: i % N_USERS, k: 3 })
            .expect("every admitted request is answered under scorer faults");
        sources.push(resp.source);
    }
    (sources, shared.breaker.trace())
}

#[test]
fn breaker_walks_closed_open_halfopen_closed() {
    // Attempts 0,1,2 fail -> trip; 2 requests cool down; 2 probes close.
    let plan = FaultPlan::scorer_errors_at([0, 1, 2]);
    let (sources, trace) = run_sync(plan, 8);

    assert_eq!(
        sources,
        vec![
            Source::DegradedScorerFailed, // fault 0, retries exhausted
            Source::DegradedScorerFailed, // fault 1
            Source::DegradedScorerFailed, // fault 2 -> breaker trips
            Source::DegradedBreakerOpen,  // cooldown 2 -> 1
            Source::Primary,              // cooldown exhausts: half-open probe
            Source::Primary,              // second probe success -> closed
            Source::Primary,
            Source::Primary,
        ],
        "each request's provenance must be tagged"
    );
    assert_eq!(
        trace,
        vec![
            Transition { seq: 3, from: BreakerState::Closed, to: BreakerState::Open },
            Transition { seq: 5, from: BreakerState::Open, to: BreakerState::HalfOpen },
            Transition { seq: 6, from: BreakerState::HalfOpen, to: BreakerState::Closed },
        ]
    );
}

#[test]
fn half_open_failure_retrips_the_breaker() {
    // The half-open probe (attempt 3 after three failed attempts) fails too:
    // the breaker must re-open immediately, then recover on the next cycle.
    let plan = FaultPlan::scorer_errors_at([0, 1, 2, 3]);
    let (sources, trace) = run_sync(plan, 9);

    assert_eq!(sources[4], Source::DegradedScorerFailed, "failed probe");
    assert_eq!(sources[5], Source::DegradedBreakerOpen, "re-opened");
    assert_eq!(sources[8], Source::Primary, "recovered after second cycle");
    let states: Vec<(BreakerState, BreakerState)> = trace.iter().map(|t| (t.from, t.to)).collect();
    assert_eq!(
        states,
        vec![
            (BreakerState::Closed, BreakerState::Open),
            (BreakerState::Open, BreakerState::HalfOpen),
            (BreakerState::HalfOpen, BreakerState::Open), // probe failed
            (BreakerState::Open, BreakerState::HalfOpen),
            (BreakerState::HalfOpen, BreakerState::Closed),
        ]
    );
}

#[test]
fn same_fault_schedule_replays_identical_transition_trace() {
    let plan = || FaultPlan::scorer_errors_at([0, 1, 2, 7]).with_latency_spikes([(5, 2_000_000)]);
    let (sources_a, trace_a) = run_sync(plan(), 12);
    let (sources_b, trace_b) = run_sync(plan(), 12);
    assert_eq!(trace_a, trace_b, "breaker transitions must be bit-reproducible");
    assert_eq!(sources_a, sources_b, "per-request provenance must be reproducible");
    assert!(!trace_a.is_empty(), "the schedule must actually exercise the breaker");
}

#[test]
fn closed_loop_chaos_run_is_reproducible_and_meets_slo() {
    let run = || {
        let plan = FaultPlan::scorer_errors_at([3, 4, 5, 6])
            .with_latency_spikes([(10, 5_000_000), (20, 5_000_000)]);
        let cfg = ServeConfig {
            workers: 1,
            max_retries: 0,
            breaker: BreakerConfig { failure_threshold: 3, cooldown_requests: 4, close_after: 2 },
            ..Default::default()
        };
        let shared = Arc::new(ServiceShared::with_faults(cfg, fallback(), N_USERS, plan));
        let factory: GenScorerFactory =
            Arc::new(|_gen| Ok(Box::new(Linear { n_users: N_USERS, n_items: N_ITEMS })));
        let bench = BenchConfig { requests: 60, clients: 1, k: 3, seed: 42 };
        run_closed_loop(Arc::clone(&shared), factory, bench, None).expect("chaos bench must finish")
    };
    let a = run();
    let b = run();

    // Zero hangs or panics: every submitted request ended in exactly one bucket.
    assert_eq!(a.submitted, 60);
    assert_eq!(a.submitted, a.admitted + a.shed);
    assert_eq!(a.admitted, a.primary + a.degraded() + a.rejected_deadline + a.rejected_invalid);
    assert_eq!(a.faults_pending, 0, "the whole fault schedule must fire");
    assert_eq!(a.scorer_faults, 4);
    assert_eq!(a.latency_spikes, 2);

    // Degradation kept the service available through the faults.
    assert!(a.availability >= 0.99, "availability {} under faults", a.availability);
    assert!(a.degraded() >= 4, "faulted requests must be answered degraded");

    // Every answered request fit its deadline budget, enforced at p99:
    // virtual spike charges included, 5ms spikes fit the 50ms budget.
    let total = a.total_ns.as_ref().expect("latency histogram has samples");
    assert!(
        total.p99 <= a_deadline_ns() as f64,
        "p99 {}ns exceeds the {}ns deadline budget",
        total.p99,
        a_deadline_ns()
    );

    // Same seed, same schedule -> same trace and same counters.
    assert_eq!(a.breaker_trace, b.breaker_trace);
    assert_eq!(
        (a.primary, a.degraded(), a.shed, a.scorer_faults, a.latency_spikes),
        (b.primary, b.degraded(), b.shed, b.scorer_faults, b.latency_spikes)
    );
}

fn a_deadline_ns() -> u64 {
    ServeConfig::default().deadline_ns
}

/// A scorer that parks inside `score` until the test releases it, so the
/// test can deterministically fill the admission queue behind it.
struct Gated {
    inner: Linear,
    started: std::sync::mpsc::Sender<()>,
    release: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
}

impl Scorer for Gated {
    fn name(&self) -> &str {
        "gated"
    }
    fn n_items(&self) -> usize {
        self.inner.n_items
    }
    fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
        let _ = self.started.send(());
        let (lock, cv) = &*self.release;
        let mut open = lock.lock().expect("gate lock");
        while !*open {
            open = cv.wait(open).expect("gate wait");
        }
        self.inner.score(user)
    }
}

#[test]
fn over_capacity_submissions_are_shed_with_typed_rejections() {
    let cfg = ServeConfig { queue_capacity: 1, workers: 1, ..Default::default() };
    let shared = Arc::new(ServiceShared::new(cfg, fallback(), N_USERS));
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let release = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let factory: GenScorerFactory = {
        let release = Arc::clone(&release);
        Arc::new(move |_gen| {
            Ok(Box::new(Gated {
                inner: Linear { n_users: N_USERS, n_items: N_ITEMS },
                started: started_tx.clone(),
                release: Arc::clone(&release),
            }))
        })
    };
    let server =
        pup_serve::Server::start_with_generations(Arc::clone(&shared), factory).expect("start");

    // First request: the lone worker picks it up and parks inside score().
    let h1 = server.submit(Request { user: 0, k: 2 }).expect("admitted");
    started_rx.recv().expect("worker reached the scorer");
    // Second request: occupies the single queue slot.
    let h2 = server.submit(Request { user: 1, k: 2 }).expect("admitted into queue");
    // Everything beyond capacity is shed with a typed rejection, no blocking.
    for u in 0..4 {
        match server.submit(Request { user: u % N_USERS, k: 2 }) {
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 1),
            Ok(_) => panic!("over-capacity submission must be shed"),
            Err(e) => panic!("expected QueueFull, got {e}"),
        }
    }

    // Open the gate; both admitted requests complete.
    {
        let (lock, cv) = &*release;
        *lock.lock().expect("gate lock") = true;
        cv.notify_all();
    }
    assert!(h1.wait().is_ok());
    assert!(h2.wait().is_ok());
    server.shutdown();

    let report = shared.stats.report(&shared.breaker, &shared.faults);
    assert_eq!(report.shed, 4);
    assert_eq!(report.admitted, 2);
    assert!((report.availability - 1.0).abs() < 1e-12, "all admitted work answered");
}
