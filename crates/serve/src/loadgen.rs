//! Load generators for `pup serve-bench` and `pup net-bench`.
//!
//! Two arrival disciplines, one determinism contract:
//!
//! - **Closed loop** ([`run_closed_loop`]): each client thread submits a
//!   request, blocks on its answer, then submits the next. Offered
//!   concurrency stays bounded at `clients`, which makes shed counts
//!   meaningful.
//! - **Open loop** ([`open_loop_plan`]): arrivals follow a seeded Poisson
//!   or bursty schedule in *virtual* time, independent of how fast the
//!   server answers — the realistic regime where offered load can exceed
//!   capacity and the admission queue's shedding actually matters.
//!   `pup net-bench` plays the plan over HTTP. User ids are
//!   Zipf-distributed (a few hot users dominate, like real recommendation
//!   traffic), and every Nth arrival can be marked as a slow client for
//!   the network layer to turn into a stall injection.
//!
//! Either way, a given seed replays the identical request stream — and,
//! for the open loop, the identical arrival timestamps, which is what
//! makes the gateway's token-bucket `429` sequence reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pup_ckpt::registry::ModelRegistry;
use rand::{Rng, SeedableRng};

use crate::engine::ServiceShared;
use crate::server::Server;
use crate::stats::ServeReport;
use crate::swap::{initiate_swap, wire_registry_promotion, GenScorerFactory};
use crate::{Request, ServeError};

/// Shape of one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Total requests issued across all clients.
    pub requests: usize,
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Top-K size each request asks for.
    pub k: usize,
    /// Base seed; client `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self { requests: 200, clients: 4, k: 10, seed: 7 }
    }
}

/// A hot swap to trigger mid-load: once the `at_request`-th submission
/// goes out, one client initiates adoption of generation `to_gen`.
#[derive(Clone, Copy, Debug)]
pub struct SwapPlan {
    /// Global submission index at which the swap is initiated.
    pub at_request: u64,
    /// Candidate generation to adopt.
    pub to_gen: u64,
}

/// Runs the closed loop against a freshly started server and returns the
/// aggregated report. Every request ends in exactly one bucket: answered
/// (primary or degraded) or typed-rejected — a panic or hang anywhere in
/// the pipeline fails the bench. With `swap` set, promotion is wired into
/// the registry's `CURRENT` pointer, and the client whose submission
/// counter hits `at_request` initiates the swap while traffic keeps
/// flowing.
pub fn run_closed_loop(
    shared: Arc<ServiceShared>,
    factory: GenScorerFactory,
    bench: BenchConfig,
    swap: Option<(SwapPlan, ModelRegistry)>,
) -> Result<ServeReport, ServeError> {
    if let Some((_, registry)) = &swap {
        wire_registry_promotion(&shared, registry.clone());
    }
    let server = Server::start_with_generations(Arc::clone(&shared), factory.clone())?;
    let clients = bench.clients.max(1);
    let per_client = bench.requests / clients;
    let remainder = bench.requests % clients;
    let n_users = shared.n_users;
    let submitted = AtomicU64::new(0);
    // Scoped threads borrow the server instead of sharing an Arc, so the
    // shutdown below is *unconditional* — the previous Arc::try_unwrap
    // formulation silently skipped it whenever a clone outlived the join,
    // leaking worker threads past the bench.
    std::thread::scope(|scope| {
        for client in 0..clients {
            let server = &server;
            let shared = &shared;
            let factory = &factory;
            let submitted = &submitted;
            let swap = swap.as_ref();
            let quota = per_client + usize::from(client < remainder);
            let mut rng = rand::rngs::StdRng::seed_from_u64(bench.seed + client as u64);
            let k = bench.k;
            scope.spawn(move || {
                for _ in 0..quota {
                    let seq = submitted.fetch_add(1, Ordering::Relaxed);
                    if let Some((plan, registry)) = swap {
                        if seq == plan.at_request {
                            // Initiation failures (validation, NaN probe) are
                            // already recorded as rolled-back transitions; the
                            // bench keeps serving the old generation.
                            let _ = initiate_swap(shared, registry, factory, plan.to_gen);
                        }
                    }
                    let user = if n_users == usize::MAX || n_users == 0 {
                        rng.gen_range(0..1024usize)
                    } else {
                        rng.gen_range(0..n_users)
                    };
                    // Closed loop: wait for the answer before the next send.
                    // A shed / invalid / shutdown rejection is a legal terminal
                    // outcome; the stats already counted it.
                    if let Ok(handle) = server.submit(Request { user, k }) {
                        let _ = handle.wait();
                    }
                }
            });
        }
    });
    server.shutdown();
    // A swap whose shadow window outlived the traffic resolves now, on
    // whatever evidence the window gathered.
    shared.swap.resolve_now(&shared.faults);
    // One last trigger poll: a rollback resolved just above (or a page /
    // trip on the final request) must still produce its post-mortem dump.
    if let Some(postmortem) = &shared.postmortem {
        postmortem.poll(&shared);
    }
    Ok(shared.report())
}

/// The arrival process of an open-loop run, in virtual nanoseconds.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Poisson arrivals: exponential inter-arrival gaps with this mean.
    Poisson {
        /// Mean gap between consecutive arrivals.
        mean_gap_ns: u64,
    },
    /// Bursty arrivals: `burst` requests spaced `gap_ns` apart, then an
    /// idle period of `idle_ns`, repeating.
    Bursty {
        /// Requests per burst.
        burst: usize,
        /// Gap between requests inside a burst.
        gap_ns: u64,
        /// Idle time between bursts.
        idle_ns: u64,
    },
}

/// Shape of one open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Total arrivals to generate.
    pub requests: usize,
    /// Top-K size each request asks for.
    pub k: usize,
    /// Seed for both the arrival gaps and the user draw.
    pub seed: u64,
    /// The arrival process.
    pub arrivals: Arrivals,
    /// Zipf exponent for the user popularity skew (`0.0` = uniform;
    /// `~1.0` = realistic head-heavy traffic).
    pub zipf_exponent: f64,
    /// Mark every Nth arrival as a slow client (`0` disables). The
    /// in-process runner ignores the mark; the network layer turns it
    /// into a mid-request stall injection.
    pub slow_every: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            requests: 200,
            k: 10,
            seed: 7,
            arrivals: Arrivals::Poisson { mean_gap_ns: 200_000 },
            zipf_exponent: 1.0,
            slow_every: 0,
        }
    }
}

/// One scheduled arrival of an open-loop plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Virtual timestamp of the arrival, nanoseconds from run start.
    pub at_ns: u64,
    /// The user the request scores for (Zipf-ranked: user `0` hottest).
    pub user: usize,
    /// Whether this arrival plays a slow client (network layer only).
    pub slow: bool,
}

/// Zipf(s) sampler over `{0, …, n-1}` by inverse CDF over the exact
/// (finite) distribution — no rejection loop, so one uniform draw maps to
/// exactly one user and schedules stay replayable byte-for-byte.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the cumulative distribution for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        // Normalise so the last entry is exactly 1.0.
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less)) {
            Ok(i) | Err(i) => i.min(self.cdf.len().saturating_sub(1)),
        }
    }
}

/// Generates the full arrival plan for an open-loop run: seeded virtual
/// timestamps, Zipf users over `n_users`, and slow-client marks. Pure —
/// same config, same plan.
pub fn open_loop_plan(cfg: &OpenLoopConfig, n_users: usize) -> Vec<Arrival> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let zipf = ZipfSampler::new(n_users.max(1), cfg.zipf_exponent.max(0.0));
    let mut plan = Vec::with_capacity(cfg.requests);
    let mut now_ns = 0u64;
    for i in 0..cfg.requests {
        match cfg.arrivals {
            Arrivals::Poisson { mean_gap_ns } => {
                // Inverse-CDF exponential gap; clamp the uniform away from
                // 0 so ln stays finite.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                let gap = -(mean_gap_ns.max(1) as f64) * u.ln();
                now_ns = now_ns.saturating_add(gap as u64);
            }
            Arrivals::Bursty { burst, gap_ns, idle_ns } => {
                let burst = burst.max(1);
                if i > 0 && i % burst == 0 {
                    now_ns = now_ns.saturating_add(idle_ns);
                } else if i > 0 {
                    now_ns = now_ns.saturating_add(gap_ns);
                }
            }
        }
        let slow = cfg.slow_every > 0 && i % cfg.slow_every == cfg.slow_every - 1;
        plan.push(Arrival { at_ns: now_ns, user: zipf.sample(&mut rng), slow });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::Fallback;
    use crate::scorer::Scorer;
    use crate::swap::{RollbackReason, SwapOutcome};
    use crate::ServeConfig;
    use pup_models::ScoreError;

    struct Flat;

    impl Scorer for Flat {
        fn name(&self) -> &str {
            "flat"
        }
        fn n_items(&self) -> usize {
            6
        }
        fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
            Ok((0..6).map(|i| ((i + user) % 6) as f64).collect())
        }
    }

    #[test]
    fn closed_loop_answers_every_admitted_request() {
        let fallback = Fallback::from_train(8, 6, &[(0, 1), (1, 2)]).unwrap();
        let shared = Arc::new(ServiceShared::new(ServeConfig::default(), fallback, 8));
        let factory: GenScorerFactory = Arc::new(|_gen| Ok(Box::new(Flat)));
        let bench = BenchConfig { requests: 50, clients: 3, k: 4, seed: 11 };
        let report = run_closed_loop(shared, factory, bench, None).expect("bench runs");
        assert_eq!(report.submitted, 50);
        assert_eq!(report.submitted, report.admitted + report.shed);
        assert_eq!(report.admitted, report.primary + report.degraded());
        assert!(report.availability >= 0.99, "availability {}", report.availability);
    }

    /// A scorer that reports its own liveness: it bumps the shared counter
    /// on creation and decrements it on drop.
    struct Counted(Arc<AtomicU64>);

    impl Counted {
        fn spawn(live: &Arc<AtomicU64>) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Self(Arc::clone(live))
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl Scorer for Counted {
        fn name(&self) -> &str {
            "counted"
        }
        fn n_items(&self) -> usize {
            6
        }
        fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
            Ok((0..6).map(|i| ((i + user) % 6) as f64).collect())
        }
    }

    /// A service whose factory builds [`Counted`] scorers on `live`.
    fn counted_service(live: &Arc<AtomicU64>) -> (Arc<ServiceShared>, GenScorerFactory) {
        let fallback = Fallback::from_train(8, 6, &[(0, 1), (1, 2)]).unwrap();
        let shared = Arc::new(ServiceShared::new(ServeConfig::default(), fallback, 8));
        let live = Arc::clone(live);
        (shared, Arc::new(move |_gen| Ok(Box::new(Counted::spawn(&live)) as Box<dyn Scorer>)))
    }

    /// Regression for the shutdown leak: the bench used to hold the
    /// server in an `Arc` and only shut it down when `Arc::try_unwrap`
    /// happened to succeed — when it did not, worker threads (and the
    /// scorer they hold) silently outlived the bench. Scoped clients make
    /// the shutdown unconditional; no scorer may survive the return, even
    /// while the caller still holds the shared state.
    #[test]
    fn closed_loop_always_shuts_the_server_down() {
        let live = Arc::new(AtomicU64::new(0));
        let (shared, factory) = counted_service(&live);
        let bench = BenchConfig { requests: 30, clients: 2, k: 4, seed: 3 };
        let report =
            run_closed_loop(Arc::clone(&shared), factory, bench, None).expect("bench runs");
        assert_eq!(report.submitted, 30);
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "the served scorer must be dropped before the bench returns"
        );
        assert_eq!(shared.report().submitted, 30, "the caller's shared state is still live");
    }

    /// A swap still shadowing at shutdown loses its candidate scorer with
    /// the server, but its window stays open and resolves afterwards.
    #[test]
    fn server_shutdown_releases_a_pending_candidate() {
        let live = Arc::new(AtomicU64::new(0));
        let (shared, factory) = counted_service(&live);
        let server = Server::start_with_generations(Arc::clone(&shared), factory).expect("starts");
        let candidate = Arc::new(Counted::spawn(&live));
        shared.swap.begin_shadow(&shared.faults, 0, 1, candidate, false).expect("shadows");
        assert_eq!(live.load(Ordering::SeqCst), 2);
        server.shutdown();
        assert_eq!(live.load(Ordering::SeqCst), 0, "no scorer may outlive the server");
        assert_eq!(shared.swap.shadow_pending(), Some(1));
        shared.swap.resolve_now(&shared.faults);
        let expired = SwapOutcome::RolledBack(RollbackReason::WindowExpired);
        assert_eq!(
            shared.swap.transitions().iter().map(|t| t.outcome).collect::<Vec<_>>(),
            [expired]
        );
    }

    #[test]
    fn open_loop_plan_is_deterministic_and_monotone() {
        let cfg =
            OpenLoopConfig { requests: 64, seed: 42, slow_every: 8, ..OpenLoopConfig::default() };
        let a = open_loop_plan(&cfg, 100);
        let b = open_loop_plan(&cfg, 100);
        assert_eq!(a, b, "same seed, same plan");
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "arrivals are ordered");
        assert_eq!(a.iter().filter(|x| x.slow).count(), 8, "every 8th arrival is slow");
        assert!(a.iter().all(|x| x.user < 100));
        let c = open_loop_plan(&OpenLoopConfig { seed: 43, ..cfg }, 100);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn zipf_sampler_skews_toward_low_ranks() {
        let zipf = ZipfSampler::new(50, 1.2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut head = 0usize;
        for _ in 0..2_000 {
            if zipf.sample(&mut rng) < 5 {
                head += 1;
            }
        }
        assert!(head > 1_000, "top-5 of 50 users should dominate, got {head}/2000");
    }

    #[test]
    fn bursty_schedule_separates_bursts_by_idle_gaps() {
        let cfg = OpenLoopConfig {
            requests: 9,
            arrivals: Arrivals::Bursty { burst: 3, gap_ns: 10, idle_ns: 1_000 },
            ..OpenLoopConfig::default()
        };
        let plan = open_loop_plan(&cfg, 10);
        let times: Vec<u64> = plan.iter().map(|a| a.at_ns).collect();
        assert_eq!(times, vec![0, 10, 20, 1_020, 1_030, 1_040, 2_040, 2_050, 2_060]);
    }
}
