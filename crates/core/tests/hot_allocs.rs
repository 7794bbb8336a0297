//! Measured allocation budgets for the five `// pup-hot:` roots.
//!
//! A counting `#[global_allocator]` tallies every heap allocation (`alloc`,
//! `alloc_zeroed` and `realloc` each count one) in a per-thread counter, so
//! tests running in parallel never mix their counts. After a warm-up, each
//! scenario drives one seeded call of its root on the calling thread and
//! reads the counter around it:
//!
//! - `serve-request`: one [`handle_now`] request;
//! - `swap-request`: one [`WorkerModel::handle`] inside a swap shadow window;
//! - `net-conn`: one [`handle_connection`] exchange over [`MemTransport`]
//!   (the server's worker thread scores it; only the gateway side counts);
//! - `eval-rank`: one [`try_rank_candidates`] call;
//! - `train-epoch`: one [`BprTrainer::run_epoch`] on a small PUP.
//!
//! Every scenario measures several calls and fails unless they agree, so a
//! count that depends on timing cannot slip into the ratchet. The counts
//! must equal the `allocs` field of `results/hotpath_ratchet.json`, in
//! either direction; the failure message prints the JSON lines to commit.
//! They read the same under `cargo test` and `cargo test --release`.

#![allow(clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use pup_analysis::hotpath::{read_ratchet, RATCHET_PATH};
use pup_data::synthetic::{generate, GeneratorConfig};
use pup_eval::try_rank_candidates;
use pup_models::{BprModel, BprTrainer, Candidates, Pup, PupConfig, Shortlist, TrainConfig};
use pup_recsys::Pipeline;
use pup_serve::engine::handle_now;
use pup_serve::net::{handle_connection, MemTransport, NetConfig, NetShared, TenantConfig};
use pup_serve::{
    Deadline, Fallback, GenScorerFactory, RecommenderScorer, Request, Scorer, ServeConfig, Server,
    ServiceShared, SwapConfig, SwapController, WorkerModel,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts allocations per thread.
struct Counting;

fn tick() {
    // `try_with`: allocations during thread teardown go uncounted rather
    // than panic inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counter is a `const` thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Runs call `i` of a scenario, which returns the allocations its root
/// made, once to warm up and then `MEASURED` times; every measured call
/// must count the same, and that count is returned.
fn per_call(label: &str, mut call: impl FnMut(usize) -> u64) -> u64 {
    // The trainer's per-epoch history first allocates room for four
    // epochs, so the three measured epochs after the warm-up never grow it.
    const MEASURED: usize = 3;
    call(0);
    let counts: Vec<u64> = (1..=MEASURED).map(&mut call).collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{label}: unsteady counts {counts:?}");
    counts[0]
}

const K: usize = 10;
const N_USERS: usize = 40;

/// The seeded catalog every scenario runs on.
fn pipeline() -> Pipeline {
    let dataset = generate(&GeneratorConfig {
        n_users: N_USERS,
        n_items: 60,
        n_categories: 4,
        n_price_levels: 4,
        n_interactions: 600,
        kcore: 0,
        seed: 11,
        ..Default::default()
    })
    .dataset;
    Pipeline::new(dataset)
}

fn pup_config() -> PupConfig {
    PupConfig { global_dim: 8, category_dim: 4, seed: 11, ..Default::default() }
}

fn train_config() -> TrainConfig {
    TrainConfig { epochs: 8, batch_size: 64, ..Default::default() }
}

/// A PUP trained for one epoch and frozen into a shared scorer.
fn frozen_pup(pipeline: &Pipeline) -> Arc<dyn Scorer> {
    let data = pipeline.train_data();
    let mut pup = Pup::new(&data, pup_config());
    let mut trainer =
        BprTrainer::new(&pup, data.n_users, data.n_items, data.train, &train_config());
    trainer.run_epoch(&mut pup).expect("one epoch trains");
    pup.finalize();
    Arc::new(RecommenderScorer::new(Box::new(pup), data.n_items))
}

fn serve_config() -> ServeConfig {
    // A generous deadline: real time never degrades a measured request.
    ServeConfig { deadline_ns: 5_000_000_000, primary_cost_hint_ns: 1_000, ..Default::default() }
}

fn service(pipeline: &Pipeline, swap: SwapController) -> ServiceShared {
    let data = pipeline.train_data();
    let fallback = Fallback::from_train(data.n_users, data.n_items, data.train).expect("fallback");
    let plan = pup_ckpt::chaos::FaultPlan::none();
    ServiceShared::with_swap(serve_config(), fallback, data.n_users, plan, swap)
}

fn request(i: usize) -> Request {
    Request { user: i * 7 % N_USERS, k: K }
}

fn serve_request(pipeline: &Pipeline, scorer: &Arc<dyn Scorer>) -> u64 {
    let shared = service(pipeline, SwapController::new(0, SwapConfig::default()));
    per_call("serve-request", |i| {
        let (n, resp) = count(|| handle_now(&shared, scorer.as_ref(), request(i)));
        assert_eq!(resp.map(|r| r.items.len()), Ok(K));
        n
    })
}

fn swap_request(pipeline: &Pipeline, scorer: &Arc<dyn Scorer>) -> u64 {
    // A window far longer than the scenario, so it never resolves mid-way.
    let swap_cfg = SwapConfig { shadow_requests: 1_000, ..SwapConfig::default() };
    let shared = service(pipeline, SwapController::new(0, swap_cfg));
    let mut worker =
        WorkerModel::build(&shared, &generation(scorer, Duration::ZERO)).expect("worker builds");
    shared.swap.begin_shadow(&shared.faults, 0, 1, Arc::clone(scorer), false).expect("shadows");
    let ctx = pup_obs::trace::TraceContext::disabled();
    let allocs = per_call("swap-request", |i| {
        let mut deadline = Deadline::new(shared.cfg.deadline_ns);
        let (n, resp) = count(|| worker.handle(&shared, request(i), &mut deadline, &ctx));
        assert_eq!(resp.map(|r| r.items.len()), Ok(K));
        n
    });
    assert_eq!(shared.swap.shadow_pending(), Some(1), "every request ran inside the window");
    allocs
}

fn net_conn(pipeline: &Pipeline, scorer: &Arc<dyn Scorer>) -> u64 {
    let shared = Arc::new(service(pipeline, SwapController::new(0, SwapConfig::default())));
    // The gateway blocks on its reply channel until a worker answers, and
    // parking there registers a waker: one allocation, made only when the
    // worker has not answered yet. Holding each score pass for 50 ms makes
    // every exchange park, as it does when scoring takes real time, so the
    // count does not depend on which thread wins the race.
    let factory = generation(scorer, Duration::from_millis(50));
    let server = Server::start_with_generations(Arc::clone(&shared), factory).expect("starts");
    let tenant =
        TenantConfig { name: "t".into(), key: "k1".into(), rate_per_sec: 1_000_000, burst: 1_000 };
    let net = NetShared::new(NetConfig { tenants: vec![tenant], ..NetConfig::default() }, shared);
    let allocs = per_call("net-conn", |i| {
        let (user, conn) = (request(i).user, i as u64);
        let bytes = format!(
            "GET /recommend?user={user}&k={K} HTTP/1.1\r\nhost: pup\r\nx-api-key: k1\r\n\
             connection: close\r\n\r\n"
        );
        let mut transport = MemTransport::request(bytes.as_bytes(), net.engine.faults.next_conn());
        let (n, report) =
            count(|| handle_connection(&net, &server, &mut transport, conn, conn * 1_000_000));
        assert_eq!(report.trace_token(), format!("{conn}[200:ok]"));
        n
    });
    server.shutdown();
    allocs
}

fn eval_rank(pipeline: &Pipeline, scorer: &Arc<dyn Scorer>) -> u64 {
    let data = pipeline.train_data();
    let candidates: Vec<u32> = (0..data.n_items as u32).filter(|i| i % 5 != 0).collect();
    let scores: Vec<Vec<f64>> = (0..N_USERS).map(|u| scorer.score(u).expect("scores")).collect();
    per_call("eval-rank", |i| {
        let scores = &scores[request(i).user];
        let (n, ranked) = count(|| try_rank_candidates(scores, &candidates, K));
        assert_eq!(ranked.map(|r| r.len()), Ok(K));
        n
    })
}

fn train_epoch(pipeline: &Pipeline) -> u64 {
    let data = pipeline.train_data();
    let mut pup = Pup::new(&data, pup_config());
    let mut trainer =
        BprTrainer::new(&pup, data.n_users, data.n_items, data.train, &train_config());
    per_call("train-epoch", |_| {
        let (n, loss) = count(|| trainer.run_epoch(&mut pup));
        assert!(loss.expect("epoch trains").is_finite());
        n
    })
}

/// A generation that scores with `scorer`, holding each pass for `hold`.
fn generation(scorer: &Arc<dyn Scorer>, hold: Duration) -> GenScorerFactory {
    let scorer = Arc::clone(scorer);
    Arc::new(move |_gen| Ok(Box::new(Held(Arc::clone(&scorer), hold)) as Box<dyn Scorer>))
}

/// A shared scorer that holds each score pass (full or top-K) for a fixed
/// time.
struct Held(Arc<dyn Scorer>, Duration);

impl Scorer for Held {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn n_items(&self) -> usize {
        self.0.n_items()
    }
    fn score(&self, user: usize) -> Result<Vec<f64>, pup_models::ScoreError> {
        std::thread::sleep(self.1);
        self.0.score(user)
    }
    fn top_k<'a>(
        &self,
        user: usize,
        candidates: Candidates<'a>,
        k: usize,
    ) -> Result<Shortlist<'a>, pup_models::ScoreError> {
        std::thread::sleep(self.1);
        self.0.top_k(user, candidates, k)
    }
}

#[test]
fn measured_hot_path_allocations_match_the_ratchet() {
    let pipeline = pipeline();
    let scorer = frozen_pup(&pipeline);
    let measured = BTreeMap::from([
        ("eval-rank", eval_rank(&pipeline, &scorer)),
        ("net-conn", net_conn(&pipeline, &scorer)),
        ("serve-request", serve_request(&pipeline, &scorer)),
        ("swap-request", swap_request(&pipeline, &scorer)),
        ("train-epoch", train_epoch(&pipeline)),
    ]);
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ratchet = read_ratchet(&repo).unwrap_or_default();
    let mut stale = Vec::new();
    for (label, &allocs) in &measured {
        let recorded = ratchet.get(*label).copied();
        if recorded.map(|(a, _)| a as u64) != Some(allocs) {
            let locks = recorded.map_or(0, |(_, locks)| locks);
            stale.push(format!("\"{label}\": {{\"allocs\": {allocs}, \"locks\": {locks}}}"));
        }
    }
    assert!(
        stale.is_empty(),
        "measured allocations per call differ from {RATCHET_PATH}; if the change is intended, \
         record:\n    {}",
        stale.join("\n    ")
    );
}
