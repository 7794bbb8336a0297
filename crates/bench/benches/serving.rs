//! Benchmarks: single-request serving latency — the primary score-and-rank
//! path through the resilience pipeline vs. the degraded popularity
//! fallback it falls back to, plus the raw fallback answer. The gap between
//! primary and degraded is the price of a breaker trip as seen by one user.
//! The swap group measures the model-lifecycle overhead: the worker fast
//! path (one atomic version check per request) and a request served while
//! a candidate generation is shadow-scored alongside the primary.
//! The net group prices the network front door: one keep-alive HTTP
//! request over real loopback TCP (parse + auth + rate-limit + queue +
//! score + rank + write, vs. the in-process `primary_request` baseline)
//! and the rate limiter's per-request admission decision alone.
//! The scan group prices one top-K request over a serve-scale table
//! (15,255 items × 65, the folded PUP's shape): the exact f64 scan and
//! the certified pass over the scorer's compact copy of its table, back
//! to back and paced one scan per 10 ms, as at 100 requests/s over two
//! workers, when the table is no longer in cache. The dense-scan group
//! prices `score_items` alone at train-eval's and serve-scan's folded table
//! shapes: the scorer's blocked scan against the row-major `matmul_t`
//! pass, which returns the same scores.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pup_ckpt::chaos::FaultPlan;
use pup_data::synthetic::{generate, GeneratorConfig};
use pup_data::SplitRatios;
use pup_models::{
    train_bpr, BprMf, Candidates, DotScorer, Frozen, Recommender, Shortlist, TrainConfig, TrainData,
};
use pup_serve::engine::handle_now;
use pup_serve::{
    Deadline, Fallback, GenScorerFactory, RecommenderScorer, Request, Scorer, ServeConfig,
    ServiceShared, Source, SwapConfig, SwapController, WorkerModel,
};

/// The benchmark catalog and a BPR-MF trained on it, frozen.
struct Catalog {
    fallback: Fallback,
    n_users: usize,
    n_items: usize,
    model: Frozen,
}

fn catalog() -> Catalog {
    let dataset = generate(&GeneratorConfig {
        n_users: 300,
        n_items: 250,
        n_categories: 12,
        n_price_levels: 8,
        n_interactions: 8_000,
        kcore: 0,
        seed: 5,
        ..Default::default()
    })
    .dataset;
    let split = pup_data::split::temporal_split(&dataset, SplitRatios::PAPER);
    let data = TrainData::new(&dataset, &split);
    let cfg = TrainConfig { epochs: 2, batch_size: 1024, ..Default::default() };
    let mut model = BprMf::new(&data, 64, 7);
    train_bpr(&mut model, data.n_users, data.n_items, data.train, &cfg).expect("train");
    let fallback =
        Fallback::from_train(split.n_users, split.n_items, &split.train).expect("fallback");
    Catalog { fallback, n_users: split.n_users, n_items: split.n_items, model: model.freeze() }
}

impl Catalog {
    /// A factory serving the trained model as every generation.
    fn factory(&self) -> GenScorerFactory {
        let (model, n_items) = (self.model.freeze(), self.n_items);
        Arc::new(move |_gen| Ok(Box::new(RecommenderScorer::new(model.freeze(), n_items))))
    }
}

fn bench_serving(c: &mut Criterion) {
    let cat = catalog();
    let shared = ServiceShared::new(ServeConfig::default(), cat.fallback.clone(), cat.n_users);
    // Same pipeline, but with a cost hint no deadline can fit, so every
    // request takes the degraded fallback branch.
    let degraded_cfg = ServeConfig { primary_cost_hint_ns: u64::MAX, ..Default::default() };
    let degraded = ServiceShared::new(degraded_cfg, cat.fallback, cat.n_users);
    let scorer = RecommenderScorer::new(cat.model, cat.n_items);
    let mut group = c.benchmark_group("serving");
    group.sample_size(30);

    let mut user = 0usize;
    group.bench_function("primary_request", |b| {
        b.iter(|| {
            user = (user + 1) % cat.n_users;
            let resp = handle_now(&shared, &scorer, Request { user, k: 10 })
                .expect("primary request answered");
            assert_eq!(resp.source, Source::Primary);
            black_box(resp)
        })
    });

    group.bench_function("degraded_fallback_request", |b| {
        b.iter(|| {
            user = (user + 1) % cat.n_users;
            let resp = handle_now(&degraded, &scorer, Request { user, k: 10 })
                .expect("degraded request answered");
            assert!(resp.source.is_degraded());
            black_box(resp)
        })
    });

    group.bench_function("raw_score_pass", |b| {
        b.iter(|| {
            user = (user + 1) % cat.n_users;
            black_box(scorer.score(black_box(user)).expect("score"))
        })
    });
    group.finish();
}

fn bench_swap(c: &mut Criterion) {
    let cat = catalog();
    let (factory, n_users) = (cat.factory(), cat.n_users);
    // An effectively unbounded shadow window: the swap never resolves, so
    // every iteration pays the full shadow-compare cost.
    let swap_cfg = SwapConfig { shadow_requests: u64::MAX, min_overlap: 0.0, probe_users: 0 };
    let shared = ServiceShared::with_swap(
        ServeConfig::default(),
        cat.fallback,
        n_users,
        FaultPlan::none(),
        SwapController::new(0, swap_cfg),
    );
    let mut model = WorkerModel::build(&shared, &factory).expect("worker build");

    let mut group = c.benchmark_group("serving_swap");
    group.sample_size(30);

    let mut user = 0usize;
    group.bench_function("swap_fastpath_request", |b| {
        b.iter(|| {
            user = (user + 1) % n_users;
            let mut deadline = Deadline::new(shared.cfg.deadline_ns);
            let ctx = pup_obs::trace::TraceContext::disabled();
            let resp = model
                .handle(&shared, Request { user, k: 10 }, &mut deadline, &ctx)
                .expect("fast-path request answered");
            assert_eq!(resp.source, Source::Primary);
            black_box(resp)
        })
    });

    let candidate: Arc<dyn Scorer> = Arc::from(factory(1).expect("candidate builds"));
    shared.swap.begin_shadow(&shared.faults, 0, 1, candidate, false).expect("shadow window opens");
    group.bench_function("shadowed_request", |b| {
        b.iter(|| {
            user = (user + 1) % n_users;
            let mut deadline = Deadline::new(shared.cfg.deadline_ns);
            let ctx = pup_obs::trace::TraceContext::disabled();
            let resp = model
                .handle(&shared, Request { user, k: 10 }, &mut deadline, &ctx)
                .expect("shadowed request answered");
            assert_eq!(resp.source, Source::Primary);
            black_box(resp)
        })
    });
    group.finish();
}

fn bench_net(c: &mut Criterion) {
    let cat = catalog();
    let n_users = cat.n_users;
    let shared = Arc::new(ServiceShared::new(
        ServeConfig { workers: 1, ..Default::default() },
        cat.fallback.clone(),
        n_users,
    ));
    let server =
        pup_serve::Server::start_with_generations(shared, cat.factory()).expect("server starts");
    let tenants = pup_serve::net::TenantConfig::parse_list("bench:bench-key:1000000000:1000000000")
        .expect("tenant spec");
    // One connection serves every iteration: keep-alive must outlast the
    // sample count or the server recycles the socket mid-benchmark.
    let net_cfg = pup_serve::NetConfig {
        tenants: tenants.clone(),
        keep_alive_max: usize::MAX,
        ..Default::default()
    };
    let gateway = pup_serve::Gateway::start(net_cfg, server).expect("gateway binds");
    let addr = gateway.local_addr();
    let mut client =
        pup_serve::net::HttpClient::connect(addr, 2_000_000_000).expect("client connects");

    let mut group = c.benchmark_group("serving_net");
    group.sample_size(30);

    let mut user = 0usize;
    group.bench_function("loopback_request", |b| {
        b.iter(|| {
            user = (user + 1) % n_users;
            let (status, body) = client
                .get(&format!("/recommend?user={user}&k=10"), Some("bench-key"))
                .expect("loopback request answered");
            assert_eq!(status, 200, "{body}");
            black_box(body)
        })
    });

    // The admission decision alone: key lookup + bucket refill + debit,
    // on an explicit virtual clock (no sockets, no syscalls).
    let limiter = pup_serve::net::RateLimiter::new(tenants);
    let mut now_ns = 0u64;
    group.bench_function("rate_limit_decision", |b| {
        b.iter(|| {
            now_ns += 1_000;
            black_box(limiter.check(black_box(Some("bench-key")), now_ns))
        })
    });
    group.finish();
    drop(client);
    gateway.shutdown();
}

/// The served PUP's folded table shape: catalog size and row width.
const SCAN_ITEMS: usize = 15_255;
const SCAN_WIDTH: usize = 65;
const SCAN_K: usize = 20;

fn bench_scan(c: &mut Criterion) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let users = pup_tensor::init::normal(64, SCAN_WIDTH, 0.3, &mut rng);
    let items = pup_tensor::init::normal(SCAN_ITEMS, SCAN_WIDTH, 0.3, &mut rng);
    let model = DotScorer::new("scan", users, items);
    // Each user has seen 50 items spread over the catalog.
    let seen: Vec<Vec<u32>> = (0..64u32)
        .map(|u| {
            let mut s: Vec<u32> = (0..50u32).map(|j| (u * 131 + j * 307) % 15_255).collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let candidates = |user: usize| Candidates::Unseen { n_items: SCAN_ITEMS, seen: &seen[user] };
    let exact = |user: usize| {
        let scores = model.try_score_items(user).expect("in range");
        pup_eval::try_rank_unseen(&scores, SCAN_ITEMS, &seen[user], SCAN_K).expect("ranks")
    };
    let certified = |user: usize| {
        model.try_top_k(user, candidates(user), SCAN_K).and_then(Shortlist::rank).expect("ranks")
    };
    assert_eq!(exact(0), certified(0));

    let mut group = c.benchmark_group("serving_scan");
    group.sample_size(30);
    let mut user = 0usize;
    type TopK<'a> = &'a dyn Fn(usize) -> Vec<u32>;
    let cases: [(&str, TopK); 2] = [("exact_topk", &exact), ("certified_topk", &certified)];
    for (name, top_k) in cases {
        group.bench_function(format!("{name}_hot"), |b| {
            b.iter(|| {
                user = (user + 1) % 64;
                black_box(top_k(user))
            })
        });
        group.bench_function(format!("{name}_paced_10ms"), |b| {
            b.iter_custom(|_| {
                std::thread::sleep(Duration::from_millis(10));
                user = (user + 1) % 64;
                let t = Instant::now();
                black_box(top_k(user));
                t.elapsed()
            })
        });
    }
    group.finish();
}

fn bench_dense_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_dense_scan");
    group.sample_size(30);
    for n_items in [1_412usize, SCAN_ITEMS] {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let users = pup_tensor::init::normal(64, SCAN_WIDTH, 0.3, &mut rng);
        let items = pup_tensor::init::normal(n_items, SCAN_WIDTH, 0.3, &mut rng);
        let model = DotScorer::new("scan", users.clone(), items.clone());
        let shape = format!("{n_items}x{SCAN_WIDTH}");
        let mut user = 0usize;
        group.bench_function(format!("matmul_t/{shape}"), |b| {
            b.iter(|| {
                user = (user + 1) % 64;
                black_box(users.gather_rows(&[user]).matmul_t(&items).into_vec())
            })
        });
        group.bench_function(format!("score_items/{shape}"), |b| {
            b.iter(|| {
                user = (user + 1) % 64;
                black_box(model.score_items(user))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serving, bench_swap, bench_net, bench_scan, bench_dense_scan);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("serving", &criterion::take_results())
        .expect("write BENCH_serving.json");
    println!("wrote {}", path.display());
}
