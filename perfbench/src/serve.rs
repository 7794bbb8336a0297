//! serve-scan: `/recommend` over loopback HTTP against a gateway hosted
//! in this process (as `pup net-bench` hosts it), so the benchmark can
//! drive hot swaps through `initiate_swap` and read the engine's reports
//! and trace sink directly.
//!
//! Every 2xx answer of every phase is checked against an in-process
//! reference built from the same checkpoint.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pup_ckpt::registry::ModelRegistry;
use pup_models::Recommender;
use pup_obs::trace::{TraceSink, TraceSpanRecord};
use pup_recsys::Pipeline;
use pup_serve::net::conn::NET_TRACE_BASE;
use pup_serve::{
    Fallback, Gateway, GenScorerFactory, NetConfig, RecommenderScorer, Scorer, ServeConfig,
    ServeReport, Server, ServiceShared, SwapConfig, SwapController,
};

use crate::client::{self, Arrival, Conn, ConnCounter, DriveStats, Outcome};
use crate::fixture::{self, RunRegistry};
use crate::stats::{self, metric, Metric, RunResult};
use crate::workloads::{
    self, K, MAX_CONNS, MAX_GEN_LATENESS_MS, SCAN_DEADLINE_MS, SCAN_RATE_RPS, SCAN_SETUP_REPEATS,
    SCAN_SWAPS, SCAN_WORKERS, SWAP_GAP, WARMUP_S, ZIPF,
};

/// Durations (ms) of the benchmark-owned timers around public calls.
#[derive(Default)]
struct Timers {
    replica_build: Mutex<Vec<f64>>,
    ckpt_load: Mutex<Vec<f64>>,
    restore: Mutex<Vec<f64>>,
    promote: Mutex<Vec<f64>>,
}

fn push(m: &Mutex<Vec<f64>>, since: Instant) {
    m.lock().unwrap_or_else(PoisonError::into_inner).push(since.elapsed().as_secs_f64() * 1e3);
}

fn take(m: &Mutex<Vec<f64>>) -> Vec<f64> {
    std::mem::take(&mut *m.lock().unwrap_or_else(PoisonError::into_inner))
}

/// A running gateway plus the handles the benchmark drives it through.
struct Stack {
    gateway: Gateway,
    engine: Arc<ServiceShared>,
    registry: ModelRegistry,
    factory: GenScorerFactory,
    pipeline: Arc<Pipeline>,
    counter: ConnCounter,
    addr: SocketAddr,
    /// The trace sink and the instant it was created (traced runs).
    sink: Option<(TraceSink, Instant)>,
    /// Dataset load time of this set-up.
    load_ms: f64,
}

/// One set-up, timed from loading the dataset and checkpoint until the
/// gateway has answered its first request.
fn start(
    fixture_dir: &Path,
    registry_dir: &Path,
    timers: &Arc<Timers>,
    traced: bool,
) -> Result<(Stack, f64), String> {
    let t0 = Instant::now();
    let pipeline = Arc::new(fixture::load_pipeline(fixture_dir)?);
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let registry = ModelRegistry::open(registry_dir).map_err(|e| e.to_string())?;
    let serving = registry.serving_generation().map_err(|e| e.to_string())?.gen;
    let split = pipeline.split();
    let (n_users, n_items) = (split.n_users, split.n_items);
    let factory: GenScorerFactory = {
        let (pipeline, registry, timers) = (pipeline.clone(), registry.clone(), timers.clone());
        Arc::new(move |gen| {
            let t = Instant::now();
            let ckpt = registry.load(gen).map_err(|e| e.to_string())?;
            push(&timers.ckpt_load, t);
            let r = Instant::now();
            let model = pipeline
                .restore_from_checkpoint(fixture::pup_kind(), &fixture::fit_config(), &ckpt)
                .map_err(|e| e.to_string())?;
            push(&timers.restore, r);
            push(&timers.replica_build, t);
            Ok(Box::new(RecommenderScorer::new(model, n_items)) as Box<dyn Scorer>)
        })
    };
    let fallback =
        Fallback::from_train(n_users, n_items, &split.train).map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        workers: SCAN_WORKERS,
        deadline_ns: (SCAN_DEADLINE_MS * 1e6) as u64,
        ..ServeConfig::default()
    };
    // A zero overlap floor: the two generations rank differently by
    // design, and every swap should promote.
    let swap_cfg = SwapConfig { shadow_requests: 32, min_overlap: 0.0, probe_users: 4 };
    let mut engine = ServiceShared::with_swap(
        cfg,
        fallback,
        n_users,
        pup_ckpt::chaos::FaultPlan::none(),
        SwapController::new(serving, swap_cfg),
    );
    let sink = traced.then(|| (TraceSink::new(), Instant::now()));
    if let Some((s, _)) = &sink {
        engine.enable_tracing(s.clone());
    }
    let engine = Arc::new(engine);
    {
        let (registry, timers) = (registry.clone(), timers.clone());
        engine.swap.set_promote_hook(Box::new(move |_seq, gen, _faults| {
            let t = Instant::now();
            let out = registry.promote_chaos(gen, false).map_err(|e| e.to_string());
            push(&timers.promote, t);
            out
        }));
    }
    let server = Server::start_with_generations(engine.clone(), factory.clone())
        .map_err(|e| e.to_string())?;
    let net = NetConfig { max_conns: MAX_CONNS, ..NetConfig::default() };
    let gateway = Gateway::start(net, server).map_err(|e| e.to_string())?;
    let addr = gateway.local_addr();
    let counter = ConnCounter::default();
    let mut first = Conn::connect(addr, &counter).map_err(|e| format!("connect: {e}"))?;
    let reply = first.get(&format!("/recommend?user=0&k={K}")).map_err(|e| e.to_string())?;
    if reply.status != 200 {
        return Err(format!("first request answered {}: {}", reply.status, reply.body));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    drop(first);
    let stack =
        Stack { gateway, engine, registry, factory, pipeline, counter, addr, sink, load_ms };
    Ok((stack, setup_s))
}

impl Stack {
    /// Drives `plan` from a fresh phase epoch; returns outcomes and epoch.
    fn phase(
        &self,
        plan: &[Arrival],
        drive: &DriveStats,
        stop: Option<&AtomicBool>,
        sent: Option<&AtomicUsize>,
    ) -> (Vec<Outcome>, Instant) {
        let epoch = Instant::now();
        let out = client::drive(self.addr, plan, epoch, &self.counter, drive, stop, sent);
        (out, epoch)
    }

    fn gens(&self) -> Result<Vec<u64>, String> {
        Ok(self.registry.list().map_err(|e| e.to_string())?.iter().map(|m| m.gen).collect())
    }

    fn shutdown(self) -> ServeReport {
        self.gateway.shutdown().1
    }
}

/// Swap bookkeeping of one phase.
#[derive(Default)]
struct SwapLog {
    initiate_ms: Vec<f64>,
    swap_s: Vec<f64>,
    failures: u64,
}

impl SwapLog {
    fn attempted(&self) -> u64 {
        self.swap_s.len() as u64 + self.failures
    }
}

/// Swaps to the other generation [`SWAP_GAP`] sent requests after the
/// previous swap ended, until [`SCAN_SWAPS`] swaps completed, one failed,
/// or the drive ended; then raises `stop`.
fn swap_controller(
    stack: &Stack,
    gens: &[u64],
    sent: &AtomicUsize,
    done: &AtomicBool,
    stop: &AtomicBool,
) -> SwapLog {
    let mut log = SwapLog::default();
    let mut next_at = SWAP_GAP;
    let engine = &stack.engine;
    while !done.load(Ordering::Acquire) && log.swap_s.len() < SCAN_SWAPS && log.failures == 0 {
        if sent.load(Ordering::Relaxed) < next_at {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let active = engine.swap.active_gen();
        let Some(&target) = gens.iter().find(|&&g| g != active) else { break };
        let t = Instant::now();
        let initiated = pup_serve::initiate_swap(engine, &stack.registry, &stack.factory, target);
        log.initiate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = initiated {
            eprintln!("swap to generation {target} refused: {e}");
            log.failures += 1;
            break;
        }
        loop {
            // Pending first: the controller clears it under the lock that
            // also publishes the new active generation.
            let pending = engine.swap.shadow_pending().is_some();
            if engine.swap.active_gen() == target {
                log.swap_s.push(t.elapsed().as_secs_f64());
                break;
            }
            if !pending {
                let last = engine.swap.transitions().last().copied();
                eprintln!("swap to generation {target} rolled back: {last:?}");
                log.failures += 1;
                break;
            }
            if done.load(Ordering::Acquire) {
                break; // the traffic feeding the shadow window ended
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        next_at = sent.load(Ordering::Relaxed) + SWAP_GAP;
    }
    stop.store(true, Ordering::Release);
    log
}

/// Drives the fixed rate while a controller swaps generations; see
/// [`swap_controller`]. The schedule is long enough for every swap to
/// finish: the drive stops when they have.
fn swap_phase(
    stack: &Stack,
    seed: u64,
    users: &[u32],
    drive: &DriveStats,
) -> Result<(Vec<Outcome>, SwapLog), String> {
    let gens = stack.gens()?;
    let plan = replan(seed, (SCAN_RATE_RPS * 60.0) as usize, users);
    let sent = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let controller = scope.spawn(|| swap_controller(stack, &gens, &sent, &done, &stop));
        let (out, _) = stack.phase(&plan, drive, Some(&stop), Some(&sent));
        done.store(true, Ordering::Release);
        let log = controller.join().map_err(|_| "swap controller panicked".to_string())?;
        Ok((out, log))
    })
}

/// Checks served answers against an in-process reference built from the
/// same checkpoints: `score_items` plus `try_rank_candidates` over the
/// user's unseen items for primary answers, `Fallback::answer` for
/// degraded ones.
struct Checker {
    pipeline: Arc<Pipeline>,
    registry: ModelRegistry,
    fallback: Fallback,
    seen: Vec<Vec<u32>>,
    models: HashMap<u64, Box<dyn Recommender>>,
    cache: HashMap<(u64, u32), Vec<u32>>,
    mismatches: u64,
    degraded: u64,
}

enum Verdict {
    Primary,
    Degraded,
    Wrong,
}

impl Checker {
    fn new(pipeline: Arc<Pipeline>, registry: ModelRegistry) -> Result<Self, String> {
        let split = pipeline.split();
        let fallback = Fallback::from_train(split.n_users, split.n_items, &split.train)
            .map_err(|e| e.to_string())?;
        let seen = split.train_items_by_user();
        Ok(Self {
            pipeline,
            registry,
            fallback,
            seen,
            models: HashMap::new(),
            cache: HashMap::new(),
            mismatches: 0,
            degraded: 0,
        })
    }

    fn reference(&mut self, gen: u64, user: u32) -> Result<&[u32], String> {
        if !self.models.contains_key(&gen) {
            let ckpt = self.registry.load(gen).map_err(|e| e.to_string())?;
            let model = self
                .pipeline
                .restore_from_checkpoint(fixture::pup_kind(), &fixture::fit_config(), &ckpt)
                .map_err(|e| e.to_string())?;
            self.models.insert(gen, model);
        }
        if !self.cache.contains_key(&(gen, user)) {
            let model = &self.models[&gen];
            let scores = model.score_items(user as usize);
            let seen = &self.seen[user as usize];
            let candidates: Vec<u32> =
                (0..scores.len() as u32).filter(|i| seen.binary_search(i).is_err()).collect();
            let top = pup_eval::try_rank_candidates(&scores, &candidates, K)
                .map_err(|e| e.to_string())?;
            self.cache.insert((gen, user), top);
        }
        Ok(&self.cache[&(gen, user)])
    }

    /// Judges one 2xx answer; `gens` are the generations it may come from.
    fn judge(&mut self, o: &Outcome, gens: &[u64]) -> Result<Verdict, String> {
        let Some(body) = &o.body else { return Ok(Verdict::Wrong) };
        let (Some(source), Some(items)) = (field(body, "\"source\":\""), items(body)) else {
            return Ok(Verdict::Wrong);
        };
        if source.starts_with("degraded") {
            let ok = items == self.fallback.answer(o.user as usize, K);
            return Ok(if ok { Verdict::Degraded } else { Verdict::Wrong });
        }
        for &gen in gens {
            if self.reference(gen, o.user)? == items.as_slice() {
                return Ok(Verdict::Primary);
            }
        }
        Ok(Verdict::Wrong)
    }

    /// Judges every outcome; returns how many failed (non-2xx, transport
    /// error, or wrong answer).
    fn check_all(&mut self, outcomes: &[Outcome], gens: &[u64]) -> Result<u64, String> {
        let mut failed = 0;
        for o in outcomes {
            if o.status != 200 {
                failed += 1;
                continue;
            }
            match self.judge(o, gens)? {
                Verdict::Primary => {}
                Verdict::Degraded => self.degraded += 1,
                Verdict::Wrong => {
                    self.mismatches += 1;
                    failed += 1;
                    if self.mismatches <= 3 {
                        eprintln!("output check: wrong answer for user {}: {:?}", o.user, o.body);
                    }
                }
            }
        }
        Ok(failed)
    }
}

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(key)? + key.len();
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

fn items(body: &str) -> Option<Vec<u32>> {
    let start = body.find("\"items\":[")? + "\"items\":[".len();
    let len = body[start..].find(']')?;
    let list = &body[start..start + len];
    if list.is_empty() {
        return Some(Vec::new());
    }
    list.split(',').map(|s| s.trim().parse().ok()).collect()
}

fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes.iter().map(Outcome::latency_ms).collect()
}

/// Windows a latency phase is cut into for its robust quantiles: one
/// second (100 requests) each over a 15 s phase.
const WINDOWS: usize = 15;

/// The run's figure for latency quantile `q` of `outcomes`: the mean over
/// the windows of each window's quantile (see [`stats::mean`]).
fn latency_ms(outcomes: &[Outcome], q: f64) -> f64 {
    stats::mean(&stats::per_window(&latencies(outcomes), WINDOWS, q))
}

/// A schedule for a phase after the latency phase: its own arrival times,
/// but the latency phase's Zipf user sequence, cycled. No layer caches per
/// user, so this measures the same work while the output check's
/// reference stays a cache hit.
fn replan(seed: u64, n: usize, users: &[u32]) -> Vec<Arrival> {
    let mut p = client::schedule(seed, n.max(1), SCAN_RATE_RPS, 1, ZIPF);
    for (a, &u) in p.iter_mut().zip(users.iter().cycle()) {
        a.user = u;
    }
    p
}

/// Refuses a latency phase whose load generator fell behind.
fn check_lateness(outcomes: &[Outcome]) -> Result<f64, String> {
    let lateness: Vec<f64> = outcomes.iter().map(Outcome::gen_lateness_ms).collect();
    let p99 = stats::quantile(&lateness, 0.99);
    if p99 > MAX_GEN_LATENESS_MS {
        return Err(format!(
            "run invalid: the load generator fell behind (lateness p99 {p99:.3} ms > \
             {MAX_GEN_LATENESS_MS} ms)"
        ));
    }
    Ok(p99)
}

/// Runs serve-scan: timed set-ups, an unmeasured warm-up, the fixed-rate
/// latency phase of `seconds`, then [`SCAN_SWAPS`] hot swaps under the same
/// rate. The output check runs after the peak RSS is read, so the
/// reference models it builds are not counted.
pub fn run(fixture_dir: &Path, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let reg = RunRegistry::copy_from(fixture_dir)?;
    let timers = Arc::new(Timers::default());
    let mut result = RunResult::default();

    // Set-up, repeated; the last stack stays up for the measured phases.
    let repeats = if trace { 1 } else { SCAN_SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut stack = None;
    for _ in 0..repeats {
        if let Some(old) = stack.take() {
            let _: ServeReport = Stack::shutdown(old);
        }
        let (s, secs) = start(fixture_dir, &reg.dir, &timers, false)?;
        setup_s.push(secs);
        stack = Some(s);
    }
    let stack = stack.ok_or("no set-up ran")?;
    let setup_builds = take(&timers.replica_build).len();
    let (pipeline, registry) = (stack.pipeline.clone(), stack.registry.clone());
    let n_users = pipeline.split().n_users;
    let initial_gen = stack.engine.swap.active_gen();
    let all_gens = stack.gens()?;
    let drive = DriveStats::default();

    let n = (SCAN_RATE_RPS * seconds).ceil() as usize;
    let lat_plan = client::schedule(seed, n.max(1), SCAN_RATE_RPS, n_users, ZIPF);
    let users: Vec<u32> = lat_plan.iter().map(|a| a.user).collect();
    let warm = replan(seed ^ 0x5741_524d, (SCAN_RATE_RPS * WARMUP_S) as usize, &users);
    let (warm_out, _) = stack.phase(&warm, &drive, None, None);
    result
        .digests
        .push(("schedule".into(), format!("{:016x}", client::schedule_digest(&lat_plan))));
    let mut digest = stats::FNV_SEED;
    for &(u, i) in &pipeline.split().train {
        digest = stats::fnv1a(digest, &(u as u64).to_le_bytes());
        digest = stats::fnv1a(digest, &(i as u64).to_le_bytes());
    }
    result.digests.push(("dataset".into(), format!("{digest:016x}")));
    let (lat_out, _) = stack.phase(&lat_plan, &drive, None, None);

    if trace {
        stack.shutdown();
        let untraced_p50 = latency_ms(&lat_out, 0.5);
        let traced = traced_run(fixture_dir, &reg.dir, &timers, &lat_plan, &warm, untraced_p50)?;
        check_lateness(&lat_out)?;
        check_lateness(&traced.outcomes)?;
        let mut checker = Checker::new(pipeline, registry)?;
        let phases: [(&[Outcome], &[u64]); 4] = [
            (&warm_out, &[initial_gen]),
            (&lat_out, &[initial_gen]),
            (&traced.outcomes, &[initial_gen]),
            (&traced.swap_outcomes, &all_gens),
        ];
        for (outcomes, gens) in phases {
            result.attempted += outcomes.len() as u64;
            result.failed += checker.check_all(outcomes, gens)?;
        }
        result.attempted += traced.swaps.attempted();
        result.failed += traced.swaps.failures;
        result.correct = checker.mismatches == 0;
        result.metrics = workloads::per_layer(traced.layers);
        return Ok(result);
    }

    let (swap_out, swaps) = swap_phase(&stack, seed ^ 0x5357_4150, &users, &drive)?;
    let report = stack.shutdown();
    let peak_rss_mb = stats::peak_rss_mb();
    let lateness_p99 = check_lateness(&lat_out)?;
    if swaps.swap_s.is_empty() {
        return Err(format!("no swap completed ({} failed)", swaps.failures));
    }

    let mut checker = Checker::new(pipeline, registry)?;
    let phases: [(&[Outcome], &[u64]); 3] =
        [(&warm_out, &[initial_gen]), (&lat_out, &[initial_gen]), (&swap_out, &all_gens)];
    for (outcomes, gens) in phases {
        result.attempted += outcomes.len() as u64;
        result.failed += checker.check_all(outcomes, gens)?;
    }
    result.attempted += swaps.attempted();
    result.failed += swaps.failures;
    result.correct = checker.mismatches == 0;

    let lat = latencies(&lat_out);
    let swap_lat = latencies(&swap_out);
    let swap_s = stats::median(&swaps.swap_s);
    result.named = vec![
        metric("latency_p99_ms", "ms", stats::quantile(&lat, 0.99)),
        metric("failed_share", "ratio", result.failed as f64 / result.attempted.max(1) as f64),
        metric("degraded_share", "ratio", checker.degraded as f64 / result.attempted as f64),
        metric("swap_phase.latency_p99_ms", "ms", stats::quantile(&swap_lat, 0.99)),
        metric("gen.lateness_ms_p99", "ms", lateness_p99),
        metric("net.reconnects", "count", drive.reconnects.load(Ordering::Relaxed) as f64),
        metric("engine.shed", "count", report.shed as f64),
        metric("engine.rejected_deadline", "count", report.rejected_deadline as f64),
        metric("setup.replica_builds", "count", setup_builds as f64),
        metric(
            "net.transport_errors",
            "count",
            drive.transport_errors.load(Ordering::Relaxed) as f64,
        ),
    ];
    result.metrics = vec![
        metric("setup_s", "s", stats::median(&setup_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("latency_p50_ms", "ms", latency_ms(&lat_out, 0.5)),
        metric("latency_p95_ms", "ms", latency_ms(&lat_out, 0.95)),
        metric("model_update_s", "s", swap_s),
    ];
    Ok(result)
}

/// What the traced half of a `--trace 1` run produced.
struct Traced {
    outcomes: Vec<Outcome>,
    /// Answers of the swap phase that follows the traced phase.
    swap_outcomes: Vec<Outcome>,
    swaps: SwapLog,
    layers: Vec<Metric>,
}

/// The traced latency phase: a fresh set-up with the engine's trace sink
/// on, the same schedule as the untraced phase, and the per-request
/// stitching of client timers to server spans; then the swap phase, for
/// the swap layers.
fn traced_run(
    fixture_dir: &Path,
    registry_dir: &Path,
    timers: &Arc<Timers>,
    plan_: &[Arrival],
    warm: &[Arrival],
    untraced_p50: f64,
) -> Result<Traced, String> {
    for t in [&timers.replica_build, &timers.ckpt_load, &timers.restore, &timers.promote] {
        take(t);
    }
    let (stack, _) = start(fixture_dir, registry_dir, timers, true)?;
    let drive = DriveStats::default();
    stack.phase(warm, &drive, None, None);
    let (sink, sink_epoch) = stack.sink.clone().ok_or("traced stack has no sink")?;
    sink.drain_spans();
    let reconnects_before = drive.reconnects.load(Ordering::Relaxed);
    let (outcomes, epoch) = stack.phase(plan_, &drive, None, None);
    let spans = sink.drain_spans();
    let offset = epoch.saturating_duration_since(sink_epoch).as_nanos() as u64;
    let users: Vec<u32> = plan_.iter().map(|a| a.user).collect();
    let (swap_outcomes, swaps) = swap_phase(&stack, 0x5357_4150, &users, &drive)?;
    let load_ms = stack.load_ms;
    let report = stack.shutdown();

    let (samples, table, residual) = stitch(&spans, &outcomes, offset);
    print!("{table}");
    let p =
        |name: &str, q: f64| stats::quantile(samples.get(name).map_or(&[][..], Vec::as_slice), q);
    let lateness: Vec<f64> = outcomes.iter().map(Outcome::gen_lateness_ms).collect();
    let builds = take(&timers.replica_build);
    let non_2xx = outcomes.iter().filter(|o| o.status != 200).count();
    let layers = vec![
        metric("net.parse_us", "us", p("net.parse", 0.5)),
        metric("net.write_us", "us", p("net.write", 0.5)),
        metric("net.accept_self_us", "us", p("net.accept_self", 0.5)),
        metric(
            "net.reconnects",
            "count",
            (drive.reconnects.load(Ordering::Relaxed) - reconnects_before) as f64,
        ),
        metric("net.non_2xx", "count", non_2xx as f64),
        metric("queue.wait_us_p50", "us", p("queue", 0.5)),
        metric("queue.wait_us_p99", "us", p("queue", 0.99)),
        metric("queue.max_depth", "count", report.max_queue_depth as f64),
        metric("queue.shed", "count", report.shed as f64),
        metric("score.us_p50", "us", p("score", 0.5)),
        metric("score.us_p99", "us", p("score", 0.99)),
        metric("rank.us_p50", "us", p("rank", 0.5)),
        metric("rank.us_p99", "us", p("rank", 0.99)),
        metric("respond.us_p50", "us", p("respond", 0.5)),
        metric("fallback.answers", "count", report.degraded() as f64),
        metric("deadline.rejections", "count", report.rejected_deadline as f64),
        metric("swap.initiate_ms", "ms", stats::median(&swaps.initiate_ms)),
        metric("swap.promote_ms", "ms", stats::median(&take(&timers.promote))),
        metric("swap.replica_build_ms", "ms", stats::median(&builds)),
        metric("swap.replica_builds", "count", builds.len() as f64),
        metric("swap.shadow_scored", "count", report.shadow_scored as f64),
        metric("ckpt.load_ms", "ms", stats::median(&take(&timers.ckpt_load))),
        metric("model.restore_ms", "ms", stats::median(&take(&timers.restore))),
        metric("data.load_ms", "ms", load_ms),
        metric("residual_share", "ratio", residual),
        metric(
            "trace_overhead_share",
            "ratio",
            latency_ms(&outcomes, 0.5) / untraced_p50.max(1e-9) - 1.0,
        ),
        metric("gen.lateness_ms_p99", "ms", stats::quantile(&lateness, 0.99)),
    ];
    Ok(Traced { outcomes, swap_outcomes, swaps, layers })
}

/// Layers of one `/recommend` round trip, in path order.
const LAYERS: &[&str] = &[
    "client.wait",
    "net.parse",
    "net.accept_self",
    "queue",
    "engine.request_self",
    "score",
    "rank",
    "respond",
    "fallback",
    "shadow",
    "net.write",
    "net.deliver",
];

/// Matches each answered request to its stitched server trace and splits
/// its client latency into layers. Server spans cover the gateway and
/// engine; the benchmark's own timers cover what lies outside them:
/// waiting for a free connection (`client.wait`), the request's trip to
/// the parser (`net.parse` runs from the client's send, not from the
/// parse span's start, which includes keep-alive idle time) and the
/// response's trip back (`net.deliver`). Returns per-layer samples (µs),
/// the share table, and the residual share.
fn stitch(
    spans: &[TraceSpanRecord],
    outcomes: &[Outcome],
    offset_ns: u64,
) -> (HashMap<&'static str, Vec<f64>>, String, f64) {
    let mut by_trace: HashMap<u64, Vec<&TraceSpanRecord>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut samples: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut totals = vec![0.0f64; LAYERS.len()];
    let mut whole = 0.0f64;
    let mut unmatched = 0usize;
    for o in outcomes.iter().filter(|o| o.status == 200) {
        let trace = NET_TRACE_BASE + o.conn.0 * 4096 + u64::from(o.conn.1);
        let Some(tree) = by_trace.get(&trace) else {
            unmatched += 1;
            continue;
        };
        let find = |name: &str, parent: Option<u32>| {
            tree.iter().find(|s| s.name == name && (parent.is_none() || s.parent == parent))
        };
        let (Some(accept), Some(request)) = (find("accept", None), find("request", None)) else {
            unmatched += 1;
            continue;
        };
        let child = |name: &str, of: &TraceSpanRecord| {
            tree.iter()
                .filter(|s| s.name == name && s.parent == Some(of.id))
                .map(|s| s.dur_ns)
                .sum::<u64>()
        };
        let parse = find("parse", Some(accept.id));
        let write = find("write", Some(accept.id));
        let (Some(parse), Some(_)) = (parse, write) else {
            unmatched += 1;
            continue;
        };
        let score = find("score", Some(request.id));
        let rank = score.map_or(0, |s| child("rank", s));
        let sent = o.sent_ns + offset_ns;
        let done = o.done_ns + offset_ns;
        let due = o.due_ns + offset_ns;
        let engine_children: u64 = ["queue", "score", "respond", "fallback", "shadow"]
            .iter()
            .map(|n| child(n, request))
            .sum();
        let net_children = parse.dur_ns + request.dur_ns + child("write", accept);
        let values = [
            sent.saturating_sub(due),
            (parse.start_ns + parse.dur_ns).saturating_sub(sent),
            accept.dur_ns.saturating_sub(net_children),
            child("queue", request),
            request.dur_ns.saturating_sub(engine_children),
            child("score", request).saturating_sub(rank),
            rank,
            child("respond", request),
            child("fallback", request),
            child("shadow", request),
            child("write", accept),
            done.saturating_sub(accept.start_ns + accept.dur_ns),
        ];
        for ((name, v), total) in LAYERS.iter().zip(values).zip(totals.iter_mut()) {
            *total += v as f64;
            samples.entry(name).or_default().push(v as f64 / 1e3);
        }
        whole += done.saturating_sub(due) as f64;
    }
    let rows: Vec<(&str, f64)> = LAYERS.iter().copied().zip(totals).collect();
    let title = format!(
        "/recommend round trip, summed over {} answered requests ({unmatched} without a trace)",
        samples.get("queue").map_or(0, Vec::len)
    );
    let (table, residual) = stats::layer_table(&title, whole, &rows);
    (samples, table, residual)
}
