//! `train-eval`: `Pup::new`, fixed BPR epochs at the paper's batch size,
//! then `pup_eval::evaluate` at k = 20, 50 over every test user, plus a
//! timed per-user full-ranking pass (score every item, rank the unseen
//! ones) that gives the workload its latency distribution.

use std::path::Path;
use std::time::Instant;

use pup_models::{BprModel, BprTrainer, Pup, PupConfig, Recommender, TrainConfig};
use pup_recsys::Pipeline;

use crate::fixture;
use crate::stats::{self, metric, RunResult};
use crate::workloads::{self, K, MIN_RECALL_AT_20, TRAIN_BATCH, TRAIN_EPOCHS, TRAIN_SETUP_REPEATS};

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn pup_config() -> PupConfig {
    let fit = fixture::fit_config();
    PupConfig { dropout: fit.dropout, seed: fit.seed, ..PupConfig::default() }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig { epochs: TRAIN_EPOCHS, batch_size: TRAIN_BATCH, seed, ..TrainConfig::default() }
}

/// One timed set-up: dataset load through graph construction.
struct Setup {
    pipeline: Pipeline,
    model: Pup,
    load_ms: f64,
    graph_ms: f64,
    total_s: f64,
}

fn setup(dir: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let pipeline = fixture::load_pipeline(dir)?;
    let load_ms = ms(t0);
    let t1 = Instant::now();
    let model = Pup::new(&pipeline.train_data(), pup_config());
    let graph_ms = ms(t1);
    Ok(Setup { pipeline, model, load_ms, graph_ms, total_s: t0.elapsed().as_secs_f64() })
}

/// The loss of each of the first `epochs` epochs, for the self-check.
pub fn loss_sequence(dir: &Path, seed: u64, epochs: usize) -> Result<Vec<f64>, String> {
    let Setup { pipeline, mut model, .. } = setup(dir)?;
    let data = pipeline.train_data();
    let mut trainer =
        BprTrainer::new(&model, data.n_users, data.n_items, data.train, &train_config(seed));
    (0..epochs).map(|_| trainer.run_epoch(&mut model).map_err(|e| e.to_string())).collect()
}

/// Sum (ms) of the `pup_obs` histograms whose name passes `keep`.
fn hist_ms(t: &pup_obs::Telemetry, keep: impl Fn(&str) -> bool) -> f64 {
    t.hists.iter().filter(|h| keep(&h.name)).map(|h| h.summary.sum).sum::<f64>() / 1e6
}

/// Runs the workload.
///
/// The run trains a fixed number of epochs, so its length does not follow
/// `--seconds`.
pub fn run(dir: &Path, seed: u64, trace: bool) -> Result<RunResult, String> {
    let mut result = RunResult::default();

    // An untraced run times half its set-ups now and half after training,
    // once the trained model is gone, so `setup_s` samples both ends of
    // the run.
    let repeats = if trace { 1 } else { TRAIN_SETUP_REPEATS.div_ceil(2) };
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        // Drop the previous set-up first, so the peak RSS counts one.
        drop(last.take());
        let s = setup(dir)?;
        setup_s.push(s.total_s);
        last = Some(s);
    }
    let Setup { pipeline, mut model, load_ms, graph_ms, .. } = last.ok_or("no set-up ran")?;
    let data = pipeline.train_data();
    let mut digest = stats::FNV_SEED;
    for &(u, i) in data.train {
        digest = stats::fnv1a(digest, &(u as u64).to_le_bytes());
        digest = stats::fnv1a(digest, &(i as u64).to_le_bytes());
    }
    result.digests.push(("dataset".into(), format!("{digest:016x}")));

    // Training. An untraced run stops after every epoch to finalize and
    // rank a quarter of the test users in turn, and after every quarter of
    // the epochs to time one `evaluate()`, so the evaluation figures are
    // spread over the whole run rather than one moment of a shared host.
    // A traced run times its first half untraced and its second half with
    // the per-op timers on; the ratio is the tracing overhead.
    let cfg = train_config(seed);
    let mut trainer = BprTrainer::new(&model, data.n_users, data.n_items, data.train, &cfg);
    let traced_from = if trace { TRAIN_EPOCHS / 2 } else { TRAIN_EPOCHS };
    let quarter = (TRAIN_EPOCHS / 4).max(1);
    let split = pipeline.split();
    let train_items = split.train_items_by_user();
    let valid_items = split.valid_items_by_user();
    let test_items = split.test_items_by_user();
    let test_users: Vec<usize> =
        (0..split.n_users).filter(|&u| !test_items[u].is_empty()).collect();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut losses = Vec::new();
    let mut eval_passes = Vec::new();
    let mut latencies = Vec::new();
    let mut stop_p50_ms = Vec::new();
    let mut bad_rankings = 0u64;
    let mut report = None;
    for epoch in 0..TRAIN_EPOCHS {
        if epoch == traced_from {
            pup_obs::start();
        }
        let t = Instant::now();
        let loss = trainer.run_epoch(&mut model).map_err(|e| format!("training: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        if epoch < traced_from {
            plain_s.push(secs)
        } else {
            traced_s.push(secs)
        }
        losses.push(loss);
        if trace {
            continue;
        }
        model.finalize();
        // Per-user full ranking: the request-shaped use of the score and
        // rank layers, timed around each public call pair.
        let stop = latencies.len();
        for &u in test_users.iter().skip(epoch % 4).step_by(4) {
            let seen = |i: &u32| {
                train_items[u].binary_search(i).is_ok() || valid_items[u].binary_search(i).is_ok()
            };
            let pool: Vec<u32> = (0..split.n_items as u32).filter(|i| !seen(i)).collect();
            let t = Instant::now();
            let scores = model.score_items(u);
            let ranked = pup_eval::try_rank_candidates(&scores, &pool, K);
            latencies.push(ms(t));
            match ranked {
                Ok(r) if r.len() == K.min(pool.len()) && !r.iter().any(seen) => {}
                _ => bad_rankings += 1,
            }
        }
        stop_p50_ms.push(stats::quantile(&latencies[stop..], 0.5));
        if (epoch + 1) % quarter == 0 {
            let t = Instant::now();
            report = Some(pup_eval::evaluate(&model, split, &[20, 50]));
            eval_passes.push(t.elapsed().as_secs_f64());
        }
    }
    let train_obs = if trace { Some(pup_obs::finish()) } else { None };
    let loss_digest =
        losses.iter().fold(stats::FNV_SEED, |h, l| stats::fnv1a(h, &l.to_bits().to_le_bytes()));
    result.digests.push(("losses".into(), format!("{loss_digest:016x}")));
    let bad_losses = losses.iter().filter(|l| !l.is_finite()).count() as u64;

    // The traced run evaluates once, after training, with the eval timers
    // on. The untraced run's last quarter already evaluated the final model.
    let mut eval_obs = None;
    if trace || report.is_none() {
        model.finalize();
        if trace {
            pup_obs::start();
        }
        let t = Instant::now();
        report = Some(pup_eval::evaluate(&model, split, &[20, 50]));
        eval_passes.push(t.elapsed().as_secs_f64());
        eval_obs = trace.then(pup_obs::finish);
    }
    let report = report.ok_or("no evaluation ran")?;
    let eval_s = stats::median(&eval_passes);
    let recall20 = report.at(20).recall;
    let users_per_s = report.n_users as f64 / eval_s;

    result.attempted = (TRAIN_EPOCHS + report.n_users) as u64;
    result.failed = bad_losses + bad_rankings;
    if recall20 < MIN_RECALL_AT_20 || !recall20.is_finite() {
        eprintln!("train-eval: recall@20 {recall20} is below the floor {MIN_RECALL_AT_20}");
        result.failed += 1;
    }
    result.correct = result.failed == 0;

    let epoch_s = stats::median(&plain_s);
    result.named = vec![
        metric("epoch_s", "s", epoch_s),
        metric("eval_users_per_s", "1/s", users_per_s),
        metric("recall_at_20", "ratio", recall20),
        metric("recall_at_50", "ratio", report.at(50).recall),
        metric("final_loss", "loss", losses.last().copied().unwrap_or(0.0)),
    ];
    if !trace {
        // The second half of the set-ups, with the trained model gone.
        let peak_rss_mb = stats::peak_rss_mb();
        drop(trainer);
        drop(model);
        drop(pipeline);
        for _ in 0..TRAIN_SETUP_REPEATS / 2 {
            setup_s.push(setup(dir)?.total_s);
        }
        result.metrics = vec![
            metric("setup_s", "s", stats::median(&setup_s)),
            metric("peak_rss_mb", "MB", peak_rss_mb),
            // The least-contended stop's p50 and the fastest epoch (see
            // [`stats::min`]).
            metric("latency_p50_ms", "ms", stats::min(&stop_p50_ms)),
            metric("latency_p95_ms", "ms", stats::quantile(&latencies, 0.95)),
            metric("latency_p99_ms", "ms", stats::quantile(&latencies, 0.99)),
            metric("model_update_s", "s", stats::min(&plain_s)),
        ];
        return Ok(result);
    }

    let (Some(tobs), Some(eobs)) = (train_obs, eval_obs) else {
        return Err("traced run lost its telemetry".into());
    };
    let n = traced_s.len().max(1) as f64;
    let per_epoch = |keep: &dyn Fn(&str) -> bool| hist_ms(&tobs, keep) / n;
    let fwd = |op: &'static str| move |name: &str| name == format!("fwd.{op}");
    let core_fwd = ["fwd.spmm", "fwd.tanh", "fwd.dropout", "fwd.gather_rows"];
    let rows_ms: Vec<(&str, f64)> = vec![
        ("fwd.spmm", per_epoch(&fwd("spmm"))),
        ("fwd.tanh", per_epoch(&fwd("tanh"))),
        ("fwd.dropout", per_epoch(&fwd("dropout"))),
        ("fwd.gather_rows", per_epoch(&fwd("gather_rows"))),
        ("fwd.decoder+loss", per_epoch(&|h| h.starts_with("fwd.") && !core_fwd.contains(&h))),
        ("bwd.spmm", per_epoch(&|h| h == "bwd.spmm")),
        ("bwd.gather_rows", per_epoch(&|h| h == "bwd.gather_rows")),
        (
            "bwd.other",
            per_epoch(&|h| h.starts_with("bwd.") && h != "bwd.spmm" && h != "bwd.gather_rows"),
        ),
        ("opt.adam_step", per_epoch(&|h| h == "opt.adam_step")),
    ];
    let traced_epoch_ms = traced_s.iter().sum::<f64>() / n * 1e3;
    let rows_ns: Vec<(&str, f64)> = rows_ms.iter().map(|&(n, v)| (n, v * 1e6)).collect();
    let (table, residual) = stats::layer_table(
        "train-eval: one BPR epoch (mean of the traced epochs)",
        traced_epoch_ms * 1e6,
        &rows_ns,
    );
    print!("{table}");
    let score_ms = hist_ms(&eobs, |h| h == "eval.score_items");
    let rank_ms = hist_ms(&eobs, |h| h == "eval.rank_candidates");
    let (eval_table, _) = stats::layer_table(
        "train-eval: evaluate() over all test users",
        eval_s * 1e9,
        &[("eval.score_items", score_ms * 1e6), ("eval.rank_candidates", rank_ms * 1e6)],
    );
    print!("{eval_table}");
    let per_user = |total_ms: f64| total_ms * 1e3 / report.n_users.max(1) as f64;
    let counter = |name: &str| tobs.counter(name).unwrap_or(0) as f64 / n;
    let layer = vec![
        metric("data.load_ms", "ms", load_ms),
        metric("graph.build_ms", "ms", graph_ms),
        metric("sampler.draws", "count", counter("sampler.draws")),
        metric("sampler.rejections", "count", counter("sampler.rejections")),
        metric("fwd.spmm_ms", "ms", rows_ms[0].1),
        metric("fwd.tanh_ms", "ms", rows_ms[1].1),
        metric("fwd.dropout_ms", "ms", rows_ms[2].1),
        metric("fwd.gather_rows_ms", "ms", rows_ms[3].1),
        metric("fwd.decoder_ms", "ms", rows_ms[4].1),
        metric("bwd.spmm_ms", "ms", rows_ms[5].1),
        metric("bwd.gather_rows_ms", "ms", rows_ms[6].1),
        metric("bwd.other_ms", "ms", rows_ms[7].1),
        metric("opt.adam_step_ms", "ms", rows_ms[8].1),
        metric("eval.score_items_us", "us", per_user(score_ms)),
        metric("eval.rank_us", "us", per_user(rank_ms)),
        metric("residual_share", "ratio", residual),
        metric("trace_overhead_share", "ratio", stats::median(&traced_s) / epoch_s - 1.0),
    ];
    result.metrics = workloads::per_layer(layer);
    Ok(result)
}
