//! End-to-end telemetry over a real training run: the trace a user gets
//! from `pup evaluate --telemetry` must agree with what the trainer itself
//! reports, and identical seeded runs must produce identical event shapes.

#![allow(clippy::expect_used)]

use pup_data::synthetic::{generate, GeneratorConfig};
use pup_data::SplitRatios;
use pup_models::{train_bpr, BprMf, TrainConfig, TrainData, TrainStats};

const EPOCHS: usize = 3;

fn traced_run() -> (TrainStats, pup_obs::Telemetry) {
    let dataset = generate(&GeneratorConfig {
        n_users: 60,
        n_items: 50,
        n_categories: 5,
        n_price_levels: 5,
        n_interactions: 1_500,
        kcore: 0,
        seed: 11,
        ..Default::default()
    })
    .dataset;
    let split = pup_data::split::temporal_split(&dataset, SplitRatios::PAPER);
    let data = TrainData::new(&dataset, &split);
    let cfg = TrainConfig { epochs: EPOCHS, batch_size: 256, seed: 3, ..Default::default() };
    let mut model = BprMf::new(&data, 16, cfg.seed);
    pup_obs::start();
    let stats = train_bpr(&mut model, data.n_users, data.n_items, data.train, &cfg)
        .expect("training should converge");
    (stats, pup_obs::finish())
}

#[test]
fn trace_agrees_with_train_stats() {
    let (stats, t) = traced_run();

    // One span per epoch, and the recorded loss series is exactly the
    // trainer's own per-epoch losses.
    let epoch_spans = t.spans.iter().filter(|s| s.name == "epoch").count();
    assert_eq!(epoch_spans, EPOCHS);
    assert_eq!(t.series_values("train.epoch_loss"), stats.epoch_losses);
    assert_eq!(stats.epoch_durations.len(), EPOCHS);
    assert!(stats.total_duration >= stats.epoch_durations.iter().sum());

    // The duration series matches the stats durations to within rounding.
    let ms = t.series_values("train.epoch_duration_ms");
    assert_eq!(ms.len(), EPOCHS);
    for (recorded, actual) in ms.iter().zip(&stats.epoch_durations) {
        assert!((recorded - actual.as_secs_f64() * 1e3).abs() < 1.0);
    }

    // Sampler counters: every positive pair drawn exactly once per epoch.
    let draws = t.counter("sampler.draws").expect("sampler.draws recorded");
    assert!(draws > 0 && (draws as usize).is_multiple_of(EPOCHS));
    assert!(t.counter("sampler.rejections").is_some());

    // Score-gap and grad-norm instrumentation fired every batch.
    let gap = t.hist("metric.train.score_gap").expect("score gap histogram");
    assert!(gap.count > 0);
    let grad = t.gauge("train.grad_norm").expect("grad norm gauge");
    assert!(grad.last.is_finite() && grad.last > 0.0);

    // Op-level timers account for most of the traced wall-clock.
    let coverage = pup_obs::report::op_coverage(&t).expect("op coverage computable");
    assert!(coverage > 0.5, "op self-time should dominate the epoch spans, got {coverage}");
}

#[test]
fn identical_seeded_runs_trace_identically() {
    let (stats_a, a) = traced_run();
    let (stats_b, b) = traced_run();

    // Losses are deterministic, so the loss series must match exactly.
    assert_eq!(stats_a.epoch_losses, stats_b.epoch_losses);
    assert_eq!(a.series_values("train.epoch_loss"), b.series_values("train.epoch_loss"));

    // Event *shape* is identical: same spans in the same order, same
    // counters with the same values. (Timings differ run to run.)
    let names = |t: &pup_obs::Telemetry| -> Vec<(String, Option<u32>)> {
        t.spans.iter().map(|s| (s.name.clone(), s.parent)).collect()
    };
    assert_eq!(names(&a), names(&b));
    let counters = |t: &pup_obs::Telemetry| -> Vec<(String, u64)> {
        t.counters.iter().map(|c| (c.name.clone(), c.value)).collect()
    };
    assert_eq!(counters(&a), counters(&b));
}
