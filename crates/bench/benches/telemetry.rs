//! Benchmarks: the cost of pup-obs instrumentation.
//!
//! Two questions, two groups:
//!
//! - `obs_disabled` — what does an instrumentation call cost when no
//!   collection is active? The contract (DESIGN.md §10) is "one thread-local
//!   flag read, no allocation, no clock read"; each case runs 10 000
//!   facade calls so the per-call cost is `median_ns / 10_000`.
//! - `epoch_telemetry` — what does a full training epoch cost with
//!   telemetry off vs on? The acceptance bar is <2% regression for the
//!   off case relative to an uninstrumented build, which this bench can't
//!   see directly, but off-vs-on shows the spread the flag is buying.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use pup_data::synthetic::{generate, GeneratorConfig};
use pup_data::{Dataset, Split, SplitRatios};
use pup_models::{train_bpr, BprMf, TrainConfig, TrainData};

const CALLS_PER_SAMPLE: usize = 10_000;

fn fixture() -> (Dataset, Split) {
    let d = generate(&GeneratorConfig {
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
    let s = pup_data::split::temporal_split(&d, SplitRatios::PAPER);
    (d, s)
}

fn one_epoch(dataset: &Dataset, split: &Split) {
    let cfg = TrainConfig { epochs: 1, batch_size: 1024, ..Default::default() };
    let data = TrainData::new(dataset, split);
    let mut m = BprMf::new(&data, 64, 1);
    black_box(train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg).expect("training"));
}

/// Facade calls with no active collection: divide the reported times by
/// [`CALLS_PER_SAMPLE`] for the per-call cost (expected: single-digit ns).
fn bench_disabled_facade(c: &mut Criterion) {
    assert!(!pup_obs::enabled(), "bench requires telemetry off");
    let mut group = c.benchmark_group("obs_disabled");
    group.sample_size(20);
    group.bench_function("span_x10k", |b| {
        b.iter(|| {
            for _ in 0..CALLS_PER_SAMPLE {
                let _ = black_box(pup_obs::span(black_box("bench")));
            }
        })
    });
    group.bench_function("op_timer_x10k", |b| {
        b.iter(|| {
            for _ in 0..CALLS_PER_SAMPLE {
                let _ = black_box(pup_obs::time(black_box("fwd"), black_box("bench")));
            }
        })
    });
    group.bench_function("counter_x10k", |b| {
        b.iter(|| {
            for _ in 0..CALLS_PER_SAMPLE {
                pup_obs::counter_add(black_box("bench"), black_box(1));
            }
        })
    });
    group.bench_function("gauge_x10k", |b| {
        b.iter(|| {
            for _ in 0..CALLS_PER_SAMPLE {
                pup_obs::gauge_set(black_box("bench"), black_box(1.0));
            }
        })
    });
    group.finish();
}

/// One BPR-MF epoch with telemetry inactive vs collecting. The delta is the
/// full price of enabled collection (spans, op timers, metrics).
fn bench_epoch_on_off(c: &mut Criterion) {
    let (dataset, split) = fixture();
    let mut group = c.benchmark_group("epoch_telemetry");
    group.sample_size(10);
    group.bench_function("telemetry_off", |b| b.iter(|| one_epoch(&dataset, &split)));
    group.bench_function("telemetry_on", |b| {
        b.iter(|| {
            pup_obs::start();
            one_epoch(&dataset, &split);
            black_box(pup_obs::finish());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_disabled_facade, bench_epoch_on_off);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("telemetry", &criterion::take_results())
        .expect("write BENCH_telemetry.json");
    println!("wrote {}", path.display());
}
