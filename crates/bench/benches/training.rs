//! Benchmarks: one BPR training epoch per model on a common synthetic
//! dataset — the throughput comparison behind every experiment's wall-clock.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use pup_data::synthetic::{generate, GeneratorConfig};
use pup_data::{Dataset, Split, SplitRatios};
use pup_models::{
    train_bpr, BprMf, DeepFm, Fm, GcMc, Ngcf, Pup, PupConfig, TrainConfig, TrainData,
};

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

fn one_epoch_cfg() -> TrainConfig {
    TrainConfig { epochs: 1, batch_size: 1024, ..Default::default() }
}

fn bench_epochs(c: &mut Criterion) {
    let (dataset, split) = fixture();
    let mut group = c.benchmark_group("bpr_epoch");
    group.sample_size(10);
    let cfg = one_epoch_cfg();

    group.bench_function("bpr_mf", |b| {
        b.iter(|| {
            let data = TrainData::new(&dataset, &split);
            let mut m = BprMf::new(&data, 64, 1);
            black_box(
                train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg).expect("training"),
            )
        })
    });
    group.bench_function("fm", |b| {
        b.iter(|| {
            let data = TrainData::new(&dataset, &split);
            let mut m = Fm::new(&data, 64, 1);
            black_box(
                train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg).expect("training"),
            )
        })
    });
    group.bench_function("deepfm", |b| {
        b.iter(|| {
            let data = TrainData::new(&dataset, &split);
            let mut m = DeepFm::new(&data, 64, 64, 1);
            black_box(
                train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg).expect("training"),
            )
        })
    });
    group.bench_function("gcmc", |b| {
        b.iter(|| {
            let data = TrainData::new(&dataset, &split);
            let mut m = GcMc::new(&data, 64, 0.1, 1);
            black_box(
                train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg).expect("training"),
            )
        })
    });
    group.bench_function("ngcf", |b| {
        b.iter(|| {
            let data = TrainData::new(&dataset, &split);
            let mut m = Ngcf::new(&data, 21, 2, 0.1, 1);
            black_box(
                train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg).expect("training"),
            )
        })
    });
    group.bench_function("pup_full", |b| {
        b.iter(|| {
            let data = TrainData::new(&dataset, &split);
            let mut m = Pup::new(&data, PupConfig::default());
            black_box(
                train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg).expect("training"),
            )
        })
    });
    group.finish();
}

/// Ablation: PUP epoch cost with vs without self-loops, and with vs without
/// the category branch (DESIGN.md §5).
fn bench_pup_variants(c: &mut Criterion) {
    let (dataset, split) = fixture();
    let mut group = c.benchmark_group("pup_epoch_variants");
    group.sample_size(10);
    let cfg = one_epoch_cfg();
    let configs = [
        ("full_with_self_loops", PupConfig::default()),
        ("full_no_self_loops", PupConfig { self_loops: false, ..Default::default() }),
        (
            "price_only_branch",
            PupConfig { variant: pup_models::PupVariant::PriceOnly, ..Default::default() },
        ),
    ];
    for (name, pcfg) in configs {
        group.bench_function(name, |b| {
            b.iter(|| {
                let data = TrainData::new(&dataset, &split);
                let mut m = Pup::new(&data, pcfg.clone());
                black_box(
                    train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg)
                        .expect("training"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epochs, bench_pup_variants);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("training", &criterion::take_results())
        .expect("write BENCH_training.json");
    println!("wrote {}", path.display());
}
