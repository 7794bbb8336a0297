//! Benchmarks: evaluation-path costs — all-item scoring, top-K ranking,
//! negative sampling, and price quantization. Each run appends an entry
//! to `BENCH_evaluation.json`.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

use pup_data::quantize::{rank_quantize, uniform_quantize};
use pup_data::synthetic::{generate, GeneratorConfig};
use pup_data::SplitRatios;
use pup_eval::ranking::rank_candidates;
use pup_models::trainer::NegativeSampler;
use pup_models::{BprModel, Pup, PupConfig, Recommender, TrainData};

fn bench_scoring_and_ranking(c: &mut Criterion) {
    let dataset = generate(&GeneratorConfig {
        n_users: 400,
        n_items: 600,
        n_categories: 15,
        n_price_levels: 10,
        n_interactions: 10_000,
        kcore: 0,
        seed: 2,
        ..Default::default()
    })
    .dataset;
    let split = pup_data::split::temporal_split(&dataset, SplitRatios::PAPER);
    let data = TrainData::new(&dataset, &split);
    let mut pup = Pup::new(&data, PupConfig::default());
    pup.finalize();

    let mut group = c.benchmark_group("evaluation");
    group.sample_size(30);
    group.bench_function("pup_score_all_items", |b| {
        b.iter(|| black_box(pup.score_items(black_box(7))))
    });

    // Ranking at serving scale: a 15,255-item catalog, every item a
    // candidate, as in a `/recommend` for a user with no history.
    let n_ranked = 15_255;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let scores: Vec<f64> =
        (0..n_ranked).map(|_| rand::Rng::gen_range(&mut rng, -1.0f64..1.0)).collect();
    let candidates: Vec<u32> = (0..n_ranked as u32).collect();
    for &k in &[20usize, 50, 100] {
        group.bench_with_input(BenchmarkId::new("rank_top_k", k), &k, |b, &k| {
            b.iter(|| rank_candidates(black_box(&scores), black_box(&candidates), k))
        });
    }

    let sampler = NegativeSampler::new(data.n_users, data.n_items, data.train);
    group.bench_function("negative_sampling_1024", |b| {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1024 {
                acc = acc.wrapping_add(sampler.sample(7, &mut rng));
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_quantization(c: &mut Criterion) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    let n = 30_000;
    let prices: Vec<f64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0.01f64..1e4)).collect();
    let cats: Vec<usize> = (0..n).map(|i| i % 100).collect();

    let mut group = c.benchmark_group("quantization");
    group.sample_size(20);
    group.bench_function("uniform_30k_items", |b| {
        b.iter(|| uniform_quantize(black_box(&prices), black_box(&cats), 100, 10))
    });
    group.bench_function("rank_30k_items", |b| {
        b.iter(|| rank_quantize(black_box(&prices), black_box(&cats), 100, 10))
    });
    group.finish();
}

criterion_group!(benches, bench_scoring_and_ranking, bench_quantization);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("evaluation", &criterion::take_results())
        .expect("write BENCH_evaluation.json");
    println!("wrote {}", path.display());
}
