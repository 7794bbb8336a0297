//! Benchmarks: the pairwise-interaction decoder — the paper's eq. 7
//! linear-time trick against the naive quadratic computation, across batch
//! sizes and feature counts. This is the ablation for the implementation
//! choice called out in DESIGN.md §5.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

use pup_models::common::{pairwise_interactions, pairwise_interactions_naive};
use pup_tensor::{init, Var};

fn features(n: usize, batch: usize, dim: usize) -> Vec<Var> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    (0..n).map(|_| Var::constant(init::normal(batch, dim, 0.1, &mut rng))).collect()
}

fn bench_decoder(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoder");
    group.sample_size(30);
    for &n_feats in &[3usize, 8, 16] {
        let feats = features(n_feats, 1024, 64);
        group.bench_with_input(BenchmarkId::new("eq7_linear", n_feats), &n_feats, |b, _| {
            b.iter(|| pairwise_interactions(black_box(&feats)))
        });
        group.bench_with_input(BenchmarkId::new("naive_quadratic", n_feats), &n_feats, |b, _| {
            b.iter(|| pairwise_interactions_naive(black_box(&feats)))
        });
    }
    group.finish();
}

fn bench_decoder_batches(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoder_batch");
    group.sample_size(30);
    for &batch in &[256usize, 1024, 4096] {
        let feats = features(3, batch, 64);
        group.bench_with_input(BenchmarkId::new("eq7_pup_decoder", batch), &batch, |b, _| {
            b.iter(|| pairwise_interactions(black_box(&feats)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decoder, bench_decoder_batches);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("decoder", &criterion::take_results())
        .expect("write BENCH_decoder.json");
    println!("wrote {}", path.display());
}
