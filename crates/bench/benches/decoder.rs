//! Benchmarks: the pairwise-interaction decoder — the paper's eq. 7
//! linear-time trick against the naive quadratic computation, across batch
//! sizes and feature counts. This is the ablation for the implementation
//! choice called out in DESIGN.md §5. The `decoder_step` group times one
//! training step's decoder at PUP's shape, forward and backward: the fused
//! op over a step table's rows against the gather-and-chain it replaced.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

use pup_models::common::{pairwise_interactions, pairwise_interactions_naive};
use pup_tensor::{init, ops, Var};

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

/// PUP's training batch and a step table's row ranges: users, items and
/// price nodes, one index list each.
const STEP_BATCH: usize = 1_024;
const STEP_RANGES: [(usize, usize); 3] = [(0, 1_000), (1_000, 2_900), (2_900, 2_910)];

fn bench_decoder_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoder_step");
    group.sample_size(30);
    for dim in [56usize, 8] {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        let table = Var::param(init::normal(STEP_RANGES[2].1, dim, 0.1, &mut rng));
        let lists: Vec<Vec<usize>> = STEP_RANGES
            .iter()
            .map(|&(lo, hi)| {
                (0..STEP_BATCH).map(|_| rand::Rng::gen_range(&mut rng, lo..hi)).collect()
            })
            .collect();
        let weights = Var::constant(init::normal(STEP_BATCH, 1, 1.0, &mut rng));
        let step = |scores: Var| {
            ops::sum(&ops::mul(&scores, &weights)).backward();
            table.zero_grad();
        };
        let shape = format!("{STEP_BATCH}x{dim}");
        group.bench_with_input(BenchmarkId::new("chain", &shape), &dim, |b, _| {
            b.iter(|| {
                let f: Vec<Var> = lists.iter().map(|l| ops::gather_rows(&table, l)).collect();
                step(pairwise_interactions(black_box(&f)))
            })
        });
        group.bench_with_input(BenchmarkId::new("fused", &shape), &dim, |b, _| {
            b.iter(|| step(ops::pairwise_rows(&table, [0, 1, 2].map(|k| lists[k].clone()))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decoder, bench_decoder_batches, bench_decoder_step);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("decoder", &criterion::take_results())
        .expect("write BENCH_decoder.json");
    println!("wrote {}", path.display());
}
