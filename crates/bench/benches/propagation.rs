//! Benchmarks: the graph-convolution core `tanh(Â E)` — sparse-dense
//! product forward, and forward+backward through the autograd tape — at the
//! shapes PUP training uses, and PUP's inference fold, which propagates
//! every row once and folds eq. 7 into the serving tables.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use pup_data::synthetic::{generate, GeneratorConfig};
use pup_data::Dataset;
use pup_graph::normalize::row_normalized;
use pup_graph::{build_pup_graph, GraphSpec};
use pup_models::{BprModel, Pup, PupConfig};
use pup_recsys::Pipeline;
use pup_tensor::{init, ops, CsrMatrix, Var};

fn catalog(scale: usize) -> Dataset {
    generate(&GeneratorConfig {
        n_users: 200 * scale,
        n_items: 150 * scale,
        n_categories: 20,
        n_price_levels: 10,
        n_interactions: 6_000 * scale,
        kcore: 0,
        seed: 1,
        ..Default::default()
    })
    .dataset
}

fn pup_a_hat(scale: usize) -> Arc<CsrMatrix> {
    let d = catalog(scale);
    let pairs = d.unique_pairs();
    let g = build_pup_graph(
        d.n_users,
        d.n_items,
        d.n_price_levels,
        d.n_categories,
        &d.item_price_level,
        &d.item_category,
        &pairs,
        GraphSpec::FULL,
    );
    Arc::new(row_normalized(g.adjacency(), true))
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagation");
    group.sample_size(20);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    for scale in [1usize, 4] {
        let a = pup_a_hat(scale);
        for dim in [16usize, 64] {
            let e = init::normal(a.rows(), dim, 0.1, &mut rng);
            group.bench_function(BenchmarkId::new(format!("spmm_fwd_d{dim}"), scale), |b| {
                b.iter(|| a.spmm(black_box(&e)))
            });
            group.bench_function(BenchmarkId::new(format!("encoder_fwd_bwd_d{dim}"), scale), |b| {
                b.iter(|| {
                    let emb = Var::param(e.clone());
                    let h = ops::tanh(&ops::spmm(&a, &emb));
                    let loss = ops::mean(&ops::square(&h));
                    loss.backward();
                    black_box(emb.grad())
                })
            });
        }
    }
    group.finish();
}

/// `finalize` on an untrained full PUP (56 + 8 dims, one layer): both
/// branches' inference passes over every row, then the eq. 7 fold.
fn bench_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagation");
    group.sample_size(20);
    for scale in [4usize, 32] {
        let pipeline = Pipeline::new(catalog(scale));
        let mut model = Pup::new(&pipeline.train_data(), PupConfig::default());
        group.bench_function(BenchmarkId::new("pup_inference_fold", scale), |b| {
            b.iter(|| model.finalize())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spmm, bench_fold);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("propagation", &criterion::take_results())
        .expect("write BENCH_propagation.json");
    println!("wrote {}", path.display());
}
