//! Benchmarks: building the unified heterogeneous graph and its rectified
//! adjacency (paper §III-A / eq. 5) at increasing dataset scales. Each run
//! appends an entry to `BENCH_graph_construction.json`.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

use pup_data::synthetic::{generate, GeneratorConfig};
use pup_graph::normalize::{row_normalized, sym_normalized};
use pup_graph::{build_pup_graph, GraphSpec};

fn dataset(scale: usize) -> pup_data::Dataset {
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

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(20);
    for scale in [1usize, 4] {
        let d = dataset(scale);
        let pairs = d.unique_pairs();
        group.bench_with_input(BenchmarkId::new("full_pup_graph", scale), &scale, |b, _| {
            b.iter(|| {
                build_pup_graph(
                    d.n_users,
                    d.n_items,
                    d.n_price_levels,
                    d.n_categories,
                    &d.item_price_level,
                    &d.item_category,
                    black_box(&pairs),
                    GraphSpec::FULL,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("bipartite_graph", scale), &scale, |b, _| {
            b.iter(|| {
                build_pup_graph(
                    d.n_users,
                    d.n_items,
                    0,
                    0,
                    &vec![0; d.n_items],
                    &vec![0; d.n_items],
                    black_box(&pairs),
                    GraphSpec::BIPARTITE,
                )
            })
        });
    }
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("normalize");
    group.sample_size(20);
    let d = dataset(4);
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
    group.bench_function("row_normalized_with_self_loops", |b| {
        b.iter(|| row_normalized(black_box(g.adjacency()), true))
    });
    group.bench_function("row_normalized_no_self_loops", |b| {
        b.iter(|| row_normalized(black_box(g.adjacency()), false))
    });
    group.bench_function("sym_normalized", |b| {
        b.iter(|| sym_normalized(black_box(g.adjacency()), true))
    });
    group.finish();
}

criterion_group!(benches, bench_graph_build, bench_normalization);

fn main() {
    benches();
    let path =
        pup_bench::harness::write_bench_json("graph_construction", &criterion::take_results())
            .expect("write BENCH_graph_construction.json");
    println!("wrote {}", path.display());
}
