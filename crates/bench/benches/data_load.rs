//! Benchmark: the data set-up every `pup` command and serving set-up pays
//! before it can do anything else — parsing the interactions log
//! (`load_dataset`) and splitting it 60/20/20 by time (`Pipeline::new`).
//! The catalog is the serve-scan benchmark's: a scale-1.0 Yelp-like log of
//! about 983k events, generated and written to CSV once per run. Each run
//! appends an entry to `BENCH_data_load.json`.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::path::Path;

use pup_data::io::{load_dataset, save_dataset};
use pup_data::split::{temporal_split, SplitRatios};
use pup_data::Quantization;
use pup_recsys::Pipeline;

const PRICE_LEVELS: usize = 4;

fn load(dir: &Path) -> pup_data::Dataset {
    let (items, inter) = (dir.join("items.csv"), dir.join("interactions.csv"));
    load_dataset(&items, &inter, PRICE_LEVELS, Quantization::Uniform).expect("load").0
}

fn bench_data_load(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("pup-bench-data-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let synth = pup_data::synthetic::yelp_like(1.0, 1);
    let (items, inter) = (dir.join("items.csv"), dir.join("interactions.csv"));
    save_dataset(&synth.dataset, None, &items, &inter).expect("write catalog");
    drop(synth);

    let mut group = c.benchmark_group("data_load");
    group.sample_size(10);
    group.bench_function("load_dataset", |b| b.iter(|| black_box(load(&dir))));
    let dataset = load(&dir);
    group.bench_function("temporal_split", |b| {
        b.iter(|| black_box(temporal_split(black_box(&dataset), SplitRatios::PAPER)))
    });
    drop(dataset);
    group.bench_function("load_and_split", |b| b.iter(|| black_box(Pipeline::new(load(&dir)))));
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_data_load);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("data_load", &criterion::take_results())
        .expect("write BENCH_data_load.json");
    println!("wrote {}", path.display());
}
