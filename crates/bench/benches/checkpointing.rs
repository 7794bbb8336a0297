//! Benchmarks: checkpoint save / load for a trained PUP model — the cost
//! a resilient run pays per epoch for crash safety (encode + fsync +
//! rename on save; read + checksum + validate + restore on load) — and a
//! registry load and a restore, the two halves of a hot swap's model
//! build. Each run appends an entry to `BENCH_checkpointing.json`.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use pup_ckpt::registry::ModelRegistry;
use pup_ckpt::store;
use pup_data::synthetic::{generate, GeneratorConfig};
use pup_models::{BprTrainer, Pup, PupConfig, TrainConfig};
use pup_recsys::{FitConfig, ModelKind, Pipeline};

/// A PUP model plus a trainer that has run one epoch, so the checkpoint
/// carries warm Adam moments and a real RNG/shuffle state.
fn fixture() -> (Pipeline, Pup, BprTrainer, std::path::PathBuf) {
    let dataset = generate(&GeneratorConfig {
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
    let pipeline = Pipeline::new(dataset);
    let data = pipeline.train_data();
    let cfg = TrainConfig { epochs: 2, batch_size: 1024, ..Default::default() };
    let mut model = Pup::new(&data, PupConfig::default());
    let mut trainer = BprTrainer::new(&model, data.n_users, data.n_items, data.train, &cfg);
    trainer.run_epoch(&mut model).expect("warmup epoch");

    let dir = std::env::temp_dir().join(format!("pup-bench-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    (pipeline, model, trainer, dir)
}

fn bench_checkpointing(c: &mut Criterion) {
    let (pipeline, model, trainer, dir) = fixture();
    let path = store::checkpoint_path(&dir, 1);

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    group.bench_function("save_pup", |b| {
        b.iter(|| trainer.save_checkpoint(&model, black_box(&path)).expect("save"))
    });

    trainer.save_checkpoint(&model, &path).expect("seed checkpoint for load bench");
    group.bench_function("load_pup", |b| {
        b.iter(|| black_box(store::load(black_box(&path)).expect("load")))
    });

    group.bench_function("encode_pup", |b| {
        let ckpt = trainer.checkpoint(&model);
        b.iter(|| black_box(ckpt.to_bytes()))
    });

    group.bench_function("decode_pup", |b| {
        let bytes = trainer.checkpoint(&model).to_bytes();
        b.iter(|| black_box(pup_ckpt::Checkpoint::from_bytes(black_box(&bytes)).expect("decode")))
    });

    // Publish once, then time the validated load a swap's factory makes.
    let registry = ModelRegistry::open(&dir.join("registry")).expect("open registry");
    let gen = registry.publish(&trainer.checkpoint(&model)).expect("publish").gen;
    group.bench_function("registry_load_pup", |b| {
        b.iter(|| black_box(registry.load(black_box(gen)).expect("registry load")))
    });

    // The other half of that build: a finalized model from the decoded
    // checkpoint.
    let ckpt = trainer.checkpoint(&model);
    let fit = FitConfig::default();
    group.bench_function("restore_pup", |b| {
        b.iter(|| {
            let kind = ModelKind::Pup(PupConfig::default());
            black_box(
                pipeline.restore_from_checkpoint(kind, &fit, black_box(&ckpt)).expect("restore"),
            )
        })
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_checkpointing);

fn main() {
    benches();
    let path = pup_bench::harness::write_bench_json("checkpointing", &criterion::take_results())
        .expect("write BENCH_checkpointing.json");
    println!("wrote {}", path.display());
}
