//! Cross-commit training trajectory pin.
//!
//! Trains a seeded small Full PUP with dropout on for three epochs and
//! digests the epoch losses and the final parameters. Any change to the
//! training arithmetic — propagation, dropout draws, gradient accumulation,
//! Adam — moves the digest, so a speed-up that claims to keep every number
//! must leave it alone.

#![allow(clippy::expect_used)]

use pup_data::split::{temporal_split, SplitRatios};
use pup_data::synthetic::{generate, GeneratorConfig};
use pup_models::common::{ParamRegistry, TrainData};
use pup_models::trainer::{BprTrainer, TrainConfig};
use pup_models::{Pup, PupConfig, PupVariant};

/// FNV-1a 64 over the little-endian bytes of every value, in order.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digest of three seeded epochs: epoch losses, then each parameter's
/// values in registry order.
fn trajectory_digest() -> u64 {
    let synth = generate(&GeneratorConfig {
        n_users: 120,
        n_items: 90,
        n_categories: 5,
        n_price_levels: 4,
        n_interactions: 1_500,
        kcore: 0,
        seed: 23,
        ..Default::default()
    });
    let split = temporal_split(&synth.dataset, SplitRatios::PAPER);
    let data = TrainData::new(&synth.dataset, &split);
    let config = PupConfig {
        global_dim: 12,
        category_dim: 4,
        variant: PupVariant::Full,
        dropout: 0.1,
        seed: 5,
        ..Default::default()
    };
    let mut pup = Pup::new(&data, config);
    let train_cfg = TrainConfig { epochs: 3, batch_size: 128, seed: 9, ..Default::default() };
    let mut trainer = BprTrainer::new(&pup, data.n_users, data.n_items, data.train, &train_cfg);
    let mut values = Vec::new();
    for _ in 0..3 {
        values.push(trainer.run_epoch(&mut pup).expect("epoch trains"));
    }
    for param in pup.named_params() {
        values.extend_from_slice(param.var.value().as_slice());
    }
    fnv1a(values)
}

/// The digest was computed at the commit before PUP's training step was
/// restricted to the rows a batch touches (full-graph propagation, full
/// dropout, then gather). The restricted step must reproduce it exactly.
const PINNED: u64 = 0x0310_d044_287e_22c1;

#[test]
fn three_seeded_epochs_match_the_pinned_trajectory() {
    let digest = trajectory_digest();
    assert_eq!(digest, PINNED, "training trajectory moved: digest {digest:#018x}");
}
