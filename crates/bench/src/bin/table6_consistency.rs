//! Table VI: NDCG@50 of DeepFM vs PUP on users grouped by the consistency
//! of their price awareness across categories (beibei-like dataset).
//!
//! Users are split at the median CWTP entropy: low entropy = consistent.
//! Expected shape: both models do better on consistent users; PUP's boost
//! over DeepFM is much larger on the consistent group.

use pup_bench::harness::{banner, fit_verbose, tuned_pup, ExperimentEnv};
use pup_data::cwtp::{entropy_by_user, group_users_by_entropy, median_entropy};
use pup_data::synthetic::beibei_like;
use pup_eval::report::improvement_pct;
use pup_recsys::prelude::*;
use pup_recsys::ModelKind;

fn main() {
    let env = ExperimentEnv::from_env();
    banner("Table VI — consistency of price awareness across categories (beibei-like)", &env);

    let synth = beibei_like(env.scale, env.seed);
    let entropies = entropy_by_user(&synth.dataset);
    #[expect(clippy::expect_used, reason = "demo binary; synthetic data always has interactions.")]
    let threshold = median_entropy(&entropies).expect("users with interactions exist");
    let (consistent, inconsistent) = group_users_by_entropy(&entropies, threshold);
    println!(
        "median CWTP entropy {threshold:.3}: {} consistent vs {} inconsistent users",
        consistent.len(),
        inconsistent.len()
    );

    let pipeline = Pipeline::new(synth.dataset);
    let cfg = env.fit_config();
    let deepfm = fit_verbose(&pipeline, ModelKind::DeepFm, &cfg);
    let pup = fit_verbose(&pipeline, ModelKind::Pup(tuned_pup()), &cfg);

    println!();
    println!("{:>14} {:>10} {:>10} {:>9}", "user group", "DeepFM", "PUP", "boost");
    for (label, users) in [("consistent", &consistent), ("inconsistent", &inconsistent)] {
        let d = pipeline.evaluate_users(deepfm.as_ref(), users, &[50]).at(50).ndcg;
        let p = pipeline.evaluate_users(pup.as_ref(), users, &[50]).at(50).ndcg;
        println!("{label:>14} {d:>10.4} {p:>10.4} {:>8.2}%", improvement_pct(d, p));
    }
    println!();
    println!("(metric = NDCG@50)");
    println!("paper shape: both models better on consistent users; PUP's boost largest there.");
}
