//! Price-sensitive shopper: shows that PUP recovers a user's *category-
//! dependent* willingness to pay from behavior alone.
//!
//! We generate a dataset whose ground truth is known (each user has an
//! explicit per-category WTP), train PUP, and then compare the model's
//! learned price affinities against the planted truth — including the
//! category branch's `e_u·e_c + e_u·e_p + e_c·e_p` interpretability handle
//! from the paper's decoder design (§III-C).
//!
//! ```sh
//! cargo run --release --example price_sensitive_shopper
//! ```

#![allow(clippy::expect_used)]

use pup_data::synthetic::{generate, GeneratorConfig, PriceDistribution};
use pup_recsys::prelude::*;

fn main() {
    // A dataset with a strong price gate so the planted signal is crisp.
    let synth = generate(&GeneratorConfig {
        n_users: 300,
        n_items: 300,
        n_categories: 8,
        n_price_levels: 6,
        n_interactions: 18_000,
        price_weight: 5.0,
        consistent_user_frac: 0.5,
        price_distribution: PriceDistribution::Uniform,
        kcore: 5,
        seed: 77,
        ..Default::default()
    });
    let truth = synth.truth.clone();
    let dataset = synth.dataset;
    println!(
        "dataset: {} users, {} items, {} price levels",
        dataset.n_users, dataset.n_items, dataset.n_price_levels
    );

    // Ground-truth price level each user can afford, per category: quantize
    // the planted WTP against the category's item prices.
    let n_levels = dataset.n_price_levels;
    let pipeline = Pipeline::new(dataset);
    let cfg =
        FitConfig { train: TrainConfig { epochs: 25, ..Default::default() }, ..Default::default() };
    println!("training PUP (25 epochs) ...");
    let pup = pipeline.fit_pup(PupConfig::default(), &cfg);

    // --- Global price profile vs planted budget --------------------------
    // Rank users by their planted mean WTP and compare against the model's
    // preferred price level (argmax of e_u·e_p).
    let dataset = pipeline.dataset();
    let mut agree: Vec<(f64, usize)> = Vec::new();
    for u in 0..dataset.n_users {
        let mean_wtp: f64 = truth.user_wtp[u].iter().sum::<f64>() / truth.user_wtp[u].len() as f64;
        let affinity = pup.user_price_affinity(u);
        let preferred = affinity
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(l, _)| l)
            .unwrap_or(0);
        agree.push((mean_wtp, preferred));
    }
    // Spearman-ish check: mean preferred level of the richest vs poorest
    // user quartile.
    agree.sort_by(|a, b| a.0.total_cmp(&b.0));
    let q = agree.len() / 4;
    let poor_mean: f64 = agree[..q].iter().map(|&(_, l)| l as f64).sum::<f64>() / q as f64;
    let rich_mean: f64 =
        agree[agree.len() - q..].iter().map(|&(_, l)| l as f64).sum::<f64>() / q as f64;
    println!("\nmean preferred price level (of {n_levels}):");
    println!("  lowest-budget user quartile:  {poor_mean:.2}");
    println!("  highest-budget user quartile: {rich_mean:.2}");
    if rich_mean > poor_mean {
        println!("  => PUP's global branch recovered the planted purchasing power.");
    } else {
        println!("  (!) global branch did not separate budgets on this run.");
    }

    // --- Category-dependent awareness -------------------------------------
    // For one inconsistent user, print the category-branch affinity of her
    // cheapest-WTP category vs her most expensive one.
    let user = (0..dataset.n_users)
        .find(|&u| !truth.user_consistent[u])
        .expect("an inconsistent user exists");
    let wtp = &truth.user_wtp[user];
    let (cheap_cat, _) =
        wtp.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).unwrap_or((0, &0.0));
    let (rich_cat, _) =
        wtp.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap_or((0, &0.0));
    println!("\ninconsistent user {user}: category branch affinity by price level");
    for (label, cat) in [("cheapest-WTP", cheap_cat), ("highest-WTP", rich_cat)] {
        let row: Vec<String> = (0..n_levels)
            .map(|p| format!("{:+.2}", pup.user_category_price_affinity(user, cat, p)))
            .collect();
        println!("  {label} category {cat}: [{}]", row.join(", "));
    }
    println!(
        "\nthe two rows differ — the category branch models price sensitivity \
         per category, which a single global profile cannot."
    );
}
