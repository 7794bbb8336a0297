//! Extended attributes: the paper's §VII generality claim in action.
//!
//! "User profiles can be added as separate nodes linked to user nodes, while
//! item features other than price and category can be integrated similarly."
//!
//! This example attaches a synthetic **brand** family to items and a **city**
//! family to users, trains PUP with and without the extra nodes, and also
//! evaluates the §VII *value-aware* extension (Revenue@K).
//!
//! ```sh
//! cargo run --release --example extended_attributes
//! ```

#![allow(clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pup_eval::revenue::evaluate_revenue;
use pup_models::{train_bpr, AttributeTarget, ExtraAttribute, Pup};
use pup_recsys::prelude::*;

fn main() {
    let synth = yelp_like(0.02, 31);
    let pipeline = Pipeline::new(synth.dataset);
    let data = pipeline.train_data();
    println!(
        "dataset: {} users, {} items, {} categories",
        data.n_users, data.n_items, data.n_categories
    );

    // Synthetic brand/city assignments correlated with nothing — the point
    // here is the mechanics (extra node families join propagation), not a
    // lift; with real attributes the same three lines carry real signal.
    let mut rng = StdRng::seed_from_u64(9);
    let n_brands = 12;
    let brands = ExtraAttribute {
        name: "brand".into(),
        n_values: n_brands,
        values: (0..data.n_items).map(|_| rng.gen_range(0..n_brands)).collect(),
        target: AttributeTarget::Items,
    };
    let n_cities = 5;
    let cities = ExtraAttribute {
        name: "city".into(),
        n_values: n_cities,
        values: (0..data.n_users).map(|_| rng.gen_range(0..n_cities)).collect(),
        target: AttributeTarget::Users,
    };

    let tc = TrainConfig { epochs: 15, ..Default::default() };
    println!("training PUP without extras ...");
    let mut plain = Pup::new(&data, PupConfig::default());
    train_bpr(&mut plain, data.n_users, data.n_items, data.train, &tc).expect("training");

    println!("training PUP with brand + city node families ...");
    let mut extended = Pup::with_extras(&data, PupConfig::default(), &[brands, cities]);
    train_bpr(&mut extended, data.n_users, data.n_items, data.train, &tc).expect("training");

    let ks = [20usize, 50];
    let rp = pipeline.evaluate(&plain, &ks);
    let re = pipeline.evaluate(&extended, &ks);
    println!("\naccuracy (Recall@20 / Recall@50):");
    println!("  plain PUP:    {:.4} / {:.4}", rp.at(20).recall, rp.at(50).recall);
    println!("  extended PUP: {:.4} / {:.4}", re.at(20).recall, re.at(50).recall);
    println!("  (random attributes ≈ no change, by design; the graph grew by {} nodes)", 12 + 5);

    // Value-aware evaluation: how much of the users' test spending the
    // top-K recovers (paper §VII's revenue direction).
    let prices = &pipeline.dataset().item_price;
    let rev_plain = evaluate_revenue(&plain, pipeline.split(), prices, &ks);
    println!("\nrevenue recovered by top-K (Revenue-Recall@20 / @50):");
    println!(
        "  plain PUP:    {:.4} / {:.4}",
        rev_plain.revenue_recall(20),
        rev_plain.revenue_recall(50)
    );
    let rev_ext = evaluate_revenue(&extended, pipeline.split(), prices, &ks);
    println!(
        "  extended PUP: {:.4} / {:.4}",
        rev_ext.revenue_recall(20),
        rev_ext.revenue_recall(50)
    );
}
