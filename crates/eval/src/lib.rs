//! # pup-eval
//!
//! Evaluation for price-aware recommendation:
//!
//! - [`metrics`]: Recall@K and NDCG@K.
//! - [`ranking`]: full-ranking top-K evaluation over all non-train items,
//!   including user-subset evaluation for the consistency analysis
//!   (Table VI).
//! - [`coldstart`]: the CIR / UCIR unexplored-category protocols (Fig. 6).
//! - [`significance`]: paired t-tests over per-user metrics (§V-B4).
//! - [`revenue`]: Revenue@K, the §VII value-aware extension.
//! - [`report`]: fixed-width tables for the experiment binaries.

pub mod coldstart;
pub mod metrics;
pub mod ranking;
pub mod report;
pub mod revenue;
pub mod significance;

pub use coldstart::{build_cold_start_task, evaluate_cold_start, ColdStartProtocol, ColdStartTask};
pub use ranking::{
    evaluate, evaluate_per_user, evaluate_pools, evaluate_pools_per_user, evaluate_users,
    rank_candidates, try_rank_candidates, try_rank_unseen, MetricPair, MetricReport,
    PerUserMetrics,
};
pub use report::Table;
pub use revenue::{evaluate_revenue, RevenueReport};
pub use significance::{paired_t_test, TTestResult};
