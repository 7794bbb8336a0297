//! # pup-models
//!
//! PUP and every baseline from the paper's §V-A2, trained with a shared BPR
//! loop ([`trainer`]):
//!
//! | Model | Module | Paper role |
//! |---|---|---|
//! | [`Pup`] | [`pup`] | the contribution (two-branch GCN + FM decoder) |
//! | [`ItemPop`] | [`itempop`] | non-personalized popularity |
//! | [`BprMf`] | [`bprmf`] | matrix factorization with BPR |
//! | [`Padq`] | [`padq`] | collective MF over user-item/user-price/item-price |
//! | [`Fm`] | [`fm`] | 2-way FM with price & category item features |
//! | [`DeepFm`] | [`deepfm`] | FM + MLP ensemble |
//! | [`GcMc`] | [`gcmc`] | GCN on the bipartite graph, one-hot IDs |
//! | [`Ngcf`] | [`ngcf`] | embedding propagation with price-augmented items |
//!
//! All models expose [`Recommender`] for evaluation and (except ItemPop and
//! PaDQ, which own their fitting procedure) [`trainer::BprModel`] for
//! training. [`Recommender::freeze`] turns any of them into a plain-data,
//! thread-shareable scorer ([`frozen`]) for serving.

pub mod bprmf;
pub mod common;
pub mod deepfm;
pub mod fm;
pub mod frozen;
pub mod gcmc;
pub mod itempop;
pub mod ngcf;
pub mod padq;
pub mod pup;
pub mod resilient;
pub mod topk;
pub mod trainer;

pub use bprmf::BprMf;
pub use common::{NamedParam, ParamRegistry, Recommender, ScoreError, TrainData};
pub use deepfm::DeepFm;
pub use fm::Fm;
pub use frozen::{DotScorer, Frozen};
pub use gcmc::GcMc;
pub use itempop::ItemPop;
pub use ngcf::Ngcf;
pub use padq::{Padq, PadqConfig};
pub use pup::{AttributeTarget, ExtraAttribute, Pup, PupConfig, PupVariant};
pub use resilient::{train_bpr_resilient, train_bpr_resilient_with_faults, RecoveryPolicy};
pub use topk::{Candidates, Shortlist};
pub use trainer::{
    restore_params, train_bpr, BprModel, BprTrainer, RecoveryEvent, TrainConfig, TrainError,
    TrainStats,
};
