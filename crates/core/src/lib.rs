//! The paper's contribution: probabilistic vertex equivalence and the
//! `Ω(√n)` non-searchability lower bounds for evolving scale-free graphs.
//!
//! This crate turns every definition, lemma and theorem of *Duchon,
//! Eggemann, Hanusse — "Non-Searchability of Random Scale-Free Graphs"*
//! into executable form:
//!
//! | paper artifact | here |
//! |----------------|------|
//! | Definition 1 (`σ(G)`) | [`Permutation`] |
//! | Definition 2 (equivalence conditional on `E`) | [`exact_window_exchangeability`], [`sampled_window_symmetry`] |
//! | Lemma 1 (`\|V\|·P(E)/2` bound) | [`lemma1_lower_bound`] |
//! | Lemma 2 (event `E_{a,b}`) | [`mori_window_event_holds`], [`EquivalenceWindow`] |
//! | Lemma 3 (`P(E_{a,b}) ≥ e^{−(1−p)}`) | [`mori_event_probability_exact`], [`estimate_mori_event_probability`], [`lemma3_bound`] |
//! | Theorem 1 (weak + strong) | [`theorem1_weak_bound`], [`strong_model_exponent`], [`certify`], [`ScalingSeries`] |
//! | Theorem 2 (Cooper–Frieze) | [`cooper_frieze_window_event_holds`], [`certify`], [`ScalingSeries`] |
//!
//! # Example: the paper's headline numbers
//!
//! ```
//! use nonsearch_core::{
//!     lemma3_bound, mori_event_probability_exact, theorem1_weak_bound, EquivalenceWindow,
//! };
//!
//! // Lemma 3 at p = 0.5: the exact event probability beats e^{-(1-p)}.
//! let w = EquivalenceWindow::from_anchor(10_000);
//! let exact = mori_event_probability_exact(w.a(), w.b(), 0.5).unwrap();
//! assert!(exact >= lemma3_bound(0.5));
//!
//! // Theorem 1: the concrete lower bound grows like √n.
//! let b1 = theorem1_weak_bound(10_000, 0.5).unwrap();
//! let b2 = theorem1_weak_bound(40_000, 0.5).unwrap();
//! assert!(b2 / b1 > 1.8 && b2 / b1 < 2.2); // ≈ √4 = 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certify;
mod enumerate;
mod equivalence;
mod event;
mod lower_bound;
mod model;
mod permutation;
mod series;
mod theory;
mod trial;
mod window;

pub use certify::{certify, CertifyConfig};
pub use enumerate::{enumerate_mori_trees, FatherVector, TreeDistribution};
pub use equivalence::{
    exact_window_exchangeability, sampled_window_symmetry, ExchangeabilityCheck, SymmetryReport,
};
pub use event::{
    cooper_frieze_window_event_holds, estimate_mori_event_probability, mori_window_event_holds,
    EventEstimate,
};
pub use lower_bound::{lemma1_lower_bound, theorem1_weak_bound, theorem2_weak_bound};
pub use model::{
    BarabasiAlbertModel, CooperFriezeModel, GraphModel, MergedMoriModel, ModelSource,
    PowerLawGiantModel, UniformAttachmentModel,
};
pub use permutation::Permutation;
pub use series::ScalingSeries;
pub use theory::{
    adamic_high_degree_exponent, adamic_random_walk_exponent, lemma3_bound, lemma3_window_end,
    mori_conditional_factor, mori_event_probability_exact, mori_max_degree_exponent,
    p_one_avoiding_walk_requests, p_one_leaf_requests, strong_model_exponent, CoreError,
    RequestMoments,
};
pub use trial::{measure_trial, Oracle, Rescans, TrialPool};
pub use window::EquivalenceWindow;

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
