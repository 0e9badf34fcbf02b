//! Measurement toolkit for the `nonsearch` project.
//!
//! Everything needed to turn sampled graphs and search runs into the
//! numbers the paper's claims are about:
//!
//! * [`SampleStats`] — summary statistics with confidence intervals.
//! * [`StreamingStats`] — the same moments in O(1) memory (Welford), for
//!   the trial engine's large sweeps; shard accumulators merge.
//! * [`LinearFit`] / [`fit_log_log`] — OLS regression, including the
//!   log–log fits used to estimate *scaling exponents* (the `0.5` in
//!   `Ω(n^{1/2})` is recovered as a log–log slope).
//! * [`fit_power_law_mle`] — discrete maximum-likelihood power-law
//!   exponents, for verifying the models are scale-free.
//! * [`average_distance`] / [`diameter_exact`] — sampled average shortest
//!   paths and diameters, for the paper's "logarithmic diameter vs
//!   polynomial search" contrast.
//! * [`Table`] — aligned text tables, so every experiment binary prints
//!   rows the way the paper's evaluation would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod correlation;
mod distance;
mod histogram;
mod power_law_fit;
mod regression;
mod stats;
mod streaming;
mod table;

pub use correlation::{
    age_degree_correlation, degree_assortativity, mean_neighbor_degree_curve, pearson,
};
pub use distance::{
    average_distance, diameter_exact, diameter_lower_bound_double_sweep, DistanceError,
};
pub use histogram::{log_binned_histogram, LogBin};
pub use power_law_fit::{fit_power_law_mle, PowerLawFit};
pub use regression::{fit_linear, fit_log_log, LinearFit};
pub use stats::SampleStats;
pub use streaming::StreamingStats;
pub use table::Table;
