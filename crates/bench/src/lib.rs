//! # mkss-bench
//!
//! Experiment harness regenerating the evaluation of *Niu & Zhu, DATE
//! 2020* (Figure 6, panels a–c).
//!
//! The harness follows Section V: random task sets bucketed by total
//! (m,k)-utilization (width-0.1 intervals, ≥ 20 schedulable sets or 5000
//! attempts per bucket), three fault scenarios (no fault / one permanent
//! fault / permanent + Poisson-10⁻⁶ transient faults), and per-set
//! energies normalized to the `MKSS_ST` reference.
//!
//! ```
//! use mkss_bench::experiment::{run_experiment_jobs, ExperimentConfig, Scenario};
//! use mkss_policies::PolicyKind;
//!
//! let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
//! cfg.plan.sets_per_bucket = 2; // keep the doctest quick
//! cfg.plan.to = 0.3;
//! let result = run_experiment_jobs(&cfg, 0); // 0 = every core
//! assert_eq!(result.buckets.len(), 2);
//! // The selective scheme never exceeds the reference.
//! for bucket in &result.buckets {
//!     let sel = bucket.normalized[&PolicyKind::Selective];
//!     assert!(sel <= 1.0 + 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiment;
pub mod table;
