//! # mkss — reliable, energy-aware (m,k)-firm standby-sparing scheduling
//!
//! A full reproduction of *Niu & Zhu, "Reliable and Energy-Aware
//! Fixed-Priority (m,k)-Deadlines Enforcement with Standby-Sparing",
//! DATE 2020*, as a family of Rust crates, re-exported here as one
//! facade:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `mkss-core` | tasks `(P,D,C,m,k)`, jobs, the deeply-red pattern, flexibility degree, (m,k) monitor |
//! | [`analysis`] | `mkss-analysis` | response-time analysis, promotion times `Y`, postponement intervals `θ` |
//! | [`sim`] | `mkss-sim` | deterministic dual-processor simulator: MJQ/OJQ dispatch, faults, DPD energy |
//! | [`policies`] | `mkss-policies` | `MKSS_ST`, `MKSS_DP` (and its θ variant), `MKSS_selective`, greedy |
//! | [`workload`] | `mkss-workload` | the Section-V random task-set generator |
//! | [`obs`] | `mkss-obs` | zero-dep observability: engine-event recorders, counter/histogram registry, metrics export |
//! | [`serve`] | `mkss-serve` | session-pooled simulation daemon: line-JSON protocol over Unix/TCP sockets, bounded run slots, per-request metrics |
//! | [`top`] | `mkss-top` | live terminal dashboard: deterministic frame model over daemon `watch` streams or in-process registries, plain/ANSI renderers |
//!
//! ## Quickstart
//!
//! ```
//! use mkss::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Section III motivating task set: (P, D, C, m, k).
//! let ts = TaskSet::new(vec![
//!     Task::from_ms(5, 4, 3, 2, 4)?,
//!     Task::from_ms(10, 10, 3, 1, 2)?,
//! ])?;
//!
//! // Offline analysis: schedulable under the R-pattern?
//! assert!(is_schedulable_r_pattern(&ts));
//!
//! // Simulate the paper's three schemes over one hyperperiod and
//! // compare active energy (the numbers of Figs. 1–2).
//! let config = SimConfig::active_only(Time::from_ms(20));
//! let st = simulate(&ts, &mut MkssSt::new(), &config);
//! let dp = simulate(&ts, &mut MkssDp::new(&ts)?, &config);
//! let sel = simulate(&ts, &mut MkssSelective::new(&ts)?, &config);
//!
//! assert_eq!(st.active_energy().units(), 18.0);
//! assert_eq!(dp.active_energy().units(), 15.0); // Fig. 1
//! assert!(sel.active_energy().units() < 15.0);
//! assert!(st.mk_assured() && dp.mk_assured() && sel.mk_assured());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mkss_analysis as analysis;
pub use mkss_core as core;
pub use mkss_obs as obs;
pub use mkss_policies as policies;
pub use mkss_serve as serve;
pub use mkss_sim as sim;
pub use mkss_top as top;
pub use mkss_workload as workload;

/// One-stop import of the most commonly used items from every crate.
pub mod prelude {
    pub use mkss_analysis::prelude::*;
    pub use mkss_core::prelude::*;
    pub use mkss_obs::{
        CounterId, HistogramId, LogLevel, MetricsDoc, NoopRecorder, Recorder, Registry, Reporter,
    };
    pub use mkss_policies::{
        BuildOptions, BuildPolicyError, DynamicConfig, DynamicPolicy, MkssDp, MkssSelective,
        MkssSt, OptionalPlacement, ParsePolicyKindError, PolicyKind, SelectionRule,
    };
    pub use mkss_sim::prelude::*;
    pub use mkss_workload::{generate_buckets, Bucket, BucketPlan, Generator, WorkloadConfig};
}
