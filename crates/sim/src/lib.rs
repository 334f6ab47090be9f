//! # mkss-sim
//!
//! A deterministic discrete-event simulator for dual-processor
//! *standby-sparing* real-time systems with (m,k)-firm deadlines,
//! reproducing the execution model of *Niu & Zhu, DATE 2020*.
//!
//! The engine ([`engine::simulate`]) owns everything the paper's schemes
//! share — MJQ/OJQ fixed-priority dispatch, sibling-copy cancellation,
//! transient/permanent fault injection, and DPD energy accounting — while
//! a [`policy::Policy`] supplies only the per-release classification and
//! placement decision. The concrete schemes (`MKSS_ST`, `MKSS_DP`,
//! `MKSS_selective`, …) live in the `mkss-policies` crate.
//!
//! ## Example
//!
//! ```
//! use mkss_core::prelude::*;
//! use mkss_sim::prelude::*;
//!
//! /// A minimal policy: every job mandatory, concurrent backup.
//! struct Duplicate;
//! impl Policy for Duplicate {
//!     fn name(&self) -> &str { "duplicate" }
//!     fn on_release(&mut self, _ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
//!         ReleaseDecision::Mandatory {
//!             main_proc: ProcId::PRIMARY,
//!             backup_delay: Time::ZERO,
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2)?])?;
//! let report = simulate(&ts, &mut Duplicate, &SimConfig::new(Time::from_ms(100)));
//! assert!(report.mk_assured());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod policy;
pub mod pool;
pub mod power;
pub mod proc;
pub mod report;
pub mod trace;

/// Commonly used simulator types.
pub mod prelude {
    pub use crate::engine::{
        simulate, simulate_in, simulate_traced, SimConfig, SimConfigBuilder, SimWorkspace,
    };
    pub use crate::fault::{FaultConfig, PermanentFault, TransientSampler};
    pub use crate::policy::{Policy, ReleaseCtx, ReleaseDecision};
    pub use crate::pool::{PooledWorkspace, WorkspacePool};
    pub use crate::power::{Energy, EnergyBreakdown, PowerModel};
    pub use crate::proc::ProcId;
    pub use crate::report::{JobStats, MkViolation, SimReport};
    pub use crate::trace::{JobResolution, Segment, SegmentEnd, Trace};
}
