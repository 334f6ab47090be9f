//! # mkss-core
//!
//! Task model, integer-tick time base, and (m,k)-firm machinery for the
//! `mkss` family of crates — a reproduction of *Niu & Zhu, "Reliable and
//! Energy-Aware Fixed-Priority (m,k)-Deadlines Enforcement with
//! Standby-Sparing", DATE 2020*.
//!
//! This crate is dependency-light and purely declarative: it defines
//! periodic tasks `(P, D, C, m, k)` ([`task::Task`]), fixed-priority task
//! sets ([`task::TaskSet`]), job instances ([`job::Job`]), the static
//! deeply-red / evenly-distributed partitioning patterns ([`mk::Pattern`]),
//! the sliding (m,k)-satisfaction monitor ([`mk::MkMonitor`]), and the
//! *flexibility degree* of Definition 1 ([`history::MkHistory`]).
//!
//! Scheduling analysis lives in `mkss-analysis`, the dual-processor
//! simulator in `mkss-sim`, and the paper's scheduling schemes in
//! `mkss-policies`.
//!
//! ## Example
//!
//! ```
//! use mkss_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The motivating task set of Section III.
//! let ts = TaskSet::new(vec![
//!     Task::from_ms(5, 4, 3, 2, 4)?,
//!     Task::from_ms(10, 10, 3, 1, 2)?,
//! ])?;
//!
//! // Static deeply-red pattern: jobs 1,2 of τ1 mandatory, 3,4 optional.
//! let mk = ts.task(TaskId(0)).mk();
//! assert!(Pattern::DeeplyRed.is_mandatory(mk, 1));
//! assert!(!Pattern::DeeplyRed.is_mandatory(mk, 3));
//!
//! // Dynamic classification via flexibility degree.
//! let mut h = MkHistory::new(mk);
//! assert_eq!(h.flexibility_degree(), 2);
//! h.record(JobOutcome::Missed);
//! h.record(JobOutcome::Missed);
//! assert!(h.next_is_mandatory());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod fold;
pub mod history;
pub mod job;
pub mod mk;
pub mod par;
pub mod task;
pub mod time;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::error::ValidateTaskError;
    pub use crate::history::{JobOutcome, MkHistory};
    pub use crate::job::{CopyKind, Job, JobClass, JobId};
    pub use crate::mk::{MkConstraint, MkMonitor, Pattern, RotatedPattern};
    pub use crate::task::{Task, TaskId, TaskSet};
    pub use crate::time::{Time, TICKS_PER_MS};
}
