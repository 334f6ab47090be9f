//! # mkss-analysis
//!
//! Offline schedulability analysis for (m,k)-firm fixed-priority
//! standby-sparing systems:
//!
//! * [`rta`] — busy-window response-time analysis with either classic
//!   (all jobs) or mandatory-only (deeply-red pattern) interference, plus
//!   the dual-priority *promotion times* `Y_i = D_i − R_i` of Eq. (2);
//! * [`postpone`] — the backup *release postponement intervals* `θ_i` of
//!   Definitions 2–5 (Eqs. 3–5), which let the spare processor start
//!   backup jobs as late as provably safe so that completed main jobs can
//!   cancel them before they consume energy.
//!
//! ## Example
//!
//! ```
//! use mkss_analysis::prelude::*;
//! use mkss_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ts = TaskSet::new(vec![
//!     Task::from_ms(10, 10, 3, 2, 3)?,
//!     Task::from_ms(15, 15, 8, 1, 2)?,
//! ])?;
//! assert!(is_schedulable_r_pattern(&ts));
//! let post = postponement_intervals(&ts, PostponeConfig::default())?;
//! assert_eq!(post.theta, vec![Time::from_ms(7), Time::from_ms(4)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod exact;
pub mod postpone;
pub mod rotation;
pub mod rta;
pub mod util_bound;

/// Commonly used analysis entry points.
pub mod prelude {
    pub use crate::exact::{exact_sweep, exact_sweep_rotated, ExactReport};
    pub use crate::postpone::{
        job_postponement, postponement_intervals, JobPostponement, PostponeConfig, PostponeError,
        Postponement,
    };
    pub use crate::rotation::{find_rotation, RotationAssignment, RotationConfig};
    pub use crate::rta::{
        analyze, is_schedulable_r_pattern, promotion_times, response_time, InterferenceModel,
        SchedulabilityReport, TaskResponse,
    };
    pub use crate::util_bound::{
        liu_layland_sufficient, mandatory_utilization, quick_verdict, QuickVerdict,
    };
}
