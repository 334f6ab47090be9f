//! # mkss-policies
//!
//! The scheduling schemes evaluated in *Niu & Zhu, DATE 2020*:
//!
//! * [`MkssSt`] — static deeply-red patterns, concurrent main/backup
//!   execution (the energy reference);
//! * [`MkssDp`] — static patterns with preference-oriented placement and
//!   dual-priority backup procrastination by the promotion times
//!   `Y_i = D_i − R_i` (after Haque et al. and Begam et al., no DVS).
//!   Its [`MkssDp::theta`] variant keeps every main on the primary and
//!   postpones backups by the inspecting-point intervals `θ_i` of
//!   Definitions 2–5;
//! * [`MkssSelective`] — the paper's contribution (Algorithm 1):
//!   dynamic patterns via flexibility degrees and selective execution of
//!   FD = 1 optional jobs alternating across both processors. Its
//!   backups wait the promotion times `Y_i`, not Algorithm 1's `θ_i`,
//!   which the dynamic pattern's job positions break (DESIGN §7);
//! * [`DynamicPolicy`] with a custom [`DynamicConfig`] — the greedy
//!   strawman of Section III and the FD = 1 primary-only scheme of
//!   Fig. 2.
//!
//! All schemes implement the [`mkss_sim::policy::Policy`] trait and run on
//! the shared [`mkss_sim`] engine.
//!
//! ## Example
//!
//! ```
//! use mkss_core::prelude::*;
//! use mkss_policies::{MkssDp, MkssSelective, MkssSt};
//! use mkss_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ts = TaskSet::new(vec![
//!     Task::from_ms(5, 4, 3, 2, 4)?,
//!     Task::from_ms(10, 10, 3, 1, 2)?,
//! ])?;
//! let config = SimConfig::active_only(Time::from_ms(20));
//! let st = simulate(&ts, &mut MkssSt::new(), &config);
//! let dp = simulate(&ts, &mut MkssDp::new(&ts)?, &config);
//! let sel = simulate(&ts, &mut MkssSelective::new(&ts)?, &config);
//! assert!(sel.active_energy().units() < dp.active_energy().units());
//! assert!(dp.active_energy().units() < st.active_energy().units());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod dual_priority;
pub mod dynamic;
pub mod error;
pub mod registry;
pub mod static_pattern;

pub use dual_priority::MkssDp;
pub use dynamic::{DynamicConfig, DynamicPolicy, MkssSelective, OptionalPlacement, SelectionRule};
pub use error::BuildPolicyError;
pub use registry::{BuildOptions, ParsePolicyKindError, PolicyKind};
pub use static_pattern::MkssSt;
