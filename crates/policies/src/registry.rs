//! A small factory enumerating every available scheme, used by the
//! benchmark harness and the examples to build policies by name.

use mkss_core::task::TaskSet;
use mkss_sim::policy::Policy;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::dual_priority::{MainPlacement, MkssDp, StaticBackupDelay};
use crate::dynamic::{BackupDelay, DynamicConfig, DynamicPolicy, OptionalPlacement, SelectionRule};
use crate::error::BuildPolicyError;
use crate::static_pattern::MkssSt;

/// Every scheme the crate can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PolicyKind {
    /// [`MkssSt`]: static patterns, concurrent copies (the reference).
    Static,
    /// [`MkssDp`]: preference-oriented dual-priority procrastination.
    DualPriority,
    /// [`MkssDp`] with all mains on the primary (Haque-style placement).
    DualPriorityPrimary,
    /// [`DynamicPolicy::greedy`]: all optional jobs, primary only.
    Greedy,
    /// The paper's selective scheme (Algorithm 1).
    Selective,
    /// Selective without backup postponement (promotion times only) —
    /// ablation for the θ analysis.
    SelectiveNoPostpone,
    /// Selective with all optional jobs on the primary — ablation for the
    /// alternating placement.
    SelectivePrimaryOnly,
    /// Selective admitting optional jobs with flexibility degree ≤ 2 —
    /// ablation for the FD = 1 selection rule.
    SelectiveFd2,
    /// Selective admitting optional jobs with flexibility degree ≤ 3.
    SelectiveFd3,
    /// [`MkssSt`] with the evenly-distributed (E-)pattern instead of the
    /// deeply-red one — ablation for the static pattern shape.
    StaticEven,
    /// [`MkssDp`] with task-level θ-postponed backups instead of
    /// promotion times — ablation for the postponement analysis on
    /// static patterns.
    DualPriorityTheta,
}

/// Options shared by every scheme [`PolicyKind::build`] can construct.
///
/// Every scheme is built exactly as the paper describes, so the type has
/// no fields; it stays in [`PolicyKind::build`]'s signature for the
/// callers that pass [`BuildOptions::default`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub struct BuildOptions {}

impl BuildOptions {
    /// The defaults: every scheme built exactly as the paper describes.
    pub fn new() -> Self {
        BuildOptions::default()
    }
}

impl PolicyKind {
    /// All kinds, in a stable presentation order.
    pub const ALL: [PolicyKind; 11] = [
        PolicyKind::Static,
        PolicyKind::DualPriority,
        PolicyKind::DualPriorityPrimary,
        PolicyKind::Greedy,
        PolicyKind::Selective,
        PolicyKind::SelectiveNoPostpone,
        PolicyKind::SelectivePrimaryOnly,
        PolicyKind::SelectiveFd2,
        PolicyKind::SelectiveFd3,
        PolicyKind::StaticEven,
        PolicyKind::DualPriorityTheta,
    ];

    /// The three schemes compared in the paper's Figure 6.
    pub const PAPER: [PolicyKind; 3] = [
        PolicyKind::Static,
        PolicyKind::DualPriority,
        PolicyKind::Selective,
    ];

    /// Builds the policy for `ts` — the single entry point every
    /// harness, example, and test goes through.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPolicyError::Unschedulable`] for sets failing the
    /// R-pattern analysis (all schemes except [`PolicyKind::Static`]
    /// need it).
    ///
    /// # Examples
    ///
    /// ```
    /// use mkss_core::prelude::*;
    /// use mkss_policies::{BuildOptions, PolicyKind};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2)?])?;
    /// let policy = PolicyKind::Selective.build(&ts, &BuildOptions::default())?;
    /// assert_eq!(policy.name(), "MKSS_selective");
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(
        self,
        ts: &TaskSet,
        _opts: &BuildOptions,
    ) -> Result<Box<dyn Policy>, BuildPolicyError> {
        Ok(match self {
            PolicyKind::Static => Box::new(MkssSt::new()),
            PolicyKind::StaticEven => Box::new(MkssSt::with_pattern(
                mkss_core::mk::Pattern::EvenlyDistributed,
            )),
            PolicyKind::DualPriority => Box::new(MkssDp::new(ts)?),
            PolicyKind::DualPriorityPrimary => {
                Box::new(MkssDp::with_placement(ts, MainPlacement::MainsOnPrimary)?)
            }
            PolicyKind::Greedy => Box::new(DynamicPolicy::greedy(ts)?),
            PolicyKind::Selective => Box::new(DynamicPolicy::new(ts)?),
            PolicyKind::SelectiveNoPostpone => Box::new(DynamicPolicy::with_config(
                "MKSS_selective_nopost",
                ts,
                DynamicConfig {
                    backup_delay: BackupDelay::Promotion,
                    ..DynamicConfig::selective()
                },
            )?),
            PolicyKind::SelectivePrimaryOnly => Box::new(DynamicPolicy::with_config(
                "MKSS_selective_primary",
                ts,
                DynamicConfig {
                    placement: OptionalPlacement::PrimaryOnly,
                    ..DynamicConfig::selective()
                },
            )?),
            PolicyKind::SelectiveFd2 => Box::new(DynamicPolicy::with_config(
                "MKSS_selective_fd2",
                ts,
                DynamicConfig {
                    selection: SelectionRule::FdAtMost(2),
                    ..DynamicConfig::selective()
                },
            )?),
            PolicyKind::SelectiveFd3 => Box::new(DynamicPolicy::with_config(
                "MKSS_selective_fd3",
                ts,
                DynamicConfig {
                    selection: SelectionRule::FdAtMost(3),
                    ..DynamicConfig::selective()
                },
            )?),
            PolicyKind::DualPriorityTheta => Box::new(MkssDp::with_options(
                ts,
                MainPlacement::MainsOnPrimary,
                StaticBackupDelay::Postponement,
            )?),
        })
    }

    /// Stable identifier (also accepted by [`FromStr`]).
    pub fn id(self) -> &'static str {
        match self {
            PolicyKind::Static => "st",
            PolicyKind::DualPriority => "dp",
            PolicyKind::DualPriorityPrimary => "dp-primary",
            PolicyKind::Greedy => "greedy",
            PolicyKind::Selective => "selective",
            PolicyKind::SelectiveNoPostpone => "selective-nopost",
            PolicyKind::SelectivePrimaryOnly => "selective-primary",
            PolicyKind::SelectiveFd2 => "selective-fd2",
            PolicyKind::SelectiveFd3 => "selective-fd3",
            PolicyKind::StaticEven => "st-even",
            PolicyKind::DualPriorityTheta => "dp-theta",
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Error parsing a policy kind from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ParsePolicyKindError {
    input: String,
}

impl fmt::Display for ParsePolicyKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown policy '{}'; expected one of: {}",
            self.input,
            PolicyKind::ALL.map(PolicyKind::id).join(", ")
        )
    }
}

impl std::error::Error for ParsePolicyKindError {}

impl FromStr for PolicyKind {
    type Err = ParsePolicyKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.id() == s)
            .ok_or_else(|| ParsePolicyKindError {
                input: s.to_owned(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_core::task::Task;

    fn set() -> TaskSet {
        TaskSet::new(vec![
            Task::from_ms(5, 4, 3, 2, 4).unwrap(),
            Task::from_ms(10, 10, 3, 1, 2).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn every_kind_builds() {
        let ts = set();
        for kind in PolicyKind::ALL {
            let p = kind.build(&ts, &BuildOptions::default()).unwrap();
            assert!(!p.name().is_empty(), "{kind}");
        }
    }

    #[test]
    fn roundtrip_ids() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.id().parse::<PolicyKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.id());
        }
        let err = "nope".parse::<PolicyKind>().unwrap_err().to_string();
        assert!(err.contains("unknown policy 'nope'"), "{err}");
        let (_, listed) = err.split_once("expected one of: ").expect("lists the ids");
        let listed: Vec<&str> = listed.split(", ").collect();
        for kind in PolicyKind::ALL {
            assert!(listed.contains(&kind.id()), "{} missing: {err}", kind.id());
        }
    }

    #[test]
    fn paper_subset() {
        assert_eq!(PolicyKind::PAPER.len(), 3);
        assert_eq!(PolicyKind::PAPER[0], PolicyKind::Static);
    }
}
