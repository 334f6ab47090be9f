//! A small factory enumerating every available scheme, used by the
//! benchmark harness and the examples to build policies by name.

use mkss_core::task::TaskSet;
use mkss_sim::policy::Policy;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::dual_priority::MkssDp;
use crate::dynamic::DynamicPolicy;
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
    /// [`DynamicPolicy::greedy`]: all optional jobs, primary only.
    Greedy,
    /// The paper's selective scheme (Algorithm 1), with backups delayed
    /// by the promotion times.
    Selective,
    /// [`MkssDp::theta`]: the static scheme with every main on the
    /// primary and θ-postponed backups (Definitions 2–5), where the θ
    /// analysis's job positions hold.
    DualPriorityTheta,
}

/// Options shared by every scheme [`PolicyKind::build`] can construct.
///
/// Every scheme is built one way (the paper's, except that Selective
/// backs up with `Y_i`), so the type has no fields; it stays in [`PolicyKind::build`]'s signature for the
/// callers that pass [`BuildOptions::default`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct BuildOptions {}

impl BuildOptions {
    /// The defaults: every scheme built its one way.
    pub fn new() -> Self {
        BuildOptions::default()
    }
}

impl PolicyKind {
    /// All kinds, in a stable presentation order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Static,
        PolicyKind::DualPriority,
        PolicyKind::Greedy,
        PolicyKind::Selective,
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
            PolicyKind::DualPriority => Box::new(MkssDp::new(ts)?),
            PolicyKind::Greedy => Box::new(DynamicPolicy::greedy(ts)?),
            PolicyKind::Selective => Box::new(DynamicPolicy::new(ts)?),
            PolicyKind::DualPriorityTheta => Box::new(MkssDp::theta(ts)?),
        })
    }

    /// Stable identifier (also accepted by [`FromStr`]).
    pub fn id(self) -> &'static str {
        match self {
            PolicyKind::Static => "st",
            PolicyKind::DualPriority => "dp",
            PolicyKind::Greedy => "greedy",
            PolicyKind::Selective => "selective",
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
