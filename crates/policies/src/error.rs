//! Policy construction errors.

use mkss_core::task::TaskId;
use std::error::Error as StdError;
use std::fmt;

/// Error building a policy for a task set.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildPolicyError {
    /// The task set is not schedulable under the deeply-red pattern, so
    /// promotion times / postponement intervals do not exist and the
    /// paper's guarantee (Theorem 1) cannot be given.
    Unschedulable {
        /// First task failing the response-time analysis.
        task: TaskId,
    },
}

impl fmt::Display for BuildPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPolicyError::Unschedulable { task } => {
                write!(f, "task {task} is unschedulable under the R-pattern")
            }
        }
    }
}

impl StdError for BuildPolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            BuildPolicyError::Unschedulable { task: TaskId(2) }.to_string(),
            "task τ3 is unschedulable under the R-pattern"
        );
    }
}
