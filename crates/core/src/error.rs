//! Error types for task-model validation.

use std::error::Error as StdError;
use std::fmt;

use crate::time::Time;

/// Error returned when constructing an invalid task, constraint, or task
/// set.
///
/// ```
/// use mkss_core::mk::MkConstraint;
/// use mkss_core::error::ValidateTaskError;
///
/// let err = MkConstraint::new(4, 4).unwrap_err();
/// assert!(matches!(err, ValidateTaskError::InvalidMkPair { m: 4, k: 4 }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateTaskError {
    /// The (m,k) pair violates `0 < m < k`.
    InvalidMkPair {
        /// Offending `m`.
        m: u32,
        /// Offending `k`.
        k: u32,
    },
    /// The period is zero.
    ZeroPeriod,
    /// The worst-case execution time is zero.
    ZeroWcet,
    /// The deadline exceeds the period (constrained deadlines required).
    DeadlineExceedsPeriod {
        /// Offending deadline.
        deadline: Time,
        /// Task period.
        period: Time,
    },
    /// The worst-case execution time exceeds the deadline, so the task can
    /// never meet a deadline even alone on a processor.
    WcetExceedsDeadline {
        /// Offending WCET.
        wcet: Time,
        /// Task deadline.
        deadline: Time,
    },
    /// The pattern period `k·P` does not fit in [`Time`].
    PatternPeriodOverflow {
        /// Task period.
        period: Time,
        /// Window length.
        k: u32,
    },
    /// A task set was constructed with no tasks.
    EmptyTaskSet,
}

impl fmt::Display for ValidateTaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateTaskError::InvalidMkPair { m, k } => {
                write!(f, "(m,k) pair ({m},{k}) violates 0 < m < k")
            }
            ValidateTaskError::ZeroPeriod => write!(f, "task period must be positive"),
            ValidateTaskError::ZeroWcet => write!(f, "task WCET must be positive"),
            ValidateTaskError::DeadlineExceedsPeriod { deadline, period } => {
                write!(f, "deadline {deadline} exceeds period {period}")
            }
            ValidateTaskError::WcetExceedsDeadline { wcet, deadline } => {
                write!(f, "WCET {wcet} exceeds deadline {deadline}")
            }
            ValidateTaskError::PatternPeriodOverflow { period, k } => {
                write!(f, "pattern period k·P ({k} × {period}) is out of range")
            }
            ValidateTaskError::EmptyTaskSet => write!(f, "task set contains no tasks"),
        }
    }
}

impl StdError for ValidateTaskError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ValidateTaskError::InvalidMkPair { m: 3, k: 3 }.to_string(),
            "(m,k) pair (3,3) violates 0 < m < k"
        );
        assert_eq!(
            ValidateTaskError::ZeroPeriod.to_string(),
            "task period must be positive"
        );
        assert_eq!(
            ValidateTaskError::ZeroWcet.to_string(),
            "task WCET must be positive"
        );
        let e = ValidateTaskError::DeadlineExceedsPeriod {
            deadline: Time::from_ms(6),
            period: Time::from_ms(5),
        };
        assert_eq!(e.to_string(), "deadline 6ms exceeds period 5ms");
        let e = ValidateTaskError::WcetExceedsDeadline {
            wcet: Time::from_ms(6),
            deadline: Time::from_ms(5),
        };
        assert_eq!(e.to_string(), "WCET 6ms exceeds deadline 5ms");
        assert_eq!(
            ValidateTaskError::EmptyTaskSet.to_string(),
            "task set contains no tasks"
        );
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn StdError + Send + Sync> = Box::new(ValidateTaskError::ZeroPeriod);
        assert!(e.source().is_none());
    }
}
