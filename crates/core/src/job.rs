//! Job instances: one periodic activation of a task, plus its
//! classification and role in the standby-sparing system.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::task::{Task, TaskId};
use crate::time::Time;

/// Identifier of a job: owning task and 1-based job index (the paper's
/// `J_ij` is `JobId { task: TaskId(i-1), index: j }`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId {
    /// Owning task.
    pub task: TaskId,
    /// 1-based activation index.
    pub index: u64,
}

impl JobId {
    /// Creates a job id.
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero (indices are 1-based).
    pub fn new(task: TaskId, index: u64) -> Self {
        assert!(index >= 1, "job indices are 1-based");
        JobId { task, index }
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{},{}", self.task.0 + 1, self.index)
    }
}

/// Classification of a released job under the active (static or dynamic)
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: mandatory/optional is the (m,k) partition itself; a third class has no meaning in the model"
)]
pub enum JobClass {
    /// Must complete successfully; executed on both processors
    /// (main + backup copies).
    Mandatory,
    /// May be skipped; if executed, runs on exactly one processor and has
    /// no backup.
    Optional,
}

impl JobClass {
    /// `true` for [`JobClass::Mandatory`].
    #[inline]
    pub const fn is_mandatory(self) -> bool {
        matches!(self, JobClass::Mandatory)
    }
}

/// Which copy of a job a given execution is: the *main* copy on the
/// primary processor or the *backup* copy on the spare (mandatory jobs
/// only — optional jobs have a single copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: main/backup is the standby-sparing dichotomy; the scheme defines exactly two copies"
)]
pub enum CopyKind {
    /// The main copy (the paper's `J_ij`).
    Main,
    /// The backup copy (the paper's `J′_ij`).
    Backup,
    /// The single copy of an executed optional job (`O_ij`).
    Optional,
}

impl fmt::Display for CopyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CopyKind::Main => write!(f, "main"),
            CopyKind::Backup => write!(f, "backup"),
            CopyKind::Optional => write!(f, "optional"),
        }
    }
}

/// One released job of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Job {
    /// Identity (task + activation index).
    pub id: JobId,
    /// Release (arrival) time `r_ij`.
    pub release: Time,
    /// Absolute deadline `d_ij`.
    pub deadline: Time,
    /// Execution demand `c_ij` (= the task's WCET in this model).
    pub wcet: Time,
    /// Mandatory/optional classification at release.
    pub class: JobClass,
}

impl Job {
    /// Materializes the `index`-th job (**1-based**) of `task`, classified
    /// as `class`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero.
    pub fn nth(task_id: TaskId, task: &Task, index: u64, class: JobClass) -> Self {
        Job {
            id: JobId::new(task_id, index),
            release: task.release_of(index),
            deadline: task.deadline_of(index),
            wcet: task.wcet(),
            class,
        }
    }

    /// Latest time this job could start and still finish `remaining` work
    /// by its deadline.
    pub fn latest_start(&self, remaining: Time) -> Time {
        self.deadline.saturating_sub(remaining)
    }

    /// Whether `remaining` work can still complete by the deadline if the
    /// job runs uninterrupted from `now`.
    pub fn feasible_from(&self, now: Time, remaining: Time) -> bool {
        now + remaining <= self.deadline
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.class {
            JobClass::Mandatory => "M",
            JobClass::Optional => "O",
        };
        write!(
            f,
            "{}[{}] r={} d={} c={}",
            self.id, tag, self.release, self.deadline, self.wcet
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    #[test]
    fn job_materialization() {
        let t = Task::from_ms(5, 4, 3, 2, 4).unwrap();
        let j = Job::nth(TaskId(0), &t, 3, JobClass::Optional);
        assert_eq!(j.release, Time::from_ms(10));
        assert_eq!(j.deadline, Time::from_ms(14));
        assert_eq!(j.wcet, Time::from_ms(3));
        assert_eq!(j.class, JobClass::Optional);
        assert!(!j.class.is_mandatory());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_index_panics() {
        JobId::new(TaskId(0), 0);
    }

    #[test]
    fn feasibility() {
        let t = Task::from_ms(5, 4, 3, 2, 4).unwrap();
        let j = Job::nth(TaskId(0), &t, 1, JobClass::Mandatory);
        // Deadline 4ms, wcet 3ms → latest start 1ms.
        assert_eq!(j.latest_start(j.wcet), Time::from_ms(1));
        assert!(j.feasible_from(Time::from_ms(1), j.wcet));
        assert!(!j.feasible_from(Time::from_us(1_001), j.wcet));
        // Partially-executed job.
        assert!(j.feasible_from(Time::from_ms(3), Time::from_ms(1)));
    }

    #[test]
    fn display_forms() {
        let t = Task::from_ms(5, 4, 3, 2, 4).unwrap();
        let j = Job::nth(TaskId(1), &t, 2, JobClass::Mandatory);
        assert_eq!(j.id.to_string(), "J2,2");
        assert!(j.to_string().contains("[M]"));
        assert_eq!(CopyKind::Main.to_string(), "main");
        assert_eq!(CopyKind::Backup.to_string(), "backup");
        assert_eq!(CopyKind::Optional.to_string(), "optional");
    }

    #[test]
    fn ordering_of_job_ids() {
        let a = JobId::new(TaskId(0), 1);
        let b = JobId::new(TaskId(0), 2);
        let c = JobId::new(TaskId(1), 1);
        assert!(a < b);
        assert!(b < c);
    }
}
