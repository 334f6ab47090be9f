//! The task-set schema: `mkss-cli`'s `--set` files and the daemon's
//! `task_set` request member are the same JSON document.
//!
//! ```json
//! {
//!   "tasks": [
//!     { "period_ms": 5,  "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4 },
//!     { "period_ms": 10,                   "wcet_ms": 3, "m": 1, "k": 2 }
//!   ]
//! }
//! ```
//!
//! Times are (possibly fractional) milliseconds with microsecond
//! resolution, at most [`MAX_MS`]; `deadline_ms` defaults to the period;
//! `m` and `k` are integers. Task order is priority order (first =
//! highest), matching the paper's convention.

use mkss_core::task::{Task, TaskSet};
use mkss_core::time::{Time, TICKS_PER_MS};
use serde::{Deserialize, Serialize, Value};

/// Largest accepted millisecond value (about 31,700 years), far below
/// where microsecond ticks stop fitting in [`Time`].
pub const MAX_MS: f64 = 1e15;

/// One task entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TaskSpec {
    /// Period in milliseconds.
    pub period_ms: f64,
    /// Relative deadline in milliseconds (defaults to the period).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<f64>,
    /// Worst-case execution time in milliseconds.
    pub wcet_ms: f64,
    /// Minimum completions per window.
    pub m: u32,
    /// Window length.
    pub k: u32,
}

/// The task-set document.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskSetSpec {
    /// Tasks in priority order.
    pub tasks: Vec<TaskSpec>,
}

impl<'de> Deserialize<'de> for TaskSetSpec {
    /// Reads the document, naming the offending task (1-based) and
    /// field in every error.
    fn from_value(doc: &Value) -> Result<Self, serde::Error> {
        let entries = doc
            .get("tasks")
            .and_then(Value::as_array)
            .ok_or_else(|| serde::Error::custom("'tasks' must be an array"))?;
        let tasks = entries
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                task_spec(entry).map_err(|e| serde::Error::custom(format!("task {}: {e}", i + 1)))
            })
            .collect::<Result<_, _>>()?;
        Ok(TaskSetSpec { tasks })
    }
}

fn task_spec(entry: &Value) -> Result<TaskSpec, String> {
    let number = |field: &str| {
        entry
            .get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing or invalid '{field}' (number)"))
    };
    let count = |field: &str| {
        let n = entry
            .get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing or invalid '{field}' (non-negative integer)"))?;
        u32::try_from(n).map_err(|_| format!("'{field}' is out of range"))
    };
    let deadline_ms = match entry.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_f64().ok_or("'deadline_ms' must be a number")?),
    };
    Ok(TaskSpec {
        period_ms: number("period_ms")?,
        deadline_ms,
        wcet_ms: number("wcet_ms")?,
        m: count("m")?,
        k: count("k")?,
    })
}

impl TaskSetSpec {
    /// Converts the document into a validated [`TaskSet`].
    ///
    /// # Errors
    ///
    /// A millisecond value outside `0..=MAX_MS`, or a task-model
    /// validation error, with the offending task's 1-based index.
    pub fn to_task_set(&self) -> Result<TaskSet, String> {
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for (i, spec) in self.tasks.iter().enumerate() {
            let task = spec.to_task().map_err(|e| format!("task {}: {e}", i + 1))?;
            tasks.push(task);
        }
        TaskSet::new(tasks).map_err(|e| e.to_string())
    }

    /// Builds the document from a task set.
    pub fn from_task_set(ts: &TaskSet) -> Self {
        TaskSetSpec {
            tasks: ts
                .iter()
                .map(|(_, t)| TaskSpec {
                    period_ms: t.period().as_ms_f64(),
                    deadline_ms: (t.deadline() != t.period()).then(|| t.deadline().as_ms_f64()),
                    wcet_ms: t.wcet().as_ms_f64(),
                    m: t.mk().m(),
                    k: t.mk().k(),
                })
                .collect(),
        }
    }
}

impl TaskSpec {
    fn to_task(self) -> Result<Task, String> {
        let period = ms_to_time(self.period_ms, "period_ms")?;
        let deadline = match self.deadline_ms {
            Some(d) => ms_to_time(d, "deadline_ms")?,
            None => period,
        };
        let wcet = ms_to_time(self.wcet_ms, "wcet_ms")?;
        Task::new(period, deadline, wcet, self.m, self.k).map_err(|e| e.to_string())
    }
}

/// Converts a millisecond value named `what` to [`Time`], rounding to
/// the microsecond tick.
///
/// # Errors
///
/// When `ms` is not in `0..=MAX_MS`.
pub fn ms_to_time(ms: f64, what: &str) -> Result<Time, String> {
    if !(0.0..=MAX_MS).contains(&ms) {
        return Err(format!(
            "'{what}' must be a finite non-negative number of milliseconds"
        ));
    }
    Ok(Time::from_ticks((ms * TICKS_PER_MS as f64).round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(json: &str) -> Result<TaskSetSpec, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    #[test]
    fn errors_name_the_task_and_field() {
        for (tasks, msg) in [
            (
                r#"[{"wcet_ms": 3, "m": 1, "k": 2}]"#,
                "task 1: missing or invalid 'period_ms'",
            ),
            (
                r#"[{"period_ms": 5, "wcet_ms": 3, "m": 1.0, "k": 2}]"#,
                "task 1: missing or invalid 'm'",
            ),
            (
                r#"[{"period_ms": 5, "wcet_ms": 3, "m": 1, "k": 4294967296}]"#,
                "task 1: 'k' is out of range",
            ),
            (
                r#"[{"period_ms": 5, "deadline_ms": "4", "wcet_ms": 3, "m": 1, "k": 2}]"#,
                "task 1: 'deadline_ms' must be a number",
            ),
        ] {
            let err = spec(&format!(r#"{{"tasks": {tasks}}}"#)).unwrap_err();
            assert!(err.contains(msg), "{tasks}: {err}");
        }
        assert!(spec(r#"{"tasks": 3}"#)
            .unwrap_err()
            .contains("'tasks' must be an array"));
    }

    #[test]
    fn milliseconds_are_capped() {
        assert_eq!(
            ms_to_time(MAX_MS, "x"),
            Ok(Time::from_ms(1_000_000_000_000_000))
        );
        for bad in [-1.0, 1e16, 1e300, f64::NAN, f64::INFINITY] {
            assert!(ms_to_time(bad, "x").is_err(), "{bad}");
        }
    }

    /// Millisecond values at the boundary: zero, a value that rounds to
    /// zero ticks, [`MAX_MS`] and past it, negative and non-finite. Draws
    /// past the table give whole milliseconds 0–53.
    const EDGE_MS: [f64; 10] = [
        0.0,
        0.0004,
        MAX_MS,
        2.0 * MAX_MS,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.5,
        2.5,
    ];

    /// `m` and `k` values, `0` and `u32::MAX` included.
    const COUNTS: [u32; 6] = [0, 1, 2, 3, 7, u32::MAX];

    fn drawn_ms(x: u64) -> f64 {
        let i = (x % 64) as usize;
        EDGE_MS
            .get(i)
            .copied()
            .unwrap_or_else(|| (i - EDGE_MS.len()) as f64)
    }

    /// One task entry decoded from the bytes of `x`.
    fn drawn_spec(x: u64) -> TaskSpec {
        let mut ms = [drawn_ms(x), drawn_ms(x >> 16), drawn_ms(x >> 24)];
        // Half the draws order the times as P ≥ D ≥ C.
        if x >> 48 & 1 == 1 {
            ms.sort_by(|a, b| b.total_cmp(a));
        }
        TaskSpec {
            period_ms: ms[0],
            deadline_ms: (x >> 8 & 3 != 0).then_some(ms[1]),
            wcet_ms: ms[2],
            m: COUNTS[(x >> 32) as usize % COUNTS.len()],
            k: COUNTS[(x >> 40) as usize % COUNTS.len()],
        }
    }

    /// The task `spec` describes if [`ms_to_time`] accepts its times and
    /// [`Task::new`] the whole tuple.
    fn validated(spec: &TaskSpec) -> Option<Task> {
        let period = ms_to_time(spec.period_ms, "period_ms").ok()?;
        let deadline = match spec.deadline_ms {
            Some(d) => ms_to_time(d, "deadline_ms").ok()?,
            None => period,
        };
        let wcet = ms_to_time(spec.wcet_ms, "wcet_ms").ok()?;
        Task::new(period, deadline, wcet, spec.m, spec.k).ok()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn a_document_converts_exactly_when_every_task_validates(
            draws in proptest::collection::vec(any::<u64>(), 1..4)
        ) {
            let spec = TaskSetSpec { tasks: draws.iter().map(|&x| drawn_spec(x)).collect() };
            let tasks: Vec<Option<Task>> = spec.tasks.iter().map(validated).collect();
            match (spec.to_task_set(), tasks.iter().position(Option::is_none)) {
                (Ok(ts), None) => {
                    let tasks: Vec<Task> = tasks.into_iter().flatten().collect();
                    prop_assert_eq!(ts.tasks(), tasks.as_slice());
                    let back = TaskSetSpec::from_task_set(&ts).to_task_set();
                    prop_assert_eq!(back, Ok(ts));
                }
                (Err(e), Some(i)) => {
                    prop_assert!(e.starts_with(&format!("task {}: ", i + 1)), "{}", e);
                }
                (got, first_invalid) => {
                    prop_assert!(false, "{:?}, first invalid task {:?}", got, first_invalid);
                }
            }
        }
    }
}
