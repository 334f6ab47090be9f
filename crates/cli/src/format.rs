//! The JSON task-set files the CLI reads and `generate` writes.
//!
//! The schema is [`mkss_serve::task_set`]'s, shared with the daemon's
//! `task_set` request member, so a file embeds unchanged in a request:
//!
//! ```json
//! {
//!   "tasks": [
//!     { "period_ms": 5,  "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4 },
//!     { "period_ms": 10,                   "wcet_ms": 3, "m": 1, "k": 2 }
//!   ]
//! }
//! ```

pub use mkss_serve::task_set::{TaskSetSpec, TaskSpec};

use mkss_core::task::TaskSet;

use crate::CliError;

/// Parses a task-set document into a validated [`TaskSet`].
///
/// # Errors
///
/// Returns [`CliError::Input`] on malformed JSON, a schema mismatch, a
/// millisecond value out of range, or an invalid task; the message
/// names the offending task and field.
pub fn parse_task_set(json: &str) -> Result<TaskSet, CliError> {
    let spec: TaskSetSpec = serde_json::from_str(json)
        .map_err(|e| CliError::Input(format!("invalid task set JSON: {e}")))?;
    spec.to_task_set().map_err(CliError::Input)
}

/// Renders a task set as the pretty-printed document.
pub fn task_set_json(ts: &TaskSet) -> String {
    serde_json::to_string_pretty(&TaskSetSpec::from_task_set(ts)).expect("spec serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_core::task::TaskId;
    use mkss_core::time::Time;

    const SAMPLE: &str = r#"{
        "tasks": [
            { "period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4 },
            { "period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2 }
        ]
    }"#;

    #[test]
    fn parse_and_convert() {
        let ts = parse_task_set(SAMPLE).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.task(TaskId(0)).deadline(), Time::from_ms(4));
        assert_eq!(
            ts.task(TaskId(1)).deadline(),
            Time::from_ms(10),
            "deadline defaults to period"
        );
    }

    #[test]
    fn fractional_milliseconds() {
        let ts = parse_task_set(
            r#"{ "tasks": [ { "period_ms": 5, "deadline_ms": 2.5, "wcet_ms": 2, "m": 2, "k": 4 } ] }"#,
        )
        .unwrap();
        assert_eq!(ts.task(TaskId(0)).deadline(), Time::from_us(2_500));
    }

    #[test]
    fn roundtrip() {
        let ts = parse_task_set(SAMPLE).unwrap();
        assert_eq!(parse_task_set(&task_set_json(&ts)).unwrap(), ts);
    }

    #[test]
    fn invalid_inputs_are_reported() {
        assert!(parse_task_set("{").is_err());
        let bad_mk = r#"{ "tasks": [ { "period_ms": 5, "wcet_ms": 3, "m": 4, "k": 4 } ] }"#;
        assert!(parse_task_set(bad_mk)
            .unwrap_err()
            .to_string()
            .contains("task 1"));
        let neg = r#"{ "tasks": [ { "period_ms": -5, "wcet_ms": 3, "m": 1, "k": 4 } ] }"#;
        assert!(parse_task_set(neg).is_err());
        let empty = r#"{ "tasks": [] }"#;
        assert!(parse_task_set(empty).is_err());
        // Past 10^15 ms the ticks would overflow the analysis.
        for period in ["1e16", "1e300"] {
            let set = format!(
                r#"{{ "tasks": [ {{ "period_ms": 5, "wcet_ms": 1, "m": 1, "k": 2 }},
                                 {{ "period_ms": {period}, "wcet_ms": 3, "m": 1, "k": 4 }} ] }}"#
            );
            let Err(CliError::Input(msg)) = parse_task_set(&set) else {
                panic!("period_ms {period} must be an input error");
            };
            assert!(msg.starts_with("task 2: 'period_ms'"), "{msg}");
        }
        // In range, but the pattern period k·P would overflow the ticks.
        let wide = r#"{ "tasks": [ { "period_ms": 1e15, "wcet_ms": 3, "m": 1, "k": 100 } ] }"#;
        let Err(CliError::Input(msg)) = parse_task_set(wide) else {
            panic!("k·P past the tick range must be an input error");
        };
        assert!(msg.starts_with("task 1: pattern period"), "{msg}");
    }
}
