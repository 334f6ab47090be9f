//! The line protocol: request parsing and response rendering.
//!
//! Each request is one line of JSON with two fixed members — `id` (a
//! client-chosen correlation number, echoed verbatim) and `op` — plus
//! op-specific members:
//!
//! ```json
//! {"id": 1, "op": "ping"}
//! {"id": 2, "op": "simulate", "task_set": {"tasks": [{"period_ms": 10, "wcet_ms": 2, "m": 1, "k": 2}]},
//!  "policy": "selective", "horizon_ms": 100,
//!  "faults": {"seed": 7, "transient_per_ms": 1e-5, "permanent": {"proc": 0, "at_ms": 40}},
//!  "trace": {"last": 64}}
//! {"id": 3, "op": "compare", "task_set": {...}, "horizon_ms": 100, "policies": ["st", "dp"]}
//! {"id": 4, "op": "sweep", "task_set": {...}, "policy": "dp", "horizon_ms": 100,
//!  "faults": {"transient_per_ms": 1e-5}, "seeds": 32, "seed_from": 100}
//! {"id": 5, "op": "metrics"}
//! {"id": 6, "op": "shutdown"}
//! {"id": 7, "op": "watch", "interval_ms": 250, "frames": 20}
//! ```
//!
//! Every response is also one line: `{"id": ..., "ok": true, "result":
//! {...}, "metrics": {...}}` on success (the `metrics` member is present
//! only for simulation ops), `{"id": ..., "ok": false, "error": "..."}`
//! on failure. Unknown request members are ignored for forward
//! compatibility; unknown ops are errors.
//!
//! `simulate` accepts an optional `"trace": {"last": N}` member
//! (`1..=MAX_TRACE_LAST`): the run is recorded through the
//! `mkss_obs` flight recorder and the result gains a `trace` member with
//! the last `N` engine events, oldest first. Sweeps ignore the member —
//! a bounded timeline per replica would dwarf the aggregate response.
//!
//! `watch` is the one *streaming* op: the daemon pushes one `ok` line per
//! sample (the `result` is a full metrics document whose `meta` carries
//! the daemon identity, a monotonic `seq`, `uptime_ms`, and pool gauges),
//! every `interval_ms` milliseconds, until `frames` samples have been
//! sent (`0` = until shutdown or disconnect), then sends a final
//! `{"watch_done": true, "frames": N}` line and resumes normal
//! request/response service on the same connection.
//!
//! The `task_set` member is a [`TaskSetSpec`], the schema of
//! `mkss-cli`'s task-set files (fractional milliseconds, `deadline_ms`
//! defaulting to the period, task order = priority order), so a file
//! passed to `--set` embeds unchanged in a request (with its line breaks
//! turned into spaces, as a request is one line).
//!
//! Numbers follow the JSON text. An integer member (`id`, `seeds`,
//! `seed_from`, `faults.seed`, `m`, `k`, …) takes only integer literals,
//! exact up to `u64::MAX`; `7.0` and `1e3` are floats and are rejected
//! there. A millisecond or rate member takes any finite number. Request
//! lines are parsed by the vendored `serde_json`, which caps nesting at
//! [`serde_json::MAX_DEPTH`].

use std::fmt;

use mkss_core::task::TaskSet;
use mkss_policies::PolicyKind;
use mkss_sim::prelude::{FaultConfig, PermanentFault, ProcId, SimConfig};
use serde::{Deserialize, Value};

use crate::task_set::{ms_to_time, TaskSetSpec};

/// Upper bound on `seeds` in a sweep, so one request line cannot hold a
/// run slot for minutes.
pub const MAX_SWEEP_SEEDS: u64 = 4096;

/// Upper bound on `trace.last` in a simulate, so one request line cannot
/// balloon a response (and the per-request ring allocation) arbitrarily.
pub const MAX_TRACE_LAST: u64 = 4096;

/// A parsed request: correlation id plus the operation.
#[derive(Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What to do.
    pub op: Op,
}

/// The operations the daemon accepts.
#[derive(Debug)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: the wire protocol's op set; adding an op is a protocol version bump that every dispatcher must handle explicitly"
)]
pub enum Op {
    /// Liveness probe; responds immediately from the connection handler.
    Ping,
    /// Snapshot of the daemon's global metrics registry.
    Metrics,
    /// Graceful shutdown: drain the queue, then exit.
    Shutdown,
    /// One simulation run.
    Simulate(SimJob),
    /// One run per policy over the same task set and scenario.
    Compare(CompareJob),
    /// Seed-range replication of one scenario, fanned across the pool.
    Sweep(SweepJob),
    /// Streaming metrics subscription (the connection becomes a sampler
    /// until the subscription ends).
    Watch(WatchJob),
}

impl Op {
    /// Stable protocol name of the operation.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
            Op::Simulate(_) => "simulate",
            Op::Compare(_) => "compare",
            Op::Sweep(_) => "sweep",
            Op::Watch(_) => "watch",
        }
    }
}

/// One simulation run: a validated task set, a policy, and a scenario.
#[derive(Debug)]
pub struct SimJob {
    /// The task set, already validated by the core task model.
    pub task_set: TaskSet,
    /// The scheme to run.
    pub policy: PolicyKind,
    /// Horizon, power model, and fault scenario.
    pub config: SimConfig,
    /// When set, capture the run through the flight recorder and embed
    /// the last this-many engine events in the response
    /// (`1..=MAX_TRACE_LAST`).
    pub trace_last: Option<u64>,
}

/// Per-policy comparison over one scenario.
#[derive(Debug)]
pub struct CompareJob {
    /// The task set.
    pub task_set: TaskSet,
    /// Schemes to run, in response-row order (defaults to every scheme).
    pub policies: Vec<PolicyKind>,
    /// Shared scenario.
    pub config: SimConfig,
}

/// Fastest sampling interval a `watch` subscription may request.
pub const MIN_WATCH_INTERVAL_MS: u64 = 10;

/// Slowest sampling interval a `watch` subscription may request.
pub const MAX_WATCH_INTERVAL_MS: u64 = 10_000;

/// A live metrics subscription: how often to sample, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchJob {
    /// Milliseconds between pushed samples
    /// (`MIN_WATCH_INTERVAL_MS..=MAX_WATCH_INTERVAL_MS`; defaults to 100).
    pub interval_ms: u64,
    /// Number of samples to push before ending the subscription; `0`
    /// (the default) streams until shutdown or disconnect.
    pub frames: u64,
}

/// Seed-range replication of one `(task set, policy, scenario)` triple.
#[derive(Debug)]
pub struct SweepJob {
    /// The run to replicate; its fault seed is replaced per replica.
    pub base: SimJob,
    /// First seed.
    pub seed_from: u64,
    /// Number of consecutive seeds (`1..=MAX_SWEEP_SEEDS`).
    pub seeds: u64,
}

/// A protocol-level failure: what to tell the client, and the request id
/// if one was recovered from the line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProtocolError {
    /// Echoed id, when the line parsed far enough to recover one.
    pub id: Option<u64>,
    /// Human-readable description, sent as the `error` member.
    pub message: String,
}

impl ProtocolError {
    fn new(id: Option<u64>, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            id,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let doc = serde_json::parse_value(line)
            .map_err(|e| ProtocolError::new(None, format!("invalid JSON: {e}")))?;
        if !matches!(doc, Value::Object(_)) {
            return Err(ProtocolError::new(None, "request must be a JSON object"));
        }
        let id = doc.get("id").and_then(Value::as_u64).ok_or_else(|| {
            ProtocolError::new(None, "missing or invalid 'id' (non-negative integer)")
        })?;
        let fail = |message: String| ProtocolError::new(Some(id), message);
        let op_name = doc
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing or invalid 'op' (string)".into()))?;
        let op = match op_name {
            "ping" => Op::Ping,
            "metrics" => Op::Metrics,
            "shutdown" => Op::Shutdown,
            "simulate" => Op::Simulate(parse_sim_job(&doc).map_err(&fail)?),
            "compare" => Op::Compare(parse_compare_job(&doc).map_err(&fail)?),
            "sweep" => Op::Sweep(parse_sweep_job(&doc).map_err(&fail)?),
            "watch" => Op::Watch(parse_watch_job(&doc).map_err(&fail)?),
            other => return Err(fail(format!("unknown op '{other}'"))),
        };
        Ok(Request { id, op })
    }
}

fn parse_sim_job(doc: &Value) -> Result<SimJob, String> {
    Ok(SimJob {
        task_set: parse_task_set(doc)?,
        policy: parse_policy(doc)?,
        config: parse_config(doc)?,
        trace_last: parse_trace(doc)?,
    })
}

fn parse_trace(doc: &Value) -> Result<Option<u64>, String> {
    let Some(spec) = doc.get("trace") else {
        return Ok(None);
    };
    if !matches!(spec, Value::Object(_)) {
        return Err("'trace' must be an object".into());
    }
    let last = req_u64(spec, "last").map_err(|e| format!("trace: {e}"))?;
    if last == 0 || last > MAX_TRACE_LAST {
        return Err(format!(
            "'trace.last' must be in 1..={MAX_TRACE_LAST}, got {last}"
        ));
    }
    Ok(Some(last))
}

fn parse_compare_job(doc: &Value) -> Result<CompareJob, String> {
    let policies = match doc.get("policies") {
        None => PolicyKind::ALL.to_vec(),
        Some(value) => {
            let items = value
                .as_array()
                .ok_or("'policies' must be an array of policy ids")?;
            if items.is_empty() {
                return Err("'policies' must not be empty".into());
            }
            let mut kinds = Vec::with_capacity(items.len());
            for item in items {
                let id = item.as_str().ok_or("'policies' entries must be strings")?;
                kinds.push(id.parse::<PolicyKind>().map_err(|e| e.to_string())?);
            }
            kinds
        }
    };
    Ok(CompareJob {
        task_set: parse_task_set(doc)?,
        policies,
        config: parse_config(doc)?,
    })
}

fn parse_sweep_job(doc: &Value) -> Result<SweepJob, String> {
    let seeds = req_u64(doc, "seeds")?;
    if seeds == 0 || seeds > MAX_SWEEP_SEEDS {
        return Err(format!(
            "'seeds' must be in 1..={MAX_SWEEP_SEEDS}, got {seeds}"
        ));
    }
    let seed_from = match doc.get("seed_from") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or("'seed_from' must be a non-negative integer")?,
    };
    if seed_from.checked_add(seeds).is_none() {
        return Err("'seed_from' + 'seeds' overflows".into());
    }
    Ok(SweepJob {
        base: parse_sim_job(doc)?,
        seed_from,
        seeds,
    })
}

fn parse_watch_job(doc: &Value) -> Result<WatchJob, String> {
    let interval_ms = match doc.get("interval_ms") {
        None => 100,
        Some(v) => v
            .as_u64()
            .ok_or("'interval_ms' must be a non-negative integer")?,
    };
    if !(MIN_WATCH_INTERVAL_MS..=MAX_WATCH_INTERVAL_MS).contains(&interval_ms) {
        return Err(format!(
            "'interval_ms' must be in {MIN_WATCH_INTERVAL_MS}..={MAX_WATCH_INTERVAL_MS}, got {interval_ms}"
        ));
    }
    let frames = match doc.get("frames") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or("'frames' must be a non-negative integer")?,
    };
    Ok(WatchJob {
        interval_ms,
        frames,
    })
}

fn parse_policy(doc: &Value) -> Result<PolicyKind, String> {
    let id = doc
        .get("policy")
        .and_then(Value::as_str)
        .ok_or("missing or invalid 'policy' (string)")?;
    id.parse::<PolicyKind>().map_err(|e| e.to_string())
}

fn parse_config(doc: &Value) -> Result<SimConfig, String> {
    let horizon = ms_to_time(req_f64(doc, "horizon_ms")?, "horizon_ms")?;
    if horizon.is_zero() {
        return Err("'horizon_ms' must be positive".into());
    }
    let faults = match doc.get("faults") {
        None => FaultConfig::none(),
        Some(value) => parse_faults(value)?,
    };
    Ok(SimConfig::builder().horizon(horizon).faults(faults).build())
}

fn parse_faults(value: &Value) -> Result<FaultConfig, String> {
    if !matches!(value, Value::Object(_)) {
        return Err("'faults' must be an object".into());
    }
    let mut faults = FaultConfig::none();
    if let Some(seed) = value.get("seed") {
        faults.seed = seed
            .as_u64()
            .ok_or("'faults.seed' must be a non-negative integer")?;
    }
    if let Some(rate) = value.get("transient_per_ms") {
        let rate = rate
            .as_f64()
            .ok_or("'faults.transient_per_ms' must be a number")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err("'faults.transient_per_ms' must be in [0, 1]".into());
        }
        faults.transient_rate_per_ms = rate;
    }
    if let Some(permanent) = value.get("permanent") {
        let proc = permanent
            .get("proc")
            .and_then(Value::as_u64)
            .filter(|&p| p < 2)
            .ok_or("'faults.permanent.proc' must be 0 (primary) or 1 (spare)")?;
        let at = ms_to_time(
            permanent
                .get("at_ms")
                .and_then(Value::as_f64)
                .ok_or("'faults.permanent.at_ms' must be a number")?,
            "faults.permanent.at_ms",
        )?;
        faults.permanent = Some(PermanentFault {
            proc: if proc == 0 {
                ProcId::PRIMARY
            } else {
                ProcId::SPARE
            },
            at,
        });
    }
    Ok(faults)
}

fn parse_task_set(doc: &Value) -> Result<TaskSet, String> {
    let spec = doc.get("task_set").ok_or("missing 'task_set'")?;
    TaskSetSpec::from_value(spec)
        .map_err(|e| e.to_string())?
        .to_task_set()
}

fn req_f64(doc: &Value, field: &str) -> Result<f64, String> {
    doc.get(field)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or invalid '{field}' (number)"))
}

fn req_u64(doc: &Value, field: &str) -> Result<u64, String> {
    doc.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or invalid '{field}' (non-negative integer)"))
}

/// Render a success response line (without trailing newline).
///
/// `result` and `metrics` are pre-rendered JSON embedded verbatim; the
/// `metrics` member is omitted when `None` (ping, metrics, shutdown).
pub fn ok_line(id: u64, result: &str, metrics: Option<&str>) -> String {
    let mut out = String::with_capacity(result.len() + 64);
    out.push_str("{\"id\":");
    out.push_str(&id.to_string());
    out.push_str(",\"ok\":true,\"result\":");
    out.push_str(result);
    if let Some(metrics) = metrics {
        out.push_str(",\"metrics\":");
        out.push_str(metrics);
    }
    out.push('}');
    out
}

/// Render an error response line (without trailing newline). An
/// unrecoverable id renders as `null`.
pub fn error_line(id: Option<u64>, message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 48);
    out.push_str("{\"id\":");
    match id {
        Some(id) => out.push_str(&id.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"ok\":false,\"error\":");
    serde_json::write_escaped(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_core::time::Time;

    const SET: &str = r#""task_set": {"tasks": [
        {"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4},
        {"period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2}
    ]}"#;

    #[test]
    fn parses_control_ops() {
        for (op, name) in [
            ("ping", "ping"),
            ("metrics", "metrics"),
            ("shutdown", "shutdown"),
        ] {
            let req = Request::parse(&format!(r#"{{"id": 3, "op": "{op}"}}"#)).unwrap();
            assert_eq!(req.id, 3);
            assert_eq!(req.op.name(), name);
        }
    }

    #[test]
    fn parses_simulate_with_faults() {
        let line = format!(
            r#"{{"id": 9, "op": "simulate", {SET}, "policy": "selective", "horizon_ms": 100.5,
               "faults": {{"seed": 7, "transient_per_ms": 1e-5, "permanent": {{"proc": 1, "at_ms": 40}}}}}}"#
        );
        let req = Request::parse(&line).unwrap();
        let Op::Simulate(job) = req.op else {
            panic!("expected simulate")
        };
        assert_eq!(job.policy, PolicyKind::Selective);
        assert_eq!(job.task_set.len(), 2);
        assert_eq!(job.config.horizon, Time::from_us(100_500));
        assert_eq!(job.config.faults.seed, 7);
        assert!((job.config.faults.transient_rate_per_ms - 1e-5).abs() < 1e-18);
        let permanent = job.config.faults.permanent.unwrap();
        assert_eq!(permanent.proc, ProcId::SPARE);
        assert_eq!(permanent.at, Time::from_ms(40));
        assert_eq!(job.trace_last, None);
    }

    #[test]
    fn parses_simulate_trace_option() {
        let line = format!(
            r#"{{"id": 9, "op": "simulate", {SET}, "policy": "st", "horizon_ms": 100,
               "trace": {{"last": 64}}}}"#
        );
        let Op::Simulate(job) = Request::parse(&line).unwrap().op else {
            panic!("expected simulate")
        };
        assert_eq!(job.trace_last, Some(64));
    }

    #[test]
    fn trace_option_is_bounded_and_shaped() {
        for (spec, msg) in [
            (r#""trace": {"last": 0}"#, "1..="),
            (r#""trace": {"last": 4097}"#, "1..="),
            (r#""trace": {}"#, "trace: "),
            (r#""trace": 64"#, "must be an object"),
        ] {
            let line = format!(
                r#"{{"id": 9, "op": "simulate", {SET}, "policy": "st", "horizon_ms": 100, {spec}}}"#
            );
            let err = Request::parse(&line).unwrap_err();
            assert!(err.message.contains(msg), "{spec}: {err}");
        }
    }

    #[test]
    fn compare_defaults_to_all_policies() {
        let line = format!(r#"{{"id": 1, "op": "compare", {SET}, "horizon_ms": 50}}"#);
        let Op::Compare(job) = Request::parse(&line).unwrap().op else {
            panic!("expected compare")
        };
        assert_eq!(job.policies, PolicyKind::ALL.to_vec());

        let line = format!(
            r#"{{"id": 1, "op": "compare", {SET}, "horizon_ms": 50, "policies": ["dp", "st"]}}"#
        );
        let Op::Compare(job) = Request::parse(&line).unwrap().op else {
            panic!("expected compare")
        };
        assert_eq!(
            job.policies,
            vec![PolicyKind::DualPriority, PolicyKind::Static]
        );
    }

    #[test]
    fn sweep_bounds_are_enforced() {
        let ok = format!(
            r#"{{"id": 1, "op": "sweep", {SET}, "policy": "st", "horizon_ms": 50, "seeds": 4, "seed_from": 10}}"#
        );
        let Op::Sweep(job) = Request::parse(&ok).unwrap().op else {
            panic!("expected sweep")
        };
        assert_eq!((job.seed_from, job.seeds), (10, 4));

        for bad in ["\"seeds\": 0", "\"seeds\": 5000", "\"seeds\": 2.5"] {
            let line = format!(
                r#"{{"id": 1, "op": "sweep", {SET}, "policy": "st", "horizon_ms": 50, {bad}}}"#
            );
            let err = Request::parse(&line).unwrap_err();
            assert_eq!(err.id, Some(1), "{bad}: {err}");
            assert!(err.message.contains("seeds"), "{bad}: {err}");
        }
    }

    #[test]
    fn watch_defaults_and_bounds() {
        let Op::Watch(job) = Request::parse(r#"{"id": 1, "op": "watch"}"#).unwrap().op else {
            panic!("expected watch")
        };
        assert_eq!(
            job,
            WatchJob {
                interval_ms: 100,
                frames: 0
            }
        );

        let Op::Watch(job) =
            Request::parse(r#"{"id": 1, "op": "watch", "interval_ms": 250, "frames": 20}"#)
                .unwrap()
                .op
        else {
            panic!("expected watch")
        };
        assert_eq!(
            job,
            WatchJob {
                interval_ms: 250,
                frames: 20
            }
        );

        for bad in [
            "\"interval_ms\": 5",
            "\"interval_ms\": 60000",
            "\"interval_ms\": 2.5",
            "\"frames\": -1",
        ] {
            let line = format!(r#"{{"id": 1, "op": "watch", {bad}}}"#);
            let err = Request::parse(&line).unwrap_err();
            assert_eq!(err.id, Some(1), "{bad}: {err}");
        }
    }

    #[test]
    fn errors_recover_the_id_once_parsed() {
        let err = Request::parse("not json at all").unwrap_err();
        assert_eq!(err.id, None);
        let err = Request::parse(r#"{"op": "ping"}"#).unwrap_err();
        assert_eq!(err.id, None);
        let err = Request::parse(r#"{"id": 5, "op": "levitate"}"#).unwrap_err();
        assert_eq!(err.id, Some(5));
        assert!(err.message.contains("levitate"));
        let err = Request::parse(r#"{"id": 5, "op": "simulate"}"#).unwrap_err();
        assert_eq!(err.id, Some(5));
        assert!(err.message.contains("task_set"));
    }

    #[test]
    fn integers_are_exact_to_u64_max() {
        let req = Request::parse(r#"{"id": 18446744073709551615, "op": "ping"}"#).unwrap();
        assert_eq!(req.id, u64::MAX);
        assert_eq!(
            ok_line(req.id, "{}", None),
            r#"{"id":18446744073709551615,"ok":true,"result":{}}"#
        );
        assert_eq!(
            error_line(Some(req.id), "x"),
            r#"{"id":18446744073709551615,"ok":false,"error":"x"}"#
        );

        const SEED: u64 = (1 << 53) + 1;
        let line = format!(
            r#"{{"id": 1, "op": "simulate", {SET}, "policy": "st", "horizon_ms": 50,
               "faults": {{"seed": {SEED}}}}}"#
        );
        let Op::Simulate(job) = Request::parse(&line).unwrap().op else {
            panic!("expected simulate")
        };
        assert_eq!(job.config.faults.seed, SEED);
        let line = format!(
            r#"{{"id": 1, "op": "sweep", {SET}, "policy": "st", "horizon_ms": 50,
               "seeds": 2, "seed_from": {SEED}}}"#
        );
        let Op::Sweep(job) = Request::parse(&line).unwrap().op else {
            panic!("expected sweep")
        };
        assert_eq!(job.seed_from, SEED);
    }

    #[test]
    fn float_literals_are_not_integers() {
        for id in ["7.0", "7e0", "-7", "18446744073709551616"] {
            let err = Request::parse(&format!(r#"{{"id": {id}, "op": "ping"}}"#)).unwrap_err();
            assert_eq!(err.id, None, "{id}: {err}");
        }
        let err = Request::parse(r#"{"id": 2, "op": "watch", "frames": 1e3}"#).unwrap_err();
        assert_eq!(err.id, Some(2));
        assert!(err.message.contains("'frames'"), "{err}");
    }

    #[test]
    fn task_validation_errors_carry_the_index() {
        let line = r#"{"id": 2, "op": "simulate", "task_set": {"tasks": [
            {"period_ms": 5, "wcet_ms": 3, "m": 9, "k": 4}
        ]}, "policy": "st", "horizon_ms": 50}"#;
        let err = Request::parse(line).unwrap_err();
        assert!(err.message.contains("task 1"), "{err}");
    }

    #[test]
    fn response_lines_render_compactly() {
        assert_eq!(
            ok_line(4, "{\"pong\":true}", None),
            r#"{"id":4,"ok":true,"result":{"pong":true}}"#
        );
        assert_eq!(
            ok_line(4, "{}", Some("{\"meta\":{}}")),
            r#"{"id":4,"ok":true,"result":{},"metrics":{"meta":{}}}"#
        );
        assert_eq!(
            error_line(None, "bad \"line\""),
            r#"{"id":null,"ok":false,"error":"bad \"line\""}"#
        );
        assert_eq!(
            error_line(Some(2), "nope"),
            r#"{"id":2,"ok":false,"error":"nope"}"#
        );
    }
}
