//! Pure request execution, shared by the daemon and by direct callers.
//!
//! [`execute`] turns a parsed [`Request`] into the exact response line
//! the daemon would send — it is the *whole* behavior of the simulation
//! ops, with the connection layer contributing nothing but transport.
//! That is what makes the loadgen differential possible: the bench
//! harness calls [`execute`] in-process and asserts the daemon's bytes
//! match.
//!
//! Determinism contract: for a given request line, the response line is
//! byte-identical regardless of the daemon's run slots, sweep fan-out, or
//! whether a global metrics tee is attached. Per-request metrics come
//! from a registry created for the request; wall-clock stages are
//! deliberately absent.

use std::sync::Arc;

use mkss_core::par;
use mkss_obs::{
    metrics_doc, trace_json_fragment, MetricsSnapshot, Recorder, Registry, RequestId,
    ScopedRecorder, TraceBuffer, TraceRecorder,
};
use mkss_policies::BuildOptions;
use mkss_sim::prelude::{simulate_in, SimReport, WorkspacePool};
use serde_json::write_escaped;

use crate::protocol::{error_line, ok_line, CompareJob, Op, Request, SimJob, SweepJob};

/// Everything [`execute`] needs besides the request itself.
pub struct ExecEnv<'a> {
    /// Workspace pool the simulations draw arenas from.
    pub pool: &'a WorkspacePool,
    /// Optional process-global metrics tee (the daemon's registry);
    /// `None` for direct library callers. Never affects response bytes.
    pub global: Option<Arc<dyn Recorder>>,
    /// Worker threads for sweep fan-out (`0` = available parallelism).
    pub fanout: usize,
}

impl std::fmt::Debug for ExecEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecEnv")
            .field("pool_idle", &self.pool.idle())
            .field("global", &self.global.is_some())
            .field("fanout", &self.fanout)
            .finish()
    }
}

/// Execute one request, returning the complete response line (no
/// trailing newline).
///
/// `metrics`, `shutdown`, and `watch` are connection-layer ops — the
/// daemon answers them from its own state without touching the pool — so
/// this function answers them with an error.
pub fn execute(request: &Request, env: &ExecEnv<'_>) -> String {
    match &request.op {
        Op::Ping => ok_line(request.id, "{\"pong\":true}", None),
        Op::Metrics | Op::Shutdown | Op::Watch(_) => error_line(
            Some(request.id),
            &format!(
                "op '{}' is answered by the daemon itself",
                request.op.name()
            ),
        ),
        Op::Simulate(job) => exec_simulate(request.id, job, env),
        Op::Compare(job) => exec_compare(request.id, job, env),
        Op::Sweep(job) => exec_sweep(request.id, job, env),
    }
}

/// A recorder teeing into shard `shard` of the request-local registry
/// and (when attached) the daemon's global sink.
fn scoped(id: u64, registry: &Arc<Registry>, shard: usize, env: &ExecEnv<'_>) -> Arc<dyn Recorder> {
    Arc::new(ScopedRecorder::new(
        RequestId(id),
        Arc::new(registry.handle_at(shard)),
        env.global.clone(),
    ))
}

/// Render the per-request metrics document (compact, no timing stages).
fn request_metrics(id: u64, op: &str, snapshot: MetricsSnapshot) -> String {
    metrics_doc(
        "mkss-serve",
        snapshot,
        &[("id", id.to_string()), ("op", op.to_string())],
        &[],
    )
    .to_json_line()
}

fn exec_simulate(id: u64, job: &SimJob, env: &ExecEnv<'_>) -> String {
    let mut policy = match job.policy.build(&job.task_set, &BuildOptions::default()) {
        Ok(policy) => policy,
        Err(e) => return error_line(Some(id), &e.to_string()),
    };
    let registry = Arc::new(Registry::new(1));
    // When the request asked for a trace, tee the scoped recorder through a
    // bounded flight recorder; the ring holds exactly the last N events.
    let tracer = job.trace_last.map(|last| {
        Arc::new(TraceRecorder::new(
            TraceBuffer::with_capacity(last as usize),
            Some(scoped(id, &registry, 0, env)),
        ))
    });
    let report = {
        let mut ws = env.pool.checkout();
        ws.set_recorder(Some(match &tracer {
            Some(tracer) => Arc::clone(tracer) as Arc<dyn Recorder>,
            None => scoped(id, &registry, 0, env),
        }));
        simulate_in(&mut ws, &job.task_set, policy.as_mut(), &job.config)
    };
    let mut result = report_json(&report);
    if let Some(tracer) = tracer {
        // Splice the timeline into the result object: `...}` → `...,"trace":{...}}`.
        result.pop();
        result.push_str(",\"trace\":");
        result.push_str(&trace_json_fragment(&tracer.take()));
        result.push('}');
    }
    let metrics = request_metrics(id, "simulate", registry.snapshot());
    ok_line(id, &result, Some(&metrics))
}

fn exec_compare(id: u64, job: &CompareJob, env: &ExecEnv<'_>) -> String {
    let registry = Arc::new(Registry::new(1));
    let mut ws = env.pool.checkout();
    ws.set_recorder(Some(scoped(id, &registry, 0, env)));
    let mut rows = String::from("{\"rows\":[");
    for (i, kind) in job.policies.iter().enumerate() {
        let mut policy = match kind.build(&job.task_set, &BuildOptions::default()) {
            Ok(policy) => policy,
            Err(e) => return error_line(Some(id), &format!("policy '{kind}': {e}")),
        };
        let report = simulate_in(&mut ws, &job.task_set, policy.as_mut(), &job.config);
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&report_json(&report));
    }
    rows.push_str("]}");
    drop(ws);
    let metrics = request_metrics(id, "compare", registry.snapshot());
    ok_line(id, &rows, Some(&metrics))
}

fn exec_sweep(id: u64, job: &SweepJob, env: &ExecEnv<'_>) -> String {
    let n = job.seeds as usize;
    let registry = Arc::new(Registry::new(n.min(Registry::MAX_SHARDS)));
    let seeds: Vec<u64> = (0..job.seeds).map(|i| job.seed_from + i).collect();
    let results: Vec<Result<SimReport, String>> =
        par::map_indexed(env.fanout, &seeds, |i, &seed| {
            let mut policy = job
                .base
                .policy
                .build(&job.base.task_set, &BuildOptions::default())
                .map_err(|e| e.to_string())?;
            let mut config = job.base.config;
            config.faults.seed = seed;
            let mut ws = env.pool.checkout();
            ws.set_recorder(Some(scoped(id, &registry, i, env)));
            Ok(simulate_in(
                &mut ws,
                &job.base.task_set,
                policy.as_mut(),
                &config,
            ))
        });

    let mut reports = Vec::with_capacity(n);
    for result in results {
        match result {
            Ok(report) => reports.push(report),
            Err(e) => return error_line(Some(id), &e),
        }
    }
    let total_energy = mkss_core::fold::sum_f64_by(&reports, |r| r.total_energy().units());
    let active_energy = mkss_core::fold::sum_f64_by(&reports, |r| r.active_energy().units());
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    let assured = reports.iter().filter(|r| r.mk_assured()).count();
    let met: u64 = reports.iter().map(|r| r.stats.met).sum();
    let missed: u64 = reports.iter().map(|r| r.stats.missed).sum();
    let transient: u64 = reports.iter().map(|r| r.stats.transient_faults).sum();

    let mut result = String::with_capacity(256);
    result.push_str("{\"runs\":");
    result.push_str(&n.to_string());
    result.push_str(",\"seed_from\":");
    result.push_str(&job.seed_from.to_string());
    result.push_str(",\"policy\":");
    write_escaped(&mut result, &reports[0].policy);
    result.push_str(",\"mean_total_energy\":");
    push_json_f64(&mut result, total_energy / n as f64);
    result.push_str(",\"mean_active_energy\":");
    push_json_f64(&mut result, active_energy / n as f64);
    result.push_str(",\"mk_assured_runs\":");
    result.push_str(&assured.to_string());
    result.push_str(",\"violations\":");
    result.push_str(&violations.to_string());
    result.push_str(",\"met\":");
    result.push_str(&met.to_string());
    result.push_str(",\"missed\":");
    result.push_str(&missed.to_string());
    result.push_str(",\"transient_faults\":");
    result.push_str(&transient.to_string());
    result.push('}');

    let metrics = request_metrics(id, "sweep", registry.snapshot());
    ok_line(id, &result, Some(&metrics))
}

/// Render one [`SimReport`] as a compact JSON object.
fn report_json(report: &SimReport) -> String {
    let stats = &report.stats;
    let mut out = String::with_capacity(512);
    out.push_str("{\"policy\":");
    write_escaped(&mut out, &report.policy);
    out.push_str(",\"horizon_ms\":");
    push_json_f64(&mut out, report.horizon.as_ms_f64());
    out.push_str(",\"energy\":{\"active\":");
    push_json_f64(&mut out, report.active_energy().units());
    out.push_str(",\"total\":");
    push_json_f64(&mut out, report.total_energy().units());
    out.push_str("},\"jobs\":{");
    let fields: [(&str, u64); 11] = [
        ("released", stats.released),
        ("mandatory", stats.mandatory),
        ("optional_selected", stats.optional_selected),
        ("optional_skipped", stats.optional_skipped),
        ("optional_abandoned", stats.optional_abandoned),
        ("backups_canceled", stats.backups_canceled),
        ("backups_completed", stats.backups_completed),
        ("transient_faults", stats.transient_faults),
        ("copies_lost", stats.copies_lost),
        ("met", stats.met),
        ("missed", stats.missed),
    ];
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
        out.push(':');
        out.push_str(&value.to_string());
    }
    out.push_str("},\"mk_assured\":");
    out.push_str(if report.mk_assured() { "true" } else { "false" });
    out.push_str(",\"violations\":");
    out.push_str(&report.violations.len().to_string());
    out.push('}');
    out
}

/// Append a float that always parses as a JSON number (non-finite values
/// clamp to 0, matching the `mkss-obs` exporter's convention).
fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        out.push_str(&format!("{value}"));
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_obs::CounterId;

    const SIMULATE: &str = r#"{"id": 1, "op": "simulate", "task_set": {"tasks": [
        {"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4},
        {"period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2}
    ]}, "policy": "selective", "horizon_ms": 100}"#;

    fn env(pool: &WorkspacePool) -> ExecEnv<'_> {
        ExecEnv {
            pool,
            global: None,
            fanout: 1,
        }
    }

    fn run(line: &str, env: &ExecEnv<'_>) -> String {
        execute(&Request::parse(line).unwrap(), env)
    }

    #[test]
    fn ping_pongs() {
        let pool = WorkspacePool::new();
        assert_eq!(
            run(r#"{"id": 7, "op": "ping"}"#, &env(&pool)),
            r#"{"id":7,"ok":true,"result":{"pong":true}}"#
        );
    }

    #[test]
    fn simulate_reports_jobs_and_metrics() {
        let pool = WorkspacePool::new();
        let line = run(SIMULATE, &env(&pool));
        assert!(
            line.starts_with(r#"{"id":1,"ok":true,"result":{"policy":"MKSS_selective""#),
            "{line}"
        );
        assert!(line.contains("\"mk_assured\":true"), "{line}");
        assert!(line.contains("\"metrics\":{\"meta\":{\"binary\":\"mkss-serve\",\"id\":\"1\",\"op\":\"simulate\"}"), "{line}");
        assert!(line.contains("\"jobs_released\":"), "{line}");
        assert_eq!(pool.idle(), 1, "workspace returned to the pool");
    }

    #[test]
    fn responses_are_byte_identical_across_pool_reuse_and_tee() {
        let pool = WorkspacePool::new();
        let first = run(SIMULATE, &env(&pool));
        // Reused arena, global tee attached, different fan-out: same bytes.
        let global = Arc::new(Registry::new(2));
        let teed = ExecEnv {
            pool: &pool,
            global: Some(Arc::new(global.handle_at(0))),
            fanout: 4,
        };
        let second = run(SIMULATE, &teed);
        assert_eq!(first, second);
        assert!(
            global.snapshot().counter(CounterId::JobsReleased) > 0,
            "tee observed the run"
        );
    }

    #[test]
    fn simulate_trace_embeds_a_bounded_timeline() {
        let pool = WorkspacePool::new();
        let traced = SIMULATE.replace(
            r#""horizon_ms": 100}"#,
            r#""horizon_ms": 100, "trace": {"last": 8}}"#,
        );
        let line = run(&traced, &env(&pool));
        assert!(line.contains("\"trace\":{\"capacity\":8,"), "{line}");
        assert!(line.contains("\"events\":[{\"t\":"), "{line}");
        // Bounded: the ring holds at most 8 events however long the run.
        assert!(line.matches("\"kind\":").count() <= 8, "{line}");
        // Deterministic: repeating the request yields the same bytes.
        assert_eq!(line, run(&traced, &env(&pool)));
        // Tracing is observation-only: excising the trace member yields
        // byte-for-byte the untraced response.
        let plain = run(SIMULATE, &env(&pool));
        let (head, rest) = line.split_once(",\"trace\":").unwrap();
        let tail = rest.split_once("}]}").unwrap().1;
        assert_eq!(format!("{head}{tail}"), plain);
    }

    #[test]
    fn compare_rows_match_individual_simulations() {
        let pool = WorkspacePool::new();
        let compare = run(
            r#"{"id": 2, "op": "compare", "task_set": {"tasks": [
                {"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}
            ]}, "horizon_ms": 60, "policies": ["st", "selective"]}"#,
            &env(&pool),
        );
        let st = run(
            r#"{"id": 3, "op": "simulate", "task_set": {"tasks": [
                {"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}
            ]}, "policy": "st", "horizon_ms": 60}"#,
            &env(&pool),
        );
        // The compare row for `st` is exactly the simulate result object.
        let row = st
            .split("\"result\":")
            .nth(1)
            .unwrap()
            .split(",\"metrics\"")
            .next()
            .unwrap();
        assert!(compare.contains(row), "compare: {compare}\nrow: {row}");
        assert!(compare.contains("\"rows\":["), "{compare}");
    }

    #[test]
    fn sweep_aggregates_deterministically_across_fanout() {
        let pool = WorkspacePool::new();
        let line = r#"{"id": 4, "op": "sweep", "task_set": {"tasks": [
            {"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}
        ]}, "policy": "dp", "horizon_ms": 200,
        "faults": {"transient_per_ms": 0.001}, "seeds": 8, "seed_from": 42}"#;
        let serial = run(line, &env(&pool));
        let parallel = run(
            line,
            &ExecEnv {
                pool: &pool,
                global: None,
                fanout: 4,
            },
        );
        assert_eq!(serial, parallel);
        assert!(serial.contains("\"runs\":8"), "{serial}");
        assert!(serial.contains("\"seed_from\":42"), "{serial}");
        assert!(serial.contains("\"policy\":\"MKSS_DP\""), "{serial}");
    }

    #[test]
    fn huge_k_simulates_in_time_proportional_to_its_jobs() {
        // k is not capped by the protocol; a k = 10⁶ task must cost what
        // its 100 jobs cost, not pin the worker.
        let pool = WorkspacePool::new();
        let line = r#"{"id": 9, "op": "simulate", "task_set": {"tasks": [
            {"period_ms": 10, "wcet_ms": 2, "m": 1, "k": 1000000}
        ]}, "policy": "selective", "horizon_ms": 1000}"#;
        let resp = run(line, &env(&pool));
        assert!(resp.starts_with(r#"{"id":9,"ok":true,"#), "{resp}");
        assert!(resp.contains("\"mk_assured\":true"), "{resp}");
    }

    #[test]
    fn unschedulable_set_is_a_request_error() {
        let pool = WorkspacePool::new();
        // Saturating WCETs: the R-pattern analysis must reject this for
        // the dual-priority scheme.
        let line = r#"{"id": 5, "op": "simulate", "task_set": {"tasks": [
            {"period_ms": 5, "wcet_ms": 4, "m": 3, "k": 4},
            {"period_ms": 5, "wcet_ms": 4, "m": 3, "k": 4}
        ]}, "policy": "dp", "horizon_ms": 50}"#;
        let resp = run(line, &env(&pool));
        assert!(resp.starts_with(r#"{"id":5,"ok":false,"error":"#), "{resp}");
    }

    #[test]
    fn connection_layer_ops_are_rejected_here() {
        let pool = WorkspacePool::new();
        for line in [
            r#"{"id": 6, "op": "shutdown"}"#,
            r#"{"id": 7, "op": "watch"}"#,
        ] {
            let resp = run(line, &env(&pool));
            assert!(resp.contains("\"ok\":false"), "{resp}");
            assert!(resp.contains("answered by the daemon"), "{resp}");
        }
    }

    #[test]
    fn floats_render_as_json_numbers() {
        let mut out = String::new();
        push_json_f64(&mut out, 2.5);
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "2.50");
    }
}
