//! # mkss-cli
//!
//! Command-line front end for the `mkss` standby-sparing toolkit:
//!
//! ```text
//! mkss-cli analyze  <taskset.json>
//! mkss-cli simulate <taskset.json> --policy selective --horizon-ms 1000
//!                   [--permanent primary@7] [--transient 1e-6] [--seed 42]
//!                   [--gantt] [--active-only]
//! mkss-cli generate --util 0.45 --seed 7 [--tasks 5..10]
//! mkss-cli policies
//! mkss-cli serve   --socket /tmp/mkss.sock
//! mkss-cli top     --socket /tmp/mkss.sock [--interval-ms 500] [--frames N]
//! mkss-cli metrics --socket /tmp/mkss.sock [--json]
//! ```
//!
//! The command logic lives in [`run`] (returning the full stdout text) so
//! the whole surface is unit-testable without spawning processes; the
//! binary is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;

use std::error::Error as StdError;
use std::fmt;
use std::io::IsTerminal;

use std::sync::Arc;

use mkss_analysis::postpone::postponement_intervals;
use mkss_analysis::rta::{analyze, InterferenceModel};
use mkss_core::flags::{checked_ms, FlagError, Flags};
use mkss_core::task::TaskSet;
use mkss_core::time::{Time, TICKS_PER_MS};
use mkss_obs::{
    chrome_trace, overflow_note, violation_reports, EchoRecorder, LogLevel, MetricsDoc, Recorder,
    Registry, Reporter, Stopwatch, TraceBuffer, TraceRecorder, DEFAULT_TRACE_CAPACITY,
};
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate_in, SimConfig, SimWorkspace};
use mkss_sim::fault::FaultConfig;
use mkss_sim::pool::WorkspacePool;
use mkss_sim::power::PowerModel;
use mkss_sim::proc::ProcId;
use mkss_sim::trace::Trace;
use mkss_top::{Target, TopConfig};
use mkss_workload::{Generator, WorkloadConfig};

/// CLI error: bad usage/input, or an I/O failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Invalid flags or file contents.
    Input(String),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Input(msg) => write!(f, "{msg}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl StdError for CliError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Input(_) => None,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<FlagError> for CliError {
    fn from(e: FlagError) -> Self {
        CliError::Input(e.into())
    }
}

/// An input error carrying `e`'s text.
fn input(e: impl fmt::Display) -> CliError {
    CliError::Input(e.to_string())
}

/// Refuses a traced run (`--gantt`, `--trace-out`) whose horizon
/// passes 2^61 ticks: a segment event packs its start into 61 bits
/// ([`mkss_obs::segment_payload`]), so a later start would wrap in the
/// exported trace.
fn check_traceable(horizon: Time) -> Result<(), CliError> {
    let max_ms = (1 << 61) / TICKS_PER_MS;
    if horizon > Time::from_ms(max_ms) {
        return Err(input(format!(
            "--horizon-ms: {} ms is out of range for a traced run (at most {max_ms} ms)",
            horizon.ticks() / TICKS_PER_MS
        )));
    }
    Ok(())
}

/// Usage text.
pub const USAGE: &str = "\
usage: mkss-cli <command> [args]

commands:
  analyze  <taskset.json>                      schedulability, Y and θ analysis
  simulate <taskset.json> [--policy P] [--horizon-ms N] [--seed S]
           [--permanent primary@MS|spare@MS] [--transient RATE_PER_MS]
           [--gantt] [--active-only]
  compare  <taskset.json> [--horizon-ms N] [--jobs N] [--metrics-out FILE]
           [--trace-out FILE]
           run every policy, print one row each; --trace-out captures every
           run through the flight recorder and writes one Chrome Trace
           Event JSON (open in Perfetto / chrome://tracing)
  generate [--util U] [--seed S] [--tasks MIN..MAX]  emit a schedulable set as JSON
  policies                                     list available policies
  serve    (--socket PATH | --tcp ADDR) [--workers N] [--queue N] [--fanout N]
           run the line-protocol simulation daemon until a shutdown request
  top      (--socket PATH | --tcp ADDR) [--interval-ms N] [--frames N]
           [--plain]
           live dashboard over the daemon's streaming watch op; auto-plain
           when stdout is not a terminal
  metrics  (--socket PATH | --tcp ADDR) [--json]
           fetch the daemon's metrics document once and pretty-print it

environment:
  MKSS_LOG=off|summary|events  attach an engine-event recorder to simulate
           and compare: `summary` prints a counter table on stderr at the
           end, `events` additionally narrates every engine event
";

/// Executes a CLI invocation and returns its stdout text.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands/flags, malformed inputs, or
/// I/O failures. The binary prints the error and exits non-zero.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Input(USAGE.to_owned()));
    };
    match command.as_str() {
        "analyze" => cmd_analyze(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "policies" => Ok(cmd_policies()),
        "serve" => cmd_serve(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "--help" | "-h" | "help" => Ok(USAGE.to_owned()),
        other => Err(input(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

fn load_task_set(path: &str) -> Result<TaskSet, CliError> {
    let body = std::fs::read_to_string(path)?;
    format::parse_task_set(&body)
}

/// Reads the `MKSS_LOG` filter, mapping a malformed value to a usage error.
fn log_level() -> Result<LogLevel, CliError> {
    LogLevel::from_env().map_err(input)
}

/// Prints the end-of-run counter table on `reporter`, one line at a time
/// so concurrent writers cannot interleave inside it.
fn report_summary_table(reporter: &Reporter, registry: &Registry) {
    for line in MetricsDoc::new(registry.snapshot()).render_table().lines() {
        reporter.line(line);
    }
}

fn cmd_policies() -> String {
    let mut out = String::new();
    for kind in PolicyKind::ALL {
        out.push_str(&format!("{:<20} {:?}\n", kind.id(), kind));
    }
    out
}

fn cmd_analyze(args: &[String]) -> Result<String, CliError> {
    let [path] = args else {
        return Err(input("analyze expects exactly one task-set file"));
    };
    let ts = load_task_set(path)?;
    let mut out = String::new();
    out.push_str(&ts.to_string());
    out.push_str(&format!(
        "utilization: {:.4}   (m,k)-utilization: {:.4}   hyperperiod: {}\n",
        ts.utilization(),
        ts.mk_utilization(),
        ts.hyperperiod(),
    ));
    let report = analyze(&ts, InterferenceModel::MandatoryOnly);
    out.push_str(&format!(
        "schedulable under R-pattern: {}\n",
        report.schedulable()
    ));
    for t in &report.tasks {
        match t.response_time {
            Some(r) => out.push_str(&format!("  {}: R = {r}\n", t.task)),
            None => out.push_str(&format!("  {}: deadline miss\n", t.task)),
        }
    }
    if report.schedulable() {
        let post = postponement_intervals(&ts).map_err(input)?;
        for (id, _) in ts.iter() {
            out.push_str(&format!(
                "  {id}: promotion Y = {}, postponement θ = {}\n",
                post.promotion[id.0], post.theta[id.0]
            ));
        }
    }
    Ok(out)
}

fn cmd_simulate(args: &[String]) -> Result<String, CliError> {
    let Some(path) = args.first() else {
        return Err(input("simulate expects a task-set file"));
    };
    let ts = load_task_set(path)?;
    let mut policy_kind = PolicyKind::Selective;
    let mut horizon = Time::from_ms(1_000);
    let mut faults = FaultConfig::none();
    let mut gantt = false;
    let mut power = PowerModel::default();
    let mut seed = 0u64;
    let mut transient = 0.0f64;
    let mut permanent: Option<(ProcId, Time)> = None;

    let mut flags = Flags::new(args[1..].iter().cloned());
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--policy" => policy_kind = flags.value()?.parse().map_err(input)?,
            "--horizon-ms" => horizon = flags.ms()?,
            "--seed" => seed = flags.parse()?,
            "--transient" => transient = flags.parse()?,
            "--permanent" => {
                let v = flags.value()?;
                let (proc, at) = v
                    .split_once('@')
                    .ok_or_else(|| input("--permanent expects primary@MS or spare@MS"))?;
                let proc = match proc {
                    "primary" => ProcId::PRIMARY,
                    "spare" => ProcId::SPARE,
                    other => return Err(input(format!("unknown processor '{other}'"))),
                };
                let ms = at
                    .parse()
                    .map_err(|e| input(format!("--permanent time: {e}")))?;
                permanent = Some((proc, checked_ms("--permanent time", ms)?));
            }
            "--gantt" => gantt = true,
            "--active-only" => power = PowerModel::active_only(),
            other => return Err(input(format!("unknown flag '{other}'"))),
        }
    }
    if gantt {
        check_traceable(horizon)?;
    }
    faults.transient_rate_per_ms = transient;
    faults.seed = seed;
    if let Some((proc, at)) = permanent {
        faults.permanent = Some(mkss_sim::fault::PermanentFault { proc, at });
    }

    let mut policy = policy_kind
        .build(&ts, &BuildOptions::default())
        .map_err(input)?;
    let config = SimConfig::builder()
        .horizon(horizon)
        .power(power)
        .faults(faults)
        .build();
    // MKSS_LOG attaches a recorder to the workspace; the report itself is
    // byte-identical with and without it (recorders only observe).
    let log = log_level()?;
    let (log_recorder, obs) = if log.enabled() {
        let registry = Arc::new(Registry::new(1));
        let reporter = Arc::new(Reporter::stderr());
        let recorder: Arc<dyn Recorder> = match log {
            LogLevel::Events => Arc::new(EchoRecorder::new(
                registry.handle_at(0),
                Arc::clone(&reporter),
            )),
            _ => Arc::new(registry.handle_at(0)),
        };
        (Some(recorder), Some((registry, reporter)))
    } else {
        (None, None)
    };
    // Only --gantt captures the run (the schedule decodes the whole event
    // stream); the capture forwards every event to MKSS_LOG's recorder.
    let capture = gantt.then(|| {
        let whole_run = TraceBuffer::with_capacity(usize::MAX);
        Arc::new(TraceRecorder::new(whole_run, log_recorder.clone()))
    });
    let mut ws = SimWorkspace::new();
    let recorder = capture.clone().map(|c| c as Arc<dyn Recorder>);
    ws.set_recorder(recorder.or(log_recorder));
    let report = simulate_in(&mut ws, &ts, policy.as_mut(), &config);

    let mut out = String::new();
    out.push_str(&format!("policy: {}\n", report.policy));
    out.push_str(&format!(
        "energy: total {} (active {}), per processor: primary {} / spare {}\n",
        report.total_energy(),
        report.active_energy(),
        report.energy[0].total(),
        report.energy[1].total(),
    ));
    out.push_str(&format!(
        "jobs: released {}, mandatory {}, optional selected {}, skipped {}, abandoned {}\n",
        report.stats.released,
        report.stats.mandatory,
        report.stats.optional_selected,
        report.stats.optional_skipped,
        report.stats.optional_abandoned,
    ));
    out.push_str(&format!(
        "outcomes: met {}, missed {}; backups canceled {}, completed {}; transient faults {}, copies lost {}\n",
        report.stats.met,
        report.stats.missed,
        report.stats.backups_canceled,
        report.stats.backups_completed,
        report.stats.transient_faults,
        report.stats.copies_lost,
    ));
    out.push_str(&format!("(m,k) assured: {}\n", report.mk_assured()));
    for v in &report.violations {
        out.push_str(&format!(
            "  violation: task {} at job {}\n",
            v.task, v.job_index
        ));
    }
    if let Some(capture) = capture {
        let trace = Trace::from(&capture.take());
        out.push_str(&trace.render_gantt_ms(horizon.min(Time::from_ms(120))));
    }
    if let Some((registry, reporter)) = &obs {
        report_summary_table(reporter, registry);
    }
    Ok(out)
}

fn cmd_compare(args: &[String]) -> Result<String, CliError> {
    let Some(path) = args.first() else {
        return Err(input("compare expects a task-set file"));
    };
    let ts = load_task_set(path)?;
    let mut horizon = Time::from_ms(1_000);
    let mut jobs = 0usize;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut flags = Flags::new(args[1..].iter().cloned());
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--horizon-ms" => horizon = flags.ms()?,
            "--jobs" => jobs = flags.parse()?,
            "--metrics-out" => metrics_out = Some(flags.value()?),
            "--trace-out" => trace_out = Some(flags.value()?),
            other => return Err(input(format!("unknown flag '{other}'"))),
        }
    }
    if trace_out.is_some() {
        check_traceable(horizon)?;
    }
    let config = SimConfig::builder().horizon(horizon).build();
    // A registry is wanted for `--metrics-out` and for any MKSS_LOG level;
    // each worker aggregates into its own shard so totals are identical
    // for every `--jobs` value.
    let log = log_level()?;
    let registry = (metrics_out.is_some() || log.enabled())
        .then(|| Arc::new(Registry::new(mkss_core::par::effective_jobs(jobs))));
    let reporter = log.enabled().then(|| Arc::new(Reporter::stderr()));
    let recorders: Vec<Arc<dyn Recorder>> = registry
        .as_ref()
        .map(|registry| {
            (0..registry.shard_count())
                .map(|shard| {
                    let handle = registry.handle_at(shard);
                    match (log, &reporter) {
                        (LogLevel::Events, Some(reporter)) => {
                            Arc::new(EchoRecorder::new(handle, Arc::clone(reporter)))
                                as Arc<dyn Recorder>
                        }
                        _ => Arc::new(handle) as Arc<dyn Recorder>,
                    }
                })
                .collect()
        })
        .unwrap_or_default();
    // `--trace-out` gives every policy its own flight recorder (wrapping
    // that worker's shard recorder when metrics/logging are also on), so
    // each captured stream — and therefore the exported file — is
    // byte-identical for every `--jobs` value.
    let tracers: Option<Vec<Arc<TraceRecorder>>> = trace_out.as_ref().map(|_| {
        (0..PolicyKind::ALL.len())
            .map(|index| {
                Arc::new(TraceRecorder::new(
                    TraceBuffer::with_capacity(DEFAULT_TRACE_CAPACITY),
                    (!recorders.is_empty())
                        .then(|| Arc::clone(&recorders[index % recorders.len()])),
                ))
            })
            .collect()
    });
    // Every policy simulates the same set independently — fan them out;
    // rows are then rendered in registry order, so the output (including
    // the "first applicable policy" normalization reference) is identical
    // to the serial loop. Workers draw reusable arenas from a shared pool
    // (the same abstraction the `mkss-serve` daemon sessions use).
    let pool = WorkspacePool::new();
    let watch = Stopwatch::start();
    let rows = mkss_core::par::map_indexed(jobs, &PolicyKind::ALL, |index, &kind| {
        let Ok(mut policy) = kind.build(&ts, &BuildOptions::default()) else {
            return None;
        };
        let recorder: Option<Arc<dyn Recorder>> = match &tracers {
            Some(tracers) => Some(Arc::clone(&tracers[index]) as Arc<dyn Recorder>),
            None => {
                (!recorders.is_empty()).then(|| Arc::clone(&recorders[index % recorders.len()]))
            }
        };
        let report = {
            let mut ws = pool.checkout();
            ws.set_recorder(recorder);
            simulate_in(&mut ws, &ts, policy.as_mut(), &config)
        };
        Some((
            report.total_energy().units(),
            report.active_energy().units(),
            report.stats.met,
            report.stats.missed,
            report.mk_assured(),
        ))
    });
    let simulate_ms = watch.elapsed_ms();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>7} {:>7} {:>10}
",
        "policy", "total", "active", "met", "missed", "(m,k) ok"
    ));
    let mut reference: Option<f64> = None;
    for (kind, row) in PolicyKind::ALL.into_iter().zip(rows) {
        let Some((total, active, met, missed, mk_ok)) = row else {
            out.push_str(&format!(
                "{:<20} (not applicable to this set)
",
                kind.id()
            ));
            continue;
        };
        let reference = *reference.get_or_insert(total);
        out.push_str(&format!(
            "{:<20} {:>11.3}u {:>11.3}u {:>7} {:>7} {:>10} ({:.3}x)
",
            kind.id(),
            total,
            active,
            met,
            missed,
            mk_ok,
            if reference > 0.0 {
                total / reference
            } else {
                f64::NAN
            },
        ));
    }
    if let (Some(path), Some(tracers)) = (&trace_out, &tracers) {
        let buffers: Vec<TraceBuffer> = tracers.iter().map(|tracer| tracer.take()).collect();
        let runs: Vec<(&str, &TraceBuffer)> = PolicyKind::ALL
            .iter()
            .map(|kind| kind.id())
            .zip(&buffers)
            .collect();
        std::fs::write(path, chrome_trace(&runs))?;
        out.push_str(&format!("wrote trace to {path}{}\n", overflow_note(&runs)));
        // Violation forensics: any run that tipped an (m,k) constraint gets
        // its reconstructed window and recent-event tail printed inline.
        for (label, buffer) in &runs {
            for report in violation_reports(buffer, 16) {
                out.push_str(&format!("[{label}] {}", report.render()));
            }
        }
    }
    if let (Some(path), Some(registry)) = (&metrics_out, &registry) {
        let doc = mkss_obs::metrics_doc(
            "mkss-cli compare",
            registry.snapshot(),
            &[
                ("policies", PolicyKind::ALL.len().to_string()),
                ("jobs", mkss_core::par::effective_jobs(jobs).to_string()),
            ],
            &[("simulate_ms", simulate_ms)],
        );
        std::fs::write(path, doc.to_json())?;
        out.push_str(&format!("wrote metrics to {path}\n"));
    }
    if let (Some(registry), Some(reporter)) = (&registry, &reporter) {
        report_summary_table(reporter, registry);
    }
    Ok(out)
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut config = mkss_serve::ServerConfig::default();
    let mut flags = Flags::new(args.iter().cloned());
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--socket" => socket = Some(flags.value()?),
            "--tcp" => tcp = Some(flags.value()?),
            "--workers" => config.workers = flags.parse()?,
            "--queue" => config.queue_capacity = flags.parse()?,
            "--fanout" => config.fanout = flags.parse()?,
            other => return Err(input(format!("unknown flag '{other}'"))),
        }
    }
    let server = match (&socket, &tcp) {
        (Some(path), None) => mkss_serve::Server::bind_unix(path, config)?,
        (None, Some(addr)) => mkss_serve::Server::bind_tcp(addr, config)?,
        _ => {
            return Err(input(
                "serve expects exactly one of --socket PATH or --tcp ADDR",
            ))
        }
    };
    let endpoint = server.endpoint();
    // Readiness goes to stderr so scripts can poll for it without
    // touching the (blocked-until-shutdown) stdout text.
    let reporter = Reporter::stderr();
    reporter.line(&format!("mkss-serve listening on {endpoint}"));
    let totals = server.run();
    let mut out = format!("daemon on {endpoint} shut down cleanly\n");
    for line in MetricsDoc::new(totals).render_table().lines() {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Folds the mutually exclusive `--socket` / `--tcp` flags into a
/// dashboard [`Target`], mirroring `serve`'s endpoint selection.
fn parse_target(socket: Option<String>, tcp: Option<String>) -> Result<Target, CliError> {
    match (socket, tcp) {
        (Some(path), None) => Ok(Target::Unix(path.into())),
        (None, Some(addr)) => Ok(Target::Tcp(addr)),
        _ => Err(input("expected exactly one of --socket PATH or --tcp ADDR")),
    }
}

fn cmd_top(args: &[String]) -> Result<String, CliError> {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut interval_ms = 500u64;
    let mut frames = 0u64;
    let mut plain = false;
    let mut flags = Flags::new(args.iter().cloned());
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--socket" => socket = Some(flags.value()?),
            "--tcp" => tcp = Some(flags.value()?),
            "--interval-ms" => interval_ms = flags.parse()?,
            "--frames" => frames = flags.parse()?,
            "--plain" => plain = true,
            other => return Err(input(format!("unknown flag '{other}'"))),
        }
    }
    let config = TopConfig {
        interval_ms,
        frames,
        // ANSI clears would garble a pipe or a capture file; screen
        // control only makes sense on an actual terminal.
        plain: plain || !std::io::stdout().is_terminal(),
        ..TopConfig::new(parse_target(socket, tcp)?)
    };
    let mut stdout = std::io::stdout().lock();
    let summary = mkss_top::run_top(&config, &mut stdout)?;
    drop(stdout);
    Ok(format!(
        "watched {} frames from {} ({} restarts)\n",
        summary.frames, summary.endpoint, summary.restarts
    ))
}

fn cmd_metrics(args: &[String]) -> Result<String, CliError> {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut json = false;
    let mut flags = Flags::new(args.iter().cloned());
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--socket" => socket = Some(flags.value()?),
            "--tcp" => tcp = Some(flags.value()?),
            "--json" => json = true,
            other => return Err(input(format!("unknown flag '{other}'"))),
        }
    }
    let mut client = match parse_target(socket, tcp)? {
        Target::Unix(path) => mkss_serve::Client::connect_unix(path)?,
        Target::Tcp(addr) => mkss_serve::Client::connect_tcp(&addr)?,
    };
    let line = client.request(r#"{"id":1,"op":"metrics"}"#)?;
    match mkss_top::parse_response_line(&line) {
        Ok(mkss_top::ResponseLine::Frame(sample)) => {
            if json {
                // The raw result document, one line — the scriptable form.
                let start = line.find("\"result\":").map(|i| i + "\"result\":".len());
                let body = start
                    .and_then(|s| line.get(s..line.len().saturating_sub(1)))
                    .unwrap_or(&line);
                Ok(format!("{body}\n"))
            } else {
                Ok(mkss_top::render_plain(&mkss_top::Frame::build(
                    None, &sample,
                )))
            }
        }
        Ok(mkss_top::ResponseLine::Error { message }) => {
            Err(input(format!("daemon error: {message}")))
        }
        Ok(mkss_top::ResponseLine::WatchDone { .. }) => {
            Err(input("unexpected watch_done response to a metrics request"))
        }
        Err(e) => Err(input(format!("bad metrics response: {e}"))),
    }
}

fn cmd_generate(args: &[String]) -> Result<String, CliError> {
    let mut util = 0.5f64;
    let mut seed = 0u64;
    let mut tasks = (5usize, 10usize);
    let mut flags = Flags::new(args.iter().cloned());
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--util" => util = flags.parse()?,
            "--seed" => seed = flags.parse()?,
            "--tasks" => {
                let v = flags.value()?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| input("--tasks expects MIN..MAX"))?;
                tasks = (flags.parse_str(lo)?, flags.parse_str(hi)?);
                if tasks.0 == 0 || tasks.0 > tasks.1 {
                    return Err(input(format!("--tasks expects 1 <= MIN <= MAX, got {v}")));
                }
            }
            other => return Err(input(format!("unknown flag '{other}'"))),
        }
    }
    if !(0.0..=1.0).contains(&util) || util == 0.0 {
        return Err(input(format!("--util must be in (0, 1], got {util}")));
    }
    let config = WorkloadConfig {
        tasks_min: tasks.0,
        tasks_max: tasks.1,
        ..WorkloadConfig::paper()
    };
    let ts = Generator::new(config, seed)
        .schedulable_set(util)
        .ok_or_else(|| {
            input(format!(
                "no schedulable set found at utilization {util} within the attempt cap"
            ))
        })?;
    Ok(format::task_set_json(&ts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn sample_file() -> tempfile_path::TempPath {
        tempfile_path::write_temp(
            r#"{ "tasks": [
                { "period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4 },
                { "period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2 }
            ] }"#,
        )
    }

    /// Minimal tempfile helper (no external dependency).
    mod tempfile_path {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempPath(pub PathBuf);
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().unwrap()
            }
        }

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub fn write_temp(body: &str) -> TempPath {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("mkss-cli-test-{}-{n}.json", std::process::id()));
            std::fs::write(&path, body).unwrap();
            TempPath(path)
        }
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&args(&["--help"])).unwrap().contains("usage"));
        assert!(run(&args(&["bogus"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn policies_lists_all() {
        let out = run(&args(&["policies"])).unwrap();
        assert!(out.contains("selective"));
        assert!(out.contains("dp"));
        assert_eq!(out.lines().count(), PolicyKind::ALL.len());
    }

    #[test]
    fn analyze_sample() {
        let file = sample_file();
        let out = run(&args(&["analyze", file.as_str()])).unwrap();
        assert!(out.contains("schedulable under R-pattern: true"));
        assert!(out.contains("promotion Y = 1ms"));
    }

    #[test]
    fn simulate_selective_assures_mk() {
        let file = sample_file();
        let out = run(&args(&[
            "simulate",
            file.as_str(),
            "--policy",
            "selective",
            "--horizon-ms",
            "100",
            "--active-only",
            "--gantt",
        ]))
        .unwrap();
        assert!(out.contains("(m,k) assured: true"), "{out}");
        assert!(out.contains("primary:"), "gantt expected: {out}");
    }

    #[test]
    fn simulate_with_faults() {
        let file = sample_file();
        let out = run(&args(&[
            "simulate",
            file.as_str(),
            "--policy",
            "dp",
            "--horizon-ms",
            "60",
            "--permanent",
            "primary@7",
            "--transient",
            "0.001",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("copies lost"), "{out}");
        assert!(out.contains("(m,k) assured: true"), "{out}");
    }

    #[test]
    fn traced_runs_stop_at_the_segment_encoding_limit() {
        let last_ms = (1 << 61) / TICKS_PER_MS;
        assert!(check_traceable(Time::from_ms(last_ms)).is_ok());
        let err = check_traceable(Time::from_ms(last_ms + 1)).expect_err("past 2^61 ticks");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn compare_runs_every_policy() {
        let file = sample_file();
        let out = run(&args(&["compare", file.as_str(), "--horizon-ms", "100"])).unwrap();
        for kind in PolicyKind::ALL {
            assert!(out.contains(kind.id()), "missing {kind:?} in:\n{out}");
        }
        assert!(out.contains("true"));
        assert!(!out.contains("false"), "some policy violated (m,k):\n{out}");
    }

    #[test]
    fn compare_writes_metrics_json() {
        let file = sample_file();
        let path =
            std::env::temp_dir().join(format!("mkss-cli-metrics-{}.json", std::process::id()));
        let out = run(&args(&[
            "compare",
            file.as_str(),
            "--horizon-ms",
            "100",
            "--metrics-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote metrics to"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"meta\"",
            "\"counters\"",
            "\"histograms\"",
            "\"stages\"",
            "backups_canceled",
            "backups_postponed",
            "optional_executed",
            "faults_injected",
            "simulate_ms",
        ] {
            assert!(body.contains(key), "missing {key} in:\n{body}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compare_writes_a_chrome_trace_identically_across_jobs() {
        let file = sample_file();
        let mut traces = Vec::new();
        for jobs in ["1", "3"] {
            let path = std::env::temp_dir().join(format!(
                "mkss-cli-trace-jobs{jobs}-{}.json",
                std::process::id()
            ));
            let out = run(&args(&[
                "compare",
                file.as_str(),
                "--horizon-ms",
                "100",
                "--jobs",
                jobs,
                "--trace-out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("wrote trace to"), "{out}");
            assert!(!out.contains("ring overflow"), "{out}");
            traces.push(std::fs::read_to_string(&path).unwrap());
            let _ = std::fs::remove_file(path);
        }
        // One flight recorder per policy: the export is a pure function of
        // the per-policy streams, so worker count cannot change a byte.
        assert_eq!(traces[0], traces[1]);
        let body = &traces[0];
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");
        for kind in PolicyKind::ALL {
            assert!(body.contains(kind.id()), "missing {kind:?} track");
        }
        for needle in [
            "\"ph\":\"M\"",
            "\"ph\":\"i\"",
            "\"ph\":\"b\"",
            "\"ph\":\"e\"",
        ] {
            assert!(body.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn compare_trace_out_reports_ring_overflow() {
        let file = sample_file();
        let path = std::env::temp_dir().join(format!(
            "mkss-cli-trace-overflow-{}.json",
            std::process::id()
        ));
        let out = run(&args(&[
            "compare",
            file.as_str(),
            "--horizon-ms",
            "100000",
            "--trace-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let _ = std::fs::remove_file(path);
        let wrote = out
            .lines()
            .find(|line| line.starts_with("wrote trace to"))
            .expect("trace line");
        let capacity = DEFAULT_TRACE_CAPACITY;
        assert!(
            wrote.contains(&format!(
                " (ring overflow, kept/recorded events: st {capacity}/"
            )),
            "{wrote}"
        );
    }

    #[test]
    fn compare_metrics_counters_are_jobs_invariant() {
        let file = sample_file();
        let mut documents = Vec::new();
        for jobs in ["1", "3"] {
            let path = std::env::temp_dir().join(format!(
                "mkss-cli-metrics-jobs{jobs}-{}.json",
                std::process::id()
            ));
            run(&args(&[
                "compare",
                file.as_str(),
                "--horizon-ms",
                "100",
                "--jobs",
                jobs,
                "--metrics-out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            let body = std::fs::read_to_string(&path).unwrap();
            // The document's keys are emitted in a fixed order, so the
            // slice from "counters" up to "stages" captures exactly the
            // counters and histograms sections.
            let start = body.find("\"counters\"").unwrap();
            let end = body.find("\"stages\"").unwrap();
            documents.push(body[start..end].to_string());
            let _ = std::fs::remove_file(path);
        }
        // Counters commute across workers, so only timing (and the jobs
        // meta entry) may differ between worker counts.
        assert_eq!(documents[0], documents[1]);
    }

    #[test]
    fn top_streams_and_metrics_pretty_prints() {
        let sock =
            std::env::temp_dir().join(format!("mkss-cli-top-test-{}.sock", std::process::id()));
        let server =
            mkss_serve::Server::bind_unix(&sock, mkss_serve::ServerConfig::default()).unwrap();
        let sock_arg = sock.to_str().unwrap();

        let out = run(&args(&[
            "top",
            "--socket",
            sock_arg,
            "--interval-ms",
            "10",
            "--frames",
            "2",
            "--plain",
        ]))
        .unwrap();
        assert_eq!(out, "watched 2 frames from daemon (0 restarts)\n");

        let pretty = run(&args(&["metrics", "--socket", sock_arg])).unwrap();
        assert!(
            pretty.contains("mkss-top · mkss-serve @ daemon"),
            "{pretty}"
        );
        assert!(pretty.contains("serve_watches"), "{pretty}");
        assert!(!pretty.contains('\x1b'), "metrics output is plain");

        let json = run(&args(&["metrics", "--socket", sock_arg, "--json"])).unwrap();
        assert!(json.starts_with("{\"meta\":"), "{json}");
        assert!(json.trim_end().ends_with('}'), "{json}");
        assert!(json.contains("\"counters\""), "{json}");

        server.shutdown();
        let _ = std::fs::remove_file(&sock);
    }

    #[test]
    fn top_and_metrics_flag_errors() {
        assert!(run(&args(&["top"])).is_err(), "endpoint is required");
        assert!(run(&args(&["metrics"])).is_err(), "endpoint is required");
        assert!(run(&args(&["top", "--socket", "/tmp/x", "--tcp", "y"])).is_err());
        assert!(run(&args(&["top", "--socket", "/tmp/x", "--frames", "no"])).is_err());
        assert!(run(&args(&["metrics", "--socket", "/no/such/daemon.sock"])).is_err());
    }

    #[test]
    fn generate_roundtrips() {
        let out = run(&args(&["generate", "--util", "0.4", "--seed", "11"])).unwrap();
        let ts = format::parse_task_set(&out).unwrap();
        assert!((ts.mk_utilization() - 0.4).abs() < 0.01);
    }

    #[test]
    fn generate_rejects_empty_task_count_ranges() {
        for range in ["7..3", "0..0", "0..4"] {
            let err = run(&args(&["generate", "--tasks", range])).unwrap_err();
            assert!(
                matches!(&err, CliError::Input(msg) if msg.contains("1 <= MIN <= MAX")),
                "--tasks {range}: {err}"
            );
        }
        let out = run(&args(&["generate", "--util", "0.3", "--tasks", "3..3"])).unwrap();
        assert_eq!(format::parse_task_set(&out).unwrap().len(), 3);
    }

    #[test]
    fn flag_errors_are_reported() {
        let file = sample_file();
        assert!(run(&args(&["simulate", file.as_str(), "--policy", "nope"])).is_err());
        assert!(run(&args(&["simulate", file.as_str(), "--permanent", "weird"])).is_err());
        assert!(run(&args(&["generate", "--util", "0"])).is_err());
        assert!(run(&args(&["analyze", "/no/such/file.json"])).is_err());
    }
}
