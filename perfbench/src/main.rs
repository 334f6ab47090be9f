//! End-to-end and per-layer benchmark of the mkss stack.
//!
//! ```text
//! perfbench --workload fig6|engine|daemon --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload sets itself up several times (the median is `setup_s`),
//! then runs its operation back to back for `--seconds`, then checks the
//! outputs against an independent path through the program. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end figures;
//! with `--trace 1` the run records a span around every call into a layer
//! and the metrics are the per-layer figures instead.
//!
//! Every time reported is scaled to a reference host speed (see
//! `calib`): on a shared host the raw times drift with the neighbours'
//! load by more than any change worth catching.

mod calib;
mod daemon;
mod engine;
mod fig6;
mod stats;

use std::process::ExitCode;

use mkss_obs::Stopwatch;

use calib::{Calibrator, Kernel};
use stats::{median, percentile, Layers};

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it completed, in milliseconds since the window opened.
    pub end_ms: f64,
    /// How long it took, in milliseconds.
    pub took_ms: f64,
}

/// What one measured window produced.
pub struct Run {
    /// Every operation that completed with a correct result.
    pub samples: Vec<Sample>,
    /// Length of the measured window in milliseconds (last operation
    /// included).
    pub wall_ms: f64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// Problems found by the checks after the window; empty when correct.
    pub errors: Vec<String>,
    /// Per-layer span totals; filled only by traced runs.
    pub layers: Layers,
    /// Host-speed samples taken through the window.
    pub calib: Calibrator,
}

impl Run {
    pub fn new(layers: Layers, kernel: Kernel) -> Run {
        Run {
            samples: Vec::new(),
            wall_ms: 0.0,
            failed: 0,
            errors: Vec::new(),
            layers,
            calib: Calibrator::new(kernel),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// Runs `setup` `reps` times and returns the median time in seconds,
/// each repetition scaled by the `Dispatch` kernel timed just before and
/// after it (set-ups are mostly generation and policy builds, which that
/// kernel follows), with the state of the last repetition. Earlier states
/// are handed to `teardown` untimed.
pub fn timed_setups<S>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(f64, S), String> {
    let mut calib = Calibrator::new(Kernel::Dispatch);
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for rep in 0..reps {
        if let Some(previous) = state.take() {
            teardown(previous);
        }
        let before = calib.sample(0.0);
        let watch = Stopwatch::start();
        state = Some(setup(rep)?);
        let took_s = watch.elapsed_ms() / 1e3;
        let after = calib.sample(0.0);
        times.push(took_s * calib.scale_between(before, after));
    }
    eprintln!("set-up times (s): {times:?}");
    let state = state.ok_or("no set-up repetition ran")?;
    Ok((median(&mut times), state))
}

/// Runs `f`, or returns `None` if it panicked. On rare inputs the
/// program panics instead of returning an error: the all-jobs
/// response-time analysis behind the `dp` policy overflows the clock when
/// a set's utilization exceeds 1 and its pattern hyperperiod nears
/// `u64::MAX` ticks. Workloads leave such inputs out, the same ones for
/// the same seed, rather than fail the run on them.
pub fn unless_panic<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// 64-bit mix (SplitMix64 finalizer): independent per-operation seeds
/// from the run seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let window_ms = args.seconds * 1e3;
    let outcome = match args.workload.as_str() {
        "fig6" => fig6::run(args.seed, window_ms, args.trace),
        "engine" => engine::run(args.seed, window_ms, args.trace),
        "daemon" => daemon::run(args.seed, window_ms, args.trace),
        other => Err(format!(
            "unknown workload '{other}' (expected fig6, engine or daemon)"
        )),
    };
    let (setup_s, run) = match outcome {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for error in &run.errors {
        eprintln!("perfbench: check failed: {error}");
    }
    let attempted = run.samples.len() as u64 + run.failed;
    if attempted == 0 {
        eprintln!("perfbench: no operation completed in the window");
        return ExitCode::FAILURE;
    }

    let figures: Vec<(&str, f64, &str)> = if args.trace {
        // Span totals only exist for the whole run, so one scale for all.
        let scale = run.calib.scale();
        let l = &run.layers;
        let unattributed_ns = (l.op.ns - l.attributed_ns) / l.op.units;
        vec![
            ("generate_us_per_set", l.generate.per_unit() / 1e3, "us"),
            ("build_us_per_policy", l.build.per_unit() / 1e3, "us"),
            ("engine_ns_per_job", l.engine.ns / l.jobs, "ns"),
            ("report_us_per_op", l.report.per_unit() / 1e3, "us"),
            ("unattributed_us_per_op", unattributed_ns / 1e3, "us"),
        ]
        .into_iter()
        .map(|(name, value, unit)| (name, scale * value, unit))
        .collect()
    } else {
        let mut scaled: Vec<f64> = run
            .samples
            .iter()
            .map(|s| s.took_ms * run.calib.scale_at(s.end_ms - s.took_ms / 2.0))
            .collect();
        scaled.sort_by(f64::total_cmp);
        let busy_s: f64 = scaled.iter().sum::<f64>() / 1e3;
        eprintln!(
            "window: {} ops in {:.3} s; reference kernel median {:.4} ms ({} samples)",
            run.samples.len(),
            run.wall_ms / 1e3,
            run.calib.median_ms(),
            run.calib.len()
        );
        vec![
            ("p50_ms", percentile(&scaled, 0.5), "ms"),
            ("p90_ms", percentile(&scaled, 0.9), "ms"),
            ("ops_per_s", scaled.len() as f64 / busy_s, "1/s"),
            ("setup_s", setup_s, "s"),
        ]
    };
    if let Some((name, value, _)) = figures.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: {name} is {value}");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<String> = figures
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.errors.is_empty() && run.failed == 0,
        run.failed,
        metrics.join(", "),
    );
    ExitCode::SUCCESS
}
