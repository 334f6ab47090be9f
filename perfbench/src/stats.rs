//! Order statistics and per-layer span totals.

use mkss_obs::Stopwatch;

/// Linear-interpolated quantile `q` of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Total span time of one layer and the units of work it covered.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    /// Summed span time, in nanoseconds.
    pub ns: f64,
    /// Units of work (sets, builds, operations) inside those spans.
    pub units: f64,
}

impl Acc {
    /// Adds one span of `ns` covering `units` units of work.
    pub fn add(&mut self, ns: f64, units: f64) {
        self.ns += ns;
        self.units += units;
    }

    /// Times `f` as one span covering one unit.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let watch = Stopwatch::start();
        let value = f();
        self.add(watch.elapsed_ms() * 1e6, 1.0);
        value
    }

    /// Mean span time per unit, in nanoseconds.
    pub fn per_unit(&self) -> f64 {
        self.ns / self.units
    }
}

/// Span totals of a traced run, one per layer of the stack.
#[derive(Debug, Default)]
pub struct Layers {
    /// Workload generation, per schedulable task set produced.
    pub generate: Acc,
    /// Policy build (RTA and postponement analysis), per build.
    pub build: Acc,
    /// Engine event loop, per simulation.
    pub engine: Acc,
    /// Released jobs processed inside the engine spans.
    pub jobs: f64,
    /// Report fold and encoding, per operation.
    pub report: Acc,
    /// Whole operations the spans above were taken in.
    pub op: Acc,
    /// Part of `op.ns` covered by the spans above.
    pub attributed_ns: f64,
}
