//! Minimal wall-clock span timing for harness stages.

use std::time::Instant;

/// A started wall-clock timer.
///
/// Stage timings are machine-dependent by nature; everything measured with
/// this type must flow into fields that `RunStats::strip_timing` zeroes so
/// determinism checks can exclude them.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[expect(
        clippy::disallowed_methods,
        reason = "Stopwatch is the harness timing primitive; readings go to stderr/stage stats, never results"
    )]
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Whole microseconds elapsed since [`Stopwatch::start`], saturating
    /// at `u64::MAX`. Integer-valued so readings can feed histograms
    /// (e.g. `serve_op_latency_us`) without float rounding drift.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Whole milliseconds elapsed since [`Stopwatch::start`], rounded up.
    ///
    /// The integer counterpart of [`Stopwatch::elapsed_ms`]: use this for
    /// anything that feeds a histogram or an integer wire field (daemon
    /// uptime, latency buckets), so no float round-trip sits between the
    /// clock and the stored value.
    pub fn elapsed_ms_ceil(&self) -> u64 {
        self.elapsed_us().div_ceil(1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let watch = Stopwatch::start();
        let first = watch.elapsed_ms();
        let second = watch.elapsed_ms();
        assert!(first >= 0.0);
        assert!(second >= first);
    }

    #[test]
    fn millisecond_ceiling_rounds_up_from_microseconds() {
        let watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let us = watch.elapsed_us();
        let ms = watch.elapsed_ms_ceil();
        assert!(ms >= 1, "2ms sleep reads as at least 1ms");
        // Ceiling of an earlier reading never exceeds a later reading's.
        assert!(ms >= us.div_ceil(1000), "{ms} < ceil({us}/1000)");
    }

    #[test]
    fn microsecond_readings_are_monotonic() {
        let watch = Stopwatch::start();
        let first = watch.elapsed_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let second = watch.elapsed_us();
        assert!(second > first, "{second} <= {first}");
    }
}
