//! The frame model: everything one dashboard refresh displays, computed
//! **deterministically** from a pair of metrics samples.
//!
//! No wall clock enters here — rates divide counter deltas by the
//! difference of the *daemon's* `uptime_ms` readings, so the same two
//! samples always produce the same [`Frame`], which is what makes the
//! golden-frame render tests possible.

use mkss_obs::{CounterId, HistogramId, MetricsSnapshot, Percentile, Registry};

/// Daemon identity and pool gauges carried in a sample's `meta` block.
///
/// Fields absent on the wire parse as zero / empty, so newer dashboards
/// tolerate older daemons.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampleMeta {
    /// Producing binary (`mkss-serve` for daemon docs).
    pub binary: String,
    /// Endpoint tag (`daemon` today).
    pub endpoint: String,
    /// Monotonic publication sequence number.
    pub seq: u64,
    /// Milliseconds since the daemon started — the dashboard's clock.
    pub uptime_ms: u64,
    /// Run slots: simulation requests the daemon executes at once.
    pub workers: u64,
    /// Run slots busy when the sample was taken.
    pub busy_workers: u64,
    /// Waiting places for requests that find every run slot busy.
    pub queue: u64,
    /// Requests waiting for a run slot when the sample was taken.
    pub queue_depth: u64,
}

/// One metrics observation: a cumulative snapshot plus its meta block.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Cumulative counter/histogram totals at this instant.
    pub snapshot: MetricsSnapshot,
    /// Who produced it and when (in daemon time).
    pub meta: SampleMeta,
}

impl Sample {
    /// Snapshot a live in-process registry — the attach point for
    /// watching a sweep or bench run without a daemon. The caller
    /// supplies `uptime_ms` (e.g. a harness stopwatch) and a sequence
    /// number; pool gauges stay zero.
    pub fn from_registry(registry: &Registry, uptime_ms: u64, seq: u64) -> Sample {
        Sample {
            snapshot: registry.snapshot(),
            meta: SampleMeta {
                binary: "in-process".to_string(),
                endpoint: "registry".to_string(),
                seq,
                uptime_ms,
                ..SampleMeta::default()
            },
        }
    }
}

/// Character cells in a full histogram bar.
pub const BAR_WIDTH: usize = 24;

/// One counter line: cumulative total plus, when a baseline exists, the
/// delta since it and the per-second rate.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRow {
    /// Stable catalog name.
    pub name: &'static str,
    /// Cumulative total.
    pub total: u64,
    /// Change since the previous sample (`None` without a baseline).
    pub delta: Option<u64>,
    /// Events per second over the sampled span (`None` without a
    /// baseline or when no daemon time elapsed between samples).
    pub rate: Option<f64>,
}

/// One histogram bucket: label, counts, and a pre-scaled bar length.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketRow {
    /// `<=N` for bounded buckets, `over` for the overflow cell.
    pub label: String,
    /// Cumulative count.
    pub count: u64,
    /// Change since the previous sample (`None` without a baseline).
    pub delta: Option<u64>,
    /// Bar cells (`0..=BAR_WIDTH`), scaled to the histogram's fullest
    /// bucket; non-empty buckets always get at least one cell.
    pub bar: usize,
}

/// One histogram block: totals plus its bucket rows.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramBlock {
    /// Stable catalog name.
    pub name: &'static str,
    /// Cumulative observation count across buckets.
    pub total: u64,
    /// Observations since the previous sample (`None` without baseline).
    pub delta: Option<u64>,
    /// p50/p90/p99 estimates read off the fixed buckets, in that order;
    /// empty for a histogram with no observations.
    pub percentiles: Vec<(u64, Percentile)>,
    /// Bucket rows in bound order, overflow last.
    pub buckets: Vec<BucketRow>,
}

/// One per-op throughput entry for the ops summary line.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRate {
    /// Display name (`simulate`, `compare`, `sweep`, `requests`).
    pub name: &'static str,
    /// Cumulative total of the backing counter.
    pub total: u64,
    /// Completions per second (`None` without a baseline).
    pub rate: Option<f64>,
}

/// Everything one refresh displays, in display order.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Identity/gauges of the newer sample.
    pub meta: SampleMeta,
    /// Daemon milliseconds between the two samples (`None` without a
    /// baseline).
    pub elapsed_ms: Option<u64>,
    /// The newer sample could not have evolved from the baseline (the
    /// daemon restarted or the session reconnected elsewhere); deltas and
    /// rates are suppressed for this frame.
    pub restarted: bool,
    /// Per-op throughput entries.
    pub ops: Vec<OpRate>,
    /// Every catalog counter in export order.
    pub counters: Vec<CounterRow>,
    /// Every catalog histogram in export order.
    pub histograms: Vec<HistogramBlock>,
}

impl Frame {
    /// Build a frame from the newest sample and, when available, the one
    /// before it.
    ///
    /// Restart awareness: when the newer sample's `uptime_ms` went
    /// backwards or any cell shrank (`is_progression_of` fails), the
    /// baseline is discarded — the frame shows totals only and is
    /// flagged [`Frame::restarted`] instead of rendering nonsense
    /// negative rates.
    pub fn build(prev: Option<&Sample>, now: &Sample) -> Frame {
        let restarted = prev.is_some_and(|p| {
            now.meta.uptime_ms < p.meta.uptime_ms || !now.snapshot.is_progression_of(&p.snapshot)
        });
        let base = if restarted { None } else { prev };
        let elapsed_ms = base.map(|p| now.meta.uptime_ms.saturating_sub(p.meta.uptime_ms));
        let delta = base.map(|p| now.snapshot.delta(&p.snapshot));
        let rate_of = |d: u64| -> Option<f64> {
            match elapsed_ms {
                Some(ms) if ms > 0 => Some(d as f64 * 1000.0 / ms as f64),
                _ => None,
            }
        };

        let counters = CounterId::ALL
            .iter()
            .map(|&c| {
                let d = delta.as_ref().map(|s| s.counter(c));
                CounterRow {
                    name: c.name(),
                    total: now.snapshot.counter(c),
                    delta: d,
                    rate: d.and_then(&rate_of),
                }
            })
            .collect();

        let ops = [
            ("simulate", CounterId::ServeOpSimulate),
            ("compare", CounterId::ServeOpCompare),
            ("sweep", CounterId::ServeOpSweep),
            ("requests", CounterId::ServeRequests),
        ]
        .iter()
        .map(|&(name, c)| OpRate {
            name,
            total: now.snapshot.counter(c),
            rate: delta.as_ref().map(|s| s.counter(c)).and_then(&rate_of),
        })
        .collect();

        let histograms = HistogramId::ALL
            .iter()
            .map(|&h| {
                let counts = now.snapshot.histogram(h);
                let deltas = delta.as_ref().map(|s| s.histogram(h).to_vec());
                let max = counts.iter().copied().max().unwrap_or(0);
                let buckets = counts
                    .iter()
                    .enumerate()
                    .map(|(i, &count)| BucketRow {
                        label: match h.bounds().get(i) {
                            Some(bound) => format!("<={bound}"),
                            None => "over".to_string(),
                        },
                        count,
                        delta: deltas.as_ref().map(|d| d[i]),
                        bar: bar_cells(count, max),
                    })
                    .collect();
                HistogramBlock {
                    name: h.name(),
                    total: counts.iter().sum(),
                    delta: deltas.as_ref().map(|d| d.iter().sum()),
                    percentiles: [50, 90, 99]
                        .iter()
                        .filter_map(|&q| h.percentile(counts, q).map(|p| (q, p)))
                        .collect(),
                    buckets,
                }
            })
            .collect();

        Frame {
            meta: now.meta.clone(),
            elapsed_ms,
            restarted,
            ops,
            counters,
            histograms,
        }
    }
}

/// Integer bar scaling: proportional to the fullest bucket, with any
/// non-empty bucket guaranteed at least one cell.
fn bar_cells(count: u64, max: u64) -> usize {
    if count == 0 || max == 0 {
        return 0;
    }
    (((count as u128 * BAR_WIDTH as u128) / max as u128) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample(met: u64, uptime_ms: u64, seq: u64) -> Sample {
        let registry = Arc::new(Registry::new(1));
        let h = registry.handle_at(0);
        h.incr(CounterId::JobsMet, met);
        h.incr(CounterId::ServeOpSimulate, met / 2);
        for d in 0..met.min(10) {
            h.observe(HistogramId::MkDistance, d);
        }
        let mut s = Sample::from_registry(&registry, uptime_ms, seq);
        s.meta.workers = 4;
        s.meta.busy_workers = 1;
        s.meta.queue = 64;
        s
    }

    #[test]
    fn first_frame_has_totals_but_no_deltas() {
        let frame = Frame::build(None, &sample(6, 1000, 0));
        assert!(!frame.restarted);
        assert_eq!(frame.elapsed_ms, None);
        let met = frame
            .counters
            .iter()
            .find(|c| c.name == "jobs_met")
            .expect("row");
        assert_eq!((met.total, met.delta, met.rate), (6, None, None));
    }

    #[test]
    fn rates_divide_deltas_by_daemon_time() {
        let prev = sample(6, 1000, 0);
        let now = sample(10, 3000, 1);
        let frame = Frame::build(Some(&prev), &now);
        assert_eq!(frame.elapsed_ms, Some(2000));
        let met = frame
            .counters
            .iter()
            .find(|c| c.name == "jobs_met")
            .expect("row");
        assert_eq!(met.delta, Some(4));
        assert_eq!(met.rate, Some(2.0)); // 4 events over 2 s
        let ops = frame.ops.iter().find(|o| o.name == "simulate").expect("op");
        assert_eq!(ops.total, 5);
        assert_eq!(ops.rate, Some(1.0)); // (5-3)/2s
    }

    #[test]
    fn restart_discards_the_baseline() {
        let prev = sample(10, 5000, 7);
        // Fewer events and a smaller uptime: a fresh daemon.
        let now = sample(2, 100, 0);
        let frame = Frame::build(Some(&prev), &now);
        assert!(frame.restarted);
        assert_eq!(frame.elapsed_ms, None);
        assert!(frame.counters.iter().all(|c| c.delta.is_none()));
    }

    #[test]
    fn zero_elapsed_suppresses_rates_but_keeps_deltas() {
        let prev = sample(6, 1000, 0);
        let now = sample(10, 1000, 1);
        let frame = Frame::build(Some(&prev), &now);
        let met = frame
            .counters
            .iter()
            .find(|c| c.name == "jobs_met")
            .expect("row");
        assert_eq!(met.delta, Some(4));
        assert_eq!(met.rate, None);
    }

    #[test]
    fn bars_scale_to_the_fullest_bucket() {
        assert_eq!(bar_cells(0, 100), 0);
        assert_eq!(bar_cells(100, 100), BAR_WIDTH);
        assert_eq!(bar_cells(50, 100), BAR_WIDTH / 2);
        assert_eq!(bar_cells(1, 1_000_000), 1, "non-empty floors at one cell");
        assert_eq!(bar_cells(5, 0), 0, "all-zero histogram has no bars");
    }

    #[test]
    fn frames_are_deterministic_from_the_sample_pair() {
        let prev = sample(6, 1000, 0);
        let now = sample(10, 3000, 1);
        assert_eq!(
            Frame::build(Some(&prev), &now),
            Frame::build(Some(&prev), &now)
        );
    }
}
