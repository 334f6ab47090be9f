//! The closed event catalog: every counter and histogram the engine or the
//! harness can emit, with stable snake_case names used by the exporters.

/// A named monotonic counter.
///
/// The discriminant doubles as the storage index ([`CounterId::index`]), so
/// the registry backs the whole catalog with a flat `[AtomicU64; COUNT]`
/// per shard. Names are stable export keys; renaming one is a breaking
/// change for downstream metric consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CounterId {
    /// Primary jobs released (one per task activation).
    JobsReleased,
    /// Jobs classified mandatory by the (m,k) pattern at release.
    MandatoryReleased,
    /// Optional jobs admitted for execution by the policy.
    OptionalSelected,
    /// Optional jobs skipped at release (policy declined them).
    OptionalSkipped,
    /// Admitted optional jobs later abandoned as infeasible.
    OptionalAbandoned,
    /// Optional jobs that ran to completion.
    OptionalExecuted,
    /// Backup copies released on the spare processor.
    BackupsReleased,
    /// Backup copies whose release was postponed (`r̃ = r + θ`, θ > 0).
    BackupsPostponed,
    /// Backup copies canceled because the sibling finished fault-free.
    BackupsCanceled,
    /// Backup copies that ran to completion.
    BackupsCompleted,
    /// Faults injected, transient and permanent combined.
    FaultsInjected,
    /// Transient faults sampled onto completing copies.
    TransientFaults,
    /// Permanent processor faults applied.
    PermanentFaults,
    /// Jobs met *because* a backup covered a failed or lost main copy.
    FaultsRecovered,
    /// Pending copies lost to a permanent processor fault.
    CopiesLost,
    /// Jobs that met their deadline.
    JobsMet,
    /// Jobs that missed their deadline (or were skipped/abandoned).
    JobsMissed,
    /// (m,k) windows that newly entered violation.
    MkViolations,
    /// Event-loop iterations aborted because the next event time did not
    /// advance the clock. Always zero in a healthy run: the engine guards
    /// against a zero-length step (which would spin a release build
    /// forever) by flagging the stall and ending the run instead.
    EngineStalls,
    /// Requests accepted by the `mkss-serve` daemon (scheduled onto the
    /// worker pool; includes requests that later fail during execution).
    ServeRequests,
    /// Requests shed by the daemon's backpressure: the bounded job queue
    /// was full, the client got an `overloaded` error.
    ServeRejected,
    /// Request lines the daemon could not parse (malformed JSON, unknown
    /// op, oversized line).
    ServeProtocolErrors,
    /// `simulate` requests completed by the daemon's worker pool.
    ServeOpSimulate,
    /// `compare` requests completed by the daemon's worker pool.
    ServeOpCompare,
    /// `sweep` requests completed by the daemon's worker pool.
    ServeOpSweep,
    /// `watch` subscriptions accepted by the daemon (one per session).
    ServeWatches,
}

impl CounterId {
    /// Number of counters in the catalog.
    pub const COUNT: usize = 26;

    /// Every counter, in storage/export order.
    pub const ALL: [CounterId; Self::COUNT] = [
        CounterId::JobsReleased,
        CounterId::MandatoryReleased,
        CounterId::OptionalSelected,
        CounterId::OptionalSkipped,
        CounterId::OptionalAbandoned,
        CounterId::OptionalExecuted,
        CounterId::BackupsReleased,
        CounterId::BackupsPostponed,
        CounterId::BackupsCanceled,
        CounterId::BackupsCompleted,
        CounterId::FaultsInjected,
        CounterId::TransientFaults,
        CounterId::PermanentFaults,
        CounterId::FaultsRecovered,
        CounterId::CopiesLost,
        CounterId::JobsMet,
        CounterId::JobsMissed,
        CounterId::MkViolations,
        CounterId::EngineStalls,
        CounterId::ServeRequests,
        CounterId::ServeRejected,
        CounterId::ServeProtocolErrors,
        CounterId::ServeOpSimulate,
        CounterId::ServeOpCompare,
        CounterId::ServeOpSweep,
        CounterId::ServeWatches,
    ];

    /// Storage index of this counter (its position in [`CounterId::ALL`]).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case export name.
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::JobsReleased => "jobs_released",
            CounterId::MandatoryReleased => "mandatory_released",
            CounterId::OptionalSelected => "optional_selected",
            CounterId::OptionalSkipped => "optional_skipped",
            CounterId::OptionalAbandoned => "optional_abandoned",
            CounterId::OptionalExecuted => "optional_executed",
            CounterId::BackupsReleased => "backups_released",
            CounterId::BackupsPostponed => "backups_postponed",
            CounterId::BackupsCanceled => "backups_canceled",
            CounterId::BackupsCompleted => "backups_completed",
            CounterId::FaultsInjected => "faults_injected",
            CounterId::TransientFaults => "transient_faults",
            CounterId::PermanentFaults => "permanent_faults",
            CounterId::FaultsRecovered => "faults_recovered",
            CounterId::CopiesLost => "copies_lost",
            CounterId::JobsMet => "jobs_met",
            CounterId::JobsMissed => "jobs_missed",
            CounterId::MkViolations => "mk_violations",
            CounterId::EngineStalls => "engine_stalls",
            CounterId::ServeRequests => "serve_requests",
            CounterId::ServeRejected => "serve_rejected",
            CounterId::ServeProtocolErrors => "serve_protocol_errors",
            CounterId::ServeOpSimulate => "serve_op_simulate",
            CounterId::ServeOpCompare => "serve_op_compare",
            CounterId::ServeOpSweep => "serve_op_sweep",
            CounterId::ServeWatches => "serve_watches",
        }
    }
}

/// A named fixed-bucket histogram.
///
/// Buckets are `value <= bound` for each bound in [`HistogramId::bounds`],
/// plus one trailing overflow bucket — [`HistogramId::BUCKETS`] cells total.
/// Bounds are fixed at compile time so shards can merge without
/// renegotiating bucket layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HistogramId {
    /// (m,k) distance-to-violation observed at each job resolution: how
    /// many further misses the current window tolerates before violating
    /// (0 = deeply red, every remaining job is do-or-die).
    MkDistance,
    /// Backup release postponement θ in whole milliseconds (rounded up),
    /// observed once per postponed backup.
    BackupDelayMs,
    /// `mkss-serve` job-queue depth observed at each accepted submit
    /// (after the enqueue) — the daemon's backpressure signal.
    ServeQueueDepth,
    /// Wall-clock latency of each pooled `mkss-serve` op (simulate,
    /// compare, sweep) in microseconds, from accept to response write.
    /// Recorded by the connection layer into the daemon-global registry
    /// only — never into per-request registries, which stay byte-stable.
    ServeOpLatencyUs,
}

impl HistogramId {
    /// Number of histograms in the catalog.
    pub const COUNT: usize = 4;

    /// Cells per histogram: the bounded buckets plus one overflow bucket.
    pub const BUCKETS: usize = 8;

    /// Every histogram, in storage/export order.
    pub const ALL: [HistogramId; Self::COUNT] = [
        HistogramId::MkDistance,
        HistogramId::BackupDelayMs,
        HistogramId::ServeQueueDepth,
        HistogramId::ServeOpLatencyUs,
    ];

    /// Storage index of this histogram (its position in [`HistogramId::ALL`]).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case export name.
    pub const fn name(self) -> &'static str {
        match self {
            HistogramId::MkDistance => "mk_distance",
            HistogramId::BackupDelayMs => "backup_delay_ms",
            HistogramId::ServeQueueDepth => "serve_queue_depth",
            HistogramId::ServeOpLatencyUs => "serve_op_latency_us",
        }
    }

    /// Inclusive upper bounds of the bounded buckets (the final storage
    /// cell counts values above the last bound).
    pub const fn bounds(self) -> &'static [u64; Self::BUCKETS - 1] {
        match self {
            HistogramId::MkDistance => &[0, 1, 2, 3, 4, 6, 8],
            HistogramId::BackupDelayMs => &[0, 1, 2, 4, 8, 16, 32],
            HistogramId::ServeQueueDepth => &[0, 1, 2, 4, 8, 16, 32],
            HistogramId::ServeOpLatencyUs => &[50, 100, 250, 500, 1000, 5000, 25000],
        }
    }

    /// Storage cell for `value`: first bucket whose bound contains it, else
    /// the overflow cell.
    #[inline]
    pub fn bucket_of(self, value: u64) -> usize {
        let bounds = self.bounds();
        match bounds.iter().position(|&b| value <= b) {
            Some(i) => i,
            None => bounds.len(),
        }
    }

    /// Estimate the `q`-th percentile (`1..=100`) from stored bucket
    /// counts, at bucket resolution: the bound of the first bucket whose
    /// cumulative count reaches rank `ceil(total·q/100)`, or
    /// [`Percentile::Over`] the last bound when the rank lands in the
    /// overflow cell. `None` when the histogram is empty.
    ///
    /// Shared by the `mkss-top` frame renderer and the `mkss-cli metrics`
    /// pretty printer, so both show identical p50/p90/p99 summaries.
    pub fn percentile(self, counts: &[u64], q: u64) -> Option<Percentile> {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (total * q.clamp(1, 100)).div_ceil(100).max(1);
        let mut cumulative = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return Some(match self.bounds().get(i) {
                    Some(&bound) => Percentile::AtMost(bound),
                    None => Percentile::Over(self.bounds()[Self::BUCKETS - 2]),
                });
            }
        }
        None
    }
}

/// A percentile estimate read off fixed histogram buckets — bucket
/// resolution only, so it names a bound rather than an exact value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: at-most/overflow is the complete case split for a bounded-bucket estimate"
)]
pub enum Percentile {
    /// The percentile falls inside a bounded bucket: `value <= bound`.
    AtMost(u64),
    /// The percentile falls in the overflow cell: `value > bound` (the
    /// histogram's last bound).
    Over(u64),
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Percentile::AtMost(bound) => write!(f, "<={bound}"),
            Percentile::Over(bound) => write!(f, ">{bound}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_match_catalog_order() {
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{} out of order", c.name());
        }
    }

    #[test]
    fn counter_names_are_unique_snake_case() {
        #[expect(
            clippy::disallowed_types,
            reason = "test-only uniqueness check; iteration order is never observed"
        )]
        let mut seen = std::collections::HashSet::new();
        for c in CounterId::ALL {
            let name = c.name();
            assert!(seen.insert(name), "duplicate counter name {name}");
            assert!(
                name.chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'),
                "non-snake-case counter name {name}"
            );
        }
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive() {
        let h = HistogramId::BackupDelayMs;
        assert_eq!(h.bucket_of(0), 0);
        assert_eq!(h.bucket_of(1), 1);
        assert_eq!(h.bucket_of(2), 2);
        assert_eq!(h.bucket_of(3), 3); // first bound >= 3 is 4
        assert_eq!(h.bucket_of(4), 3);
        assert_eq!(h.bucket_of(32), HistogramId::BUCKETS - 2);
        assert_eq!(h.bucket_of(33), HistogramId::BUCKETS - 1); // overflow
        assert_eq!(h.bucket_of(u64::MAX), HistogramId::BUCKETS - 1);
    }

    #[test]
    fn percentiles_walk_the_cumulative_distribution() {
        let h = HistogramId::BackupDelayMs; // bounds [0,1,2,4,8,16,32]
        let counts = [5, 3, 2, 0, 0, 0, 0, 0]; // 10 samples, all <= 2
        assert_eq!(h.percentile(&counts, 50), Some(Percentile::AtMost(0)));
        assert_eq!(h.percentile(&counts, 80), Some(Percentile::AtMost(1)));
        assert_eq!(h.percentile(&counts, 99), Some(Percentile::AtMost(2)));
        assert_eq!(h.percentile(&counts, 100), Some(Percentile::AtMost(2)));
    }

    #[test]
    fn percentile_overflow_and_empty_cases() {
        let h = HistogramId::BackupDelayMs;
        assert_eq!(h.percentile(&[0; 8], 50), None, "empty histogram");
        let overflow = [0, 0, 0, 0, 0, 0, 0, 4];
        assert_eq!(h.percentile(&overflow, 50), Some(Percentile::Over(32)));
        assert_eq!(Percentile::Over(32).to_string(), ">32");
        assert_eq!(Percentile::AtMost(4).to_string(), "<=4");
        let single = [0, 1, 0, 0, 0, 0, 0, 0];
        assert_eq!(h.percentile(&single, 1), Some(Percentile::AtMost(1)));
    }

    #[test]
    fn histogram_bounds_are_strictly_increasing() {
        for h in HistogramId::ALL {
            let bounds = h.bounds();
            for pair in bounds.windows(2) {
                assert!(pair[0] < pair[1], "{} bounds not increasing", h.name());
            }
        }
    }
}
