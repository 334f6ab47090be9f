//! Sharded counter/histogram storage and its deterministic snapshot.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::event::{CounterId, HistogramId};
use crate::recorder::Recorder;

/// One shard: a flat atomic cell per catalog entry.
struct Shard {
    counters: [AtomicU64; CounterId::COUNT],
    histograms: [[AtomicU64; HistogramId::BUCKETS]; HistogramId::COUNT],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

/// Lock-free-ish metric storage: a fixed set of shards, each a flat array
/// of `AtomicU64` indexed by the event catalog.
///
/// Writers grab a [`RecorderHandle`] pinned to one shard and bump cells
/// with relaxed `fetch_add`; with one handle per worker thread (the bench
/// harness sizes the registry to `par::effective_jobs`) there is no
/// cross-thread contention at all. Because addition commutes,
/// [`Registry::snapshot`] — a fold over shards in catalog order — yields
/// identical totals for every `--jobs` value and every interleaving.
pub struct Registry {
    shards: Box<[Shard]>,
    next: AtomicUsize,
}

impl Registry {
    /// Maximum shard count (handles wrap around beyond it).
    pub const MAX_SHARDS: usize = 64;

    /// Create a registry with `shards` shards (clamped to `1..=64`).
    pub fn new(shards: usize) -> Registry {
        let n = shards.clamp(1, Self::MAX_SHARDS);
        Registry {
            shards: (0..n).map(|_| Shard::new()).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A handle pinned to shard `shard % shard_count()`.
    pub fn handle_at(self: &Arc<Self>, shard: usize) -> RecorderHandle {
        RecorderHandle {
            registry: Arc::clone(self),
            shard: shard % self.shards.len(),
        }
    }

    /// A handle on the next shard in round-robin order — convenient when
    /// callers don't track worker indices themselves.
    pub fn handle(self: &Arc<Self>) -> RecorderHandle {
        // mkss-lint: ordering — round-robin shard pick; any interleaving spreads load equally well
        let shard = self.next.fetch_add(1, Ordering::Relaxed);
        self.handle_at(shard)
    }

    /// Sum every shard into a deterministic, plain-data snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::empty();
        for shard in self.shards.iter() {
            for (total, cell) in snapshot.counters.iter_mut().zip(shard.counters.iter()) {
                // mkss-lint: ordering — monotonic telemetry counters; a snapshot is advisory and tolerates in-flight increments
                *total += cell.load(Ordering::Relaxed);
            }
            for (totals, cells) in snapshot.histograms.iter_mut().zip(shard.histograms.iter()) {
                for (total, cell) in totals.iter_mut().zip(cells.iter()) {
                    // mkss-lint: ordering — same advisory-snapshot argument as the counter loop above
                    *total += cell.load(Ordering::Relaxed);
                }
            }
        }
        snapshot
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// A [`Recorder`] writing into one shard of a shared [`Registry`].
///
/// Besides absorbing whole-run tallies, a handle counts single events
/// directly ([`RecorderHandle::incr`], [`RecorderHandle::observe`]):
/// that is how the daemon counts the requests it serves.
#[derive(Debug, Clone)]
pub struct RecorderHandle {
    registry: Arc<Registry>,
    shard: usize,
}

impl RecorderHandle {
    fn shard(&self) -> &Shard {
        &self.registry.shards[self.shard]
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn incr(&self, counter: CounterId, by: u64) {
        // mkss-lint: ordering — commutative counter bump; nothing reads it for synchronization
        self.shard().counters[counter.index()].fetch_add(by, Ordering::Relaxed);
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn count(&self, counter: CounterId) {
        self.incr(counter, 1);
    }

    /// Record one sample into a histogram.
    #[inline]
    pub fn observe(&self, histogram: HistogramId, value: u64) {
        let bucket = histogram.bucket_of(value);
        // mkss-lint: ordering — commutative bucket bump, same contract as incr
        self.shard().histograms[histogram.index()][bucket].fetch_add(1, Ordering::Relaxed);
    }
}

impl Recorder for RecorderHandle {
    fn absorb(&self, tally: &MetricsSnapshot) {
        let shard = self.shard();
        for (cell, &by) in shard.counters.iter().zip(tally.counters.iter()) {
            if by != 0 {
                // mkss-lint: ordering — commutative per-run fold, one add per non-zero cell; nothing reads it for synchronization
                cell.fetch_add(by, Ordering::Relaxed);
            }
        }
        for (cells, buckets) in shard.histograms.iter().zip(tally.histograms.iter()) {
            for (cell, &by) in cells.iter().zip(buckets.iter()) {
                if by != 0 {
                    // mkss-lint: ordering — same commutative per-run fold as the counter loop above
                    cell.fetch_add(by, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Plain counts in catalog order: a copy of a registry at one instant,
/// or the tally one simulation run accumulates before handing it to its
/// recorder in one [`Recorder::absorb`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; CounterId::COUNT],
    histograms: [[u64; HistogramId::BUCKETS]; HistogramId::COUNT],
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot::empty()
    }
}

impl MetricsSnapshot {
    /// An all-zero snapshot (for documents with stage timings but no
    /// engine events, e.g. the analysis-only schedulability ladder).
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [0; CounterId::COUNT],
            histograms: [[0; HistogramId::BUCKETS]; HistogramId::COUNT],
        }
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn incr(&mut self, counter: CounterId, by: u64) {
        self.counters[counter.index()] += by;
    }

    /// Count one sample into a histogram, bucketed exactly as
    /// [`RecorderHandle::observe`] buckets it.
    #[inline]
    pub fn observe(&mut self, histogram: HistogramId, value: u64) {
        self.histograms[histogram.index()][histogram.bucket_of(value)] += 1;
    }

    /// Value of one counter.
    pub fn counter(&self, counter: CounterId) -> u64 {
        self.counters[counter.index()]
    }

    /// Bucket counts of one histogram (bounded buckets then overflow).
    pub fn histogram(&self, histogram: HistogramId) -> &[u64] {
        &self.histograms[histogram.index()]
    }

    /// Iterate `(name, value)` over all counters in catalog order.
    pub fn iter_counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterId::ALL.iter().map(|&c| (c.name(), self.counter(c)))
    }

    /// True when every cell is zero.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|&v| v == 0)
            && self.histograms.iter().all(|h| h.iter().all(|&v| v == 0))
    }

    /// The change since `earlier`: cell-by-cell saturating difference.
    ///
    /// This is what makes a live [`Registry`] *separable mid-run*: take a
    /// snapshot before a unit of work and one after, and the delta is that
    /// unit's contribution even though the registry keeps accumulating.
    /// Counters are monotonic, so with a genuinely earlier snapshot the
    /// subtraction never saturates; saturating keeps a misordered pair
    /// from panicking in release telemetry paths.
    ///
    /// Deltas recompose: for back-to-back snapshots `a ≤ b ≤ c`,
    /// `b.delta(&a)` merged with `c.delta(&b)` equals `c.delta(&a)`.
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (cell, before) in out.counters.iter_mut().zip(earlier.counters.iter()) {
            *cell = cell.saturating_sub(*before);
        }
        for (cells, befores) in out.histograms.iter_mut().zip(earlier.histograms.iter()) {
            for (cell, before) in cells.iter_mut().zip(befores.iter()) {
                *cell = cell.saturating_sub(*before);
            }
        }
        out
    }

    /// Set one counter cell directly. This is for *reconstructing* a
    /// snapshot from an external source (a parsed `MetricsDoc`, a wire
    /// frame) — live measurement counts with [`MetricsSnapshot::incr`]
    /// and [`MetricsSnapshot::observe`] or a [`RecorderHandle`].
    pub fn set_counter(&mut self, counter: CounterId, value: u64) {
        self.counters[counter.index()] = value;
    }

    /// Set one histogram's bucket cells directly (reconstruction twin of
    /// [`MetricsSnapshot::set_counter`]).
    pub fn set_histogram(&mut self, histogram: HistogramId, buckets: [u64; HistogramId::BUCKETS]) {
        self.histograms[histogram.index()] = buckets;
    }

    /// True when this snapshot could have evolved from `earlier` by
    /// monotonic accumulation: every cell is `>=` its earlier value.
    ///
    /// Pollers use this for restart detection — a counter "going
    /// backwards" means the source registry is not the one the baseline
    /// was taken from (daemon restart, reconnect to a different process),
    /// so the baseline must be reset rather than differenced.
    pub fn is_progression_of(&self, earlier: &MetricsSnapshot) -> bool {
        self.counters
            .iter()
            .zip(earlier.counters.iter())
            .all(|(now, then)| now >= then)
            && self
                .histograms
                .iter()
                .zip(earlier.histograms.iter())
                .all(|(now, then)| now.iter().zip(then.iter()).all(|(a, b)| a >= b))
    }

    /// Add another snapshot cell-by-cell (merging independent registries).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (ha, hb) in self.histograms.iter_mut().zip(other.histograms.iter()) {
            for (a, b) in ha.iter_mut().zip(hb.iter()) {
                *a += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_across_shards() {
        let registry = Arc::new(Registry::new(4));
        for shard in 0..4 {
            let h = registry.handle_at(shard);
            h.incr(CounterId::JobsReleased, (shard as u64) + 1);
            h.observe(HistogramId::MkDistance, shard as u64);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterId::JobsReleased), 1 + 2 + 3 + 4);
        assert_eq!(
            snap.histogram(HistogramId::MkDistance).iter().sum::<u64>(),
            4
        );
        assert_eq!(snap.counter(CounterId::JobsMet), 0);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let registry = Arc::new(Registry::new(3));
        let threads = 6;
        let per_thread = 1000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let handle = registry.handle_at(t);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        handle.count(CounterId::BackupsCanceled);
                        handle.observe(HistogramId::BackupDelayMs, i % 40);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        let expected = threads as u64 * per_thread;
        assert_eq!(snap.counter(CounterId::BackupsCanceled), expected);
        assert_eq!(
            snap.histogram(HistogramId::BackupDelayMs)
                .iter()
                .sum::<u64>(),
            expected
        );
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(Registry::new(0).shard_count(), 1);
        assert_eq!(Registry::new(1000).shard_count(), Registry::MAX_SHARDS);
    }

    #[test]
    fn round_robin_handles_cover_all_shards() {
        let registry = Arc::new(Registry::new(2));
        let a = registry.handle();
        let b = registry.handle();
        a.count(CounterId::JobsMet);
        b.count(CounterId::JobsMet);
        assert_eq!(registry.snapshot().counter(CounterId::JobsMet), 2);
    }

    #[test]
    fn delta_isolates_the_span_between_snapshots() {
        let registry = Arc::new(Registry::new(2));
        let h = registry.handle_at(0);
        h.incr(CounterId::JobsReleased, 5);
        h.observe(HistogramId::MkDistance, 1);
        let before = registry.snapshot();
        h.incr(CounterId::JobsReleased, 3);
        h.incr(CounterId::JobsMet, 2);
        h.observe(HistogramId::MkDistance, 1);
        let after = registry.snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.counter(CounterId::JobsReleased), 3);
        assert_eq!(delta.counter(CounterId::JobsMet), 2);
        assert_eq!(delta.histogram(HistogramId::MkDistance)[1], 1);
        // Unchanged cells are zero in the delta.
        assert_eq!(delta.counter(CounterId::BackupsCanceled), 0);
    }

    #[test]
    fn deltas_recompose_to_the_full_span() {
        let registry = Arc::new(Registry::new(1));
        let h = registry.handle_at(0);
        let a = registry.snapshot();
        h.incr(CounterId::JobsMet, 1);
        let b = registry.snapshot();
        h.incr(CounterId::JobsMet, 4);
        h.observe(HistogramId::BackupDelayMs, 2);
        let c = registry.snapshot();
        let mut recomposed = b.delta(&a);
        recomposed.merge(&c.delta(&b));
        assert_eq!(recomposed, c.delta(&a));
    }

    #[test]
    fn delta_of_misordered_snapshots_saturates_instead_of_panicking() {
        let registry = Arc::new(Registry::new(1));
        registry.handle_at(0).incr(CounterId::JobsMet, 7);
        let later = registry.snapshot();
        let delta = MetricsSnapshot::empty().delta(&later);
        assert!(delta.is_zero());
    }

    #[test]
    fn reconstructed_snapshots_round_trip_through_setters() {
        let registry = Arc::new(Registry::new(2));
        let h = registry.handle_at(1);
        h.incr(CounterId::JobsMet, 9);
        h.observe(HistogramId::ServeQueueDepth, 3);
        let live = registry.snapshot();
        let mut rebuilt = MetricsSnapshot::empty();
        for c in CounterId::ALL {
            rebuilt.set_counter(c, live.counter(c));
        }
        for hist in HistogramId::ALL {
            let mut buckets = [0u64; HistogramId::BUCKETS];
            buckets.copy_from_slice(live.histogram(hist));
            rebuilt.set_histogram(hist, buckets);
        }
        assert_eq!(rebuilt, live);
    }

    #[test]
    fn progression_detects_counters_going_backwards() {
        let registry = Arc::new(Registry::new(1));
        let h = registry.handle_at(0);
        h.incr(CounterId::JobsMet, 4);
        h.observe(HistogramId::MkDistance, 2);
        let earlier = registry.snapshot();
        h.incr(CounterId::JobsMet, 1);
        let later = registry.snapshot();
        assert!(later.is_progression_of(&earlier));
        assert!(later.is_progression_of(&later));
        // A restarted daemon's fresh registry is not a progression of the
        // old baseline once the old one had any activity.
        assert!(!MetricsSnapshot::empty().is_progression_of(&earlier));
        // Histogram cells count too, not just counters.
        let mut shrunk = later.clone();
        shrunk.set_histogram(HistogramId::MkDistance, [0; HistogramId::BUCKETS]);
        assert!(!shrunk.is_progression_of(&earlier));
    }

    #[test]
    fn merge_adds_cell_by_cell() {
        let r1 = Arc::new(Registry::new(1));
        let r2 = Arc::new(Registry::new(1));
        r1.handle_at(0).incr(CounterId::JobsMet, 2);
        r2.handle_at(0).incr(CounterId::JobsMet, 3);
        r2.handle_at(0).observe(HistogramId::MkDistance, 0);
        let mut snap = r1.snapshot();
        snap.merge(&r2.snapshot());
        assert_eq!(snap.counter(CounterId::JobsMet), 5);
        assert_eq!(snap.histogram(HistogramId::MkDistance)[0], 1);
        assert!(!snap.is_zero());
        assert!(MetricsSnapshot::empty().is_zero());
    }
}
