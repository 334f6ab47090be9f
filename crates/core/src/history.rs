//! Per-task execution history and the *flexibility degree* (Definition 1).
//!
//! The selective scheme classifies each job **at its release** from the
//! recent outcome history: a job is *mandatory* iff its flexibility degree
//! is 0, and only optional jobs with flexibility degree exactly 1 are
//! selected for execution (Section IV, principle (i)).

use serde::{Deserialize, Serialize};

use crate::mk::MkConstraint;

/// Outcome of one job with respect to its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: met/missed is the (m,k) model's complete outcome alphabet; every history consumer matches exhaustively"
)]
pub enum JobOutcome {
    /// The job completed successfully by its deadline (an *effective* job).
    Met,
    /// The job missed its deadline, failed, or was skipped.
    Missed,
}

impl JobOutcome {
    /// `true` for [`JobOutcome::Met`].
    #[inline]
    pub const fn is_met(self) -> bool {
        matches!(self, JobOutcome::Met)
    }
}

/// Execution history of a task, reduced to what the flexibility degree
/// needs: the sequence positions of its `m` most recent met outcomes.
///
/// Jobs are numbered `1, 2, …` in release order. History before the first
/// job is treated as all-met, which matches the paper's motivating
/// examples: the very first job of a task with constraint (m,k) has
/// flexibility degree `k − m` (e.g. `FD(O₁₁) = 2` for τ1 = (5,4,3,2,4) and
/// `FD(O₂₁) = 1` for τ2 = (10,10,3,1,2) in Section III). Only the `m` most
/// recent met outcomes can ever matter, so the pre-history is `m` met jobs
/// at positions `0, −1, …, −(m−1)`.
///
/// **Invariant.** A ring of `m` slots holds those `m` positions, each
/// stored plus `m` so that it is never negative (pre-history occupies
/// `1..=m`). [`MkConstraint`] guarantees `m ≥ 1`, so the ring is never
/// empty. They increase cyclically from the slot at `head`, which holds
/// the oldest of them. Recording a met outcome overwrites that oldest slot
/// with the new job's position and advances `head`; a missed outcome only
/// bumps the `recorded` counter. [`MkHistory::flexibility_degree`] and
/// [`MkHistory::record`] are O(1), and a history holds O(m) memory
/// whatever `k` is.
///
/// # Examples
///
/// ```
/// use mkss_core::history::{JobOutcome, MkHistory};
/// use mkss_core::mk::MkConstraint;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mk = MkConstraint::new(2, 4)?;
/// let mut h = MkHistory::new(mk);
/// assert_eq!(h.flexibility_degree(), 2); // fresh task: k − m
///
/// h.record(JobOutcome::Missed);
/// assert_eq!(h.flexibility_degree(), 1); // one more miss tolerable
///
/// h.record(JobOutcome::Missed);
/// assert_eq!(h.flexibility_degree(), 0); // next job is mandatory
///
/// // Both misses are still inside the window of 3, so a single success
/// // does not yet buy back any slack for (2,4)…
/// h.record(JobOutcome::Met);
/// assert_eq!(h.flexibility_degree(), 0);
/// // …but a second one pushes a miss out of every future window.
/// h.record(JobOutcome::Met);
/// assert_eq!(h.flexibility_degree(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MkHistory {
    mk: MkConstraint,
    /// Ring of the positions (plus `m`) of the `m` most recent met
    /// outcomes; always exactly `m` long.
    met_at: Vec<u64>,
    /// Slot of the oldest position in `met_at`; always `met_total mod m`,
    /// kept so that `flexibility_degree` needs no division.
    head: usize,
    /// Total jobs recorded; also the position of the latest one.
    recorded: u64,
    /// Total jobs recorded as met.
    met_total: u64,
}

impl MkHistory {
    /// Creates a history for a task with the given constraint, with the
    /// pre-history treated as all-met.
    pub fn new(mk: MkConstraint) -> Self {
        MkHistory {
            mk,
            met_at: (1..=u64::from(mk.m())).collect(),
            head: 0,
            recorded: 0,
            met_total: 0,
        }
    }

    /// The task's (m,k) constraint.
    pub fn constraint(&self) -> MkConstraint {
        self.mk
    }

    /// Resets the history to its initial all-met pre-history state,
    /// keeping the ring allocation. Equivalent to (but cheaper than)
    /// `*self = MkHistory::new(self.constraint())`; used by simulation
    /// workspaces that are reused across runs.
    pub fn reset(&mut self) {
        for (slot, pos) in self.met_at.iter_mut().zip(1..) {
            *slot = pos;
        }
        self.head = 0;
        self.recorded = 0;
        self.met_total = 0;
    }

    /// Records the outcome of the next job in release order.
    pub fn record(&mut self, outcome: JobOutcome) {
        self.recorded += 1;
        if outcome.is_met() {
            self.met_total += 1;
            self.met_at[self.head] = self.recorded + u64::from(self.mk.m());
            self.head += 1;
            if self.head == self.met_at.len() {
                self.head = 0;
            }
        }
    }

    /// The flexibility degree (Definition 1) of the **next** job of this
    /// task: the number of consecutive deadline misses the task can still
    /// tolerate, starting from that job, without ever violating the (m,k)
    /// constraint (assuming all later jobs are then made mandatory and
    /// succeed).
    ///
    /// Derivation: let `met_in_last(n)` count the met outcomes among the
    /// `n` most recent jobs. If the next `f` jobs all miss, the tightest
    /// window is the one ending at the `f`-th miss; it contains the
    /// `k − f` most recent history outcomes plus the `f` misses, so it
    /// needs `met_in_last(k − f) ≥ m`. Earlier windows (ending at miss
    /// `j < f`) contain `k − j ≥ k − f` recent outcomes, a superset of met
    /// outcomes, so the `f`-th window is binding and
    ///
    /// ```text
    /// FD = max { f ∈ [0, k−m] : met_in_last(k − f) ≥ m }
    /// ```
    ///
    /// (Windows stretching past the `f`-th miss contain future jobs, which
    /// are assumed mandatory-and-met and can only help.)
    ///
    /// `met_in_last(n) ≥ m` holds exactly when the `m`-th most recent met
    /// job lies among the last `n`, i.e. when its recency
    /// `L = recorded − position + 1` is at most `n`. So `f` is tolerable
    /// iff `f ≤ k − L`. Since `L ≥ m`, `k − L ≤ k − m`, and
    ///
    /// ```text
    /// FD = k − L   if L ≤ k − 1,   else 0.
    /// ```
    ///
    /// `L` is read from the oldest ring slot, so this is O(1).
    pub fn flexibility_degree(&self) -> u32 {
        let oldest = self.met_at[self.head];
        // Stored positions carry `+ m`, so add it to `recorded` as well.
        let recency = self.recorded + u64::from(self.mk.m()) + 1 - oldest;
        // At most k − m, which fits the constraint's u32.
        u64::from(self.mk.k()).saturating_sub(recency) as u32
    }

    /// Whether the next job **must** be executed (flexibility degree 0).
    pub fn next_is_mandatory(&self) -> bool {
        self.flexibility_degree() == 0
    }

    /// The *distance-based priority* metric of Hamdaoui & Ramanathan's
    /// DBP scheme (the paper's reference \[10\]): the number of consecutive
    /// deadline misses, starting from the next job, that would drive the
    /// task into a failing (m,k) state. Smaller = more urgent.
    ///
    /// This is exactly [`MkHistory::flexibility_degree`]` + 1`: a task
    /// that can still tolerate `FD` misses fails on the `FD + 1`-th.
    ///
    /// ```
    /// use mkss_core::history::{JobOutcome, MkHistory};
    /// use mkss_core::mk::MkConstraint;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut h = MkHistory::new(MkConstraint::new(1, 3)?);
    /// assert_eq!(h.dbp_distance(), 3); // fresh: k − m + 1
    /// h.record(JobOutcome::Missed);
    /// h.record(JobOutcome::Missed);
    /// assert_eq!(h.dbp_distance(), 1); // one more miss fails
    /// # Ok(())
    /// # }
    /// ```
    pub fn dbp_distance(&self) -> u32 {
        self.flexibility_degree() + 1
    }

    /// Total number of outcomes recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Total number of met outcomes recorded.
    pub fn met_total(&self) -> u64 {
        self.met_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mk::MkMonitor;
    use proptest::prelude::*;

    fn mk(m: u32, k: u32) -> MkConstraint {
        MkConstraint::new(m, k).unwrap()
    }

    #[test]
    fn fresh_history_fd_is_k_minus_m() {
        assert_eq!(MkHistory::new(mk(2, 4)).flexibility_degree(), 2);
        assert_eq!(MkHistory::new(mk(1, 2)).flexibility_degree(), 1);
        assert_eq!(MkHistory::new(mk(3, 5)).flexibility_degree(), 2);
        assert_eq!(MkHistory::new(mk(19, 20)).flexibility_degree(), 1);
    }

    #[test]
    fn paper_section_iii_footnote() {
        // τ1 = (5,4,3,2,4): FD of the first job is 2 (can tolerate two
        // misses); τ2 = (10,10,3,1,2): FD of the first job is 1, hence τ2's
        // first job is "more urgent" and is executed first.
        assert_eq!(MkHistory::new(mk(2, 4)).flexibility_degree(), 2);
        assert_eq!(MkHistory::new(mk(1, 2)).flexibility_degree(), 1);
    }

    #[test]
    fn misses_decrease_fd_to_zero() {
        let mut h = MkHistory::new(mk(2, 4));
        h.record(JobOutcome::Missed);
        assert_eq!(h.flexibility_degree(), 1);
        h.record(JobOutcome::Missed);
        assert_eq!(h.flexibility_degree(), 0);
        assert!(h.next_is_mandatory());
    }

    #[test]
    fn success_restores_fd() {
        let mut h = MkHistory::new(mk(1, 2));
        h.record(JobOutcome::Missed);
        assert_eq!(h.flexibility_degree(), 0);
        h.record(JobOutcome::Met);
        assert_eq!(h.flexibility_degree(), 1);
    }

    #[test]
    fn fd_counts_interleaved_outcomes() {
        // (2,4): only the last 3 outcomes can matter.
        let mut h = MkHistory::new(mk(2, 4));
        let mut r = Reference::new(mk(2, 4));
        for o in [JobOutcome::Met, JobOutcome::Missed, JobOutcome::Met] {
            h.record(o);
            r.record(o);
        }
        // last 3 = [Met, Missed, Met]; met_in_last(3)=2>=2 → f=1 ok;
        // met_in_last(2)=1<2 → stop. FD = 1.
        assert_eq!(h.flexibility_degree(), 1);
        assert_eq!(r.flexibility_degree(), 1);
        assert_eq!(r.met_in_last(3), 2);
        assert_eq!(r.met_in_last(2), 1);
        assert_eq!(r.met_in_last(1), 1);
        assert_eq!(r.met_in_last(0), 0);
    }

    #[test]
    fn bookkeeping_counters() {
        let mut h = MkHistory::new(mk(1, 3));
        h.record(JobOutcome::Met);
        h.record(JobOutcome::Missed);
        h.record(JobOutcome::Met);
        assert_eq!(h.recorded(), 3);
        assert_eq!(h.met_total(), 2);
        assert_eq!(h.constraint(), mk(1, 3));
    }

    #[test]
    fn large_k_history_is_constant_size() {
        let c = mk(1, 1_000_000);
        let mut h = MkHistory::new(c);
        assert_eq!(h.met_at.len(), 1);
        assert_eq!(h.flexibility_degree(), 999_999);
        for _ in 0..10 {
            h.record(JobOutcome::Missed);
        }
        assert_eq!(h.flexibility_degree(), 999_989);
        h.record(JobOutcome::Met);
        assert_eq!(h.flexibility_degree(), 999_999);

        let c = mk(999_999, 1_000_000);
        let mut h = MkHistory::new(c);
        assert_eq!(h.flexibility_degree(), 1);
        h.record(JobOutcome::Missed);
        assert_eq!(h.flexibility_degree(), 0);
        // The miss leaves every window only once a full k jobs have met
        // after it.
        for _ in 0..999_998 {
            h.record(JobOutcome::Met);
        }
        assert_eq!(h.flexibility_degree(), 0);
        h.record(JobOutcome::Met);
        assert_eq!(h.flexibility_degree(), 1);
    }

    /// Definition-level reference: every outcome kept in a plain list,
    /// with an all-met pre-history, and
    /// `FD = max { f ∈ [0, k−m] : met_in_last(k − f) ≥ m }`.
    struct Reference {
        mk: MkConstraint,
        /// `met_prefix[i]` = met outcomes among the first `i` recorded.
        met_prefix: Vec<u64>,
    }

    impl Reference {
        fn new(mk: MkConstraint) -> Self {
            Reference {
                mk,
                met_prefix: vec![0],
            }
        }

        fn record(&mut self, outcome: JobOutcome) {
            let last = *self.met_prefix.last().unwrap();
            self.met_prefix.push(last + u64::from(outcome.is_met()));
        }

        /// Met outcomes among the `n` most recent jobs, counting the
        /// pre-history as met.
        fn met_in_last(&self, n: u32) -> u64 {
            let len = self.met_prefix.len() - 1;
            let n = n as usize;
            if n <= len {
                self.met_prefix[len] - self.met_prefix[len - n]
            } else {
                self.met_prefix[len] + (n - len) as u64
            }
        }

        fn flexibility_degree(&self) -> u32 {
            let (m, k) = (self.mk.m(), self.mk.k());
            let ok = |f: u32| self.met_in_last(k - f) >= u64::from(m);
            // met_in_last(n) never decreases as n grows, so `ok` holds on
            // a prefix of 0, 1, …, k − m (and always at 0): find its end.
            let (mut lo, mut hi) = (0, k - m);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if ok(mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        }
    }

    /// Deterministic outcome stream for the large-`k` proptests: each job
    /// misses with probability `miss_permille / 1000`.
    fn outcomes(seed: u64, miss_permille: u64, len: usize) -> impl Iterator<Item = JobOutcome> {
        let mut state = seed;
        (0..len).map(move |_| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if z % 1000 < miss_permille {
                JobOutcome::Missed
            } else {
                JobOutcome::Met
            }
        })
    }

    /// Oracle: brute-force FD by simulating f misses over the *full*
    /// outcome sequence (with met pre-history) and checking every window
    /// of k via MkMonitor.
    fn oracle_fd(mk_c: MkConstraint, outcomes: &[JobOutcome]) -> u32 {
        let k = mk_c.k() as usize;
        let m = mk_c.m() as usize;
        // Pre-history counts as met; FD is defined relative to the current
        // state, so only windows ending at one of the hypothetical future
        // misses are inspected (violations an arbitrary generated history
        // already contains are not the future misses' fault).
        let mut seq: Vec<bool> = vec![true; k];
        seq.extend(outcomes.iter().map(|o| o.is_met()));
        let hist_len = seq.len();
        let mut best = 0;
        'f: for f in 1..=(mk_c.k() - mk_c.m()) {
            let mut s = seq.clone();
            s.extend(std::iter::repeat_n(false, f as usize));
            for end in hist_len..s.len() {
                let window = &s[end + 1 - k..=end];
                if window.iter().filter(|&&b| b).count() < m {
                    continue 'f;
                }
            }
            best = f;
        }
        best
    }

    proptest! {
        #[test]
        fn fd_matches_bruteforce_oracle(
            m in 1u32..6,
            extra in 1u32..6,
            raw in proptest::collection::vec(any::<bool>(), 0..40),
        ) {
            let k = m + extra;
            let c = mk(m, k);
            let outcomes: Vec<JobOutcome> = raw
                .iter()
                .map(|&b| if b { JobOutcome::Met } else { JobOutcome::Missed })
                .collect();
            let mut h = MkHistory::new(c);
            for &o in &outcomes {
                h.record(o);
            }
            prop_assert_eq!(h.flexibility_degree(), oracle_fd(c, &outcomes));
        }

        /// Executing misses exactly FD times never violates; FD+1 misses do.
        #[test]
        fn fd_is_tight(
            m in 1u32..5,
            extra in 1u32..5,
            raw in proptest::collection::vec(any::<bool>(), 0..30),
        ) {
            let k = m + extra;
            let c = mk(m, k);
            let mut h = MkHistory::new(c);
            let mut mon = MkMonitor::new(c);
            for &b in &raw {
                let o = if b { JobOutcome::Met } else { JobOutcome::Missed };
                // Keep history consistent: only feed outcomes that do not
                // already violate (a real scheduler would never allow them).
                if !b && h.flexibility_degree() == 0 {
                    h.record(JobOutcome::Met);
                    mon.record(true);
                    continue;
                }
                h.record(o);
                mon.record(o.is_met());
                prop_assert!(!mon.violated());
            }
            let fd = h.flexibility_degree();
            // fd misses are safe…
            let mut mon2 = mon.clone();
            for _ in 0..fd {
                mon2.record(false);
            }
            prop_assert!(!mon2.violated());
            // …but one more is not (when fd < k-m headroom remains checked
            // by oracle equivalence above; here assert violation).
            mon2.record(false);
            if fd < k - m {
                prop_assert!(mon2.violated());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The ring agrees with the definition-level reference after every
        /// job, for `k` up to 10⁴ at both extremes of `m` (and a middle
        /// one), over histories up to `3k` long so the ring wraps.
        #[test]
        fn fd_matches_definition_at_large_k(
            k in 2u32..=10_000,
            m_pick in 0u32..3,
            miss_permille in 0u64..=1000,
            rare_misses in any::<bool>(),
            len_pct in 0u32..=300,
            seed in any::<u64>(),
        ) {
            let m = match m_pick {
                0 => 1,
                1 => k - 1,
                _ => 1 + (seed % u64::from(k - 1)) as u32,
            };
            let c = mk(m, k);
            // Half the cases miss rarely, so that a large m sees FD > 0.
            let miss_permille = if rare_misses { miss_permille % 8 } else { miss_permille };
            let len = (u64::from(k) * u64::from(len_pct) / 100) as usize;
            let mut h = MkHistory::new(c);
            let mut r = Reference::new(c);
            prop_assert_eq!(h.flexibility_degree(), r.flexibility_degree());
            for o in outcomes(seed, miss_permille, len) {
                h.record(o);
                r.record(o);
                prop_assert_eq!(h.flexibility_degree(), r.flexibility_degree());
            }
            prop_assert_eq!(h.recorded(), len as u64);
            prop_assert_eq!(h.met_total(), r.met_prefix[len]);
        }

        /// `reset` after any history restores exactly the fresh state.
        #[test]
        fn reset_equals_new(
            m in 1u32..50,
            extra in 1u32..50,
            miss_permille in 0u64..=1000,
            len in 0usize..300,
            seed in any::<u64>(),
        ) {
            let c = mk(m, m + extra);
            let mut h = MkHistory::new(c);
            for o in outcomes(seed, miss_permille, len) {
                h.record(o);
            }
            h.reset();
            prop_assert_eq!(h, MkHistory::new(c));
        }
    }
}
