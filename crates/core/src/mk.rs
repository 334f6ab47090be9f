//! The (m,k)-firm deadline model: constraints and their static
//! mandatory/optional partitioning.
//!
//! An (m,k) constraint requires that among **any** `k` consecutive jobs of a
//! task, at least `m` complete successfully by their deadlines
//! (Hamdaoui & Ramanathan, 1995). To *enforce* the constraint statically,
//! jobs are partitioned into mandatory and optional ones
//! (Ramanathan, 1999); the paper uses the *deeply-red* (R-)pattern
//! (Koren & Shasha, 1995) given by Eq. (1), which
//! [`MkConstraint::is_mandatory`] implements:
//!
//! ```text
//! π_ij = 1  iff  1 ≤ j mod k_i ≤ m_i       (j = 1, 2, 3, …)
//! ```

use crate::error::ValidateTaskError;

/// An (m,k)-firm constraint: at least `m` of any `k` consecutive jobs must
/// complete by their deadlines.
///
/// The invariant `0 < m < k` is enforced at construction, the only way
/// a constraint is made (the paper's system model uses the same strict
/// form; `m = k` would be a hard real-time task and `m = 0` no constraint
/// at all).
///
/// # Examples
///
/// ```
/// use mkss_core::mk::MkConstraint;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mk = MkConstraint::new(2, 4)?;
/// assert_eq!(mk.m(), 2);
/// assert_eq!(mk.k(), 4);
/// // (m,k)-utilization weight m/k:
/// assert_eq!(mk.ratio(), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MkConstraint {
    m: u32,
    k: u32,
}

impl MkConstraint {
    /// Creates an (m,k) constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateTaskError::InvalidMkPair`] unless `0 < m < k`.
    pub fn new(m: u32, k: u32) -> Result<Self, ValidateTaskError> {
        if m == 0 || m >= k {
            return Err(ValidateTaskError::InvalidMkPair { m, k });
        }
        Ok(MkConstraint { m, k })
    }

    /// Minimum number of successes per window.
    #[inline]
    pub const fn m(self) -> u32 {
        self.m
    }

    /// Window length in jobs.
    #[inline]
    pub const fn k(self) -> u32 {
        self.k
    }

    /// The ratio `m/k`, the task's weight in the (m,k)-utilization
    /// `Σ mᵢCᵢ/(kᵢPᵢ)`.
    #[inline]
    pub fn ratio(self) -> f64 {
        f64::from(self.m) / f64::from(self.k)
    }

    /// Maximum number of consecutive misses the constraint can ever absorb:
    /// `k − m`. This equals the flexibility degree of a job whose entire
    /// history window is successful.
    #[inline]
    pub const fn max_consecutive_misses(self) -> u32 {
        self.k - self.m
    }

    /// Whether the `j`-th job (**1-based**) is mandatory under the
    /// deeply-red pattern of Eq. (1): the first `m` jobs of every aligned
    /// window of `k` are mandatory. All tasks are "red" together at the
    /// synchronous release, which makes this pattern the worst case for
    /// schedulability analysis (Theorem 1 relies on exactly this property).
    ///
    /// ```
    /// use mkss_core::mk::MkConstraint;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mk = MkConstraint::new(2, 4)?;
    /// let mandatory: Vec<bool> = (1..=8).map(|j| mk.is_mandatory(j)).collect();
    /// assert_eq!(mandatory, [true, true, false, false, true, true, false, false]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `job_index` is zero (job indices are 1-based, matching the
    /// paper's `J_i1, J_i2, …` notation).
    pub fn is_mandatory(self, job_index: u64) -> bool {
        assert!(job_index >= 1, "job indices are 1-based");
        let r = job_index % u64::from(self.k);
        1 <= r && r <= u64::from(self.m)
    }

    /// Number of mandatory jobs (deeply-red pattern) among the first
    /// `count` jobs, in closed form. Response-time analysis uses it as the
    /// interference bound of a higher-priority task in a level-i busy
    /// window starting at the synchronous release.
    ///
    /// ```
    /// use mkss_core::mk::MkConstraint;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mk = MkConstraint::new(2, 4)?;
    /// assert_eq!(mk.mandatory_among(6), 4); // jobs 1,2,5,6
    /// # Ok(())
    /// # }
    /// ```
    pub fn mandatory_among(self, count: u64) -> u64 {
        let m = u64::from(self.m);
        let k = u64::from(self.k);
        count / k * m + (count % k).min(m)
    }
}

/// A streaming checker that verifies the (m,k) constraint over **every**
/// sliding window of `k` consecutive job outcomes.
///
/// Feed it the outcome of each job in release order; it reports the first
/// violation. Used by the test-suite to validate whole schedules
/// (Theorem 1) and by the simulator's assertion mode.
///
/// # Examples
///
/// ```
/// use mkss_core::mk::{MkConstraint, MkMonitor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mon = MkMonitor::new(MkConstraint::new(1, 2)?);
/// assert!(mon.record(true));   // met
/// assert!(mon.record(false));  // missed — window {met, missed} is fine
/// assert!(!mon.record(false)); // window {missed, missed} violates (1,2)
/// assert!(mon.violated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MkMonitor {
    mk: MkConstraint,
    /// Ring buffer of the last `k` outcomes (`true` = met).
    window: Vec<bool>,
    /// Next write position in `window`.
    cursor: usize,
    /// Number of outcomes recorded so far.
    seen: u64,
    /// Number of `true` entries currently in the window.
    met_in_window: u32,
    /// Index (1-based) of the first job whose window violated the
    /// constraint, if any.
    first_violation: Option<u64>,
}

impl MkMonitor {
    /// Creates a monitor for the given constraint. Jobs before the first
    /// are treated as met, matching the paper's examples where the initial
    /// flexibility degree of every task is `k − m`.
    pub fn new(mk: MkConstraint) -> Self {
        MkMonitor {
            mk,
            window: vec![true; mk.k() as usize],
            cursor: 0,
            seen: 0,
            met_in_window: mk.k(),
            first_violation: None,
        }
    }

    /// The constraint being monitored.
    pub fn constraint(&self) -> MkConstraint {
        self.mk
    }

    /// Resets the monitor to its initial all-met pre-history state,
    /// keeping the window allocation. Equivalent to (but cheaper than)
    /// `*self = MkMonitor::new(self.constraint())`; used by simulation
    /// workspaces that are reused across runs.
    pub fn reset(&mut self) {
        self.window.fill(true);
        self.cursor = 0;
        self.seen = 0;
        self.met_in_window = self.mk.k();
        self.first_violation = None;
    }

    /// Records the outcome of the next job (`true` = met its deadline).
    /// Returns `false` iff this outcome completes a violating window (or a
    /// violation already occurred).
    pub fn record(&mut self, met: bool) -> bool {
        let evicted = self.window[self.cursor];
        self.window[self.cursor] = met;
        self.cursor += 1;
        if self.cursor == self.window.len() {
            self.cursor = 0;
        }
        self.seen += 1;
        if evicted {
            self.met_in_window -= 1;
        }
        if met {
            self.met_in_window += 1;
        }
        if self.met_in_window < self.mk.m() && self.first_violation.is_none() {
            self.first_violation = Some(self.seen);
        }
        self.first_violation.is_none()
    }

    /// Whether a violation has occurred.
    pub fn violated(&self) -> bool {
        self.first_violation.is_some()
    }

    /// 1-based index of the job that completed the first violating window.
    pub fn first_violation(&self) -> Option<u64> {
        self.first_violation
    }

    /// Number of met outcomes in the current window (counting pre-history
    /// as met while the window is not yet full).
    pub fn met_in_window(&self) -> u32 {
        self.met_in_window
    }

    /// How many further misses the current window tolerates before the
    /// (m,k) constraint is violated: `met_in_window − m`, saturating at 0.
    ///
    /// A distance of 0 means the window is deeply red — every remaining
    /// job must meet its deadline (or, if already violated, stays 0).
    pub fn distance_to_violation(&self) -> u32 {
        self.met_in_window.saturating_sub(self.mk.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constraint_validation() {
        assert!(MkConstraint::new(1, 2).is_ok());
        assert!(MkConstraint::new(19, 20).is_ok());
        assert_eq!(
            MkConstraint::new(0, 2),
            Err(ValidateTaskError::InvalidMkPair { m: 0, k: 2 })
        );
        assert_eq!(
            MkConstraint::new(2, 2),
            Err(ValidateTaskError::InvalidMkPair { m: 2, k: 2 })
        );
        assert_eq!(
            MkConstraint::new(3, 2),
            Err(ValidateTaskError::InvalidMkPair { m: 3, k: 2 })
        );
    }

    #[test]
    fn constraint_accessors() {
        let mk = MkConstraint::new(2, 5).unwrap();
        assert_eq!(mk.m(), 2);
        assert_eq!(mk.k(), 5);
        assert_eq!(mk.ratio(), 0.4);
        assert_eq!(mk.max_consecutive_misses(), 3);
    }

    #[test]
    fn deeply_red_pattern_eq1() {
        // Paper Eq. (1) with (m,k) = (2,4): jobs 1,2 mandatory; 3,4 optional.
        let mk = MkConstraint::new(2, 4).unwrap();
        let flags: Vec<bool> = (1..=12).map(|j| mk.is_mandatory(j)).collect();
        assert_eq!(
            flags,
            [true, true, false, false, true, true, false, false, true, true, false, false]
        );
    }

    #[test]
    fn deeply_red_mk_1_2() {
        // τ2 = (10,10,3,1,2) from Fig. 1: odd jobs mandatory.
        let mk = MkConstraint::new(1, 2).unwrap();
        assert!(mk.is_mandatory(1));
        assert!(!mk.is_mandatory(2));
        assert!(mk.is_mandatory(3));
        assert!(!mk.is_mandatory(4));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn pattern_rejects_zero_index() {
        let mk = MkConstraint::new(1, 2).unwrap();
        mk.is_mandatory(0);
    }

    #[test]
    fn mandatory_among_closed_form_matches_naive() {
        for (m, k) in [(1u32, 2u32), (2, 4), (3, 5), (1, 7), (6, 7)] {
            let mk = MkConstraint::new(m, k).unwrap();
            for count in 0..60u64 {
                let naive = (1..=count).filter(|&j| mk.is_mandatory(j)).count() as u64;
                assert_eq!(
                    mk.mandatory_among(count),
                    naive,
                    "(m,k)=({m},{k}), count={count}"
                );
            }
        }
    }

    #[test]
    fn every_pattern_window_satisfies_mk() {
        // Any k consecutive jobs contain ≥ m mandatory.
        for (m, k) in [(1u32, 2u32), (2, 4), (3, 5), (2, 20), (19, 20)] {
            let mk = MkConstraint::new(m, k).unwrap();
            for start in 1..=(3 * u64::from(k)) {
                let count = (start..start + u64::from(k))
                    .filter(|&j| mk.is_mandatory(j))
                    .count() as u32;
                assert!(
                    count >= m,
                    "(m,k)=({m},{k}) window at {start} has only {count}"
                );
            }
        }
    }

    #[test]
    fn monitor_detects_violation() {
        let mut mon = MkMonitor::new(MkConstraint::new(2, 3).unwrap());
        assert!(mon.record(true));
        assert!(mon.record(true));
        assert!(mon.record(false)); // window T T F: 2 met, fine
        assert!(!mon.record(false)); // window T F F: 1 met < 2
        assert!(mon.violated());
        assert_eq!(mon.first_violation(), Some(4));
        // Stays violated.
        assert!(!mon.record(true));
    }

    #[test]
    fn monitor_initial_history_counts_as_met() {
        // First job may miss immediately when m < k.
        let mut mon = MkMonitor::new(MkConstraint::new(1, 2).unwrap());
        assert!(mon.record(false));
        assert!(!mon.violated());
        assert_eq!(mon.met_in_window(), 1);
    }

    #[test]
    fn monitor_all_met_never_violates() {
        let mut mon = MkMonitor::new(MkConstraint::new(3, 5).unwrap());
        for _ in 0..100 {
            assert!(mon.record(true));
        }
        assert!(!mon.violated());
        assert_eq!(mon.met_in_window(), 5);
    }

    #[test]
    fn distance_to_violation_tracks_window_headroom() {
        let mut mon = MkMonitor::new(MkConstraint::new(2, 4).unwrap());
        assert_eq!(mon.distance_to_violation(), 2); // fresh window: k met
        mon.record(false);
        assert_eq!(mon.distance_to_violation(), 1);
        mon.record(false);
        assert_eq!(mon.distance_to_violation(), 0); // deeply red
        assert!(!mon.violated());
        mon.record(false); // third miss in the window: violation
        assert!(mon.violated());
        assert_eq!(mon.distance_to_violation(), 0); // saturates, no underflow
    }

    proptest! {
        /// The monitor agrees with a naive "check every window" oracle.
        #[test]
        fn monitor_matches_naive_oracle(
            m in 1u32..6,
            extra in 1u32..6,
            outcomes in proptest::collection::vec(any::<bool>(), 0..80),
        ) {
            let k = m + extra;
            let mk = MkConstraint::new(m, k).unwrap();
            let mut mon = MkMonitor::new(mk);
            // Prepend k implicit "met" outcomes, as the monitor does.
            let mut all: Vec<bool> = vec![true; k as usize];
            let mut naive_first: Option<u64> = None;
            for (idx, &o) in outcomes.iter().enumerate() {
                all.push(o);
                mon.record(o);
                let window = &all[all.len() - k as usize..];
                let met = window.iter().filter(|&&b| b).count() as u32;
                if met < m && naive_first.is_none() {
                    naive_first = Some(idx as u64 + 1);
                }
            }
            prop_assert_eq!(mon.first_violation(), naive_first);
        }

        /// Deeply-red: every sliding window of k jobs has >= m mandatory,
        /// and aligned windows have exactly m.
        #[test]
        fn deeply_red_window_counts(m in 1u32..10, extra in 1u32..10) {
            let k = m + extra;
            let mk = MkConstraint::new(m, k).unwrap();
            // Aligned windows: jobs (w*k+1)..=(w*k+k) contain exactly m.
            for w in 0..4u64 {
                let count = (w * u64::from(k) + 1..=(w + 1) * u64::from(k))
                    .filter(|&j| mk.is_mandatory(j))
                    .count() as u32;
                prop_assert_eq!(count, m);
            }
        }
    }
}
