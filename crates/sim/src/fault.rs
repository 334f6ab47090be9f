//! Fault model: one permanent processor fault plus Poisson transient
//! faults (Section II-B).
//!
//! * **Permanent faults** destroy a processor at a given instant; the
//!   survivor takes over the whole system. At most one permanent fault is
//!   considered (with two processors a second one is unsurvivable).
//! * **Transient faults** hit individual job executions. They are
//!   detected at the *end* of the execution by sanity/consistency checks
//!   (whose overhead is folded into the WCET), so a faulted copy consumes
//!   its full execution time and then yields no usable result. Following
//!   the paper (and [Zhu, Melhem, Mossé 2004]) arrivals are Poisson with
//!   average rate λ, so a copy executing for `c` fails with probability
//!   `1 − e^(−λ·c)`.

use mkss_core::time::{Time, TICKS_PER_MS};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::proc::ProcId;

/// A permanent fault: processor `proc` dies at time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PermanentFault {
    /// The processor that fails.
    pub proc: ProcId,
    /// The instant of failure.
    pub at: Time,
}

/// Fault-injection configuration for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Optional single permanent fault.
    pub permanent: Option<PermanentFault>,
    /// Transient fault rate λ per millisecond of execution
    /// (the paper's evaluation uses `1e-6`).
    pub transient_rate_per_ms: f64,
    /// RNG seed for transient-fault sampling (simulations are fully
    /// deterministic given the seed).
    pub seed: u64,
}

impl Default for FaultConfig {
    /// No faults at all.
    fn default() -> Self {
        FaultConfig {
            permanent: None,
            transient_rate_per_ms: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// Fault-free configuration (scenario of Fig. 6(a)).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// One permanent fault, no transients (scenario of Fig. 6(b)).
    pub fn permanent(proc: ProcId, at: Time) -> Self {
        FaultConfig {
            permanent: Some(PermanentFault { proc, at }),
            ..FaultConfig::default()
        }
    }

    /// Permanent + transient faults (scenario of Fig. 6(c)).
    pub fn combined(proc: ProcId, at: Time, rate_per_ms: f64, seed: u64) -> Self {
        FaultConfig {
            permanent: Some(PermanentFault { proc, at }),
            transient_rate_per_ms: rate_per_ms,
            seed,
        }
    }

    /// Only transient faults.
    pub fn transient(rate_per_ms: f64, seed: u64) -> Self {
        FaultConfig {
            permanent: None,
            transient_rate_per_ms: rate_per_ms,
            seed,
        }
    }
}

/// Stateful, seeded sampler deciding whether each completed execution
/// suffered a transient fault.
#[derive(Debug, Clone)]
pub struct TransientSampler {
    rng: ChaCha8Rng,
    rate_per_ms: f64,
}

impl TransientSampler {
    /// Creates a sampler from a fault configuration.
    pub fn new(config: &FaultConfig) -> Self {
        TransientSampler {
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            rate_per_ms: config.transient_rate_per_ms,
        }
    }

    /// Probability that an execution of length `exec` is hit by at least
    /// one transient fault: `1 − e^(−λ·c)`.
    pub fn fault_probability(&self, exec: Time) -> f64 {
        if self.rate_per_ms <= 0.0 {
            return 0.0;
        }
        let c_ms = exec.ticks() as f64 / TICKS_PER_MS as f64;
        1.0 - (-self.rate_per_ms * c_ms).exp()
    }

    /// Samples whether an execution of length `exec` faulted.
    pub fn sample(&mut self, exec: Time) -> bool {
        self.sample_probability(self.fault_probability(exec))
    }

    /// Samples whether an execution faulted, given its
    /// [`fault_probability`](Self::fault_probability) `p` computed
    /// beforehand: the same draw as [`sample`](Self::sample), for
    /// callers that run many executions of one length.
    pub fn sample_probability(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.rng.gen_bool(p.min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fault_free() {
        let c = FaultConfig::default();
        assert!(c.permanent.is_none());
        assert_eq!(c.transient_rate_per_ms, 0.0);
        let mut s = TransientSampler::new(&c);
        for _ in 0..100 {
            assert!(!s.sample(Time::from_ms(10)));
        }
    }

    #[test]
    fn constructors() {
        let p = FaultConfig::permanent(ProcId::PRIMARY, Time::from_ms(7));
        assert_eq!(
            p.permanent,
            Some(PermanentFault {
                proc: ProcId::PRIMARY,
                at: Time::from_ms(7)
            })
        );
        let c = FaultConfig::combined(ProcId::SPARE, Time::from_ms(3), 1e-6, 42);
        assert_eq!(c.transient_rate_per_ms, 1e-6);
        assert_eq!(c.seed, 42);
        let t = FaultConfig::transient(0.5, 1);
        assert!(t.permanent.is_none());
        assert_eq!(t.transient_rate_per_ms, 0.5);
    }

    #[test]
    fn fault_probability_formula() {
        let s = TransientSampler::new(&FaultConfig::transient(0.1, 0));
        let p = s.fault_probability(Time::from_ms(10));
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(s.fault_probability(Time::ZERO), 0.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let cfg = FaultConfig::transient(0.3, 1234);
        let mut a = TransientSampler::new(&cfg);
        let mut b = TransientSampler::new(&cfg);
        let seq_a: Vec<bool> = (0..50).map(|_| a.sample(Time::from_ms(5))).collect();
        let seq_b: Vec<bool> = (0..50).map(|_| b.sample(Time::from_ms(5))).collect();
        assert_eq!(seq_a, seq_b);
        assert!(
            seq_a.iter().any(|&x| x),
            "rate 0.3/ms over 5ms should fault sometimes"
        );
        assert!(!seq_a.iter().all(|&x| x));
    }

    #[test]
    fn high_rate_faults_almost_surely() {
        let mut s = TransientSampler::new(&FaultConfig::transient(100.0, 7));
        assert!(s.sample(Time::from_ms(10)));
    }

    #[test]
    fn rate_scales_with_exec_length() {
        let s = TransientSampler::new(&FaultConfig::transient(0.01, 0));
        assert!(s.fault_probability(Time::from_ms(1)) < s.fault_probability(Time::from_ms(10)));
    }
}
