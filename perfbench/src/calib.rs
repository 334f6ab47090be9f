//! Host-speed calibration.
//!
//! On a shared host the same operation runs up to 1.8x slower for
//! seconds at a time while neighbours load the machine. A fixed reference
//! kernel, independent of the code under test, is timed every
//! `INTERVAL_MS` through the measured window; each operation's time is
//! then scaled by how long the kernel took around it, relative to the
//! kernel's time on a quiet host. A change to the program moves the
//! scaled figures; a change in the host's speed mostly does not.
//!
//! Neighbours slow some instruction mixes more than others, so each
//! workload names the kernel whose slowdown follows its own: `Table` for
//! the engine's heap-and-table loop, `Dispatch` for the generator- and
//! analysis-heavy Fig. 6 panels.

use std::collections::BinaryHeap;

use mkss_obs::Stopwatch;

use crate::stats::median;

/// Time between kernel samples inside the window.
const INTERVAL_MS: f64 = 100.0;
/// Samples within this distance of an operation's midpoint set its scale.
const SMOOTH_MS: f64 = 500.0;
/// Table the `Table` kernel reads and writes: 128 KiB, so it sits in L2
/// like the engine's working set.
const TABLE_WORDS: usize = 1 << 14;
/// Kernel steps per call.
const STEPS: u32 = 40_000;

/// A reference kernel.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// A priority queue, data-dependent branches and table traffic: the
    /// shape of an event-driven simulator's inner loop.
    Table,
    /// Indirect calls through a function table and data-dependent
    /// branches, with little memory traffic.
    Dispatch,
}

impl Kernel {
    /// Time of one call on a quiet host (one vCPU of a 2-vCPU Xeon
    /// Sapphire Rapids KVM guest), in milliseconds. Scaled figures read as
    /// times on that host.
    pub fn reference_ms(self) -> f64 {
        match self {
            Kernel::Table => 0.75,
            Kernel::Dispatch => 0.46,
        }
    }
}

/// The reference kernel's state and its samples.
pub struct Calibrator {
    kernel: Kernel,
    table: Vec<u64>,
    heap: BinaryHeap<u64>,
    state: u64,
    next_ms: f64,
    /// `(window time, kernel time)` pairs in milliseconds, in time order.
    samples: Vec<(f64, f64)>,
}

impl Calibrator {
    pub fn new(kernel: Kernel) -> Calibrator {
        Calibrator {
            kernel,
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9))
                .collect(),
            heap: (0..512u64).map(|i| i.wrapping_mul(0x2545_f491)).collect(),
            state: 0x1234_5678_9abc_def1,
            next_ms: 0.0,
            samples: Vec::new(),
        }
    }

    fn step(x: &mut u64) {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
    }

    fn table_kernel(&mut self) -> u64 {
        let mut x = self.state;
        let mut acc = 0u64;
        let mask = TABLE_WORDS - 1;
        for _ in 0..STEPS {
            Self::step(&mut x);
            let i = (x as usize) & mask;
            let v = self.table[i].wrapping_add(x);
            self.table[i] = v;
            match v & 3 {
                0 => {
                    let top = self.heap.pop().unwrap_or(0);
                    self.heap.push(top.wrapping_add(v) >> 1);
                }
                1 => acc ^= self.table[(i.wrapping_mul(7) + 1) & mask],
                _ => acc = acc.rotate_left(5).wrapping_add(v),
            }
        }
        self.state = x;
        acc
    }

    fn dispatch_kernel(&mut self) -> u64 {
        let fns: [fn(u64) -> u64; 8] = [
            |x| x.wrapping_mul(3),
            |x| x ^ 0x55,
            |x| x.rotate_left(7),
            |x| x.wrapping_add(0x1234),
            |x| x >> 1 | 1,
            |x| x.wrapping_sub(99),
            |x| !x,
            |x| x.swap_bytes(),
        ];
        let mut x = self.state | 1;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            Self::step(&mut x);
            let f = std::hint::black_box(&fns)[(x & 7) as usize];
            acc = f(acc ^ x);
            if x & 0x100 != 0 {
                acc = acc.wrapping_add(1);
            } else {
                acc ^= 3;
            }
        }
        self.state = x;
        acc
    }

    fn kernel(&mut self) -> u64 {
        match self.kernel {
            Kernel::Table => self.table_kernel(),
            Kernel::Dispatch => self.dispatch_kernel(),
        }
    }

    /// Times one kernel call, records it at window time `at_ms` and
    /// returns its time in milliseconds. An untimed call first brings the
    /// kernel's state back into cache, so what the program left in the
    /// caches does not reach the sample.
    pub fn sample(&mut self, at_ms: f64) -> f64 {
        std::hint::black_box(self.kernel());
        let watch = Stopwatch::start();
        std::hint::black_box(self.kernel());
        let ms = watch.elapsed_ms();
        self.samples.push((at_ms, ms));
        ms
    }

    /// Samples the kernel if `INTERVAL_MS` has passed since the last
    /// sample. Call it between operations, never inside a timed one.
    pub fn tick(&mut self, at_ms: f64) {
        if at_ms >= self.next_ms {
            self.sample(at_ms);
            self.next_ms = at_ms + INTERVAL_MS;
        }
    }

    /// Scale for a span timed between two samples taken `before` and
    /// `after` it (kernel milliseconds).
    pub fn scale_between(&self, before: f64, after: f64) -> f64 {
        self.kernel.reference_ms() * 2.0 / (before + after)
    }

    /// Scale for an operation centred on window time `mid_ms`: the
    /// reference time over the median kernel time within `SMOOTH_MS`, or
    /// over the nearest sample when none is that close.
    pub fn scale_at(&self, mid_ms: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < mid_ms - SMOOTH_MS);
        let hi = self.samples.partition_point(|s| s.0 <= mid_ms + SMOOTH_MS);
        let mut near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        if near.is_empty() {
            let nearest = self
                .samples
                .iter()
                .min_by(|a, b| (a.0 - mid_ms).abs().total_cmp(&(b.0 - mid_ms).abs()));
            near.extend(nearest.map(|s| s.1));
        }
        self.kernel.reference_ms() / median(&mut near)
    }

    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time of the run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&mut all)
    }

    /// Scale for the whole run: the reference time over the median sample.
    pub fn scale(&self) -> f64 {
        self.kernel.reference_ms() / self.median_ms()
    }
}
