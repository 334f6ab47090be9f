//! Pins the zero-allocation contract of the reusable-workspace hot path:
//! once a [`SimWorkspace`] is warmed, a run with no recorder attached
//! performs only a tiny, *horizon-independent* number of heap
//! allocations (the report's policy-name `String` and nothing per
//! event). Every run counts its job facts into a plain per-run tally (an
//! inline array in the workspace), so counting allocates nothing. A run
//! with a [`Registry`] handle attached — the daemon's per-request shape
//! — allocates exactly as often as a detached one: it adds histogram
//! samples to the same tally, the handle absorbs it once, and a
//! recorder that wants no events receives none. A counting
//! `#[global_allocator]` makes regressions — a reintroduced per-event
//! `clone()`, an ungated capture push — fail loudly rather than
//! silently costing throughput.
//!
//! The library itself forbids unsafe code; the allocator shim lives
//! here, in the test crate, where `unsafe` is unavoidable by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mkss_core::prelude::*;
use mkss_obs::{CounterId, EngineEvent, MetricsSnapshot, Recorder, Registry};
use mkss_sim::prelude::*;

/// Passthrough to the system allocator that counts allocation calls
/// (`alloc` and `realloc`; frees are irrelevant to the contract).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation-free policy: duplicates every job with a fixed placement,
/// exercising both processors, cancellation, and deadline resolution.
struct Dup;
impl Policy for Dup {
    fn name(&self) -> &str {
        "dup"
    }
    fn on_release(&mut self, _: &ReleaseCtx<'_>) -> ReleaseDecision {
        ReleaseDecision::Mandatory {
            main_proc: ProcId::PRIMARY,
            backup_delay: Time::from_ms(1),
        }
    }
}

/// A counting-only recorder that tallies how often the engine calls it.
#[derive(Default)]
struct CallCounter {
    absorbs: AtomicU64,
    events: AtomicU64,
}

impl Recorder for CallCounter {
    fn absorb(&self, _tally: &MetricsSnapshot) {
        self.absorbs.fetch_add(1, Ordering::Relaxed);
    }

    fn event(&self, _event: &EngineEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// Minimum allocation count over several repetitions. The global
/// counter also sees the test harness's own threads (progress output,
/// buffering); taking the minimum filters that unrelated noise out of
/// the measured window.
#[expect(
    clippy::unwrap_used,
    reason = "test helper: the range has eight repetitions, so min() is Some"
)]
fn allocations_during(mut f: impl FnMut()) -> u64 {
    (0..8)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            f();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// One test function (not several) so no sibling test's allocations can
/// interleave with the measured windows.
#[test]
fn warmed_workspace_runs_allocate_constantly_and_sparsely() {
    // Sanity: the shim actually counts.
    let probe = allocations_during(|| {
        std::hint::black_box(Vec::<u64>::with_capacity(32));
    });
    assert!(probe >= 1, "counting allocator is not wired up");

    let ts = TaskSet::new(vec![
        Task::from_ms(5, 5, 2, 2, 3).unwrap(),
        Task::from_ms(10, 10, 3, 1, 2).unwrap(),
        Task::from_ms(20, 20, 4, 3, 4).unwrap(),
    ])
    .unwrap();
    let short = SimConfig::builder().horizon_ms(400).build();
    let long = SimConfig::builder().horizon_ms(1600).build();

    let registry = Arc::new(Registry::new(1));
    let calls = Arc::new(CallCounter::default());
    let detached = SimWorkspace::new();
    let attached = SimWorkspace::with_recorder(Arc::new(registry.handle_at(0)));
    let counting = SimWorkspace::with_recorder(Arc::clone(&calls) as Arc<dyn Recorder>);
    let mut per_run = Vec::new();
    for (label, mut ws) in [
        ("no recorder", detached),
        ("registry handle", attached),
        ("call counter", counting),
    ] {
        // Warm at the *longest* horizon so every arena reaches
        // steady-state capacity before anything is measured.
        let warm = simulate_in(&mut ws, &ts, &mut Dup, &long);
        assert!(warm.mk_assured());

        let short_allocs = allocations_during(|| {
            std::hint::black_box(simulate_in(&mut ws, &ts, &mut Dup, &short));
        });
        let long_allocs = allocations_during(|| {
            std::hint::black_box(simulate_in(&mut ws, &ts, &mut Dup, &long));
        });

        // 4x the horizon => 4x the events. Any per-event allocation
        // shows up as a difference between the two counts.
        assert_eq!(
            short_allocs, long_allocs,
            "{label}: per-event allocations detected: {short_allocs} allocs \
             at 400 ms vs {long_allocs} at 1600 ms"
        );
        // The constant per-run overhead is the report's policy-name
        // String (plus dropping the report). Allow slack for
        // allocator-internal bookkeeping, but a stray clone of a queue
        // would blow well past it.
        assert!(
            long_allocs <= 4,
            "{label}: hot path allocates too much per run: {long_allocs} allocations"
        );
        per_run.push((label, long_allocs));
    }
    // An attached recorder costs no allocation of its own.
    assert!(
        per_run.iter().all(|&(_, allocs)| allocs == per_run[0].1),
        "attached runs allocate differently from detached ones: {per_run:?}"
    );
    // The attached runs really went through the recorder.
    assert!(registry.snapshot().counter(CounterId::JobsReleased) > 0);
    // One absorb per run (the warm-up plus 8 + 8 measured), and no
    // structured event for a recorder that does not want them.
    assert_eq!(calls.absorbs.load(Ordering::Relaxed), 17);
    assert_eq!(calls.events.load(Ordering::Relaxed), 0);
}
