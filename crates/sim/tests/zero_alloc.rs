//! Pins the zero-allocation contract of the reusable-workspace hot path:
//! once a [`SimWorkspace`] is warmed, a run with no recorder attached
//! performs only a tiny, *horizon-independent* number of heap
//! allocations (the report's policy-name `String` and nothing per
//! event). The same holds with a [`Registry`] handle attached — the
//! daemon's per-request shape — even though every closed execution
//! segment then reaches the recorder as an event. A counting
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
use mkss_obs::{CounterId, Registry};
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

/// Minimum allocation count over several repetitions. The global
/// counter also sees the test harness's own threads (progress output,
/// buffering); taking the minimum filters that unrelated noise out of
/// the measured window.
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
    let detached = SimWorkspace::new();
    let attached = SimWorkspace::with_recorder(Arc::new(registry.handle_at(0)));
    for (label, mut ws) in [("no recorder", detached), ("registry handle", attached)] {
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
    }
    // The attached runs really went through the recorder.
    assert!(registry.snapshot().counter(CounterId::JobsReleased) > 0);
}
