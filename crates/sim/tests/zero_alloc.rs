//! Pins the zero-allocation contract of the reusable-workspace hot path:
//! once a [`SimWorkspace`] is warmed, a run with no recorder attached
//! performs only a tiny, *horizon-independent* number of heap
//! allocations (the report's policy-name `String` and nothing per
//! event). Every run counts its job facts into a plain per-run tally (an
//! inline array in the workspace), so counting allocates nothing. A run
//! with a [`Registry`] handle attached — the daemon's per-request shape
//! — allocates exactly as often as a detached one: it adds histogram
//! samples to the same tally, the handle absorbs it once, and a
//! recorder that wants no events receives none. The paper's three
//! policies run too, under a permanent fault mid-run plus transients,
//! so optional jobs, abandonment, lost copies and faulted copies all
//! pass through the measured windows. A counting `#[global_allocator]`
//! makes regressions — a reintroduced per-event `clone()`, an ungated
//! capture push, a `format!` in the event loop — fail loudly rather
//! than silently costing throughput.
//!
//! The library itself forbids unsafe code; the allocator shim lives
//! here, in the test crate, where `unsafe` is unavoidable by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mkss_core::prelude::*;
use mkss_obs::{CounterId, EngineEvent, MetricsSnapshot, Recorder, Registry};
use mkss_policies::{BuildOptions, PolicyKind};
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

/// Runs `policy` on a warmed `ws` at the two horizons and returns the
/// per-run allocation count, asserting that it does not grow with the
/// horizon and stays within the constant per-run overhead.
fn allocations_per_run<P: Policy + ?Sized>(
    label: &str,
    ws: &mut SimWorkspace,
    ts: &TaskSet,
    policy: &mut P,
    (short, long): (&SimConfig, &SimConfig),
) -> u64 {
    let short_allocs = allocations_during(|| {
        std::hint::black_box(simulate_in(ws, ts, policy, short));
    });
    let long_allocs = allocations_during(|| {
        std::hint::black_box(simulate_in(ws, ts, policy, long));
    });
    // 4x the horizon => 4x the events. Any per-event allocation shows
    // up as a difference between the two counts.
    assert_eq!(
        short_allocs, long_allocs,
        "{label}: per-event allocations detected: {short_allocs} allocs \
         at 400 ms vs {long_allocs} at 1600 ms"
    );
    // The constant per-run overhead is the report's policy-name String
    // (plus dropping the report). Allow slack for allocator-internal
    // bookkeeping, but a stray clone of a queue would blow well past it.
    assert!(
        long_allocs <= 4,
        "{label}: hot path allocates too much per run: {long_allocs} allocations"
    );
    long_allocs
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
        let allocs = allocations_per_run(label, &mut ws, &ts, &mut Dup, (&short, &long));
        per_run.push((label, allocs));
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

    // The paper's policies on a detached workspace, on a Section-V set
    // at (m,k)-utilization 0.7 (`mkss-cli generate --util 0.7 --seed 6`,
    // heavy enough that Selective abandons optional jobs), under the
    // primary's permanent fault at 203 ms (copies are running then) plus
    // transients. After the failover a transient on the survivor is a
    // second fault on one job, outside the standby-sparing model
    // (EXPERIMENTS §3c), so at this rate most fault seeds break (m,k)
    // on this set; seed 21 keeps its four transients inside the model,
    // which `mk_assured` checks. Each policy is built before
    // anything is measured.
    let section_v = TaskSet::new(
        [
            (5, 729, 2, 3),
            (8, 1_489, 1, 12),
            (16, 908, 1, 11),
            (23, 3_710, 9, 11),
            (31, 5_104, 15, 17),
            (40, 6_366, 4, 5),
            (49, 9_212, 17, 18),
        ]
        .into_iter()
        .map(|(p, c, m, k)| {
            Task::new(Time::from_ms(p), Time::from_ms(p), Time::from_us(c), m, k).unwrap()
        })
        .collect(),
    )
    .unwrap();
    let faults = FaultConfig::combined(ProcId::PRIMARY, Time::from_ms(203), 0.001, 21);
    let short = SimConfig::builder().horizon_ms(400).faults(faults).build();
    let long = SimConfig::builder().horizon_ms(1600).faults(faults).build();
    let mut ws = SimWorkspace::new();
    let mut covered = JobStats::default();
    for kind in PolicyKind::PAPER {
        let mut policy = kind
            .build(&section_v, &BuildOptions::default())
            .expect("the set is R-pattern schedulable");
        let warm = simulate_in(&mut ws, &section_v, policy.as_mut(), &long);
        assert!(warm.mk_assured(), "{}: {:?}", kind.id(), warm.violations);
        covered.optional_selected += warm.stats.optional_selected;
        covered.optional_abandoned += warm.stats.optional_abandoned;
        covered.copies_lost += warm.stats.copies_lost;
        covered.transient_faults += warm.stats.transient_faults;
        let short_run = simulate_in(&mut ws, &section_v, policy.as_mut(), &short);
        assert!(
            short_run.mk_assured(),
            "{}: {:?}",
            kind.id(),
            short_run.violations
        );
        allocations_per_run(
            kind.id(),
            &mut ws,
            &section_v,
            policy.as_mut(),
            (&short, &long),
        );
    }
    // The measured runs went through every path the policies add.
    assert!(
        covered.optional_selected > 0
            && covered.optional_abandoned > 0
            && covered.copies_lost > 0
            && covered.transient_faults > 0,
        "a fault or optional-job path went unexercised: {covered:?}"
    );
}
