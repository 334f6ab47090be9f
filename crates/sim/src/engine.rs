//! The deterministic discrete-event simulator for the dual-processor
//! standby-sparing system.
//!
//! The engine implements the mechanics shared by all of the paper's
//! schemes:
//!
//! * per-processor preemptive fixed-priority dispatch with a mandatory
//!   job queue (MJQ) strictly above an optional job queue (OJQ)
//!   (Algorithm 1);
//! * optional jobs are only dispatched while they can still finish by
//!   their deadline, otherwise they are abandoned ("O11 will not be
//!   invoked at all", Section III); within the OJQ, less flexible jobs
//!   (smaller flexibility degree at release) run first (footnote 1);
//! * sibling cancellation: the instant any copy of a mandatory job
//!   completes fault-free, the other copy is canceled (line 3 of
//!   Algorithm 1);
//! * transient faults are detected at the end of each execution; a
//!   faulted copy consumed its full time but produced nothing;
//! * at most one permanent fault kills a processor; the survivor takes
//!   over (future mandatory jobs run as single copies on it);
//! * outcome bookkeeping: per-task execution histories (for the dynamic
//!   flexibility-degree classification) and sliding (m,k)-monitors (to
//!   report violations);
//! * DPD energy accounting: busy intervals cost `p_active`; each maximal
//!   idle interval longer than `T_be` is charged the break-even shutdown
//!   cost, shorter ones idle (Section II-A).
//!
//! What a [`Policy`] contributes is only the per-release decision: is the
//! job mandatory (and where do main/backup go, with what backup delay) or
//! optional (selected on which processor, or skipped).
//!
//! ## Sessions and throughput
//!
//! Every experiment in the repo bottoms out in millions of calls into
//! this module, so the inner loop is engineered to touch the heap only
//! when a run grows past everything seen before: all per-run state
//! (copies, job entries, task states, the ready/open index lists)
//! lives in a reusable [`SimWorkspace`] arena. [`simulate_in`] runs one
//! simulation inside a caller-owned workspace, so a sweep that
//! simulates thousands of task sets reuses the same capacity
//! throughout; [`simulate`] is the convenience wrapper that creates a
//! throwaway workspace per call. With no recorder attached the
//! steady-state event loop performs **zero** allocations per event.
//!
//! Time advances on a pre-sized *event calendar* (a workspace-owned
//! binary min-heap of typed entries — task releases, postponed copy
//! releases, deadlines, running-copy completions, and the permanent
//! fault) with lazy invalidation: entries are never removed when state
//! changes; stale ones are discarded as they surface at the top. See
//! [`EventCalendar`] and DESIGN.md §3 for the full mechanism.
//!
//! ## Observability
//!
//! The engine optionally narrates itself through a
//! [`Recorder`](mkss_obs::Recorder) attached to the workspace
//! ([`SimWorkspace::set_recorder`] / [`SimWorkspace::with_recorder`]):
//! job releases and resolutions, mandatory/optional classification,
//! backup release and postponement (`r̃ = r + θ`), backup cancellation,
//! fault injection and recovery, the (m,k) distance-to-violation at
//! each resolution, and every closed execution segment. Counters and
//! histogram samples go into a plain per-run tally (a
//! [`MetricsSnapshot`]) that the recorder absorbs once when the run
//! finishes; structured events are delivered one by one, and only to a
//! recorder whose `wants_events()` is true. That event stream is the
//! engine's only capture path: a [`TraceRecorder`] captures it into a
//! [`TraceBuffer`], and the schedule [`Trace`] decodes that buffer
//! ([`simulate_traced`]). The recorder lives on the workspace rather
//! than on [`SimConfig`] because the config stays `Copy + PartialEq +
//! Serialize`, which a trait-object handle cannot be. Recorders only
//! observe — they never feed back into the run — so a recorder-on
//! report is byte-identical to a recorder-off one, and with no recorder
//! attached each emit site costs a single branch (the zero-allocation
//! contract above is unchanged).

use mkss_core::history::{JobOutcome, MkHistory};
use mkss_core::job::{CopyKind, Job, JobClass};
use mkss_core::mk::MkMonitor;
use mkss_core::task::{TaskId, TaskSet};
use mkss_core::time::Time;
use mkss_obs::{
    segment_payload, CopyRole, CounterId, EngineEvent, HistogramId, MetricsSnapshot, Recorder,
    TraceBuffer, TraceKind, TraceRecorder, PROC_NONE,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::fault::{FaultConfig, TransientSampler};
use crate::policy::{Policy, ReleaseCtx, ReleaseDecision};
use crate::power::{EnergyBreakdown, PowerModel};
use crate::proc::ProcId;
use crate::report::{JobStats, MkViolation, SimReport};
use crate::trace::{SegmentEnd, Trace};

/// Configuration of one simulation run.
///
/// Construct with [`SimConfig::new`] / [`SimConfig::active_only`] for the
/// common cases, or with the builder for anything else:
///
/// ```
/// use mkss_core::time::Time;
/// use mkss_sim::engine::SimConfig;
///
/// let config = SimConfig::builder().horizon(Time::from_ms(500)).build();
/// assert_eq!(config.horizon, Time::from_ms(500));
/// ```
///
/// The struct is `#[non_exhaustive]`: fields stay readable and
/// assignable, but downstream struct literals must go through the
/// builder so future knobs are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SimConfig {
    /// Simulated span `[0, horizon)`. Only jobs whose absolute deadline
    /// lies within the horizon are released, so every released job is
    /// fully accounted for.
    pub horizon: Time,
    /// Power model for energy accounting.
    pub power: PowerModel,
    /// Fault injection.
    pub faults: FaultConfig,
}

impl SimConfig {
    /// Fault-free configuration with the default power model.
    pub fn new(horizon: Time) -> Self {
        SimConfig {
            horizon,
            power: PowerModel::default(),
            faults: FaultConfig::none(),
        }
    }

    /// Same, but counting only active energy (the motivating examples'
    /// accounting).
    pub fn active_only(horizon: Time) -> Self {
        SimConfig {
            power: PowerModel::active_only(),
            ..SimConfig::new(horizon)
        }
    }

    /// Starts a builder with the defaults of [`SimConfig::new`] and a
    /// zero horizon; set the horizon before [`SimConfigBuilder::build`].
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::new(Time::ZERO),
        }
    }
}

/// Builder for [`SimConfig`]; see [`SimConfig::builder`].
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `.build()` is called"]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the simulated span `[0, horizon)`.
    pub fn horizon(mut self, horizon: Time) -> Self {
        self.config.horizon = horizon;
        self
    }

    /// Sets the horizon in whole milliseconds.
    pub fn horizon_ms(self, ms: u64) -> Self {
        self.horizon(Time::from_ms(ms))
    }

    /// Sets the power model for energy accounting.
    pub fn power(mut self, power: PowerModel) -> Self {
        self.config.power = power;
        self
    }

    /// Switches to active-only energy accounting, mirroring
    /// [`SimConfig::active_only`] (the motivating examples'
    /// configuration).
    pub fn active_only(self) -> Self {
        self.power(PowerModel::active_only())
    }

    /// Sets the fault-injection configuration.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.config.faults = faults;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SimConfig {
        self.config
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyState {
    /// Waiting for its (possibly postponed) release, ready, or running.
    Pending,
    /// Finished executing; `faulted` if a transient fault hit it.
    Done { faulted: bool },
    /// Canceled because the sibling copy succeeded.
    Canceled,
    /// Optional copy abandoned (could no longer meet its deadline), or a
    /// copy whose job already missed.
    Abandoned,
    /// Destroyed by the permanent fault.
    Lost,
}

#[derive(Debug)]
struct CopyInst {
    job: Job,
    kind: CopyKind,
    proc: ProcId,
    release: Time,
    remaining: Time,
    state: CopyState,
    sibling: Option<usize>,
    /// Flexibility degree of the job at release (OJQ ordering key;
    /// mandatory copies store 0 and never use it).
    fd_at_release: u32,
    /// Set while this copy occupies a processor (segment start).
    running_since: Option<Time>,
    job_entry: usize,
    /// Position of this copy in `SimWorkspace::active_copies` while it is
    /// `Pending` (O(1) swap-remove on the state transition out).
    active_slot: usize,
}

/// A released job has at most two copies (main + backup); storing their
/// indices inline keeps [`JobEntry`] allocation-free.
#[derive(Debug)]
struct JobEntry {
    job: Job,
    resolved: bool,
    copies: [usize; 2],
    copy_count: u8,
    /// Position of this job in `SimWorkspace::open_jobs` while it is
    /// unresolved (O(1) swap-remove at resolution).
    open_slot: usize,
}

#[derive(Debug)]
struct TaskState {
    next_index: u64,
    history: MkHistory,
    monitor: MkMonitor,
    exhausted: bool,
}

/// What a calendar entry announces. Each variant carries enough identity
/// to re-validate itself against the live engine state ([lazy
/// invalidation](EventCalendar)), so no entry ever needs to be removed
/// from the middle of the heap when plans change.
///
/// Running-copy completions and job deadlines are deliberately *not*
/// calendar entries — the calendar holds the event classes whose live
/// instances the engine does not already index:
///
/// * with at most one running copy per processor, `clock + remaining`
///   read straight off the `running` array is already the completion
///   time, and keeping completions out of the heap spares it the most
///   frequent (and, under preemption, most frequently restranded)
///   entry class;
/// * unresolved deadlines are exactly the `open_jobs` list — a handful
///   of entries, bounded by the jobs in flight — and most jobs resolve
///   well before their deadline, so per-job entries would roughly
///   double heap traffic only to go stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// The next release of `task`; live while `next_index == index` and
    /// the task is not exhausted. Every non-exhausted task keeps exactly
    /// one live entry: `process_releases` pushes the successor whenever
    /// it advances `next_index`.
    TaskRelease { task: TaskId, index: u64 },
    /// The future (postponed) release of an already-created copy — the
    /// backup promotion `r̃ = r + θ`. Live while the copy is `Pending`
    /// and its release is still ahead of the clock.
    CopyRelease { copy: usize },
    /// The configured permanent-fault injection; live until applied.
    Fault,
}

/// One scheduled occurrence in the event calendar: the fire time plus the
/// [`EventKind`] packed into one word (2-bit variant tag in the low bits,
/// payload above), keeping the entry at 16 bytes so sift operations move
/// half the memory a naive `(Time, EventKind)` pair would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CalendarEntry {
    time: Time,
    packed: u64,
}

const TAG_TASK_RELEASE: u64 = 0;
const TAG_COPY_RELEASE: u64 = 1;
const TAG_FAULT: u64 = 3;

impl CalendarEntry {
    fn new(time: Time, kind: EventKind) -> Self {
        let packed = match kind {
            EventKind::TaskRelease { task, index } => {
                // 16 bits of task id and 46 of job index are far beyond
                // any enumerable horizon.
                debug_assert!(task.0 < (1 << 16) && index < (1 << 46));
                (index << 18) | ((task.0 as u64) << 2) | TAG_TASK_RELEASE
            }
            EventKind::CopyRelease { copy } => ((copy as u64) << 2) | TAG_COPY_RELEASE,
            EventKind::Fault => TAG_FAULT,
        };
        CalendarEntry { time, packed }
    }

    fn kind(self) -> EventKind {
        match self.packed & 0b11 {
            TAG_TASK_RELEASE => EventKind::TaskRelease {
                task: TaskId(((self.packed >> 2) & 0xFFFF) as usize),
                index: self.packed >> 18,
            },
            TAG_COPY_RELEASE => EventKind::CopyRelease {
                copy: (self.packed >> 2) as usize,
            },
            _ => EventKind::Fault,
        }
    }
}

/// Pre-sized binary min-heap of timed events, keyed by [`Time`].
///
/// Cancellations (a canceled backup, a preempted copy, a resolved job)
/// never perform heap surgery: the entry simply goes *stale* and is
/// discarded when it reaches the top ([`Engine::entry_live`]). Staleness
/// is monotone — arena indices are never reused within a run and every
/// state transition an entry checks is one-way — so a discarded entry
/// can never become live again, and no generation counters are needed.
///
/// The heap is hand-rolled over a workspace-owned `Vec` (rather than
/// `std::collections::BinaryHeap`) so `begin_run` can clear and pre-size
/// it while retaining capacity: pushes inside the hot-path region then
/// stay allocation-free in steady state. Layout depends only on the
/// push/pop sequence, never on capacity, so fresh and reused workspaces
/// behave identically.
#[derive(Debug, Default)]
struct EventCalendar {
    heap: Vec<CalendarEntry>,
}

impl EventCalendar {
    fn clear(&mut self) {
        self.heap.clear();
    }

    fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    fn push(&mut self, time: Time, kind: EventKind) {
        self.heap.push(CalendarEntry::new(time, kind));
        self.sift_up(self.heap.len() - 1);
    }

    fn peek(&self) -> Option<CalendarEntry> {
        self.heap.first().copied()
    }

    fn pop(&mut self) -> Option<CalendarEntry> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let top = self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        top
    }

    // Both sifts move the displaced entry into a hole instead of
    // swapping pairwise — same comparison sequence (so the exact same
    // final layout), half the writes.

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].time <= item.time {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = item;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let item = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].time < self.heap[left].time {
                right
            } else {
                left
            };
            if item.time <= self.heap[child].time {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = item;
    }
}

/// Reusable per-run state of the simulator: an arena for copies, job
/// entries, task states, the active/open index lists, and scratch
/// buffers.
///
/// A workspace owns no results — every [`simulate_in`] call resets it —
/// but it *retains capacity*, so back-to-back simulations stop paying
/// for allocation and the hot loop runs heap-free in steady state (with
/// no recorder attached). One workspace serves any number of task
/// sets, policies, and configurations, in any order:
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_sim::prelude::*;
/// # use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
/// # struct Dup;
/// # impl Policy for Dup {
/// #     fn name(&self) -> &str { "dup" }
/// #     fn on_release(&mut self, _ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
/// #         ReleaseDecision::Mandatory {
/// #             main_proc: ProcId::PRIMARY,
/// #             backup_delay: Time::ZERO,
/// #         }
/// #     }
/// # }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2)?])?;
/// let config = SimConfig::builder().horizon_ms(100).build();
/// let mut ws = SimWorkspace::new();
/// for _ in 0..3 {
///     let report = simulate_in(&mut ws, &ts, &mut Dup, &config);
///     assert!(report.mk_assured());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SimWorkspace {
    copies: Vec<CopyInst>,
    jobs: Vec<JobEntry>,
    tasks: Vec<TaskState>,
    /// Indices of copies that may still need CPU time (lazily pruned of
    /// terminal-state copies to keep per-event scans O(active)).
    active_copies: Vec<usize>,
    /// Indices of jobs not yet resolved (lazily pruned).
    open_jobs: Vec<usize>,
    /// Scratch for deadline resolution (kept for its capacity).
    due_scratch: Vec<usize>,
    /// Jobs whose deadline entry fired at the chosen next event time;
    /// drained (sorted into release order) by the following iteration's
    /// resolution phase. At most one job per task can share an instant,
    /// so `begin_run` pre-sizes it to the task count.
    deadline_scratch: Vec<usize>,
    /// The event calendar driving time advance; cleared and pre-sized at
    /// checkout, capacity retained across runs.
    calendar: EventCalendar,
    /// Merged busy intervals per processor, in time order.
    busy: [Vec<(Time, Time)>; 2],
    /// Optional event sink; survives `begin_run` so one attachment
    /// covers every simulation run through this workspace.
    recorder: RecorderSlot,
    /// The run's counter and histogram tally, counted only while a
    /// recorder is attached and absorbed by it once, in `finish`.
    tally: MetricsSnapshot,
}

/// Wrapper keeping `SimWorkspace`'s `derive(Debug, Default)` while
/// holding a non-`Debug` trait object.
#[derive(Default)]
struct RecorderSlot(Option<Arc<dyn Recorder>>);

impl std::fmt::Debug for RecorderSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "Recorder(attached)"
        } else {
            "Recorder(none)"
        })
    }
}

impl SimWorkspace {
    /// Creates an empty workspace. Capacity grows on first use and is
    /// retained across runs.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Creates an empty workspace with `recorder` already attached.
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> Self {
        let mut ws = SimWorkspace::default();
        ws.set_recorder(Some(recorder));
        ws
    }

    /// Attaches (or with `None`, detaches) the event sink that every
    /// subsequent [`simulate_in`] call through this workspace reports to.
    ///
    /// Recorders observe the run without influencing it: the produced
    /// [`SimReport`] is byte-identical with and without one attached.
    pub fn set_recorder(&mut self, recorder: Option<Arc<dyn Recorder>>) {
        self.recorder = RecorderSlot(recorder);
    }

    /// True when an event sink is attached.
    pub fn has_recorder(&self) -> bool {
        self.recorder.0.is_some()
    }

    /// Clears per-run state, keeping every allocation. Task states are
    /// reset in place when the task-set shape matches the previous run.
    fn begin_run(&mut self, ts: &TaskSet) {
        self.copies.clear();
        self.jobs.clear();
        self.active_copies.clear();
        self.open_jobs.clear();
        self.due_scratch.clear();
        self.deadline_scratch.clear();
        self.deadline_scratch.reserve(ts.len());
        self.calendar.clear();
        self.tally = MetricsSnapshot::empty();
        // Pre-size the calendar at checkout: one release entry per task,
        // plus copy-release entries for the window of simultaneously
        // pending backups, plus the fault. Steady-state residue is
        // bounded by the same window (stale entries die as the clock
        // passes them), and capacity is retained across runs, so the hot
        // loop itself never grows the heap.
        self.calendar.reserve(4 * ts.len() + 8);
        for intervals in &mut self.busy {
            intervals.clear();
        }
        let reusable = self.tasks.len() == ts.len()
            && self
                .tasks
                .iter()
                .zip(ts.iter())
                .all(|(state, (_, task))| state.history.constraint() == task.mk());
        if reusable {
            for state in &mut self.tasks {
                state.next_index = 1;
                state.history.reset();
                state.monitor.reset();
                state.exhausted = false;
            }
        } else {
            self.tasks.clear();
            self.tasks.extend(ts.iter().map(|(_, task)| TaskState {
                next_index: 1,
                history: MkHistory::new(task.mk()),
                monitor: MkMonitor::new(task.mk()),
                exhausted: false,
            }));
        }
    }
}

/// Runs one simulation of `policy` on `ts`.
///
/// The run is fully deterministic given `config` (transient faults use a
/// seeded RNG). This is a thin wrapper over [`simulate_in`] with a
/// throwaway [`SimWorkspace`]; batch callers should hold a workspace and
/// call [`simulate_in`] directly to amortize the allocations.
///
/// # Examples
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_sim::engine::{simulate, SimConfig};
/// use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
/// use mkss_sim::proc::ProcId;
///
/// /// Every job mandatory, mains on the primary, backups concurrent.
/// struct Naive;
/// impl Policy for Naive {
///     fn name(&self) -> &str { "naive" }
///     fn on_release(&mut self, _ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
///         ReleaseDecision::Mandatory {
///             main_proc: ProcId::PRIMARY,
///             backup_delay: Time::ZERO,
///         }
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2)?])?;
/// let report = simulate(&ts, &mut Naive, &SimConfig::active_only(Time::from_ms(20)));
/// assert!(report.mk_assured());
/// // Two jobs, each 2 ms on both processors… minus the cancellation:
/// // main and backup start together, so both run to completion.
/// assert!((report.active_energy().units() - 8.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn simulate<P: Policy + ?Sized>(ts: &TaskSet, policy: &mut P, config: &SimConfig) -> SimReport {
    let mut ws = SimWorkspace::new();
    simulate_in(&mut ws, ts, policy, config)
}

/// [`simulate`], plus the schedule [`Trace`] decoded from the run's
/// whole event stream (the report is unchanged).
pub fn simulate_traced<P: Policy + ?Sized>(
    ts: &TaskSet,
    policy: &mut P,
    config: &SimConfig,
) -> (SimReport, Trace) {
    let whole_run = TraceBuffer::with_capacity(usize::MAX);
    let recorder = Arc::new(TraceRecorder::new(whole_run, None));
    let mut ws = SimWorkspace::with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let report = simulate_in(&mut ws, ts, policy, config);
    (report, Trace::from(&recorder.take()))
}

/// Runs one simulation of `policy` on `ts` inside a caller-owned
/// [`SimWorkspace`], reusing its capacity.
///
/// The report is **bit-identical** to what [`simulate`] produces for the
/// same inputs, regardless of what the workspace was previously used
/// for; reuse changes only where the intermediate state lives. See
/// [`SimWorkspace`] for an example.
pub fn simulate_in<P: Policy + ?Sized>(
    ws: &mut SimWorkspace,
    ts: &TaskSet,
    policy: &mut P,
    config: &SimConfig,
) -> SimReport {
    ws.begin_run(ts);
    Engine::new(ts, config, ws, TimeAdvance::Calendar).run(policy)
}

/// How [`Engine::run`] finds the next event time. `Calendar` is the
/// production path; `Scan` re-derives it with linear scans over all
/// state (the pre-calendar engine, kept as a reference oracle — it also
/// cross-checks the calendar via a `debug_assert_eq!` on every step of
/// every debug-build run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimeAdvance {
    Calendar,
    #[cfg(test)]
    Scan,
}

struct Engine<'a, 'w> {
    ts: &'a TaskSet,
    config: &'a SimConfig,
    ws: &'w mut SimWorkspace,
    clock: Time,
    running: [Option<usize>; 2],
    alive: [bool; 2],
    death_time: [Option<Time>; 2],
    fault_applied: bool,
    sampler: TransientSampler,
    /// Active energy accumulated per processor.
    active_energy: [crate::power::Energy; 2],
    stats: JobStats,
    violations: Vec<MkViolation>,
    /// Tasks whose release entry fired at the chosen next event time,
    /// as a bitset over task ids (bit 63 is shared by every task with
    /// id ≥ 63). `u64::MAX` means "consider every task" — the first
    /// iteration and the scan oracle use it. The following loop
    /// iteration processes releases only for flagged tasks; processing
    /// a task with nothing due is a no-op, so the mask only ever
    /// over-approximates.
    release_mask: u64,
    /// Copies on each processor changed readiness since the last
    /// dispatch there; cleared once the processor re-picks. While the
    /// flag is off the previous pick is provably still the pick, so
    /// dispatch skips the priority scan entirely.
    dispatch_dirty: [bool; 2],
    /// Lower bound on the earliest time an admitted optional copy on
    /// each processor can become infeasible (`deadline - remaining`,
    /// which only grows as the copy runs). The abandonment scan runs
    /// only once the clock reaches the bound, and recomputes it from
    /// the survivors; `Time::MAX` when no ready optionals exist.
    opt_expiry: [Time; 2],
    /// The attached recorder wants structured events (read once per run).
    events: bool,
    time_advance: TimeAdvance,
}

/// Map the engine's copy kind onto the trace catalog's copy role.
#[inline]
const fn copy_role(kind: CopyKind) -> CopyRole {
    match kind {
        CopyKind::Main => CopyRole::Main,
        CopyKind::Backup => CopyRole::Backup,
        CopyKind::Optional => CopyRole::Optional,
    }
}

impl<'a, 'w> Engine<'a, 'w> {
    /// An engine at time zero over a workspace `begin_run` has reset.
    fn new(
        ts: &'a TaskSet,
        config: &'a SimConfig,
        ws: &'w mut SimWorkspace,
        time_advance: TimeAdvance,
    ) -> Self {
        let events = ws
            .recorder
            .0
            .as_ref()
            .is_some_and(|recorder| recorder.wants_events());
        Engine {
            ts,
            config,
            ws,
            clock: Time::ZERO,
            running: [None, None],
            alive: [true, true],
            death_time: [None, None],
            fault_applied: false,
            sampler: TransientSampler::new(&config.faults),
            active_energy: [crate::power::Energy::ZERO; 2],
            stats: JobStats::default(),
            violations: Vec::new(),
            release_mask: u64::MAX,
            dispatch_dirty: [true; 2],
            opt_expiry: [Time::ZERO; 2],
            events,
            time_advance,
        }
    }

    /// Count one event into the run's tally when a recorder is attached.
    /// One predictable branch when detached, a plain array add when
    /// attached — cheap enough for every emit site.
    #[inline]
    fn emit(&mut self, counter: CounterId) {
        if let Some(_recorder) = &self.ws.recorder.0 {
            self.ws.tally.incr(counter, 1);
        }
    }

    /// Count one histogram sample into the run's tally when a recorder
    /// is attached.
    #[inline]
    fn emit_observe(&mut self, histogram: HistogramId, value: u64) {
        if let Some(_recorder) = &self.ws.recorder.0 {
            self.ws.tally.observe(histogram, value);
        }
    }

    /// Hand one structured event to the attached recorder, if it wants
    /// events — the flight-recorder feed. The event is a stack-built
    /// `Copy` value constructed inside the gate, so the detached cost
    /// stays one predictable branch and zero allocations.
    #[inline]
    #[expect(
        clippy::too_many_arguments,
        reason = "internal: mirrors EngineEvent's field list"
    )]
    fn emit_event(
        &self,
        at: Time,
        kind: TraceKind,
        task: u32,
        job: u32,
        copy: CopyRole,
        proc: u8,
        payload: u64,
    ) {
        if let Some(recorder) = &self.ws.recorder.0 {
            if !self.events {
                return;
            }
            recorder.event(&EngineEvent {
                at_us: at.ticks(),
                kind,
                task,
                job,
                copy,
                proc,
                payload,
            });
        }
    }

    /// Narrate one backup-copy release: postponed (`r̃ = r + θ`, θ > 0)
    /// releases additionally sample θ into the delay histogram. The
    /// structured event carries the *effective* release time `r + θ`
    /// with θ (in ticks) as payload.
    #[inline]
    fn emit_backup_release(
        &mut self,
        backup_delay: Time,
        task: u32,
        job: u32,
        proc: ProcId,
        release: Time,
    ) {
        self.emit(CounterId::BackupsReleased);
        if !backup_delay.is_zero() {
            self.emit(CounterId::BackupsPostponed);
            // Integer div_ceil on ticks: exact for every delay, and no
            // float math inside the recorder gate.
            self.emit_observe(HistogramId::BackupDelayMs, backup_delay.as_ms_ceil());
        }
        self.emit_event(
            release + backup_delay,
            TraceKind::BackupRelease,
            task,
            job,
            CopyRole::Backup,
            proc.index() as u8,
            backup_delay.ticks(),
        );
    }

    // mkss-lint: hot-path begin
    //
    // Everything from here through `close_segment` is the steady-state
    // event loop: with no recorder attached it performs zero
    // allocations per event (PR 2's contract, pinned at runtime by
    // crates/sim/tests/zero_alloc.rs and at review time by the
    // `hot-path-alloc` lint rule). Pushes into workspace-owned buffers
    // are fine — they only allocate past retained capacity — but no
    // fresh allocating constructor may appear in this region.
    fn run<P: Policy + ?Sized>(mut self, policy: &mut P) -> SimReport {
        policy.init(self.ts);
        self.seed_calendar();
        loop {
            self.apply_fault_if_due();
            match self.time_advance {
                TimeAdvance::Calendar => {
                    // Fired calendar entries name exactly the jobs and
                    // tasks each phase must look at; everything else is
                    // provably a no-op and skipped.
                    if !self.ws.deadline_scratch.is_empty() {
                        self.resolve_fired_deadlines();
                    }
                    if self.release_mask != 0 {
                        self.process_releases(policy);
                    }
                }
                #[cfg(test)]
                TimeAdvance::Scan => {
                    // The reference path re-runs every phase against all
                    // state on every iteration, exactly like the
                    // pre-calendar engine.
                    self.resolve_due_deadlines();
                    self.release_mask = u64::MAX;
                    self.process_releases(policy);
                    self.dispatch_dirty = [true; 2];
                    self.opt_expiry = [Time::ZERO; 2];
                }
            }
            self.dispatch();
            let next = match self.time_advance {
                TimeAdvance::Calendar => self.next_event_time(),
                #[cfg(test)]
                TimeAdvance::Scan => self.next_event_time_scan(),
            };
            if let Some(next) = next {
                if next <= self.clock {
                    // A zero-length step means an event source is stuck
                    // at or before the clock; advancing would spin
                    // forever. Hard invariant in every build: flag the
                    // stall and end the run (unresolved jobs miss at the
                    // horizon below) instead of silently spinning.
                    self.emit(CounterId::EngineStalls);
                    self.emit_event(
                        self.clock,
                        TraceKind::EngineStall,
                        0,
                        0,
                        CopyRole::None,
                        PROC_NONE,
                        0,
                    );
                    break;
                }
            }
            debug_assert_eq!(
                next,
                self.next_event_time_scan(),
                "calendar/scan divergence at {}",
                self.clock
            );
            let Some(next) = next else {
                break;
            };
            self.advance_to(next);
            if self.clock >= self.config.horizon {
                break;
            }
        }
        // Everything released has deadline ≤ horizon; resolve stragglers.
        self.clock = self.config.horizon;
        self.resolve_due_deadlines();
        self.finish(policy.name())
    }

    /// Seeds the run's calendar: the permanent fault (if configured) and
    /// the first release of every task. Everything else registers as the
    /// state evolves — releases chain to their successor and postponed
    /// copies enroll at creation (completions are read off the `running`
    /// array, deadlines off the open-job list, not the calendar).
    fn seed_calendar(&mut self) {
        if let Some(pf) = self.config.faults.permanent {
            self.ws.calendar.push(pf.at, EventKind::Fault);
        }
        for (id, task) in self.ts.iter() {
            let index = self.ws.tasks[id.0].next_index;
            self.ws.calendar.push(
                task.release_of(index),
                EventKind::TaskRelease { task: id, index },
            );
        }
    }

    /// Enrolls a freshly created copy in the active list, recording its
    /// slot for the O(1) removal in [`Engine::deactivate_copy`]. Marks
    /// the processor for re-dispatch, and folds an admitted optional's
    /// infeasibility time into the abandonment bound.
    fn activate_copy(&mut self, c: usize) {
        let copy = &mut self.ws.copies[c];
        copy.active_slot = self.ws.active_copies.len();
        let proc = copy.proc.index();
        self.dispatch_dirty[proc] = true;
        if copy.kind == CopyKind::Optional {
            let expiry = copy.job.latest_start(copy.remaining);
            self.opt_expiry[proc] = self.opt_expiry[proc].min(expiry);
        }
        self.ws.active_copies.push(c);
    }

    /// Removes a copy from the active list the moment it leaves
    /// `Pending`, so the dispatch scans stay O(live copies) without a
    /// per-event prune pass. The list is unordered, which no consumer
    /// relies on (dispatch picks by unique priority keys).
    fn deactivate_copy(&mut self, c: usize) {
        self.dispatch_dirty[self.ws.copies[c].proc.index()] = true;
        let slot = self.ws.copies[c].active_slot;
        debug_assert_eq!(
            self.ws.active_copies.get(slot).copied(),
            Some(c),
            "active slot out of sync"
        );
        self.ws.active_copies.swap_remove(slot);
        if let Some(&moved) = self.ws.active_copies.get(slot) {
            self.ws.copies[moved].active_slot = slot;
        }
    }

    /// Same as [`Engine::deactivate_copy`] for the open-job list, at
    /// resolution.
    fn deactivate_job(&mut self, j: usize) {
        let slot = self.ws.jobs[j].open_slot;
        debug_assert_eq!(
            self.ws.open_jobs.get(slot).copied(),
            Some(j),
            "open slot out of sync"
        );
        self.ws.open_jobs.swap_remove(slot);
        if let Some(&moved) = self.ws.open_jobs.get(slot) {
            self.ws.jobs[moved].open_slot = slot;
        }
    }

    // ----- fault handling ---------------------------------------------

    fn apply_fault_if_due(&mut self) {
        if self.fault_applied {
            return;
        }
        let Some(pf) = self.config.faults.permanent else {
            self.fault_applied = true;
            return;
        };
        if pf.at > self.clock {
            return;
        }
        self.fault_applied = true;
        self.emit(CounterId::FaultsInjected);
        self.emit(CounterId::PermanentFaults);
        self.dispatch_dirty = [true; 2];
        let p = pf.proc;
        self.emit_event(
            self.clock,
            TraceKind::PermanentFault,
            0,
            0,
            CopyRole::None,
            p.index() as u8,
            0,
        );
        self.alive[p.index()] = false;
        self.death_time[p.index()] = Some(self.clock);
        if let Some(c) = self.running[p.index()].take() {
            self.close_segment(c, SegmentEnd::Lost);
        }
        // Deactivation swap-removes the current slot, pulling an
        // unexamined entry into it — advance only on keep.
        let mut i = 0;
        while i < self.ws.active_copies.len() {
            let idx = self.ws.active_copies[i];
            debug_assert_eq!(self.ws.copies[idx].state, CopyState::Pending);
            if self.ws.copies[idx].proc == p {
                self.ws.copies[idx].state = CopyState::Lost;
                self.stats.copies_lost += 1;
                self.emit(CounterId::CopiesLost);
                let copy = &self.ws.copies[idx];
                self.emit_event(
                    self.clock,
                    TraceKind::CopyLost,
                    copy.job.id.task.0 as u32,
                    copy.job.id.index as u32,
                    copy_role(copy.kind),
                    p.index() as u8,
                    0,
                );
                self.deactivate_copy(idx);
            } else {
                i += 1;
            }
        }
    }

    // ----- deadline resolution ----------------------------------------

    fn resolve_due_deadlines(&mut self) {
        let mut due = std::mem::take(&mut self.ws.due_scratch);
        due.clear();
        for &j in &self.ws.open_jobs {
            let entry = &self.ws.jobs[j];
            if !entry.resolved && entry.job.deadline <= self.clock {
                due.push(j);
            }
        }
        // `open_jobs` is unordered (swap-remove pruning); restore release
        // order so resolutions land in the same order as the ordered-scan
        // engine did — outcome histories, violations, and the trace all
        // observe it.
        due.sort_unstable();
        for &j in &due {
            let deadline = self.ws.jobs[j].job.deadline;
            self.resolve(j, JobOutcome::Missed, deadline);
        }
        self.ws.due_scratch = due;
    }

    /// Calendar-driven counterpart of [`Engine::resolve_due_deadlines`]:
    /// resolves exactly the jobs whose deadline entry fired at the
    /// current clock, in release (arena) order. A job that completed in
    /// the advance between fire and here is already resolved and skipped
    /// — the same outcome the full scan reaches without the scan.
    fn resolve_fired_deadlines(&mut self) {
        let mut due = std::mem::take(&mut self.ws.deadline_scratch);
        due.sort_unstable();
        for &j in &due {
            if self.ws.jobs[j].resolved {
                continue;
            }
            let deadline = self.ws.jobs[j].job.deadline;
            debug_assert!(deadline <= self.clock, "deadline fired early");
            self.resolve(j, JobOutcome::Missed, deadline);
        }
        due.clear();
        self.ws.deadline_scratch = due;
    }

    fn resolve(&mut self, job_idx: usize, outcome: JobOutcome, at: Time) {
        debug_assert!(!self.ws.jobs[job_idx].resolved);
        self.ws.jobs[job_idx].resolved = true;
        self.deactivate_job(job_idx);
        let job = self.ws.jobs[job_idx].job;
        let tstate = &mut self.ws.tasks[job.id.task.0];
        tstate.history.record(outcome);
        let was_violated = tstate.monitor.violated();
        tstate.monitor.record(outcome.is_met());
        let now_violated = tstate.monitor.violated();
        let distance = tstate.monitor.distance_to_violation();
        let mk = tstate.monitor.constraint();
        self.emit_observe(HistogramId::MkDistance, u64::from(distance));
        let newly_violated = now_violated && !was_violated;
        if newly_violated {
            self.violations.push(MkViolation {
                task: job.id.task,
                job_index: job.id.index,
            });
            self.emit(CounterId::MkViolations);
        }
        match outcome {
            JobOutcome::Met => {
                self.stats.met += 1;
                self.emit(CounterId::JobsMet);
                self.emit_event(
                    at,
                    TraceKind::JobMet,
                    job.id.task.0 as u32,
                    job.id.index as u32,
                    CopyRole::None,
                    PROC_NONE,
                    u64::from(distance),
                );
            }
            JobOutcome::Missed => {
                self.stats.missed += 1;
                self.emit(CounterId::JobsMissed);
                self.emit_event(
                    at,
                    TraceKind::JobMissed,
                    job.id.task.0 as u32,
                    job.id.index as u32,
                    CopyRole::None,
                    PROC_NONE,
                    u64::from(distance),
                );
            }
        }
        if newly_violated {
            // The resolution event precedes this one in the capture
            // stream, so forensics can walk backwards from here and find
            // the tipping job first. Payload packs the constraint.
            self.emit_event(
                at,
                TraceKind::MkViolation,
                job.id.task.0 as u32,
                job.id.index as u32,
                CopyRole::None,
                PROC_NONE,
                (u64::from(mk.m()) << 32) | u64::from(mk.k()),
            );
        }
        if outcome == JobOutcome::Missed {
            // A missed job's remaining copies are useless; stop them.
            let copies = self.ws.jobs[job_idx].copies;
            let count = self.ws.jobs[job_idx].copy_count as usize;
            for &c in &copies[..count] {
                if self.ws.copies[c].state == CopyState::Pending {
                    self.stop_copy(c, CopyState::Abandoned, SegmentEnd::Canceled);
                }
            }
        }
    }

    /// Takes a pending copy off its processor (closing any open segment)
    /// and puts it into a terminal state.
    fn stop_copy(&mut self, c: usize, state: CopyState, ended: SegmentEnd) {
        debug_assert_eq!(self.ws.copies[c].state, CopyState::Pending);
        let proc = self.ws.copies[c].proc;
        if self.running[proc.index()] == Some(c) {
            self.running[proc.index()] = None;
            self.close_segment(c, ended);
        }
        self.ws.copies[c].state = state;
        self.deactivate_copy(c);
    }

    // ----- releases ----------------------------------------------------

    fn process_releases<P: Policy + ?Sized>(&mut self, policy: &mut P) {
        // Consume the fired-release mask; tasks without their bit are
        // provably not due (their release entry did not fire). Only the
        // set bits are visited — in ascending task order, exactly like a
        // full scan — except for the sentinel `u64::MAX` (first
        // iteration, scan oracle) and the shared overflow bit 63 (task
        // ids ≥ 63), which fall back to considering everyone in range.
        let mask = std::mem::take(&mut self.release_mask);
        if mask == u64::MAX {
            for id in self.ts.ids() {
                self.release_due_jobs_of(policy, id);
            }
            return;
        }
        let mut bits = mask & !(1u64 << 63);
        while bits != 0 {
            let id = TaskId(bits.trailing_zeros() as usize);
            bits &= bits - 1;
            self.release_due_jobs_of(policy, id);
        }
        if mask & (1u64 << 63) != 0 {
            for id in self.ts.ids().skip(63) {
                self.release_due_jobs_of(policy, id);
            }
        }
    }

    /// Releases every due job of one task, then chains the calendar to
    /// the task's successor release: the entry for any index consumed
    /// here fired (or will lazily drop), and every non-exhausted task
    /// must keep exactly one live entry.
    fn release_due_jobs_of<P: Policy + ?Sized>(&mut self, policy: &mut P, id: TaskId) {
        let task = self.ts.task(id);
        let start_index = self.ws.tasks[id.0].next_index;
        loop {
            let tstate = &self.ws.tasks[id.0];
            if tstate.exhausted {
                break;
            }
            let index = tstate.next_index;
            // A release or deadline past the clock's top is past every
            // horizon, so it exhausts the task like any later deadline.
            let Some(release) = task.period().checked_mul(index - 1).filter(|release| {
                release
                    .checked_add(task.deadline())
                    .is_some_and(|deadline| deadline <= self.config.horizon)
            }) else {
                self.ws.tasks[id.0].exhausted = true;
                break;
            };
            if release > self.clock {
                break;
            }
            self.ws.tasks[id.0].next_index += 1;
            self.release_job(policy, id, index, release);
        }
        let tstate = &self.ws.tasks[id.0];
        if !tstate.exhausted && tstate.next_index != start_index {
            let index = tstate.next_index;
            self.ws.calendar.push(
                task.release_of(index),
                EventKind::TaskRelease { task: id, index },
            );
        }
    }

    fn release_job<P: Policy + ?Sized>(
        &mut self,
        policy: &mut P,
        id: TaskId,
        index: u64,
        release: Time,
    ) {
        debug_assert_eq!(release, self.clock, "release processed late");
        let fd = self.ws.tasks[id.0].history.flexibility_degree();
        let decision = {
            let ctx = ReleaseCtx {
                task: id,
                job_index: index,
                now: self.clock,
                history: &self.ws.tasks[id.0].history,
                alive: self.alive,
            };
            policy.on_release(&ctx)
        };
        self.stats.released += 1;
        self.emit(CounterId::JobsReleased);

        let job_entry = self.ws.jobs.len();
        match decision {
            ReleaseDecision::Mandatory {
                main_proc,
                backup_delay,
            } => {
                self.stats.mandatory += 1;
                self.emit(CounterId::MandatoryReleased);
                self.emit_event(
                    release,
                    TraceKind::MandatoryRelease,
                    id.0 as u32,
                    index as u32,
                    CopyRole::Main,
                    main_proc.index() as u8,
                    0,
                );
                let job = Job::nth(id, self.ts.task(id), index, JobClass::Mandatory);
                let mut copies = [0usize; 2];
                let mut copy_count = 0u8;
                if self.alive[main_proc.index()] {
                    let main_idx = self.ws.copies.len();
                    self.ws.copies.push(CopyInst {
                        job,
                        kind: CopyKind::Main,
                        proc: main_proc,
                        release,
                        remaining: job.wcet,
                        state: CopyState::Pending,
                        sibling: None,
                        fd_at_release: 0,
                        running_since: None,
                        job_entry,
                        active_slot: usize::MAX,
                    });
                    copies[copy_count as usize] = main_idx;
                    copy_count += 1;
                    let backup_proc = main_proc.other();
                    if self.alive[backup_proc.index()] {
                        let backup_idx = self.ws.copies.len();
                        let backup_release = release + backup_delay;
                        self.ws.copies.push(CopyInst {
                            job,
                            kind: CopyKind::Backup,
                            proc: backup_proc,
                            release: backup_release,
                            remaining: job.wcet,
                            state: CopyState::Pending,
                            sibling: Some(main_idx),
                            fd_at_release: 0,
                            running_since: None,
                            job_entry,
                            active_slot: usize::MAX,
                        });
                        self.ws.copies[main_idx].sibling = Some(backup_idx);
                        copies[copy_count as usize] = backup_idx;
                        copy_count += 1;
                        if backup_release > self.clock {
                            self.ws
                                .calendar
                                .push(backup_release, EventKind::CopyRelease { copy: backup_idx });
                        }
                        self.emit_backup_release(
                            backup_delay,
                            id.0 as u32,
                            index as u32,
                            backup_proc,
                            release,
                        );
                    }
                } else {
                    // The main's processor is dead: host the job as its
                    // *backup* copy on the survivor, keeping the backup
                    // release delay. Releasing at `r` instead would put a
                    // one-off shorter-than-period gap between this task's
                    // copies on the survivor (pre-fault copies there were
                    // delayed), and that release jitter can push a
                    // lower-priority backup past its deadline even though
                    // the synchronous analysis passes.
                    let idx = self.ws.copies.len();
                    let backup_release = release + backup_delay;
                    self.ws.copies.push(CopyInst {
                        job,
                        kind: CopyKind::Backup,
                        proc: main_proc.other(),
                        release: backup_release,
                        remaining: job.wcet,
                        state: CopyState::Pending,
                        sibling: None,
                        fd_at_release: 0,
                        running_since: None,
                        job_entry,
                        active_slot: usize::MAX,
                    });
                    copies[copy_count as usize] = idx;
                    copy_count += 1;
                    if backup_release > self.clock {
                        self.ws
                            .calendar
                            .push(backup_release, EventKind::CopyRelease { copy: idx });
                    }
                    self.emit_backup_release(
                        backup_delay,
                        id.0 as u32,
                        index as u32,
                        main_proc.other(),
                        release,
                    );
                }
                for &c in &copies[..copy_count as usize] {
                    self.activate_copy(c);
                }
                self.ws.jobs.push(JobEntry {
                    job,
                    resolved: false,
                    copies,
                    copy_count,
                    open_slot: self.ws.open_jobs.len(),
                });
                self.ws.open_jobs.push(job_entry);
            }
            ReleaseDecision::Optional { proc } => {
                self.stats.optional_selected += 1;
                self.emit(CounterId::OptionalSelected);
                let job = Job::nth(id, self.ts.task(id), index, JobClass::Optional);
                let proc = self.live_proc(proc);
                self.emit_event(
                    release,
                    TraceKind::OptionalSelect,
                    id.0 as u32,
                    index as u32,
                    CopyRole::Optional,
                    proc.index() as u8,
                    u64::from(fd),
                );
                let idx = self.ws.copies.len();
                self.ws.copies.push(CopyInst {
                    job,
                    kind: CopyKind::Optional,
                    proc,
                    release,
                    remaining: job.wcet,
                    state: CopyState::Pending,
                    sibling: None,
                    fd_at_release: fd,
                    running_since: None,
                    job_entry,
                    active_slot: usize::MAX,
                });
                self.activate_copy(idx);
                self.ws.jobs.push(JobEntry {
                    job,
                    resolved: false,
                    copies: [idx, 0],
                    copy_count: 1,
                    open_slot: self.ws.open_jobs.len(),
                });
                self.ws.open_jobs.push(job_entry);
            }
            ReleaseDecision::Skip => {
                self.stats.optional_skipped += 1;
                self.emit(CounterId::OptionalSkipped);
                self.emit_event(
                    release,
                    TraceKind::OptionalSkip,
                    id.0 as u32,
                    index as u32,
                    CopyRole::None,
                    PROC_NONE,
                    u64::from(fd),
                );
                let job = Job::nth(id, self.ts.task(id), index, JobClass::Optional);
                self.ws.jobs.push(JobEntry {
                    job,
                    resolved: false,
                    copies: [0, 0],
                    copy_count: 0,
                    open_slot: self.ws.open_jobs.len(),
                });
                self.ws.open_jobs.push(job_entry);
            }
        }
    }

    fn live_proc(&self, preferred: ProcId) -> ProcId {
        if self.alive[preferred.index()] {
            preferred
        } else {
            preferred.other()
        }
    }

    // ----- dispatch ----------------------------------------------------

    fn dispatch(&mut self) {
        for &proc in &ProcId::ALL {
            if !self.alive[proc.index()] {
                continue;
            }
            // Feasibility decays with the clock even when nothing else
            // changes, so the abandonment check keys on time — but only
            // once the clock reaches the earliest possible expiry.
            if self.clock >= self.opt_expiry[proc.index()] {
                self.abandon_infeasible_optionals(proc);
            }
            // The pick is a pure function of the ready set; until some
            // copy on this processor changes readiness, the previous
            // pick stands and the scan is skipped.
            if !self.dispatch_dirty[proc.index()] {
                continue;
            }
            self.dispatch_dirty[proc.index()] = false;
            let pick = self.pick_copy(proc);
            let current = self.running[proc.index()];
            if current == pick {
                continue;
            }
            if let Some(old) = current {
                // Preempted (still pending; completed/canceled copies
                // already closed their segment and cleared `running`).
                if self.ws.copies[old].state == CopyState::Pending {
                    self.close_segment(old, SegmentEnd::Preempted);
                }
            }
            if let Some(new) = pick {
                self.ws.copies[new].running_since = Some(self.clock);
            }
            self.running[proc.index()] = pick;
        }
    }

    /// Abandons every ready optional copy on `proc` that can no longer
    /// finish by its deadline even if it ran uninterrupted from now.
    fn abandon_infeasible_optionals(&mut self, proc: ProcId) {
        // `stop_copy` swap-removes the abandoned copy from
        // `active_copies`, pulling an unexamined entry into the current
        // slot — advance only on keep. Survivors rebuild the expiry
        // bound: `latest_start` only grows as a copy runs, so the
        // recomputed minimum stays a sound lower bound until the next
        // optional is admitted (which folds itself in at activation).
        let mut next_expiry = Time::MAX;
        let mut i = 0;
        while i < self.ws.active_copies.len() {
            let c = self.ws.active_copies[i];
            let copy = &self.ws.copies[c];
            debug_assert_eq!(copy.state, CopyState::Pending);
            if copy.proc == proc
                && copy.kind == CopyKind::Optional
                && copy.release <= self.clock
                && !copy.job.feasible_from(self.clock, copy.remaining)
            {
                self.stats.optional_abandoned += 1;
                self.emit_event(
                    self.clock,
                    TraceKind::OptionalAbandon,
                    copy.job.id.task.0 as u32,
                    copy.job.id.index as u32,
                    CopyRole::Optional,
                    proc.index() as u8,
                    0,
                );
                self.emit(CounterId::OptionalAbandoned);
                self.stop_copy(c, CopyState::Abandoned, SegmentEnd::Preempted);
            } else {
                if copy.proc == proc
                    && copy.kind == CopyKind::Optional
                    && copy.release <= self.clock
                {
                    next_expiry = next_expiry.min(copy.job.latest_start(copy.remaining));
                }
                i += 1;
            }
        }
        self.opt_expiry[proc.index()] = next_expiry;
    }

    /// MJQ strictly above OJQ; MJQ in fixed-priority order, OJQ ordered
    /// by (flexibility degree at release, fixed priority). The ordering
    /// keys are unique per processor (a job never has two copies on one
    /// processor), so the unordered `active_copies` scan is
    /// deterministic.
    fn pick_copy(&self, proc: ProcId) -> Option<usize> {
        // One pass tracking the best mandatory and best optional
        // candidate; MJQ trumps OJQ. The active list holds only pending
        // copies (eager deactivation), and the priority keys are unique
        // per processor, so the unordered scan stays deterministic.
        let mut best_mandatory: Option<((TaskId, u64), usize)> = None;
        let mut best_optional: Option<((u32, TaskId, u64), usize)> = None;
        for &i in &self.ws.active_copies {
            let c = &self.ws.copies[i];
            debug_assert_eq!(c.state, CopyState::Pending);
            if c.proc != proc || c.release > self.clock {
                continue;
            }
            if c.kind == CopyKind::Optional {
                let key = (c.fd_at_release, c.job.id.task, c.job.id.index);
                if best_optional.is_none_or(|(k, _)| key < k) {
                    best_optional = Some((key, i));
                }
            } else {
                let key = (c.job.id.task, c.job.id.index);
                if best_mandatory.is_none_or(|(k, _)| key < k) {
                    best_mandatory = Some((key, i));
                }
            }
        }
        match best_mandatory {
            Some((_, i)) => Some(i),
            None => best_optional.map(|(_, i)| i),
        }
    }

    // ----- time advance --------------------------------------------------

    /// True when a calendar entry still announces a real occurrence.
    /// Every entry carries enough identity to re-check itself against
    /// the live state; staleness is monotone (arena indices are never
    /// reused within a run, each checked transition is one-way, the
    /// clock only grows), so a stale entry can be dropped for good the
    /// moment it surfaces.
    fn entry_live(&self, entry: CalendarEntry) -> bool {
        match entry.kind() {
            EventKind::TaskRelease { task, index } => {
                let tstate = &self.ws.tasks[task.0];
                !tstate.exhausted && tstate.next_index == index
            }
            EventKind::CopyRelease { copy } => {
                let c = &self.ws.copies[copy];
                c.state == CopyState::Pending && c.release > self.clock
            }
            EventKind::Fault => !self.fault_applied,
        }
    }

    /// Earliest future event: the nearer of the running copies'
    /// completions (read off the `running` array) and the calendar top.
    ///
    /// Stale tops are lazily discarded as they surface; entries firing
    /// exactly at the returned time are consumed here, and each fired
    /// entry tells the next loop iteration precisely where to look — the
    /// released task's bit in `release_mask`, the due job's index in
    /// `deadline_scratch`, the readied copy's processor in
    /// `dispatch_dirty`. Matches [`Engine::next_event_time_scan`]
    /// exactly on every reachable state (cross-checked per step in
    /// debug builds).
    fn next_event_time(&mut self) -> Option<Time> {
        let mut next = self.config.horizon;
        let mut any = self.clock < self.config.horizon;
        for &proc in &ProcId::ALL {
            if let Some(c) = self.running[proc.index()] {
                next = next.min(self.clock + self.ws.copies[c].remaining);
                any = true;
            }
        }
        for &i in &self.ws.open_jobs {
            let job = &self.ws.jobs[i];
            if !job.resolved && job.job.deadline > self.clock {
                next = next.min(job.job.deadline);
                any = true;
            }
        }
        while let Some(top) = self.ws.calendar.peek() {
            if !self.entry_live(top) {
                self.ws.calendar.pop();
                continue;
            }
            if top.time < next {
                next = top.time;
            }
            // A pending permanent fault alone does not keep the run
            // alive, matching the scan: a dead-idle system past its last
            // deadline ends even with the fault still scheduled.
            if !matches!(top.kind(), EventKind::Fault) {
                any = true;
            }
            break;
        }
        if !any {
            return None;
        }
        // Deadlines reaching resolution at `next`: every open deadline
        // took part in the min above, so the due ones equal `next`
        // exactly — and no task has two, since a task's job deadlines
        // are strictly increasing.
        for &i in &self.ws.open_jobs {
            let job = &self.ws.jobs[i];
            if !job.resolved && job.job.deadline > self.clock && job.job.deadline <= next {
                self.ws.deadline_scratch.push(i);
            }
        }
        // Consume everything firing at `next` (and any stale residue at
        // or below it), recording where the next iteration must act.
        // Fired entries need no successor push here: releases chain in
        // `process_releases`, copy releases and faults are observed
        // directly from engine state next iteration.
        while let Some(top) = self.ws.calendar.peek() {
            if top.time > next {
                break;
            }
            let live = self.entry_live(top);
            self.ws.calendar.pop();
            if live {
                match top.kind() {
                    EventKind::TaskRelease { task, .. } => {
                        self.release_mask |= 1u64 << task.0.min(63);
                    }
                    EventKind::CopyRelease { copy } => {
                        self.dispatch_dirty[self.ws.copies[copy].proc.index()] = true;
                    }
                    EventKind::Fault => {}
                }
            }
        }
        Some(next)
    }

    /// The pre-calendar linear-scan derivation of the next event time,
    /// kept as a reference oracle: `run` cross-checks the calendar
    /// against it on every step in debug builds, and the in-module
    /// differential tests drive whole runs with it (`TimeAdvance::Scan`).
    fn next_event_time_scan(&self) -> Option<Time> {
        let mut next = self.config.horizon;
        let mut any = self.clock < self.config.horizon;
        if !self.fault_applied {
            if let Some(pf) = self.config.faults.permanent {
                next = next.min(pf.at);
            }
        }
        for (id, task) in self.ts.iter() {
            let tstate = &self.ws.tasks[id.0];
            if !tstate.exhausted {
                next = next.min(task.release_of(tstate.next_index));
                any = true;
            }
        }
        for &i in &self.ws.active_copies {
            let copy = &self.ws.copies[i];
            if copy.state == CopyState::Pending && copy.release > self.clock {
                next = next.min(copy.release);
                any = true;
            }
        }
        for &i in &self.ws.open_jobs {
            let job = &self.ws.jobs[i];
            if !job.resolved && job.job.deadline > self.clock {
                next = next.min(job.job.deadline);
                any = true;
            }
        }
        for &proc in &ProcId::ALL {
            if let Some(c) = self.running[proc.index()] {
                next = next.min(self.clock + self.ws.copies[c].remaining);
                any = true;
            }
        }
        if !any {
            return None;
        }
        Some(next)
    }

    fn advance_to(&mut self, next: Time) {
        let dt = next - self.clock;
        // At most one copy completes per processor per step.
        let mut completions = [0usize; 2];
        let mut completed = 0usize;
        for &proc in &ProcId::ALL {
            if let Some(c) = self.running[proc.index()] {
                self.extend_busy(proc, self.clock, next);
                // mkss-lint: allow(float-fold-determinism) — per-processor accumulator advanced in event order by the single-threaded engine; the order is the simulation itself
                self.active_energy[proc.index()] += self.config.power.active_energy(dt);
                let copy = &mut self.ws.copies[c];
                copy.remaining -= dt;
                if copy.remaining.is_zero() {
                    completions[completed] = c;
                    completed += 1;
                }
            }
        }
        self.clock = next;
        // Mark all simultaneous completions done first (so a success does
        // not "cancel" a sibling that also just finished)…
        for &c in &completions[..completed] {
            let faulted = self.sampler.sample(self.ws.copies[c].job.wcet);
            let ev_task = self.ws.copies[c].job.id.task.0 as u32;
            let ev_job = self.ws.copies[c].job.id.index as u32;
            let ev_role = copy_role(self.ws.copies[c].kind);
            if faulted {
                self.stats.transient_faults += 1;
                self.emit(CounterId::FaultsInjected);
                self.emit(CounterId::TransientFaults);
                self.emit_event(
                    self.clock,
                    TraceKind::TransientFault,
                    ev_task,
                    ev_job,
                    ev_role,
                    self.ws.copies[c].proc.index() as u8,
                    0,
                );
            }
            let proc = self.ws.copies[c].proc;
            self.running[proc.index()] = None;
            self.close_segment(c, SegmentEnd::Completed);
            self.ws.copies[c].state = CopyState::Done { faulted };
            self.deactivate_copy(c);
            match self.ws.copies[c].kind {
                CopyKind::Backup => {
                    self.stats.backups_completed += 1;
                    self.emit(CounterId::BackupsCompleted);
                    self.emit_event(
                        self.clock,
                        TraceKind::BackupComplete,
                        ev_task,
                        ev_job,
                        CopyRole::Backup,
                        proc.index() as u8,
                        u64::from(faulted),
                    );
                }
                CopyKind::Optional if !faulted => {
                    self.emit(CounterId::OptionalExecuted);
                    self.emit_event(
                        self.clock,
                        TraceKind::OptionalComplete,
                        ev_task,
                        ev_job,
                        CopyRole::Optional,
                        proc.index() as u8,
                        0,
                    );
                }
                _ => {}
            }
        }
        // …then act on the outcomes.
        debug_assert!(
            completions[..completed]
                .iter()
                .all(|&c| matches!(self.ws.copies[c].state, CopyState::Done { .. })),
            "every completion was marked Done by the loop above"
        );
        for &c in &completions[..completed] {
            let CopyState::Done { faulted } = self.ws.copies[c].state else {
                unreachable!("completion not marked done");
            };
            if faulted {
                continue;
            }
            let job_idx = self.ws.copies[c].job_entry;
            if !self.ws.jobs[job_idx].resolved {
                // A backup finishing fault-free with its main copy gone
                // (faulted, lost with its processor, or never created) is
                // the standby-sparing mechanism actually saving the job.
                let recovered = self.ws.copies[c].kind == CopyKind::Backup
                    && self.ws.copies[c].sibling.is_none_or(|sib| {
                        matches!(
                            self.ws.copies[sib].state,
                            CopyState::Done { faulted: true } | CopyState::Lost
                        )
                    });
                self.resolve(job_idx, JobOutcome::Met, self.clock);
                if recovered {
                    self.emit(CounterId::FaultsRecovered);
                    let copy = &self.ws.copies[c];
                    self.emit_event(
                        self.clock,
                        TraceKind::FaultRecovered,
                        copy.job.id.task.0 as u32,
                        copy.job.id.index as u32,
                        CopyRole::Backup,
                        copy.proc.index() as u8,
                        0,
                    );
                }
            }
            if let Some(sib) = self.ws.copies[c].sibling {
                if self.ws.copies[sib].state == CopyState::Pending {
                    self.stats.backups_canceled += 1;
                    self.emit(CounterId::BackupsCanceled);
                    let sibling = &self.ws.copies[sib];
                    self.emit_event(
                        self.clock,
                        TraceKind::BackupCancel,
                        sibling.job.id.task.0 as u32,
                        sibling.job.id.index as u32,
                        copy_role(sibling.kind),
                        sibling.proc.index() as u8,
                        0,
                    );
                    self.stop_copy(sib, CopyState::Canceled, SegmentEnd::Canceled);
                }
            }
        }
    }

    fn extend_busy(&mut self, proc: ProcId, from: Time, to: Time) {
        let intervals = &mut self.ws.busy[proc.index()];
        match intervals.last_mut() {
            Some(last) if last.1 == from => last.1 = to,
            _ => intervals.push((from, to)),
        }
    }

    /// Ends the copy's open execution segment, if any, and narrates a
    /// non-empty one as a `Segment` event: the engine's only capture.
    /// The payload is packed only for a recorder that wants events, since
    /// [`segment_payload`] covers starts below 2^61 ticks and a detached
    /// run may go up to the clock's top.
    fn close_segment(&mut self, c: usize, ended: SegmentEnd) {
        let Some(start) = self.ws.copies[c].running_since.take() else {
            return;
        };
        if start < self.clock && self.events {
            let copy = &self.ws.copies[c];
            self.emit_event(
                self.clock,
                TraceKind::Segment,
                copy.job.id.task.0 as u32,
                copy.job.id.index as u32,
                copy_role(copy.kind),
                copy.proc.index() as u8,
                segment_payload(start.ticks(), ended as u8),
            );
        }
    }

    // mkss-lint: hot-path end

    // ----- wrap-up -------------------------------------------------------

    fn finish(mut self, policy_name: &str) -> SimReport {
        // Close any segment still open at the horizon.
        for &proc in &ProcId::ALL {
            if let Some(c) = self.running[proc.index()] {
                self.close_segment(c, SegmentEnd::Horizon);
            }
        }
        let mut energy = [EnergyBreakdown::default(), EnergyBreakdown::default()];
        for &proc in &ProcId::ALL {
            energy[proc.index()] = self.account_processor(proc, &self.config.power);
        }
        if let Some(recorder) = &self.ws.recorder.0 {
            recorder.absorb(&self.ws.tally);
        }
        SimReport {
            policy: policy_name.to_owned(),
            horizon: self.config.horizon,
            energy,
            stats: self.stats,
            violations: self.violations,
        }
    }

    /// Active energy from the busy intervals; idle energy from their
    /// complement within `[0, end-of-life)` using the DPD rule.
    fn account_processor(&self, proc: ProcId, power: &PowerModel) -> EnergyBreakdown {
        let end = self.death_time[proc.index()].unwrap_or(self.config.horizon);
        let mut breakdown = EnergyBreakdown::default();
        let mut cursor = Time::ZERO;
        for &(from, to) in &self.ws.busy[proc.index()] {
            let from = from.min(end);
            let to = to.min(end);
            if from > cursor {
                // mkss-lint: allow(float-fold-determinism) — busy intervals are stored sorted; the cursor sweep pins the order
                breakdown.idle += power.idle_interval_energy(from - cursor);
                breakdown.idle_time += from - cursor;
            }
            breakdown.busy_time += to - from;
            cursor = cursor.max(to);
        }
        if end > cursor {
            // mkss-lint: allow(float-fold-determinism) — single trailing-gap term added after the sorted sweep
            breakdown.idle += power.idle_interval_energy(end - cursor);
            breakdown.idle_time += end - cursor;
        }
        // Active energy was accumulated during the run.
        breakdown.active = self.active_energy[proc.index()];
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PermanentFault;
    use mkss_core::task::Task;

    /// R-pattern static policy: mandatory per deeply-red, mains on
    /// primary, concurrent backups — the MKSS_ST reference, inlined here
    /// to keep the engine tests self-contained.
    struct StaticRef;
    impl Policy for StaticRef {
        fn name(&self) -> &str {
            "static-ref"
        }
        fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
            use mkss_core::mk::Pattern;
            let mk = ctx.history.constraint();
            if Pattern::DeeplyRed.is_mandatory(mk, ctx.job_index) {
                ReleaseDecision::Mandatory {
                    main_proc: ProcId::PRIMARY,
                    backup_delay: Time::ZERO,
                }
            } else {
                ReleaseDecision::Skip
            }
        }
    }

    fn fig1_set() -> TaskSet {
        TaskSet::new(vec![
            Task::from_ms(5, 4, 3, 2, 4).unwrap(),
            Task::from_ms(10, 10, 3, 1, 2).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn static_reference_energy_fig1_set() {
        // Mandatory jobs in [0,20): J11, J12 (τ1), J21 (τ2); mains and
        // backups run concurrently and identically on both processors →
        // no cancellation savings: 9 + 9 = 18 active units.
        let report = simulate(
            &fig1_set(),
            &mut StaticRef,
            &SimConfig::active_only(Time::from_ms(20)),
        );
        assert!((report.active_energy().units() - 18.0).abs() < 1e-9);
        assert!(report.mk_assured());
        assert_eq!(report.stats.mandatory, 3);
        assert_eq!(report.stats.optional_skipped, 3); // J13, J14, J22
        assert_eq!(report.stats.met, 3);
        assert_eq!(report.stats.missed, 3);
    }

    #[test]
    fn trace_is_recorded_and_consistent() {
        let (_, trace) = simulate_traced(
            &fig1_set(),
            &mut StaticRef,
            &SimConfig::active_only(Time::from_ms(20)),
        );
        // Mains on primary: J11 [0,3), J21 [3,6), J12 [5,8)… with
        // preemption: J12 preempts J21 at 5.
        let primary: Vec<_> = trace.segments_on(ProcId::PRIMARY).collect();
        assert_eq!(primary[0].start, Time::ZERO);
        assert_eq!(primary[0].end, Time::from_ms(3));
        // Busy time on each processor = 9ms.
        assert_eq!(
            trace.busy_time_within(ProcId::PRIMARY, Time::from_ms(20)),
            Time::from_ms(9)
        );
        assert_eq!(
            trace.busy_time_within(ProcId::SPARE, Time::from_ms(20)),
            Time::from_ms(9)
        );
    }

    #[test]
    fn preemption_occurs_within_processor() {
        let (_, trace) = simulate_traced(
            &fig1_set(),
            &mut StaticRef,
            &SimConfig::active_only(Time::from_ms(20)),
        );
        // τ2's main J21 is preempted at t=5 by τ1's J12 and resumes at 8.
        let j21_segments: Vec<_> = trace
            .segments_on(ProcId::PRIMARY)
            .filter(|s| s.job.task == TaskId(1))
            .collect();
        assert_eq!(j21_segments.len(), 2);
        assert_eq!(j21_segments[0].ended, SegmentEnd::Preempted);
        assert_eq!(j21_segments[0].start, Time::from_ms(3));
        assert_eq!(j21_segments[0].end, Time::from_ms(5));
        assert_eq!(j21_segments[1].start, Time::from_ms(8));
        assert_eq!(j21_segments[1].end, Time::from_ms(9));
    }

    #[test]
    fn permanent_fault_on_spare_keeps_mains_running() {
        let config = SimConfig::builder()
            .horizon(Time::from_ms(20))
            .active_only()
            .faults(FaultConfig {
                permanent: Some(PermanentFault {
                    proc: ProcId::SPARE,
                    at: Time::from_ms(1),
                }),
                ..FaultConfig::none()
            })
            .build();
        let (report, trace) = simulate_traced(&fig1_set(), &mut StaticRef, &config);
        assert!(report.mk_assured());
        // Spare ran only [0,1): J'11 partial.
        assert_eq!(
            trace.busy_time_within(ProcId::SPARE, Time::from_ms(20)),
            Time::from_ms(1)
        );
        // Mains unaffected; future jobs single-copy on primary.
        assert_eq!(
            trace.busy_time_within(ProcId::PRIMARY, Time::from_ms(20)),
            Time::from_ms(9)
        );
        assert!(report.stats.copies_lost >= 1);
        assert_eq!(report.stats.met, 3);
    }

    #[test]
    fn permanent_fault_on_primary_lets_backups_take_over() {
        let config = SimConfig::builder()
            .horizon(Time::from_ms(20))
            .active_only()
            .faults(FaultConfig {
                permanent: Some(PermanentFault {
                    proc: ProcId::PRIMARY,
                    at: Time::from_ms(1),
                }),
                ..FaultConfig::none()
            })
            .build();
        let report = simulate(&fig1_set(), &mut StaticRef, &config);
        // All mandatory jobs still met via backups on the spare.
        assert!(report.mk_assured());
        assert_eq!(report.stats.met, 3);
        assert_eq!(report.stats.missed, 3); // the skipped optional jobs
    }

    #[test]
    fn transient_fault_forces_backup_completion() {
        // Rate so high every execution faults: both copies fault → missed,
        // but (1,2) tolerates alternating misses… with every job faulted,
        // every job misses and (m,k) is violated — the monitor must say so.
        let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2).unwrap()]).unwrap();
        let config = SimConfig::builder()
            .horizon(Time::from_ms(40))
            .active_only()
            .faults(FaultConfig::transient(1000.0, 7))
            .build();
        let report = simulate(&ts, &mut StaticRef, &config);
        assert!(report.stats.transient_faults > 0);
        assert!(!report.mk_assured());
        // Backups were not canceled (mains all faulted).
        assert_eq!(report.stats.backups_canceled, 0);
        assert_eq!(report.stats.backups_completed, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let ts = fig1_set();
        let config = SimConfig::builder()
            .horizon(Time::from_ms(20))
            .active_only()
            .faults(FaultConfig::transient(0.05, 99))
            .build();
        let (a, a_trace) = simulate_traced(&ts, &mut StaticRef, &config);
        let (b, b_trace) = simulate_traced(&ts, &mut StaticRef, &config);
        assert_eq!(a_trace, b_trace);
        assert_eq!(a.stats, b.stats);
        assert!((a.total_energy().units() - b.total_energy().units()).abs() < 1e-12);
    }

    #[test]
    fn idle_energy_uses_dpd_rule() {
        // One task, one 2ms job per 10ms; default power model.
        let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2).unwrap()]).unwrap();
        let report = simulate(&ts, &mut StaticRef, &SimConfig::new(Time::from_ms(20)));
        // Jobs: J1 mandatory (0..2 busy on both procs), J2 optional
        // skipped. Primary: busy [0,2), idle [2,20) = 18ms > T_be → 1ms
        // idle at 0.1 + 17ms sleep at 0. Active 2.0 + idle 0.1.
        let primary = report.energy[ProcId::PRIMARY.index()];
        assert!((primary.active.units() - 2.0).abs() < 1e-9);
        assert!((primary.idle.units() - 0.1).abs() < 1e-9);
        assert_eq!(primary.busy_time, Time::from_ms(2));
        assert_eq!(primary.idle_time, Time::from_ms(18));
    }

    #[test]
    fn energy_timeline_partitions() {
        let report = simulate(
            &fig1_set(),
            &mut StaticRef,
            &SimConfig::new(Time::from_ms(20)),
        );
        for e in &report.energy {
            assert_eq!(e.busy_time + e.idle_time, Time::from_ms(20));
        }
    }

    #[test]
    fn dead_processor_consumes_nothing_after_fault() {
        let config = SimConfig::builder()
            .horizon_ms(20)
            .faults(FaultConfig {
                permanent: Some(PermanentFault {
                    proc: ProcId::SPARE,
                    at: Time::from_ms(4),
                }),
                ..FaultConfig::none()
            })
            .build();
        let report = simulate(&fig1_set(), &mut StaticRef, &config);
        let spare = report.energy[ProcId::SPARE.index()];
        assert_eq!(spare.busy_time + spare.idle_time, Time::from_ms(4));
    }

    #[test]
    fn builder_matches_constructors() {
        let h = Time::from_ms(123);
        assert_eq!(SimConfig::builder().horizon(h).build(), SimConfig::new(h));
        assert_eq!(
            SimConfig::builder().horizon(h).active_only().build(),
            SimConfig::active_only(h)
        );
        assert_eq!(
            SimConfig::builder().horizon_ms(123).build(),
            SimConfig::new(h)
        );
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh() {
        // Reuse one traced workspace across differently-shaped runs
        // (faults on and off, different task sets) and compare every
        // report and trace against a fresh `simulate_traced` call.
        let sets = [
            fig1_set(),
            TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2).unwrap()]).unwrap(),
        ];
        let configs = [
            SimConfig::active_only(Time::from_ms(20)),
            SimConfig::new(Time::from_ms(40)),
            SimConfig::builder()
                .horizon_ms(40)
                .faults(FaultConfig::transient(0.5, 3))
                .build(),
        ];
        let recorder = Arc::new(TraceRecorder::new(
            TraceBuffer::with_capacity(usize::MAX),
            None,
        ));
        let mut ws = SimWorkspace::with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        for _ in 0..2 {
            for ts in &sets {
                for config in &configs {
                    let reused = simulate_in(&mut ws, ts, &mut StaticRef, config);
                    let (fresh, fresh_trace) = simulate_traced(ts, &mut StaticRef, config);
                    assert_eq!(reused.stats, fresh.stats);
                    assert_eq!(reused.violations, fresh.violations);
                    assert_eq!(Trace::from(&recorder.take()), fresh_trace);
                    assert_eq!(reused.energy, fresh.energy);
                }
            }
        }
    }

    /// [`simulate_in`] with two extra knobs for the tests below: the
    /// time-advance mechanism, and a hook to poke the freshly reset
    /// workspace (e.g. forge a calendar entry) before the run starts.
    fn run_prepared<P: Policy + ?Sized>(
        ws: &mut SimWorkspace,
        ts: &TaskSet,
        policy: &mut P,
        config: &SimConfig,
        time_advance: TimeAdvance,
        prepare: impl FnOnce(&mut SimWorkspace),
    ) -> SimReport {
        ws.begin_run(ts);
        prepare(ws);
        Engine::new(ts, config, ws, time_advance).run(policy)
    }

    /// Regression for the release-mode stall: a calendar entry stuck at
    /// (or before) the clock used to spin the event loop forever in
    /// release builds, where the old `debug_assert!(next > clock)`
    /// compiled away. The guard is now a hard invariant in every build:
    /// the run flags the stall, stops advancing, and still resolves
    /// every released job at the horizon.
    #[test]
    fn zero_length_step_ends_the_run_instead_of_spinning() {
        use mkss_obs::Registry;

        let ts = fig1_set();
        let config = SimConfig::active_only(Time::from_ms(20));
        let registry = Arc::new(Registry::new(1));
        let mut ws = SimWorkspace::with_recorder(Arc::new(registry.handle_at(0)));

        // Forge a release entry for τ1's *second* job at t = 0. The
        // first `process_releases` pass advances τ1's `next_index` to 2,
        // which makes the forged entry live, so `next_event_time`
        // returns 0 == clock: a zero-length step out of a state the
        // engine can never produce on its own.
        let report = run_prepared(
            &mut ws,
            &ts,
            &mut StaticRef,
            &config,
            TimeAdvance::Calendar,
            |ws| {
                ws.calendar.push(
                    Time::ZERO,
                    EventKind::TaskRelease {
                        task: TaskId(0),
                        index: 2,
                    },
                );
            },
        );

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(CounterId::EngineStalls),
            1,
            "stall not flagged"
        );
        // The run still terminates and accounts for everything it
        // released before stopping: both t=0 jobs miss at the horizon.
        assert_eq!(report.stats.released, 2);
        assert_eq!(
            report.stats.met + report.stats.missed,
            report.stats.released
        );

        // The same run without the forged entry never stalls.
        let clean = run_prepared(
            &mut ws,
            &ts,
            &mut StaticRef,
            &config,
            TimeAdvance::Calendar,
            |_| {},
        );
        assert_eq!(registry.snapshot().counter(CounterId::EngineStalls), 1);
        assert_eq!(clean.stats.met, 3);
    }

    /// Whole-run differential between the production calendar and the
    /// pre-calendar linear-scan oracle, across fault configs, comparing
    /// reports and collected traces. The per-step `debug_assert_eq!` in
    /// `run` already cross-checks the chosen event times on every
    /// debug-build run; this pins the end-to-end results too.
    #[test]
    fn scan_oracle_and_calendar_reports_are_identical() {
        let sets = [
            fig1_set(),
            TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2).unwrap()]).unwrap(),
        ];
        let horizon = Time::from_ms(40);
        let configs = [
            SimConfig::active_only(horizon),
            SimConfig::new(horizon),
            SimConfig::builder()
                .horizon(horizon)
                .faults(FaultConfig::permanent(ProcId::SPARE, Time::from_ms(6)))
                .build(),
            SimConfig::builder()
                .horizon(horizon)
                .faults(FaultConfig::combined(
                    ProcId::PRIMARY,
                    Time::from_ms(17),
                    0.4,
                    9,
                ))
                .build(),
        ];
        let recorder = Arc::new(TraceRecorder::new(
            TraceBuffer::with_capacity(usize::MAX),
            None,
        ));
        let mut ws = SimWorkspace::with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        for ts in &sets {
            for config in &configs {
                let calendar = run_prepared(
                    &mut ws,
                    ts,
                    &mut StaticRef,
                    config,
                    TimeAdvance::Calendar,
                    |_| {},
                );
                let calendar_trace = Trace::from(&recorder.take());
                let scan = run_prepared(
                    &mut ws,
                    ts,
                    &mut StaticRef,
                    config,
                    TimeAdvance::Scan,
                    |_| {},
                );
                assert_eq!(
                    format!("{calendar:?}"),
                    format!("{scan:?}"),
                    "calendar/scan reports diverge"
                );
                assert_eq!(
                    calendar_trace,
                    Trace::from(&recorder.take()),
                    "calendar/scan traces diverge"
                );
            }
        }
    }

    proptest::proptest! {
        /// The calendar is a min-heap on time: every pop — including
        /// pops interleaved with pushes — returns the minimum of what is
        /// currently stored, checked against a reference multiset. Drain
        /// order is therefore nondecreasing once pushes stop.
        #[test]
        fn calendar_pops_are_time_ordered(
            times in proptest::collection::vec(0u64..10_000, 1..200),
            interleave in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..200),
        ) {
            let mut calendar = EventCalendar::default();
            let mut reference: Vec<u64> = Vec::new();
            let pop_and_check = |calendar: &mut EventCalendar,
                                     reference: &mut Vec<u64>|
             -> Result<(), proptest::test_runner::TestCaseError> {
                let entry = calendar.pop();
                proptest::prop_assert_eq!(entry.is_some(), !reference.is_empty());
                if let Some(entry) = entry {
                    let (slot, &min) = reference
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, t)| t)
                        .expect("reference non-empty");
                    proptest::prop_assert_eq!(
                        entry.time,
                        Time::from_ticks(min),
                        "pop is not the pending minimum"
                    );
                    reference.swap_remove(slot);
                }
                Ok(())
            };
            for (i, &t) in times.iter().enumerate() {
                calendar.push(Time::from_ticks(t), EventKind::Fault);
                reference.push(t);
                if *interleave.get(i).unwrap_or(&false) {
                    pop_and_check(&mut calendar, &mut reference)?;
                }
            }
            let mut last = Time::ZERO;
            while let Some(top) = calendar.peek() {
                proptest::prop_assert!(top.time >= last, "drain went backwards");
                last = top.time;
                pop_and_check(&mut calendar, &mut reference)?;
            }
            proptest::prop_assert!(reference.is_empty());
        }
    }
}
