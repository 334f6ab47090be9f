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
//! Time advances by reading each event source's own index rather than
//! a shared queue: a min-tree over the tasks' next releases
//! ([`ReleaseSlots`]), the flat list of open deadlines, the short list
//! of postponed backup releases, the two running copies' completions
//! and the pending permanent fault. See DESIGN.md §3 for the mechanism.
//!
//! ## Observability
//!
//! The engine optionally narrates itself through a
//! [`Recorder`](mkss_obs::Recorder) attached to the workspace
//! ([`SimWorkspace::set_recorder`] / [`SimWorkspace::with_recorder`]):
//! job releases and resolutions, mandatory/optional classification,
//! backup release and postponement (`r̃ = r + θ`), backup cancellation,
//! fault injection and recovery, the (m,k) distance-to-violation at
//! each resolution, and every closed execution segment. Counters go
//! into a plain per-run tally (a [`MetricsSnapshot`]) on every run,
//! recorder or not: they are the report's job statistics
//! ([`JobStats::from_tally`]). Histogram samples join the tally only
//! while a recorder is attached, and the recorder absorbs the tally once
//! when the run finishes. Structured events are delivered one by one,
//! and only to a recorder whose `wants_events()` is true. That event
//! stream is the engine's only capture path: a [`TraceRecorder`]
//! captures it into a [`TraceBuffer`], and the schedule [`Trace`]
//! decodes that buffer ([`simulate_traced`]). The recorder lives on the
//! workspace rather than on [`SimConfig`] because the config stays
//! `Copy + PartialEq + Serialize`, which a trait-object handle cannot
//! be. Recorders only observe — they never feed back into the run — so
//! a recorder-on report is byte-identical to a recorder-off one. With no
//! recorder attached a counter site costs one array add and a histogram
//! or event site a single branch (the zero-allocation contract above is
//! unchanged).

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

/// Every task's next release time in a min-tree, so the earliest
/// release is the root and the due tasks are found without a scan.
///
/// Leaves hold the release of each task's next job, or `Time::MAX` once
/// the task is exhausted; an inner node holds the minimum of its two
/// children, and leaves past the task count stay `Time::MAX`. The tree
/// lives in a workspace-owned `Vec` that `begin_run` refills while
/// retaining capacity, so the event loop never allocates here.
#[derive(Debug, Default)]
struct ReleaseSlots {
    /// Node `i` has children `2i` and `2i + 1`; the root is node 1 and
    /// the leaves start at `leaves` (a power of two).
    tree: Vec<Time>,
    leaves: usize,
}

impl ReleaseSlots {
    /// Resets to `tasks` leaves, each at the first release, time zero.
    fn reset(&mut self, tasks: usize) {
        self.leaves = tasks.next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * self.leaves, Time::MAX);
        self.tree[self.leaves..self.leaves + tasks].fill(Time::ZERO);
        for node in (1..self.leaves).rev() {
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

    /// The earliest next release over all tasks (`Time::MAX` when every
    /// task is exhausted).
    fn earliest(&self) -> Time {
        self.tree[1]
    }

    /// Sets one task's next release and refreshes its path to the root.
    fn set(&mut self, task: TaskId, release: Time) {
        let mut node = self.leaves + task.0;
        self.tree[node] = release;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

    /// The lowest task id whose next release is at or before `now`.
    fn first_due(&self, now: Time) -> Option<TaskId> {
        if self.tree[1] > now {
            return None;
        }
        let mut node = 1;
        while node < self.leaves {
            node = if self.tree[2 * node] <= now {
                2 * node
            } else {
                2 * node + 1
            };
        }
        Some(TaskId(node - self.leaves))
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
    /// Indices of jobs not yet resolved, unordered (swap-removed at
    /// resolution).
    open_jobs: Vec<usize>,
    /// The deadline of each job in `open_jobs`, at the same position.
    open_deadlines: Vec<Time>,
    /// Scratch for deadline resolution (kept for its capacity).
    due_scratch: Vec<usize>,
    /// Next release of every task.
    release_slots: ReleaseSlots,
    /// Backup copies created with a release still ahead of the clock
    /// (`r̃ = r + θ`, θ > 0); an entry leaves when that release comes or
    /// once the copy is no longer `Pending`.
    copy_releases: Vec<usize>,
    /// Per task, the probability `1 − e^(−λC)` that one execution of a
    /// copy is hit by a transient fault (every copy runs its task's
    /// WCET).
    fault_probability: Vec<f64>,
    /// Optional event sink; survives `begin_run` so one attachment
    /// covers every simulation run through this workspace.
    recorder: RecorderSlot,
    /// The run's tally. Counters are counted on every run and are the
    /// report's only job counts ([`JobStats::from_tally`]); histogram
    /// samples are counted only while a recorder is attached. An
    /// attached recorder absorbs the tally once, in `finish`.
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
        self.open_deadlines.clear();
        self.due_scratch.clear();
        self.release_slots.reset(ts.len());
        // A backup is pending at most until its job's deadline (D ≤ P),
        // so a task has at most one live entry and one stale entry
        // awaiting the next prune: sized so that pushes in the event loop
        // never grow the list.
        self.copy_releases.clear();
        self.copy_releases.reserve(2 * ts.len());
        self.tally = MetricsSnapshot::empty();
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
    Engine::new(ts, config, ws, TimeAdvance::Indexed).run(policy)
}

/// How [`Engine::run`] finds the next event time. `Indexed` is the
/// production path, reading each event source's own index; `Scan`
/// re-derives every step with linear scans over all state and gates no
/// phase (the pre-index engine, kept as a reference oracle — it also
/// cross-checks `Indexed` via a `debug_assert_eq!` on every step of
/// every debug-build run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimeAdvance {
    Indexed,
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
    /// True once the permanent fault is applied, or from the start when
    /// none is configured.
    fault_applied: bool,
    sampler: TransientSampler,
    /// Energy and time per processor; the idle part is folded in as each
    /// gap closes (see [`Engine::extend_busy`]).
    energy: [EnergyBreakdown; 2],
    /// End of each processor's last busy interval.
    busy_until: [Time; 2],
    violations: Vec<MkViolation>,
    /// The earliest open deadline, as of the last time advance; the
    /// next iteration resolves deadlines only once the clock reaches it.
    next_deadline: Time,
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
        let sampler = TransientSampler::new(&config.faults);
        ws.fault_probability.clear();
        ws.fault_probability.extend(
            ts.iter()
                .map(|(_, task)| sampler.fault_probability(task.wcet())),
        );
        Engine {
            ts,
            config,
            ws,
            clock: Time::ZERO,
            running: [None, None],
            alive: [true, true],
            death_time: [None, None],
            fault_applied: config.faults.permanent.is_none(),
            sampler,
            energy: [EnergyBreakdown::default(); 2],
            busy_until: [Time::ZERO; 2],
            violations: Vec::new(),
            next_deadline: Time::MAX,
            dispatch_dirty: [true; 2],
            opt_expiry: [Time::ZERO; 2],
            events,
            time_advance,
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
        self.ws.tally.incr(CounterId::BackupsReleased, 1);
        if !backup_delay.is_zero() {
            self.ws.tally.incr(CounterId::BackupsPostponed, 1);
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
        loop {
            if !self.fault_applied {
                self.apply_fault_if_due();
            }
            match self.time_advance {
                TimeAdvance::Indexed => {
                    // Each phase runs only when its source says something
                    // is due at the clock; otherwise it is provably a no-op.
                    if self.next_deadline <= self.clock {
                        self.resolve_due_deadlines();
                    }
                    while let Some(id) = self.ws.release_slots.first_due(self.clock) {
                        self.release_due_jobs_of(policy, id);
                    }
                }
                #[cfg(test)]
                TimeAdvance::Scan => {
                    // The reference path re-runs every phase against all
                    // state on every iteration, exactly like the
                    // pre-index engine.
                    self.resolve_due_deadlines();
                    for id in self.ts.ids() {
                        self.release_due_jobs_of(policy, id);
                    }
                    self.dispatch_dirty = [true; 2];
                    self.opt_expiry = [Time::ZERO; 2];
                }
            }
            self.dispatch();
            let next = match self.time_advance {
                TimeAdvance::Indexed => self.next_event_time(),
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
                    self.ws.tally.incr(CounterId::EngineStalls, 1);
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
                "indexed/scan divergence at {}",
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
        self.ws.open_deadlines.swap_remove(slot);
        if let Some(&moved) = self.ws.open_jobs.get(slot) {
            self.ws.jobs[moved].open_slot = slot;
        }
    }

    // ----- fault handling ---------------------------------------------

    /// Applies the permanent fault once the clock reaches it; called
    /// only while the fault is pending.
    fn apply_fault_if_due(&mut self) {
        let Some(pf) = self.config.faults.permanent else {
            return;
        };
        if pf.at > self.clock {
            return;
        }
        self.fault_applied = true;
        self.ws.tally.incr(CounterId::PermanentFaults, 1);
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
                self.ws.tally.incr(CounterId::CopiesLost, 1);
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

    /// Resolves every open job whose deadline has come as missed, in
    /// release (arena) order.
    fn resolve_due_deadlines(&mut self) {
        let mut due = std::mem::take(&mut self.ws.due_scratch);
        due.clear();
        for (&j, &deadline) in self.ws.open_jobs.iter().zip(&self.ws.open_deadlines) {
            if deadline <= self.clock {
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
        }
        match outcome {
            JobOutcome::Met => {
                self.ws.tally.incr(CounterId::JobsMet, 1);
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
                self.ws.tally.incr(CounterId::JobsMissed, 1);
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

    /// Releases every due job of one task, then records the task's next
    /// release in its slot (`Time::MAX` once the task is exhausted).
    fn release_due_jobs_of<P: Policy + ?Sized>(&mut self, policy: &mut P, id: TaskId) {
        let task = self.ts.task(id);
        let next_release = loop {
            let tstate = &self.ws.tasks[id.0];
            if tstate.exhausted {
                break Time::MAX;
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
                break Time::MAX;
            };
            if release > self.clock {
                break release;
            }
            self.ws.tasks[id.0].next_index += 1;
            self.release_job(policy, id, index, release);
        };
        self.ws.release_slots.set(id, next_release);
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
        self.ws.tally.incr(CounterId::JobsReleased, 1);

        let job_entry = self.ws.jobs.len();
        match decision {
            ReleaseDecision::Mandatory {
                main_proc,
                backup_delay,
            } => {
                self.ws.tally.incr(CounterId::MandatoryReleased, 1);
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
                            self.ws.copy_releases.push(backup_idx);
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
                        self.ws.copy_releases.push(idx);
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
                self.ws.open_deadlines.push(job.deadline);
            }
            ReleaseDecision::Optional { proc } => {
                self.ws.tally.incr(CounterId::OptionalSelected, 1);
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
                self.ws.open_deadlines.push(job.deadline);
            }
            ReleaseDecision::Skip => {
                self.ws.tally.incr(CounterId::OptionalSkipped, 1);
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
                self.ws.open_deadlines.push(job.deadline);
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
                self.ws.tally.incr(CounterId::OptionalAbandoned, 1);
                self.emit_event(
                    self.clock,
                    TraceKind::OptionalAbandon,
                    copy.job.id.task.0 as u32,
                    copy.job.id.index as u32,
                    CopyRole::Optional,
                    proc.index() as u8,
                    0,
                );
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

    /// Earliest future event: the minimum over the running copies'
    /// completions, the root of the release slots, the open deadlines,
    /// the postponed copy releases and the pending permanent fault.
    ///
    /// It also leaves the next iteration its gates: the earliest open
    /// deadline in `next_deadline`, and `dispatch_dirty` on the processor
    /// of each postponed copy released at the returned time (whose entry
    /// leaves the list). Matches [`Engine::next_event_time_scan`] exactly
    /// on every reachable state (cross-checked per step in debug
    /// builds).
    fn next_event_time(&mut self) -> Option<Time> {
        let mut next = self.config.horizon;
        let mut any = self.clock < self.config.horizon;
        for &proc in &ProcId::ALL {
            if let Some(c) = self.running[proc.index()] {
                next = next.min(self.clock + self.ws.copies[c].remaining);
                any = true;
            }
        }
        let release = self.ws.release_slots.earliest();
        if release != Time::MAX {
            next = next.min(release);
            any = true;
        }
        // Deadlines at or before the clock were resolved at the top of
        // this iteration, and a new job's deadline lies past its release.
        let mut deadline = Time::MAX;
        for &d in &self.ws.open_deadlines {
            deadline = deadline.min(d);
        }
        self.next_deadline = deadline;
        if deadline != Time::MAX {
            next = next.min(deadline);
            any = true;
        }
        let copies = &self.ws.copies;
        self.ws
            .copy_releases
            .retain(|&c| copies[c].state == CopyState::Pending);
        let mut copy_release = Time::MAX;
        for &c in &self.ws.copy_releases {
            copy_release = copy_release.min(copies[c].release);
        }
        if copy_release != Time::MAX {
            next = next.min(copy_release);
            any = true;
        }
        // A pending permanent fault alone does not keep the run alive: a
        // dead-idle system past its last deadline ends with the fault
        // still scheduled.
        if !self.fault_applied {
            if let Some(pf) = self.config.faults.permanent {
                next = next.min(pf.at);
            }
        }
        if !any {
            return None;
        }
        if copy_release == next {
            let dirty = &mut self.dispatch_dirty;
            self.ws.copy_releases.retain(|&c| {
                let copy = &copies[c];
                let released = copy.release == next;
                if released {
                    dirty[copy.proc.index()] = true;
                }
                !released
            });
        }
        Some(next)
    }

    /// The linear-scan derivation of the next event time, kept as a
    /// reference oracle: `run` cross-checks the indexed sources against
    /// it on every step in debug builds, and the in-module differential
    /// tests drive whole runs with it (`TimeAdvance::Scan`).
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
                self.energy[proc.index()].active += self.config.power.active_energy(dt);
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
            let task = self.ws.copies[c].job.id.task;
            let faulted = self
                .sampler
                .sample_probability(self.ws.fault_probability[task.0]);
            let ev_task = self.ws.copies[c].job.id.task.0 as u32;
            let ev_job = self.ws.copies[c].job.id.index as u32;
            let ev_role = copy_role(self.ws.copies[c].kind);
            if faulted {
                self.ws.tally.incr(CounterId::TransientFaults, 1);
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
                    self.ws.tally.incr(CounterId::BackupsCompleted, 1);
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
                    self.ws.tally.incr(CounterId::OptionalExecuted, 1);
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
                    self.ws.tally.incr(CounterId::FaultsRecovered, 1);
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
                    self.ws.tally.incr(CounterId::BackupsCanceled, 1);
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

    /// Adds the busy span `[from, to)` to `proc`'s energy. A span that
    /// opens after the last one closed first charges the idle gap
    /// between them under the DPD rule, so idle energy is summed gap by
    /// gap in time order, as the run goes.
    fn extend_busy(&mut self, proc: ProcId, from: Time, to: Time) {
        let energy = &mut self.energy[proc.index()];
        let gap_start = self.busy_until[proc.index()];
        if from > gap_start {
            // mkss-lint: allow(float-fold-determinism) — idle gaps close in time order on the single-threaded engine; the order is the simulation itself
            energy.idle += self.config.power.idle_interval_energy(from - gap_start);
            energy.idle_time += from - gap_start;
        }
        energy.busy_time += to - from;
        self.busy_until[proc.index()] = to;
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
        // The trailing idle gap runs to the horizon, or to a dead
        // processor's death.
        for &proc in &ProcId::ALL {
            let end = self.death_time[proc.index()].unwrap_or(self.config.horizon);
            let gap_start = self.busy_until[proc.index()];
            debug_assert!(gap_start <= end, "busy past the end of {proc:?}'s life");
            if end > gap_start {
                let energy = &mut self.energy[proc.index()];
                // mkss-lint: allow(float-fold-determinism) — single trailing-gap term added after every gap before it
                energy.idle += self.config.power.idle_interval_energy(end - gap_start);
                energy.idle_time += end - gap_start;
            }
        }
        // The two counters that other counts determine are written once,
        // here.
        let tally = &mut self.ws.tally;
        let faults =
            tally.counter(CounterId::TransientFaults) + tally.counter(CounterId::PermanentFaults);
        tally.incr(CounterId::FaultsInjected, faults);
        tally.incr(CounterId::MkViolations, self.violations.len() as u64);
        if let Some(recorder) = &self.ws.recorder.0 {
            recorder.absorb(&self.ws.tally);
        }
        SimReport {
            policy: policy_name.to_owned(),
            horizon: self.config.horizon,
            energy: self.energy,
            stats: JobStats::from_tally(&self.ws.tally),
            violations: self.violations,
        }
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
    /// workspace (e.g. forge a postponed copy release) before the run
    /// starts.
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

    /// Regression for the release-mode stall: an event source stuck at
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

        // Forge a postponed-release entry for copy 0, τ1's first main,
        // which the first iteration releases at t = 0. The entry stays
        // while the copy is pending, so `next_event_time` returns its
        // release 0 == clock: a zero-length step out of a state the
        // engine can never produce on its own (it lists only copies
        // released after the clock).
        let report = run_prepared(
            &mut ws,
            &ts,
            &mut StaticRef,
            &config,
            TimeAdvance::Indexed,
            |ws| ws.copy_releases.push(0),
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
            TimeAdvance::Indexed,
            |_| {},
        );
        assert_eq!(registry.snapshot().counter(CounterId::EngineStalls), 1);
        assert_eq!(clean.stats.met, 3);
    }

    /// Deeply-red mandatory jobs (and any job of flexibility degree 0)
    /// with mains alternating between the processors by task and
    /// backups postponed by half their slack; every other job runs as
    /// an optional on the processor its index picks. Exercises every
    /// event source the engine indexes: postponed copy releases,
    /// cancellation, optional abandonment and both processors' dispatch.
    struct Postponing {
        delays: Vec<Time>,
    }

    impl Policy for Postponing {
        fn name(&self) -> &str {
            "postponing"
        }
        fn init(&mut self, ts: &TaskSet) {
            self.delays = ts
                .iter()
                .map(|(_, t)| Time::from_ticks((t.deadline() - t.wcet()).ticks() / 2))
                .collect();
        }
        fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
            use mkss_core::mk::Pattern;
            let pick = |n: u64| ProcId::ALL[(n % 2) as usize];
            let mk = ctx.history.constraint();
            if Pattern::DeeplyRed.is_mandatory(mk, ctx.job_index) || ctx.history.next_is_mandatory()
            {
                ReleaseDecision::Mandatory {
                    main_proc: pick(ctx.task.0 as u64),
                    backup_delay: self.delays[ctx.task.0],
                }
            } else {
                ReleaseDecision::Optional {
                    proc: pick(ctx.job_index),
                }
            }
        }
    }

    /// `n` tasks at (m,k)-utilization ≈ 0.4 in rate-monotonic order,
    /// periods 10–50 ms, WCETs in whole microseconds.
    fn large_set(n: usize) -> TaskSet {
        const PERIODS_MS: [u64; 4] = [10, 20, 40, 50];
        const MK: [(u32, u32); 4] = [(2, 3), (3, 4), (1, 2), (3, 5)];
        let tasks = (0..n)
            .map(|i| {
                let period = Time::from_ms(PERIODS_MS[i * PERIODS_MS.len() / n]);
                let (m, k) = MK[i % MK.len()];
                let share = 0.4 / n as f64 * f64::from(k) / f64::from(m);
                let wcet = ((share * period.ticks() as f64) as u64).max(1);
                Task::new(period, period, Time::from_ticks(wcet), m, k).unwrap()
            })
            .collect();
        TaskSet::new(tasks).unwrap()
    }

    /// Whole-run differential between the production indexed sources
    /// and the linear-scan oracle (which also gates no phase, so it
    /// checks the `dispatch_dirty` and `opt_expiry` gating too), across
    /// fault configs and task counts past 64, comparing reports and
    /// collected traces. The per-step `debug_assert_eq!` in `run`
    /// already cross-checks the chosen event times on every debug-build
    /// run; this pins the end-to-end results too.
    #[test]
    fn scan_oracle_and_indexed_reports_are_identical() {
        let sets = [
            (fig1_set(), Time::from_ms(40)),
            (
                TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2).unwrap()]).unwrap(),
                Time::from_ms(40),
            ),
            (large_set(70), Time::from_ms(200)),
            (large_set(1024), Time::from_ms(100)),
        ];
        let recorder = Arc::new(TraceRecorder::new(
            TraceBuffer::with_capacity(usize::MAX),
            None,
        ));
        let mut ws = SimWorkspace::with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        for (ts, horizon) in &sets {
            let horizon = *horizon;
            let configs = [
                SimConfig::active_only(horizon),
                SimConfig::new(horizon),
                SimConfig::builder()
                    .horizon(horizon)
                    .faults(FaultConfig::permanent(
                        ProcId::SPARE,
                        Time::from_ticks(horizon.ticks() / 7),
                    ))
                    .build(),
                SimConfig::builder()
                    .horizon(horizon)
                    .faults(FaultConfig::combined(
                        ProcId::PRIMARY,
                        Time::from_ticks(horizon.ticks() * 3 / 7),
                        0.4,
                        9,
                    ))
                    .build(),
            ];
            for config in &configs {
                let policies: [&mut dyn Policy; 2] =
                    [&mut StaticRef, &mut Postponing { delays: Vec::new() }];
                for policy in policies {
                    let indexed =
                        run_prepared(&mut ws, ts, policy, config, TimeAdvance::Indexed, |_| {});
                    let indexed_trace = Trace::from(&recorder.take());
                    let scan = run_prepared(&mut ws, ts, policy, config, TimeAdvance::Scan, |_| {});
                    assert_eq!(
                        format!("{indexed:?}"),
                        format!("{scan:?}"),
                        "indexed/scan reports diverge"
                    );
                    assert_eq!(
                        indexed_trace,
                        Trace::from(&recorder.take()),
                        "indexed/scan traces diverge"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// After any sequence of updates, the root is the minimum leaf
        /// and `first_due` names the lowest task id at or before `now`.
        #[test]
        fn release_slots_find_the_lowest_due_task(
            tasks in 1usize..70,
            update_tasks in proptest::collection::vec(0usize..70, 0..200),
            update_times in proptest::collection::vec(0u64..1_000, 0..200),
            now in 0u64..1_000,
        ) {
            let mut slots = ReleaseSlots::default();
            slots.reset(tasks);
            let mut reference = vec![Time::ZERO; tasks];
            for (&task, &at) in update_tasks.iter().zip(&update_times) {
                let task = task % tasks;
                let at = if at % 10 == 0 { Time::MAX } else { Time::from_ticks(at) };
                slots.set(TaskId(task), at);
                reference[task] = at;
            }
            let now = Time::from_ticks(now);
            proptest::prop_assert_eq!(
                slots.earliest(),
                reference.iter().copied().min().unwrap()
            );
            proptest::prop_assert_eq!(
                slots.first_due(now),
                reference.iter().position(|&at| at <= now).map(TaskId)
            );
        }
    }
}
