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
//! when a run meets a larger task set than any before it. The model
//! bounds what can be live at once: `C ≤ D ≤ P` resolves a task's job by
//! its next release, and standby-sparing never puts two copies of a job
//! on one processor. So all per-run state is fixed per task — one job
//! slot per task, one copy slot per (task, processor), the ready queues
//! and the event-source trees — and lives in a reusable [`SimWorkspace`]
//! sized once per run; nothing grows with the horizon. [`simulate_in`]
//! runs one simulation inside a caller-owned workspace, so a sweep that
//! simulates thousands of task sets reuses the same capacity
//! throughout; [`simulate`] is the convenience wrapper that creates a
//! throwaway workspace per call. With no recorder attached the
//! steady-state event loop performs **zero** allocations per event.
//!
//! Time advances by reading each event source's own index rather than
//! a shared queue: min-trees over the tasks' next releases, the open
//! jobs' deadlines and the postponed backup releases, the two running
//! copies' completions and the pending permanent fault. Dispatch reads
//! the processor's MJQ as a bitset of task ids (lowest bit first) and
//! its OJQ as a min-tree of flexibility degrees. See DESIGN.md §3 for the
//! mechanism.
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
use mkss_core::job::CopyKind;
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

mod scan;

use scan::TimeAdvance;

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

/// The copy of one task's job on one processor, at slot `2·task + proc`
/// of `SimWorkspace::copies` ([`copy_slot`]). A mandatory job's other
/// copy sits on the other processor, in the neighbouring slot `c ^ 1`,
/// and carries the same job index.
#[derive(Debug, Clone, Copy)]
struct CopySlot {
    /// 1-based index of the job this copy belongs to; 0 while the slot
    /// has held no copy this run.
    index: u64,
    kind: CopyKind,
    /// The job's release, or `r + θ` for a postponed backup.
    release: Time,
    remaining: Time,
    state: CopyState,
    /// Flexibility degree of the job at release (OJQ ordering key;
    /// mandatory copies store 0 and never use it).
    fd_at_release: u32,
    /// Set while this copy occupies a processor (segment start).
    running_since: Option<Time>,
}

impl CopySlot {
    const VACANT: CopySlot = CopySlot {
        index: 0,
        kind: CopyKind::Main,
        release: Time::ZERO,
        remaining: Time::ZERO,
        state: CopyState::Abandoned,
        fd_at_release: 0,
        running_since: None,
    };
}

/// A task's latest released job. `C ≤ D ≤ P` resolves a job by its
/// task's next release, so one slot per task serves every job of a run.
#[derive(Debug, Clone, Copy)]
struct JobSlot {
    index: u64,
    release: Time,
    deadline: Time,
    /// Released and not yet resolved.
    open: bool,
}

impl JobSlot {
    const VACANT: JobSlot = JobSlot {
        index: 0,
        release: Time::ZERO,
        deadline: Time::ZERO,
        open: false,
    };
}

/// The copy slot of `task` on `proc`.
#[inline]
const fn copy_slot(task: usize, proc: ProcId) -> usize {
    2 * task + proc.index()
}

/// The processor of copy slot `c`.
#[inline]
const fn slot_proc(c: usize) -> ProcId {
    ProcId(c % 2)
}

#[derive(Debug)]
struct TaskState {
    next_index: u64,
    history: MkHistory,
    monitor: MkMonitor,
    exhausted: bool,
}

/// A min-tree over a fixed number of slots, so the least key is the
/// root and the lowest slot at or below a bound is found without a scan.
///
/// The engine keeps five kinds: each task's next release, each task's
/// open deadline, each copy slot's postponed backup release, and per
/// processor the OJQ (each queued optional's flexibility degree) and
/// the abandonment bounds (each queued optional's latest start). A leaf
/// holds [`SlotKey::EMPTY`] while its slot has nothing pending; an inner
/// node holds the minimum of its two children, and leaves past the slot
/// count stay empty. The tree lives in a workspace-owned `Vec` that
/// `begin_run` refills while retaining capacity, so the event loop never
/// allocates here.
#[derive(Debug)]
struct SlotTree<K> {
    /// Node `i` has children `2i` and `2i + 1`; the root is node 1 and
    /// the leaves start at `leaves` (a power of two).
    tree: Vec<K>,
    leaves: usize,
}

/// A [`SlotTree`] key, with a value that marks an empty slot and sorts
/// after every real key.
trait SlotKey: Copy + Ord {
    const EMPTY: Self;
}

impl SlotKey for Time {
    const EMPTY: Time = Time::MAX;
}

impl SlotKey for u32 {
    const EMPTY: u32 = u32::MAX;
}

impl<K> Default for SlotTree<K> {
    fn default() -> Self {
        SlotTree {
            tree: Vec::new(),
            leaves: 0,
        }
    }
}

impl<K: SlotKey> SlotTree<K> {
    /// Resets to `slots` leaves, each at `at`.
    fn reset(&mut self, slots: usize, at: K) {
        self.leaves = slots.next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * self.leaves, K::EMPTY);
        self.tree[self.leaves..self.leaves + slots].fill(at);
        for node in (1..self.leaves).rev() {
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

    /// The least key over all slots ([`SlotKey::EMPTY`] when none is
    /// set).
    fn min(&self) -> K {
        self.tree[1]
    }

    /// Sets one slot's key and refreshes its path to the root. The
    /// running minimum stays in a register: each level loads only the
    /// sibling, which this update does not touch, so the loads do not
    /// wait on the stores and `min` needs no branch.
    fn set(&mut self, slot: usize, key: K) {
        let mut node = self.leaves + slot;
        self.tree[node] = key;
        let mut least = key;
        while node > 1 {
            least = least.min(self.tree[node ^ 1]);
            node /= 2;
            self.tree[node] = least;
        }
    }

    /// The lowest slot whose key is at or below `bound` (for a time
    /// tree, due at `bound`). The descent goes right exactly when the
    /// left subtree has no such key, so each level is one comparison
    /// turned into an index, not a branch.
    fn first_due(&self, bound: K) -> Option<usize> {
        if self.tree[1] > bound {
            return None;
        }
        let mut node = 1;
        while node < self.leaves {
            node = 2 * node + usize::from(self.tree[2 * node] > bound);
        }
        Some(node - self.leaves)
    }
}

/// One bit per task, for a processor's MJQ: the tasks whose mandatory
/// copy there is released and pending. The task id is the fixed
/// priority, so the lowest set bit is the MJQ's pick.
#[derive(Debug, Default)]
struct TaskBits {
    words: Vec<u64>,
}

impl TaskBits {
    /// Resets to `tasks` clear bits.
    fn reset(&mut self, tasks: usize) {
        self.words.clear();
        self.words.resize(tasks.div_ceil(64), 0);
    }

    fn insert(&mut self, task: usize) {
        self.words[task / 64] |= 1 << (task % 64);
    }

    /// Clears `task`'s bit, returning whether it was set.
    fn remove(&mut self, task: usize) -> bool {
        let word = &mut self.words[task / 64];
        let bit = 1 << (task % 64);
        let was_set = *word & bit != 0;
        *word &= !bit;
        was_set
    }

    /// The lowest set task.
    fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &word)| word != 0)
            .map(|(w, word)| 64 * w + word.trailing_zeros() as usize)
    }
}

/// Reusable per-run state of the simulator: one job slot per task, one
/// copy slot per (task, processor), the per-processor ready bits, the
/// release, deadline and backup-release trees, and scratch buffers.
///
/// Everything is sized by the task count in `begin_run` and nothing
/// grows with the horizon: under `C ≤ D ≤ P` a task's job is resolved
/// by its next release, so a run never holds more than one open job per
/// task, and standby-sparing never puts two copies of a job on one
/// processor.
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
    tasks: Vec<TaskState>,
    /// Each task's latest released job.
    jobs: Vec<JobSlot>,
    /// Each task's copy on each processor, at [`copy_slot`].
    copies: Vec<CopySlot>,
    /// Per processor, the tasks with a released pending mandatory copy
    /// there (the MJQ).
    mandatory: [TaskBits; 2],
    /// Per processor, the flexibility degree at release of each task's
    /// released pending optional copy there (the OJQ).
    optional: [SlotTree<u32>; 2],
    /// Per processor, a lower bound on the latest start
    /// (`deadline − remaining`) of each OJQ copy: exact when queued or
    /// last checked, and it only grows as the copy runs. The
    /// abandonment pass runs once the clock passes the root.
    optional_expiry: [SlotTree<Time>; 2],
    /// Next release of every task.
    release_slots: SlotTree<Time>,
    /// Deadline of every task's open job.
    deadline_slots: SlotTree<Time>,
    /// Release `r̃ = r + θ` of every copy slot's backup while it is
    /// still ahead of the clock (θ > 0); cleared when the backup is
    /// released or leaves `Pending` first.
    backup_slots: SlotTree<Time>,
    /// Scratch for deadline resolution, `(release, task)` per due job
    /// (kept for its capacity).
    due_scratch: Vec<(Time, usize)>,
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

    /// Sizes every slot to `ts` and clears it, keeping every allocation.
    /// Task states are reset in place when the task-set shape matches
    /// the previous run.
    fn begin_run(&mut self, ts: &TaskSet) {
        let n = ts.len();
        self.jobs.clear();
        self.jobs.resize(n, JobSlot::VACANT);
        self.copies.clear();
        self.copies.resize(2 * n, CopySlot::VACANT);
        for proc in 0..2 {
            self.mandatory[proc].reset(n);
            self.optional[proc].reset(n, u32::EMPTY);
            self.optional_expiry[proc].reset(n, Time::EMPTY);
        }
        self.release_slots.reset(n, Time::ZERO);
        self.deadline_slots.reset(n, Time::MAX);
        self.backup_slots.reset(2 * n, Time::MAX);
        self.due_scratch.clear();
        self.due_scratch.reserve(n);
        self.tally = MetricsSnapshot::empty();
        let reusable = self.tasks.len() == n
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

struct Engine<'a, 'w> {
    ts: &'a TaskSet,
    config: &'a SimConfig,
    ws: &'w mut SimWorkspace,
    clock: Time,
    /// The copy slot running on each processor.
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
    /// A processor's ready queues changed since its last dispatch;
    /// cleared once the processor re-picks. While the flag is off the
    /// previous pick is provably still the pick, so dispatch skips it.
    dispatch_dirty: [bool; 2],
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
            dispatch_dirty: [true; 2],
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

    /// Narrate one event about copy slot `c` at the clock.
    #[inline]
    fn emit_copy_event(&self, kind: TraceKind, c: usize, payload: u64) {
        let copy = &self.ws.copies[c];
        self.emit_event(
            self.clock,
            kind,
            (c / 2) as u32,
            copy.index as u32,
            copy_role(copy.kind),
            slot_proc(c).index() as u8,
            payload,
        );
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

    // Everything from here through `close_segment` is the steady-state
    // event loop: with no recorder attached it performs zero
    // allocations per event (pinned by crates/sim/tests/zero_alloc.rs
    // for every paper policy). Pushes into workspace-owned buffers are
    // fine — they only allocate past retained capacity — but no fresh
    // allocating constructor may appear here.
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
                    if self.ws.deadline_slots.min() <= self.clock {
                        self.resolve_due_deadlines();
                    }
                    while let Some(task) = self.ws.release_slots.first_due(self.clock) {
                        self.release_due_jobs_of(policy, TaskId(task));
                    }
                    while let Some(c) = self.ws.backup_slots.first_due(self.clock) {
                        self.release_backup(c);
                    }
                }
                #[cfg(test)]
                TimeAdvance::Scan => self.scan_phases(policy),
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
        self.resolve_open_deadlines_by_scan();
        self.finish(policy.name())
    }

    /// Installs a new pending copy in its slot: queued at once when its
    /// release has come, otherwise (a postponed backup) entered in the
    /// backup-release tree.
    fn create_copy(
        &mut self,
        task: TaskId,
        proc: ProcId,
        kind: CopyKind,
        release: Time,
        fd_at_release: u32,
    ) {
        let c = copy_slot(task.0, proc);
        debug_assert_ne!(
            self.ws.copies[c].state,
            CopyState::Pending,
            "copy slot reused while its copy is pending"
        );
        self.ws.copies[c] = CopySlot {
            index: self.ws.jobs[task.0].index,
            kind,
            release,
            remaining: self.ts.task(task).wcet(),
            state: CopyState::Pending,
            fd_at_release,
            running_since: None,
        };
        if release > self.clock {
            self.ws.backup_slots.set(c, release);
        } else {
            self.enqueue(c);
        }
    }

    /// Releases a postponed backup once its `r + θ` comes.
    fn release_backup(&mut self, c: usize) {
        debug_assert_eq!(self.ws.copies[c].state, CopyState::Pending);
        self.ws.backup_slots.set(c, Time::MAX);
        self.enqueue(c);
    }

    /// Puts a released copy in its processor's MJQ or OJQ, with an
    /// optional's latest start as its abandonment bound, and marks the
    /// processor for re-dispatch.
    fn enqueue(&mut self, c: usize) {
        let (task, proc) = (c / 2, c % 2);
        self.dispatch_dirty[proc] = true;
        let copy = &self.ws.copies[c];
        if copy.kind == CopyKind::Optional {
            debug_assert_ne!(copy.fd_at_release, u32::EMPTY);
            let latest_start = self.ws.jobs[task].deadline.saturating_sub(copy.remaining);
            self.ws.optional[proc].set(task, copy.fd_at_release);
            self.ws.optional_expiry[proc].set(task, latest_start);
        } else {
            self.ws.mandatory[proc].insert(task);
        }
    }

    /// Takes a copy that just left `Pending` out of its ready queue,
    /// marking the processor for re-dispatch, or out of the
    /// backup-release tree if it was still waiting there.
    fn deactivate_copy(&mut self, c: usize) {
        let (task, proc) = (c / 2, c % 2);
        // An optional is queued from its release on, never postponed.
        let queued = if self.ws.copies[c].kind == CopyKind::Optional {
            self.ws.optional[proc].set(task, u32::EMPTY);
            self.ws.optional_expiry[proc].set(task, Time::EMPTY);
            true
        } else {
            self.ws.mandatory[proc].remove(task)
        };
        if queued {
            self.dispatch_dirty[proc] = true;
        } else {
            self.ws.backup_slots.set(c, Time::MAX);
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
        // Every pending copy on the dead processor, released or still
        // postponed, in task order. Runs once per run.
        for task in 0..self.ts.len() {
            let c = copy_slot(task, p);
            if self.ws.copies[c].state == CopyState::Pending {
                self.ws.copies[c].state = CopyState::Lost;
                self.ws.tally.incr(CounterId::CopiesLost, 1);
                self.emit_copy_event(TraceKind::CopyLost, c, 0);
                self.deactivate_copy(c);
            }
        }
    }

    // ----- deadline resolution ----------------------------------------

    /// Resolves as missed every open job whose deadline has come, read
    /// off the deadline tree.
    fn resolve_due_deadlines(&mut self) {
        let mut due = std::mem::take(&mut self.ws.due_scratch);
        due.clear();
        while let Some(task) = self.ws.deadline_slots.first_due(self.clock) {
            self.ws.deadline_slots.set(task, Time::MAX);
            due.push((self.ws.jobs[task].release, task));
        }
        self.resolve_missed(due);
    }

    /// The same, found by a scan over the job slots: the run's last
    /// resolution at the horizon (where a deadline at the clock's top
    /// would look like the tree's empty `Time::MAX` leaves), and the
    /// scan-mode oracle's deadline phase.
    fn resolve_open_deadlines_by_scan(&mut self) {
        let mut due = std::mem::take(&mut self.ws.due_scratch);
        due.clear();
        for (task, job) in self.ws.jobs.iter().enumerate() {
            if job.open && job.deadline <= self.clock {
                due.push((job.release, task));
            }
        }
        self.resolve_missed(due);
    }

    /// Resolves the `(release, task)` jobs in `due` as missed, in that
    /// order: the order in which they were released, which outcome
    /// histories, violations and the trace all observe.
    fn resolve_missed(&mut self, mut due: Vec<(Time, usize)>) {
        due.sort_unstable();
        for &(_, task) in &due {
            let deadline = self.ws.jobs[task].deadline;
            self.resolve(task, JobOutcome::Missed, deadline);
        }
        self.ws.due_scratch = due;
    }

    /// Resolves `task`'s open job. The caller has taken its deadline
    /// off the deadline tree.
    fn resolve(&mut self, task: usize, outcome: JobOutcome, at: Time) {
        debug_assert!(self.ws.jobs[task].open);
        self.ws.jobs[task].open = false;
        let index = self.ws.jobs[task].index;
        let tstate = &mut self.ws.tasks[task];
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
                task: TaskId(task),
                job_index: index,
            });
        }
        let kind = match outcome {
            JobOutcome::Met => {
                self.ws.tally.incr(CounterId::JobsMet, 1);
                TraceKind::JobMet
            }
            JobOutcome::Missed => {
                self.ws.tally.incr(CounterId::JobsMissed, 1);
                TraceKind::JobMissed
            }
        };
        self.emit_event(
            at,
            kind,
            task as u32,
            index as u32,
            CopyRole::None,
            PROC_NONE,
            u64::from(distance),
        );
        if newly_violated {
            // The resolution event precedes this one in the capture
            // stream, so forensics can walk backwards from here and find
            // the tipping job first. Payload packs the constraint.
            self.emit_event(
                at,
                TraceKind::MkViolation,
                task as u32,
                index as u32,
                CopyRole::None,
                PROC_NONE,
                (u64::from(mk.m()) << 32) | u64::from(mk.k()),
            );
        }
        if outcome == JobOutcome::Missed {
            // A missed job's remaining copies are useless; stop them,
            // the main before the backup.
            let primary = copy_slot(task, ProcId::PRIMARY);
            let first = if self.ws.copies[primary + 1].kind == CopyKind::Main {
                primary + 1
            } else {
                primary
            };
            for c in [first, first ^ 1] {
                let copy = &self.ws.copies[c];
                if copy.index == index && copy.state == CopyState::Pending {
                    self.stop_copy(c, CopyState::Abandoned, SegmentEnd::Canceled);
                }
            }
        }
    }

    /// Takes a pending copy off its processor (closing any open segment)
    /// and puts it into a terminal state.
    fn stop_copy(&mut self, c: usize, state: CopyState, ended: SegmentEnd) {
        debug_assert_eq!(self.ws.copies[c].state, CopyState::Pending);
        let proc = slot_proc(c);
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
            let Some((release, deadline)) =
                task.period().checked_mul(index - 1).and_then(|release| {
                    release
                        .checked_add(task.deadline())
                        .filter(|&deadline| deadline <= self.config.horizon)
                        .map(|deadline| (release, deadline))
                })
            else {
                self.ws.tasks[id.0].exhausted = true;
                break Time::MAX;
            };
            if release > self.clock {
                break release;
            }
            self.ws.tasks[id.0].next_index += 1;
            self.release_job(policy, id, index, release, deadline);
        };
        self.ws.release_slots.set(id.0, next_release);
    }

    fn release_job<P: Policy + ?Sized>(
        &mut self,
        policy: &mut P,
        id: TaskId,
        index: u64,
        release: Time,
        deadline: Time,
    ) {
        debug_assert_eq!(release, self.clock, "release processed late");
        debug_assert!(
            !self.ws.jobs[id.0].open,
            "job released before the task's previous job resolved"
        );
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
        self.ws.jobs[id.0] = JobSlot {
            index,
            release,
            deadline,
            open: true,
        };
        self.ws.deadline_slots.set(id.0, deadline);

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
                if self.alive[main_proc.index()] {
                    self.create_copy(id, main_proc, CopyKind::Main, release, 0);
                }
                // The backup goes on the other processor whenever it is
                // alive. With the main's processor dead (one permanent
                // fault at most, so the other survives) the job runs as
                // this *backup* copy alone, keeping the backup release
                // delay. Releasing at `r` instead would put a one-off
                // shorter-than-period gap between this task's copies on
                // the survivor (pre-fault copies there were delayed), and
                // that release jitter can push a lower-priority backup
                // past its deadline even though the synchronous analysis
                // passes.
                let backup_proc = main_proc.other();
                if self.alive[backup_proc.index()] {
                    self.create_copy(id, backup_proc, CopyKind::Backup, release + backup_delay, 0);
                    self.emit_backup_release(
                        backup_delay,
                        id.0 as u32,
                        index as u32,
                        backup_proc,
                        release,
                    );
                }
            }
            ReleaseDecision::Optional { proc } => {
                self.ws.tally.incr(CounterId::OptionalSelected, 1);
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
                self.create_copy(id, proc, CopyKind::Optional, release, fd);
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
            let pick = match self.time_advance {
                TimeAdvance::Indexed => {
                    // Feasibility decays with the clock even when nothing
                    // else changes, so the abandonment check keys on time:
                    // it runs once the clock passes the earliest bound.
                    if self.ws.optional_expiry[proc.index()].min() < self.clock {
                        self.abandon_infeasible_optionals(proc);
                    }
                    // The pick is a pure function of the ready queues;
                    // until one on this processor changes, the previous
                    // pick stands.
                    if !self.dispatch_dirty[proc.index()] {
                        continue;
                    }
                    self.dispatch_dirty[proc.index()] = false;
                    self.pick_copy(proc)
                }
                #[cfg(test)]
                TimeAdvance::Scan => self.pick_copy_scan(proc),
            };
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

    /// Abandons, in task order, every ready optional copy on `proc` that
    /// can no longer finish by its deadline even if it ran uninterrupted
    /// from now. Only copies whose bound has passed are checked; one that
    /// ran since its bound was set is still feasible and gets its exact
    /// latest start as the new bound.
    fn abandon_infeasible_optionals(&mut self, proc: ProcId) {
        let p = proc.index();
        let Some(before) = self.clock.checked_sub(Time::from_ticks(1)) else {
            return;
        };
        while let Some(task) = self.ws.optional_expiry[p].first_due(before) {
            let c = copy_slot(task, proc);
            let remaining = self.ws.copies[c].remaining;
            let deadline = self.ws.jobs[task].deadline;
            if self.clock + remaining <= deadline {
                self.ws.optional_expiry[p].set(task, deadline - remaining);
            } else {
                self.abandon(c);
            }
        }
    }

    /// Abandons a ready optional copy that can no longer meet its
    /// deadline.
    fn abandon(&mut self, c: usize) {
        self.ws.tally.incr(CounterId::OptionalAbandoned, 1);
        self.emit_copy_event(TraceKind::OptionalAbandon, c, 0);
        self.stop_copy(c, CopyState::Abandoned, SegmentEnd::Preempted);
    }

    /// MJQ strictly above OJQ; MJQ in fixed-priority order, OJQ ordered
    /// by (flexibility degree at release, fixed priority). A task has at
    /// most one copy per processor, so the MJQ's pick is its lowest bit
    /// and the OJQ's is the lowest task holding the tree's least degree.
    fn pick_copy(&self, proc: ProcId) -> Option<usize> {
        let p = proc.index();
        let ojq = &self.ws.optional[p];
        let task = match self.ws.mandatory[p].first() {
            Some(task) => task,
            None if ojq.min() != u32::EMPTY => ojq.first_due(ojq.min())?,
            None => return None,
        };
        Some(copy_slot(task, proc))
    }

    // ----- time advance --------------------------------------------------

    /// Earliest future event: the minimum over the running copies'
    /// completions, the roots of the release, deadline and
    /// backup-release trees, and the pending permanent fault. Every
    /// phase has already drained its tree up to the clock, so each root
    /// lies ahead of it. Matches [`Engine::next_event_time_scan`] exactly
    /// on every reachable state (cross-checked per step in debug
    /// builds).
    fn next_event_time(&self) -> Option<Time> {
        let mut next = self.config.horizon;
        let mut any = self.clock < self.config.horizon;
        for &proc in &ProcId::ALL {
            if let Some(c) = self.running[proc.index()] {
                next = next.min(self.clock + self.ws.copies[c].remaining);
                any = true;
            }
        }
        for slots in [
            &self.ws.release_slots,
            &self.ws.deadline_slots,
            &self.ws.backup_slots,
        ] {
            let earliest = slots.min();
            if earliest != Time::MAX {
                next = next.min(earliest);
                any = true;
            }
        }
        // A pending permanent fault alone does not keep the run alive: a
        // dead-idle system past its last deadline ends with the fault
        // still scheduled.
        if !self.fault_applied {
            if let Some(pf) = self.config.faults.permanent {
                next = next.min(pf.at);
            }
        }
        any.then_some(next)
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
            let faulted = self
                .sampler
                .sample_probability(self.ws.fault_probability[c / 2]);
            if faulted {
                self.ws.tally.incr(CounterId::TransientFaults, 1);
                self.emit_copy_event(TraceKind::TransientFault, c, 0);
            }
            self.running[slot_proc(c).index()] = None;
            self.close_segment(c, SegmentEnd::Completed);
            self.ws.copies[c].state = CopyState::Done { faulted };
            self.deactivate_copy(c);
            match self.ws.copies[c].kind {
                CopyKind::Backup => {
                    self.ws.tally.incr(CounterId::BackupsCompleted, 1);
                    self.emit_copy_event(TraceKind::BackupComplete, c, u64::from(faulted));
                }
                CopyKind::Optional if !faulted => {
                    self.ws.tally.incr(CounterId::OptionalExecuted, 1);
                    self.emit_copy_event(TraceKind::OptionalComplete, c, 0);
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
            let task = c / 2;
            let copy = self.ws.copies[c];
            // The job's other copy, if it has one, is this task's copy
            // on the other processor.
            let sibling = c ^ 1;
            let has_sibling = self.ws.copies[sibling].index == copy.index;
            if self.ws.jobs[task].open {
                debug_assert_eq!(self.ws.jobs[task].index, copy.index);
                // A backup finishing fault-free with its main copy gone
                // (faulted, lost with its processor, or never created) is
                // the standby-sparing mechanism actually saving the job.
                let recovered = copy.kind == CopyKind::Backup
                    && (!has_sibling
                        || matches!(
                            self.ws.copies[sibling].state,
                            CopyState::Done { faulted: true } | CopyState::Lost
                        ));
                self.ws.deadline_slots.set(task, Time::MAX);
                self.resolve(task, JobOutcome::Met, self.clock);
                if recovered {
                    self.ws.tally.incr(CounterId::FaultsRecovered, 1);
                    self.emit_copy_event(TraceKind::FaultRecovered, c, 0);
                }
            }
            if has_sibling && self.ws.copies[sibling].state == CopyState::Pending {
                self.ws.tally.incr(CounterId::BackupsCanceled, 1);
                self.emit_copy_event(TraceKind::BackupCancel, sibling, 0);
                self.stop_copy(sibling, CopyState::Canceled, SegmentEnd::Canceled);
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
                (c / 2) as u32,
                copy.index as u32,
                copy_role(copy.kind),
                slot_proc(c).index() as u8,
                segment_payload(start.ticks(), ended as u8),
            );
        }
    }

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
        // Every histogram site sits behind the recorder gate
        // (`emit_observe`), so a run with no recorder samples none.
        debug_assert!(
            self.ws.recorder.0.is_some()
                || HistogramId::ALL
                    .iter()
                    .all(|&h| self.ws.tally.histogram(h) == [0; HistogramId::BUCKETS]),
            "a run with no recorder sampled a histogram"
        );
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
    pub(super) struct StaticRef;
    impl Policy for StaticRef {
        fn name(&self) -> &str {
            "static-ref"
        }
        fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
            let mk = ctx.history.constraint();
            if mk.is_mandatory(ctx.job_index) {
                ReleaseDecision::Mandatory {
                    main_proc: ProcId::PRIMARY,
                    backup_delay: Time::ZERO,
                }
            } else {
                ReleaseDecision::Skip
            }
        }
    }

    pub(super) fn fig1_set() -> TaskSet {
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

    /// [`simulate_in`] with two extra knobs for the tests: the
    /// time-advance mechanism, and a hook to poke the freshly reset
    /// workspace (e.g. forge a stuck copy) before the run starts.
    pub(super) fn run_prepared<P: Policy + ?Sized>(
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

    /// Every job optional on the primary, so the spare's copy slots stay
    /// vacant for the whole run.
    struct OptionalOnPrimary;
    impl Policy for OptionalOnPrimary {
        fn name(&self) -> &str {
            "optional-on-primary"
        }
        fn on_release(&mut self, _ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
            ReleaseDecision::Optional {
                proc: ProcId::PRIMARY,
            }
        }
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

        // Forge a pending mandatory copy with no work left in τ1's spare
        // slot, which this policy never uses, and queue it: the first
        // dispatch runs it, so `next_event_time` returns its completion
        // `clock + 0`, a zero-length step out of a state the engine can
        // never produce on its own (a copy completes the moment its
        // remaining work reaches zero).
        let stuck = copy_slot(0, ProcId::SPARE);
        let report = run_prepared(
            &mut ws,
            &ts,
            &mut OptionalOnPrimary,
            &config,
            TimeAdvance::Indexed,
            |ws| {
                ws.copies[stuck] = CopySlot {
                    state: CopyState::Pending,
                    index: u64::MAX,
                    ..CopySlot::VACANT
                };
                ws.mandatory[ProcId::SPARE.index()].insert(0);
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
        assert_eq!(report.stats.missed, 2);

        // The same run without the forged copy never stalls.
        let clean = run_prepared(
            &mut ws,
            &ts,
            &mut OptionalOnPrimary,
            &config,
            TimeAdvance::Indexed,
            |_| {},
        );
        assert_eq!(registry.snapshot().counter(CounterId::EngineStalls), 1);
        assert_eq!(clean.stats.released, 6);
        assert_eq!(clean.stats.met + clean.stats.missed, 6);
    }

    /// Deeply-red mandatory jobs (and any job of flexibility degree 0)
    /// with mains alternating between the processors by task and
    /// backups postponed by half their slack; every other job runs as
    /// an optional on the processor its index picks. Exercises every
    /// event source the engine indexes: postponed copy releases,
    /// cancellation, optional abandonment and both processors' dispatch.
    pub(super) struct Postponing {
        pub(super) delays: Vec<Time>,
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
            let pick = |n: u64| ProcId::ALL[(n % 2) as usize];
            let mk = ctx.history.constraint();
            if mk.is_mandatory(ctx.job_index) || ctx.history.next_is_mandatory() {
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
    pub(super) fn large_set(n: usize) -> TaskSet {
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

    /// Retained state does not grow with the horizon: on one reused
    /// workspace, runs 1 000× apart in length leave every buffer at the
    /// same capacity, and the job and copy slots at one per task and
    /// two per task. The sets run in ascending size, so each one's
    /// bound holds even though capacity is retained across sets.
    #[test]
    fn retained_capacity_is_independent_of_the_horizon() {
        // A Section-V set: `mkss-cli generate --util 0.5 --seed 11`.
        let section_v = TaskSet::new(
            [
                (8_000, 1_189, 8, 10),
                (9_000, 1_483, 1, 7),
                (18_000, 2_840, 1, 6),
                (22_000, 3_890, 10, 16),
                (30_000, 5_137, 5, 8),
                (34_000, 3_053, 3, 5),
                (40_000, 2_993, 4, 5),
            ]
            .into_iter()
            .map(|(period_us, wcet_us, m, k)| {
                let period = Time::from_us(period_us);
                Task::new(period, period, Time::from_us(wcet_us), m, k).unwrap()
            })
            .collect(),
        )
        .unwrap();
        let capacities = |ws: &SimWorkspace| {
            let trees = [&ws.release_slots, &ws.deadline_slots, &ws.backup_slots]
                .into_iter()
                .chain(&ws.optional_expiry);
            let mut all = vec![
                ws.tasks.capacity(),
                ws.jobs.capacity(),
                ws.copies.capacity(),
                ws.due_scratch.capacity(),
                ws.fault_probability.capacity(),
            ];
            all.extend(trees.map(|slots| slots.tree.capacity()));
            all.extend(ws.optional.iter().map(|ojq| ojq.tree.capacity()));
            all.extend(ws.mandatory.iter().map(|mjq| mjq.words.capacity()));
            all
        };
        let mut ws = SimWorkspace::new();
        for (ts, short_ms) in [(section_v, 100), (large_set(1024), 10)] {
            let n = ts.len();
            let mut retained = Vec::new();
            let mut released = Vec::new();
            for horizon_ms in [short_ms, 1_000 * short_ms] {
                let config = SimConfig::builder()
                    .horizon_ms(horizon_ms)
                    .faults(FaultConfig::combined(
                        ProcId::PRIMARY,
                        Time::from_ms(horizon_ms / 2),
                        0.01,
                        5,
                    ))
                    .build();
                let mut policy = Postponing { delays: Vec::new() };
                let report = simulate_in(&mut ws, &ts, &mut policy, &config);
                released.push(report.stats.released);
                retained.push(capacities(&ws));
            }
            assert!(
                released[1] > 500 * released[0],
                "{n} tasks: {released:?} jobs"
            );
            assert_eq!(retained[0], retained[1], "{n} tasks");
            assert!(ws.jobs.capacity() <= n, "{n} tasks");
            assert!(ws.copies.capacity() <= 2 * n, "{n} tasks");
        }
    }

    proptest::proptest! {
        /// After any sequence of updates, the root is the minimum leaf
        /// and `first_due` names the lowest slot at or before `now`.
        #[test]
        fn time_slots_find_the_lowest_due_slot(
            slots in 1usize..70,
            update_slots in proptest::collection::vec(0usize..70, 0..200),
            update_times in proptest::collection::vec(0u64..1_000, 0..200),
            now in 0u64..1_000,
        ) {
            let mut tree = SlotTree::<Time>::default();
            tree.reset(slots, Time::ZERO);
            let mut reference = vec![Time::ZERO; slots];
            for (&slot, &at) in update_slots.iter().zip(&update_times) {
                let slot = slot % slots;
                let at = if at % 10 == 0 { Time::MAX } else { Time::from_ticks(at) };
                tree.set(slot, at);
                reference[slot] = at;
            }
            let now = Time::from_ticks(now);
            proptest::prop_assert_eq!(
                tree.min(),
                reference.iter().copied().min().unwrap()
            );
            proptest::prop_assert_eq!(
                tree.first_due(now),
                reference.iter().position(|&at| at <= now)
            );
        }

        /// The ready bits name the lowest task, and `remove` reports
        /// exactly the bits that were set.
        #[test]
        fn task_bits_track_a_set_of_tasks(
            tasks in 1usize..200,
            update_tasks in proptest::collection::vec(0usize..200, 0..300),
            update_inserts in proptest::collection::vec(0u8..2, 0..300),
        ) {
            let mut bits = TaskBits::default();
            bits.reset(tasks);
            let mut reference = std::collections::BTreeSet::new();
            for (&task, &insert) in update_tasks.iter().zip(&update_inserts) {
                let task = task % tasks;
                if insert == 1 {
                    bits.insert(task);
                    reference.insert(task);
                } else {
                    proptest::prop_assert_eq!(bits.remove(task), reference.remove(&task));
                }
                proptest::prop_assert_eq!(bits.first(), reference.first().copied());
            }
        }
    }
}
