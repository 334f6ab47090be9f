//! The flight recorder: a pre-allocated ring buffer of structured engine
//! events, plus the exporters that turn a captured buffer into something a
//! human (or Perfetto) can read.
//!
//! The counter catalog answers "how many"; this module answers "in what
//! order, and why". The engine feeds [`Recorder::event`] of a recorder
//! that wants events one packed [`EngineEvent`] per semantic step —
//! release, classification, backup postponement, cancellation, fault,
//! resolution, executed segment — and a [`TraceRecorder`] copies them
//! into a bounded [`TraceBuffer`], the one capture type. Everything
//! downstream — the Chrome Trace Event export
//! ([`chrome_trace`]), the plain-text timeline ([`timeline_text`]), the
//! (m,k) violation forensics ([`violation_reports`]), and the simulator's
//! schedule trace, which decodes a buffer — is a pure function of the
//! buffer, so trace output is deterministic and golden-testable.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::recorder::Recorder;
use crate::registry::MetricsSnapshot;

/// A poisoned buffer mutex just means another recorder panicked mid-push;
/// keep capturing rather than cascading the panic (same recovery as the
/// reporter's sink lock).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Default [`TraceBuffer`] capacity for command-line captures: a 1 s
/// Section-V run records at most ~4.4k events, segments included, so
/// runs up to about 15 s keep every event.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Sentinel processor id for engine-level events that belong to no
/// processor track (job resolutions, (m,k) violations, stalls).
pub const PROC_NONE: u8 = u8::MAX;

/// What one trace event records — the structured counterpart of the
/// counter catalog, covering the paper's full release / classification /
/// postponement / cancellation / fault / resolution stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TraceKind {
    /// A mandatory job released; payload = 0 (unused; the field keeps
    /// the event layout shared by every kind).
    MandatoryRelease,
    /// An optional job admitted; payload = flexibility degree at release.
    OptionalSelect,
    /// An optional job skipped at release; payload = flexibility degree.
    OptionalSkip,
    /// An admitted optional copy abandoned as infeasible.
    OptionalAbandon,
    /// A backup copy released on the spare; payload = postponement θ in
    /// ticks (`r̃ = r + θ`; zero means not postponed). The event time is
    /// the *effective* release `r̃`.
    BackupRelease,
    /// A pending backup canceled because its sibling finished fault-free.
    BackupCancel,
    /// A backup copy ran to completion; payload = 1 if it faulted.
    BackupComplete,
    /// An optional copy ran to completion fault-free.
    OptionalComplete,
    /// A transient fault sampled onto a completing copy.
    TransientFault,
    /// A permanent processor fault; the `proc` field names the casualty.
    PermanentFault,
    /// A pending copy lost to a permanent processor fault.
    CopyLost,
    /// A job met *because* a backup covered a failed or lost main copy.
    FaultRecovered,
    /// A job resolved as met; payload = (m,k) distance-to-violation after
    /// recording the outcome.
    JobMet,
    /// A job resolved as missed; payload = distance-to-violation after.
    JobMissed,
    /// A task's (m,k) window newly entered violation; payload packs the
    /// constraint as `(m << 32) | k`.
    MkViolation,
    /// The event loop aborted on a non-advancing next-event time.
    EngineStall,
    /// A copy left its processor, closing one non-empty execution
    /// segment. The event time is the segment end; the payload packs the
    /// start and the end-reason code ([`segment_payload`]).
    Segment,
}

impl TraceKind {
    /// Number of event kinds in the catalog.
    pub const COUNT: usize = 17;

    /// Every kind, in catalog order.
    pub const ALL: [TraceKind; Self::COUNT] = [
        TraceKind::MandatoryRelease,
        TraceKind::OptionalSelect,
        TraceKind::OptionalSkip,
        TraceKind::OptionalAbandon,
        TraceKind::BackupRelease,
        TraceKind::BackupCancel,
        TraceKind::BackupComplete,
        TraceKind::OptionalComplete,
        TraceKind::TransientFault,
        TraceKind::PermanentFault,
        TraceKind::CopyLost,
        TraceKind::FaultRecovered,
        TraceKind::JobMet,
        TraceKind::JobMissed,
        TraceKind::MkViolation,
        TraceKind::EngineStall,
        TraceKind::Segment,
    ];

    /// Stable snake_case export name.
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::MandatoryRelease => "mandatory_release",
            TraceKind::OptionalSelect => "optional_select",
            TraceKind::OptionalSkip => "optional_skip",
            TraceKind::OptionalAbandon => "optional_abandon",
            TraceKind::BackupRelease => "backup_release",
            TraceKind::BackupCancel => "backup_cancel",
            TraceKind::BackupComplete => "backup_complete",
            TraceKind::OptionalComplete => "optional_complete",
            TraceKind::TransientFault => "transient_fault",
            TraceKind::PermanentFault => "permanent_fault",
            TraceKind::CopyLost => "copy_lost",
            TraceKind::FaultRecovered => "fault_recovered",
            TraceKind::JobMet => "job_met",
            TraceKind::JobMissed => "job_missed",
            TraceKind::MkViolation => "mk_violation",
            TraceKind::EngineStall => "engine_stall",
            TraceKind::Segment => "segment",
        }
    }
}

/// Packs a [`TraceKind::Segment`] payload: the start time in ticks above
/// a 3-bit end-reason code, inverted exactly by [`segment_parts`] for
/// every start below 2^61 ticks.
#[inline]
pub fn segment_payload(start_us: u64, reason: u8) -> u64 {
    debug_assert!(start_us < 1 << 61 && reason < 8);
    start_us << 3 | u64::from(reason)
}

/// Unpacks a [`segment_payload`] into `(start_us, reason)`.
pub fn segment_parts(payload: u64) -> (u64, u8) {
    (payload >> 3, (payload & 0b111) as u8)
}

/// Which copy of a job an event refers to, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CopyRole {
    /// The event is about the job or the engine, not a specific copy.
    None,
    /// The main (primary-processor) copy.
    Main,
    /// The standby-sparing backup copy.
    Backup,
    /// An optional-job copy.
    Optional,
}

impl CopyRole {
    /// Stable snake_case export name.
    pub const fn name(self) -> &'static str {
        match self {
            CopyRole::None => "none",
            CopyRole::Main => "main",
            CopyRole::Backup => "backup",
            CopyRole::Optional => "optional",
        }
    }
}

/// One structured engine event, as handed to [`Recorder::event`].
///
/// A stack-built `Copy` value: emit sites construct it inline inside the
/// recorder gate, so with no recorder attached the cost stays one branch
/// and zero allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineEvent {
    /// Simulated time in ticks (one tick is one microsecond).
    pub at_us: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Task index within the task set (0 for engine-level events).
    pub task: u32,
    /// Job index within the task (0 for engine-level events).
    pub job: u32,
    /// Which copy the event refers to, if any.
    pub copy: CopyRole,
    /// Processor index, or [`PROC_NONE`] for engine-level events.
    pub proc: u8,
    /// Kind-specific detail (see [`TraceKind`] variant docs).
    pub payload: u64,
}

/// One captured flight-recorder record: the event plus its monotonically
/// increasing capture sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in the capture stream (0-based, never reused within a
    /// run; survives ring wrap-around so drops are visible as seq gaps).
    pub seq: u64,
    /// The captured event.
    pub event: EngineEvent,
}

/// A bounded ring of [`TraceEvent`] records.
///
/// Once full, new events overwrite the oldest, so the buffer always
/// holds the *last* `capacity` events. Up to [`DEFAULT_TRACE_CAPACITY`]
/// events are allocated up front and storage grows past that, so a ring
/// at or below the default never allocates on push (the flight-recorder
/// counterpart of the engine's pre-sized event calendar), while
/// `with_capacity(usize::MAX)` keeps a whole run.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    next_seq: u64,
}

impl TraceBuffer {
    /// A buffer holding up to `capacity` events (at least one), with
    /// room for `min(capacity, DEFAULT_TRACE_CAPACITY)` allocated now.
    pub fn with_capacity(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            events: Vec::with_capacity(capacity.min(DEFAULT_TRACE_CAPACITY)),
            capacity,
            head: 0,
            next_seq: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever pushed, including ones the ring overwrote.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events pushed but no longer retained.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.events.len() as u64
    }

    /// Append one event, overwriting the oldest once full. Returns the
    /// capture sequence number assigned to it.
    pub fn push(&mut self, event: EngineEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let record = TraceEvent { seq, event };
        if self.events.len() < self.capacity {
            self.events.push(record);
        } else {
            self.events[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
        }
        seq
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events[self.head..]
            .iter()
            .chain(&self.events[..self.head])
    }
}

/// A [`Recorder`] decorator that captures the structured event stream
/// into a [`TraceBuffer`] while forwarding each run's tally to an
/// optional inner recorder, and the events too when that recorder wants
/// them.
///
/// Like every recorder it is oblivious: attaching one leaves the
/// simulation byte-identical. A ring at or below
/// [`DEFAULT_TRACE_CAPACITY`] is fully pre-allocated at construction, so
/// it never allocates per event.
pub struct TraceRecorder {
    inner: Option<Arc<dyn Recorder>>,
    /// `inner.wants_events()`, read once at construction.
    inner_events: bool,
    buffer: Mutex<TraceBuffer>,
}

impl TraceRecorder {
    /// Capture the event stream into `buffer`, forwarding tallies (and
    /// events, if it wants them) to `inner` when one is given.
    pub fn new(buffer: TraceBuffer, inner: Option<Arc<dyn Recorder>>) -> TraceRecorder {
        TraceRecorder {
            inner_events: inner.as_ref().is_some_and(|inner| inner.wants_events()),
            inner,
            buffer: Mutex::new(buffer),
        }
    }

    /// Take the captured buffer, leaving an empty one of the same
    /// capacity in place.
    pub fn take(&self) -> TraceBuffer {
        let mut guard = lock(&self.buffer);
        let empty = TraceBuffer::with_capacity(guard.capacity);
        std::mem::replace(&mut guard, empty)
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buffer = lock(&self.buffer);
        f.debug_struct("TraceRecorder")
            .field("inner", &self.inner.is_some())
            .field("len", &buffer.len())
            .field("capacity", &buffer.capacity())
            .finish_non_exhaustive()
    }
}

impl Recorder for TraceRecorder {
    fn absorb(&self, tally: &MetricsSnapshot) {
        if let Some(inner) = &self.inner {
            inner.absorb(tally);
        }
    }

    #[inline]
    fn wants_events(&self) -> bool {
        true
    }

    fn event(&self, event: &EngineEvent) {
        if self.inner_events {
            if let Some(inner) = &self.inner {
                inner.event(event);
            }
        }
        lock(&self.buffer).push(*event);
    }
}

// ----- exporters -------------------------------------------------------

fn proc_tid(proc: u8) -> u8 {
    if proc == PROC_NONE {
        2
    } else {
        proc
    }
}

/// One plain-text timeline line for an event (no trailing newline).
fn timeline_line(record: &TraceEvent) -> String {
    let e = &record.event;
    let proc = if e.proc == PROC_NONE {
        "-".to_string()
    } else {
        e.proc.to_string()
    };
    format!(
        "t={:>9}us seq={:<6} {:<18} task={:<3} job={:<5} copy={:<8} proc={} payload={}",
        e.at_us,
        record.seq,
        e.kind.name(),
        e.task,
        e.job,
        e.copy.name(),
        proc,
        e.payload
    )
}

/// Render the buffer as a plain-text timeline, oldest event first —
/// a pure function of the buffer, so output is deterministic.
pub fn timeline_text(buffer: &TraceBuffer) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# trace: {} events retained, {} recorded, {} dropped\n",
        buffer.len(),
        buffer.total_recorded(),
        buffer.dropped()
    ));
    for record in buffer.iter() {
        out.push_str(&timeline_line(record));
        out.push('\n');
    }
    out
}

/// Whether `e` ends a backup copy: its cancellation, completion or loss.
fn ends_backup(e: &EngineEvent) -> bool {
    matches!(e.kind, TraceKind::BackupCancel | TraceKind::BackupComplete)
        || (e.kind == TraceKind::CopyLost && e.copy == CopyRole::Backup)
}

/// Export labeled capture buffers as Chrome Trace Event JSON — loads in
/// Perfetto or `chrome://tracing`.
///
/// Each `(label, buffer)` run becomes one process (pid = position + 1)
/// named by its label, with one thread track per processor (`primary`,
/// `spare`) plus an `engine` track for processor-less events. Each
/// [`TraceKind::Segment`] renders as a complete slice ("X") on its
/// processor track, named by the copy role; every other event renders
/// as an instant ("i"). Each mandatory release whose
/// backup later completed or was canceled additionally opens a nestable
/// async span ("b" on the primary track, "e" on the backup's terminal
/// event) so Perfetto draws the primary→backup pairing as an arrow.
///
/// Pure function of its inputs: the same buffers produce byte-identical
/// JSON, which is what the CI trace gate pins.
pub fn chrome_trace(runs: &[(&str, &TraceBuffer)]) -> String {
    let mut entries: Vec<String> = Vec::new();
    for (i, (label, buffer)) in runs.iter().enumerate() {
        let pid = i + 1;
        let mut name = String::new();
        serde_json::write_escaped(&mut name, label);
        entries.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":{name}}}}}"
        ));
        for (tid, name) in [(0, "primary"), (1, "spare"), (2, "engine")] {
            entries.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        // Primary→backup pairs: a mandatory release opens an async span
        // only when the matching backup terminal event is also retained,
        // so every "b" has its "e".
        let mut pairs: std::collections::BTreeMap<(u32, u32), (bool, bool)> =
            std::collections::BTreeMap::new();
        for record in buffer.iter() {
            let e = &record.event;
            if e.kind == TraceKind::MandatoryRelease {
                pairs.entry((e.task, e.job)).or_insert((false, false)).0 = true;
            } else if ends_backup(e) {
                pairs.entry((e.task, e.job)).or_insert((false, false)).1 = true;
            }
        }
        let mut closed: std::collections::BTreeMap<(u32, u32), bool> =
            std::collections::BTreeMap::new();
        for record in buffer.iter() {
            let e = &record.event;
            if e.kind == TraceKind::Segment {
                let (start, ended) = segment_parts(e.payload);
                entries.push(format!(
                    "{{\"ph\":\"X\",\"cat\":\"segment\",\"pid\":{pid},\"tid\":{tid},\"ts\":{start},\"dur\":{dur},\"name\":\"{copy}\",\"args\":{{\"seq\":{seq},\"task\":{task},\"job\":{job},\"ended\":{ended}}}}}",
                    tid = proc_tid(e.proc),
                    dur = e.at_us - start,
                    copy = e.copy.name(),
                    seq = record.seq,
                    task = e.task,
                    job = e.job,
                ));
                continue;
            }
            entries.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"{name}\",\"args\":{{\"seq\":{seq},\"task\":{task},\"job\":{job},\"copy\":\"{copy}\",\"payload\":{payload}}}}}",
                tid = proc_tid(e.proc),
                ts = e.at_us,
                name = e.kind.name(),
                seq = record.seq,
                task = e.task,
                job = e.job,
                copy = e.copy.name(),
                payload = e.payload,
            ));
            let key = (e.task, e.job);
            let paired = pairs.get(&key) == Some(&(true, true));
            if paired && e.kind == TraceKind::MandatoryRelease && !closed.contains_key(&key) {
                closed.insert(key, false);
                entries.push(format!(
                    "{{\"ph\":\"b\",\"cat\":\"backup\",\"id\":\"p{pid}.t{task}.j{job}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"primary->backup\",\"args\":{{\"task\":{task},\"job\":{job}}}}}",
                    task = e.task,
                    job = e.job,
                    tid = proc_tid(e.proc),
                    ts = e.at_us,
                ));
            }
            if ends_backup(e) && closed.get(&key) == Some(&false) {
                closed.insert(key, true);
                entries.push(format!(
                    "{{\"ph\":\"e\",\"cat\":\"backup\",\"id\":\"p{pid}.t{task}.j{job}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"primary->backup\",\"args\":{{}}}}",
                    task = e.task,
                    job = e.job,
                    tid = proc_tid(e.proc),
                    ts = e.at_us,
                ));
            }
        }
    }
    let mut out = String::with_capacity(64 + entries.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// A note naming every run whose ring overwrote its earliest events,
/// with the kept/recorded counts — `" (ring overflow, kept/recorded
/// events: st 65536/70123)"` — or an empty string when every run was
/// kept whole. Exports append it to their "wrote …" line.
pub fn overflow_note(runs: &[(&str, &TraceBuffer)]) -> String {
    let overflowed: Vec<String> = runs
        .iter()
        .filter(|(_, buffer)| buffer.dropped() > 0)
        .map(|(label, buffer)| format!("{label} {}/{}", buffer.len(), buffer.total_recorded()))
        .collect();
    if overflowed.is_empty() {
        return String::new();
    }
    format!(
        " (ring overflow, kept/recorded events: {})",
        overflowed.join(", ")
    )
}

/// Render the buffer as a compact single-line JSON object fragment —
/// `{"capacity":…,"recorded":…,"dropped":…,"events":[…]}` — the wire
/// form embedded in `mkss-serve` response lines.
pub fn trace_json_fragment(buffer: &TraceBuffer) -> String {
    let mut out = String::with_capacity(64 + buffer.len() * 80);
    out.push_str(&format!(
        "{{\"capacity\":{},\"recorded\":{},\"dropped\":{},\"events\":[",
        buffer.capacity(),
        buffer.total_recorded(),
        buffer.dropped()
    ));
    for (i, record) in buffer.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let e = &record.event;
        out.push_str(&format!(
            "{{\"t\":{},\"seq\":{},\"kind\":\"{}\",\"task\":{},\"job\":{},\"copy\":\"{}\",\"proc\":{},\"payload\":{}}}",
            e.at_us,
            record.seq,
            e.kind.name(),
            e.task,
            e.job,
            e.copy.name(),
            if e.proc == PROC_NONE {
                "null".to_string()
            } else {
                e.proc.to_string()
            },
            e.payload,
        ));
    }
    out.push_str("]}");
    out
}

// ----- violation forensics ---------------------------------------------

/// Everything needed to explain one (m,k) violation after the fact: the
/// constraint, the k-sequence window that tipped over, and the task's
/// recent event history from the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationReport {
    /// Task whose window violated.
    pub task: u32,
    /// Simulated time of the violation in ticks (microseconds).
    pub at_us: u64,
    /// Capture sequence number of the trigger event.
    pub seq: u64,
    /// The constraint's `m` (0 when the trigger carries no constraint).
    pub m: u32,
    /// The constraint's `k` (0 when the trigger carries no constraint).
    pub k: u32,
    /// The task's most recent job outcomes, oldest first, tipping job
    /// last (`true` = met). At most `k` entries — fewer if the ring
    /// already dropped the older resolutions.
    pub window: Vec<bool>,
    /// The task's last events up to and including the trigger, oldest
    /// first, capped at the `last` argument of [`violation_reports`].
    pub events: Vec<TraceEvent>,
}

impl ViolationReport {
    /// Render the report as indented plain text for stderr forensics.
    pub fn render(&self) -> String {
        let mut out = format!(
            "(m,k) violation: task {} at t={}us (seq {}), constraint ({},{})\n",
            self.task, self.at_us, self.seq, self.m, self.k
        );
        let met = self.window.iter().filter(|&&m| m).count();
        let picture: String = self
            .window
            .iter()
            .map(|&m| if m { '+' } else { '-' })
            .collect();
        out.push_str(&format!(
            "  window (oldest..tipping): {picture} ({met} met of last {})\n",
            self.window.len()
        ));
        out.push_str("  recent events:\n");
        for record in &self.events {
            out.push_str("    ");
            out.push_str(&timeline_line(record));
            out.push('\n');
        }
        out
    }
}

/// Forensics with the default trigger: one report per retained
/// [`TraceKind::MkViolation`] event, each carrying the task's last
/// `last` events.
pub fn violation_reports(buffer: &TraceBuffer, last: usize) -> Vec<ViolationReport> {
    violation_reports_on(buffer, TraceKind::MkViolation, last)
}

/// Forensics with a configurable trigger kind: snapshot the triggering
/// task's last `last` events (and, for violation triggers, the
/// k-sequence window reconstructed from its resolution events) at every
/// retained occurrence of `trigger`.
pub fn violation_reports_on(
    buffer: &TraceBuffer,
    trigger: TraceKind,
    last: usize,
) -> Vec<ViolationReport> {
    let records: Vec<&TraceEvent> = buffer.iter().collect();
    let mut reports = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let e = &record.event;
        if e.kind != trigger {
            continue;
        }
        let (m, k) = if trigger == TraceKind::MkViolation {
            ((e.payload >> 32) as u32, e.payload as u32)
        } else {
            (0, 0)
        };
        // Walk backwards over this task's resolutions to rebuild the
        // window; the tipping job's resolution immediately precedes the
        // violation event in the capture stream.
        let mut window = Vec::new();
        if k > 0 {
            for past in records[..=i].iter().rev() {
                if past.event.task != e.task {
                    continue;
                }
                match past.event.kind {
                    TraceKind::JobMet => window.push(true),
                    TraceKind::JobMissed => window.push(false),
                    _ => continue,
                }
                if window.len() == k as usize {
                    break;
                }
            }
            window.reverse();
        }
        let mut events: Vec<TraceEvent> = records[..=i]
            .iter()
            .rev()
            .filter(|r| r.event.task == e.task)
            .take(last)
            .map(|r| **r)
            .collect();
        events.reverse();
        reports.push(ViolationReport {
            task: e.task,
            at_us: e.at_us,
            seq: record.seq,
            m,
            k,
            window,
            events,
        });
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterId, HistogramId};

    fn ev(at_us: u64, kind: TraceKind, task: u32, job: u32, payload: u64) -> EngineEvent {
        EngineEvent {
            at_us,
            kind,
            task,
            job,
            copy: CopyRole::None,
            proc: PROC_NONE,
            payload,
        }
    }

    #[test]
    fn kind_names_are_unique_snake_case() {
        #[expect(
            clippy::disallowed_types,
            reason = "test-only uniqueness check; iteration order is never observed"
        )]
        let mut seen = std::collections::HashSet::new();
        for kind in TraceKind::ALL {
            let name = kind.name();
            assert!(seen.insert(name), "duplicate kind name {name}");
            assert!(
                name.chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'),
                "non-snake-case kind name {name}"
            );
        }
    }

    #[test]
    fn ring_retains_the_last_capacity_events() {
        let mut buffer = TraceBuffer::with_capacity(3);
        for i in 0..5 {
            assert_eq!(buffer.push(ev(i, TraceKind::JobMet, 0, i as u32, 0)), i);
        }
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.total_recorded(), 5);
        assert_eq!(buffer.dropped(), 2);
        let seqs: Vec<u64> = buffer.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 3, 4], "oldest first, drops from the front");
    }

    #[test]
    fn ring_never_reallocates_after_construction() {
        let mut buffer = TraceBuffer::with_capacity(4);
        let capacity = buffer.events.capacity();
        for i in 0..100 {
            buffer.push(ev(i, TraceKind::JobMet, 0, 0, 0));
        }
        assert_eq!(buffer.events.capacity(), capacity);
    }

    #[test]
    fn unbounded_ring_grows_past_the_default_and_keeps_every_event() {
        let mut buffer = TraceBuffer::with_capacity(usize::MAX);
        assert_eq!(buffer.events.capacity(), DEFAULT_TRACE_CAPACITY);
        let total = DEFAULT_TRACE_CAPACITY as u64 + 3;
        for i in 0..total {
            buffer.push(ev(i, TraceKind::JobMet, 0, 0, 0));
        }
        assert_eq!(buffer.total_recorded(), total);
        assert_eq!(buffer.dropped(), 0);
        assert_eq!(buffer.iter().next().expect("oldest").seq, 0);
    }

    #[test]
    fn overflow_note_names_only_the_runs_that_dropped_events() {
        let mut whole = TraceBuffer::with_capacity(4);
        let mut ring = TraceBuffer::with_capacity(2);
        for i in 0..3 {
            whole.push(ev(i, TraceKind::JobMet, 0, 0, 0));
            ring.push(ev(i, TraceKind::JobMet, 0, 0, 0));
        }
        assert_eq!(overflow_note(&[("a", &whole)]), "");
        assert_eq!(
            overflow_note(&[("a", &whole), ("b", &ring)]),
            " (ring overflow, kept/recorded events: b 2/3)"
        );
    }

    #[test]
    fn trace_recorder_captures_and_forwards() {
        use crate::registry::Registry;
        let registry = Arc::new(Registry::new(1));
        let recorder = TraceRecorder::new(
            TraceBuffer::with_capacity(8),
            Some(Arc::new(registry.handle_at(0))),
        );
        let mut tally = MetricsSnapshot::empty();
        tally.incr(CounterId::JobsMet, 2);
        tally.observe(HistogramId::MkDistance, 1);
        recorder.absorb(&tally);
        recorder.event(&ev(10, TraceKind::JobMet, 1, 0, 3));
        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterId::JobsMet), 2);
        assert_eq!(snap.histogram(HistogramId::MkDistance)[1], 1);
        let buffer = recorder.take();
        assert_eq!(buffer.len(), 1);
        assert_eq!(buffer.iter().next().expect("event").event.at_us, 10);
        let emptied = recorder.take();
        assert!(emptied.is_empty());
        assert_eq!(emptied.capacity(), 8);
    }

    #[test]
    fn timeline_lists_events_oldest_first() {
        let mut buffer = TraceBuffer::with_capacity(8);
        buffer.push(ev(100, TraceKind::MandatoryRelease, 0, 0, 0));
        buffer.push(ev(200, TraceKind::JobMet, 0, 0, 2));
        let text = timeline_text(&buffer);
        assert!(text.starts_with("# trace: 2 events retained, 2 recorded, 0 dropped\n"));
        let release = text.find("mandatory_release").expect("release line");
        let met = text.find("job_met").expect("met line");
        assert!(release < met, "{text}");
        assert!(text.contains("t=      100us"), "{text}");
    }

    #[test]
    fn chrome_trace_is_deterministic_and_labels_processes() {
        let mut buffer = TraceBuffer::with_capacity(8);
        let mut release = ev(100, TraceKind::MandatoryRelease, 0, 0, 0);
        release.copy = CopyRole::Main;
        release.proc = 0;
        buffer.push(release);
        let mut cancel = ev(400, TraceKind::BackupCancel, 0, 0, 0);
        cancel.copy = CopyRole::Backup;
        cancel.proc = 1;
        buffer.push(cancel);
        let json = chrome_trace(&[("MKSS_selective", &buffer)]);
        assert_eq!(json, chrome_trace(&[("MKSS_selective", &buffer)]));
        assert!(json.starts_with("{\"traceEvents\":[\n"), "{json}");
        assert!(json.contains("\"process_name\",\"args\":{\"name\":\"MKSS_selective\"}"));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"primary\"}"));
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        // The release/cancel pair opens and closes one async span.
        assert!(
            json.contains("\"ph\":\"b\",\"cat\":\"backup\",\"id\":\"p1.t0.j0\""),
            "{json}"
        );
        assert!(
            json.contains("\"ph\":\"e\",\"cat\":\"backup\",\"id\":\"p1.t0.j0\""),
            "{json}"
        );
    }

    #[test]
    fn segment_payload_round_trips_exactly() {
        for start in [0, 1, 7, 1_000_000, (1 << 61) - 1] {
            for reason in 0..8 {
                assert_eq!(
                    segment_parts(segment_payload(start, reason)),
                    (start, reason)
                );
            }
        }
    }

    #[test]
    fn chrome_trace_renders_segments_as_complete_slices() {
        let mut buffer = TraceBuffer::with_capacity(8);
        let mut segment = ev(500, TraceKind::Segment, 1, 2, segment_payload(200, 1));
        segment.copy = CopyRole::Backup;
        segment.proc = 1;
        buffer.push(segment);
        let json = chrome_trace(&[("run", &buffer)]);
        assert!(
            json.contains(
                "{\"ph\":\"X\",\"cat\":\"segment\",\"pid\":1,\"tid\":1,\"ts\":200,\"dur\":300,\"name\":\"backup\",\"args\":{\"seq\":0,\"task\":1,\"job\":2,\"ended\":1}}"
            ),
            "{json}"
        );
        assert!(!json.contains("\"ph\":\"i\""), "{json}");
    }

    #[test]
    fn chrome_trace_never_opens_an_unclosed_async_span() {
        let mut buffer = TraceBuffer::with_capacity(8);
        let mut release = ev(100, TraceKind::MandatoryRelease, 0, 0, 0);
        release.proc = 0;
        buffer.push(release);
        let json = chrome_trace(&[("solo", &buffer)]);
        assert!(!json.contains("\"ph\":\"b\""), "{json}");
        assert!(!json.contains("\"ph\":\"e\""), "{json}");
    }

    #[test]
    fn json_fragment_is_compact_and_complete() {
        let mut buffer = TraceBuffer::with_capacity(2);
        buffer.push(ev(5, TraceKind::JobMissed, 2, 7, 1));
        let mut on_proc = ev(9, TraceKind::BackupRelease, 2, 8, 500);
        on_proc.proc = 1;
        on_proc.copy = CopyRole::Backup;
        buffer.push(on_proc);
        let json = trace_json_fragment(&buffer);
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"capacity\":2,\"recorded\":2,\"dropped\":0,\"events\":["));
        assert!(json.contains(
            "\"kind\":\"job_missed\",\"task\":2,\"job\":7,\"copy\":\"none\",\"proc\":null"
        ));
        assert!(json.contains("\"kind\":\"backup_release\",\"task\":2,\"job\":8,\"copy\":\"backup\",\"proc\":1,\"payload\":500"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn violation_forensics_rebuild_the_tipping_window() {
        let mut buffer = TraceBuffer::with_capacity(32);
        // Task 1: met, missed, missed -> violation of (2,4); task 0 noise
        // interleaved to prove per-task filtering.
        buffer.push(ev(100, TraceKind::JobMet, 1, 0, 3));
        buffer.push(ev(150, TraceKind::JobMet, 0, 0, 2));
        buffer.push(ev(200, TraceKind::JobMissed, 1, 1, 1));
        buffer.push(ev(300, TraceKind::JobMissed, 1, 2, 0));
        buffer.push(ev(300, TraceKind::MkViolation, 1, 2, (2u64 << 32) | 4));
        let reports = violation_reports(&buffer, 3);
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!((report.task, report.m, report.k), (1, 2, 4));
        assert_eq!(report.at_us, 300);
        assert_eq!(
            report.window,
            [true, false, false],
            "oldest first, tipping last"
        );
        assert_eq!(report.events.len(), 3, "capped at last=3");
        assert!(report.events.iter().all(|r| r.event.task == 1));
        let text = report.render();
        assert!(text.contains("task 1 at t=300us"), "{text}");
        assert!(text.contains("constraint (2,4)"), "{text}");
        assert!(text.contains("+-- (1 met of last 3)"), "{text}");
    }

    #[test]
    fn configurable_trigger_reports_without_a_window() {
        let mut buffer = TraceBuffer::with_capacity(8);
        buffer.push(ev(10, TraceKind::JobMet, 0, 0, 2));
        buffer.push(ev(20, TraceKind::EngineStall, 0, 0, 0));
        let reports = violation_reports_on(&buffer, TraceKind::EngineStall, 8);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].k, 0);
        assert!(reports[0].window.is_empty());
        assert_eq!(reports[0].events.len(), 2);
    }

    #[test]
    fn buffer_clone_snapshots_are_independent() {
        let mut buffer = TraceBuffer::with_capacity(4);
        buffer.push(ev(1, TraceKind::JobMet, 0, 0, 0));
        let snap = buffer.clone();
        buffer.push(ev(2, TraceKind::JobMet, 0, 1, 0));
        assert_eq!(snap.len(), 1);
        assert_eq!(buffer.len(), 2);
    }
}
