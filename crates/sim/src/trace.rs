//! Schedule traces: executed segments, per-job outcomes, and an ASCII
//! Gantt renderer for debugging and for reproducing the paper's figures.
//! A [`TraceCollector`] rebuilds the [`Trace`] from the engine's event
//! stream, which is the engine's only capture path.

use mkss_core::history::JobOutcome;
use mkss_core::job::{CopyKind, JobId};
use mkss_core::task::TaskId;
use mkss_core::time::{Time, TICKS_PER_MS};
use mkss_obs::{segment_parts, CopyRole, EngineEvent, EventSink, TraceKind, TraceRecorder};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use crate::power::{Energy, PowerModel};
use crate::proc::ProcId;

/// Why an execution segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: segment endings mirror the engine's fixed event alphabet; forensics match exhaustively"
)]
pub enum SegmentEnd {
    /// The copy finished its execution demand.
    Completed,
    /// A higher-priority copy preempted it.
    Preempted,
    /// The sibling copy succeeded and this copy was canceled.
    Canceled,
    /// A permanent fault destroyed the processor mid-execution.
    Lost,
    /// The simulation horizon cut the segment short.
    Horizon,
}

impl SegmentEnd {
    /// Every reason, indexed by the code (`reason as u8`) that a
    /// `Segment` event payload carries.
    const ALL: [SegmentEnd; 5] = [
        SegmentEnd::Completed,
        SegmentEnd::Preempted,
        SegmentEnd::Canceled,
        SegmentEnd::Lost,
        SegmentEnd::Horizon,
    ];
}

/// One contiguous execution of a job copy on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// Executing processor.
    pub proc: ProcId,
    /// The job being executed.
    pub job: JobId,
    /// Which copy (main / backup / optional).
    pub kind: CopyKind,
    /// Segment start time.
    pub start: Time,
    /// Segment end time (exclusive).
    pub end: Time,
    /// Why the segment ended.
    pub ended: SegmentEnd,
}

impl Segment {
    /// Segment length.
    pub fn len(&self) -> Time {
        self.end - self.start
    }

    /// Whether the segment is empty (zero-length).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Resolution of one released job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobResolution {
    /// The job.
    pub job: JobId,
    /// Its outcome (met / missed).
    pub outcome: JobOutcome,
    /// When the outcome was decided (success time, or the deadline for a
    /// miss).
    pub at: Time,
}

/// Full schedule trace of one simulation run.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Executed segments in chronological order of their start.
    pub segments: Vec<Segment>,
    /// Job resolutions in chronological order.
    pub resolutions: Vec<JobResolution>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Total busy time of `proc` within `[0, until)`, clamping segments
    /// crossing the boundary.
    pub fn busy_time_within(&self, proc: ProcId, until: Time) -> Time {
        self.segments
            .iter()
            .filter(|s| s.proc == proc && s.start < until)
            .map(|s| s.end.min(until) - s.start)
            .sum()
    }

    /// Active energy of both processors within `[0, until)` under `power`
    /// — the quantity the motivating examples count ("total active energy
    /// consumption within the hyper period").
    pub fn active_energy_within(&self, power: &PowerModel, until: Time) -> Energy {
        ProcId::ALL
            .iter()
            .map(|&p| power.active_energy(self.busy_time_within(p, until)))
            // mkss-lint: allow(float-fold-determinism) — two terms in fixed ProcId order
            .sum()
    }

    /// Segments of one processor, in order.
    pub fn segments_on(&self, proc: ProcId) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(move |s| s.proc == proc)
    }

    /// Renders an ASCII Gantt chart of `[0, until)` with one row per
    /// processor, one column per `scale` of time. Jobs are labelled by
    /// task number; backup copies in lowercase `b`, optional copies `o`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn render_gantt(&self, until: Time, scale: Time) -> String {
        assert!(!scale.is_zero(), "gantt scale must be positive");
        let cols = until.div_ceil(scale) as usize;
        let mut out = String::new();
        let _ = writeln!(out, "time: one column = {scale}, span [0, {until})");
        for &proc in &ProcId::ALL {
            let mut row = vec!['.'; cols];
            for seg in self.segments_on(proc) {
                if seg.start >= until {
                    continue;
                }
                let from = (seg.start.ticks() / scale.ticks()) as usize;
                let to = (seg.end.min(until).ticks().div_ceil(scale.ticks())) as usize;
                let ch = match seg.kind {
                    CopyKind::Main => {
                        char::from_digit((seg.job.task.0 as u32 + 1) % 10, 10).unwrap_or('?')
                    }
                    CopyKind::Backup => 'b',
                    CopyKind::Optional => 'o',
                };
                for cell in row.iter_mut().take(to.min(cols)).skip(from) {
                    *cell = ch;
                }
            }
            let name = proc.to_string();
            let _ = writeln!(out, "{name:>8}: {}", row.into_iter().collect::<String>());
        }
        out
    }

    /// Convenience: Gantt with 1 ms columns.
    pub fn render_gantt_ms(&self, until: Time) -> String {
        self.render_gantt(until, Time::from_ticks(TICKS_PER_MS))
    }
}

/// A recorder that rebuilds the schedule [`Trace`] from the engine's event
/// stream, forwarding every call to an optional inner recorder:
/// `TraceCollector::new(Trace::new(), inner)`, then `take()` after a run.
pub type TraceCollector = TraceRecorder<Trace>;

impl EventSink for Trace {
    /// Keeps `Segment` events as segments, ordered by start, then
    /// processor, then end, and `JobMet` / `JobMissed` events as
    /// resolutions; ignores every other kind.
    fn record(&mut self, event: &EngineEvent) {
        let job = JobId {
            task: TaskId(event.task as usize),
            index: u64::from(event.job),
        };
        let at = Time::from_ticks(event.at_us);
        let resolution = |outcome| JobResolution { job, outcome, at };
        match event.kind {
            TraceKind::JobMet => self.resolutions.push(resolution(JobOutcome::Met)),
            TraceKind::JobMissed => self.resolutions.push(resolution(JobOutcome::Missed)),
            TraceKind::Segment => {
                let (start, code) = segment_parts(event.payload);
                let segment = Segment {
                    proc: ProcId(usize::from(event.proc)),
                    job,
                    kind: match event.copy {
                        CopyRole::Main => CopyKind::Main,
                        CopyRole::Backup => CopyKind::Backup,
                        _ => CopyKind::Optional,
                    },
                    start: Time::from_ticks(start),
                    end: at,
                    ended: SegmentEnd::ALL[usize::from(code)],
                };
                let key = |s: &Segment| (s.start, s.proc, s.end);
                let slot = self.segments.partition_point(|s| key(s) <= key(&segment));
                self.segments.insert(slot, segment);
            }
            _ => {}
        }
    }

    fn emptied(&self) -> Trace {
        Trace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(proc: ProcId, task: usize, kind: CopyKind, start: u64, end: u64) -> Segment {
        Segment {
            proc,
            job: JobId::new(TaskId(task), 1),
            kind,
            start: Time::from_ms(start),
            end: Time::from_ms(end),
            ended: SegmentEnd::Completed,
        }
    }

    #[test]
    fn segment_len() {
        let s = seg(ProcId::PRIMARY, 0, CopyKind::Main, 2, 5);
        assert_eq!(s.len(), Time::from_ms(3));
        assert!(!s.is_empty());
    }

    #[test]
    fn busy_time_clamps_at_horizon() {
        let mut t = Trace::new();
        t.segments
            .push(seg(ProcId::PRIMARY, 0, CopyKind::Main, 0, 3));
        t.segments
            .push(seg(ProcId::PRIMARY, 1, CopyKind::Main, 18, 22));
        t.segments
            .push(seg(ProcId::SPARE, 0, CopyKind::Backup, 1, 2));
        assert_eq!(
            t.busy_time_within(ProcId::PRIMARY, Time::from_ms(20)),
            Time::from_ms(5)
        );
        assert_eq!(
            t.busy_time_within(ProcId::SPARE, Time::from_ms(20)),
            Time::from_ms(1)
        );
    }

    #[test]
    fn active_energy_sums_processors() {
        let mut t = Trace::new();
        t.segments
            .push(seg(ProcId::PRIMARY, 0, CopyKind::Main, 0, 3));
        t.segments
            .push(seg(ProcId::SPARE, 0, CopyKind::Backup, 5, 9));
        let e = t.active_energy_within(&PowerModel::active_only(), Time::from_ms(20));
        assert!((e.units() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn gantt_renders_rows() {
        let mut t = Trace::new();
        t.segments
            .push(seg(ProcId::PRIMARY, 0, CopyKind::Main, 0, 3));
        t.segments
            .push(seg(ProcId::SPARE, 1, CopyKind::Backup, 2, 4));
        t.segments
            .push(seg(ProcId::PRIMARY, 1, CopyKind::Optional, 4, 5));
        let g = t.render_gantt_ms(Time::from_ms(6));
        assert!(g.contains(" primary: 111.o."), "got:\n{g}");
        assert!(g.contains("   spare: ..bb.."), "got:\n{g}");
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn gantt_zero_scale_panics() {
        Trace::new().render_gantt(Time::from_ms(5), Time::ZERO);
    }

    #[test]
    fn segment_end_codes_index_the_reason_table() {
        for ended in SegmentEnd::ALL {
            assert_eq!(SegmentEnd::ALL[ended as usize], ended);
        }
    }

    #[test]
    fn collector_rebuilds_segments_and_resolutions_and_forwards() {
        use mkss_obs::{segment_payload, CounterId, Recorder, Registry, PROC_NONE};
        use std::sync::Arc;
        let registry = Arc::new(Registry::new(1));
        let collector = TraceCollector::new(Trace::new(), Some(Arc::new(registry.handle_at(0))));
        let event = |at_us, kind, copy, proc, payload| EngineEvent {
            at_us,
            kind,
            task: 1,
            job: 3,
            copy,
            proc,
            payload,
        };
        // Closed out of start order: the later segment arrives first.
        collector.event(&event(
            9_000,
            TraceKind::Segment,
            CopyRole::Backup,
            1,
            segment_payload(7_000, SegmentEnd::Canceled as u8),
        ));
        collector.event(&event(
            5_000,
            TraceKind::Segment,
            CopyRole::Main,
            0,
            segment_payload(2_000, SegmentEnd::Preempted as u8),
        ));
        collector.event(&event(
            9_000,
            TraceKind::JobMet,
            CopyRole::None,
            PROC_NONE,
            2,
        ));
        collector.event(&event(0, TraceKind::PermanentFault, CopyRole::None, 0, 0));
        collector.incr(CounterId::JobsMet, 1);
        assert_eq!(registry.snapshot().counter(CounterId::JobsMet), 1);

        let trace = collector.take();
        let job = JobId::new(TaskId(1), 3);
        assert_eq!(
            trace.segments,
            [
                Segment {
                    proc: ProcId::PRIMARY,
                    job,
                    kind: CopyKind::Main,
                    start: Time::from_ticks(2_000),
                    end: Time::from_ticks(5_000),
                    ended: SegmentEnd::Preempted,
                },
                Segment {
                    proc: ProcId::SPARE,
                    job,
                    kind: CopyKind::Backup,
                    start: Time::from_ticks(7_000),
                    end: Time::from_ticks(9_000),
                    ended: SegmentEnd::Canceled,
                },
            ]
        );
        assert_eq!(
            trace.resolutions,
            [JobResolution {
                job,
                outcome: JobOutcome::Met,
                at: Time::from_ticks(9_000),
            }]
        );
        assert_eq!(collector.take(), Trace::default(), "take empties it");
    }
}
