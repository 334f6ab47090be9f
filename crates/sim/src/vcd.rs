//! Value-Change-Dump (VCD) export of schedule traces.
//!
//! Schedules are waveforms: each processor is a pair of signals (which
//! task is executing, and whether the copy is a main / backup / optional
//! one), and each task gets a one-tick pulse wire marking met deadlines.
//! The output loads in any VCD viewer (GTKWave et al.), which makes
//! multi-hyperperiod schedules far easier to inspect than ASCII Gantt
//! charts.
//!
//! The timescale is 1 µs — exactly one simulator tick.

use std::fmt::Write as _;

use mkss_core::history::JobOutcome;
use mkss_core::job::CopyKind;

use crate::proc::ProcId;
use crate::trace::Trace;

/// Copy-kind encoding used in the 2-bit `*_kind` signals.
fn kind_code(kind: CopyKind) -> u8 {
    match kind {
        CopyKind::Main => 1,
        CopyKind::Backup => 2,
        CopyKind::Optional => 3,
    }
}

/// Renders `trace` as a VCD document.
///
/// Signals, under scope `mkss`:
///
/// * `primary_task`, `spare_task` — executing task number (1-based), 0
///   when idle, in `max(8, bits needed for task_count)` bits;
/// * `primary_kind`, `spare_kind` — 2-bit: 0 idle, 1 main, 2 backup,
///   3 optional;
/// * `t<i>_met` — 1-bit pulse at each met deadline of task `i`;
/// * `t<i>_miss` — 1-bit pulse at each miss.
///
/// `task_count` sizes the pulse wires; resolutions of tasks beyond it are
/// ignored. Every identifier is unique and printable: the first 30 tasks'
/// pulses use one character (`A`.. for met, `a`.. for miss), later tasks
/// longer ones.
///
/// # Examples
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_sim::prelude::*;
/// use mkss_sim::vcd::render_vcd;
///
/// let mut trace = Trace::default();
/// trace.segments.push(Segment {
///     proc: ProcId::PRIMARY,
///     job: JobId::new(TaskId(0), 1),
///     kind: CopyKind::Main,
///     start: Time::ZERO,
///     end: Time::from_ms(2),
///     ended: SegmentEnd::Completed,
/// });
/// let vcd = render_vcd(&trace, 1);
/// assert!(vcd.starts_with("$timescale 1us $end"));
/// assert!(vcd.contains("primary_task"));
/// ```
pub fn render_vcd(trace: &Trace, task_count: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$timescale 1us $end");
    let _ = writeln!(out, "$scope module mkss $end");
    // Identifier codes: printable ASCII, one per signal.
    // '!' '"' → proc task values; '#' '$' → proc kinds; then task pulses.
    let width = 8.max(usize::BITS - task_count.leading_zeros());
    let _ = writeln!(out, "$var wire {width} ! primary_task $end");
    let _ = writeln!(out, "$var wire 2 # primary_kind $end");
    let _ = writeln!(out, "$var wire {width} \" spare_task $end");
    let _ = writeln!(out, "$var wire 2 $ spare_kind $end");
    let pulses: Vec<[String; 2]> = (0..task_count)
        .map(|t| [pulse_code(t, false), pulse_code(t, true)])
        .collect();
    for (t, [met, miss]) in pulses.iter().enumerate() {
        let _ = writeln!(out, "$var wire 1 {met} t{}_met $end", t + 1);
        let _ = writeln!(out, "$var wire 1 {miss} t{}_miss $end", t + 1);
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Build the change list: (time, code, value-bits, width).
    let mut changes: Vec<(u64, String)> = Vec::new();
    for &proc in &ProcId::ALL {
        let (task_id, kind_id) = if proc == ProcId::PRIMARY {
            ('!', '#')
        } else {
            ('"', '$')
        };
        changes.push((0, format!("b0 {task_id}")));
        changes.push((0, format!("b0 {kind_id}")));
        for seg in trace.segments_on(proc) {
            changes.push((
                seg.start.ticks(),
                format!("b{:b} {task_id}", seg.job.task.0 + 1),
            ));
            changes.push((
                seg.start.ticks(),
                format!("b{:b} {kind_id}", kind_code(seg.kind)),
            ));
            changes.push((seg.end.ticks(), format!("b0 {task_id}")));
            changes.push((seg.end.ticks(), format!("b0 {kind_id}")));
        }
    }
    for [met, miss] in &pulses {
        changes.push((0, format!("0{met}")));
        changes.push((0, format!("0{miss}")));
    }
    for r in &trace.resolutions {
        let Some([met, miss]) = pulses.get(r.job.task.0) else {
            continue;
        };
        let code = match r.outcome {
            JobOutcome::Met => met,
            JobOutcome::Missed => miss,
        };
        changes.push((r.at.ticks(), format!("1{code}")));
        changes.push((r.at.ticks() + 1, format!("0{code}")));
    }

    changes.sort();
    // Emit, dropping earlier changes shadowed by a later change of the
    // same signal at the same instant (end-of-segment followed by
    // start-of-segment at a preemption boundary).
    let mut last_time = None;
    for (i, (time, change)) in changes.iter().enumerate() {
        if last_time != Some(time) {
            let _ = writeln!(out, "#{time}");
            last_time = Some(time);
        }
        let code = signal_code(change);
        let shadowed = changes[i + 1..]
            .iter()
            .take_while(|(t, _)| t == time)
            .any(|(_, later)| signal_code(later) == code);
        if !shadowed {
            let _ = writeln!(out, "{change}");
        }
    }
    out
}

/// Identifier of a task's met or miss pulse wire. The first 30 tasks get
/// one character (`A`..`^` met, `a`..`~` miss: printable and disjoint);
/// later ones a letter and the task number, which no other signal uses.
fn pulse_code(task: usize, miss: bool) -> String {
    let (first, prefix) = if miss { (b'a', 'm') } else { (b'A', 'M') };
    match u8::try_from(task) {
        Ok(task) if task < 30 => char::from(first + task).to_string(),
        _ => format!("{prefix}{}", task + 1),
    }
}

/// The identifier-code portion of a VCD value-change line.
fn signal_code(line: &str) -> &str {
    match line.split_once(' ') {
        Some((_, code)) => code, // vector: "b101 !"
        None => &line[1..],      // scalar: "1A"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Segment, SegmentEnd};
    use mkss_core::job::JobId;
    use mkss_core::task::TaskId;
    use mkss_core::time::Time;

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.segments.push(Segment {
            proc: ProcId::PRIMARY,
            job: JobId::new(TaskId(0), 1),
            kind: CopyKind::Main,
            start: Time::ZERO,
            end: Time::from_ms(3),
            ended: SegmentEnd::Completed,
        });
        t.segments.push(Segment {
            proc: ProcId::PRIMARY,
            job: JobId::new(TaskId(1), 1),
            kind: CopyKind::Optional,
            start: Time::from_ms(3),
            end: Time::from_ms(5),
            ended: SegmentEnd::Completed,
        });
        t.segments.push(Segment {
            proc: ProcId::SPARE,
            job: JobId::new(TaskId(0), 1),
            kind: CopyKind::Backup,
            start: Time::from_ms(1),
            end: Time::from_ms(3),
            ended: SegmentEnd::Canceled,
        });
        t.resolutions.push(crate::trace::JobResolution {
            job: JobId::new(TaskId(0), 1),
            outcome: JobOutcome::Met,
            at: Time::from_ms(3),
        });
        t
    }

    #[test]
    fn header_and_signals() {
        let vcd = render_vcd(&sample_trace(), 2);
        assert!(vcd.starts_with("$timescale 1us $end"));
        assert!(vcd.contains("$var wire 8 ! primary_task $end"));
        assert!(vcd.contains("$var wire 1 A t1_met $end"));
        assert!(vcd.contains("$var wire 1 b t2_miss $end"));
        assert!(vcd.contains("$enddefinitions $end"));
    }

    #[test]
    fn changes_are_time_ordered_and_deduplicated() {
        let vcd = render_vcd(&sample_trace(), 2);
        let mut last = -1i64;
        let mut count_t3_task_changes = 0;
        let mut at_t3 = false;
        for line in vcd.lines() {
            if let Some(ts) = line.strip_prefix('#') {
                let t: i64 = ts.parse().unwrap();
                assert!(t > last, "timestamps must strictly increase");
                last = t;
                at_t3 = t == 3000;
            } else if at_t3 && line.ends_with(" !") {
                count_t3_task_changes += 1;
            }
        }
        // At the preemption boundary t=3ms, the primary's task signal
        // changes exactly once (to task 2), not end-then-start.
        assert_eq!(count_t3_task_changes, 1);
        assert!(vcd.contains("b10 !"), "task 2 encoded in binary");
    }

    #[test]
    fn met_pulse_emitted() {
        let vcd = render_vcd(&sample_trace(), 2);
        assert!(vcd.contains("1A"), "met pulse rises");
        assert!(vcd.contains("#3001"), "met pulse falls a tick later");
    }

    #[test]
    fn ids_stay_unique_and_printable_for_many_tasks() {
        let vcd = render_vcd(&Trace::default(), 100);
        let ids: Vec<&str> = vcd
            .lines()
            .filter_map(|line| line.strip_prefix("$var wire "))
            .map(|var| var.split(' ').nth(1).expect("id"))
            .collect();
        assert_eq!(ids.len(), 4 + 2 * 100);
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate ids: {ids:?}");
        for id in &ids {
            assert!(id.bytes().all(|b| (b'!'..=b'~').contains(&b)), "{id:?}");
        }
        assert!(vcd.contains("$var wire 1 ~ t30_miss $end"));
        assert!(vcd.contains("$var wire 1 M31 t31_met $end"));
        assert!(vcd.contains("$var wire 8 ! primary_task $end"));
        let wide = render_vcd(&Trace::default(), 300);
        assert!(wide.contains("$var wire 9 ! primary_task $end"));
    }

    #[test]
    fn idle_trace_renders() {
        let vcd = render_vcd(&Trace::default(), 0);
        assert!(vcd.contains("#0"));
    }
}
