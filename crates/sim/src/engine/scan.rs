//! The engine's linear-scan reference. Every quantity that the indexed
//! path reads off a tree or a bitset is re-derived here by scanning all
//! of the task, job and copy slots.
//!
//! `run` cross-checks its next event time against
//! [`Engine::next_event_time_scan`] on every step of every debug-build
//! run. The rest is test-only: [`TimeAdvance::Scan`] drives whole runs
//! through the scans, with every phase ungated, and the differential
//! below compares those runs with the indexed ones.

use mkss_core::time::Time;

#[cfg(test)]
use super::{copy_slot, CopyKind, Policy, ProcId};
use super::{CopyState, Engine};

/// How [`Engine::run`] finds the next event time. `Indexed` is the
/// production path, reading each event source's own index; `Scan`
/// re-derives every step with linear scans over all state and gates no
/// phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TimeAdvance {
    Indexed,
    #[cfg(test)]
    Scan,
}

impl Engine<'_, '_> {
    /// The linear-scan derivation of the next event time: pending
    /// releases, postponed copy releases, open deadlines and running
    /// completions, each found by a scan over all slots.
    pub(super) fn next_event_time_scan(&self) -> Option<Time> {
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
        for copy in &self.ws.copies {
            if copy.state == CopyState::Pending && copy.release > self.clock {
                next = next.min(copy.release);
                any = true;
            }
        }
        for job in &self.ws.jobs {
            if job.open && job.deadline > self.clock {
                next = next.min(job.deadline);
                any = true;
            }
        }
        for c in self.running.into_iter().flatten() {
            next = next.min(self.clock + self.ws.copies[c].remaining);
            any = true;
        }
        any.then_some(next)
    }

    /// Every phase of an iteration, ungated and by scan: due deadlines,
    /// every task's due releases, and every pending backup whose release
    /// has come.
    #[cfg(test)]
    pub(super) fn scan_phases<P: Policy + ?Sized>(&mut self, policy: &mut P) {
        self.resolve_open_deadlines_by_scan();
        for id in self.ts.ids() {
            self.release_due_jobs_of(policy, id);
        }
        // Releasing an already released backup again changes nothing.
        for c in 0..self.ws.copies.len() {
            let copy = &self.ws.copies[c];
            if copy.kind == CopyKind::Backup
                && copy.state == CopyState::Pending
                && copy.release <= self.clock
            {
                self.release_backup(c);
            }
        }
    }

    /// One processor's dispatch decision, ungated and by scans over its
    /// copy slots: first every ready optional that can no longer meet
    /// its deadline is abandoned, in task order; then the pick is the
    /// released pending copy with the least `(task, index)` among
    /// mandatory ones, else with the least `(fd, task, index)`.
    #[cfg(test)]
    pub(super) fn pick_copy_scan(&mut self, proc: ProcId) -> Option<usize> {
        for task in 0..self.ts.len() {
            let c = copy_slot(task, proc);
            let copy = &self.ws.copies[c];
            if copy.kind == CopyKind::Optional
                && copy.state == CopyState::Pending
                && copy.release <= self.clock
                && self.clock + copy.remaining > self.ws.jobs[task].deadline
            {
                self.abandon(c);
            }
        }
        let mut best_mandatory = None;
        let mut best_optional = None;
        for task in 0..self.ts.len() {
            let c = copy_slot(task, proc);
            let copy = &self.ws.copies[c];
            if copy.state != CopyState::Pending || copy.release > self.clock {
                continue;
            }
            if copy.kind == CopyKind::Optional {
                let key = (copy.fd_at_release, task, copy.index);
                if best_optional.is_none_or(|(k, _)| key < k) {
                    best_optional = Some((key, c));
                }
            } else {
                let key = (task, copy.index);
                if best_mandatory.is_none_or(|(k, _)| key < k) {
                    best_mandatory = Some((key, c));
                }
            }
        }
        best_mandatory
            .map(|(_, c)| c)
            .or(best_optional.map(|(_, c)| c))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mkss_core::task::{Task, TaskSet};
    use mkss_core::time::Time;
    use mkss_obs::{Recorder, TraceBuffer, TraceRecorder};

    use super::TimeAdvance;
    use crate::engine::tests::{fig1_set, large_set, run_prepared, Postponing, StaticRef};
    use crate::engine::{SimConfig, SimWorkspace};
    use crate::fault::FaultConfig;
    use crate::policy::Policy;
    use crate::proc::ProcId;
    use crate::trace::Trace;

    /// Whole-run differential between the production indexed sources
    /// and the linear-scan oracle (which also gates no phase, so it
    /// checks the phase gates, `dispatch_dirty`, the abandonment bounds
    /// and the ready queues too), across fault configs and task counts past 64,
    /// comparing reports and collected traces. The per-step
    /// `debug_assert_eq!` in `run` already cross-checks the chosen event
    /// times on every debug-build run; this pins the end-to-end results
    /// too.
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
}
