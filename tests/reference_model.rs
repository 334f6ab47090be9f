//! Differential testing of the event-driven engine against an
//! independent, brutally simple millisecond-tick reference simulator.
//!
//! The reference re-implements the shared execution model (MJQ ≻ OJQ
//! fixed-priority dispatch, sibling cancellation on success, optional
//! feasibility abandonment, dynamic flexibility-degree classification)
//! with none of the engine's event bookkeeping. On whole-millisecond
//! task sets every engine event falls on a millisecond boundary, so the
//! two must agree exactly on busy time, energy, and every job outcome,
//! in the order the jobs are resolved.
//!
//! It also replays the checked-in counterexamples of
//! `tests/counterexamples/`: task sets in `mkss-cli generate` format,
//! each with the `mkss-cli simulate` fault flags that break a guarantee.

use mkss::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

const STEP_MS: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
enum RefPolicy {
    Static,
    DualPriority,
    Selective,
}

#[derive(Debug, Clone)]
struct RefCopy {
    task: usize,
    index: u64,
    release_ms: u64,
    deadline_ms: u64,
    remaining_ms: u64,
    proc: usize,
    mandatory: bool,
    fd: u32,
    sibling: Option<usize>,
    state: u8, // 0 pending, 1 done, 2 canceled, 3 abandoned
}

#[derive(Debug, Default, Clone)]
struct RefOutcome {
    busy_ms: [u64; 2],
    met: u64,
    missed: u64,
    outcomes: Vec<(usize, u64, bool)>, // (task, index, met)
}

/// Definition 1, read literally and independently of the engine's history:
/// the largest `f ≤ k − m` such that, if the next `f` jobs all miss, every
/// window of `k` ending at one of those misses still holds `m` met jobs.
/// Jobs before the first one count as met.
fn flexibility_degree(mk: MkConstraint, outcomes: &[bool]) -> u32 {
    let (m, k) = (mk.m() as usize, mk.k() as usize);
    // Met jobs among the `n` most recent, padding with the met pre-history.
    let met_in_last = |n: usize| {
        let seen = n.min(outcomes.len());
        let met = outcomes[outcomes.len() - seen..]
            .iter()
            .filter(|&&b| b)
            .count();
        met + (n - seen)
    };
    // The window ending at hypothetical miss `j` holds the `k − j` most
    // recent outcomes and `j` misses; `f` misses are tolerable while the
    // smallest of the first `f` such windows still holds `m` met jobs.
    let mut smallest = usize::MAX;
    let mut fd = 0;
    for f in 1..=k - m {
        smallest = smallest.min(met_in_last(k - f));
        if smallest >= m {
            fd = f;
        }
    }
    fd as u32
}

/// `(task, index)` jobs sorted by release time, ties by task id: the
/// order in which the engine resolves jobs that miss at one instant.
fn released_order(ts: &TaskSet, jobs: impl Iterator<Item = (usize, u64)>) -> Vec<(usize, u64)> {
    let mut jobs: Vec<(usize, u64)> = jobs.collect();
    jobs.sort_by_key(|&(task, index)| (ts.task(TaskId(task)).release_of(index), task));
    jobs
}

/// The reference simulator: 1 ms ticks; optionally one permanent fault.
fn reference_run(
    ts: &TaskSet,
    policy: RefPolicy,
    horizon_ms: u64,
    fault: Option<(usize, u64)>, // (processor, time in ms)
) -> RefOutcome {
    let n = ts.len();
    let delays: Vec<u64> = match policy {
        RefPolicy::Static => vec![0; n],
        RefPolicy::DualPriority => {
            // MKSS_DP promotes with the hard real-time all-jobs analysis,
            // falling back to zero where it diverges (see MkssDp docs).
            let report = analyze(ts, InterferenceModel::AllJobs);
            ts.ids()
                .map(|id| match report.response_time(id) {
                    Some(r) => (ts.task(id).deadline() - r).ticks() / 1000,
                    None => 0,
                })
                .collect()
        }
        RefPolicy::Selective => promotion_times(ts, InterferenceModel::MandatoryOnly)
            .expect("schedulable")
            .iter()
            .map(|t| t.ticks() / 1000)
            .collect(),
    };
    // Every resolved outcome of each task, in release order (`true` = met).
    let mut histories: Vec<Vec<bool>> = vec![Vec::new(); n];
    let mut alternate: Vec<bool> = vec![false; n];
    let mut next_index: Vec<u64> = vec![1; n];
    let mut copies: Vec<RefCopy> = Vec::new();
    // job id -> (copies, resolved, succeeded)
    let mut jobs: BTreeMap<(usize, u64), (Vec<usize>, bool)> = BTreeMap::new();
    let mut out = RefOutcome::default();

    let resolve = |histories: &mut Vec<Vec<bool>>,
                   copies: &mut Vec<RefCopy>,
                   jobs: &mut BTreeMap<(usize, u64), (Vec<usize>, bool)>,
                   out: &mut RefOutcome,
                   task: usize,
                   index: u64,
                   met: bool| {
        let entry = jobs.get_mut(&(task, index)).expect("job exists");
        assert!(!entry.1, "double resolution");
        entry.1 = true;
        histories[task].push(met);
        if met {
            out.met += 1;
        } else {
            out.missed += 1;
            for &c in &entry.0 {
                if copies[c].state == 0 {
                    copies[c].state = 3;
                }
            }
        }
        out.outcomes.push((task, index, met));
    };

    let mut alive = [true, true];
    for t in (0..horizon_ms).step_by(STEP_MS as usize) {
        // 0. permanent fault at t: kill the processor's pending copies.
        if let Some((proc, at)) = fault {
            if alive[proc] && at <= t {
                alive[proc] = false;
                for c in copies.iter_mut() {
                    if c.proc == proc && c.state == 0 {
                        c.state = 4; // lost
                    }
                }
            }
        }
        // 1. deadline misses at t, in release order (ties by task).
        let due = released_order(
            ts,
            jobs.iter()
                .filter(|(&(task, index), &(_, resolved))| {
                    !resolved && ts.task(TaskId(task)).deadline_of(index).ticks() / 1000 <= t
                })
                .map(|(&k, _)| k),
        );
        for (task, index) in due {
            resolve(
                &mut histories,
                &mut copies,
                &mut jobs,
                &mut out,
                task,
                index,
                false,
            );
        }
        // 2. releases at t.
        for task in 0..n {
            let tk = ts.task(TaskId(task));
            loop {
                let index = next_index[task];
                let release_ms = tk.release_of(index).ticks() / 1000;
                let deadline_ms = tk.deadline_of(index).ticks() / 1000;
                if deadline_ms > horizon_ms || release_ms > t {
                    break;
                }
                next_index[task] += 1;
                let c_ms = tk.wcet().ticks() / 1000;
                let fd = flexibility_degree(tk.mk(), &histories[task]);
                let statically_mandatory = tk.mk().is_mandatory(index);
                let mandatory = match policy {
                    RefPolicy::Static | RefPolicy::DualPriority => statically_mandatory,
                    RefPolicy::Selective => fd == 0,
                };
                let mut job_copies = Vec::new();
                if mandatory {
                    let main_proc = match policy {
                        RefPolicy::DualPriority => task % 2,
                        _ => 0,
                    };
                    if alive[main_proc] {
                        let main = copies.len();
                        copies.push(RefCopy {
                            task,
                            index,
                            release_ms,
                            deadline_ms,
                            remaining_ms: c_ms,
                            proc: main_proc,
                            mandatory: true,
                            fd: 0,
                            sibling: None,
                            state: 0,
                        });
                        job_copies.push(main);
                        if alive[1 - main_proc] {
                            copies.push(RefCopy {
                                task,
                                index,
                                release_ms: release_ms + delays[task],
                                deadline_ms,
                                remaining_ms: c_ms,
                                proc: 1 - main_proc,
                                mandatory: true,
                                fd: 0,
                                sibling: Some(main),
                                state: 0,
                            });
                            copies[main].sibling = Some(main + 1);
                            job_copies.push(main + 1);
                        }
                    } else {
                        // Main processor dead: single backup-delayed copy
                        // on the survivor (mirrors the engine's jitter
                        // avoidance).
                        let idx = copies.len();
                        copies.push(RefCopy {
                            task,
                            index,
                            release_ms: release_ms + delays[task],
                            deadline_ms,
                            remaining_ms: c_ms,
                            proc: 1 - main_proc,
                            mandatory: true,
                            fd: 0,
                            sibling: None,
                            state: 0,
                        });
                        job_copies.push(idx);
                    }
                } else if policy == RefPolicy::Selective && fd == 1 {
                    let mut proc = usize::from(alternate[task]);
                    alternate[task] = !alternate[task];
                    if !alive[proc] {
                        proc = 1 - proc;
                    }
                    let idx = copies.len();
                    copies.push(RefCopy {
                        task,
                        index,
                        release_ms,
                        deadline_ms,
                        remaining_ms: c_ms,
                        proc,
                        mandatory: false,
                        fd,
                        sibling: None,
                        state: 0,
                    });
                    job_copies.push(idx);
                }
                jobs.insert((task, index), (job_copies, false));
            }
        }
        // 3. abandon infeasible optionals, then dispatch one tick.
        let mut completed: Vec<usize> = Vec::new();
        for (proc, &alive_here) in alive.iter().enumerate() {
            if !alive_here {
                continue;
            }
            for cp in copies.iter_mut() {
                if cp.proc == proc
                    && cp.state == 0
                    && !cp.mandatory
                    && cp.release_ms <= t
                    && t + cp.remaining_ms > cp.deadline_ms
                {
                    cp.state = 3;
                }
            }
            let pick = copies
                .iter()
                .enumerate()
                .filter(|(_, c)| c.proc == proc && c.state == 0 && c.release_ms <= t && c.mandatory)
                .min_by_key(|(_, c)| (c.task, c.index))
                .map(|(i, _)| i)
                .or_else(|| {
                    copies
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| {
                            c.proc == proc && c.state == 0 && c.release_ms <= t && !c.mandatory
                        })
                        .min_by_key(|(_, c)| (c.fd, c.task, c.index))
                        .map(|(i, _)| i)
                });
            if let Some(c) = pick {
                out.busy_ms[proc] += STEP_MS;
                copies[c].remaining_ms -= STEP_MS;
                if copies[c].remaining_ms == 0 {
                    completed.push(c);
                }
            }
        }
        // 4. completions take effect at t+1: mark done, resolve, cancel.
        for c in completed.clone() {
            copies[c].state = 1;
        }
        for c in completed {
            let (task, index) = (copies[c].task, copies[c].index);
            if !jobs[&(task, index)].1 {
                resolve(
                    &mut histories,
                    &mut copies,
                    &mut jobs,
                    &mut out,
                    task,
                    index,
                    true,
                );
            }
            if let Some(s) = copies[c].sibling {
                if copies[s].state == 0 {
                    copies[s].state = 2;
                }
            }
        }
    }
    // Final pass at the horizon.
    let due = released_order(
        ts,
        jobs.iter()
            .filter(|(_, &(_, resolved))| !resolved)
            .map(|(&k, _)| k),
    );
    for (task, index) in due {
        resolve(
            &mut histories,
            &mut copies,
            &mut jobs,
            &mut out,
            task,
            index,
            false,
        );
    }
    out
}

/// Whole-millisecond schedulable sets only (so every engine event is
/// ms-aligned and the reference's 1 ms ticks are exact).
fn schedulable_set(seed: u64, util_pct: u64) -> Option<TaskSet> {
    let config = WorkloadConfig {
        tasks_min: 2,
        tasks_max: 5,
        period_ms: (4, 20),
        ..WorkloadConfig::paper()
    };
    let mut generator = Generator::new(config, seed);
    for _ in 0..200 {
        // Round WCETs to whole milliseconds and re-validate.
        if let Some(ts) = generator.raw_set(util_pct as f64 / 100.0) {
            let rounded: Option<Vec<Task>> = ts
                .iter()
                .map(|(_, t)| {
                    let ms = t.wcet().ticks().div_ceil(1000);
                    Task::with_constraint(
                        t.period(),
                        t.deadline(),
                        Time::from_ms(ms.max(1)),
                        t.mk(),
                    )
                    .ok()
                })
                .collect();
            if let Some(tasks) = rounded {
                if let Ok(ts) = TaskSet::new(tasks) {
                    if is_schedulable_r_pattern(&ts) {
                        return Some(ts);
                    }
                }
            }
        }
    }
    None
}

/// [`schedulable_set`] with each task's deadline cut to
/// `C + (P − C)·pct/100`, rounded down to whole milliseconds, where
/// `deadline_pcts` supplies `pct` per task (cycled). Jobs released at
/// different times then often share a deadline. `None` when the set is
/// not R-pattern schedulable or a paper policy does not build on it.
fn constrained_set(seed: u64, util_pct: u64, deadline_pcts: &[u64]) -> Option<TaskSet> {
    let ts = schedulable_set(seed, util_pct)?;
    let tasks = ts
        .iter()
        .zip(deadline_pcts.iter().cycle())
        .map(|((_, t), &pct)| {
            let (c_ms, p_ms) = (t.wcet().ticks() / 1000, t.period().ticks() / 1000);
            let d_ms = c_ms + (p_ms - c_ms) * pct / 100;
            Task::with_constraint(t.period(), Time::from_ms(d_ms), t.wcet(), t.mk()).ok()
        })
        .collect::<Option<Vec<Task>>>()?;
    let ts = TaskSet::new(tasks).ok()?;
    let builds = is_schedulable_r_pattern(&ts)
        && MkssDp::new(&ts).is_ok()
        && MkssSelective::new(&ts).is_ok();
    builds.then_some(ts)
}

fn engine_run(
    ts: &TaskSet,
    policy: RefPolicy,
    horizon_ms: u64,
    fault: Option<(usize, u64)>,
) -> (SimReport, Trace) {
    let mut builder = SimConfig::builder().horizon_ms(horizon_ms).active_only();
    if let Some((proc, at)) = fault {
        builder = builder.faults(FaultConfig::permanent(ProcId(proc), Time::from_ms(at)));
    }
    let config = builder.build();
    match policy {
        RefPolicy::Static => simulate_traced(ts, &mut MkssSt::new(), &config),
        RefPolicy::DualPriority => simulate_traced(ts, &mut MkssDp::new(ts).unwrap(), &config),
        RefPolicy::Selective => simulate_traced(ts, &mut MkssSelective::new(ts).unwrap(), &config),
    }
}

fn compare(ts: &TaskSet, policy: RefPolicy, horizon_ms: u64) {
    compare_with_fault(ts, policy, horizon_ms, None);
}

fn compare_with_fault(
    ts: &TaskSet,
    policy: RefPolicy,
    horizon_ms: u64,
    fault: Option<(usize, u64)>,
) -> SimReport {
    let reference = reference_run(ts, policy, horizon_ms, fault);
    let (engine, engine_trace) = engine_run(ts, policy, horizon_ms, fault);
    for proc in 0..2 {
        assert_eq!(
            engine.energy[proc].busy_time,
            Time::from_ms(reference.busy_ms[proc]),
            "{policy:?}: busy time mismatch on proc {proc} for\n{ts}\nengine trace:\n{}",
            engine_trace.render_gantt_ms(Time::from_ms(horizon_ms.min(60)))
        );
    }
    assert_eq!(engine.stats.met, reference.met, "{policy:?}: met mismatch");
    assert_eq!(
        engine.stats.missed, reference.missed,
        "{policy:?}: missed mismatch"
    );
    // Outcome-by-outcome comparison via the resolution log, in order:
    // completions as they happen, misses at one instant in release order.
    let engine_outcomes: Vec<(usize, u64, bool)> = engine_trace
        .resolutions
        .iter()
        .map(|r| (r.job.task.0, r.job.index, r.outcome.is_met()))
        .collect();
    assert_eq!(
        engine_outcomes, reference.outcomes,
        "{policy:?}: outcome mismatch"
    );
    engine
}

#[test]
fn engine_matches_reference_on_paper_sets() {
    let fig1 = TaskSet::new(vec![
        Task::from_ms(5, 4, 3, 2, 4).unwrap(),
        Task::from_ms(10, 10, 3, 1, 2).unwrap(),
    ])
    .unwrap();
    for policy in [
        RefPolicy::Static,
        RefPolicy::DualPriority,
        RefPolicy::Selective,
    ] {
        compare(&fig1, policy, 100);
    }
    let fig5 = TaskSet::new(vec![
        Task::from_ms(10, 10, 3, 2, 3).unwrap(),
        Task::from_ms(15, 15, 8, 1, 2).unwrap(),
    ])
    .unwrap();
    for policy in [
        RefPolicy::Static,
        RefPolicy::DualPriority,
        RefPolicy::Selective,
    ] {
        compare(&fig5, policy, 120);
    }
}

/// Loads `tests/counterexamples/<name>.json` and the permanent fault of
/// its `<name>.faults` file (`--permanent primary@MS` or `spare@MS`).
fn counterexample(name: &str) -> (TaskSet, ProcId, Time) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/counterexamples/");
    let set = std::fs::read_to_string(format!("{dir}{name}.json")).expect("set file");
    let spec: mkss::serve::task_set::TaskSetSpec = serde_json::from_str(&set).expect("set parses");
    let ts = spec.to_task_set().expect("valid set");
    let faults = std::fs::read_to_string(format!("{dir}{name}.faults")).expect("faults file");
    let plan = match faults.split_whitespace().collect::<Vec<_>>()[..] {
        ["--permanent", plan] => plan,
        _ => panic!("expected `--permanent PROC@MS`, got {faults:?}"),
    };
    let (proc, at_ms) = plan.split_once('@').expect("PROC@MS");
    let proc = match proc {
        "primary" => ProcId::PRIMARY,
        "spare" => ProcId::SPARE,
        other => panic!("unknown processor {other}"),
    };
    (ts, proc, Time::from_ms(at_ms.parse().expect("whole ms")))
}

/// A Theorem-1 counterexample for Algorithm 1 as published: one
/// permanent fault, and `MKSS_selective` with θ-delayed backups missed
/// τ2's (1,2) window at job 42. Task-level θ is exact only for R-pattern
/// job positions; Selective's dynamic pattern places τ1's mandatory jobs
/// elsewhere. Selective now backs up with the promotion times, and every
/// scheme holds.
///
/// Replay: `mkss-cli simulate tests/counterexamples/selective_tau2_job42.json
/// --policy selective --horizon-ms 1000 --permanent primary@118`.
#[test]
fn theorem1_counterexample_replays() {
    let (ts, proc, at) = counterexample("selective_tau2_job42");
    let config = SimConfig::builder()
        .horizon_ms(1_000)
        .faults(FaultConfig::permanent(proc, at))
        .build();
    for kind in PolicyKind::ALL {
        let mut policy = kind
            .build(&ts, &BuildOptions::default())
            .expect("schedulable set");
        let report = simulate(&ts, policy.as_mut(), &config);
        assert!(report.mk_assured(), "{kind}: {:?}", report.violations);
    }

    // The same run scaled ×1000 to whole milliseconds, primary dead from
    // 0: the engine and the independent reference agree job by job.
    let scaled = TaskSet::new(
        ts.iter()
            .map(|(_, t)| {
                let scale = |time: Time| Time::from_ticks(time.ticks() * 1_000);
                Task::with_constraint(
                    scale(t.period()),
                    scale(t.deadline()),
                    scale(t.wcet()),
                    t.mk(),
                )
                .expect("scaled task is valid")
            })
            .collect(),
    )
    .expect("scaled set");
    let engine = compare_with_fault(&scaled, RefPolicy::Selective, 520_000, Some((0, 0)));
    assert_eq!((engine.stats.met, engine.stats.missed), (113, 46));
    assert!(engine.mk_assured(), "{:?}", engine.violations);
}

/// A permanent fault at every even millisecond of [0, 998] on either
/// processor of the counterexample set: no remaining scheme misses an
/// (m,k) window at any instant. Under θ-delayed backups a primary fault
/// broke Selective at 215 of these 500 instants.
#[test]
fn counterexample_survives_every_fault_instant() {
    let (ts, _, _) = counterexample("selective_tau2_job42");
    let mut ws = SimWorkspace::new();
    for kind in PolicyKind::ALL {
        let mut policy = kind
            .build(&ts, &BuildOptions::default())
            .expect("schedulable set");
        for proc in ProcId::ALL {
            let broken: Vec<u64> = (0..1_000)
                .step_by(2)
                .filter(|&at_ms| {
                    let config = SimConfig::builder()
                        .horizon_ms(1_000)
                        .faults(FaultConfig::permanent(proc, Time::from_ms(at_ms)))
                        .build();
                    !simulate_in(&mut ws, &ts, policy.as_mut(), &config).mk_assured()
                })
                .collect();
            assert!(
                broken.is_empty(),
                "{kind} with a {proc} fault at {broken:?} ms"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_reference_on_random_sets(seed in 0u64..20_000, util_pct in 10u64..60) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        for policy in [RefPolicy::Static, RefPolicy::DualPriority, RefPolicy::Selective] {
            compare(&ts, policy, 200);
        }
    }

    /// The same job-for-job agreement with a permanent fault at an
    /// arbitrary whole-millisecond instant on either processor.
    #[test]
    fn engine_matches_reference_under_permanent_fault(
        seed in 0u64..20_000,
        util_pct in 10u64..55,
        fault_ms in 0u64..200,
        on_primary in any::<bool>(),
    ) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let fault = Some((usize::from(!on_primary), fault_ms));
        for policy in [RefPolicy::Static, RefPolicy::DualPriority, RefPolicy::Selective] {
            compare_with_fault(&ts, policy, 200, fault);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Constrained deadlines (`C ≤ D ≤ P`, drawn per task): misses at
    /// one instant come from jobs released at different times, and the
    /// engine must resolve them in release order, job for job like the
    /// reference, with and without a permanent fault.
    #[test]
    fn engine_matches_reference_with_constrained_deadlines(
        seed in 0u64..20_000,
        util_pct in 10u64..50,
        deadline_pcts in proptest::collection::vec(40u64..=100, 5..6),
        fault_ms in 0u64..200,
        on_primary in any::<bool>(),
    ) {
        let Some(ts) = constrained_set(seed, util_pct, &deadline_pcts) else { return Ok(()); };
        for fault in [None, Some((usize::from(!on_primary), fault_ms))] {
            for policy in [RefPolicy::Static, RefPolicy::DualPriority, RefPolicy::Selective] {
                compare_with_fault(&ts, policy, 200, fault);
            }
        }
    }
}
