//! `daemon`: a closed loop against an in-process `mkss-serve` daemon on
//! a Unix socket. The client sends its next request as soon as the
//! previous response arrives; the mix is mostly `simulate`, with every
//! fifth a two-policy `compare` and every seventh a four-seed `sweep`.
//! Request parsing, the hand-off to the worker pool, the metrics tee,
//! response encoding and the socket round trip sit on the measured path
//! next to the engine.
//!
//! One client and one worker: on a small shared host, more threads than
//! cores made the figures swing by a quarter from run to run. Horizons
//! are set per task set so each run releases a fixed number of jobs.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mkss_cli::format::TaskSetSpec;
use mkss_core::task::TaskSet;
use mkss_obs::{Registry, Stopwatch};
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_serve::{execute, Client, ExecEnv, Op, Request, Server, ServerConfig};
use mkss_sim::prelude::{simulate_in, SimConfig, WorkspacePool};

use crate::calib::Kernel;
use crate::engine::{generate_pool, span_ms};
use crate::stats::{Acc, Layers};
use crate::{mix, timed_setups, Run, Sample};

const UTILS: [f64; 4] = [0.3, 0.4, 0.5, 0.6];
const SETS_PER_UTIL: usize = 48;
const POLICIES: [&str; 3] = ["st", "dp", "selective"];
/// Leading requests whose responses are re-derived in-process.
const CHECKED: usize = 128;
/// Reference kernel whose slowdown under host load follows this workload's.
const KERNEL: Kernel = Kernel::Table;
const SETUP_REPS: usize = 9;
/// Requests sent during set-up (covers all three op kinds).
const WARMUP: usize = 8;
/// Where the sockets live: relative, so the path stays far below the
/// Unix socket path limit wherever the checkout is.
const SOCKET_DIR: &str = "perfbench/target";

struct Daemon {
    server: Server,
    client: Client,
    /// Each set's JSON with the span (ms) in which it releases 500 jobs.
    sets: Vec<(String, u64)>,
    socket: PathBuf,
}

fn is_ok(response: &str, id: u64) -> bool {
    response.starts_with(&format!("{{\"id\":{id},\"ok\":true,"))
}

fn start(seed: u64, rep: usize, generate: &mut Acc) -> Result<Daemon, String> {
    *generate = Acc::default();
    let sets: Vec<(String, u64)> = generate_pool(seed, &UTILS, SETS_PER_UTIL, generate)
        .iter()
        .map(|set| {
            serde_json::to_string(&TaskSetSpec::from_task_set(set))
                .map(|json| (json, span_ms(set, 500.0)))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("encoding a task set: {e}"))?;
    if sets.is_empty() {
        return Err("no schedulable set generated".into());
    }
    std::fs::create_dir_all(SOCKET_DIR).map_err(|e| format!("creating {SOCKET_DIR}: {e}"))?;
    let socket = Path::new(SOCKET_DIR).join(format!("daemon-{}-{rep}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind_unix(&socket, config)
        .map_err(|e| format!("binding {}: {e}", socket.display()))?;
    let mut client = Client::connect_unix(&socket).map_err(|e| format!("connect: {e}"))?;
    // Warm the worker's arena and the connection buffers on a request
    // stream the window never sends.
    for index in 0..WARMUP {
        let (id, line) = request_line(&sets, seed, 1, index);
        let response = client
            .request(&line)
            .map_err(|e| format!("warm-up {id}: {e}"))?;
        if !is_ok(&response, id) {
            return Err(format!("warm-up {id} failed"));
        }
    }
    Ok(Daemon {
        server,
        client,
        sets,
        socket,
    })
}

fn stop(daemon: Daemon) {
    drop(daemon.client);
    daemon.server.shutdown();
    let _ = std::fs::remove_file(&daemon.socket);
}

/// The `index`-th request of request stream `stream`, and its id.
/// Each run releases about 2000 jobs per simulate, 1000 per compared
/// policy and 500 per sweep seed.
fn request_line(sets: &[(String, u64)], seed: u64, stream: u64, index: usize) -> (u64, String) {
    let id = (stream << 32) | (index as u64 + 1);
    let (set, span) = &sets[index % sets.len()];
    let policy = POLICIES[index % POLICIES.len()];
    // The protocol's integers are exact to 2^53.
    let fault_seed = mix(seed, id) >> 12;
    let line = if index % 7 == 3 {
        format!(
            "{{\"id\":{id},\"op\":\"sweep\",\"task_set\":{set},\"policy\":\"{policy}\",\
             \"horizon_ms\":{span},\"faults\":{{\"transient_per_ms\":0.001}},\
             \"seeds\":4,\"seed_from\":{fault_seed}}}"
        )
    } else if index % 5 == 2 {
        format!(
            "{{\"id\":{id},\"op\":\"compare\",\"task_set\":{set},\"horizon_ms\":{},\
             \"policies\":[\"st\",\"{policy}\"],\"faults\":{{\"seed\":{fault_seed},\
             \"transient_per_ms\":0.001}}}}",
            span * 2
        )
    } else {
        format!(
            "{{\"id\":{id},\"op\":\"simulate\",\"task_set\":{set},\"policy\":\"{policy}\",\
             \"horizon_ms\":{},\"faults\":{{\"seed\":{fault_seed},\"transient_per_ms\":0.001,\
             \"permanent\":{{\"proc\":{},\"at_ms\":{}}}}}}}",
            span * 4,
            index % 2,
            span * 2
        )
    };
    (id, line)
}

pub fn run(seed: u64, window_ms: f64, trace: bool) -> Result<(f64, Run), String> {
    let mut layers = Layers::default();
    let (setup_s, mut daemon) = timed_setups(
        SETUP_REPS,
        |rep| start(seed, rep, &mut layers.generate),
        stop,
    )?;

    let mut run = Run::new(layers, KERNEL);
    let pool = WorkspacePool::new();
    // Tee into a global registry as the daemon does, so a replay does the
    // daemon's work; the tee never changes response bytes.
    let env = ExecEnv {
        pool: &pool,
        global: Some(Arc::new(Arc::new(Registry::new(1)).handle())),
        fanout: 1,
    };
    let mut kept = Vec::new();
    let opened = Stopwatch::start();
    let mut index = 0;
    while opened.elapsed_ms() < window_ms {
        run.calib.tick(opened.elapsed_ms());
        let (id, line) = request_line(&daemon.sets, seed, 0, index);
        let watch = Stopwatch::start();
        let response = daemon.client.request(&line);
        let took_ms = watch.elapsed_ms();
        match response {
            Ok(response) if is_ok(&response, id) => {
                run.samples.push(Sample {
                    end_ms: opened.elapsed_ms(),
                    took_ms,
                });
                if index < CHECKED {
                    if trace {
                        // Replay right away, so the round trip and its
                        // in-process split see the same host speed.
                        replay(&line, &response, Some(took_ms), &env, &mut run)?;
                    } else {
                        kept.push((line, response));
                    }
                }
            }
            Ok(response) => {
                run.failed += 1;
                let head: String = response.chars().take(160).collect();
                run.errors.push(format!("request {id}: {head}"));
            }
            Err(e) => {
                run.failed += 1;
                run.errors.push(format!("request {id}: {e}"));
                break;
            }
        }
        index += 1;
    }
    run.wall_ms = opened.elapsed_ms();
    run.calib.sample(run.wall_ms);
    stop(daemon);
    for (line, response) in &kept {
        replay(line, response, None, &env, &mut run)?;
    }
    Ok((setup_s, run))
}

/// Re-derives one response in-process through the daemon's own `execute`
/// and requires the same bytes. Given the request's round trip, it also
/// splits that into parse, build, engine, encode and the rest (hand-off
/// and transport).
fn replay(
    line: &str,
    response: &str,
    round_trip_ms: Option<f64>,
    env: &ExecEnv<'_>,
    run: &mut Run,
) -> Result<(), String> {
    let watch = Stopwatch::start();
    let request = Request::parse(line).map_err(|e| format!("re-parsing a sent request: {e}"))?;
    let parse_ns = watch.elapsed_ms() * 1e6;
    let watch = Stopwatch::start();
    let expected = execute(&request, env);
    let exec_ns = watch.elapsed_ms() * 1e6;
    if expected != response {
        run.errors.push(format!(
            "request {}: daemon bytes differ from in-process",
            request.id
        ));
    }
    if let Some(round_trip_ms) = round_trip_ms {
        let (build_ns, engine_ns) = split(&request, env.pool, &mut run.layers)?;
        let l = &mut run.layers;
        // The codec: request parse plus whatever `execute` spent beyond
        // build and engine (result, metrics and line encoding).
        l.report
            .add(parse_ns + (exec_ns - build_ns - engine_ns).max(0.0), 1.0);
        l.op.add(round_trip_ms * 1e6, 1.0);
        l.attributed_ns += parse_ns + exec_ns;
    }
    Ok(())
}

/// Builds and simulates the runs of one request outside `execute`,
/// timing each build and each engine run; returns this request's build
/// and engine nanoseconds.
fn split(
    request: &Request,
    pool: &WorkspacePool,
    layers: &mut Layers,
) -> Result<(f64, f64), String> {
    let mut runs: Vec<(&TaskSet, PolicyKind, SimConfig)> = Vec::new();
    match &request.op {
        Op::Simulate(job) => runs.push((&job.task_set, job.policy, job.config)),
        Op::Compare(job) => {
            for &kind in &job.policies {
                runs.push((&job.task_set, kind, job.config));
            }
        }
        Op::Sweep(job) => {
            for i in 0..job.seeds {
                let mut config = job.base.config;
                config.faults.seed = job.seed_from + i;
                runs.push((&job.base.task_set, job.base.policy, config));
            }
        }
        _ => return Err(format!("request {} is not a simulation op", request.id)),
    }
    let (build_before, engine_before) = (layers.build.ns, layers.engine.ns);
    for (set, kind, config) in runs {
        let mut policy = layers
            .build
            .time(|| kind.build(set, &BuildOptions::default()))
            .map_err(|e| e.to_string())?;
        let mut workspace = pool.checkout();
        workspace.set_recorder(Some(Arc::new(Arc::new(Registry::new(1)).handle_at(0))));
        let report = layers
            .engine
            .time(|| simulate_in(&mut workspace, set, policy.as_mut(), &config));
        layers.jobs += report.stats.released as f64;
    }
    Ok((
        layers.build.ns - build_before,
        layers.engine.ns - engine_before,
    ))
}
