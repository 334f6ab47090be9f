//! Concurrent load harness for the `mkss-serve` daemon.
//!
//! ```text
//! loadgen (--socket PATH | --tcp ADDR) [--clients N] [--requests M]
//!         [--seed S] [--differential] [--shutdown]
//! ```
//!
//! Spawns `--clients` concurrent connections, each sending `--requests`
//! deterministic simulate/compare/sweep lines. With `--differential`
//! every daemon response is re-derived in-process through
//! [`mkss_serve::execute`] and compared **byte-for-byte** — the exit
//! code is non-zero on any mismatch, which is how `scripts/ci.sh` pins
//! the daemon's "same bytes in-process or over the wire" contract. With
//! `--shutdown` the daemon is asked to drain and exit once the load
//! completes.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mkss_bench::cli::{or_exit, parse_flags};
use mkss_obs::{Reporter, Stopwatch};
use mkss_serve::{execute, Client, ExecEnv, Request};
use mkss_sim::pool::WorkspacePool;

/// Policies cycled through by the generated load. All of them build for
/// the embedded task sets, so every response is a success row — error
/// responses are covered by the serve crate's own protocol tests.
const POLICIES: [&str; 5] = ["st", "dp", "greedy", "selective", "dp-theta"];

/// Small task-set templates (cli `format.rs` schema) the load cycles
/// through. Kept modest so a default run finishes in well under a second.
const TASK_SETS: [&str; 3] = [
    r#"{"tasks":[{"period_ms":10,"wcet_ms":2,"m":1,"k":2},{"period_ms":20,"wcet_ms":4,"m":2,"k":3}]}"#,
    r#"{"tasks":[{"period_ms":8,"wcet_ms":1.5,"m":2,"k":4},{"period_ms":12,"wcet_ms":2,"m":1,"k":3},{"period_ms":24,"wcet_ms":3,"m":3,"k":5}]}"#,
    r#"{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":1,"m":3,"k":4}]}"#,
];

const USAGE: &str = "usage: loadgen (--socket PATH | --tcp ADDR) [--clients N] [--requests M]\n\
                     \x20              [--seed S] [--differential] [--shutdown]\n\
                     \n\
                     --differential re-derives every response in-process and fails on\n\
                     any byte mismatch; --shutdown asks the daemon to drain and exit\n\
                     after the load completes.";

struct Args {
    socket: Option<String>,
    tcp: Option<String>,
    clients: usize,
    requests: usize,
    seed: u64,
    differential: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        socket: None,
        tcp: None,
        clients: 4,
        requests: 16,
        seed: 1,
        differential: false,
        shutdown: false,
    };
    parse_flags(USAGE, |flag, flags| {
        match flag {
            "--socket" => parsed.socket = Some(flags.value()?),
            "--tcp" => parsed.tcp = Some(flags.value()?),
            "--clients" => parsed.clients = flags.parse()?,
            "--requests" => parsed.requests = flags.parse()?,
            "--seed" => parsed.seed = flags.parse()?,
            "--differential" => parsed.differential = true,
            "--shutdown" => parsed.shutdown = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if parsed.clients == 0 || parsed.requests == 0 {
        return Err("--clients and --requests must be at least 1".into());
    }
    match (&parsed.socket, &parsed.tcp) {
        (Some(_), None) | (None, Some(_)) => Ok(parsed),
        _ => Err("expects exactly one of --socket PATH or --tcp ADDR".into()),
    }
}

fn connect(args: &Args) -> std::io::Result<Client> {
    match (&args.socket, &args.tcp) {
        (Some(path), _) => Client::connect_unix(path),
        (_, Some(addr)) => Client::connect_tcp(addr),
        _ => unreachable!("parse_args enforces one endpoint"),
    }
}

/// The deterministic request line for (client, request-index). Every 5th
/// request is a compare, every 7th a sweep, the rest simulate — so one
/// run exercises all three simulation ops at every fan-out.
fn request_line(id: u64, client: usize, index: usize, seed: u64) -> String {
    let n = client * 31 + index;
    let task_set = TASK_SETS[n % TASK_SETS.len()];
    let policy = POLICIES[n % POLICIES.len()];
    let seed = seed.wrapping_add(id);
    if index % 7 == 3 {
        format!(
            "{{\"id\":{id},\"op\":\"sweep\",\"task_set\":{task_set},\"policy\":\"{policy}\",\
             \"horizon_ms\":100,\"faults\":{{\"transient_per_ms\":0.001}},\
             \"seeds\":6,\"seed_from\":{seed}}}"
        )
    } else if index % 5 == 2 {
        format!(
            "{{\"id\":{id},\"op\":\"compare\",\"task_set\":{task_set},\"horizon_ms\":100,\
             \"policies\":[\"st\",\"{policy}\"],\"faults\":{{\"seed\":{seed},\
             \"transient_per_ms\":0.0005}}}}"
        )
    } else {
        format!(
            "{{\"id\":{id},\"op\":\"simulate\",\"task_set\":{task_set},\"policy\":\"{policy}\",\
             \"horizon_ms\":200,\"faults\":{{\"seed\":{seed},\"transient_per_ms\":0.0005,\
             \"permanent\":{{\"proc\":0,\"at_ms\":60}}}}}}"
        )
    }
}

/// Re-derives the expected response bytes in-process (fresh per-request
/// metrics, shared local arena pool, no global tee — exactly the daemon's
/// observable behavior by the serve crate's byte-identity contract).
fn direct_response(line: &str, pool: &WorkspacePool) -> String {
    match Request::parse(line) {
        Ok(request) => execute(
            &request,
            &ExecEnv {
                pool,
                global: None,
                fanout: 1,
            },
        ),
        Err(error) => mkss_serve::protocol::error_line(error.id, &error.message),
    }
}

fn main() -> ExitCode {
    let args = or_exit(parse_args());
    let reporter = Arc::new(Reporter::stderr());
    let pool = WorkspacePool::new();
    let sent = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let watch = Stopwatch::start();
    std::thread::scope(|scope| {
        for client_index in 0..args.clients {
            let (args, reporter, pool) = (&args, &reporter, &pool);
            let (sent, mismatches, failures) = (&sent, &mismatches, &failures);
            scope.spawn(move || {
                let mut client = match connect(args) {
                    Ok(client) => client,
                    Err(e) => {
                        reporter.line(&format!("client {client_index}: connect failed: {e}"));
                        // mkss-lint: ordering — commutative tally; totals are read only after scope join, which synchronizes
                        failures.fetch_add(args.requests as u64, Ordering::Relaxed);
                        return;
                    }
                };
                for index in 0..args.requests {
                    let id = (client_index * args.requests + index) as u64 + 1;
                    let line = request_line(id, client_index, index, args.seed);
                    let response = match client.request(&line) {
                        Ok(response) => response,
                        Err(e) => {
                            reporter.line(&format!("client {client_index} req {id}: {e}"));
                            // mkss-lint: ordering — commutative tally read after scope join
                            failures.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    // mkss-lint: ordering — commutative tally read after scope join
                    sent.fetch_add(1, Ordering::Relaxed);
                    if args.differential && response != direct_response(&line, pool) {
                        // mkss-lint: ordering — commutative tally read after scope join
                        mismatches.fetch_add(1, Ordering::Relaxed);
                        reporter.line(&format!(
                            "client {client_index} req {id}: daemon bytes diverge from \
                             in-process execute()"
                        ));
                    }
                }
            });
        }
    });
    let wall_ms = watch.elapsed_ms();
    // mkss-lint: ordering — all writers joined at the scope exit above; these loads race with nothing
    let sent = sent.load(Ordering::Relaxed);
    let mismatches = mismatches.load(Ordering::Relaxed);
    // mkss-lint: ordering — same: all writers joined at the scope exit
    let failures = failures.load(Ordering::Relaxed);
    let throughput = if wall_ms > 0.0 {
        f64::from(u32::try_from(sent).unwrap_or(u32::MAX)) / (wall_ms / 1e3)
    } else {
        0.0
    };
    reporter.line(&format!(
        "{sent} responses from {} client(s) in {wall_ms:.1} ms ({throughput:.0} req/s), \
         {mismatches} mismatches, {failures} transport failures",
        args.clients,
    ));
    if args.shutdown {
        match connect(&args).and_then(|mut c| c.request("{\"id\":0,\"op\":\"shutdown\"}")) {
            Ok(_) => reporter.line("shutdown requested"),
            Err(e) => {
                reporter.line(&format!("shutdown request failed: {e}"));
                return ExitCode::FAILURE;
            }
        }
    }
    if mismatches > 0 || failures > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
