//! The daemon's honesty checks, end to end over a real socket:
//!
//! * **Differential**: concurrent clients get responses byte-identical
//!   to calling `exec::execute` directly in-process — the connection
//!   layer adds transport and nothing else.
//! * **Separability**: every response's per-request metrics sum exactly
//!   to the daemon-global delta observed across the run.
//! * **Protocol robustness**: malformed lines and oversized lines get
//!   error responses (and the right counters) without wedging the
//!   daemon.
//! * **Graceful drain**: shutdown joins every thread with all in-flight
//!   requests answered.

use mkss_obs::CounterId;
use mkss_serve::{execute, Client, ExecEnv, Request, Server, ServerConfig};
use mkss_sim::prelude::WorkspacePool;
use serde::Value;

/// A temp path for a per-test Unix socket.
fn sock_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir();
    dir.join(format!("mkss-serve-test-{}-{tag}.sock", std::process::id()))
}

fn sim_line(id: u64, policy: &str, seed: u64) -> String {
    format!(
        r#"{{"id": {id}, "op": "simulate", "task_set": {{"tasks": [
            {{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}},
            {{"period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2}}
        ]}}, "policy": "{policy}", "horizon_ms": 200,
        "faults": {{"seed": {seed}, "transient_per_ms": 0.0005}}}}"#
    )
    .split_whitespace()
    .collect::<Vec<_>>()
    .join(" ")
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed lookup is a test failure"
)]
fn direct_response(line: &str) -> String {
    let pool = WorkspacePool::new();
    let env = ExecEnv {
        pool: &pool,
        global: None,
        fanout: 1,
    };
    execute(&Request::parse(line).expect("valid request"), &env)
}

/// Counter totals from one response's embedded `metrics` member.
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test helper: a failed lookup is a test failure"
)]
fn embedded_counters(response: &str) -> Vec<(String, u64)> {
    let doc = serde_json::parse_value(response).expect("response parses");
    let counters = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metrics.counters present");
    let Value::Object(members) = counters else {
        panic!("counters is an object")
    };
    members
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("counter is u64")))
        .collect()
}

/// Counter totals from a `metrics`-op response (`result` is the doc).
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test helper: a failed lookup is a test failure"
)]
fn global_counters(response: &str) -> Vec<(String, u64)> {
    let doc = serde_json::parse_value(response).expect("response parses");
    let counters = doc
        .get("result")
        .and_then(|m| m.get("counters"))
        .expect("result.counters present");
    let Value::Object(members) = counters else {
        panic!("counters is an object")
    };
    members
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("counter is u64")))
        .collect()
}

#[test]
fn concurrent_clients_get_byte_identical_responses_and_separable_metrics() {
    let sock = sock_path("differential");
    let server = Server::bind_unix(&sock, ServerConfig::default()).expect("bind");

    // Four clients, three requests each, mixed policies and seeds.
    let policies = ["st", "dp", "selective", "greedy"];
    let before = {
        let mut c = Client::connect_unix(&sock).expect("connect");
        global_counters(
            &c.request(r#"{"id": 900, "op": "metrics"}"#)
                .expect("metrics"),
        )
    };
    let transcripts: Vec<Vec<(String, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|client_idx| {
                let sock = sock.clone();
                let policy = policies[client_idx as usize];
                scope.spawn(move || {
                    let mut client = Client::connect_unix(&sock).expect("connect");
                    (0..3u64)
                        .map(|i| {
                            let line = sim_line(client_idx * 10 + i, policy, 100 + i);
                            let resp = client.request(&line).expect("request");
                            (line, resp)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let after = {
        let mut c = Client::connect_unix(&sock).expect("connect");
        global_counters(
            &c.request(r#"{"id": 901, "op": "metrics"}"#)
                .expect("metrics"),
        )
    };

    // Differential: daemon bytes == direct library bytes, per request.
    let mut summed: Vec<(String, u64)> = Vec::new();
    let mut responses = 0;
    for (line, daemon_resp) in transcripts.iter().flatten() {
        assert_eq!(
            daemon_resp,
            &direct_response(line),
            "daemon response diverged from direct execution for {line}"
        );
        for (name, value) in embedded_counters(daemon_resp) {
            match summed.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += value,
                None => summed.push((name, value)),
            }
        }
        responses += 1;
    }
    assert_eq!(responses, 12);

    // Separability: per-request metrics sum to the global delta for
    // every engine counter (serve_* counters are connection-layer-only
    // and never appear in per-request registries).
    for ((name, b), (name_a, a)) in before.iter().zip(after.iter()) {
        assert_eq!(name, name_a);
        let delta = a - b;
        let request_sum = summed
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        if name.starts_with("serve_") {
            assert_eq!(request_sum, 0, "{name} leaked into a per-request registry");
        } else {
            assert_eq!(
                delta, request_sum,
                "counter {name}: global delta {delta} != per-request sum {request_sum}"
            );
        }
    }
    // The run did real work and the daemon accounted for it.
    let released = summed
        .iter()
        .find(|(n, _)| n == "jobs_released")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(released > 0, "no jobs released across 12 simulations");
    let serve_requests = after
        .iter()
        .find(|(n, _)| n == "serve_requests")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert_eq!(serve_requests, 12);

    let totals = server.shutdown();
    assert_eq!(totals.counter(CounterId::ServeRequests), 12);
    assert_eq!(totals.counter(CounterId::ServeRejected), 0);
}

#[test]
fn compare_and_sweep_are_differential_too() {
    let sock = sock_path("compare-sweep");
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            fanout: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect_unix(&sock).expect("connect");

    let compare = r#"{"id": 1, "op": "compare", "task_set": {"tasks": [{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}]}, "horizon_ms": 100, "policies": ["st", "dp", "selective"]}"#;
    let sweep = r#"{"id": 2, "op": "sweep", "task_set": {"tasks": [{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}]}, "policy": "selective", "horizon_ms": 100, "faults": {"transient_per_ms": 0.001}, "seeds": 6, "seed_from": 7}"#;
    for line in [compare, sweep] {
        let daemon_resp = client.request(line).expect("request");
        // Direct execution uses fanout 1; the daemon runs fanout 2 —
        // the bytes must still match.
        assert_eq!(daemon_resp, direct_response(line), "{line}");
        assert!(daemon_resp.contains("\"ok\":true"), "{daemon_resp}");
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_errors_and_do_not_wedge_the_connection() {
    let sock = sock_path("malformed");
    let server = Server::bind_unix(&sock, ServerConfig::default()).expect("bind");
    let mut client = Client::connect_unix(&sock).expect("connect");

    // Not JSON at all: no id to echo.
    let resp = client.request("this is not json").expect("request");
    assert!(
        resp.starts_with(r#"{"id":null,"ok":false,"error":"#),
        "{resp}"
    );

    // Parsed id, unknown op.
    let resp = client
        .request(r#"{"id": 3, "op": "transmogrify"}"#)
        .expect("request");
    assert!(resp.starts_with(r#"{"id":3,"ok":false"#), "{resp}");
    assert!(resp.contains("transmogrify"), "{resp}");

    // Missing job payload.
    let resp = client
        .request(r#"{"id": 4, "op": "simulate"}"#)
        .expect("request");
    assert!(resp.contains("task_set"), "{resp}");

    // Bad policy id inside an otherwise-valid job.
    let resp = client
        .request(r#"{"id": 5, "op": "simulate", "task_set": {"tasks": [{"period_ms": 5, "wcet_ms": 1, "m": 1, "k": 2}]}, "policy": "warp", "horizon_ms": 10}"#)
        .expect("request");
    assert!(resp.contains("unknown policy"), "{resp}");

    // The connection still works after all of the above.
    let resp = client
        .request(r#"{"id": 6, "op": "ping"}"#)
        .expect("request");
    assert_eq!(resp, r#"{"id":6,"ok":true,"result":{"pong":true}}"#);

    let totals = server.shutdown();
    assert_eq!(totals.counter(CounterId::ServeProtocolErrors), 4);
}

#[test]
fn oversized_lines_are_rejected_and_the_connection_closed() {
    let sock = sock_path("oversized");
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            max_line_bytes: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let mut client = Client::connect_unix(&sock).expect("connect");
    let huge = format!(
        r#"{{"id": 1, "op": "ping", "pad": "{}"}}"#,
        "x".repeat(1024)
    );
    let resp = client
        .request(&huge)
        .expect("the error response still arrives");
    assert!(resp.contains("exceeds 256 bytes"), "{resp}");
    // The daemon closed this connection afterwards: the next request
    // fails on write (broken pipe) or read (EOF), whichever trips first.
    let err = client.request(r#"{"id": 2, "op": "ping"}"#).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::BrokenPipe
        ),
        "unexpected error kind: {err:?}"
    );

    // A fresh connection is unaffected.
    let mut client = Client::connect_unix(&sock).expect("connect");
    let resp = client
        .request(r#"{"id": 3, "op": "ping"}"#)
        .expect("request");
    assert!(resp.contains("pong"), "{resp}");

    let totals = server.shutdown();
    assert_eq!(totals.counter(CounterId::ServeProtocolErrors), 1);
}

#[test]
fn backpressure_sheds_load_and_accounts_for_every_request() {
    let sock = sock_path("backpressure");
    // One worker, tiny queue: a burst of concurrent requests must either
    // be served or shed with an explicit overloaded error — never lost.
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let clients = 6u64;
    let outcomes: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let sock = sock.clone();
                scope.spawn(move || {
                    let mut client = Client::connect_unix(&sock).expect("connect");
                    let resp = client
                        .request(&sim_line(i, "selective", i))
                        .expect("request");
                    if resp.contains("\"ok\":true") {
                        true
                    } else {
                        assert!(resp.contains("overloaded"), "{resp}");
                        false
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let served = outcomes.iter().filter(|&&ok| ok).count() as u64;
    let shed = clients - served;
    assert!(served >= 1, "at least one request must be served");

    let totals = server.shutdown();
    assert_eq!(totals.counter(CounterId::ServeRequests), served);
    assert_eq!(totals.counter(CounterId::ServeRejected), shed);
}

#[test]
fn shutdown_op_drains_cleanly_and_tcp_transport_works() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.tcp_addr().expect("tcp endpoint").to_string();

    let worker = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).expect("connect");
        let resp = client
            .request(&sim_line(1, "selective", 9))
            .expect("simulate");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = client
            .request(r#"{"id": 2, "op": "shutdown"}"#)
            .expect("shutdown");
        assert_eq!(
            resp,
            r#"{"id":2,"ok":true,"result":{"shutting_down":true}}"#
        );
    });

    // run() returns only after the shutdown op arrives and every thread
    // is joined; the in-flight simulate above was answered first.
    let totals = server.run();
    worker.join().expect("client thread");
    assert_eq!(totals.counter(CounterId::ServeRequests), 1);
}
