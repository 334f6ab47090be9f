//! The `watch` op end to end: bounded subscriptions deliver exactly the
//! requested frames and hand the connection back; unbounded ones are
//! closed promptly by the shutdown drain (no interval-long stall, no
//! leaked threads); frame contents agree with the `metrics` op.

use mkss_obs::{CounterId, Stopwatch};
use mkss_serve::{Client, Server, ServerConfig};
use serde::Value;

fn sock_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mkss-watch-test-{}-{tag}.sock", std::process::id()))
}

/// Pull `meta.<key>` out of a watch-frame or metrics response line.
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test helper: a failed lookup is a test failure"
)]
fn meta_str(response: &str, key: &str) -> String {
    let doc = serde_json::parse_value(response).expect("response parses");
    doc.get("result")
        .and_then(|r| r.get("meta"))
        .and_then(|m| m.get(key))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("meta.{key} missing in {response}"))
        .to_string()
}

/// Counter `name` from the `result.counters` member.
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test helper: a failed lookup is a test failure"
)]
fn counter_of(response: &str, name: &str) -> u64 {
    let doc = serde_json::parse_value(response).expect("response parses");
    doc.get("result")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing in {response}"))
}

#[test]
fn bounded_watch_streams_frames_then_returns_the_connection() {
    let sock = sock_path("bounded");
    let server = Server::bind_unix(&sock, ServerConfig::default()).expect("bind");
    let mut client = Client::connect_unix(&sock).expect("connect");

    client
        .send(r#"{"id": 5, "op": "watch", "interval_ms": 10, "frames": 3}"#)
        .expect("send");
    let mut seqs = Vec::new();
    for frame in 0..3u64 {
        let line = client.recv().expect("frame");
        assert!(
            line.starts_with(r#"{"id":5,"ok":true,"result":{"meta":"#),
            "{line}"
        );
        assert_eq!(meta_str(&line, "binary"), "mkss-serve");
        assert_eq!(meta_str(&line, "endpoint"), "daemon");
        assert_eq!(meta_str(&line, "frame"), frame.to_string());
        assert_eq!(meta_str(&line, "interval_ms"), "10");
        let uptime: u64 = meta_str(&line, "uptime_ms").parse().expect("uptime");
        let _ = uptime; // parseable is the contract; magnitude is wall clock
        assert!(meta_str(&line, "workers").parse::<u64>().expect("workers") >= 1);
        seqs.push(meta_str(&line, "seq").parse::<u64>().expect("seq"));
    }
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seq not monotonic: {seqs:?}"
    );
    let done = client.recv().expect("terminal line");
    assert_eq!(
        done,
        r#"{"id":5,"ok":true,"result":{"watch_done":true,"frames":3}}"#
    );

    // The connection is back to request/response service.
    let pong = client.request(r#"{"id": 6, "op": "ping"}"#).expect("ping");
    assert_eq!(pong, r#"{"id":6,"ok":true,"result":{"pong":true}}"#);

    let totals = server.shutdown();
    assert_eq!(totals.counter(CounterId::ServeWatches), 1);
    // Watch frames are connection-layer pushes, not pooled requests.
    assert_eq!(totals.counter(CounterId::ServeRequests), 0);
}

#[test]
fn watch_frames_agree_with_the_metrics_op() {
    let sock = sock_path("consistency");
    let server = Server::bind_unix(&sock, ServerConfig::default()).expect("bind");
    let mut client = Client::connect_unix(&sock).expect("connect");

    let sim = r#"{"id": 1, "op": "simulate", "task_set": {"tasks": [{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}]}, "policy": "selective", "horizon_ms": 200, "faults": {"seed": 3, "transient_per_ms": 0.001}}"#;
    let resp = client.request(sim).expect("simulate");
    assert!(resp.contains("\"ok\":true"), "{resp}");

    // With the daemon otherwise idle, a watch frame and a metrics doc
    // snapshot the same registry state — counter-for-counter.
    client
        .send(r#"{"id": 2, "op": "watch", "interval_ms": 10, "frames": 1}"#)
        .expect("send");
    let frame = client.recv().expect("frame");
    let _done = client.recv().expect("terminal");
    let metrics = client
        .request(r#"{"id": 3, "op": "metrics"}"#)
        .expect("metrics");
    for name in [
        "jobs_released",
        "jobs_met",
        "serve_requests",
        "serve_op_simulate",
        "serve_watches",
    ] {
        assert_eq!(
            counter_of(&frame, name),
            counter_of(&metrics, name),
            "{name} diverged between watch frame and metrics op"
        );
    }
    assert_eq!(counter_of(&frame, "serve_op_simulate"), 1);
    assert_eq!(counter_of(&frame, "serve_watches"), 1);
    // The publication stream is shared: metrics came after the frame.
    let frame_seq: u64 = meta_str(&frame, "seq").parse().expect("seq");
    let metrics_seq: u64 = meta_str(&metrics, "seq").parse().expect("seq");
    assert!(metrics_seq > frame_seq, "{metrics_seq} <= {frame_seq}");
    server.shutdown();
}

#[test]
fn shutdown_drain_closes_unbounded_watchers_promptly() {
    let sock = sock_path("drain");
    let server = Server::bind_unix(&sock, ServerConfig::default()).expect("bind");
    let sock2 = sock.clone();
    let watcher = std::thread::spawn(move || {
        let mut client = Client::connect_unix(&sock2).expect("connect");
        // A long interval: the drain must interrupt the sleep, not wait
        // it out.
        client
            .send(r#"{"id": 9, "op": "watch", "interval_ms": 10000}"#)
            .expect("send");
        let first = client.recv().expect("first frame arrives immediately");
        assert!(first.contains("\"frame\":\"0\""), "{first}");
        // The next line is the terminal marker, pushed by the drain.
        let done = client.recv().expect("terminal line");
        assert!(done.contains("\"watch_done\":true"), "{done}");
    });
    // Give the watcher time to subscribe and park in its interval sleep.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let watch = Stopwatch::start();
    let totals = server.shutdown();
    assert!(
        watch.elapsed_ms() < 5000.0,
        "shutdown stalled on a sleeping watcher: {:.0} ms",
        watch.elapsed_ms()
    );
    watcher.join().expect("watcher thread");
    assert_eq!(totals.counter(CounterId::ServeWatches), 1);
}
