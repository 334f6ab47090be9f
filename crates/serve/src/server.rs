//! The daemon: listeners, connection handlers, and graceful shutdown.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!  accept loop ──► handler (1 per connection; finished ones are reaped)
//!                    │  parse line → control ops answered inline
//!                    │  simulation ops → Gate::enter
//!                    │      slot free      → run now
//!                    │      slots busy     → wait for a slot (bounded)
//!                    │      waiting full   → "overloaded"
//!                    ▼
//!                  exec::execute over the shared WorkspacePool
//!                    │  (the slot frees on every exit, unwinding too)
//!                    ▼
//!                  write response line
//! ```
//!
//! Backpressure is the admission `Gate`: `--workers` run slots and
//! `--queue` waiting places. A request that finds both full is *shed*
//! with an `overloaded` error instead of being buffered, and counted in
//! `serve_rejected`. Every admitted request records how many requests
//! were waiting at its admission, itself included (0 when it ran at
//! once), in the `serve_queue_depth` histogram — the signal to watch when
//! sizing `--workers`/`--queue`.
//!
//! Shutdown (client `shutdown` op or [`Server::shutdown`]) drains rather
//! than aborts: the accept loop stops, blocked readers are unblocked via
//! `shutdown(Read)` so in-flight responses still go out, every handler is
//! joined (waiting requests still run, as running ones free their
//! slots), and the Unix socket file is removed. No thread outlives
//! [`Server::shutdown`].

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use mkss_core::par::effective_jobs;
use mkss_obs::{
    metrics_doc, CounterId, HistogramId, MetricsDoc, MetricsSnapshot, RecorderHandle, Registry,
    Stopwatch,
};
use mkss_sim::prelude::WorkspacePool;

use crate::conn::{read_line_bounded, Conn, LineRead};
use crate::exec::{execute, ExecEnv};
use crate::protocol::{error_line, ok_line, Op, Request, WatchJob};

/// Tuning knobs for [`Server::bind_unix`] / [`Server::bind_tcp`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Run slots: simulation requests executing at once, each on its own
    /// connection's handler thread (`0` = available parallelism).
    pub workers: usize,
    /// Waiting places: requests that may block for a free run slot;
    /// requests beyond them are shed.
    pub queue_capacity: usize,
    /// Per-request sweep fan-out threads (`0` = available parallelism).
    /// Defaults to 1: the run slots, not the individual request, are
    /// the parallelism unit.
    pub fanout: usize,
    /// Maximum accepted request-line length in bytes; longer lines get a
    /// protocol error and the connection is closed.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            fanout: 1,
            max_line_bytes: 1 << 20,
        }
    }
}

/// Shutdown flag plus the condvar [`Server::wait_for_shutdown`] parks on.
struct ShutdownSignal {
    requested: AtomicBool,
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl ShutdownSignal {
    fn new() -> ShutdownSignal {
        ShutdownSignal {
            requested: AtomicBool::new(false),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    fn request(&self) {
        // mkss-lint: ordering — Release pairs with the Acquire load in is_requested; the flag carries no payload beyond itself and the notify below is already fenced by the mutex
        self.requested.store(true, Ordering::Release);
        let _guard = lock(&self.mutex);
        self.condvar.notify_all();
    }

    fn is_requested(&self) -> bool {
        // mkss-lint: ordering — Acquire pairs with the Release store in request; seeing `true` is the only obligation
        self.requested.load(Ordering::Acquire)
    }

    /// Park for up to `timeout` or until a shutdown request, whichever
    /// comes first. Returns whether shutdown has been requested — so a
    /// `watch` sampler sleeping between frames wakes *immediately* when
    /// the drain starts instead of stalling it for a full interval.
    fn wait_requested_for(&self, timeout: Duration) -> bool {
        let guard = lock(&self.mutex);
        drop(
            self.condvar
                .wait_timeout_while(guard, timeout, |()| !self.is_requested()),
        );
        self.is_requested()
    }
}

/// Admission gate for simulation requests: `slots` run at once, each on
/// its own handler thread, up to `places` more block until a slot
/// frees, and any beyond those are refused.
struct Gate {
    slots: usize,
    places: usize,
    state: Mutex<GateState>,
    freed: Condvar,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
}

/// A held run slot; dropping it, on any exit path, frees the slot.
struct Slot<'a>(&'a Gate);

impl Gate {
    fn new(slots: usize, places: usize) -> Gate {
        Gate {
            slots,
            places,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
        }
    }

    /// Takes a run slot, blocking in a waiting place while every slot is
    /// busy. Returns the slot and the number of requests waiting at
    /// admission, this one included (0 when it runs at once), or `None`
    /// when every slot and waiting place is taken.
    fn enter(&self) -> Option<(Slot<'_>, usize)> {
        let mut state = lock(&self.state);
        let mut depth = 0;
        if state.running >= self.slots {
            if state.waiting >= self.places {
                return None;
            }
            state.waiting += 1;
            depth = state.waiting;
            state = match self
                .freed
                .wait_while(state, |state| state.running >= self.slots)
            {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            state.waiting -= 1;
        }
        state.running += 1;
        Some((Slot(self), depth))
    }

    /// `(running, waiting)` now: a scheduling-dependent reading for
    /// telemetry, never for results.
    fn occupancy(&self) -> (usize, usize) {
        let state = lock(&self.state);
        (state.running, state.waiting)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).running -= 1;
        self.0.freed.notify_one();
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    config: ServerConfig,
    gate: Gate,
    workspaces: WorkspacePool,
    registry: Arc<Registry>,
    signal: ShutdownSignal,
    /// Read-half handles of live connections (keyed by a per-connection
    /// token), shut down at exit to unblock parked readers. Handlers
    /// remove their entry when they close, so a tracked clone never
    /// holds a finished connection open.
    conns: Mutex<Vec<(u64, Conn)>>,
    next_conn: AtomicU64,
    /// Handler threads to join at exit.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Daemon birth time; `uptime_ms` in every published metrics doc.
    start: Stopwatch,
    /// Monotonic sequence number stamped on every published metrics doc
    /// (the `metrics` op and each `watch` frame share one stream), so
    /// pollers can detect restarts and ignore reordered frames.
    seq: AtomicU64,
}

/// Where the server listens.
enum Endpoint {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener, SocketAddr),
}

/// A running daemon; dropping or [`Server::shutdown`] stops it cleanly.
pub struct Server {
    shared: Arc<Shared>,
    endpoint: EndpointInfo,
    accept: Option<JoinHandle<()>>,
}

/// Printable description of a bound endpoint.
#[derive(Debug, Clone)]
enum EndpointInfo {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Server {
    /// Bind a Unix-domain socket at `path` and start serving.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (e.g. a stale socket file).
    pub fn bind_unix(path: impl AsRef<Path>, config: ServerConfig) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path)?;
        Ok(Server::start(Endpoint::Unix(listener, path), config))
    }

    /// Bind a TCP socket (e.g. `"127.0.0.1:0"`) and start serving.
    ///
    /// # Errors
    ///
    /// Propagates bind or local-address failures.
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Server::start(Endpoint::Tcp(listener, local), config))
    }

    fn start(endpoint: Endpoint, config: ServerConfig) -> Server {
        let registry = Arc::new(Registry::new(Registry::MAX_SHARDS));
        let shared = Arc::new(Shared {
            config,
            gate: Gate::new(effective_jobs(config.workers), config.queue_capacity),
            workspaces: WorkspacePool::new(),
            registry,
            signal: ShutdownSignal::new(),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            handlers: Mutex::new(Vec::new()),
            start: Stopwatch::start(),
            seq: AtomicU64::new(0),
        });
        let info = match &endpoint {
            Endpoint::Unix(_, path) => EndpointInfo::Unix(path.clone()),
            Endpoint::Tcp(_, addr) => EndpointInfo::Tcp(*addr),
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(endpoint, &shared))
        };
        Server {
            shared,
            endpoint: info,
            accept: Some(accept),
        }
    }

    /// The bound TCP address, when listening on TCP (lets callers bind
    /// port 0 and discover the ephemeral port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            EndpointInfo::Tcp(addr) => Some(*addr),
            EndpointInfo::Unix(_) => None,
        }
    }

    /// Printable endpoint (socket path or address).
    pub fn endpoint(&self) -> String {
        match &self.endpoint {
            EndpointInfo::Unix(path) => path.display().to_string(),
            EndpointInfo::Tcp(addr) => addr.to_string(),
        }
    }

    /// The daemon's global metrics registry (serve counters plus a tee
    /// of every request's engine events).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Whether a shutdown has been requested (by op or locally).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.signal.is_requested()
    }

    /// Block until some client sends the `shutdown` op (or
    /// [`Server::shutdown`] is called from another thread via a clone of
    /// the registry — normally the op).
    pub fn wait_for_shutdown(&self) {
        let signal = &self.shared.signal;
        let guard = lock(&signal.mutex);
        drop(
            signal
                .condvar
                .wait_while(guard, |()| !signal.is_requested()),
        );
    }

    /// Serve until a client requests shutdown, then stop cleanly and
    /// return the final metrics snapshot.
    pub fn run(self) -> MetricsSnapshot {
        self.wait_for_shutdown();
        self.shutdown()
    }

    /// Stop the daemon: stop accepting, let in-flight requests finish,
    /// join every thread, remove the socket file. Returns the final
    /// metrics snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_inner();
        self.shared.registry.snapshot()
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return; // already shut down
        };
        self.shared.signal.request();
        // Wake the accept loop with a throwaway connection.
        match &self.endpoint {
            EndpointInfo::Unix(path) => drop(UnixStream::connect(path)),
            EndpointInfo::Tcp(addr) => drop(TcpStream::connect(addr)),
        }
        join_quiet(accept);
        // Unblock handlers parked in a read; responses still flush.
        for (_, conn) in lock(&self.shared.conns).drain(..) {
            let _ = conn.shutdown_read();
        }
        let handlers: Vec<_> = lock(&self.shared.handlers).drain(..).collect();
        for handler in handlers {
            join_quiet(handler);
        }
        if let EndpointInfo::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("endpoint", &self.endpoint)
            .field("shutdown_requested", &self.shutdown_requested())
            .finish_non_exhaustive()
    }
}

fn accept_loop(endpoint: Endpoint, shared: &Arc<Shared>) {
    loop {
        let conn = match &endpoint {
            Endpoint::Unix(listener, _) => listener.accept().map(|(s, _)| Conn::Unix(s)),
            Endpoint::Tcp(listener, _) => listener.accept().map(|(s, _)| Conn::Tcp(s)),
        };
        if shared.signal.is_requested() {
            return; // the waking dummy connection lands here too
        }
        let Ok(conn) = conn else { continue };
        let Ok(read_half) = conn.try_clone() else {
            continue;
        };
        // mkss-lint: ordering — token allocation needs uniqueness only; fetch_add is atomic under any ordering
        let token = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        lock(&shared.conns).push((token, read_half));
        let handler = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                // Drop the tracked read-half even if the handler panics,
                // so a closed connection's peer sees EOF immediately.
                let _cleanup = ConnCleanup {
                    shared: &shared,
                    token,
                };
                handle_connection(conn, &shared);
            })
        };
        let mut handlers = lock(&shared.handlers);
        // Reap exited handlers: an unjoined thread keeps its stack mapped.
        // Dropping a finished handle frees it and loses nothing a join
        // would report, since handler panics are ignored (`join_quiet`).
        handlers.retain(|handler| !handler.is_finished());
        handlers.push(handler);
    }
}

/// Removes a connection's tracked read-half when its handler exits.
struct ConnCleanup<'a> {
    shared: &'a Arc<Shared>,
    token: u64,
}

impl Drop for ConnCleanup<'_> {
    fn drop(&mut self) {
        lock(&self.shared.conns).retain(|(t, _)| *t != self.token);
    }
}

fn handle_connection(conn: Conn, shared: &Shared) {
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(conn);
    // One registry shard per connection for the serve counters, and one
    // for the tee of every request's engine runs.
    let counters = shared.registry.handle();
    let env = ExecEnv {
        pool: &shared.workspaces,
        global: Some(Arc::new(shared.registry.handle())),
        fanout: shared.config.fanout,
    };
    loop {
        let line = match read_line_bounded(&mut reader, shared.config.max_line_bytes) {
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::TooLong) => {
                counters.count(CounterId::ServeProtocolErrors);
                let resp = error_line(
                    None,
                    &format!(
                        "request line exceeds {} bytes; closing connection",
                        shared.config.max_line_bytes
                    ),
                );
                let _ = write_response(&mut writer, resp);
                return;
            }
            Ok(LineRead::NotUtf8) => {
                counters.count(CounterId::ServeProtocolErrors);
                let resp = error_line(None, "request line is not valid UTF-8; closing connection");
                let _ = write_response(&mut writer, resp);
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                counters.count(CounterId::ServeProtocolErrors);
                let resp = error_line(e.id, &e.message);
                if write_response(&mut writer, resp).is_err() {
                    return;
                }
                continue;
            }
        };
        let shutting_down = match respond(&request, shared, &counters, &env, &mut writer) {
            Ok(shutting_down) => shutting_down,
            Err(_) => return,
        };
        if shutting_down {
            return;
        }
    }
}

/// Answer one parsed request. Returns whether this was a `shutdown` op.
fn respond(
    request: &Request,
    shared: &Shared,
    counters: &RecorderHandle,
    env: &ExecEnv<'_>,
    writer: &mut Conn,
) -> io::Result<bool> {
    let id = request.id;
    let op_counter = match &request.op {
        Op::Ping => {
            // Answered inline so liveness probes bypass busy run slots;
            // bytes match `exec::execute` exactly.
            write_response(writer, ok_line(id, "{\"pong\":true}", None))?;
            return Ok(false);
        }
        Op::Metrics => {
            let doc = daemon_doc(shared, &[]);
            write_response(writer, ok_line(id, &doc.to_json_line(), None))?;
            return Ok(false);
        }
        Op::Watch(job) => {
            counters.count(CounterId::ServeWatches);
            let sent = stream_watch(id, *job, shared, writer)?;
            let done = format!("{{\"watch_done\":true,\"frames\":{sent}}}");
            write_response(writer, ok_line(id, &done, None))?;
            return Ok(false);
        }
        Op::Shutdown => {
            shared.signal.request();
            write_response(writer, ok_line(id, "{\"shutting_down\":true}", None))?;
            return Ok(true);
        }
        Op::Simulate(_) => CounterId::ServeOpSimulate,
        Op::Compare(_) => CounterId::ServeOpCompare,
        Op::Sweep(_) => CounterId::ServeOpSweep,
    };
    let latency = Stopwatch::start();
    let resp = match shared.gate.enter() {
        Some((slot, depth)) => {
            counters.count(CounterId::ServeRequests);
            counters.observe(HistogramId::ServeQueueDepth, depth as u64);
            let resp = execute(request, env);
            drop(slot);
            // Per-op accounting lives in the daemon-global registry only;
            // per-request registries inside `execute` stay byte-stable
            // for the differential.
            counters.observe(HistogramId::ServeOpLatencyUs, latency.elapsed_us());
            counters.count(op_counter);
            resp
        }
        None => {
            counters.count(CounterId::ServeRejected);
            error_line(Some(id), "overloaded: worker pool queue is full")
        }
    };
    write_response(writer, resp)?;
    Ok(false)
}

/// The daemon's self-describing metrics document: identity, uptime, the
/// publication sequence number, and run-slot gauges, followed by any
/// caller-supplied entries (watch frames add their frame index), wrapping
/// the current global snapshot.
fn daemon_doc(shared: &Shared, extra: &[(&str, String)]) -> MetricsDoc {
    // mkss-lint: ordering — publication sequence label; monotonicity per document is all consumers read into it
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    let (running, waiting) = shared.gate.occupancy();
    let mut meta: Vec<(&str, String)> = vec![
        ("endpoint", "daemon".to_string()),
        ("seq", seq.to_string()),
        ("uptime_ms", shared.start.elapsed_ms_ceil().to_string()),
        ("workers", shared.gate.slots.to_string()),
        ("busy_workers", running.to_string()),
        ("queue", shared.gate.places.to_string()),
        ("queue_depth", waiting.to_string()),
        ("pid", std::process::id().to_string()),
    ];
    meta.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    metrics_doc("mkss-serve", shared.registry.snapshot(), &meta, &[])
}

/// Push one metrics frame per interval until the subscription's frame
/// budget is spent, shutdown begins, or the client disconnects (a write
/// error, propagated). Returns the number of frames pushed.
fn stream_watch(id: u64, job: WatchJob, shared: &Shared, writer: &mut Conn) -> io::Result<u64> {
    let mut sent = 0u64;
    loop {
        let doc = daemon_doc(
            shared,
            &[
                ("frame", sent.to_string()),
                ("interval_ms", job.interval_ms.to_string()),
            ],
        );
        write_response(writer, ok_line(id, &doc.to_json_line(), None))?;
        sent += 1;
        if job.frames != 0 && sent >= job.frames {
            return Ok(sent);
        }
        if shared
            .signal
            .wait_requested_for(Duration::from_millis(job.interval_ms))
        {
            return Ok(sent);
        }
    }
}

/// Send one response line in a single write, so a reader never wakes on
/// a line that still lacks its newline.
fn write_response(writer: &mut Conn, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn join_quiet(handle: JoinHandle<()>) {
    // A panicked handler already lost its connection; don't take the
    // daemon down with it.
    let _ = handle.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Polls `done` every millisecond, failing the test after ten seconds.
    fn wait_until(mut done: impl FnMut() -> bool) {
        for _ in 0..10_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("condition not reached within ten seconds");
    }

    #[test]
    fn finished_connection_handlers_are_reaped() {
        let sock =
            std::env::temp_dir().join(format!("mkss-serve-unit-{}-reap.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let server = Server::bind_unix(&sock, ServerConfig::default()).expect("bind");
        let shared = Arc::clone(&server.shared);
        let all_finished = || {
            let closed = lock(&shared.conns).is_empty();
            closed && lock(&shared.handlers).iter().all(JoinHandle::is_finished)
        };
        for id in 0..64 {
            let mut client = Client::connect_unix(&sock).expect("connect");
            let resp = client
                .request(&format!(r#"{{"id": {id}, "op": "ping"}}"#))
                .expect("ping");
            assert!(resp.contains("pong"), "{resp}");
            drop(client);
            wait_until(all_finished);
        }
        let held = lock(&shared.handlers).len();
        assert!(
            held <= 2,
            "{held} handler threads kept for 64 closed connections"
        );
        drop(server);
    }

    #[test]
    fn first_request_enters_a_free_slot_at_once() {
        let gate = Gate::new(1, 1);
        let (slot, depth) = gate.enter().expect("a free slot");
        assert_eq!(
            depth, 0,
            "a request that starts at once waited behind no one"
        );
        assert_eq!(gate.occupancy(), (1, 0));
        drop(slot);
        assert_eq!(gate.occupancy(), (0, 0));
    }

    #[test]
    fn second_request_waits_for_the_slot_and_third_is_refused() {
        let gate = Gate::new(1, 1);
        let (first, _) = gate.enter().expect("a free slot");
        std::thread::scope(|scope| {
            let second = scope.spawn(|| gate.enter().map(|(_slot, depth)| depth));
            wait_until(|| gate.occupancy() == (1, 1));
            assert!(
                gate.enter().is_none(),
                "the slot and the waiting place are both taken"
            );
            assert!(!second.is_finished(), "admitted while the slot was held");
            drop(first);
            let depth = second.join().expect("second request");
            assert_eq!(depth, Some(1), "it waited, and was the only one waiting");
        });
        assert_eq!(gate.occupancy(), (0, 0));
    }

    #[test]
    fn a_slot_is_freed_when_its_request_unwinds() {
        let gate = Gate::new(1, 1);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _slot = gate.enter().expect("a free slot");
            panic!("request panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(gate.occupancy(), (0, 0), "busy_workers back to 0");
        assert!(gate.enter().is_some(), "the slot can be taken again");
    }
}
