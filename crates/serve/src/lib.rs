//! # mkss-serve
//!
//! A session-pooled simulation daemon for the (m,k) standby-sparing
//! stack: clients connect over a Unix-domain or TCP socket, send
//! line-delimited JSON requests (`simulate`, `compare`, `sweep`, plus
//! `ping` / `metrics` / `shutdown`), and get one response line per
//! request with the simulation result and that request's own metrics
//! delta. A streaming `watch` op turns a connection into a live metrics
//! feed (one document per interval, with daemon identity/uptime meta for
//! restart detection) — the transport `mkss-top` renders.
//!
//! The crate reshapes the workspace's public API around long-lived
//! serving rather than one-shot binaries:
//!
//! * simulations draw reusable arenas from a shared
//!   [`mkss_sim::pool::WorkspacePool`], so steady-state traffic
//!   allocates nothing per run;
//! * requests are scheduled on a bounded [`mkss_core::par::WorkerPool`]
//!   — when the queue fills the daemon sheds load with an `overloaded`
//!   error instead of buffering unboundedly;
//! * every request's engine runs are recorded through an
//!   [`mkss_obs::ScopedRecorder`], which folds each finished run's tally
//!   into a per-request registry *and* the daemon's global one, so
//!   per-request metrics sum exactly to the daemon totals.
//!
//! The contract that keeps the daemon honest: [`exec::execute`] is the
//! entire behavior of the simulation ops, and for a given request line
//! its response line is **byte-identical** whether invoked in-process or
//! through the daemon, at any pool size or fan-out. `mkss-bench`'s
//! `loadgen` binary and this crate's integration tests assert exactly
//! that.
//!
//! Request lines are parsed with the workspace's vendored `serde_json`
//! (the same parser `mkss-cli` reads task-set files with, and the
//! [`task_set`] schema is shared with it); responses are written by hand
//! with the same crate's string escaper.
//!
//! ## Example
//!
//! ```
//! use mkss_serve::{Client, Server, ServerConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let dir = std::env::temp_dir().join(format!("mkss-serve-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let sock = dir.join("daemon.sock");
//! let server = Server::bind_unix(&sock, ServerConfig::default())?;
//!
//! let mut client = Client::connect_unix(&sock)?;
//! let resp = client.request(r#"{"id": 1, "op": "ping"}"#)?;
//! assert_eq!(resp, r#"{"id":1,"ok":true,"result":{"pong":true}}"#);
//!
//! client.request(r#"{"id": 2, "op": "shutdown"}"#)?;
//! let totals = server.run(); // drains and joins every thread
//! assert!(totals.counter(mkss_obs::CounterId::ServeRejected) == 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod client;
mod conn;
pub mod exec;
pub mod protocol;
mod server;
pub mod task_set;

pub use client::Client;
pub use exec::{execute, ExecEnv};
pub use protocol::{Op, ProtocolError, Request, WatchJob};
pub use server::{Server, ServerConfig};
