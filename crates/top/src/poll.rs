//! The dashboard loop: attach to a daemon, pull the metrics documents
//! its `watch` op streams, and render one frame per sample against the
//! previous one.

use std::io::{self, Write};
use std::path::PathBuf;

use mkss_serve::protocol::{MAX_WATCH_INTERVAL_MS, MIN_WATCH_INTERVAL_MS};
use mkss_serve::Client;

use crate::frame::{Frame, Sample};
use crate::parse::{parse_response_line, ResponseLine};
use crate::render::{render_ansi, render_plain};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: unix/tcp is the complete endpoint alphabet of the daemon"
)]
pub enum Target {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP endpoint, e.g. `"127.0.0.1:7878"`.
    Tcp(String),
}

/// Dashboard session configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopConfig {
    /// Daemon endpoint to attach to.
    pub target: Target,
    /// Milliseconds between samples.
    pub interval_ms: u64,
    /// Frames to render before exiting; `0` runs until the daemon
    /// drains the stream (watch mode) or the connection drops.
    pub frames: u64,
    /// Render plain text (no ANSI escapes, no screen clearing).
    pub plain: bool,
}

impl TopConfig {
    /// A default session against `target`: two samples a second,
    /// unbounded, ANSI.
    pub fn new(target: Target) -> TopConfig {
        TopConfig {
            target,
            interval_ms: 500,
            frames: 0,
            plain: false,
        }
    }
}

/// What a finished dashboard session saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopSummary {
    /// Frames rendered.
    pub frames: u64,
    /// Baseline resets observed (daemon restarts mid-session).
    pub restarts: u64,
    /// `meta.endpoint` of the last sample, empty if none arrived.
    pub endpoint: String,
}

/// Run a dashboard session to completion, writing rendered frames to
/// `out`.
///
/// # Errors
///
/// Fails on connection/transport errors, on an error response from the
/// daemon, or on a response line that doesn't parse as a metrics
/// document.
pub fn run_top(config: &TopConfig, out: &mut dyn Write) -> io::Result<TopSummary> {
    let interval_ms = config
        .interval_ms
        .clamp(MIN_WATCH_INTERVAL_MS, MAX_WATCH_INTERVAL_MS);
    let mut client = match &config.target {
        Target::Unix(path) => Client::connect_unix(path)?,
        Target::Tcp(addr) => Client::connect_tcp(addr)?,
    };
    let mut session = RenderState::new(config.plain);

    client.send(&format!(
        "{{\"id\":1,\"op\":\"watch\",\"interval_ms\":{interval_ms},\"frames\":{}}}",
        config.frames
    ))?;
    loop {
        let line = client.recv()?;
        match interpret(&line)? {
            Some(sample) => session.show(*sample, out)?,
            None => break,
        }
    }
    Ok(session.into_summary())
}

/// Parse a response line, promoting daemon errors and parse failures to
/// `io::Error` so the caller has one error channel. `None` is the watch
/// stream's terminal marker.
fn interpret(line: &str) -> io::Result<Option<Box<Sample>>> {
    match parse_response_line(line) {
        Ok(ResponseLine::Frame(sample)) => Ok(Some(sample)),
        Ok(ResponseLine::WatchDone { .. }) => Ok(None),
        Ok(ResponseLine::Error { message }) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("daemon error: {message}"),
        )),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.message)),
    }
}

/// Carries the previous sample between frames and accumulates the
/// session summary.
struct RenderState {
    plain: bool,
    prev: Option<Sample>,
    frames: u64,
    restarts: u64,
    endpoint: String,
}

impl RenderState {
    fn new(plain: bool) -> RenderState {
        RenderState {
            plain,
            prev: None,
            frames: 0,
            restarts: 0,
            endpoint: String::new(),
        }
    }

    fn show(&mut self, sample: Sample, out: &mut dyn Write) -> io::Result<()> {
        let frame = Frame::build(self.prev.as_ref(), &sample);
        if frame.restarted {
            self.restarts += 1;
        }
        let rendered = if self.plain {
            render_plain(&frame)
        } else {
            render_ansi(&frame)
        };
        out.write_all(rendered.as_bytes())?;
        out.flush()?;
        self.frames += 1;
        self.endpoint = sample.meta.endpoint.clone();
        self.prev = Some(sample);
        Ok(())
    }

    fn into_summary(self) -> TopSummary {
        TopSummary {
            frames: self.frames,
            restarts: self.restarts,
            endpoint: self.endpoint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_serve::{Server, ServerConfig};

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mkss-top-test-{}-{tag}.sock", std::process::id()))
    }

    #[test]
    fn streaming_session_renders_the_requested_frames() {
        let sock = sock_path("stream");
        let server = Server::bind_unix(&sock, ServerConfig::default()).expect("bind");
        let config = TopConfig {
            interval_ms: 10,
            frames: 3,
            plain: true,
            ..TopConfig::new(Target::Unix(sock))
        };
        let mut out = Vec::new();
        let summary = run_top(&config, &mut out).expect("session");
        assert_eq!(summary.frames, 3);
        assert_eq!(summary.restarts, 0);
        assert_eq!(summary.endpoint, "daemon");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.matches("mkss-top · mkss-serve @ daemon").count(), 3);
        // Frames after the first carry deltas against their baseline.
        assert!(text.contains("span "), "{text}");
        assert!(!text.contains('\x1b'), "plain session leaked ANSI escapes");
        server.shutdown();
    }

    #[test]
    fn ansi_sessions_clear_between_frames() {
        let sock = sock_path("ansi");
        let server = Server::bind_unix(&sock, ServerConfig::default()).expect("bind");
        let config = TopConfig {
            interval_ms: 10,
            frames: 2,
            ..TopConfig::new(Target::Unix(sock))
        };
        let mut out = Vec::new();
        run_top(&config, &mut out).expect("session");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.matches(crate::render::ANSI_CLEAR).count(), 2);
        server.shutdown();
    }

    #[test]
    fn connection_refused_surfaces_as_an_error() {
        let config = TopConfig::new(Target::Unix(sock_path("absent")));
        let mut out = Vec::new();
        assert!(run_top(&config, &mut out).is_err());
    }
}
