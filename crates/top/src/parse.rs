//! Wire-side parsing: daemon response lines (the `metrics` op, `watch`
//! frames) into [`Sample`]s, parsed by the workspace's vendored
//! `serde_json`.
//!
//! Forward compatibility is deliberate: counters or histograms the
//! daemon doesn't know yet parse as zero, and unknown members are
//! ignored — a newer dashboard can watch an older daemon.

use std::fmt;

use mkss_obs::{CounterId, HistogramId, MetricsSnapshot};
use serde::Value;

use crate::frame::{Sample, SampleMeta};

/// A response line the dashboard could not interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ParseError {
    /// What went wrong, for the operator.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

/// One interpreted daemon response line.
#[derive(Debug, Clone, PartialEq)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: mirrors the serve protocol's fixed response kinds; the dashboard matches them all"
)]
pub enum ResponseLine {
    /// A metrics document (a `watch` frame or a `metrics` op response).
    Frame(Box<Sample>),
    /// The `watch` subscription's terminal marker.
    WatchDone {
        /// Frames the daemon pushed before ending the stream.
        frames: u64,
    },
    /// A protocol-level error response.
    Error {
        /// The daemon's error message.
        message: String,
    },
}

/// Interpret one daemon response line.
///
/// # Errors
///
/// Fails when the line is not JSON or is an `ok` response whose result
/// is neither a metrics document nor a `watch_done` marker.
pub fn parse_response_line(line: &str) -> Result<ResponseLine, ParseError> {
    let doc =
        serde_json::parse_value(line).map_err(|e| ParseError::new(format!("bad response: {e}")))?;
    if doc.get("ok").and_then(Value::as_bool) == Some(false) {
        let message = doc
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unspecified daemon error")
            .to_string();
        return Ok(ResponseLine::Error { message });
    }
    let result = doc
        .get("result")
        .ok_or_else(|| ParseError::new("response has no 'result'"))?;
    if result.get("watch_done").and_then(Value::as_bool) == Some(true) {
        let frames = result.get("frames").and_then(Value::as_u64).unwrap_or(0);
        return Ok(ResponseLine::WatchDone { frames });
    }
    Ok(ResponseLine::Frame(Box::new(sample_from_doc(result)?)))
}

/// Reconstruct a [`Sample`] from a parsed metrics document (the object
/// with `meta` / `counters` / `histograms` members).
///
/// # Errors
///
/// Fails when the `counters` member is missing — everything else
/// degrades to zero.
pub fn sample_from_doc(doc: &Value) -> Result<Sample, ParseError> {
    let counters = doc
        .get("counters")
        .ok_or_else(|| ParseError::new("document has no 'counters'"))?;
    let mut snapshot = MetricsSnapshot::empty();
    for c in CounterId::ALL {
        let value = counters.get(c.name()).and_then(Value::as_u64).unwrap_or(0);
        snapshot.set_counter(c, value);
    }
    if let Some(histograms) = doc.get("histograms") {
        for h in HistogramId::ALL {
            let mut buckets = [0u64; HistogramId::BUCKETS];
            if let Some(counts) = histograms
                .get(h.name())
                .and_then(|entry| entry.get("counts"))
                .and_then(Value::as_array)
            {
                for (cell, value) in buckets.iter_mut().zip(counts.iter()) {
                    *cell = value.as_u64().unwrap_or(0);
                }
            }
            snapshot.set_histogram(h, buckets);
        }
    }
    let meta = doc.get("meta");
    let meta_str = |key: &str| -> String {
        meta.and_then(|m| m.get(key))
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let meta_u64 = |key: &str| -> u64 {
        meta.and_then(|m| m.get(key))
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    };
    Ok(Sample {
        snapshot,
        meta: SampleMeta {
            binary: meta_str("binary"),
            endpoint: meta_str("endpoint"),
            seq: meta_u64("seq"),
            uptime_ms: meta_u64("uptime_ms"),
            workers: meta_u64("workers"),
            busy_workers: meta_u64("busy_workers"),
            queue: meta_u64("queue"),
            queue_depth: meta_u64("queue_depth"),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_obs::{metrics_doc, Recorder, Registry};
    use std::sync::Arc;

    /// Round trip: a doc produced by the real exporter parses back into
    /// the exact snapshot it wrapped.
    #[test]
    fn exporter_docs_round_trip() {
        let registry = Arc::new(Registry::new(2));
        let h = registry.handle_at(0);
        h.incr(CounterId::JobsMet, 17);
        h.incr(CounterId::ServeRequests, 4);
        h.observe(HistogramId::ServeQueueDepth, 3);
        let snapshot = registry.snapshot();
        let doc = metrics_doc(
            "mkss-serve",
            snapshot.clone(),
            &[
                ("endpoint", "daemon".to_string()),
                ("seq", "9".to_string()),
                ("uptime_ms", "1234".to_string()),
                ("workers", "8".to_string()),
                ("busy_workers", "2".to_string()),
                ("queue", "64".to_string()),
                ("queue_depth", "1".to_string()),
            ],
            &[],
        );
        let line = format!("{{\"id\":1,\"ok\":true,\"result\":{}}}", doc.to_json_line());
        let ResponseLine::Frame(sample) = parse_response_line(&line).expect("parses") else {
            panic!("expected a frame");
        };
        assert_eq!(sample.snapshot, snapshot);
        assert_eq!(sample.meta.binary, "mkss-serve");
        assert_eq!(sample.meta.seq, 9);
        assert_eq!(sample.meta.uptime_ms, 1234);
        assert_eq!(sample.meta.workers, 8);
        assert_eq!(sample.meta.busy_workers, 2);
        assert_eq!((sample.meta.queue, sample.meta.queue_depth), (64, 1));
    }

    #[test]
    fn watch_done_and_errors_are_recognized() {
        assert_eq!(
            parse_response_line(r#"{"id":5,"ok":true,"result":{"watch_done":true,"frames":3}}"#)
                .expect("parses"),
            ResponseLine::WatchDone { frames: 3 }
        );
        assert_eq!(
            parse_response_line(r#"{"id":5,"ok":false,"error":"overloaded"}"#).expect("parses"),
            ResponseLine::Error {
                message: "overloaded".to_string()
            }
        );
        assert!(parse_response_line("not json").is_err());
        assert!(parse_response_line(r#"{"id":5,"ok":true,"result":{"pong":true}}"#).is_err());
    }

    #[test]
    fn missing_members_degrade_to_zero() {
        let line = r#"{"id":1,"ok":true,"result":{"meta":{},"counters":{"jobs_met":3}}}"#;
        let ResponseLine::Frame(sample) = parse_response_line(line).expect("parses") else {
            panic!("expected a frame");
        };
        assert_eq!(sample.snapshot.counter(CounterId::JobsMet), 3);
        assert_eq!(sample.snapshot.counter(CounterId::JobsReleased), 0);
        assert_eq!(sample.meta.seq, 0);
        assert_eq!(sample.meta.binary, "");
    }
}
