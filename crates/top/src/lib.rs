//! # mkss-top
//!
//! A live terminal dashboard for the mkss fleet: attach to a running
//! `mkss-serve` daemon (or snapshot an in-process registry) and watch
//! counter rates, the (m,k) distance-to-violation and queue-depth
//! histograms, per-op throughput, and worker-pool utilization refresh in
//! place.
//!
//! The crate splits cleanly into wire, model, and paint:
//!
//! * [`poll`] drives a session — a `watch` subscription streamed by the
//!   daemon;
//! * [`parse`] turns response lines back into [`Sample`]s, tolerating
//!   missing counters (they read as zero);
//! * [`frame`] computes a [`Frame`] **deterministically** from a pair of
//!   samples — rates divide counter deltas by the difference of the
//!   daemon's own `uptime_ms`, so no wall clock enters the model and a
//!   restarted daemon (sequence/uptime went backwards, or a counter
//!   shrank) resets the baseline instead of rendering negative rates;
//! * [`render`] paints a frame as plain text or ANSI — both pure
//!   functions of the frame, pinned by golden-frame tests.
//!
//! Rendering is hand-rolled ANSI, not a TUI dependency; response lines
//! are parsed by the workspace's vendored `serde_json`.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use mkss_obs::{CounterId, Registry};
//! use mkss_top::{Frame, render_plain, Sample};
//!
//! let registry = Arc::new(Registry::new(1));
//! registry.handle_at(0).incr(CounterId::JobsMet, 5);
//! let before = Sample::from_registry(&registry, 1000, 0);
//! registry.handle_at(0).incr(CounterId::JobsMet, 3);
//! let after = Sample::from_registry(&registry, 2000, 1);
//!
//! let frame = Frame::build(Some(&before), &after);
//! let text = render_plain(&frame);
//! assert!(text.contains("jobs_met"));
//! ```

#![forbid(unsafe_code)]

pub mod frame;
pub mod parse;
pub mod poll;
pub mod render;

pub use frame::{BucketRow, CounterRow, Frame, HistogramBlock, OpRate, Sample, SampleMeta};
pub use parse::{parse_response_line, ParseError, ResponseLine};
pub use poll::{run_top, Target, TopConfig, TopSummary};
pub use render::{render_ansi, render_plain, ANSI_CLEAR};
