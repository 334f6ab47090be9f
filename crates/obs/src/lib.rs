//! Zero-dependency observability for the (m,k) standby-sparing simulator.
//!
//! This crate is the sink side of the engine event hooks: a simulation
//! run counts its events (counter increments, histogram samples) into a
//! plain per-run tally, a [`MetricsSnapshot`], and hands it to the
//! [`Recorder`] trait once when the run finishes; recorders that want the
//! structured event stream (the flight recorder, `MKSS_LOG=events`) also
//! receive every [`EngineEvent`]. This crate aggregates tallies in a
//! sharded, contention-free [`Registry`], exports them as a human table
//! or a hand-rolled JSON document ([`MetricsDoc`]), and serializes live
//! progress lines through a single-writer [`Reporter`].
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when off.** The hot path carries an
//!    `Option<Arc<dyn Recorder>>`; `None` costs one branch per histogram
//!    or event site and allocates nothing (the zero-alloc
//!    counting-allocator test in `mkss-sim` runs with the recorder absent
//!    and must keep passing unchanged). Counters are plain array adds on
//!    every run, since the engine's report is read from them. With a
//!    counting-only recorder attached, a histogram site is a plain array
//!    add too and the run ends with one [`Recorder::absorb`].
//!    [`NoopRecorder`] exists for callers that want a recorder *object*
//!    with no effect.
//! 2. **Deterministic aggregation.** Counters are commutative sums over
//!    relaxed atomics; [`Registry::snapshot`] folds shards in catalog order,
//!    so totals are identical for any `--jobs` value and any interleaving.
//! 3. **Zero external dependencies.** The workspace builds offline; like
//!    `mkss_core::par`, everything here is std-only — including the JSON
//!    writer.
//!
//! The event catalog ([`CounterId`], [`HistogramId`]) is a closed enum
//! rather than string keys so that emit sites are O(1) array indexing and
//! typos are compile errors.

#![forbid(unsafe_code)]

mod event;
mod export;
mod log;
mod recorder;
mod registry;
mod reporter;
mod span;
mod trace;

pub use event::{CounterId, HistogramId, Percentile};
pub use export::{metrics_doc, MetricsDoc};
pub use log::{LogLevel, ParseLogLevelError, LOG_ENV_VAR};
pub use recorder::{EchoRecorder, NoopRecorder, Recorder, RequestId, ScopedRecorder};
pub use registry::{MetricsSnapshot, RecorderHandle, Registry};
pub use reporter::Reporter;
pub use span::Stopwatch;
pub use trace::{
    chrome_trace, overflow_note, segment_parts, segment_payload, trace_json_fragment,
    violation_reports, violation_reports_on, CopyRole, EngineEvent, TraceBuffer, TraceEvent,
    TraceKind, TraceRecorder, ViolationReport, DEFAULT_TRACE_CAPACITY, PROC_NONE,
};
