//! Exact-byte goldens for both [`MetricsDoc`] renderings.
//!
//! `golden/*.json` hold the pretty (`to_json`) and compact
//! (`to_json_line`) output of three documents: a populated sample, one
//! exercising string escapes and non-finite stages, and an empty one.
//! Both renderings feed downstream parsers (`scripts/ci.sh`'s schema
//! check, the daemon's wire protocol), so their bytes must not drift.

use std::sync::Arc;

use mkss_obs::{CounterId, HistogramId, MetricsDoc, MetricsSnapshot, Recorder, Registry};

fn sample_doc() -> MetricsDoc {
    let registry = Arc::new(Registry::new(2));
    let h = registry.handle_at(0);
    h.incr(CounterId::JobsReleased, 10);
    h.incr(CounterId::BackupsCanceled, 3);
    h.observe(HistogramId::MkDistance, 1);
    h.observe(HistogramId::BackupDelayMs, 99);
    let mut doc = MetricsDoc::new(registry.snapshot());
    doc.push_meta("binary", "test");
    doc.push_stage("simulate_ms", 12.5);
    doc
}

fn escapes_doc() -> MetricsDoc {
    let mut doc = MetricsDoc::new(MetricsSnapshot::empty());
    doc.push_meta("quote\"back\\slash", "line\nbreak\ttab\u{1}");
    doc.push_stage("bad", f64::NAN);
    doc.push_stage("inf", f64::INFINITY);
    doc
}

fn check(doc: &MetricsDoc, pretty: &str, line: &str) {
    assert_eq!(doc.to_json(), pretty, "pretty rendering drifted");
    assert_eq!(doc.to_json_line(), line, "compact rendering drifted");
}

#[test]
fn sample_doc_renders_the_golden_bytes() {
    check(
        &sample_doc(),
        include_str!("golden/sample.pretty.json"),
        include_str!("golden/sample.line.json"),
    );
}

#[test]
fn escapes_and_non_finite_stages_render_the_golden_bytes() {
    check(
        &escapes_doc(),
        include_str!("golden/escapes.pretty.json"),
        include_str!("golden/escapes.line.json"),
    );
}

#[test]
fn empty_doc_renders_the_golden_bytes() {
    check(
        &MetricsDoc::new(MetricsSnapshot::empty()),
        include_str!("golden/empty.pretty.json"),
        include_str!("golden/empty.line.json"),
    );
}
