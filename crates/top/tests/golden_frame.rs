//! Golden-frame tests: the renderers are pure functions of a [`Frame`],
//! so a hand-built sample pair pins every byte of the output — layout,
//! widths, bar scaling, rate formatting, ANSI escapes.
//!
//! After an intentional layout change, regenerate the goldens with
//! `MKSS_BLESS=1 cargo test -p mkss-top --test golden_frame` and review
//! the diff.

use mkss_obs::{CounterId, HistogramId, MetricsSnapshot};
use mkss_top::{render_ansi, render_plain, Frame, Sample, SampleMeta};

const PLAIN_GOLDEN: &str = include_str!("golden/plain.txt");
const ANSI_GOLDEN: &str = include_str!("golden/ansi.txt");

/// The "before" sample: a daemon two seconds into serving a little work.
fn before() -> Sample {
    let mut snapshot = MetricsSnapshot::empty();
    snapshot.set_counter(CounterId::JobsReleased, 40);
    snapshot.set_counter(CounterId::MandatoryReleased, 30);
    snapshot.set_counter(CounterId::OptionalSelected, 6);
    snapshot.set_counter(CounterId::OptionalSkipped, 4);
    snapshot.set_counter(CounterId::JobsMet, 36);
    snapshot.set_counter(CounterId::JobsMissed, 4);
    snapshot.set_counter(CounterId::ServeRequests, 2);
    snapshot.set_counter(CounterId::ServeOpSimulate, 2);
    snapshot.set_histogram(HistogramId::MkDistance, [2, 6, 12, 8, 4, 0, 0, 0]);
    snapshot.set_histogram(HistogramId::ServeQueueDepth, [2, 0, 0, 0, 0, 0, 0, 0]);
    snapshot.set_histogram(HistogramId::ServeOpLatencyUs, [0, 1, 1, 0, 0, 0, 0, 0]);
    Sample {
        snapshot,
        meta: SampleMeta {
            binary: "mkss-serve".to_string(),
            endpoint: "daemon".to_string(),
            seq: 4,
            uptime_ms: 2000,
            workers: 4,
            busy_workers: 1,
            queue: 64,
            queue_depth: 0,
        },
    }
}

/// The "after" sample: two daemon seconds and a burst of requests later.
fn after() -> Sample {
    let mut snapshot = MetricsSnapshot::empty();
    snapshot.set_counter(CounterId::JobsReleased, 120);
    snapshot.set_counter(CounterId::MandatoryReleased, 90);
    snapshot.set_counter(CounterId::OptionalSelected, 18);
    snapshot.set_counter(CounterId::OptionalSkipped, 12);
    snapshot.set_counter(CounterId::JobsMet, 108);
    snapshot.set_counter(CounterId::JobsMissed, 12);
    snapshot.set_counter(CounterId::MkViolations, 1);
    snapshot.set_counter(CounterId::ServeRequests, 7);
    snapshot.set_counter(CounterId::ServeOpSimulate, 5);
    snapshot.set_counter(CounterId::ServeOpCompare, 1);
    snapshot.set_counter(CounterId::ServeOpSweep, 1);
    snapshot.set_counter(CounterId::ServeWatches, 1);
    snapshot.set_histogram(HistogramId::MkDistance, [6, 18, 36, 24, 12, 0, 0, 0]);
    snapshot.set_histogram(HistogramId::ServeQueueDepth, [6, 1, 0, 0, 0, 0, 0, 0]);
    snapshot.set_histogram(HistogramId::ServeOpLatencyUs, [0, 2, 3, 1, 1, 0, 0, 0]);
    Sample {
        snapshot,
        meta: SampleMeta {
            binary: "mkss-serve".to_string(),
            endpoint: "daemon".to_string(),
            seq: 7,
            uptime_ms: 4000,
            workers: 4,
            busy_workers: 4,
            queue: 64,
            queue_depth: 3,
        },
    }
}

#[expect(
    clippy::expect_used,
    reason = "test helper: an unwritable golden is a test failure"
)]
fn bless(name: &str, text: &str) -> bool {
    if std::env::var_os("MKSS_BLESS").is_none() {
        return false;
    }
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, text).expect("write golden");
    true
}

#[test]
fn golden_plain_frame() {
    let prev = before();
    let now = after();
    let text = render_plain(&Frame::build(Some(&prev), &now));
    if bless("plain.txt", &text) {
        return;
    }
    assert_eq!(text, PLAIN_GOLDEN);
}

#[test]
fn golden_ansi_frame() {
    let prev = before();
    let now = after();
    let text = render_ansi(&Frame::build(Some(&prev), &now));
    if bless("ansi.txt", &text) {
        return;
    }
    assert_eq!(text, ANSI_GOLDEN);
}

/// A baseline-free frame renders totals only: every delta and rate
/// column shows `-`, and no span appears in the header.
#[test]
fn golden_first_frame_has_no_deltas() {
    let text = render_plain(&Frame::build(None, &after()));
    if bless("first_frame.txt", &text) {
        return;
    }
    assert_eq!(text, include_str!("golden/first_frame.txt"));
}
