//! The [`Recorder`] trait — the only thing emit sites know about — and the
//! two trivial implementations that bracket the cost spectrum.

use std::sync::Arc;

use crate::event::{CounterId, HistogramId};
use crate::registry::{MetricsSnapshot, RecorderHandle};
use crate::reporter::Reporter;
use crate::trace::EngineEvent;

/// Sink for engine and harness events.
///
/// A simulation run counts into a plain per-run tally and hands it over
/// once, in [`Recorder::absorb`], when the run finishes; structured
/// events reach [`Recorder::event`] one by one, but only on recorders
/// whose [`Recorder::wants_events`] is true. So a counting-only recorder
/// costs the engine nothing per event beyond a few plain array adds.
///
/// Implementations must be cheap and non-blocking. They must also be
/// oblivious — a recorder observes the simulation but never feeds back
/// into it, which is what makes recorder-on and recorder-off runs
/// byte-identical.
pub trait Recorder: Send + Sync {
    /// Fold one finished run's counter and histogram tally in.
    fn absorb(&self, tally: &MetricsSnapshot);

    /// True when this recorder wants the structured event stream. The
    /// engine reads it once per run; when it is false, [`Recorder::event`]
    /// is never called.
    #[inline]
    fn wants_events(&self) -> bool {
        false
    }

    /// Receive one structured engine event — the flight-recorder feed.
    ///
    /// Defaults to a no-op; only event-wanting sinks like
    /// [`TraceRecorder`](crate::TraceRecorder) override it.
    #[inline]
    fn event(&self, _event: &EngineEvent) {}
}

/// A recorder that discards everything.
///
/// With this recorder attached a run pays its histogram adds and one
/// empty virtual call at the end; with no recorder attached at all
/// (`None`), each histogram or event site reduces to one branch.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn absorb(&self, _tally: &MetricsSnapshot) {}
}

/// Identifier of one request served by a long-running process, used to
/// scope recorded events to the request that caused them.
///
/// The id itself is an opaque sequence number minted by the server (not
/// the client-supplied correlation id, which is echoed in the protocol
/// instead); its only job is to name the scope in logs and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// A recorder that scopes a run to one request: every tally is folded
/// into a request-local sink (typically a single-shard [`Registry`]
/// handle whose snapshot becomes the response's per-request metrics)
/// **and** into an optional process-global sink.
///
/// Because the same tally lands in both sinks, per-request snapshots sum
/// exactly to the global totals — the separability invariant the
/// `mkss-serve` loadgen differential asserts. Like every recorder, it is
/// oblivious: responses are byte-identical whether the global tee is
/// attached or not.
///
/// [`Registry`]: crate::Registry
pub struct ScopedRecorder {
    request: RequestId,
    local: Arc<dyn Recorder>,
    global: Option<Arc<dyn Recorder>>,
    /// Whether either sink wants structured events, read once at
    /// construction.
    events: bool,
}

impl ScopedRecorder {
    /// Scope `local` to `request`, teeing every tally into `global` too.
    pub fn new(
        request: RequestId,
        local: Arc<dyn Recorder>,
        global: Option<Arc<dyn Recorder>>,
    ) -> ScopedRecorder {
        ScopedRecorder {
            request,
            events: local.wants_events()
                || global.as_ref().is_some_and(|global| global.wants_events()),
            local,
            global,
        }
    }

    /// The request this recorder is scoped to.
    pub fn request(&self) -> RequestId {
        self.request
    }
}

impl std::fmt::Debug for ScopedRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedRecorder")
            .field("request", &self.request)
            .field("global", &self.global.is_some())
            .finish_non_exhaustive()
    }
}

impl Recorder for ScopedRecorder {
    fn absorb(&self, tally: &MetricsSnapshot) {
        self.local.absorb(tally);
        if let Some(global) = &self.global {
            global.absorb(tally);
        }
    }

    #[inline]
    fn wants_events(&self) -> bool {
        self.events
    }

    fn event(&self, event: &EngineEvent) {
        self.local.event(event);
        if let Some(global) = &self.global {
            global.event(event);
        }
    }
}

/// A recorder that aggregates into a registry shard *and* narrates each
/// run's counts and every structured event as lines on a [`Reporter`] —
/// the `MKSS_LOG=events` backend. Strictly a debugging aid: it is far
/// too chatty for the bench harness and is only wired into the CLI and
/// examples.
#[derive(Debug)]
pub struct EchoRecorder {
    handle: RecorderHandle,
    reporter: Arc<Reporter>,
}

impl EchoRecorder {
    /// Wrap a registry handle so every run is also narrated to `reporter`.
    pub fn new(handle: RecorderHandle, reporter: Arc<Reporter>) -> Self {
        EchoRecorder { handle, reporter }
    }
}

impl Recorder for EchoRecorder {
    /// Narrates the run's non-zero totals, one `event <name> +N` line per
    /// counter and per histogram (N samples), in catalog order.
    fn absorb(&self, tally: &MetricsSnapshot) {
        self.handle.absorb(tally);
        for counter in CounterId::ALL {
            let by = tally.counter(counter);
            if by != 0 {
                self.reporter
                    .line(&format!("event {} +{by}", counter.name()));
            }
        }
        for histogram in HistogramId::ALL {
            let samples: u64 = tally.histogram(histogram).iter().sum();
            if samples != 0 {
                self.reporter
                    .line(&format!("event {} +{samples}", histogram.name()));
            }
        }
    }

    #[inline]
    fn wants_events(&self) -> bool {
        true
    }

    fn event(&self, event: &EngineEvent) {
        self.reporter.line(&format!(
            "event t={}us {} task={} job={} copy={} payload={}",
            event.at_us,
            event.kind.name(),
            event.task,
            event.job,
            event.copy.name(),
            event.payload
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn tally() -> MetricsSnapshot {
        let mut tally = MetricsSnapshot::empty();
        tally.incr(CounterId::JobsMet, 4);
        tally.observe(HistogramId::MkDistance, 2);
        tally
    }

    #[test]
    fn noop_recorder_is_callable_through_dyn() {
        let r: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        r.absorb(&tally());
        assert!(!r.wants_events());
    }

    #[test]
    fn scoped_recorder_tees_into_both_sinks() {
        let local = Arc::new(Registry::new(1));
        let global = Arc::new(Registry::new(1));
        let scoped = ScopedRecorder::new(
            RequestId(7),
            Arc::new(local.handle_at(0)),
            Some(Arc::new(global.handle_at(0))),
        );
        scoped.absorb(&tally());
        assert_eq!(scoped.request(), RequestId(7));
        assert_eq!(scoped.request().to_string(), "req-7");
        assert!(!scoped.wants_events(), "registry sinks want no events");
        for registry in [&local, &global] {
            let snap = registry.snapshot();
            assert_eq!(snap.counter(CounterId::JobsMet), 4);
            assert_eq!(snap.histogram(HistogramId::MkDistance)[2], 1);
        }
    }

    #[test]
    fn scoped_recorder_without_global_only_writes_locally() {
        let local = Arc::new(Registry::new(1));
        let scoped = ScopedRecorder::new(RequestId(0), Arc::new(local.handle_at(0)), None);
        scoped.absorb(&tally());
        assert_eq!(local.snapshot(), tally());
    }

    #[test]
    fn echo_recorder_aggregates_and_narrates() {
        let registry = Arc::new(Registry::new(1));
        let sink: Vec<u8> = Vec::new();
        let reporter = Arc::new(Reporter::with_sink(Box::new(sink)));
        let echo = EchoRecorder::new(registry.handle_at(0), Arc::clone(&reporter));
        let mut tally = MetricsSnapshot::empty();
        tally.incr(CounterId::BackupsCanceled, 1);
        tally.observe(HistogramId::BackupDelayMs, 4);
        echo.absorb(&tally);
        assert!(echo.wants_events());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterId::BackupsCanceled), 1);
        assert_eq!(
            snap.histogram(HistogramId::BackupDelayMs)
                .iter()
                .sum::<u64>(),
            1
        );
    }
}
