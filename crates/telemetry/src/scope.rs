//! Ambient (thread-local) sessions and the leveled log facade.
//!
//! The harness runs each experiment cell inside [`Session::install`];
//! everything the cell constructs — simulations, NICs, event queues,
//! fault injectors — captures the ambient [`Tracer`] / [`Metrics`] via
//! [`tracer()`] / [`metrics()`] at construction time. No session
//! installed means both handles are disabled and instrumentation costs
//! one branch.

use std::cell::RefCell;

use crate::event::{ActorId, ArgValue, Event, Level, Target, TargetSet};
use crate::metrics::{Metrics, MetricsReport};
use crate::tracer::Tracer;

#[derive(Clone, Default)]
struct Ambient {
    tracer: Tracer,
    metrics: Metrics,
}

thread_local! {
    static CURRENT: RefCell<Ambient> = RefCell::new(Ambient::default());
}

/// The tracer installed on this thread (disabled when none is).
pub fn tracer() -> Tracer {
    CURRENT.with(|c| c.borrow().tracer.clone())
}

/// The metrics handle installed on this thread (disabled when none is).
pub fn metrics() -> Metrics {
    CURRENT.with(|c| c.borrow().metrics.clone())
}

/// Installs `tracer`/`metrics` as this thread's ambient session until
/// the returned guard drops (restoring whatever was installed before —
/// sessions nest).
#[must_use = "the session uninstalls when the guard drops"]
pub fn install(tracer: Tracer, metrics: Metrics) -> Installed {
    let next = Ambient { tracer, metrics };
    let prev = CURRENT.with(|c| c.replace(next));
    Installed { prev }
}

/// Guard returned by [`install`]; restores the previous ambient session
/// on drop. `!Send` by construction (holds thread-local state).
pub struct Installed {
    prev: Ambient,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        CURRENT.with(|c| c.replace(prev));
    }
}

/// One configured tracing+metrics session: builds the handles, installs
/// them, and harvests a [`SessionReport`] at the end.
pub struct Session {
    tracer: Tracer,
    metrics: Metrics,
}

impl Session {
    /// A session buffering up to `capacity` filtered events in a ring,
    /// with metrics on or off.
    pub fn ring(filter: TargetSet, capacity: usize, with_metrics: bool) -> Session {
        Session {
            tracer: Tracer::ring(filter, capacity),
            metrics: if with_metrics {
                Metrics::new()
            } else {
                Metrics::disabled()
            },
        }
    }

    /// A metrics-only session (no events recorded).
    pub fn metrics_only() -> Session {
        Session {
            tracer: Tracer::disabled(),
            metrics: Metrics::new(),
        }
    }

    /// This session's tracer handle.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// This session's metrics handle.
    pub fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }

    /// Installs the session on the current thread (see [`install`]).
    #[must_use = "the session uninstalls when the guard drops"]
    pub fn install(&self) -> Installed {
        install(self.tracer.clone(), self.metrics.clone())
    }

    /// Harvests buffered events, drop and total counts, and the metrics
    /// report. Works on a session whose cell panicked mid-record: the
    /// ring recovers from poison.
    pub fn finish(self) -> SessionReport {
        let (events, dropped_events) = self.tracer.drain();
        SessionReport {
            total_events: self.tracer.events_recorded(),
            events,
            dropped_events,
            metrics: self.metrics.report(),
        }
    }
}

/// What one session observed.
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// Buffered events in record order (empty for metrics-only sessions).
    pub events: Vec<Event>,
    /// Events evicted from the ring after it filled.
    pub dropped_events: u64,
    /// Events accepted by the filter (buffered + evicted).
    pub total_events: u64,
    /// The metrics snapshot, when the session had metrics enabled.
    pub metrics: Option<MetricsReport>,
}

/// The leveled log facade behind the [`warn!`](crate::warn) /
/// [`info!`](crate::info) macros. Warnings always reach stderr;
/// both levels additionally become `log` instant events when the
/// ambient tracer accepts [`Target::Harness`].
pub fn log(level: Level, message: String) {
    let t = tracer();
    if t.enabled(Target::Harness) {
        t.record(Event {
            target: Target::Harness,
            name: "log",
            actor: ActorId::GLOBAL,
            ts_ps: 0,
            kind: crate::event::EventKind::Instant,
            args: vec![
                ("level", ArgValue::Str(level.name())),
                ("message", ArgValue::Text(message.clone())),
            ],
        });
    }
    if level >= Level::Warn {
        eprintln!("warning: {message}");
    }
}

/// Writes a transient progress line to stderr. Unlike [`log`], progress
/// is never recorded as a trace event: it is wall-clock by nature
/// (rates, ETAs) and would break byte-identical trace determinism if it
/// entered a session.
pub fn progress(message: String) {
    eprintln!("progress: {message}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_nest_and_restore() {
        assert!(!tracer().enabled(Target::Harness));
        let outer = Session::ring(TargetSet::ALL, 64, true);
        {
            let _g1 = outer.install();
            tracer().instant(Target::Harness, "outer", ActorId::GLOBAL, 1, &[]);
            let inner = Session::ring(TargetSet::ALL, 64, false);
            {
                let _g2 = inner.install();
                tracer().instant(Target::Harness, "inner", ActorId::GLOBAL, 2, &[]);
                metrics().counter_add("x", 1);
            }
            let inner_report = inner.finish();
            assert_eq!(inner_report.events.len(), 1);
            assert_eq!(inner_report.events[0].name, "inner");
            assert!(inner_report.metrics.is_none());
            // Outer session restored after the inner guard dropped.
            tracer().instant(Target::Harness, "outer2", ActorId::GLOBAL, 3, &[]);
            metrics().counter_add("outer", 2);
        }
        assert!(!tracer().enabled(Target::Harness));
        let report = outer.finish();
        assert_eq!(
            report.events.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec!["outer", "outer2"]
        );
        let m = report.metrics.expect("metrics");
        assert_eq!(m.counters, vec![("outer".to_string(), 2)]);
        assert_eq!(report.total_events, 2);
    }

    #[test]
    fn info_is_silent_without_session() {
        // Must not panic or print; just exercises the no-session path.
        crate::info!("nothing to see");
    }

    #[test]
    fn log_records_event_under_session() {
        let session = Session::ring(TargetSet::ALL, 8, false);
        {
            let _g = session.install();
            crate::info!("cell {} done", 3);
        }
        let report = session.finish();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].name, "log");
    }
}
