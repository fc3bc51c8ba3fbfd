//! Span collection.
//!
//! A [`TraceCollector`] is shared by a whole run; each execution lane
//! (worker PE or IO thread) takes one [`Tracer`] from it and records
//! spans as it goes. Recording is a short uncontended mutex push — each
//! lane has its own buffer, so tracing does not serialise the runtime.

use crate::span::{LaneId, Span, SpanKind};
use crate::timeline::{LaneTrace, Trace};
use parking_lot::Mutex;
use std::sync::Arc;

/// Per-lane span recorder.
pub struct Tracer {
    lane: LaneId,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// The lane this tracer records for.
    pub fn lane(&self) -> LaneId {
        self.lane
    }

    /// Record a finished span. `start_ns`/`end_ns` come from the run's
    /// clock (the runtime passes its `hetmem` clock values through).
    pub fn record(&self, kind: SpanKind, start_ns: u64, end_ns: u64, tag: u32) {
        self.spans.lock().push(Span {
            kind,
            start_ns,
            end_ns,
            tag,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared collector for one run.
pub struct TraceCollector {
    tracers: Mutex<Vec<Arc<Tracer>>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self {
            tracers: Mutex::new(Vec::new()),
        }
    }

    /// The tracer for `lane`, creating and registering it on first use.
    /// Repeated calls for the same lane return the same tracer, so
    /// different runtime layers (scheduler, strategy hook) can record
    /// onto one shared per-lane timeline.
    pub fn tracer(&self, lane: LaneId) -> Arc<Tracer> {
        let mut tracers = self.tracers.lock();
        if let Some(existing) = tracers.iter().find(|t| t.lane == lane) {
            return Arc::clone(existing);
        }
        let t = Arc::new(Tracer {
            lane,
            spans: Mutex::new(Vec::new()),
        });
        tracers.push(Arc::clone(&t));
        t
    }

    /// Collect every lane's spans into a [`Trace`], sorted by time
    /// within each lane. Tracers keep working afterwards; this drains
    /// recorded spans.
    pub fn finish(&self) -> Trace {
        let tracers = self.tracers.lock();
        let mut lanes: Vec<LaneTrace> = tracers
            .iter()
            .map(|t| {
                let mut spans = std::mem::take(&mut *t.spans.lock());
                spans.sort_unstable_by_key(|s| (s.start_ns, s.end_ns));
                LaneTrace {
                    lane: t.lane(),
                    spans,
                }
            })
            .collect();
        lanes.sort_by_key(|l| l.lane);
        Trace { lanes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_collects_sorted() {
        let c = TraceCollector::new();
        let t0 = c.tracer(LaneId::worker(0));
        let t1 = c.tracer(LaneId::io(0));
        t0.record(SpanKind::Compute, 10, 20, 1);
        t0.record(SpanKind::Idle, 0, 10, 0);
        t1.record(SpanKind::Fetch, 5, 9, 2);
        let trace = c.finish();
        assert_eq!(trace.lanes.len(), 2);
        let worker = &trace.lanes[0];
        assert_eq!(worker.lane, LaneId::worker(0));
        assert_eq!(worker.spans[0].kind, SpanKind::Idle);
        assert_eq!(worker.spans[1].kind, SpanKind::Compute);
        // Lanes sort workers before IO? LaneKind::Worker < LaneKind::Io.
        assert_eq!(trace.lanes[1].lane, LaneId::io(0));
    }

    #[test]
    fn tracer_counts_recorded_spans() {
        let c = TraceCollector::new();
        let t = c.tracer(LaneId::worker(0));
        assert!(t.is_empty());
        t.record(SpanKind::Compute, 0, 100, 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn same_lane_shares_one_tracer() {
        let c = TraceCollector::new();
        let a = c.tracer(LaneId::worker(2));
        let b = c.tracer(LaneId::worker(2));
        assert!(Arc::ptr_eq(&a, &b));
        a.record(SpanKind::Compute, 0, 1, 0);
        b.record(SpanKind::Fetch, 1, 2, 0);
        let trace = c.finish();
        assert_eq!(trace.lanes.len(), 1);
        assert_eq!(trace.lanes[0].spans.len(), 2);
    }

    #[test]
    fn finish_drains_spans() {
        let c = TraceCollector::new();
        let t = c.tracer(LaneId::worker(0));
        t.record(SpanKind::Compute, 0, 1, 0);
        let first = c.finish();
        assert_eq!(first.lanes[0].spans.len(), 1);
        let second = c.finish();
        assert!(second.lanes[0].spans.is_empty());
    }
}
