//! Recorded schedules: the event stream the offline linter replays.
//!
//! A trace is JSONL: one [`TraceMeta`] header line followed by one
//! [`TimedEvent`] per line. Block events are recorded by the
//! [`crate::Checker`] from inside the registry's per-slot lock, so the
//! per-block event order in a trace is the true order; task events
//! (admit/complete) come from the scheduler hook.

use hetmem::BlockId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One schedule event. Node ids follow the runtime convention:
/// node 0 is DDR4 capacity tier, node 1 is HBM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleEvent {
    /// A block was registered with the memory manager.
    Register {
        /// The new block.
        block: BlockId,
        /// Payload size in bytes.
        bytes: usize,
        /// Node it was allocated on.
        node: usize,
    },
    /// A task pinned the block; `refcount` is the value after the
    /// increment.
    AddRef {
        /// The pinned block.
        block: BlockId,
        /// Refcount after the increment.
        refcount: usize,
    },
    /// A task unpinned the block; `refcount` is the value after the
    /// decrement.
    ReleaseRef {
        /// The unpinned block.
        block: BlockId,
        /// Refcount after the decrement.
        refcount: usize,
    },
    /// A migration started. `to == 1` is a fetch into HBM, `to == 0` an
    /// eviction to DDR4.
    MoveBegin {
        /// The migrating block.
        block: BlockId,
        /// Destination node.
        to: usize,
        /// Refcount at move begin.
        refcount: usize,
    },
    /// A migration landed on `node`.
    MoveComplete {
        /// The migrated block.
        block: BlockId,
        /// Node it now resides on.
        node: usize,
    },
    /// A migration failed; the block stayed on `node`.
    MoveAbort {
        /// The block that did not move.
        block: BlockId,
        /// Node it remains on.
        node: usize,
    },
    /// A task was admitted for execution with its declared blocks
    /// resident (or, in degraded mode, served from DDR4).
    Admit {
        /// Admission token.
        token: u64,
        /// Blocks the task declared.
        blocks: Vec<BlockId>,
        /// Whether admission was degraded (deps left in DDR4).
        degraded: bool,
    },
    /// An admitted task finished and released its references.
    Complete {
        /// Admission token.
        token: u64,
    },
    /// A restart boundary: the process checkpointed (or died) and a
    /// fresh runtime restored the image. Block ids and admission
    /// tokens restart from scratch on the far side — the linter resets
    /// its replay state here so one trace can span kill-and-restore.
    Restart,
}

/// A [`ScheduleEvent`] stamped with the runtime clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Nanoseconds on the runtime clock (virtual time under vtsim).
    pub at_ns: u64,
    /// The event.
    pub event: ScheduleEvent,
}

/// Trace header: the memory configuration the schedule ran under.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// HBM capacity in bytes (the linter's occupancy ceiling).
    pub hbm_capacity: usize,
}

impl Default for TraceMeta {
    fn default() -> Self {
        TraceMeta {
            hbm_capacity: usize::MAX,
        }
    }
}

/// An in-memory schedule recording: meta plus an append-only event log.
#[derive(Debug)]
pub struct ScheduleLog {
    meta: TraceMeta,
    events: Mutex<Vec<TimedEvent>>,
}

impl ScheduleLog {
    /// New empty log for a run under `meta`'s memory configuration.
    pub fn new(meta: TraceMeta) -> Self {
        ScheduleLog {
            meta,
            events: Mutex::new(Vec::new()),
        }
    }

    /// The recorded memory configuration.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Append one event at clock time `at_ns`.
    pub fn record(&self, at_ns: u64, event: ScheduleEvent) {
        self.events.lock().push(TimedEvent { at_ns, event });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the recording as an owned trace.
    pub fn snapshot(&self) -> Trace {
        Trace {
            meta: self.meta.clone(),
            events: self.events.lock().clone(),
        }
    }
}

/// An owned, completed trace: what the linter consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Memory configuration header.
    pub meta: TraceMeta,
    /// Events in recorded order.
    pub events: Vec<TimedEvent>,
}

impl Trace {
    /// Serialize as JSONL: meta line, then one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&serde_json::to_string(&self.meta).expect("meta serializes"));
        out.push('\n');
        for ev in &self.events {
            out.push_str(&serde_json::to_string(ev).expect("event serializes"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL trace produced by [`Trace::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let meta_line = lines.next().ok_or("empty trace: missing meta line")?;
        let meta: TraceMeta =
            serde_json::from_str(meta_line).map_err(|e| format!("bad trace meta line: {e}"))?;
        let mut events = Vec::new();
        for (i, line) in lines.enumerate() {
            let ev: TimedEvent = serde_json::from_str(line)
                .map_err(|e| format!("bad trace event on line {}: {e}", i + 2))?;
            events.push(ev);
        }
        Ok(Trace { meta, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let log = ScheduleLog::new(TraceMeta { hbm_capacity: 4096 });
        log.record(
            0,
            ScheduleEvent::Register {
                block: BlockId(0),
                bytes: 1024,
                node: 0,
            },
        );
        log.record(
            5,
            ScheduleEvent::AddRef {
                block: BlockId(0),
                refcount: 1,
            },
        );
        log.record(
            6,
            ScheduleEvent::MoveBegin {
                block: BlockId(0),
                to: 1,
                refcount: 1,
            },
        );
        log.record(
            9,
            ScheduleEvent::MoveComplete {
                block: BlockId(0),
                node: 1,
            },
        );
        log.record(
            10,
            ScheduleEvent::Admit {
                token: 1,
                blocks: vec![BlockId(0)],
                degraded: false,
            },
        );
        log.record(20, ScheduleEvent::Complete { token: 1 });
        log.record(
            21,
            ScheduleEvent::ReleaseRef {
                block: BlockId(0),
                refcount: 0,
            },
        );
        log.snapshot()
    }

    #[test]
    fn jsonl_round_trip() {
        let trace = sample();
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 1 + trace.events.len());
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("not json\n").is_err());
        let trace = sample();
        let mut text = trace.to_jsonl();
        text.push_str("{\"bogus\":1}\n");
        let err = Trace::from_jsonl(&text).unwrap_err();
        assert!(err.contains("bad trace event"), "{err}");
    }

    #[test]
    fn log_records_in_order() {
        let trace = sample();
        let times: Vec<u64> = trace.events.iter().map(|e| e.at_ns).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(trace.events.len(), 7);
    }
}
