//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around each
//! call into a layer (set-up calls, the driver call, each probe); the
//! program is not instrumented further. They stay in memory and are
//! written out once, at exit, together with the counters the program
//! already keeps.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
struct Span {
    /// Identifier, unique within the run.
    id: usize,
    /// Enclosing span, if any.
    parent: Option<usize>,
    /// What was called, `layer::call`.
    name: String,
    /// Start and end, ns since the recorder was created.
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans when enabled; costs one branch when not.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Counter snapshots attached to spans: `(span id, name, JSON)`.
    counters: Vec<(usize, String, String)>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            st.spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            st.open.push(id);
            id
        };
        let out = f();
        let mut st = self.state.borrow_mut();
        st.open.pop();
        st.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attach a counter snapshot (already JSON) to the most recently
    /// finished or still open span named `span_name`.
    pub fn counters(&self, span_name: &str, name: &str, json: String) {
        if !self.enabled {
            return;
        }
        let mut st = self.state.borrow_mut();
        let id = st
            .spans
            .iter()
            .rposition(|s| s.name == span_name)
            .unwrap_or(0);
        st.counters.push((id, name.to_string(), json));
    }

    /// Serialise every span and counter snapshot as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let st = self.state.borrow();
        let mut out = format!("{{{header},\"spans\":[");
        for (i, s) in st.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"counters\":[");
        for (i, (id, name, json)) in st.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"span\":{id},\"name\":\"{name}\",\"value\":{json}}}"
            );
        }
        out.push_str("]}");
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_and_serialises() {
        let r = Recorder::new(true);
        r.span("outer", || r.span("inner", || ()));
        r.span("second", || ());
        r.counters("inner", "stats", "{\"x\":1}".into());
        {
            let st = r.state.borrow();
            assert_eq!(st.spans.len(), 3);
            assert_eq!(st.spans[1].parent, Some(0));
            assert_eq!(st.spans[2].parent, None);
            assert!(st.spans.iter().all(|s| s.end_ns >= s.start_ns));
        }
        let json = r.to_json("\"w\":1");
        assert!(json.starts_with("{\"w\":1,\"spans\":[{\"id\":0,\"parent\":null"));
        assert!(json.contains("{\"span\":1,\"name\":\"stats\",\"value\":{\"x\":1}}"));
    }

    #[test]
    fn disabled_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.span("x", || 7), 7);
        r.counters("x", "c", "1".into());
        assert!(r.state.borrow().spans.is_empty());
        assert!(!r.enabled());
    }
}
