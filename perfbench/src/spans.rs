//! In-memory span recorder for the traced run, written out at the end as
//! Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! Spans come only from the benchmark's own code, around its calls into
//! the simulator: set-up, each `run`, each replay-cell batch and each
//! figure harness. Nothing inside the simulator is instrumented.

use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// Records nested spans of one benchmark process. A disabled recorder
/// (the untraced run) keeps nothing and costs one branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned (and any left open inside it).
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured span of `elapsed_ns` ending now, nested
    /// in the innermost open span. Used by the replay cells, which time a
    /// batch themselves.
    pub fn record(&mut self, name: &str, elapsed_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: end_ns.saturating_sub(elapsed_ns),
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per span, timestamps in microseconds from the start of the
    /// process, the workload as the thread id, and the span's own id and
    /// its parent's id under `args`.
    pub fn to_chrome_json(&self, workload: &str, workload_id: u32) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        out.push_str(&format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {workload_id}, \"args\": {{\"name\": {}}}}}",
            crate::json_string(workload)
        ));
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                ",\n{{\"name\": {}, \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": {workload_id}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \"workload\": {}}}}}",
                crate::json_string(&span.name),
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                crate::json_string(workload),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
