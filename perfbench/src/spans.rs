//! Harness-side spans for the traced run.
//!
//! A span is recorded around each call the harness makes into a layer:
//! name, start, end, parent span name, and an id shared by every span of
//! one frame (or one replay pass). Spans stay in memory and are written
//! at the end as Chrome trace-event JSON. Nothing is recorded inside the
//! program under test.

use std::collections::BTreeMap;
use std::time::Instant;

use swag_metrics::json::Json;

/// Most spans one log keeps; later spans are counted but dropped, so a
/// long traced run cannot grow memory without bound.
const MAX_SPANS: usize = 1 << 18;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Name of the enclosing span with the same id ("" for a root).
    pub parent: &'static str,
    pub id: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span log; a disabled log records nothing.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    tid: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant, enabled: bool, tid: u32) -> Self {
        SpanLog {
            epoch,
            enabled,
            tid,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A log for another thread, sharing this one's epoch and switch.
    pub fn sibling(&self, tid: u32) -> SpanLog {
        SpanLog::new(self.epoch, self.enabled, tid)
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            parent,
            id,
            tid: self.tid,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Fold another thread's log into this one.
    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        for s in other.spans {
            if self.spans.len() == MAX_SPANS {
                self.dropped += 1;
            } else {
                self.spans.push(s);
            }
        }
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is
    /// the span's duration minus the time its children (spans naming it
    /// as parent, with the same id) cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for s in &self.spans {
            if !s.parent.is_empty() {
                *child_ns.entry((s.parent, s.id)).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let children = child_ns.remove(&(s.name, s.id)).unwrap_or(0);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// The log as a Chrome trace-event document.
    pub fn chrome_json(&self, workload: &str) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let mut events = vec![Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(0)),
            (
                "args",
                Json::obj(vec![("name", Json::str(format!("perfbench {workload}")))]),
            ),
        ])];
        for s in &self.spans {
            events.push(Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str("perfbench")),
                ("ph", Json::str("X")),
                ("ts", us(s.start_ns)),
                ("dur", us(s.end_ns - s.start_ns)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(s.tid as u64)),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::UInt(s.id)),
                        ("parent", Json::str(s.parent)),
                    ]),
                ),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj(vec![
                    ("workload", Json::str(workload)),
                    ("spans", Json::UInt(self.spans.len() as u64)),
                    ("dropped", Json::UInt(self.dropped)),
                ]),
            ),
        ])
    }
}
