//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are kept in a `Vec` for the whole run and written out once, at
//! exit. With tracing off, [`Tracer::open`] and [`Tracer::close`] read no
//! clock and store nothing, so the end-to-end run does not pay for them.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::json::{obj, Value};
use crate::record::{InstanceLog, Sink};

/// `parent` of a span nothing caused.
pub const ROOT: u32 = u32::MAX;

/// One timed call. `parent` indexes the span that caused it; spans of one
/// loop iteration share `op`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

pub struct Tracer {
    clock: Arc<Sink>,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(clock: &Arc<Sink>, on: bool) -> Self {
        Tracer {
            clock: clock.clone(),
            on,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_ns = self.clock.now_ns();
        }
    }
}

/// Spans for the structure ops an opaque driver issued, rebuilt from the
/// recorder's samples: the driver's own loop cannot be instrumented from
/// outside, so these have no parent.
pub fn spans_from_logs(logs: &[InstanceLog]) -> Vec<Span> {
    let mut spans = Vec::new();
    for log in logs {
        for (i, s) in log.samples.iter().enumerate() {
            spans.push(Span {
                name: s.kind.span_name(),
                start_ns: s.start_ns,
                end_ns: s.start_ns + u64::from(s.host_ns),
                parent: ROOT,
                op: i as u32,
            });
        }
    }
    spans
}

/// Per span name: calls, total ns, and self ns (a span's duration minus
/// the part of it its child spans cover).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

/// Most spans written to one trace file; a round records one to three per
/// op, and the per-name totals above are computed over all of them first.
const MAX_SPANS_WRITTEN: usize = 200_000;

/// The trace file's content: per-name totals over every span, then the
/// first [`MAX_SPANS_WRITTEN`] spans as `[name, start_ns, end_ns, parent,
/// op]` rows (`parent` is a row index, -1 for none).
pub fn render(meta: Value, spans: &[Span]) -> String {
    let totals = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                obj([
                    ("calls", Value::Num(t.calls as f64)),
                    ("total_ns", Value::Num(t.total_ns as f64)),
                    ("self_ns", Value::Num(t.self_ns as f64)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let mut out = String::from("{\n\"meta\": ");
    out.push_str(&meta.render());
    out.push_str(",\n\"spans_recorded\": ");
    out.push_str(&spans.len().to_string());
    out.push_str(",\n\"totals_by_name\": ");
    out.push_str(&obj(totals).render());
    out.push_str(
        ",\n\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n\"spans\": [\n",
    );
    for (i, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "[\"{}\", {}, {}, {}, {}]",
            s.name, s.start_ns, s.end_ns, parent, s.op
        ));
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        let spans = [
            span("iter", 0, 100, ROOT),
            span("workloads.insert", 10, 40, 0),
            span("core.step_compaction", 50, 90, 0),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["iter"].total_ns, 100);
        assert_eq!(t["iter"].self_ns, 30);
        assert_eq!(t["workloads.insert"].self_ns, 30);
        let text = render(Value::Null, &spans);
        crate::json::parse(&text).expect("trace file is valid JSON");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let clock = Sink::new();
        let mut t = Tracer::new(&clock, false);
        let id = t.open("iter", ROOT, 0);
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
