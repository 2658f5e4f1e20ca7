//! The benchmark's own span recorder.  Every call the benchmark makes into a
//! layer goes through [`Tracer::time`], which always returns the elapsed
//! host time and — only in the traced run — also records a span (name,
//! start, end, parent, workload).  Spans stay in memory and are written once
//! at exit in Chrome trace format; nothing here is visible to the engine.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Host time a span name accounts for across the run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Times calls; records spans when switched on.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that only times (the end-to-end repetitions).
    pub fn off(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that also records spans (the traced repetition).
    pub fn on(workload: &'static str) -> Self {
        Tracer {
            recording: true,
            ..Tracer::off(workload)
        }
    }

    /// Runs `f`, returning its result and the host seconds it took.  `f`
    /// receives the tracer back so calls made inside nest as child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.recording {
            let started = Instant::now();
            let out = f(self);
            return (out, started.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals with self time (span minus its direct children).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, microsecond timestamps, the parent span's
    /// index and the workload id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::obj([
                    ("name", Json::str(span.name)),
                    ("cat", Json::str("hostbench")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("workload", Json::str(self.workload)),
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let started = Instant::now();
        while started.elapsed().as_micros() < micros as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::on("unit");
        let (_, outer_s) = tracer.time("outer", |t| {
            spin(200);
            t.time("inner", |_| spin(300));
            t.time("inner", |_| spin(300));
        });
        assert!(outer_s >= 800e-6);
        let totals = tracer.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 200_000);

        let doc = Json::parse(&tracer.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        let parent = |i: usize| {
            events[i]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .clone()
        };
        assert_eq!(parent(0), Json::Null);
        assert_eq!(parent(1), Json::Num(0.0));
        assert_eq!(parent(2), Json::Num(0.0));
    }

    #[test]
    fn an_off_tracer_times_without_recording() {
        let mut tracer = Tracer::off("unit");
        let (value, seconds) = tracer.time("work", |_| {
            spin(100);
            7
        });
        assert_eq!(value, 7);
        assert!(seconds >= 100e-6);
        assert_eq!(tracer.len(), 0);
    }
}
