//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its calls into the
//! program's public functions (no span lives inside the program). Each
//! span has a name, a start and an end, the span that caused it and,
//! for serving, the request it belongs to. At exit the spans are
//! written as Chrome trace-event JSON, which Perfetto opens.

use crate::stats::{esc, median};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<SpanId>,
    request: Option<u64>,
}

impl Span {
    fn dur(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records spans when enabled; when disabled every call only runs the
/// wrapped closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a finished span; returns its id (`None` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("tracer lock poisoned by a panic");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span that children can name as parent before it ends;
    /// close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let mut spans = self.spans.lock().expect("tracer lock poisoned by a panic");
            spans[id].end = Instant::now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), parent, None);
        r
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned by a panic");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Median duration of the spans named `name`, seconds.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// Total and self time per span name, seconds. A span's self time
    /// is its duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.lock().expect("tracer lock poisoned by a panic");
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let mut iv: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort();
            let mut covered = 0.0;
            let mut cur: Option<(Instant, Instant)> = None;
            for (a, b) in iv {
                match &mut cur {
                    Some((_, e)) if a <= *e => *e = (*e).max(b),
                    _ => {
                        if let Some((ca, ce)) = cur {
                            covered += (ce - ca).as_secs_f64();
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, ce)) = cur {
                covered += (ce - ca).as_secs_f64();
            }
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur();
            e.2 += s.dur() - covered;
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON (complete events,
    /// microseconds since the tracer was created).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("tracer lock poisoned by a panic");
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, sp) in spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let ts = (sp.start - self.epoch).as_secs_f64() * 1e6;
            let dur = sp.dur() * 1e6;
            // one track per request, so concurrent requests do not
            // overlap on the driver's track
            let tid = sp.request.map_or(0, |r| r + 1);
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"args\": {{\"id\": {i}",
                esc(sp.name)
            );
            if let Some(p) = sp.parent {
                let _ = write!(s, ", \"parent\": {p}");
            }
            if let Some(r) = sp.request {
                let _ = write!(s, ", \"request\": {r}");
            }
            s.push_str("}}");
        }
        s.push_str("\n]}\n");
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let p = t.record("parent", ms(0), ms(100), None, None);
        t.record("child", ms(10), ms(40), p, None);
        t.record("child", ms(30), ms(50), p, None);
        t.record("child", ms(90), ms(120), p, None);
        let st = t.self_times();
        let (n, total, own) = st["parent"];
        assert_eq!(n, 1);
        assert!((total - 0.100).abs() < 1e-9);
        // covered: 10..50 and 90..100
        assert!((own - 0.050).abs() < 1e-9, "self {own}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 7), 7);
        assert!(t.open("y", None).is_none());
        assert!(t.durations("x").is_empty());
    }
}
