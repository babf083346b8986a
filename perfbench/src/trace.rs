//! Spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. With tracing off every method is a
//! no-op, so the measured code path is the same in both modes. Spans stay
//! in memory until the run ends; [`Trace`] merges the tracers of all
//! threads, derives self times, and writes the spans out as JSON lines.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the run's epoch;
/// `parent` indexes the same tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[i].end_ns = end;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; records nothing
    /// unless `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&self, request: u64) {
        self.request.set(request);
    }

    fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.borrow().last().copied(),
            request: self.request.get(),
        });
        spans.len() - 1
    }

    /// Opens a span, child of the innermost open one; it closes when the
    /// guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let now = self.now_ns();
        let i = self.push(name, now, now);
        self.stack.borrow_mut().push(i);
        SpanGuard {
            tracer: self,
            index: Some(i),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Records a closed span measured elsewhere (the serve layer reports
    /// its queue, compile and verify durations), as a child of the
    /// innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, duration: Duration) {
        if self.on {
            let start_ns = self.ns_at(start);
            self.push(name, start_ns, start_ns + duration.as_nanos() as u64);
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of each span name, summed, with the number of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub self_ns: u64,
    pub count: u64,
}

impl LayerTime {
    /// Mean self time per span, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// The spans of every thread of one run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends one tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, tracer: Tracer) {
        let base = self.spans.len();
        self.spans
            .extend(tracer.into_spans().into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover (children of one span never overlap here, since
    /// every tracer is single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.self_ns += s.duration_ns().saturating_sub(children);
            e.count += 1;
        }
        out
    }

    /// Writes one JSON object per span (`id`, `name`, `start_us`,
    /// `end_us`, `parent`, `request`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"request\": {}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.request
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let t = Tracer::new(true, epoch);
        {
            let _outer = t.span("outer");
            t.record("inner", epoch, Duration::from_millis(0));
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut trace = Trace::default();
        trace.absorb(t);
        let times = trace.self_times();
        assert_eq!(times["outer"].count, 1);
        assert_eq!(times["inner"].count, 1);
        assert!(times["outer"].mean_ms() >= 2.0);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        t.time("x", || ());
        t.record("y", Instant::now(), Duration::from_millis(1));
        assert!(t.into_spans().is_empty());
    }
}
