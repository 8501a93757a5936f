//! The traced run's instrumentation, kept entirely on the benchmark's
//! side of the program's public seams: spans and counts are recorded in
//! memory around calls into each layer and written out when the phase
//! ends. Nothing inside the program is instrumented.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use uarch::{Machine, Prediction, Predictor};

/// One timed call at a layer boundary. `parent` is the span that caused
/// it (0 = a root); spans of one unit of work (a corpus pass, a serve
/// request) share `parent` or are that parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span store shared by every thread of a phase.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_tag() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Allocate a span id before the span ends (for parents).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a pre-allocated id.
    pub fn record(&self, id: u64, parent: u64, layer: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            layer,
            thread: thread_tag(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Time `f` as one span of `layer`.
    pub fn time<T>(&self, parent: u64, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, parent, layer, start, Instant::now());
        out
    }

    /// Calls and busy milliseconds of `layer` under `parent`.
    pub fn busy(&self, parent: u64, layer: &str) -> (u64, f64) {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.parent == parent && s.layer == layer)
            .fold((0, 0.0), |(n, ms), s| (n + 1, ms + s.dur_ns as f64 / 1e6))
    }

    /// Write every span as one NDJSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, s.parent, s.layer, s.thread, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// A [`Predictor`] that forwards to `inner` and records one span per
/// call. It keeps the inner predictor's name, so reports (and disk-cache
/// keys) are the same as with the bare predictor.
pub struct Timed {
    pub inner: Box<dyn Predictor>,
    pub layer: &'static str,
    pub tracer: Arc<Tracer>,
    pub parent: u64,
}

impl Predictor for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_reference(&self) -> bool {
        self.inner.is_reference()
    }

    fn predict(&self, machine: &Machine, kernel: &isa::Kernel) -> Prediction {
        self.tracer.time(self.parent, self.layer, || {
            self.inner.predict(machine, kernel)
        })
    }
}
