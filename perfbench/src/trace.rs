//! In-memory spans around the layer calls of a traced run.
//!
//! A span has a name, a start and an end, an optional parent, and the id
//! of the op it belongs to (every span of one op shares it). Spans stay in
//! memory until the run ends, then go out as JSON lines; nothing is
//! written while ops are timed.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The op this span belongs to.
    pub op: u64,
    /// Layer call name (`compiler.compile`, `sweep.persist`, …).
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Each thread owns one; [`Tracer::absorb`] merges them
/// at the end of a run.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts at `origin` (share one origin
    /// across threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing and never reads the clock: the
    /// untraced path runs the same code with this.
    pub fn disabled() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `idx`.
    pub fn end(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(op, name, parent);
        let out = f();
        self.end(idx);
        out
    }

    /// Record a span measured elsewhere (a server-side span returned on
    /// the wire), placed at the start of `parent`.
    pub fn record(&mut self, op: u64, name: &'static str, parent: usize, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            op,
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Move every span of `other` into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total ns and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let d = self.durations(name);
        (d.iter().sum(), d.len())
    }

    /// Total ns of the spans named `name` that belong to an op (op id
    /// other than 0, which set-up spans use).
    pub fn total_in_ops(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op != 0)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }

    /// Mean duration of the spans named `name`, in ns (0 when none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (sum, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Write every span as one JSON object per line; `id` is the span's
    /// index, which `parent` refers to.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"op":{},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
