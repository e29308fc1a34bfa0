//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions — nothing inside the program is instrumented. Each
//! span carries its name, start, end, parent and the window number it
//! served (the request id). A layer's self time is its spans' durations
//! minus the parts covered by their child spans; the closure ratio is the
//! share of the root spans' time that some layer span accounts for.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Window number of spans that serve no single window.
pub const NO_WINDOW: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub window: u64,
}

/// A span recorder. A disabled recorder reads no clock and stores nothing,
/// so the same replay loop runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Handle of an open span (`usize::MAX` when the recorder is disabled).
#[derive(Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn begin(&mut self, name: &'static str, window: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            window,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop().expect("span end without a matching begin");
        assert_eq!(top, id.0, "spans must close in LIFO order");
        self.spans[top].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, window: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, window);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Self time (ns) and span count per name of the non-root spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.parent.is_some()) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            e.1 += 1;
        }
        out
    }

    /// Total duration of the root spans (ns).
    pub fn root_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Self time of the spans named `name` as a share of the time of the
    /// root spans they run under (the replay or the serve phase).
    pub fn share(&self, name: &str, self_ns: u64) -> f64 {
        let Some(mut i) = self.spans.iter().position(|s| s.name == name) else { return 0.0 };
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        let root = self.spans[i].name;
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self_ns as f64 / total.max(1) as f64
    }

    /// Share of root time covered by non-root spans.
    pub fn closure(&self) -> f64 {
        let roots = self.root_ns();
        if roots == 0 {
            return 0.0;
        }
        let child_ns = self.child_ns();
        let covered: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| child_ns[i].min(s.end_ns - s.start_ns))
            .sum();
        covered as f64 / roots as f64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(f);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let window =
                if s.window == NO_WINDOW { "null".to_string() } else { s.window.to_string() };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"window\":{window}}}",
                s.name, s.start_ns, s.end_ns
            )
            .map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())
    }
}
