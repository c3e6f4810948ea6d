//! In-memory spans recorded around calls into the crates, from outside.
//!
//! A span has a name, a start and end, the span that caused it and the id
//! of the design or job it belongs to. Spans stay in memory until the run
//! ends, then go to a tab-separated file. Self time is a span's duration
//! minus the part of it its children cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub id: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span; `f` receives the span's id so that calls it
    /// makes can record children.
    pub fn span<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let index = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span { name, start: self.now(), end: f64::NAN, parent, id });
            spans.len() - 1
        };
        let result = f(index);
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[index].end = end;
        result
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (index, span) in self.spans().iter().enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{index}\t{}\t{:.0}\t{:.0}\t{parent}\t{}",
                span.name,
                span.start * 1e9,
                span.end * 1e9,
                span.id
            )?;
        }
        out.flush()
    }
}

/// Where a caller that may be traced records its stages: the recorder, the
/// parent span and the design or job id. `None` on untraced runs.
pub type Tracer<'a> = Option<(&'a Recorder, SpanId, u64)>;

/// Runs `f`, inside a child span of the tracer's parent when tracing.
pub fn stage<R>(tracer: Tracer<'_>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some((recorder, parent, id)) => recorder.span(name, id, Some(parent), |_| f()),
        None => f(),
    }
}

/// Queries over a finished span list.
pub struct Spans {
    spans: Vec<Span>,
    children: HashMap<SpanId, Vec<(f64, f64)>>,
}

impl Spans {
    pub fn new(spans: Vec<Span>) -> Spans {
        let mut children: HashMap<SpanId, Vec<(f64, f64)>> = HashMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                children.entry(parent).or_default().push((span.start, span.end));
            }
        }
        Spans { spans, children }
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of the spans called `name`, in seconds.
    pub fn mean(&self, name: &str) -> f64 {
        self.total(name) / self.count(name).max(1) as f64
    }

    /// Durations of the spans called `name` that have no parent.
    pub fn roots(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_none())
            .map(Span::seconds)
            .collect()
    }

    /// A batch span carries its call count as its id: `(seconds, calls)`
    /// over every span called `name`.
    pub fn batch(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + s.id))
    }

    /// The part of span `parent` that its direct children cover (their
    /// union, so children on parallel threads are not counted twice).
    pub fn covered(&self, parent: SpanId) -> f64 {
        let mut intervals = self.children.get(&parent).cloned().unwrap_or_default();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// What the children of every span called `name` cover, summed.
    pub fn covered_total(&self, name: &str) -> f64 {
        (0..self.spans.len()).filter(|&i| self.spans[i].name == name).map(|i| self.covered(i)).sum()
    }

    /// Share of all spans called `name` that their children account for;
    /// the remainder is self time nobody attributed.
    pub fn attributed_share(&self, name: &str) -> f64 {
        self.covered_total(name) / self.total(name)
    }
}
