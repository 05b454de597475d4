//! In-memory spans the benchmark records around its own calls into the
//! library: name, start, end and parent, with the workload as the root.
//! They stay in memory until the run ends; the traced run writes them out.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A tree of timed spans under one root.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Starts recording, with the root span `root` open.
    pub fn new(root: &'static str) -> Self {
        let mut spans = Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() };
        spans.open(root);
        spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span called `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Closes every open span, the root included.
    pub fn finish(&mut self) {
        while !self.open.is_empty() {
            self.close();
        }
    }

    /// Durations in seconds of the spans called `name`, in start order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Per span name, in order of first appearance: how many spans, and
    /// their summed self time in seconds (duration minus the time their
    /// child spans cover).
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let self_s = (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e9;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += self_s;
                }
                None => rows.push((s.name, 1, self_s)),
            }
        }
        rows
    }

    /// The root's self time (wall time no child span covers) as a share of
    /// the root's duration.
    pub fn residual_share(&self) -> f64 {
        let root = &self.spans[0];
        let wall = (root.end_ns - root.start_ns) as f64;
        let covered: u64 =
            self.spans.iter().filter(|s| s.parent == Some(0)).map(|s| s.end_ns - s.start_ns).sum();
        if wall == 0.0 {
            0.0
        } else {
            (wall - covered as f64) / wall
        }
    }

    /// The spans as one JSON document (span names are plain identifiers,
    /// so no string escaping is needed).
    pub fn to_json(&self, seed: u64) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": [\n  {}\n]}}\n",
            self.spans[0].name,
            rows.join(",\n  ")
        )
    }
}
