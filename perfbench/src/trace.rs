//! In-memory span recorder for the traced run.
//!
//! Spans wrap calls into the library's public functions from the
//! benchmark's side; nothing inside the library is instrumented. Every
//! span of one benchmark invocation shares one trace id, carries its own
//! id and its parent's (0 = root), and stores start/end as nanoseconds
//! since the recorder was created. The spans stay in memory until
//! [`Tracer::write`] dumps them once the measurement is over.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use htm_gil_core::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    trace_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(trace_id: u64) -> Self {
        Tracer { trace_id, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// span still open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_s).collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children run sequentially on one thread, so they
    /// never overlap each other).
    pub fn self_times(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Total self time per span name, in seconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Write every span, plus the per-name self-time totals, as one JSON
    /// document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .field("id", u64::from(s.id))
                    .field("parent", u64::from(s.parent))
                    .field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
            })
            .collect::<Vec<_>>();
        let self_s =
            self.self_time_by_name().into_iter().fold(Json::obj(), |o, (name, t)| o.field(name, t));
        let doc = Json::obj()
            .field("schema", "htm-gil-perfbench-trace/v1")
            .field("trace_id", format!("{:016x}", self.trace_id))
            .field("workload", workload)
            .field("seed", seed)
            .field("self_s", self_s)
            .field("spans", Json::Arr(spans));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(7);
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            tr.span("inner", |_| {});
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 1));
        let selfs = tr.self_times();
        assert!(selfs[0] < s[0].dur_s());
        assert!((selfs[0] + selfs[1] + selfs[2] - s[0].dur_s()).abs() < 1e-9);
    }
}
