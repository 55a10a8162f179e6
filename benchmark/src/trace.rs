//! Spans recorded by the traced run, kept in memory and written once at
//! exit. The spans wrap the benchmark's own calls into each layer; spans
//! inside the program are not part of this benchmark.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use vardelay_obs::json::Value;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or step name.
    pub name: String,
    /// Start, nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or calibration point) the span belongs to; every span
    /// of one replayed request carries the same id.
    pub request_id: Option<u64>,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover, ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The instant the tracer's clock counts from.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request_id: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request_id: Option<u64>,
    ) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, request_id)
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a span and returns its result and duration in ns.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request_id: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request_id);
        (out, end - start)
    }

    /// Every span so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with each span's self time: its duration minus
    /// the union of the intervals its children cover.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered.min(total);
        }
        out
    }

    /// Writes the spans as one JSON document.
    ///
    /// # Errors
    ///
    /// The I/O error from creating the directory or writing the file.
    pub fn write(&self, path: &Path, header: Value) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let opt = |v: Option<u64>| v.map_or(Value::Null, Value::from);
                Value::obj()
                    .with("name", s.name.as_str())
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("parent", opt(s.parent.map(|p| p as u64)))
                    .with("request_id", opt(s.request_id))
            })
            .collect();
        let doc = header.with("spans", Value::Arr(spans));
        std::fs::write(path, doc.render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.record("request", 0, 100, None, Some(1));
        t.record("parse", 10, 30, Some(root), Some(1));
        // Overlapping children are counted once.
        t.record("solve", 20, 50, Some(root), Some(1));
        t.record("render", 90, 120, Some(root), Some(1));
        let times = t.self_times();
        let req = times["request"];
        assert_eq!((req.count, req.total_ns), (1, 100));
        // Children cover 10..50 and 90..100 inside the parent.
        assert_eq!(req.self_ns, 50);
        assert_eq!(times["parse"].self_ns, 20);
    }

    #[test]
    fn spans_round_trip_through_the_file() {
        let mut t = Tracer::new();
        let (v, ns) = t.time("work", None, Some(7), || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[0].end_ns - t.spans()[0].start_ns, ns);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-trace");
        let path = dir.join("trace.json");
        t.write(&path, Value::obj().with("workload", "x")).unwrap();
        let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = doc.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("work"));
        assert_eq!(spans[0].get("request_id").and_then(Value::as_u64), Some(7));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
