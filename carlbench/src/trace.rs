//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Spans stay in memory and are written out at exit.

use crate::stats::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request (one timed operation) the span belongs to.
    pub request: u64,
}

/// One thread's span recorder. Spans of one thread never overlap except
/// by nesting, so a span's children cover disjoint parts of it.
pub struct Tracer {
    origin: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: &'static str) -> Self {
        Self {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its duration in ms.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e6
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let request = self.open.last().map_or(0, |&p| self.spans[p].request);
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn thread(&self) -> &'static str {
        self.thread
    }
}

/// Per span name: occurrences and total self time (duration minus the
/// time its child spans cover), in ns.
pub fn self_times(tracers: &[&Tracer]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for tracer in tracers {
        let spans = tracer.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns).saturating_sub(covered);
        }
    }
    out
}

/// Every span of every tracer as a JSON array.
pub fn spans_json(tracers: &[&Tracer]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for tracer in tracers {
        // Span ids are per thread; prefix them so parents stay unambiguous.
        for (id, span) in tracer.spans().iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = span.parent.map_or("null".to_string(), |p| {
                json_str(&format!("{}:{p}", tracer.thread()))
            });
            out.push_str(&format!(
                "{{\"id\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                json_str(&format!("{}:{id}", tracer.thread())),
                json_str(span.name),
                span.start_ns,
                span.end_ns,
                parent,
                span.request
            ));
        }
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), "main");
        let root = t.open("root", 7);
        t.leaf("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(root);
        let times = self_times(&[&t]);
        let (n_root, root_ns) = times["root"];
        let (n_child, child_ns) = times["child"];
        assert_eq!((n_root, n_child), (1, 1));
        assert!(child_ns >= 5_000_000 && root_ns < child_ns);
        assert_eq!(t.spans()[1].request, 7);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
