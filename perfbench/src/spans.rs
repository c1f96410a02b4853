//! In-memory spans recorded around calls into each layer, written out
//! as Chrome trace-event JSON when the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`explore.build`, `bound.game.adaptive`).
    pub name: String,
    /// Start, in ns since the recorder's epoch.
    pub start: u64,
    /// End, in ns since the recorder's epoch (`start` while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The op (request batch, instance or game) the span belongs to.
    pub op: u32,
}

/// Records spans against one epoch.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// ns since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, op: u32) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Total and self time (ns) per span name: a span's self time is
    /// its duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&str, (u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name.as_str()).or_default();
            let d = s.end - s.start;
            e.0 += d;
            e.1 += d.saturating_sub(c);
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span, one track per op, ids and parents in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.op,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let root = s.open("job", None, 0);
        let a = s.open("a", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(a);
        s.close(root);
        let t = s.self_times();
        let (job_total, job_self) = t["job"];
        let (a_total, _) = t["a"];
        assert_eq!(job_total - a_total, job_self);
        assert!(a_total >= 2_000_000);
        assert!(s.chrome_json().contains("\"parent\":0"));
    }
}
