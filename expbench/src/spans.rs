//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing is written out until the run ends, and a disabled
//! tracer only runs the closure, so the untraced pass pays one branch
//! per call.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// A stack of open spans plus every closed one of the current batch.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    /// Seconds of self time per span name, summed over all spans
    /// recorded since the last call, which clears them. A span's self
    /// time is its duration minus the time its children cover; children
    /// of one span run one after another, so their durations add up.
    pub fn take_self_times(&mut self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start).as_secs_f64() - covered;
        }
        self.spans.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = tr.take_self_times();
        assert!(t["inner"] >= 0.02);
        assert!(t["outer"] >= 0.005 && t["outer"] < 0.02, "{t:?}");
        assert!(tr.take_self_times().is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.take_self_times().is_empty());
    }
}
