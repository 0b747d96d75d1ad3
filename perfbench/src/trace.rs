//! In-memory span recording for the traced run.
//!
//! Each worker thread owns a [`Tracer`]; spans are appended to its buffer
//! (nothing is written while the benchmark runs) and merged when a pass
//! ends. A disabled tracer records nothing, so the untraced paths that
//! share code with the traced ones pay one branch per span boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, `<module>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Job the span belongs to (index in the pass's job list).
    pub job: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
}

impl Tracer {
    /// A tracer that records spans timed against `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Tags the spans opened from now on with `job`.
    pub fn set_job(&mut self, job: usize) {
        self.job = job as u32;
    }

    fn now_ns(&self, epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let Some(epoch) = self.epoch else {
            return Open(None);
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(epoch),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` (which must be the innermost open one).
    pub fn exit(&mut self, open: Open) {
        let (Some(epoch), Some(idx)) = (self.epoch, open.0) else {
            return;
        };
        let end = self.now_ns(epoch);
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost-first");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans, leaving the buffer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "take() with open spans");
        std::mem::take(&mut self.spans)
    }
}

/// Self time per span name: span durations minus the time their child
/// spans cover. Children of a span run on the same thread one after
/// another, so the time they cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns - span.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        *out.entry(span.name).or_default() += span.end_ns - span.start_ns - children;
    }
    out
}

/// Writes spans as JSON lines (`thread` tells the per-thread buffers
/// apart; `parent` indexes into the same thread's spans).
pub fn write_spans(out: &mut impl Write, threads: &[Vec<Span>]) -> std::io::Result<()> {
    for (thread, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"thread":{thread},"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"job":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("a", 50, 60, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], 100 - 20 - 50);
        assert_eq!(t["b"], 50 - 10);
        assert_eq!(t["a"], 20 + 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(t.take().is_empty());
    }
}
