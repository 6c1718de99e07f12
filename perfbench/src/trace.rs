//! Spans around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent and request id. Spans go
//! into a buffer allocated once up front; when it is full, further spans
//! are counted as dropped rather than growing the buffer mid-run. The
//! buffer is written out when the run ends. With tracing off, [`Tracer`]
//! calls straight through and reads no clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id for per-request spans, 0 otherwise.
    pub req: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, or a pass-through one.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let Some(idx) = self.push(name, Instant::now(), req) else {
            return f(self);
        };
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a finished span under the innermost open span, for work
    /// timed elsewhere (another thread, or a request's whole life).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if !self.enabled {
            return;
        }
        if let Some(idx) = self.push(name, start, req) {
            self.spans[idx].end_ns = self.ns(end).max(self.spans[idx].start_ns);
        }
    }

    fn push(&mut self, name: &'static str, start: Instant, req: u64) -> Option<usize> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time in seconds of every span named `name`, in record order.
    pub fn self_s(&self, name: &str) -> Vec<f64> {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 * 1e-9)
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, self_ns)) in self
            .spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .enumerate()
        {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once, and a child
/// running past its parent is clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end_ns - s.start_ns).saturating_sub(union_len(kids)))
        .collect()
}

/// Total length covered by a set of half-open intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        cur = match cur {
            Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + cur.map_or(0, |(lo, hi)| hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span(100, 200, None),
            span(90, 150, Some(0)),
            span(120, 160, Some(0)),
            span(190, 400, Some(0)),
        ];
        // Covered: [100,160) and [190,200) = 70 of 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn union_of_disjoint_and_nested_intervals() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(5, 10), (0, 2), (6, 8)]), 7);
        assert_eq!(union_len(&mut [(0, 4), (4, 6)]), 6);
    }

    #[test]
    fn nested_spans_record_parents_and_full_buffer_drops() {
        let mut tr = Tracer::new(true, 3);
        tr.span("outer", 0, |tr| {
            tr.span("inner", 7, |_| ());
            let now = Instant::now();
            tr.record("posthoc", now, now, 9);
            tr.span("overflow", 0, |_| ());
        });
        let names: Vec<_> = tr
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.req))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 0),
                ("inner", Some(0), 7),
                ("posthoc", Some(0), 9)
            ]
        );
        assert_eq!(tr.dropped(), 1);
        assert_eq!(tr.self_s("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, 16);
        let v = tr.span("x", 0, |tr| tr.span("y", 0, |_| 5));
        assert_eq!(v, 5);
        assert!(tr.spans().is_empty());
    }
}
