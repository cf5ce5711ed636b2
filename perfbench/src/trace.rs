//! In-memory spans recorded around calls into the program's crates.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started (its parent) and the operation it belongs to. Spans stay in
//! memory while the benchmark runs and are written out when it ends. A
//! span's *self time* is its duration minus the durations of its direct
//! children. A disabled tracer records nothing, so the same code path
//! serves the untraced runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            // Reserved up front, so recording a span never reallocates
            // inside a measured interval.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Sets the operation id the following spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Self time in µs of every span named `name`, keyed by operation
    /// (summed when an operation has several).
    pub fn self_us_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let own = self.self_ns();
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *out.entry(s.op).or_insert(0.0) += ns as f64 / 1e3;
            }
        }
        out
    }

    /// Self times in µs of every span named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.self_us_by_op(name).into_values().collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id parent op name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        let outer = tr.enter("outer");
        tr.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.exit(outer);
        let inner = tr.self_us("inner")[0];
        let outer = tr.self_us("outer")[0];
        assert!(inner >= 2000.0);
        assert!(outer < inner);
        assert_eq!(
            tr.self_us_by_op("inner")
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            [7]
        );

        let mut off = Tracer::new(false);
        let s = off.enter("x");
        off.exit(s);
        assert!(off.self_us("x").is_empty());
    }
}
