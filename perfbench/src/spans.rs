//! In-memory spans around the benchmark's own calls into the simulator.
//!
//! Spans are recorded only in traced passes, kept in memory and written
//! out once the run ends. Each span has an id, its parent's id, a name
//! (`op`, `parse`, `build`, `inject`, `run`, `drain`, `finish`, `check`)
//! and a label naming the op or configuration.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub(crate) id: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) name: &'static str,
    pub(crate) label: String,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

/// Span recorder; inert (no clock reads, no allocation) while disabled.
#[derive(Debug)]
pub(crate) struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<Span>,
    done: Vec<Span>,
    next_id: u64,
}

/// Handle of an open span; `None` while recording is disabled.
pub(crate) type SpanId = Option<u64>;

impl Spans {
    pub(crate) fn new() -> Self {
        Spans {
            enabled: false,
            origin: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
            next_id: 0,
        }
    }

    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub(crate) fn open(&mut self, name: &'static str, label: &str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent: self.open.last().map(|s| s.id),
            name,
            label: label.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(span);
        Some(id)
    }

    /// Closes the span `id` (and any span left open inside it).
    pub(crate) fn close(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(mut span) = self.open.pop() {
            span.end_ns = now;
            let found = span.id == id;
            self.done.push(span);
            if found {
                break;
            }
        }
    }

    /// Drops the spans left open by an op that failed part-way.
    pub(crate) fn abandon(&mut self) {
        self.open.clear();
    }

    #[cfg(test)]
    pub(crate) fn finished(&self) -> &[Span] {
        &self.done
    }

    /// Self time per span name (duration minus the part covered by child
    /// spans), in seconds, sorted by name.
    pub(crate) fn self_seconds(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.next_id as usize];
        for s in &self.done {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for s in &self.done {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own as f64 * 1e-9,
                None => by_name.push((s.name, own as f64 * 1e-9)),
            }
        }
        by_name.sort_by(|a, b| a.0.cmp(b.0));
        by_name
    }

    /// The finished spans as a JSON array (times in microseconds since
    /// the recorder was created).
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.done.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"label\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.id,
                s.name,
                s.label.replace(['"', '\\'], "_"),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            out.push_str(if i + 1 == self.done.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut s = Spans::new();
        assert_eq!(s.open("op", "x"), None, "disabled recorder is inert");
        s.set_enabled(true);
        let op = s.open("op", "FIR");
        let build = s.open("build", "FIR");
        s.close(build);
        let run = s.open("run", "FIR");
        s.close(run);
        s.close(op);
        let spans = s.finished();
        assert_eq!(spans.len(), 3);
        let op_id = op.unwrap();
        assert!(spans
            .iter()
            .filter(|x| x.name != "op")
            .all(|x| x.parent == Some(op_id)));
        let names: Vec<_> = s.self_seconds().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["build", "op", "run"]);
        assert!(s.to_json().contains("\"name\":\"build\""));
    }
}
