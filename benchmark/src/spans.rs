//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans around its *own* calls into each layer
//! (spans inside the program are a later change): a name, start and
//! end on one monotonic clock, the span that caused it, and the pass it
//! belongs to. Spans are kept in memory and written out once, as Chrome
//! trace-event JSON, when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to (0 = outside any pass).
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Single-threaded by design: every span is opened and
/// closed on the benchmark's main thread, so `begin`/`end` nest.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (used from sinks, where the boundary instants are read
    /// first and the span is filed afterwards).
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
    }

    /// Times `f` inside a span and returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time covered by each span's direct children (children never
    /// overlap: one thread, nested).
    pub fn children_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        covered
    }

    /// Self time of every span: duration minus the time its direct
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.children_ns())
            .map(|(s, covered)| s.duration_ns().saturating_sub(covered))
            .collect()
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let own = self.self_times_ns();
        let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += ns;
                    e.2 += 1;
                }
                None => out.push((s.name, ns, 1)),
            }
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph": "X"`) event per span, microsecond timestamps,
    /// parent index, pass and self time in `args`. `meta` lands in the
    /// top-level `otherData` object as string pairs.
    pub fn to_chrome_json(&self, meta: &[(&str, String)]) -> String {
        let own = self.self_times_ns();
        let mut s = String::with_capacity(128 * self.spans.len() + 256);
        s.push_str("{\"displayTimeUnit\": \"ns\", \"otherData\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": \"{}\"", escape(k), escape(v));
        }
        s.push_str("}, \"traceEvents\": [\n");
        for (i, (sp, own_ns)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"pass\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}}}",
                escape(sp.name),
                sp.start_ns as f64 / 1e3,
                sp.duration_ns() as f64 / 1e3,
                i,
                parent,
                sp.pass,
                sp.start_ns,
                sp.end_ns,
                own_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Escapes the two characters that can break a JSON string here; the
/// inputs are span names and fingerprint strings, never user data.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-set times: parent [0,100) with leaf
    /// children [10,30) and [50,90), one of which has a child [55,60).
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        let p = t.begin("pass");
        t.leaf("pass/batch", 10, 30);
        let c = t.begin("pass/dense");
        t.leaf("pass/reference", 55, 60);
        t.end(c);
        t.end(p);
        t.spans[p].start_ns = 0;
        t.spans[p].end_ns = 100;
        t.spans[c].start_ns = 50;
        t.spans[c].end_ns = 90;
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = fixture();
        let own = t.self_times_ns();
        // pass: 100 - (20 + 40); dense: 40 - 5; leaves keep their own.
        assert_eq!(own, vec![40, 20, 35, 5]);
        // Self times of a subtree add back up to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn parents_and_passes_are_recorded() {
        let mut t = Tracer::new();
        t.set_pass(3);
        let a = t.begin("pass");
        let b = t.begin("pass/dense");
        t.end(b);
        t.end(a);
        assert_eq!(t.spans()[a].parent, None);
        assert_eq!(t.spans()[b].parent, Some(a));
        assert_eq!(t.spans()[b].pass, 3);
        assert!(t.spans()[a].end_ns >= t.spans()[b].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.begin("pass");
        let _b = t.begin("pass/dense");
        t.end(a);
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let t = fixture();
        let json = t.to_chrome_json(&[("workload", "x\"y".to_string())]);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4);
        assert!(json.contains("\"workload\": \"x\\\"y\""));
        assert!(json.contains("\"self_ns\": 35"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
