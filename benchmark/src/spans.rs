//! The benchmark-side span recorder of the traced run.
//!
//! Every call the harness makes into a layer (`by_name`, `System::new`,
//! `System::run`, the reference interpreter, the PIII model, each direct
//! probe) is wrapped in a span: name, start, end, the span that caused
//! it, and the rep it belongs to. Spans live in memory and are written
//! out once, at exit. The untraced run uses a recorder that is switched
//! off: it still times the call, with the same two clock reads, but keeps
//! nothing.

use std::time::{Duration, Instant};

use crate::json;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Which rep of the traced loop (or which probe repetition) this is.
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    /// A recorder that keeps spans (the traced run).
    pub fn on() -> Self {
        Recorder {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that only times (the untraced run).
    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Recorder::on()
        }
    }

    /// Runs `f`, returning its result and how long it took; when the
    /// recorder is on, that interval becomes a span, child of whichever
    /// span is open around it. The id is `None` when it is off.
    pub fn time<T>(
        &mut self,
        name: &str,
        rep: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, Duration, Option<SpanId>) {
        if !self.on {
            let started = Instant::now();
            let out = f(self);
            return (out, started.elapsed(), None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep,
        });
        self.open.push(id);
        let started = Instant::now();
        let out = f(self);
        let took = started.elapsed();
        self.open.pop();
        let start_ns = (started - self.epoch).as_nanos() as u64;
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = start_ns + took.as_nanos() as u64;
        (out, took, Some(id))
    }

    /// Adds children of a closed span from totals measured inside the
    /// callee (`System::take_profile()` reports exclusive nanoseconds per
    /// phase, not intervals). They are laid end to end from the parent's
    /// start, so the parent's self time is what the phases leave over.
    pub fn add_phase_children(&mut self, parent: SpanId, phases: &[(&str, u64)]) {
        let rep = self.spans[parent].rep;
        let mut at = self.spans[parent].start_ns;
        for &(name, nanos) in phases {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: at,
                end_ns: at + nanos,
                parent: Some(parent),
                rep,
            });
            at += nanos;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus what its children
    /// cover (clamped at zero: phase totals can overrun a parent by the
    /// clock reads between them).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut selfs: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                selfs[p] = selfs[p].saturating_sub(s.duration_ns());
            }
        }
        selfs
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {}, \"rep\": {}, \"self_ns\": {self_ns}}}",
                    json::quote(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.rep,
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::on();
        let ((_, _, inner), _, run) = r.time("run", 3, |r| r.time("inner", 3, |_| ()));
        let (run, inner) = (run.expect("on"), inner.expect("on"));
        // Pin the clock readings so the arithmetic is exact.
        r.spans[run].start_ns = 1_000;
        r.spans[run].end_ns = 11_000;
        r.spans[inner].start_ns = 2_000;
        r.spans[inner].end_ns = 5_000;
        r.add_phase_children(run, &[("run.dispatch", 4_000), ("run.translate", 500)]);

        assert_eq!(r.spans()[inner].parent, Some(run));
        assert_eq!(r.spans()[run].parent, None);
        let selfs = r.self_times_ns();
        assert_eq!(selfs[run], 10_000 - 3_000 - 4_000 - 500);
        assert_eq!(selfs[inner], 3_000);
        let dispatch = &r.spans()[2];
        assert_eq!((dispatch.start_ns, dispatch.end_ns), (1_000, 5_000));
        assert_eq!((dispatch.parent, dispatch.rep), (Some(run), 3));
        assert_eq!(r.spans()[3].start_ns, 5_000, "phases are laid end to end");
    }

    #[test]
    fn children_that_overrun_clamp_to_zero() {
        let mut r = Recorder::on();
        r.time("run", 0, |_| ());
        r.spans[0].start_ns = 0;
        r.spans[0].end_ns = 100;
        r.add_phase_children(0, &[("a", 80), ("b", 80)]);
        assert_eq!(r.self_times_ns()[0], 0);
    }

    #[test]
    fn a_recorder_that_is_off_times_but_keeps_nothing() {
        let mut r = Recorder::off();
        let (v, took, id) = r.time("run", 0, |_| std::hint::black_box(3));
        assert_eq!((v, id), (3, None));
        assert!(took.as_nanos() < 1_000_000_000);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn json_export_parses() {
        let mut r = Recorder::on();
        let (v, _, _) = r.time("by_name \"gzip\"", 1, |_| 7);
        assert_eq!(v, 7);
        let parsed = json::parse(&r.to_json()).expect("valid JSON");
        let rows = parsed.as_arr().expect("array");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("name").and_then(json::Value::as_str),
            Some("by_name \"gzip\"")
        );
        assert_eq!(rows[0].get("parent"), Some(&json::Value::Null));
    }
}
