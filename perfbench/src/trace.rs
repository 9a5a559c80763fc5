//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the program's public API:
//! nothing is recorded inside the program. Each span has a name, the
//! layer it measures, start and end (ns since the tracer was made), its
//! parent, and the run it belongs to. Spans stay in memory until the
//! run ends and are then written out in one piece.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Which pass produced the span: a traced measurement iteration
    /// (`1..`) or the layer replays (`0`).
    pub run: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while on; while off, [`Tracer::span`] only calls its
/// closure, so traced and untraced runs share one code path.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            on: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    /// Subsequent spans belong to `run`; `on` turns recording on or off.
    pub fn set_run(&mut self, run: u32, on: bool) {
        self.run = run;
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now();
        let out = f(self);
        self.spans[id as usize].end_ns = self.now();
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span called `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time (span minus the part its children cover) and span
    /// count, per layer, over the spans of `runs`.
    pub fn layer_self_ns(&self, runs: &[u32]) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| runs.contains(&s.run)) {
            let e = out.entry(s.layer).or_default();
            e.0 += s.ns().saturating_sub(child_ns[s.id as usize]);
            e.1 += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_self_time() {
        let mut t = Tracer::default();
        t.set_run(1, true);
        t.span("outer", "a", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 1 && s.end_ns >= s.start_ns));
        t.set_run(2, false);
        t.span("outer", "a", |_| ());
        assert_eq!(t.spans().len(), 2, "an off tracer records nothing");
        let layers = t.layer_self_ns(&[1]);
        let (outer_self, outer_n) = layers["outer"];
        assert_eq!(outer_n, 1);
        assert!(outer_self < spans[0].ns() - 4_000_000);
        assert_eq!(t.named("b").count(), 1);
    }
}
