//! Spans recorded from outside the system, at the calls into each layer.
//!
//! A span is `(name, id, parent, thread, start, end)`; spans of one tick or
//! one query share `id`.  A hot boundary (one call per MQTT message) is
//! recorded as one *batch* span per tick: `count` back-to-back calls under
//! the same parent, `busy_ns` the time inside them, `start..end` the first
//! entry to the last exit.  Spans stay in memory and are written at the end.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Tick or query number; spans of one request share it.
    pub id: u64,
    /// Name of the span (with the same `id`) that caused this one; `""` for a root.
    pub parent: &'static str,
    /// Recording thread (an arbitrary small number, stable within a run).
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the call(s); `end - start` unless this is a batch.
    pub busy_ns: u64,
    /// Calls this span stands for (1 unless this is a batch).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; recording is a no-op until [`Tracer::set_enabled`].
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_NO: u32 = {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a plain span over `start_ns..end_ns`.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.record_batch(name, id, parent, start_ns, end_ns, end_ns - start_ns, 1);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record_batch(
        &self,
        name: &'static str,
        id: u64,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        count: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let thread = THREAD_NO.with(|n| *n);
        let span = Span { name, id, parent, thread, start_ns, end_ns, busy_ns, count };
        self.spans.lock().expect("no recorder panics while holding the span list").push(span);
    }

    /// Time `f` as a plain span.
    pub fn span<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        self.record(name, id, parent, start, self.now_ns());
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self.spans.lock().expect("no recorder panics while holding the span list"),
        )
    }
}

/// Accumulates one batch span on the thread that makes the calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Batch {
    pub first_start_ns: u64,
    pub last_end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
}

impl Batch {
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.count == 0 {
            self.first_start_ns = start_ns;
        }
        self.last_end_ns = end_ns;
        self.busy_ns += end_ns - start_ns;
        self.count += 1;
    }

    /// Record the batch (if it holds any call) and reset it.
    pub fn flush(&mut self, tracer: &Tracer, name: &'static str, id: u64, parent: &'static str) {
        if self.count > 0 {
            tracer.record_batch(
                name,
                id,
                parent,
                self.first_start_ns,
                self.last_end_ns,
                self.busy_ns,
                self.count,
            );
        }
        *self = Batch::default();
    }
}

/// Self time of every span: its busy time minus the busy time of its child
/// spans that ran inside its interval on its own thread.  A child on another
/// thread was caused by the span but does not cover any of its time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut index: HashMap<(&str, u64), usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert((s.name, s.id), i);
    }
    let mut covered = vec![0u64; spans.len()];
    for child in spans {
        if child.parent.is_empty() {
            continue;
        }
        let Some(&p) = index.get(&(child.parent, child.id)) else { continue };
        let parent = &spans[p];
        if parent.thread != child.thread {
            continue;
        }
        let overlap_start = child.start_ns.max(parent.start_ns);
        let overlap_end = child.end_ns.min(parent.end_ns);
        if overlap_end <= overlap_start {
            continue;
        }
        // a batch spends `busy` of its interval inside the calls; clipped to
        // the parent it covers at most the overlap
        covered[p] += child.busy_ns.min(overlap_end - overlap_start);
    }
    spans.iter().zip(&covered).map(|(s, c)| s.busy_ns.saturating_sub(*c)).collect()
}

/// Per span name: spans, calls, busy and self nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub spans: u64,
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out = std::collections::BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t: &mut NameTotals = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += s.count;
        t.busy_ns += s.busy_ns;
        t.self_ns += self_ns;
    }
    out
}

pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::Arr(vec![
                    Value::str(s.name),
                    Value::Num(s.id as f64),
                    Value::str(s.parent),
                    Value::Num(s.thread as f64),
                    Value::Num(s.start_ns as f64),
                    Value::Num(s.end_ns as f64),
                    Value::Num(s.busy_ns as f64),
                    Value::Num(s.count as f64),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, thread: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            thread,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", "", 0, 0, 100),
            span("a", "root", 0, 10, 40), // child
            span("b", "root", 0, 50, 90), // sibling of a
            span("a1", "a", 0, 15, 25),   // nested in a
            span("far", "b", 1, 60, 80),  // caused by b on another thread
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 30);
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        // same-thread self times add up to the root; the remote span adds its own
        assert_eq!(all_self, 100 + 20);
    }

    #[test]
    fn batch_child_covers_its_busy_time_only() {
        let mut spans = vec![span("sample", "", 0, 0, 1000)];
        let mut b = Batch::default();
        b.add(100, 150);
        b.add(400, 450);
        b.add(900, 950);
        spans.push(Span {
            name: "publish",
            id: 1,
            parent: "sample",
            thread: 0,
            start_ns: b.first_start_ns,
            end_ns: b.last_end_ns,
            busy_ns: b.busy_ns,
            count: b.count,
        });
        assert_eq!(self_times(&spans), vec![850, 150]);
        // a child sticking out of its parent covers only the overlap
        spans[1].end_ns = 2000;
        spans[1].busy_ns = 1900;
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record("x", 1, "", 0, 5);
        assert_eq!(t.span("y", 1, "", || 7), 7);
        assert!(t.take().is_empty());
        t.set_enabled(true);
        t.span("y", 2, "", || ());
        assert_eq!(t.take().len(), 1);
    }
}
