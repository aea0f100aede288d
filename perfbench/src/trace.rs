//! In-memory span recorder used by the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions: nothing inside the program changes.
//! A span has a name, a start, an end and the id of the span that was
//! open when it started (its parent). The recorder keeps everything in
//! memory; [`Tracer::finish`] hands the spans over when the run ends and
//! [`table`] turns them into inclusive/self/unattributed times per layer.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u32,
    /// The span open when this one started (`None` at the root).
    pub parent: Option<u32>,
    /// Layer name (`cl.step`, `core.select`, …).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Which run (seed) of the workload produced it.
    pub lane: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A stack-based span recorder for one thread of work.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    lane: u64,
    next_id: u32,
    open: Vec<(u32, &'static str, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose times count from `origin`; `lane` tags every
    /// span (the seed, so fanned-out seeds stay apart).
    pub fn new(origin: Instant, lane: u64) -> Self {
        Self {
            origin,
            lane,
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, name, start));
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        let (open_id, name, start) = self.open.pop().expect("exit without enter");
        assert_eq!(open_id, id, "spans must close innermost-first");
        let parent = self.open.last().map(|o| o.0);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            lane: self.lane,
        });
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every closed span, in closing order. Panics if a span is open.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at finish");
        self.spans
    }
}

/// Total seconds of every span named `name`.
pub fn busy(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs() * 1e6)
        .collect()
}

/// The spans as a JSON array: `{id, parent, lane, name, start_us, dur_us}`.
pub fn spans_json(spans: &[Span]) -> String {
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                r#"{{"id":{},"parent":{parent},"lane":{},"name":"{}","start_us":{:?},"dur_us":{:?}}}"#,
                s.id,
                s.lane,
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// One row of the per-layer table: all spans sharing a name path.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `parent/child` names from the root.
    pub path: String,
    /// Spans aggregated.
    pub count: usize,
    /// Summed span durations, s.
    pub inclusive_s: f64,
    /// Inclusive minus the time its child spans cover, s.
    pub self_s: f64,
    /// Summed inclusive time of its children, s (≤ inclusive).
    pub children_s: f64,
}

/// Aggregates spans by name path. `self_s` is the part of a span that
/// no child covers — here also the "unattributed" remainder — and the
/// table is ordered so a parent precedes its children.
pub fn table(spans: &[Span]) -> Vec<Row> {
    let by_key: BTreeMap<(u64, u32), &Span> = spans.iter().map(|s| ((s.lane, s.id), s)).collect();
    let path_of = |s: &Span| {
        let mut names = vec![s.name];
        let mut cur = s.parent;
        while let Some(p) = cur {
            let ps = by_key[&(s.lane, p)];
            names.push(ps.name);
            cur = ps.parent;
        }
        names.reverse();
        names.join("/")
    };
    let mut children_ns: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children_ns.entry((s.lane, p)).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for s in spans {
        let path = path_of(s);
        let child = children_ns.get(&(s.lane, s.id)).copied().unwrap_or(0) as f64 / 1e9;
        let row = rows.entry(path.clone()).or_insert(Row {
            path,
            count: 0,
            inclusive_s: 0.0,
            self_s: 0.0,
            children_s: 0.0,
        });
        row.count += 1;
        row.inclusive_s += s.secs();
        row.children_s += child;
        row.self_s += s.secs() - child;
    }
    rows.into_values().collect()
}

/// True when, for every span, its children's durations sum to no more
/// than its own (the invariant a stack recorder must keep).
pub fn children_fit(spans: &[Span]) -> bool {
    let mut children_ns: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children_ns.entry((s.lane, p)).or_default() += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .all(|s| children_ns.get(&(s.lane, s.id)).copied().unwrap_or(0) <= s.end_ns - s.start_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            lane: 0,
        }
    }

    #[test]
    fn recorder_links_parents() {
        let mut t = Tracer::new(Instant::now(), 7);
        let run = t.enter("run");
        t.time("step", || ());
        t.time("step", || ());
        t.exit(run);
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        let run = spans.iter().find(|s| s.name == "run").unwrap();
        assert_eq!(run.parent, None);
        assert!(spans
            .iter()
            .filter(|s| s.name == "step")
            .all(|s| s.parent == Some(run.id) && s.lane == 7));
        assert!(children_fit(&spans));
    }

    #[test]
    fn table_splits_self_and_children() {
        let spans = vec![
            span(1, Some(0), "step", 10, 40),
            span(2, Some(0), "eval", 50, 90),
            span(0, None, "run", 0, 100),
        ];
        let rows = table(&spans);
        let run = rows.iter().find(|r| r.path == "run").unwrap();
        assert_eq!(run.count, 1);
        assert!((run.inclusive_s - 100e-9).abs() < 1e-15);
        assert!((run.children_s - 70e-9).abs() < 1e-15);
        assert!((run.self_s - 30e-9).abs() < 1e-15);
        assert!(rows.iter().any(|r| r.path == "run/step" && r.count == 1));
        assert_eq!(busy(&spans, "step"), 30e-9);
        assert_eq!(count(&spans, "eval"), 1);
    }

    #[test]
    fn overfull_children_are_caught() {
        let spans = vec![
            span(1, Some(0), "a", 0, 80),
            span(2, Some(0), "b", 0, 80),
            span(0, None, "p", 0, 100),
        ];
        assert!(!children_fit(&spans));
    }
}
