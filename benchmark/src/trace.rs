//! Harness-side spans: name, start, end, parent and batch id, recorded in
//! memory on one process-wide [`Stopwatch`] and written out at exit.

use exact_ppr::core::parallel::Stopwatch;
use ppr_bench::json::{obj, Json};

/// One recorded interval. Times are seconds on the recorder's clock.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one batch (or build cycle, or update) share this id.
    pub batch: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Recorder {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
        }
    }

    pub fn now(&self) -> f64 {
        self.clock.elapsed_seconds()
    }

    /// Id the spans opened from now on carry.
    pub fn set_batch(&mut self, batch: u64) {
        self.batch = batch;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span; returns its index.
    pub fn exit(&mut self) -> usize {
        let now = self.now();
        let id = self.open.pop().expect("a span is open");
        self.spans[id].end = now;
        id
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Record an interval a callee reported (a duration inside the
    /// innermost open span) rather than one this recorder clocked.
    pub fn reported(&mut self, name: &'static str, start: f64, end: f64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part of it its children cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        self_seconds(&self.spans)
    }

    /// Total seconds and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_seconds();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, &own)| {
                obj([
                    ("name", Json::Str(s.name.into())),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                    ("self_s", Json::Num(own)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("batch", Json::Num(s.batch as f64)),
                ])
            })
            .collect();
        obj([
            ("workload", Json::Str(workload.into())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to it (siblings that overlap are not counted twice).
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start.max(spans[p].start);
            let hi = s.end.min(spans[p].end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.seconds() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            batch: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,10] > a [1,7] > b [2,5]
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 7.0, Some(0)),
            span("b", 2.0, 5.0, Some(1)),
        ];
        let own = self_seconds(&spans);
        assert!(close(own[0], 4.0) && close(own[1], 3.0) && close(own[2], 3.0));
        // Self times of a tree sum to the root's duration.
        assert!(close(own.iter().sum::<f64>(), 10.0));
    }

    #[test]
    fn sibling_spans_add_up_and_overlap_counts_once() {
        // Disjoint siblings.
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
        ];
        assert!(close(self_seconds(&spans)[0], 4.0));
        // Overlapping siblings (parallel parts): union [1,6] covers 5.
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 2.0, 4.0, Some(0)),
        ];
        assert!(close(self_seconds(&spans)[0], 5.0));
        // A child that overruns its parent is clipped to it.
        let spans = [span("root", 0.0, 2.0, None), span("a", 1.0, 5.0, Some(0))];
        assert!(close(self_seconds(&spans)[0], 1.0));
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut r = Recorder::new();
        r.set_batch(7);
        let root = r.enter("root");
        r.span("child", || ());
        r.reported("reported", 0.0, 0.0);
        assert_eq!(r.exit(), root);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].parent, s[2].parent, s[0].parent),
            (Some(0), Some(0), None)
        );
        assert!(s.iter().all(|s| s.batch == 7 && s.end >= s.start));
        assert_eq!(r.total("child").1, 1);
    }
}
