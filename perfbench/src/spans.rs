//! Host-time spans recorded by the benchmark around its calls into the
//! workspace crates.
//!
//! A span has a name (`<layer>.<call>`), a start and end in nanoseconds
//! since the tracer was created, the span that caused it, and the run id
//! shared by every span of one benchmark run. Spans stay in memory until
//! the run ends. A disabled tracer records nothing and costs one branch
//! per call, so the untimed-vs-timed runs differ only by the recording.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// `<layer>.<call>`, e.g. `query.op`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Run id shared by every span of one benchmark run.
    pub run: u64,
}

thread_local! {
    /// Open spans of the current host thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run: u64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer for run `run`; `enabled == false` records nothing.
    pub fn new(enabled: bool, run: u64) -> Self {
        Tracer {
            enabled,
            run,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off between spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The innermost open span on this host thread. Pass it to
    /// [`Tracer::span_under`] on another thread to keep the tree intact
    /// across thread boundaries.
    pub fn current(&self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        OPEN.with(|s| s.borrow().last().copied())
    }

    /// Run `f` inside a span named `name`, child of the current span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(self.current(), name, f)
    }

    /// Run `f` inside a span named `name` with an explicit parent.
    pub fn span_under<R>(
        &self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
                run: self.run,
            });
            id
        };
        OPEN.with(|s| s.borrow_mut().push(id));
        let out = f();
        OPEN.with(|s| s.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Spans recorded after the first `from` (the spans of one phase).
    pub fn spans_since(&self, from: usize) -> Vec<Span> {
        let spans = self.lock();
        spans.get(from..).map(<[Span]>::to_vec).unwrap_or_default()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A poisoned lock means a span closure panicked; the benchmark
        // aborts on panics anyway, so the list is still consistent.
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover. Children that overlap each other
/// (spans on parallel host threads) are counted once.
///
/// `spans` must be a whole tree or forest: ids index into the slice
/// relative to its first span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let base = spans.first().map_or(0, |s| s.id);
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if let Some(c) = children.get_mut(p) {
                c.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Self time summed per span name, in ns.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Number of spans per name.
pub fn count_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += 1;
    }
    out
}

/// The spans as tab-separated lines (`run id parent name start end`),
/// the form written out when a traced run ends.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("run\tid\tparent\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{parent}\t{}\t{}\t{}\n",
            s.run, s.id, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100] has children A [10,30] and B [20,50] that overlap
        // (parallel threads): together they cover 40, so root keeps 60.
        // A's own child [15,25] leaves A 10; B and the leaf are bare.
        let spans = vec![
            span(0, None, "core.sweep", 0, 100),
            span(1, Some(0), "query.op", 10, 30),
            span(2, Some(0), "query.op", 20, 50),
            span(3, Some(1), "storage.load", 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30, 10]);
        let by_name = self_ns_by_name(&spans);
        assert_eq!(by_name["core.sweep"], 60);
        assert_eq!(by_name["query.op"], 40);
        assert_eq!(by_name["storage.load"], 10);
        // Parallel children each keep their own time, so the self times
        // add up to the root's 100 plus the 10 both children ran at once.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 110);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(0, None, "a.x", 10, 20), span(1, Some(0), "b.y", 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn a_phase_slice_keeps_its_ids() {
        let spans = vec![span(7, None, "a.x", 0, 10), span(8, Some(7), "b.y", 2, 4)];
        assert_eq!(self_times(&spans), vec![8, 2]);
    }

    #[test]
    fn recorded_tree_links_parents_across_threads() {
        let t = Tracer::new(true, 9);
        t.span("bench.job", || {
            let parent = t.current();
            std::thread::scope(|s| {
                s.spawn(|| t.span_under(parent, "query.op", || ()));
            });
            t.span("engines.query", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.run == 9 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 1);
        assert_eq!(t.span("a.x", || 5), 5);
        assert!(t.is_empty());
        assert_eq!(t.current(), None);
    }
}
