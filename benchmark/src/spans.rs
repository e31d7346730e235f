//! The benchmark's own spans: kept in memory around each call the
//! benchmark makes into a layer, written out when the run ends. Nothing in
//! the program under test is instrumented (`hpnn-trace` stays off).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin; `parent` 0 means a root span, `req` 0 means no request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. A disabled recorder reads no clock and
/// stores nothing, so untraced runs pay nothing for the call sites.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now and returns its id (0 when disabled); children
    /// name it as their parent, [`close`](Recorder::close) stamps its end.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if id != 0 {
            self.spans[id as usize - 1].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent, 0);
        let out = f();
        self.close(id);
        out
    }

    /// Appends spans assembled elsewhere (per-request spans are built after
    /// the run from the load threads' timestamps), renumbering them past
    /// the spans already held. `spans` must be self-contained: every
    /// non-zero parent is the id of a span in the same batch.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (overlapping children are counted once, and a child
/// reaching outside its parent is clipped to it). One value per span, in
/// input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums duration and self time by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Most spans a trace file lists; the per-name totals above always cover
/// every span recorded.
pub const TRACE_FILE_SPAN_CAP: usize = 60_000;

/// The trace document: per-name totals, counts attached at phase
/// boundaries, and the first [`TRACE_FILE_SPAN_CAP`] spans.
pub fn trace_document(workload: &str, spans: &[Span], counts: &[(String, Json)]) -> Json {
    let totals = totals_by_name(spans);
    Json::obj([
        ("workload", Json::str(workload)),
        ("spans_recorded", Json::num(spans.len() as f64)),
        (
            "spans_listed",
            Json::num(spans.len().min(TRACE_FILE_SPAN_CAP) as f64),
        ),
        (
            "self_time_by_name",
            Json::Obj(
                totals
                    .iter()
                    .map(|(name, t)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("count", Json::num(t.count as f64)),
                                ("total_ns", Json::num(t.total_ns as f64)),
                                ("self_ns", Json::num(t.self_ns as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("counts", Json::Obj(counts.to_vec())),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .take(TRACE_FILE_SPAN_CAP)
                    .map(|s| {
                        Json::obj([
                            ("id", Json::num(f64::from(s.id))),
                            ("parent", Json::num(f64::from(s.parent))),
                            ("req", Json::num(f64::from(s.req))),
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::num(s.start_ns as f64)),
                            ("end_ns", Json::num(s.end_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: ["s0", "s1", "s2", "s3", "s4", "s5", "s6"][id as usize],
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),  // 20 covered
            span(3, 1, 20, 50),  // overlaps span 2: adds only 30..50
            span(4, 1, 90, 140), // clipped to the parent's end: 90..100
            span(5, 3, 25, 45),  // grandchild: shortens span 3, not span 1
            span(6, 0, 200, 260),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (20 + 20 + 10));
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 20);
        assert_eq!(selfs[3], 50);
        assert_eq!(selfs[4], 20);
        assert_eq!(selfs[5], 60);
        // Without overlap, the self times of a tree add up to its root.
        let tree = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 2, 12, 20)];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        let id = rec.open("x", 0, 0);
        rec.close(id);
        assert_eq!(id, 0);
        assert_eq!(rec.within("y", 0, || 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut rec = Recorder::new(Instant::now(), true);
        let root = rec.open("root", 0, 0);
        rec.close(root);
        rec.absorb(vec![span(1, 0, 0, 10), span(2, 1, 2, 4)]);
        let ids: Vec<(u32, u32)> = rec.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(1, 0), (2, 0), (3, 2)]);
        assert_eq!(totals_by_name(rec.spans())["s1"].self_ns, 8);
    }
}
