//! Lock-free serving metrics: atomic counters plus fixed-bucket latency
//! histograms, snapshotted into the `STATS` wire reply.
//!
//! Every number is declared once, as a row of the `stats_table!` invocation
//! in this file: a scalar row is `kind name "description"` with kind
//! `counter` or `gauge`, a histogram row is `unit name "description"` with
//! unit `seconds` or `unitless`. The structs, the snapshot, the interval
//! difference, the `STATS` codec and the Prometheus exposition are all
//! derived from those rows, so adding a number is one new row plus its
//! increment site.
//!
//! Five latencies are tracked per answered request: **enqueue-to-reply**
//! (`e2e`: from scheduler admission to the moment the worker hands the
//! logits back), **queue wait** (`queue_wait`: admission to batch pop),
//! **batch fill** (`batch_fill`: how long the batch's oldest request held
//! the coalescing window open — every request in a batch records the same
//! fill duration), **forward-only** (`forward`: the wall time of the
//! batched `Network::forward` call that served the request), and
//! **writeback** (`writeback`: completion hand-off to the writer thread's
//! socket write). All five histograms count exactly one sample per OK
//! reply, so their totals reconcile against each other and against
//! load-generator request counts: `queue_wait.count == batch_fill.count ==
//! forward.count == writeback.count == e2e.count == replies_ok`.
//!
//! One more identity holds on a drained server. `keyed_requests +
//! keyless_requests == requests`: the two modes partition admissions, so
//! the keyed/keyless traffic mix — the paper's threat model as a number —
//! is observable per interval.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of histogram buckets.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` microseconds (bucket 0
/// additionally absorbs sub-microsecond samples; the last bucket absorbs
/// everything from `2^(HISTOGRAM_BUCKETS-1)` µs ≈ 140 min upward).
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A fixed-bucket, power-of-two latency histogram with atomic counters.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for a latency in nanoseconds.
    pub fn bucket_of(ns: u64) -> usize {
        let us = (ns / 1_000).max(1);
        (us.ilog2() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Bucket index for a dimensionless value (bucket `i` covers
    /// `[2^i, 2^(i+1))`; 0 also absorbs value 0).
    pub fn value_bucket_of(v: u64) -> usize {
        (v.max(1).ilog2() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one dimensionless sample (e.g. a pipeline depth), bucketed
    /// by its own power of two rather than by microseconds. `sum_ns` then
    /// accumulates the raw values, so [`HistogramSnapshot::mean_ns`] yields
    /// the mean value.
    pub fn record_value(&self, v: u64) {
        self.buckets[Self::value_bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`], as carried by `STATS_OK`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`HISTOGRAM_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all sample latencies in nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Merges `other` into `self` (element-wise bucket addition plus count
    /// and sum), so per-worker histograms aggregate into one distribution.
    /// A default (bucket-less) snapshot on either side merges cleanly.
    ///
    /// # Panics
    ///
    /// Panics if both sides carry buckets of different lengths.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.is_empty() {
            // Nothing recorded on the other side; counts still carry over.
        } else if self.buckets.is_empty() {
            self.buckets = other.buckets.clone();
        } else {
            assert_eq!(
                self.buckets.len(),
                other.buckets.len(),
                "histogram bucket count mismatch"
            );
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Latency (in nanoseconds) at quantile `q` (`0.0 ..= 1.0`); 0 when
    /// empty. The rank is exact (ceil of `q * count`, matching the counts
    /// that reconcile against `replies_ok`); the position *inside* the
    /// power-of-two bucket holding that rank is linearly interpolated, so a
    /// p99 landing early in a wide bucket no longer reports the bucket's
    /// upper bound (up to 2x too high). `q = 1.0` still returns the top
    /// bucket's upper bound, preserving its "no sample exceeded this" read.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > 0 && seen + b >= rank {
                // Bucket i spans [2^i, 2^(i+1)) µs; bucket 0 also absorbs
                // sub-µs samples, so its floor is 0 rather than 1 µs.
                let lo = if i == 0 { 0 } else { 1_000u64 << i };
                let hi = 1_000u64 << (i + 1);
                let frac = (rank - seen) as f64 / b as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen += b;
        }
        1_000u64 << HISTOGRAM_BUCKETS
    }

    /// Per-bucket counts recorded after `earlier` was taken: the interval
    /// histogram between two snapshots of one live [`Histogram`]. All
    /// subtraction saturates, so a mismatched pair (different servers, or
    /// `earlier` actually newer) degrades to zeroes instead of wrapping.
    /// Either side may be a default (bucket-less) snapshot.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = if earlier.buckets.is_empty() {
            self.buckets.clone()
        } else {
            self.buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect()
        };
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
        }
    }
}

/// Whether a scalar row of the stats table only ever rises or follows a
/// level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Monotonic count; an interval reports the increment.
    Counter,
    /// Instantaneous level; an interval reports the later value.
    Gauge,
}

/// One scalar row of the stats table as read from a [`StatsSnapshot`] or a
/// [`StatsDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsRow {
    /// Field name; also the stem of the Prometheus metric name.
    pub name: &'static str,
    /// The row's one description: field doc and Prometheus `HELP`.
    pub description: &'static str,
    /// Counter or gauge.
    pub kind: RowKind,
    /// The value read from the snapshot or delta.
    pub value: u64,
}

/// What a histogram's samples measure, which fixes its bucket bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramUnit {
    /// Latencies recorded with [`Histogram::record`]: nanosecond samples in
    /// microsecond power-of-two buckets.
    Seconds,
    /// Dimensionless values recorded with [`Histogram::record_value`],
    /// bucketed by their own power of two.
    Unitless,
}

/// One histogram row of the stats table as read from a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramRow<'a> {
    /// Field name; also the stem of the Prometheus metric name.
    pub name: &'static str,
    /// The row's one description: field doc and Prometheus `HELP`.
    pub description: &'static str,
    /// What the samples measure.
    pub unit: HistogramUnit,
    /// The histogram read from the snapshot.
    pub hist: &'a HistogramSnapshot,
}

/// Declares every number the server counts exactly once. From the rows come
/// [`Metrics`] and its zeroed default, [`Metrics::snapshot`],
/// [`StatsSnapshot`], [`StatsDelta`], the per-row half of
/// [`StatsSnapshot::delta_since`] and the row iterators that the `STATS`
/// codec and the Prometheus exposition walk. The fields are plain named
/// `pub` fields, so an increment is one relaxed `fetch_add` with no lookup.
macro_rules! stats_table {
    (@kind counter) => { RowKind::Counter };
    (@kind gauge) => { RowKind::Gauge };
    (@unit seconds) => { HistogramUnit::Seconds };
    (@unit unitless) => { HistogramUnit::Unitless };
    (@delta counter $now:expr, $then:expr) => { $now.saturating_sub($then) };
    (@delta gauge $now:expr, $then:expr) => { $now };
    (
        scalars { $($kind:ident $name:ident $desc:literal;)* }
        histograms { $($unit:ident $hist:ident $hdesc:literal;)* }
    ) => {
        /// How many scalar rows the table declares; `STATS_OK` carries
        /// this many values plus `uptime_ns` and `snapshot_seq`.
        pub const STATS_ROWS: usize = [$(stringify!($name)),*].len();

        /// Process-wide serving metrics, shared by handlers and batch
        /// workers.
        #[derive(Debug)]
        pub struct Metrics {
            $(#[doc = $desc] pub $name: AtomicU64,)*
            $(#[doc = $hdesc] pub $hist: Histogram,)*
            /// When this metrics block was created (the server start time).
            started: Instant,
            /// Monotonic snapshot counter; each [`Metrics::snapshot`] call
            /// gets the next value, so two snapshots can be ordered and
            /// diffed into rates.
            snapshot_seq: AtomicU64,
        }

        impl Default for Metrics {
            fn default() -> Self {
                Metrics {
                    $($name: AtomicU64::new(0),)*
                    $($hist: Histogram::new(),)*
                    started: Instant::now(),
                    snapshot_seq: AtomicU64::new(0),
                }
            }
        }

        impl Metrics {
            /// Copies every counter and histogram, stamping the snapshot
            /// with the server uptime and the next monotonic sequence
            /// number.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    uptime_ns: self.started.elapsed().as_nanos() as u64,
                    snapshot_seq: self.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1,
                    $($hist: self.$hist.snapshot(),)*
                    // The scheduler owns the per-shard histograms; the
                    // server layer fills this in afterwards.
                    shards: Vec::new(),
                }
            }
        }

        /// Plain-data copy of [`Metrics`], the body of a `STATS_OK` reply.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $(#[doc = $desc] pub $name: u64,)*
            /// Server uptime at snapshot time, in nanoseconds.
            pub uptime_ns: u64,
            /// Monotonic snapshot sequence number (1 for the first
            /// snapshot). Two snapshots with increasing `snapshot_seq` came
            /// from the same server run and can be diffed into rates.
            pub snapshot_seq: u64,
            $(#[doc = $hdesc] pub $hist: HistogramSnapshot,)*
            /// Per-shard stats, ordered by (model, shard). Empty on
            /// snapshots taken below the server layer (bare
            /// [`Metrics::snapshot`]).
            pub shards: Vec<ShardStatsSnapshot>,
        }

        impl StatsSnapshot {
            /// Every scalar row in table (= wire) order.
            pub fn rows(&self) -> impl Iterator<Item = StatsRow> {
                [$(StatsRow {
                    name: stringify!($name),
                    description: $desc,
                    kind: stats_table!(@kind $kind),
                    value: self.$name,
                },)*]
                .into_iter()
            }

            /// Every scalar row's slot in table order, for decoders and
            /// builders.
            pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$name,)*].into_iter()
            }

            /// Every histogram row in table (= wire) order.
            pub fn histograms(&self) -> impl Iterator<Item = HistogramRow<'_>> {
                [$(HistogramRow {
                    name: stringify!($hist),
                    description: $hdesc,
                    unit: stats_table!(@unit $unit),
                    hist: &self.$hist,
                },)*]
                .into_iter()
            }

            /// Every histogram's slot in table order.
            pub fn histograms_mut(&mut self) -> impl Iterator<Item = &mut HistogramSnapshot> {
                [$(&mut self.$hist,)*].into_iter()
            }

            /// The table's half of [`delta_since`](Self::delta_since):
            /// counters differenced (saturating), gauges copied from the
            /// later side, histograms windowed.
            fn table_delta(
                &self,
                earlier: &StatsSnapshot,
                shards: Vec<ShardStatsSnapshot>,
            ) -> StatsDelta {
                StatsDelta {
                    interval_ns: self.uptime_ns - earlier.uptime_ns,
                    $($name: stats_table!(@delta $kind self.$name, earlier.$name),)*
                    $($hist: self.$hist.delta_since(&earlier.$hist),)*
                    shards,
                }
            }
        }

        /// Interval difference between two [`StatsSnapshot`]s of one server
        /// run, produced by [`StatsSnapshot::delta_since`]. Counters hold
        /// the interval increment, gauges hold the value at the *later*
        /// snapshot, and histograms hold only samples recorded during the
        /// interval — so their quantiles are windowed, not since-start.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct StatsDelta {
            /// Interval length in nanoseconds, measured on the server's
            /// uptime clock (always > 0).
            pub interval_ns: u64,
            $(#[doc = $desc] pub $name: u64,)*
            $(#[doc = $hdesc] pub $hist: HistogramSnapshot,)*
            /// Per-shard interval stats, matched by `(model, shard)`; a
            /// shard first seen in this interval carries its full (young)
            /// totals.
            pub shards: Vec<ShardStatsSnapshot>,
        }

        impl StatsDelta {
            /// Every scalar row in table order, as this interval saw it.
            pub fn rows(&self) -> impl Iterator<Item = StatsRow> {
                [$(StatsRow {
                    name: stringify!($name),
                    description: $desc,
                    kind: stats_table!(@kind $kind),
                    value: self.$name,
                },)*]
                .into_iter()
            }
        }
    };
}

// Row order is the `STATS_OK` wire order: append, never reorder. Adding a
// number is one row here plus its `Metrics::bump` site. The block's first
// byte is the row count, so after any change to the table a peer built
// before it is refused with a typed `BadTag` rather than misread.
stats_table! {
    scalars {
        counter connections "Connections accepted.";
        counter requests "Inference requests admitted to a queue.";
        counter rows "Input rows admitted to a queue.";
        counter replies_ok "Requests answered with logits.";
        counter busy "Requests rejected with `BUSY` (queue or connection window full).";
        counter expired "Requests dropped because their deadline passed while queued.";
        counter protocol_errors "Frames that failed to decode (the connection stays open).";
        counter batches "Batched forward calls executed.";
        gauge inflight "Requests admitted but not yet answered.";
        counter accept_errors "`accept()` calls that returned an error (each backs off the accept loop).";
        counter wakeups "Wake-pipe signals delivered to event loops.";
        counter loop_events "Readiness events handled by the event loops, wake-pipe reads included.";
        gauge open_connections "Connections registered in an event-loop slab.";
        counter worker_panics "Batch workers lost to a panic (each failed its queue with `Internal` replies first).";
        counter keyed_requests "Requests admitted in keyed mode (trusted-device path).";
        counter keyless_requests "Requests admitted in keyless mode (stolen-weights path).";
    }
    histograms {
        seconds e2e "Enqueue-to-reply latency per answered request.";
        seconds forward "Batched-forward wall time, recorded once per answered request.";
        unitless depth "Per-connection in-flight depth sampled at each admission (dimensionless).";
        seconds queue_wait "Admission-to-batch-pop wait per answered request.";
        seconds batch_fill "Coalescing-window duration of the serving batch, once per answered request.";
        seconds writeback "Completion-to-socket-write latency per answered request.";
    }
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Relaxed-increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed-add helper.
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Relaxed-decrement helper for gauges.
    pub fn drop_one(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One shard's slice of the stats: which model it serves, whether its
/// worker is alive, and its per-shard latency distributions.
/// `Σ shards[·].forward.count == replies_ok` holds exactly on a drained
/// single-node server — every OK reply was produced by exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStatsSnapshot {
    /// Wire id of the model this shard serves.
    pub model: u16,
    /// Shard index within the model's shard set.
    pub shard: u16,
    /// Whether the shard's worker is alive. It turns false when the worker
    /// is lost to a panic; admission then skips the shard.
    pub active: bool,
    /// Batched-forward wall time for replies served by this shard.
    pub forward: HistogramSnapshot,
    /// Admission-to-batch-pop wait for replies served by this shard.
    pub queue_wait: HistogramSnapshot,
}

impl StatsSnapshot {
    /// Mean coalesced rows per forward call (0 when no batches ran).
    pub fn mean_batch_rows(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            // Expired rows never reach a forward, but they are a bounded
            // undercount; rows-per-batch is a capacity signal, not an
            // accounting identity.
            self.rows as f64 / self.batches as f64
        }
    }

    /// Difference between this snapshot and an `earlier` one from the same
    /// server run: counter deltas, interval histograms, and the interval
    /// length on the server's own uptime clock. Returns `None` unless both
    /// `snapshot_seq` and `uptime_ns` strictly increased — the same guard
    /// the load generator uses before quoting a server-side rate — so
    /// snapshots from different runs (or taken out of order) can never be
    /// diffed into nonsense.
    ///
    /// This is the one interval helper in the tree: loadgen's per-interval
    /// throughput report and the benchmark's phase windows are built from
    /// it. A Prometheus scraper windows the cumulative `/metrics` counters
    /// itself, with `rate()`.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> Option<StatsDelta> {
        if self.snapshot_seq <= earlier.snapshot_seq || self.uptime_ns <= earlier.uptime_ns {
            return None;
        }
        let shards = self
            .shards
            .iter()
            .map(|now| {
                let then = earlier
                    .shards
                    .iter()
                    .find(|s| s.model == now.model && s.shard == now.shard);
                ShardStatsSnapshot {
                    model: now.model,
                    shard: now.shard,
                    active: now.active,
                    // A shard with no earlier twin diffs against an implicit
                    // empty history.
                    forward: match then {
                        Some(t) => now.forward.delta_since(&t.forward),
                        None => now.forward.clone(),
                    },
                    queue_wait: match then {
                        Some(t) => now.queue_wait.delta_since(&t.queue_wait),
                        None => now.queue_wait.clone(),
                    },
                }
            })
            .collect();
        Some(self.table_delta(earlier, shards))
    }
}

impl StatsDelta {
    /// Interval length in seconds.
    pub fn secs(&self) -> f64 {
        self.interval_ns as f64 / 1e9
    }

    /// Converts an interval count into a per-second rate.
    pub fn rate(&self, count: u64) -> f64 {
        if self.interval_ns == 0 {
            0.0
        } else {
            count as f64 / self.secs()
        }
    }

    /// Answered requests per second over the interval.
    pub fn rps(&self) -> f64 {
        self.rate(self.replies_ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(999), 0); // sub-µs
        assert_eq!(Histogram::bucket_of(1_000), 0); // 1 µs
        assert_eq!(Histogram::bucket_of(1_999), 0);
        assert_eq!(Histogram::bucket_of(2_000), 1); // 2 µs
        assert_eq!(Histogram::bucket_of(1_000_000), 9); // 1 ms = 1000 µs, ilog2 = 9
        assert_eq!(Histogram::bucket_of(u64::MAX / 2), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        h.record(1_500); // bucket 0
        h.record(5_000); // bucket 2 (4-8 µs)
        h.record(5_500);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 12_000);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        assert!((s.mean_ns() - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates_inside_bucket() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000); // bucket 0: [0, 2) µs
        }
        h.record(1_000_000_000); // ~1 s outlier
        let s = h.snapshot();
        // Rank 50 of the 99 samples in bucket 0: 0 + 2000 * 50/99 = 1010 ns,
        // not the old 2000 ns bucket upper bound.
        assert_eq!(s.quantile_upper_ns(0.5), 1_010);
        // The outlier is the sole sample of its bucket, so q=1.0 still
        // reports that bucket's upper bound — nothing exceeded it.
        assert!(s.quantile_upper_ns(1.0) >= 1_000_000_000);
        assert_eq!(HistogramSnapshot::default().quantile_upper_ns(0.5), 0);
    }

    #[test]
    fn quantile_stays_within_bucket_bounds_and_is_monotone() {
        let h = Histogram::new();
        for i in 0..1000u64 {
            h.record(1_000 + i * 97); // spread over buckets 0..7
        }
        let s = h.snapshot();
        let mut prev = 0;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = s.quantile_upper_ns(q);
            assert!(v >= prev, "quantile must be monotone in q");
            prev = v;
        }
        // p99 of a distribution topping out below 98 µs must not report a
        // power-of-two upper bound above 128 µs.
        assert!(s.quantile_upper_ns(0.99) <= 128_000);
        // Exact-count semantics: the p50 rank sits in the bucket holding the
        // 500th sample, and interpolation never leaves that bucket.
        let p50 = s.quantile_upper_ns(0.5);
        assert!((32_000..=64_000).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn histogram_delta_since_yields_interval_counts() {
        let h = Histogram::new();
        h.record(1_500);
        let before = h.snapshot();
        h.record(1_500);
        h.record(5_000);
        let after = h.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_ns, 6_500);
        assert_eq!(d.buckets[0], 1);
        assert_eq!(d.buckets[2], 1);
        // Diffing against an empty default yields the full histogram.
        assert_eq!(after.delta_since(&HistogramSnapshot::default()), after);
        // A mismatched (newer) "earlier" saturates to zero, never wraps.
        let d = before.delta_since(&after);
        assert_eq!(d.count, 0);
        assert!(d.buckets.iter().all(|&b| b == 0));
    }

    #[test]
    fn stats_delta_since_diffs_counters_and_copies_gauges() {
        let m = Metrics::new();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.inflight);
        let s1 = m.snapshot();
        std::thread::sleep(std::time::Duration::from_millis(2));
        Metrics::add(&m.requests, 3);
        Metrics::bump(&m.keyed_requests);
        m.e2e.record(10_000);
        let s2 = m.snapshot();
        let d = s2.delta_since(&s1).expect("ordered snapshots diff");
        assert_eq!(d.requests, 3);
        assert_eq!(d.keyed_requests, 1);
        assert_eq!(d.inflight, 1); // gauge copied, not diffed
        assert_eq!(d.e2e.count, 1);
        assert!(d.interval_ns > 0);
        assert!(d.rate(d.requests) > 0.0);
        // Reversed order is refused outright.
        assert!(s1.delta_since(&s2).is_none());
        assert!(s1.delta_since(&s1.clone()).is_none());
    }

    #[test]
    fn stats_delta_matches_shards_by_identity() {
        let mut s1 = StatsSnapshot {
            snapshot_seq: 1,
            uptime_ns: 100,
            ..StatsSnapshot::default()
        };
        let fwd = HistogramSnapshot {
            count: 5,
            sum_ns: 50,
            ..HistogramSnapshot::default()
        };
        s1.shards.push(ShardStatsSnapshot {
            model: 0,
            shard: 0,
            active: true,
            forward: fwd.clone(),
            queue_wait: HistogramSnapshot::default(),
        });
        let mut s2 = s1.clone();
        s2.snapshot_seq = 2;
        s2.uptime_ns = 200;
        s2.shards[0].forward.count = 9;
        s2.shards[0].forward.sum_ns = 90;
        // A shard born during the interval has no earlier twin.
        s2.shards.push(ShardStatsSnapshot {
            model: 0,
            shard: 1,
            active: true,
            forward: fwd.clone(),
            queue_wait: HistogramSnapshot::default(),
        });
        let d = s2.delta_since(&s1).unwrap();
        assert_eq!(d.shards.len(), 2);
        assert_eq!(d.shards[0].forward.count, 4); // 9 - 5
        assert_eq!(d.shards[1].forward.count, 5); // full young totals
    }

    #[test]
    fn value_buckets_and_depth_recording() {
        assert_eq!(Histogram::value_bucket_of(0), 0);
        assert_eq!(Histogram::value_bucket_of(1), 0);
        assert_eq!(Histogram::value_bucket_of(2), 1);
        assert_eq!(Histogram::value_bucket_of(8), 3);
        assert_eq!(Histogram::value_bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = Histogram::new();
        h.record_value(1);
        h.record_value(8);
        h.record_value(9);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 18); // raw values, so mean_ns() is the mean depth
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[3], 2);
        assert!((s.mean_ns() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn inflight_gauge_rises_and_falls() {
        let m = Metrics::new();
        Metrics::bump(&m.inflight);
        Metrics::bump(&m.inflight);
        Metrics::drop_one(&m.inflight);
        assert_eq!(m.snapshot().inflight, 1);
    }

    #[test]
    fn metrics_snapshot_copies_counters() {
        let m = Metrics::new();
        Metrics::bump(&m.requests);
        Metrics::add(&m.rows, 7);
        m.e2e.record(10_000);
        let s = m.snapshot();
        assert_eq!(s.requests, 1);
        assert_eq!(s.rows, 7);
        assert_eq!(s.e2e.count, 1);
        assert_eq!(s.forward.count, 0);
    }

    #[test]
    fn merge_aggregates_buckets_counts_and_sums() {
        let a = Histogram::new();
        a.record(1_500); // bucket 0
        a.record(5_000); // bucket 2
        let b = Histogram::new();
        b.record(5_500); // bucket 2
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 12_000);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[2], 2);

        // Default (bucket-less) snapshots merge in either direction.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&a.snapshot());
        assert_eq!(empty, a.snapshot());
        let mut s2 = a.snapshot();
        s2.merge(&HistogramSnapshot::default());
        assert_eq!(s2, a.snapshot());
    }

    #[test]
    fn snapshot_stamps_uptime_and_sequence() {
        let m = Metrics::new();
        let s1 = m.snapshot();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let s2 = m.snapshot();
        assert_eq!(s1.snapshot_seq, 1);
        assert_eq!(s2.snapshot_seq, 2);
        assert!(s2.uptime_ns > s1.uptime_ns);
        assert!(s1.uptime_ns > 0);
    }

    #[test]
    fn mean_batch_rows() {
        let s = StatsSnapshot {
            rows: 64,
            batches: 4,
            ..StatsSnapshot::default()
        };
        assert!((s.mean_batch_rows() - 16.0).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().mean_batch_rows(), 0.0);
    }
}
