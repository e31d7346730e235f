//! # hpnn-trace
//!
//! Lightweight span tracing for the HPNN serving stack: answers "where did
//! the time go" for one request, one batch, or one pool task, where the
//! process-wide latency histograms in `hpnn-serve` only answer it in
//! aggregate.
//!
//! ## Model
//!
//! * **Spans** are half-open time intervals `[start, end)` with a static
//!   name and an optional `u64` argument (rows, a correlation ID, …),
//!   recorded either by an RAII guard ([`span!`], [`span_dyn`]) or with
//!   explicit endpoints ([`span_between`], [`span_since`]). **Instants**
//!   ([`instant!`]) are zero-width markers.
//! * Timestamps are nanoseconds since a single **process epoch** (the first
//!   time the tracer is touched), so events from every thread share one
//!   timeline.
//! * Each thread records into its own fixed-capacity **ring buffer**; when
//!   the ring wraps, the oldest events are overwritten and counted in
//!   [`Trace::dropped`]. Recording never blocks and never allocates after
//!   the ring exists.
//! * A **global switch** gates everything: `HPNN_TRACE=1` in the
//!   environment or [`set_enabled`]`(true)`. While disabled, every
//!   recording entry point is a single relaxed atomic load.
//!
//! [`take`] collects every thread's ring into a [`Trace`], and
//! [`Trace::to_chrome_json`] serializes it in the Chrome trace-event
//! format, loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ## Example
//!
//! ```
//! hpnn_trace::set_enabled(true);
//! {
//!     let _outer = hpnn_trace::span!("request", 42);
//!     let _inner = hpnn_trace::span!("forward");
//! } // guards drop here, recording both spans
//! hpnn_trace::instant!("checkpoint");
//! let trace = hpnn_trace::take();
//! hpnn_trace::set_enabled(false);
//! assert!(trace.events.iter().any(|e| e.name == "request"));
//! let json = trace.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity in events (overridable with the
/// `HPNN_TRACE_CAP` environment variable, rounded up to a power of two).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Sentinel for "no argument" inside a ring slot (an explicit argument of
/// `u64::MAX` is indistinguishable from none).
const ARG_NONE: u64 = u64::MAX;

const KIND_SPAN: u8 = 0;
const KIND_INSTANT: u8 = 1;

// ---------------------------------------------------------------------------
// Global switch
// ---------------------------------------------------------------------------

/// 0 = not yet initialized from the environment, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether tracing is currently enabled.
///
/// This is the disabled-path cost of every recording macro: one relaxed
/// atomic load and a branch. The first call initializes the switch from the
/// `HPNN_TRACE` environment variable (any non-empty value other than `0`
/// enables it).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let _ = epoch(); // pin the epoch as early as possible
    let on = std::env::var("HPNN_TRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Turns tracing on or off programmatically, overriding `HPNN_TRACE`.
pub fn set_enabled(on: bool) {
    let _ = epoch();
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Process epoch
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Converts an [`Instant`] into nanoseconds since the trace epoch
/// (saturating to 0 for instants captured before the epoch was pinned).
#[inline]
pub fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Name registry
// ---------------------------------------------------------------------------

/// Interned span names; a ring slot stores the `u16` index.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Interns `name`, returning its stable id. Names are deduplicated by
/// string content; the table never shrinks.
pub fn register_name(name: &'static str) -> u16 {
    let mut names = NAMES.lock().unwrap();
    if let Some(i) = names.iter().position(|n| *n == name) {
        return i as u16;
    }
    assert!(names.len() < u16::MAX as usize, "trace name table full");
    names.push(name);
    (names.len() - 1) as u16
}

// ---------------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------------

/// One ring slot. Every field is an atomic so the (single-writer) owner
/// thread and a concurrent drain never form a data race; `seq` is a
/// seqlock-style generation stamp (`event index + 1`) that lets the drain
/// discard slots it caught mid-overwrite.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    ts_ns: AtomicU64,
    dur_ns: AtomicU64,
    /// `name_id` in bits 0..16, event kind in bits 32..40.
    meta: AtomicU64,
    arg: AtomicU64,
}

struct Ring {
    tid: u64,
    thread_name: String,
    mask: u64,
    slots: Box<[Slot]>,
    /// Next event index (monotonic; slot = `head & mask`). Written only by
    /// the owner thread.
    head: AtomicU64,
    /// First event index still owed to the next [`take`]; advanced by
    /// drains, never by the owner.
    floor: AtomicU64,
}

impl Ring {
    fn push(&self, ts_ns: u64, dur_ns: u64, name_id: u16, kind: u8, arg: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & self.mask) as usize];
        // Invalidate, write fields, revalidate: a concurrent drain either
        // sees the final stamp (and a fully written slot, via the release
        // store) or skips the slot.
        slot.seq.store(0, Ordering::Release);
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.meta.store(
            u64::from(name_id) | (u64::from(kind) << 32),
            Ordering::Relaxed,
        );
        slot.arg.store(arg, Ordering::Relaxed);
        slot.seq.store(head + 1, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }
}

/// Every ring ever created, kept alive past thread exit so late drains
/// still see a finished worker's events.
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Per-thread ring capacity (power of two).
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("HPNN_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY)
            .clamp(64, 1 << 20)
            .next_power_of_two()
    })
}

fn new_ring() -> Arc<Ring> {
    let cap = ring_capacity();
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let thread_name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let ring = Arc::new(Ring {
        tid,
        thread_name,
        mask: (cap - 1) as u64,
        slots: (0..cap).map(|_| Slot::default()).collect(),
        head: AtomicU64::new(0),
        floor: AtomicU64::new(0),
    });
    RINGS.lock().unwrap().push(Arc::clone(&ring));
    ring
}

thread_local! {
    static LOCAL_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

fn record(ts_ns: u64, dur_ns: u64, name_id: u16, kind: u8, arg: u64) {
    LOCAL_RING.with(|cell| {
        cell.get_or_init(new_ring)
            .push(ts_ns, dur_ns, name_id, kind, arg);
    });
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII span guard: stamps the start time at construction and records the
/// completed span when dropped. Inert (a few stores, no ring access) while
/// tracing is disabled.
#[must_use = "a span guard records on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    start_ns: u64,
    name_id: u16,
    arg: u64,
    armed: bool,
}

impl SpanGuard {
    #[inline]
    fn inert() -> Self {
        SpanGuard {
            start_ns: 0,
            name_id: 0,
            arg: ARG_NONE,
            armed: false,
        }
    }

    fn armed(name_id: u16, arg: Option<u64>) -> Self {
        SpanGuard {
            start_ns: now_ns(),
            name_id,
            arg: arg.unwrap_or(ARG_NONE),
            armed: true,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed || !enabled() {
            return;
        }
        let end = now_ns();
        record(
            self.start_ns,
            end.saturating_sub(self.start_ns),
            self.name_id,
            KIND_SPAN,
            self.arg,
        );
    }
}

/// Implementation behind [`span!`]: `site` caches the interned name id per
/// call site so the enabled path is lookup-free after first use.
#[inline]
pub fn span_site(name: &'static str, site: &'static OnceLock<u16>, arg: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    SpanGuard::armed(*site.get_or_init(|| register_name(name)), arg)
}

/// Opens a span whose name is chosen at runtime (e.g. a layer name). Pays a
/// registry lookup per call when enabled; still one atomic load when
/// disabled.
#[inline]
pub fn span_dyn(name: &'static str, arg: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    SpanGuard::armed(register_name(name), arg)
}

/// Records a completed span with explicit endpoints — for stages whose
/// start was stamped on another code path (e.g. queue wait measured from an
/// admission timestamp).
pub fn span_between(name: &'static str, start: Instant, end: Instant, arg: Option<u64>) {
    if !enabled() {
        return;
    }
    let start_ns = ns_since_epoch(start);
    let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
    record(
        start_ns,
        dur_ns,
        register_name(name),
        KIND_SPAN,
        arg.unwrap_or(ARG_NONE),
    );
}

/// Records a completed span from `start` to now.
pub fn span_since(name: &'static str, start: Instant, arg: Option<u64>) {
    if !enabled() {
        return;
    }
    span_between(name, start, Instant::now(), arg);
}

/// Implementation behind [`instant!`].
#[inline]
pub fn instant_site(name: &'static str, site: &'static OnceLock<u16>, arg: Option<u64>) {
    if !enabled() {
        return;
    }
    record(
        now_ns(),
        0,
        *site.get_or_init(|| register_name(name)),
        KIND_INSTANT,
        arg.unwrap_or(ARG_NONE),
    );
}

/// Opens an RAII span: `span!("name")` or `span!("name", arg)` where `arg`
/// is any integer (cast to `u64`). Bind the guard to a named `_`-prefixed
/// variable so it lives to the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __HPNN_TRACE_SITE: ::std::sync::OnceLock<u16> = ::std::sync::OnceLock::new();
        $crate::span_site($name, &__HPNN_TRACE_SITE, ::core::option::Option::None)
    }};
    ($name:literal, $arg:expr) => {{
        static __HPNN_TRACE_SITE: ::std::sync::OnceLock<u16> = ::std::sync::OnceLock::new();
        $crate::span_site(
            $name,
            &__HPNN_TRACE_SITE,
            ::core::option::Option::Some(($arg) as u64),
        )
    }};
}

/// Records a zero-width instant event: `instant!("name")` or
/// `instant!("name", arg)`.
#[macro_export]
macro_rules! instant {
    ($name:literal) => {{
        static __HPNN_TRACE_SITE: ::std::sync::OnceLock<u16> = ::std::sync::OnceLock::new();
        $crate::instant_site($name, &__HPNN_TRACE_SITE, ::core::option::Option::None)
    }};
    ($name:literal, $arg:expr) => {{
        static __HPNN_TRACE_SITE: ::std::sync::OnceLock<u16> = ::std::sync::OnceLock::new();
        $crate::instant_site(
            $name,
            &__HPNN_TRACE_SITE,
            ::core::option::Option::Some(($arg) as u64),
        )
    }};
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (`ph: "X"` in Chrome JSON).
    Span,
    /// A zero-width marker (`ph: "i"`).
    Instant,
}

/// One collected event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Start time, nanoseconds since the process epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Interned span name.
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Recording thread's trace id (see [`Trace::threads`]).
    pub tid: u64,
    /// Optional user argument (rows, correlation id, …).
    pub arg: Option<u64>,
}

/// A recording thread, for `tid` resolution in viewers.
#[derive(Debug, Clone)]
pub struct ThreadInfo {
    /// Trace thread id, as carried by [`TraceEvent::tid`].
    pub tid: u64,
    /// OS thread name at ring creation.
    pub name: String,
}

/// A drained collection of events from every thread.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by start time (then thread id).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites since the previous [`take`].
    pub dropped: u64,
    /// Threads that recorded at least one ring.
    pub threads: Vec<ThreadInfo>,
}

fn collect_ring(ring: &Ring, events: &mut Vec<TraceEvent>, names: &[&'static str]) -> (u64, u64) {
    let head = ring.head.load(Ordering::Acquire);
    let floor = ring.floor.load(Ordering::Acquire);
    let cap = ring.slots.len() as u64;
    let start = floor.max(head.saturating_sub(cap));
    for n in start..head {
        let slot = &ring.slots[(n & ring.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != n + 1 {
            continue; // being overwritten right now
        }
        let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
        let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
        let meta = slot.meta.load(Ordering::Relaxed);
        let arg = slot.arg.load(Ordering::Relaxed);
        if slot.seq.load(Ordering::Acquire) != n + 1 {
            continue; // overwritten mid-read; discard the torn slot
        }
        let name_id = (meta & 0xFFFF) as usize;
        let kind = if (meta >> 32) as u8 == KIND_INSTANT {
            EventKind::Instant
        } else {
            EventKind::Span
        };
        events.push(TraceEvent {
            ts_ns,
            dur_ns,
            name: names.get(name_id).copied().unwrap_or("?"),
            kind,
            tid: ring.tid,
            arg: (arg != ARG_NONE).then_some(arg),
        });
    }
    (start - floor, head)
}

/// Collects every thread's events and marks them consumed, so the next
/// drain starts fresh. Events recorded concurrently with the drain are kept
/// for the next one.
pub fn take() -> Trace {
    let names: Vec<&'static str> = NAMES.lock().unwrap().clone();
    let rings: Vec<Arc<Ring>> = RINGS.lock().unwrap().clone();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut threads = Vec::with_capacity(rings.len());
    for ring in &rings {
        let (ring_dropped, head) = collect_ring(ring, &mut events, &names);
        dropped += ring_dropped;
        ring.floor.store(head, Ordering::Release);
        threads.push(ThreadInfo {
            tid: ring.tid,
            name: ring.thread_name.clone(),
        });
    }
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    Trace {
        events,
        dropped,
        threads,
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// quotes, backslashes and every control character below U+0020.
fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Trace {
    /// Serializes the trace in the Chrome trace-event JSON format (an
    /// object with a `traceEvents` array of `X`/`i`/`M` events; timestamps
    /// in microseconds with nanosecond precision). Load the result in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let push_sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
        };
        // Metadata: process and per-thread names.
        push_sep(&mut out, &mut first);
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"hpnn\"}}",
        );
        for t in &self.threads {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
                t.tid
            ));
            json_escape_into(&mut out, &t.name);
            out.push_str("\"}}");
        }
        for e in &self.events {
            push_sep(&mut out, &mut first);
            let ts_us = e.ts_ns as f64 / 1_000.0;
            out.push_str("{\"name\":\"");
            json_escape_into(&mut out, e.name);
            out.push_str("\",\"pid\":1,");
            match e.kind {
                EventKind::Span => {
                    let dur_us = e.dur_ns as f64 / 1_000.0;
                    out.push_str(&format!(
                        "\"ph\":\"X\",\"tid\":{},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3}",
                        e.tid
                    ));
                }
                EventKind::Instant => {
                    out.push_str(&format!(
                        "\"ph\":\"i\",\"s\":\"t\",\"tid\":{},\"ts\":{ts_us:.3}",
                        e.tid
                    ));
                }
            }
            if let Some(arg) = e.arg {
                out.push_str(&format!(",\"args\":{{\"v\":{arg}}}"));
            }
            out.push('}');
        }
        if self.dropped > 0 {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"name\":\"trace.dropped\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\
                 \"ts\":0.0,\"args\":{{\"dropped\":{}}}}}",
                self.dropped
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Tracing state is process-global; tests that flip it are serialized.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Minimal JSON well-formedness check (objects, arrays, strings,
    /// numbers, literals) — no serde in the workspace.
    fn json_parses(s: &str) -> bool {
        fn skip_ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && (b[i] as char).is_ascii_whitespace() {
                i += 1;
            }
            i
        }
        fn value(b: &[u8], i: usize) -> Option<usize> {
            let i = skip_ws(b, i);
            match *b.get(i)? {
                b'{' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b'}') {
                        return Some(i + 1);
                    }
                    loop {
                        i = string(b, skip_ws(b, i))?;
                        i = skip_ws(b, i);
                        if b.get(i) != Some(&b':') {
                            return None;
                        }
                        i = value(b, i + 1)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b'}' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'[' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b']') {
                        return Some(i + 1);
                    }
                    loop {
                        i = value(b, i)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b']' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'"' => string(b, i),
                b't' => b[i..].starts_with(b"true").then_some(i + 4),
                b'f' => b[i..].starts_with(b"false").then_some(i + 5),
                b'n' => b[i..].starts_with(b"null").then_some(i + 4),
                _ => number(b, i),
            }
        }
        fn string(b: &[u8], i: usize) -> Option<usize> {
            if b.get(i) != Some(&b'"') {
                return None;
            }
            let mut i = i + 1;
            while i < b.len() {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => return Some(i + 1),
                    _ => i += 1,
                }
            }
            None
        }
        fn number(b: &[u8], mut i: usize) -> Option<usize> {
            let start = i;
            if b.get(i) == Some(&b'-') {
                i += 1;
            }
            while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                i += 1;
            }
            (i > start).then_some(i)
        }
        let b = s.as_bytes();
        match value(b, 0) {
            Some(end) => skip_ws(b, end) == b.len(),
            None => false,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        set_enabled(false);
        let _ = take();
        {
            let _s = span!("test.disabled");
            instant!("test.disabled_instant");
        }
        span_since("test.disabled_since", Instant::now(), None);
        let t = take();
        assert!(!t.events.iter().any(|e| e.name.starts_with("test.disabled")));
    }

    #[test]
    fn spans_instants_and_explicit_endpoints_record() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        let t0 = Instant::now();
        {
            let _outer = span!("test.outer", 42);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span!("test.inner");
                std::thread::sleep(Duration::from_millis(1));
            }
            instant!("test.marker", 7);
        }
        span_between("test.explicit", t0, Instant::now(), Some(3));
        drop(span_dyn("test.dynamic", None));
        let t = take();
        set_enabled(false);

        let find = |name: &str| {
            t.events
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("missing event {name}"))
        };
        let outer = find("test.outer");
        let inner = find("test.inner");
        assert_eq!(outer.kind, EventKind::Span);
        assert_eq!(outer.arg, Some(42));
        assert!(outer.dur_ns >= 3_000_000, "outer {} ns", outer.dur_ns);
        // The inner span nests inside the outer one on the same thread.
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
        let marker = find("test.marker");
        assert_eq!(marker.kind, EventKind::Instant);
        assert_eq!((marker.dur_ns, marker.arg), (0, Some(7)));
        let explicit = find("test.explicit");
        assert!(explicit.dur_ns >= 3_000_000);
        find("test.dynamic");
        // take() consumed everything.
        assert!(take().events.is_empty());
    }

    #[test]
    fn events_from_other_threads_are_collected() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        let my_tid = {
            let _s = span!("test.main_thread");
            0
        };
        let _ = my_tid;
        std::thread::Builder::new()
            .name("trace-test-worker".into())
            .spawn(|| {
                let _s = span!("test.worker_thread");
            })
            .unwrap()
            .join()
            .unwrap();
        let t = take();
        set_enabled(false);
        let main_ev = t.events.iter().find(|e| e.name == "test.main_thread");
        let worker_ev = t.events.iter().find(|e| e.name == "test.worker_thread");
        let (main_ev, worker_ev) = (main_ev.unwrap(), worker_ev.unwrap());
        assert_ne!(main_ev.tid, worker_ev.tid);
        let worker_thread = t.threads.iter().find(|ti| ti.tid == worker_ev.tid).unwrap();
        assert_eq!(worker_thread.name, "trace-test-worker");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        let cap = ring_capacity();
        for i in 0..3 * cap {
            instant!("test.flood", i);
        }
        let t = take();
        set_enabled(false);
        let flood: Vec<_> = t.events.iter().filter(|e| e.name == "test.flood").collect();
        assert!(
            flood.len() <= cap,
            "{} events exceed capacity {cap}",
            flood.len()
        );
        // The survivors are the newest events and the drop counter covers
        // (at least) the overwritten ones; a handful of slots may also be
        // discarded as torn, so compare with slack.
        assert!(t.dropped >= (2 * cap - 2) as u64, "dropped {}", t.dropped);
        let max_arg = flood.iter().filter_map(|e| e.arg).max().unwrap();
        assert_eq!(max_arg, (3 * cap - 1) as u64, "newest event must survive");
    }

    #[test]
    fn chrome_json_is_valid_monotonic_and_paired() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        {
            let _a = span!("test.json_a", 1);
            let _b = span!("test.json_b");
        }
        instant!("test.json_i");
        let t = take();
        set_enabled(false);
        let json = t.to_chrome_json();
        assert!(json_parses(&json), "invalid JSON: {json}");
        assert!(json.contains("\"test.json_a\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        // Events are emitted in nondecreasing ts order, and every duration
        // event is a complete X (a matched begin/end pair in one record)
        // with a nonnegative dur.
        let mut last_ts = f64::MIN;
        for chunk in json.split("\"ts\":").skip(1) {
            let ts: f64 = chunk.split([',', '}']).next().unwrap().parse().unwrap();
            assert!(ts >= last_ts, "ts went backwards: {ts} < {last_ts}");
            last_ts = ts;
        }
        for chunk in json.split("\"dur\":").skip(1) {
            let dur: f64 = chunk.split([',', '}']).next().unwrap().parse().unwrap();
            assert!(dur >= 0.0);
        }
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            t.events
                .iter()
                .filter(|e| e.kind == EventKind::Span)
                .count(),
            "every span serializes as exactly one X event"
        );
    }

    /// Everything a JSON string literal must escape, byte for byte: every
    /// control character as `\u00XX`, quotes and backslashes with a
    /// backslash, and everything else — multi-byte characters included —
    /// passed through unchanged.
    #[test]
    fn json_escape_writes_exact_output() {
        let escaped = |s: &str| {
            let mut out = String::from("prefix:");
            json_escape_into(&mut out, s);
            out
        };
        for byte in 0u8..0x20 {
            let raw = char::from(byte).to_string();
            assert_eq!(
                escaped(&raw),
                format!("prefix:\\u{byte:04x}"),
                "byte {byte:#04x}"
            );
        }
        let table = [
            ("", "prefix:"),
            ("\"", "prefix:\\\""),
            ("\\", "prefix:\\\\"),
            ("\n\t\r", "prefix:\\u000a\\u0009\\u000d"),
            ("say \"hi\"", "prefix:say \\\"hi\\\""),
            ("back\\slash / é → 🔑", "prefix:back\\\\slash / é → 🔑"),
            ("\u{7f}", "prefix:\u{7f}"),
        ];
        for (raw, want) in table {
            assert_eq!(escaped(raw), want, "escaping {raw:?}");
        }
    }

    #[test]
    fn register_name_deduplicates() {
        let a = register_name("test.same_name");
        let b = register_name("test.same_name");
        assert_eq!(a, b);
    }

    #[test]
    fn ns_since_epoch_saturates_and_orders() {
        let t0 = Instant::now();
        let a = ns_since_epoch(t0);
        std::thread::sleep(Duration::from_millis(1));
        let b = ns_since_epoch(Instant::now());
        assert!(b > a);
        assert!(now_ns() >= b);
    }
}
