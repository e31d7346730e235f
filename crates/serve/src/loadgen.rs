//! Closed-loop load generator for `hpnn-serve`.
//!
//! Spawns N client threads against a running server; every client owns one
//! connection and keeps up to [`depth`](LoadgenConfig::depth) requests in
//! flight on it (closed loop per slot), so offered concurrency equals
//! `clients * depth`. Depth 1 reproduces the classic lock-step client; a
//! deeper window exercises protocol v2 pipelining and keeps the server's
//! micro-batching window full from far fewer connections. Inputs are
//! generated from a forked deterministic [`Rng`] stream per client, making
//! runs reproducible.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hpnn_tensor::Rng;

use crate::client::{ServeError, Session, Ticket};
use crate::metrics::{Histogram, HistogramSnapshot, StatsDelta, StatsSnapshot};
use crate::protocol::{ErrorCode, InferMode};

/// Connection lifecycle pattern for a load run.
///
/// The closed-loop request engine is the same in every pattern; what
/// varies is how clients treat their connections around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPattern {
    /// Every client opens one connection and keeps it for the whole run.
    Steady,
    /// Clients connect (and `HELLO`), then hold the connection **idle**
    /// for the given duration before issuing any requests. With
    /// `requests_per_client = 0` this measures pure per-connection
    /// footprint — the event-loop server should hold thousands of these
    /// on a fixed thread pool.
    Idle(Duration),
    /// Clients tear down and re-open their connection after every `n`
    /// completed requests, exercising accept, slab slot reuse, and
    /// connection retirement under churn.
    Churn(usize),
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7433`.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Target model wire id.
    pub model: u16,
    /// Keyed or keyless inference.
    pub mode: InferMode,
    /// Rows per request (client-side batch; 1 = single sample).
    pub rows_per_request: usize,
    /// Per-request deadline in microseconds; 0 = none.
    pub deadline_us: u32,
    /// Retry `BUSY` replies until the request lands (otherwise count and
    /// move on).
    pub retry_busy: bool,
    /// Seed for the per-client input streams.
    pub seed: u64,
    /// Pipelining window: requests each connection keeps in flight
    /// (1 = lock-step).
    pub depth: usize,
    /// Connection lifecycle: steady, idle-hold, or churn.
    pub pattern: LoadPattern,
    /// Sampling interval for per-interval server throughput: a sampler
    /// connection takes `STATS` on this tick during the measurement window
    /// and the report diffs consecutive snapshots into
    /// [`LoadgenReport::intervals`] with [`StatsSnapshot::delta_since`].
    /// `Duration::ZERO` disables sampling.
    pub sample_interval: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7433".into(),
            clients: 16,
            requests_per_client: 64,
            model: 0,
            mode: InferMode::Keyed,
            rows_per_request: 1,
            deadline_us: 0,
            retry_busy: true,
            seed: 42,
            depth: 1,
            pattern: LoadPattern::Steady,
            sample_interval: Duration::from_secs(1),
        }
    }
}

/// Aggregated outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests issued (busy retries are not counted again).
    pub requests: u64,
    /// Requests answered with logits.
    pub ok: u64,
    /// `BUSY` replies observed (retries included).
    pub busy: u64,
    /// Requests expired server-side.
    pub expired: u64,
    /// Transport/protocol/server errors.
    pub errors: u64,
    /// Server-rejected requests by [`ErrorCode`] — the per-code breakdown
    /// of typed `ERROR` replies inside `errors`.
    pub error_codes: BTreeMap<ErrorCode, u64>,
    /// Total logit rows received.
    pub rows_ok: u64,
    /// Wall-clock of the measurement window.
    pub elapsed: Duration,
    /// Client-observed request latency (send to reply), merged from every
    /// client's local histogram.
    pub latency: HistogramSnapshot,
    /// Server `STATS` taken right before the run started (from the probe
    /// connection); `None` if the fetch failed.
    pub server_before: Option<StatsSnapshot>,
    /// Server `STATS` taken right after every client finished.
    pub server_after: Option<StatsSnapshot>,
    /// Per-interval server stats over the measurement window, one entry per
    /// completed [`sample_interval`](LoadgenConfig::sample_interval) tick
    /// (the trailing partial interval is dropped). Empty when sampling was
    /// disabled or the run was shorter than one tick.
    pub intervals: Vec<StatsDelta>,
}

impl LoadgenReport {
    /// Successful requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ok as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Successful rows per second (the batching-aware throughput number).
    pub fn throughput_rows_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.rows_ok as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Server-side successful replies per second, computed by diffing the
    /// two bracketing `STATS` snapshots over the server's own uptime clock
    /// (so it is immune to client-side scheduling noise). `None` when
    /// either snapshot is missing or they do not come from one monotonic
    /// server run (`snapshot_seq` and `uptime_ns` must both increase).
    pub fn server_rps(&self) -> Option<f64> {
        let (before, after) = (self.server_before.as_ref()?, self.server_after.as_ref()?);
        if after.snapshot_seq <= before.snapshot_seq || after.uptime_ns <= before.uptime_ns {
            return None;
        }
        let replies = after.replies_ok.saturating_sub(before.replies_ok) as f64;
        let secs = (after.uptime_ns - before.uptime_ns) as f64 / 1e9;
        Some(replies / secs)
    }

    /// `(min, mean, max)` of the per-interval server reply rate over the
    /// measurement window; `None` when no full interval completed. The mean
    /// weights by interval length (total replies over total time), so it is
    /// not skewed by the odd stretched tick.
    pub fn interval_rps(&self) -> Option<(f64, f64, f64)> {
        if self.intervals.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let (mut replies, mut ns) = (0u64, 0u64);
        for d in &self.intervals {
            let r = d.rps();
            min = min.min(r);
            max = max.max(r);
            replies += d.replies_ok;
            ns += d.interval_ns;
        }
        Some((min, replies as f64 / (ns as f64 / 1e9), max))
    }
}

/// One in-flight slot of a client's pipelining window.
struct Inflight {
    ticket: Ticket,
    /// First-submission time: busy retries keep it, so latency covers the
    /// whole request including backoff.
    sent: Instant,
    input: usize,
}

/// Runs the configured load and returns the aggregate report.
///
/// # Errors
///
/// Returns the first connection-phase error (including `depth == 0`);
/// errors after the run starts are counted in the report instead.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    if cfg.depth == 0 {
        return Err(ServeError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "pipelining depth must be at least 1",
        )));
    }
    if cfg.pattern == LoadPattern::Churn(0) {
        return Err(ServeError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "churn interval must be at least 1 request",
        )));
    }
    // Learn the model's input width from the server itself.
    let mut probe = Session::connect(&cfg.addr)?;
    let models = probe.hello("hpnn-loadgen")?;
    let info = models
        .iter()
        .find(|m| m.id == cfg.model)
        .ok_or(ServeError::Refused {
            code: ErrorCode::UnknownModel,
            message: format!("model {} not advertised by server", cfg.model),
        })?;
    let in_features = info.in_features;
    let server_before = probe.stats().ok();
    drop(probe);

    // The extra participants are this thread — which stamps the measurement
    // start only once every client is connected, has its inputs
    // pre-generated, and is parked at the barrier, so `elapsed` covers wire
    // + inference work, not setup — and, when sampling is on, the stats
    // sampler below.
    let sampling = !cfg.sample_interval.is_zero();
    let barrier = Arc::new(Barrier::new(cfg.clients + 1 + usize::from(sampling)));
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler = sampling.then(|| {
        let addr = cfg.addr.clone();
        let interval = cfg.sample_interval;
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&sampler_stop);
        thread::Builder::new()
            .name("hpnn-loadgen-sampler".into())
            .spawn(move || -> Vec<StatsSnapshot> {
                // Connect before the barrier so a failed connect cannot
                // deadlock the run; a dead sampler just means no intervals.
                let session = Session::connect(&addr)
                    .map_err(ServeError::Io)
                    .and_then(|mut s| s.hello("hpnn-loadgen").map(|_| s));
                barrier.wait();
                let Ok(mut session) = session else {
                    return Vec::new();
                };
                let mut snaps = Vec::new();
                if let Ok(s) = session.stats() {
                    snaps.push(s);
                }
                loop {
                    let wake = Instant::now() + interval;
                    while Instant::now() < wake {
                        if stop.load(Ordering::Acquire) {
                            return snaps;
                        }
                        thread::sleep(Duration::from_millis(2).min(interval));
                    }
                    match session.stats() {
                        Ok(s) => snaps.push(s),
                        Err(_) => return snaps,
                    }
                }
            })
            .expect("spawn loadgen sampler")
    });
    let ok = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let expired = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let rows_ok = Arc::new(AtomicU64::new(0));
    let error_codes = Arc::new(Mutex::new(BTreeMap::<ErrorCode, u64>::new()));

    let mut rng = Rng::new(cfg.seed);
    let mut handles = Vec::with_capacity(cfg.clients);
    for client_idx in 0..cfg.clients {
        let cfg = cfg.clone();
        let barrier = Arc::clone(&barrier);
        let ok = Arc::clone(&ok);
        let busy = Arc::clone(&busy);
        let expired = Arc::clone(&expired);
        let errors = Arc::clone(&errors);
        let rows_ok = Arc::clone(&rows_ok);
        let error_codes = Arc::clone(&error_codes);
        let mut client_rng = rng.fork(client_idx as u64);
        handles.push(
            thread::Builder::new()
                .name(format!("hpnn-loadgen-{client_idx}"))
                .spawn(move || -> HistogramSnapshot {
                    // Each client records into its own histogram (no shared
                    // cache line); the run merges them at the end.
                    let latency = Histogram::new();
                    let mut session = match Session::connect(&cfg.addr)
                        .map_err(ServeError::Io)
                        .and_then(|mut s| s.hello("hpnn-loadgen").map(|_| s))
                    {
                        Ok(s) => s,
                        Err(_) => {
                            errors.fetch_add(cfg.requests_per_client as u64, Ordering::Relaxed);
                            barrier.wait();
                            return latency.snapshot();
                        }
                    };
                    // Pre-generate inputs so the measurement window holds
                    // only wire + inference work.
                    let row_len = cfg.rows_per_request * in_features;
                    let inputs: Vec<Vec<f32>> = (0..cfg.requests_per_client)
                        .map(|_| {
                            let mut v = vec![0.0f32; row_len];
                            client_rng.fill_uniform(&mut v, -1.0, 1.0);
                            v
                        })
                        .collect();
                    barrier.wait();
                    if let LoadPattern::Idle(hold) = cfg.pattern {
                        // Park on the open connection: the server must hold
                        // it (and thousands of siblings) without dedicating
                        // a thread to it.
                        thread::sleep(hold);
                    }

                    let mut window: VecDeque<Inflight> = VecDeque::with_capacity(cfg.depth);
                    let mut next = 0usize;
                    // Churn pattern: reconnect after every `churn` completed
                    // requests; the window never spans two connections.
                    let churn = match cfg.pattern {
                        LoadPattern::Churn(n) => Some(n),
                        _ => None,
                    };
                    let submit =
                        |session: &mut Session, input: usize, sent: Instant| -> Option<Inflight> {
                            match session.submit(
                                cfg.model,
                                cfg.mode,
                                cfg.deadline_us,
                                cfg.rows_per_request,
                                in_features,
                                inputs[input].clone(),
                            ) {
                                Ok(ticket) => Some(Inflight {
                                    ticket,
                                    sent,
                                    input,
                                }),
                                Err(_) => None,
                            }
                        };
                    let mut chunk_end = match churn {
                        Some(n) => inputs.len().min(n),
                        None => inputs.len(),
                    };
                    'run: loop {
                        // Refill the window, then resolve its oldest slot.
                        while next < chunk_end && window.len() < cfg.depth {
                            match submit(&mut session, next, Instant::now()) {
                                Some(inflight) => window.push_back(inflight),
                                None => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    break 'run; // connection is unusable
                                }
                            }
                            next += 1;
                        }
                        let Some(slot) = window.pop_front() else {
                            if next >= inputs.len() {
                                break;
                            }
                            // Chunk boundary: replace the connection and
                            // carry on with the next chunk.
                            session = match Session::connect(&cfg.addr)
                                .map_err(ServeError::Io)
                                .and_then(|mut s| s.hello("hpnn-loadgen").map(|_| s))
                            {
                                Ok(s) => s,
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    break 'run;
                                }
                            };
                            chunk_end = match churn {
                                Some(n) => inputs.len().min(next + n),
                                None => inputs.len(),
                            };
                            continue;
                        };
                        match session.wait(slot.ticket) {
                            Ok(logits) => {
                                latency.record(slot.sent.elapsed().as_nanos() as u64);
                                ok.fetch_add(1, Ordering::Relaxed);
                                rows_ok.fetch_add(logits.rows as u64, Ordering::Relaxed);
                            }
                            Err(ServeError::Busy) => {
                                busy.fetch_add(1, Ordering::Relaxed);
                                if cfg.retry_busy {
                                    thread::sleep(Duration::from_micros(50));
                                    // Re-submit the same input, keeping its
                                    // original send stamp.
                                    match submit(&mut session, slot.input, slot.sent) {
                                        Some(inflight) => window.push_back(inflight),
                                        None => {
                                            errors.fetch_add(1, Ordering::Relaxed);
                                            break 'run;
                                        }
                                    }
                                }
                            }
                            Err(ServeError::Expired) => {
                                expired.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) if e.is_transport() => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                break 'run; // connection is unusable
                            }
                            Err(e) => {
                                // A typed server verdict; the session stays
                                // usable.
                                errors.fetch_add(1, Ordering::Relaxed);
                                if let Some(code) = e.code() {
                                    *error_codes.lock().unwrap().entry(code).or_insert(0) += 1;
                                }
                            }
                        }
                    }
                    latency.snapshot()
                })
                .expect("spawn loadgen client"),
        );
    }
    barrier.wait();
    let start_wall = Instant::now();
    let mut latency = HistogramSnapshot::default();
    for h in handles {
        if let Ok(client_latency) = h.join() {
            latency.merge(&client_latency);
        }
    }
    let elapsed = start_wall.elapsed();
    let mut intervals = Vec::new();
    if let Some(handle) = sampler {
        sampler_stop.store(true, Ordering::Release);
        if let Ok(snaps) = handle.join() {
            // Consecutive snapshots diff into per-interval deltas; the
            // stretch from the last tick to client completion is a partial
            // bucket and is deliberately dropped.
            for pair in snaps.windows(2) {
                if let Some(d) = pair[1].delta_since(&pair[0]) {
                    intervals.push(d);
                }
            }
        }
    }
    let server_after = Session::connect(&cfg.addr)
        .ok()
        .and_then(|mut s| s.hello("hpnn-loadgen").ok().map(|_| s))
        .and_then(|mut s| s.stats().ok());
    let error_codes = std::mem::take(&mut *error_codes.lock().unwrap());
    Ok(LoadgenReport {
        requests: (cfg.clients * cfg.requests_per_client) as u64,
        ok: ok.load(Ordering::Relaxed),
        busy: busy.load(Ordering::Relaxed),
        expired: expired.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        error_codes,
        rows_ok: rows_ok.load(Ordering::Relaxed),
        elapsed,
        latency,
        server_before,
        server_after,
        intervals,
    })
}
