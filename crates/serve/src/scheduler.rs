//! Adaptive micro-batching scheduler with N-way worker sharding.
//!
//! Each registered model is deployed **once** — one immutable
//! [`InferencePlan`] shared by `Arc` — and gets a shard set: `max_shards`
//! bounded queues, each drained by a dedicated batch worker. Connection
//! handlers [`submit`](Scheduler::submit) requests; a dispatch policy
//! ([`DispatchPolicy`], default least-loaded by queued rows) picks the
//! shard, and the worker coalesces what queued up while it ran the previous
//! batch — up to `max_batch` rows — into one batched run of the plan: full
//! batches under load, no added latency when idle. It is work-conserving by
//! default; a non-zero `max_wait` makes an idle worker hold a short batch
//! back until the oldest request has waited that long, trading latency for
//! fuller batches.
//!
//! Keyed and keyless requests run the same weights: the mode only selects
//! the plan's lock view (the paper's `L_j`, or all `+1`). The plan is read
//! through `&self`, so shards never serialize on it, there is no lock a
//! panicking forward could poison, and resident weights do not grow with
//! the shard count.
//!
//! An adaptive controller samples total queued rows per model on a fixed
//! tick and scales the *active* shard count between `min_shards` and
//! `max_shards` from a queue-depth EWMA. Every worker is spawned at start;
//! scaling only moves the dispatch bound, so a deactivated shard keeps
//! draining what it already queued — transitions never lose requests.
//!
//! Because the batched conv/dense paths are row-decomposable with a fixed
//! reduction order, and every shard runs the same plan, a coalesced forward
//! on any shard produces **bitwise identical** rows to per-request serial
//! forwards — sharding and batching are purely throughput optimizations,
//! never a numerics change.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use hpnn_core::{InferencePlan, LayerPartition, Stage};
use hpnn_tensor::{Shape, Tensor, TensorError};

use crate::cluster::{RemoteOutcome, RemoteStageBackend};
use crate::config::{DispatchPolicy, ServeConfig};
use crate::event::{WakeSet, Waker};
use crate::metrics::{Histogram, Metrics, ShardStatsSnapshot};
use crate::protocol::{ErrorCode, InferMode, ModelInfo};
use crate::registry::ServeRegistry;

/// EWMA smoothing factor for the shard controller's queue-depth signal.
const EWMA_ALPHA: f64 = 0.3;

/// Why a request could not be queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No model with that wire id.
    UnknownModel(u16),
    /// Keyed inference requested but the entry has no vault.
    KeyUnavailable(u16),
    /// Input width does not match the model.
    BadWidth {
        /// Model input features.
        expected: usize,
        /// Columns the client sent.
        got: usize,
    },
    /// Zero rows, or more rows than `max_rows_per_request`.
    BadRows {
        /// Largest accepted request.
        max: usize,
        /// Rows the client sent.
        got: usize,
    },
    /// `FWD_ACT` named a stage outside the model's partition (or the
    /// model has no partition at all).
    BadStage {
        /// Stages the partition has; 0 when the model is unpartitioned.
        stages: u16,
        /// Stage the client named.
        got: u16,
    },
    /// `FWD_ACT` targeted a trusted-required stage, but this node holds
    /// no key vault — locked layers never run on untrusted hardware.
    TrustedStageRefused {
        /// Model the stage belongs to.
        model: u16,
        /// The refused stage.
        stage: u16,
    },
    /// Queue full — retry later.
    Busy,
    /// Every shard worker for the model is dead (panicked); the request
    /// cannot be served. Maps to [`ErrorCode::Internal`] on the wire.
    WorkerFailed,
    /// Server is draining; no new work accepted.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownModel(id) => write!(f, "unknown model id {id}"),
            SubmitError::KeyUnavailable(id) => {
                write!(
                    f,
                    "model {id} has no key vault; keyed inference unavailable"
                )
            }
            SubmitError::BadWidth { expected, got } => {
                write!(f, "input width {got} does not match model input {expected}")
            }
            SubmitError::BadRows { max, got } => {
                write!(f, "request rows {got} outside 1..={max}")
            }
            SubmitError::BadStage { stages, got } => {
                write!(
                    f,
                    "stage {got} outside the model's partition ({stages} stages)"
                )
            }
            SubmitError::TrustedStageRefused { model, stage } => {
                write!(
                    f,
                    "stage {stage} of model {model} requires the trusted node; \
                     this node holds no key vault"
                )
            }
            SubmitError::Busy => write!(f, "queue full"),
            SubmitError::WorkerFailed => {
                write!(f, "model worker failed; no live shard to serve the request")
            }
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What a queued request eventually receives.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyPayload {
    /// Row-major logits for the request's rows.
    Logits {
        /// Rows (same as the request).
        rows: usize,
        /// Model output features.
        cols: usize,
        /// `rows * cols` values.
        data: Vec<f32>,
    },
    /// The deadline passed before the batch ran.
    Expired,
    /// The request cannot be answered with logits — a cluster hop failed
    /// after admission, or the shard worker died with the request queued.
    Failed {
        /// Why — e.g. [`ErrorCode::PeerUnavailable`] or
        /// [`ErrorCode::Internal`].
        code: ErrorCode,
    },
    /// The request was dropped without running (e.g. its worker died, or
    /// the scheduler was torn down mid-flight).
    Aborted,
}

/// A single-shot reply callback for one submitted request.
///
/// The scheduler invokes it exactly once with the request's
/// [`ReplyPayload`]; if the completion is dropped unfired (a worker died
/// under the request, or the scheduler was torn down), the callback runs
/// with [`ReplyPayload::Aborted`] so no caller waits forever.
///
/// The callback parks the reply wherever its consumer will look and hands
/// back the [`Waker`] of the event loop that must be told, if any. A batch
/// collects those and wakes each loop once after the whole group is
/// parked; a completion resolved on its own wakes at once.
pub struct Completion {
    inner: Option<Box<dyn FnOnce(ReplyPayload) -> Option<Waker> + Send + 'static>>,
    /// Set at admission; the in-flight gauge falls exactly once when the
    /// completion resolves (fire, dismiss, or drop).
    gauge: Option<Arc<Metrics>>,
    /// Caller-chosen identifier (e.g. the wire correlation ID) attached to
    /// the request's trace spans so one request can be followed across
    /// threads. 0 when the caller set none.
    trace_id: u64,
}

impl Completion {
    /// Wraps a callback to run when the request resolves.
    pub fn new(f: impl FnOnce(ReplyPayload) -> Option<Waker> + Send + 'static) -> Self {
        Completion {
            inner: Some(Box::new(f)),
            gauge: None,
            trace_id: 0,
        }
    }

    /// Attaches an identifier carried into the request's trace spans.
    pub fn set_trace_id(&mut self, id: u64) {
        self.trace_id = id;
    }

    /// The identifier set by [`set_trace_id`](Completion::set_trace_id).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn release_gauge(&mut self) {
        if let Some(m) = self.gauge.take() {
            Metrics::drop_one(&m.inflight);
        }
    }

    /// Fires the callback with `payload` and hands back the wake it owes.
    fn fire(&mut self, payload: ReplyPayload) -> Option<Waker> {
        self.release_gauge();
        self.inner.take().and_then(|f| f(payload))
    }

    /// Fires the callback with `payload`, waking its loop at once.
    pub fn complete(mut self, payload: ReplyPayload) {
        if let Some(waker) = self.fire(payload) {
            waker.wake();
        }
    }

    /// Fires the callback with `payload` as part of a batch: the wake it
    /// owes joins `wakes` and fires when the batch drops the set.
    fn complete_in_batch(mut self, payload: ReplyPayload, wakes: &mut WakeSet) {
        if let Some(waker) = self.fire(payload) {
            wakes.add(waker);
        }
    }

    /// Consumes the completion without firing it — for callers that handle
    /// a rejected submission themselves.
    pub fn dismiss(mut self) {
        self.release_gauge();
        self.inner = None;
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(waker) = self.fire(ReplyPayload::Aborted) {
            waker.wake();
        }
    }
}

impl fmt::Debug for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Completion")
            .field("armed", &self.inner.is_some())
            .finish()
    }
}

struct Pending {
    mode: InferMode,
    /// `Some(s)` for a `FWD_ACT` worker request executing only stage `s`;
    /// `None` for a whole-network inference (which a cluster head walks
    /// stage by stage itself).
    stage: Option<u16>,
    rows: usize,
    data: Vec<f32>,
    enqueued: Instant,
    deadline: Option<Instant>,
    done: Completion,
}

#[derive(Default)]
struct QueueState {
    q: VecDeque<Pending>,
    rows_queued: usize,
    draining: bool,
    /// Set when the shard's worker died; admissions bounce with
    /// [`SubmitError::WorkerFailed`] instead of queueing into a void.
    failed: bool,
}

/// One shard's bounded queue plus the wait/wake machinery.
struct BatchQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Lock-free mirror of `rows_queued`, refreshed under the state lock —
    /// the least-loaded dispatcher reads it without taking any queue lock.
    depth_rows: AtomicUsize,
}

impl BatchQueue {
    fn new() -> Self {
        BatchQueue {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            depth_rows: AtomicUsize::new(0),
        }
    }

    /// Admits a request, or hands it back with the reason it cannot run.
    /// The rejection tuple is boxed: it is the cold path, and `Pending`
    /// is large enough to dominate the `Result` otherwise.
    fn push(&self, p: Pending, cfg: &ServeConfig) -> Result<(), Box<(SubmitError, Pending)>> {
        let mut st = self.state.lock().unwrap();
        if st.draining {
            return Err(Box::new((SubmitError::ShuttingDown, p)));
        }
        if st.failed {
            return Err(Box::new((SubmitError::WorkerFailed, p)));
        }
        // A request larger than the whole queue is still admitted when the
        // queue is idle — otherwise `max_rows_per_request > queue_cap`
        // configurations could never serve their largest requests.
        if st.rows_queued > 0 && st.rows_queued + p.rows > cfg.queue_cap {
            return Err(Box::new((SubmitError::Busy, p)));
        }
        st.rows_queued += p.rows;
        st.q.push_back(p);
        self.depth_rows.store(st.rows_queued, Ordering::Relaxed);
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks until a batch is ready (or the queue is drained dry), then
    /// pops whole requests totalling at most `max_batch` rows — always at
    /// least one request, so oversized requests cannot starve.
    fn pop_batch(&self, cfg: &ServeConfig) -> Option<Vec<Pending>> {
        let mut st = self.state.lock().unwrap();
        loop {
            // Outer wait: until any work exists (or drain is done).
            while st.q.is_empty() {
                if st.draining {
                    return None;
                }
                st = self.cv.wait(st).unwrap();
            }
            // Fill wait: give co-riders `max_wait` to arrive, measured from
            // the oldest request's enqueue time (none at the default of zero).
            loop {
                if st.rows_queued >= cfg.max_batch || st.draining {
                    break;
                }
                let oldest = match st.q.front() {
                    Some(p) => p.enqueued,
                    None => break,
                };
                let elapsed = oldest.elapsed();
                if elapsed >= cfg.max_wait {
                    break;
                }
                let (next, timeout) = self.cv.wait_timeout(st, cfg.max_wait - elapsed).unwrap();
                st = next;
                if timeout.timed_out() {
                    break;
                }
            }
            if st.q.is_empty() {
                continue; // drained by a race; re-enter the outer wait
            }
            let mut batch = Vec::new();
            let mut rows = 0usize;
            while let Some(front) = st.q.front() {
                if !batch.is_empty() && rows + front.rows > cfg.max_batch {
                    break;
                }
                let p = st.q.pop_front().unwrap();
                rows += p.rows;
                st.rows_queued -= p.rows;
                batch.push(p);
            }
            self.depth_rows.store(st.rows_queued, Ordering::Relaxed);
            // Freed capacity: admit waiters blocked on `queue_cap`.
            self.cv.notify_all();
            return Some(batch);
        }
    }

    fn drain(&self) {
        let mut st = self.state.lock().unwrap();
        st.draining = true;
        self.cv.notify_all();
    }

    /// Marks the queue failed and answers everything queued with
    /// [`ReplyPayload::Failed`]`{Internal}` — the worker is gone, so a
    /// typed reply now beats a deadline-or-hang later.
    fn fail_queued(&self) {
        let drained: Vec<Pending> = {
            let mut st = self.state.lock().unwrap();
            st.failed = true;
            st.rows_queued = 0;
            self.depth_rows.store(0, Ordering::Relaxed);
            st.q.drain(..).collect()
        };
        self.cv.notify_all();
        for p in drained {
            p.done.complete(ReplyPayload::Failed {
                code: ErrorCode::Internal,
            });
        }
    }
}

/// One shard: a bounded queue drained by a dedicated worker, plus the
/// shard-local latency histograms.
struct Shard {
    queue: BatchQueue,
    /// Batched-forward wall time per reply served by this shard.
    forward: Histogram,
    /// Admission-to-pop wait per reply served by this shard.
    queue_wait: Histogram,
    /// The worker died (panicked); the dispatcher skips this shard.
    dead: AtomicBool,
    /// Test hook: the next popped batch panics instead of running.
    panic_next: AtomicBool,
}

impl Shard {
    fn new() -> Self {
        Shard {
            queue: BatchQueue::new(),
            forward: Histogram::new(),
            queue_wait: Histogram::new(),
            dead: AtomicBool::new(false),
            panic_next: AtomicBool::new(false),
        }
    }
}

/// Picks the shallowest live shard; `None` entries are dead shards. Ties
/// break toward the lowest index, so the choice is deterministic.
fn pick_least_loaded(depths: &[Option<usize>]) -> Option<usize> {
    depths
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|depth| (depth, i)))
        .min()
        .map(|(_, i)| i)
}

/// Picks the first live shard at or after the round-robin cursor.
fn pick_round_robin(cursor: usize, alive: &[bool]) -> Option<usize> {
    let n = alive.len();
    if n == 0 {
        return None;
    }
    (0..n).map(|k| (cursor + k) % n).find(|&i| alive[i])
}

/// One controller decision from the smoothed queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScaleStep {
    Up,
    Down,
    Hold,
}

/// Scale up when the smoothed backlog exceeds one full batch (work is
/// piling faster than the active shards drain it); scale down when it
/// falls below a quarter batch. The dead band between the thresholds
/// keeps the controller from oscillating on noisy load.
fn controller_step(
    ewma_rows: f64,
    max_batch: usize,
    active: usize,
    min: usize,
    max: usize,
) -> ScaleStep {
    if ewma_rows > max_batch as f64 && active < max {
        ScaleStep::Up
    } else if ewma_rows < max_batch as f64 / 4.0 && active > min {
        ScaleStep::Down
    } else {
        ScaleStep::Hold
    }
}

/// One model's shards plus the dispatch state.
struct ShardSet {
    shards: Vec<Arc<Shard>>,
    /// Dispatch bound: requests go to shards `0..active`. The adaptive
    /// controller moves it within `min_shards..=max_shards`; shards above
    /// the bound keep draining whatever they already hold.
    active: AtomicUsize,
    /// Round-robin cursor (only advanced under that policy).
    rr: AtomicUsize,
    info: ModelInfo,
    model: Arc<ModelCtx>,
}

impl ShardSet {
    /// Picks a live shard for an admitted request, or `None` when every
    /// active shard's worker is dead.
    fn dispatch(&self, policy: DispatchPolicy) -> Option<usize> {
        let active = self.active.load(Ordering::Acquire).min(self.shards.len());
        let shards = &self.shards[..active];
        match policy {
            DispatchPolicy::LeastLoaded => {
                let depths: Vec<Option<usize>> = shards
                    .iter()
                    .map(|s| {
                        (!s.dead.load(Ordering::Acquire))
                            .then(|| s.queue.depth_rows.load(Ordering::Relaxed))
                    })
                    .collect();
                pick_least_loaded(&depths)
            }
            DispatchPolicy::RoundRobin => {
                let alive: Vec<bool> = shards
                    .iter()
                    .map(|s| !s.dead.load(Ordering::Acquire))
                    .collect();
                let cursor = self.rr.fetch_add(1, Ordering::Relaxed) % active.max(1);
                pick_round_robin(cursor, &alive)
            }
        }
    }
}

/// The per-model shard sets plus the submission front door.
pub struct Scheduler {
    sets: Arc<Vec<ShardSet>>,
    cfg: ServeConfig,
    metrics: Arc<Metrics>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    controller: Mutex<Option<thread::JoinHandle<()>>>,
    /// Signalled (true + notify) to stop the controller promptly.
    controller_stop: Arc<(Mutex<bool>, Condvar)>,
    /// Remote backends attached via cluster plans; drained after the
    /// workers so chains parked on peer reply threads resolve too.
    remotes: Vec<Arc<dyn RemoteStageBackend>>,
    draining: AtomicBool,
}

impl Scheduler {
    /// Deploys every registry entry once (one [`InferencePlan`] per model,
    /// whatever the shard count) and starts the batch workers plus — when
    /// the shard range allows scaling — the adaptive controller.
    ///
    /// # Errors
    ///
    /// Returns an error if any stored architecture fails to build.
    pub fn start(
        registry: &ServeRegistry,
        cfg: ServeConfig,
        metrics: Arc<Metrics>,
    ) -> Result<Scheduler, TensorError> {
        let mut sets = Vec::with_capacity(registry.len());
        let mut workers = Vec::new();
        let mut remotes: Vec<Arc<dyn RemoteStageBackend>> = Vec::new();
        for (entry, info) in registry.iter().zip(registry.model_infos()) {
            let (partition, remote) = match &entry.plan {
                Some(plan) => (Some(Arc::clone(&plan.partition)), plan.remote.clone()),
                None => (None, None),
            };
            if let Some(r) = &remote {
                remotes.push(Arc::clone(r));
            }
            let stages = match &partition {
                Some(p) => p.stages().to_vec(),
                // Unpartitioned: one stage spanning every layer, with no
                // remote to leave this node for.
                None => vec![Stage {
                    index: 0,
                    layers: 0..entry.model.spec().layers.len(),
                    in_features: info.in_features,
                    out_features: info.out_features,
                    trusted_required: true,
                    flops_per_row: 0,
                }],
            };
            let model = Arc::new(ModelCtx {
                id: info.id,
                plan: InferencePlan::new(&entry.model, entry.vault.as_ref())?,
                partition,
                stages,
                remote,
                metrics: Arc::clone(&metrics),
            });
            let mut shards = Vec::with_capacity(cfg.max_shards);
            for shard_idx in 0..cfg.max_shards {
                let shard = Arc::new(Shard::new());
                let (worker_shard, worker_cfg, worker_model) =
                    (Arc::clone(&shard), cfg.clone(), Arc::clone(&model));
                workers.push(
                    thread::Builder::new()
                        .name(format!("hpnn-batch-{}-{shard_idx}", entry.name))
                        .spawn(move || batch_worker(worker_shard, worker_cfg, worker_model))
                        .expect("spawn batch worker"),
                );
                shards.push(shard);
            }
            sets.push(ShardSet {
                shards,
                active: AtomicUsize::new(cfg.min_shards.min(cfg.max_shards)),
                rr: AtomicUsize::new(0),
                info,
                model,
            });
        }
        let sets = Arc::new(sets);
        let controller_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let controller = if cfg.max_shards > cfg.min_shards && !sets.is_empty() {
            let ctl_sets = Arc::clone(&sets);
            let ctl_cfg = cfg.clone();
            let ctl_metrics = Arc::clone(&metrics);
            let ctl_stop = Arc::clone(&controller_stop);
            Some(
                thread::Builder::new()
                    .name("hpnn-shard-ctl".to_string())
                    .spawn(move || controller_loop(ctl_sets, ctl_cfg, ctl_metrics, ctl_stop))
                    .expect("spawn shard controller"),
            )
        } else {
            None
        };
        Ok(Scheduler {
            sets,
            cfg,
            metrics,
            workers: Mutex::new(workers),
            controller: Mutex::new(controller),
            controller_stop,
            remotes,
            draining: AtomicBool::new(false),
        })
    }

    /// Wire-facing model descriptions, in id order.
    pub fn models(&self) -> Vec<ModelInfo> {
        self.sets.iter().map(|s| s.info.clone()).collect()
    }

    /// The active serve configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Per-shard stats snapshots, ordered by (model, shard).
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        let mut out = Vec::new();
        for set in self.sets.iter() {
            let active = set.active.load(Ordering::Acquire);
            for (i, shard) in set.shards.iter().enumerate() {
                out.push(ShardStatsSnapshot {
                    model: set.info.id,
                    shard: i as u16,
                    active: i < active && !shard.dead.load(Ordering::Acquire),
                    forward: shard.forward.snapshot(),
                    queue_wait: shard.queue_wait.snapshot(),
                });
            }
        }
        out
    }

    /// Test hook: makes the model's first live shard panic on its next
    /// popped batch. Returns whether a live shard was armed.
    #[doc(hidden)]
    pub fn fail_next_batch(&self, model: u16) -> bool {
        let Some(set) = self.sets.get(model as usize) else {
            return false;
        };
        match set.shards.iter().find(|s| !s.dead.load(Ordering::Acquire)) {
            Some(shard) => {
                shard.panic_next.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Validates and enqueues a request; `done` fires exactly once with
    /// the outcome after a batch containing the request has run.
    ///
    /// On admission the global in-flight gauge rises; it falls when `done`
    /// fires (including the [`ReplyPayload::Aborted`] drop path), so
    /// `STATS.inflight` always returns to zero on a drained server.
    ///
    /// # Errors
    ///
    /// Returns the [`SubmitError`] along with the unfired completion, so
    /// the caller chooses whether to answer through it
    /// ([`Completion::complete`]) or on its own path
    /// ([`Completion::dismiss`]).
    #[allow(clippy::result_large_err, clippy::too_many_arguments)]
    pub fn submit_with(
        &self,
        model: u16,
        mode: InferMode,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
        deadline: Option<Instant>,
        done: Completion,
    ) -> Result<(), (SubmitError, Completion)> {
        self.submit_inner(model, None, mode, rows, cols, data, deadline, done)
    }

    /// Validates and enqueues a `FWD_ACT` request executing exactly one
    /// partition stage (the worker role of a cluster pipeline).
    ///
    /// Beyond [`submit_with`](Scheduler::submit_with)'s checks: the model
    /// must carry a partition containing `stage`, the input width must
    /// match **the stage's** entry width, and — the keyless-worker guard —
    /// a trusted-required stage on a vault-less node is refused with
    /// [`SubmitError::TrustedStageRefused`] no matter the requested mode.
    ///
    /// # Errors
    ///
    /// As [`submit_with`](Scheduler::submit_with), plus
    /// [`SubmitError::BadStage`] and [`SubmitError::TrustedStageRefused`].
    #[allow(clippy::result_large_err, clippy::too_many_arguments)]
    pub fn submit_stage_with(
        &self,
        model: u16,
        stage: u16,
        mode: InferMode,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
        deadline: Option<Instant>,
        done: Completion,
    ) -> Result<(), (SubmitError, Completion)> {
        self.submit_inner(model, Some(stage), mode, rows, cols, data, deadline, done)
    }

    #[allow(clippy::result_large_err, clippy::too_many_arguments)]
    fn submit_inner(
        &self,
        model: u16,
        stage: Option<u16>,
        mode: InferMode,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
        deadline: Option<Instant>,
        done: Completion,
    ) -> Result<(), (SubmitError, Completion)> {
        let err = |e: SubmitError, done: Completion| Err((e, done));
        if self.draining.load(Ordering::Acquire) {
            return err(SubmitError::ShuttingDown, done);
        }
        let set = match self.sets.get(model as usize) {
            Some(set) => set,
            None => return err(SubmitError::UnknownModel(model), done),
        };
        let expected = match stage {
            Some(s) => {
                let Some(partition) = &set.model.partition else {
                    return err(SubmitError::BadStage { stages: 0, got: s }, done);
                };
                let Some(st) = partition.get(s as usize) else {
                    return err(
                        SubmitError::BadStage {
                            stages: partition.len() as u16,
                            got: s,
                        },
                        done,
                    );
                };
                // The keyless-worker guard: locked layers only ever run
                // where the vault lives, whatever mode the frame claims.
                if st.trusted_required && !set.info.has_key {
                    // A spike here is a security signal (keyless traffic
                    // probing the trusted partition), so it gets its own
                    // counter for the SLO watchdog.
                    Metrics::bump(&self.metrics.trusted_stage_refused);
                    return err(SubmitError::TrustedStageRefused { model, stage: s }, done);
                }
                st.in_features
            }
            None => set.info.in_features,
        };
        if mode == InferMode::Keyed && !set.info.has_key {
            return err(SubmitError::KeyUnavailable(model), done);
        }
        if cols != expected {
            return err(
                SubmitError::BadWidth {
                    expected,
                    got: cols,
                },
                done,
            );
        }
        if rows == 0 || rows > self.cfg.max_rows_per_request {
            return err(
                SubmitError::BadRows {
                    max: self.cfg.max_rows_per_request,
                    got: rows,
                },
                done,
            );
        }
        debug_assert_eq!(data.len(), rows * cols);
        // Pick the shard before arming anything: with no live shard the
        // request is rejected without touching a queue.
        let dispatch_start = Instant::now();
        let picked = set.dispatch(self.cfg.dispatch);
        hpnn_trace::span_between(
            "shard.dispatch",
            dispatch_start,
            Instant::now(),
            Some(picked.map_or(u64::MAX, |i| i as u64)),
        );
        let Some(shard_idx) = picked else {
            return err(SubmitError::WorkerFailed, done);
        };
        // Arm the gauge before the push so a completion firing immediately
        // after admission can never decrement below zero.
        let mut done = done;
        Metrics::bump(&self.metrics.inflight);
        done.gauge = Some(Arc::clone(&self.metrics));
        let pending = Pending {
            mode,
            stage,
            rows,
            data,
            enqueued: Instant::now(),
            deadline,
            done,
        };
        match set.shards[shard_idx].queue.push(pending, &self.cfg) {
            Ok(()) => {
                Metrics::bump(&self.metrics.requests);
                Metrics::add(&self.metrics.rows, rows as u64);
                Metrics::bump(if mode == InferMode::Keyed {
                    &self.metrics.keyed_requests
                } else {
                    &self.metrics.keyless_requests
                });
                if stage.is_some() {
                    Metrics::bump(&self.metrics.fwd_recv);
                }
                Ok(())
            }
            Err(rejected) => {
                // Never admitted: hand the caller's completion back unfired
                // with the gauge released.
                let (e, mut pending) = *rejected;
                pending.done.release_gauge();
                err(e, pending.done)
            }
        }
    }

    /// Validates and enqueues a request; the reply arrives on the returned
    /// channel once a batch containing it has run. Thin wrapper over
    /// [`submit_with`](Scheduler::submit_with) for lock-step callers.
    ///
    /// # Errors
    ///
    /// Returns a [`SubmitError`] when the request cannot be admitted; the
    /// caller maps it onto a `BUSY` or `ERROR` wire reply.
    pub fn submit(
        &self,
        model: u16,
        mode: InferMode,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
        deadline: Option<Instant>,
    ) -> Result<mpsc::Receiver<ReplyPayload>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let done = Completion::new(move |payload| {
            let _ = tx.send(payload);
            None
        });
        match self.submit_with(model, mode, rows, cols, data, deadline, done) {
            Ok(()) => Ok(rx),
            Err((e, done)) => {
                done.dismiss();
                Err(e)
            }
        }
    }

    /// Stops admissions, lets every queued request finish (or expire), and
    /// joins the controller plus the batch workers. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        {
            let (lock, cv) = &*self.controller_stop;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        if let Some(handle) = self.controller.lock().unwrap().take() {
            let _ = handle.join();
        }
        for set in self.sets.iter() {
            for shard in &set.shards {
                shard.queue.drain();
            }
        }
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        // Workers may have handed whole chains to a remote backend and
        // exited; draining the backends resolves those continuations (with
        // `PeerUnavailable` where the reply can no longer arrive), so every
        // completion has fired by the time drain() returns.
        for remote in &self.remotes {
            remote.drain();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The adaptive shard controller: every `controller_interval` it folds
/// each model's total queued rows into an EWMA and moves the active-shard
/// bound one step at a time.
fn controller_loop(
    sets: Arc<Vec<ShardSet>>,
    cfg: ServeConfig,
    metrics: Arc<Metrics>,
    stop: Arc<(Mutex<bool>, Condvar)>,
) {
    let mut ewma = vec![0.0f64; sets.len()];
    let (lock, cv) = &*stop;
    let mut stopped = lock.lock().unwrap();
    loop {
        let (next, _timeout) = cv.wait_timeout(stopped, cfg.controller_interval).unwrap();
        stopped = next;
        if *stopped {
            return;
        }
        for (i, set) in sets.iter().enumerate() {
            let depth: usize = set
                .shards
                .iter()
                .map(|s| s.queue.depth_rows.load(Ordering::Relaxed))
                .sum();
            ewma[i] = (1.0 - EWMA_ALPHA) * ewma[i] + EWMA_ALPHA * depth as f64;
            let active = set.active.load(Ordering::Acquire);
            match controller_step(
                ewma[i],
                cfg.max_batch,
                active,
                cfg.min_shards,
                set.shards.len(),
            ) {
                ScaleStep::Up => {
                    set.active.store(active + 1, Ordering::Release);
                    Metrics::bump(&metrics.shard_scale_ups);
                    hpnn_trace::instant!("shard.scale_up");
                }
                ScaleStep::Down => {
                    set.active.store(active - 1, Ordering::Release);
                    Metrics::bump(&metrics.shard_scale_downs);
                    hpnn_trace::instant!("shard.scale_down");
                }
                ScaleStep::Hold => {}
            }
        }
    }
}

/// Everything about one model that its shard workers and chain
/// continuations share: built once at start, immutable after.
struct ModelCtx {
    id: u16,
    /// The model's one deployment; a group's mode picks the lock view.
    plan: InferencePlan,
    /// The cluster partition, when the model carries one (`FWD_ACT`
    /// admission checks stages against it).
    partition: Option<Arc<LayerPartition>>,
    /// The chain a whole-network request walks: the partition's stages, or
    /// — unpartitioned — the one stage spanning every layer.
    stages: Vec<Stage>,
    remote: Option<Arc<dyn RemoteStageBackend>>,
    metrics: Arc<Metrics>,
}

/// Concatenates a group's rows into one contiguous buffer.
fn concat_rows(group: &[Pending]) -> (usize, Vec<f32>) {
    let total_rows: usize = group.iter().map(|p| p.rows).sum();
    let mut data = Vec::with_capacity(group.iter().map(|p| p.data.len()).sum());
    for p in group {
        data.extend_from_slice(&p.data);
    }
    (total_rows, data)
}

/// Splits a finished group's output back into per-request replies,
/// recording the per-reply metrics (global and shard-local).
///
/// Metrics land before the reply is released, so a STATS issued right
/// after a reply always sees it counted. Every stage histogram records
/// exactly one sample per OK reply, keeping their counts reconciled with
/// `replies_ok` — and because each OK reply runs on exactly one shard,
/// `Σ shard.forward.count == replies_ok` holds too.
///
/// Hand-off is per batch: every reply is parked first, then each event
/// loop that received any is woken once (when `wakes` drops), so the loop
/// finds the whole group on its one pass and flushes it in one write.
#[allow(clippy::too_many_arguments)]
fn finish_group(
    metrics: &Metrics,
    shard: &Shard,
    group: Vec<Pending>,
    out: &[f32],
    out_features: usize,
    fwd_ns: u64,
    fill_ns: u64,
    popped: Instant,
) {
    let mut wakes = WakeSet::default();
    let mut row = 0usize;
    for p in group {
        let chunk = out[row * out_features..(row + p.rows) * out_features].to_vec();
        row += p.rows;
        let wait_ns = popped.saturating_duration_since(p.enqueued).as_nanos() as u64;
        Metrics::bump(&metrics.replies_ok);
        metrics.e2e.record(p.enqueued.elapsed().as_nanos() as u64);
        metrics.forward.record(fwd_ns);
        metrics.queue_wait.record(wait_ns);
        metrics.batch_fill.record(fill_ns);
        shard.forward.record(fwd_ns);
        shard.queue_wait.record(wait_ns);
        hpnn_trace::span_between("queue.wait", p.enqueued, popped, Some(p.done.trace_id()));
        // The callback may be a no-op by now (client disconnected
        // mid-flight); the work still counts.
        p.done.complete_in_batch(
            ReplyPayload::Logits {
                rows: p.rows,
                cols: out_features,
                data: chunk,
            },
            &mut wakes,
        );
    }
}

/// One popped batch regrouped by (mode, stage), arrival order preserved.
type BatchGroups = Vec<((InferMode, Option<u16>), Vec<Pending>)>;

/// Runs one shard's coalescing loop until the queue drains dry — or a
/// batch panics, in which case the shard is marked dead, its queue is
/// answered with `Internal`, and the worker exits instead of stranding
/// clients until their deadlines. The plan is only ever read, so a panic
/// here leaves the other shards' view of it intact.
fn batch_worker(shard: Arc<Shard>, cfg: ServeConfig, model: Arc<ModelCtx>) {
    while let Some(batch) = shard.queue.pop_batch(&cfg) {
        // The batch (and every completion in it) moves into the guarded
        // call; an unwind drops the completions, which fire `Aborted` —
        // the server maps that to an `Internal` wire error.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            process_batch(&shard, &model, batch);
        }));
        if outcome.is_err() {
            Metrics::bump(&model.metrics.worker_panics);
            shard.dead.store(true, Ordering::Release);
            shard.queue.fail_queued();
            return;
        }
    }
}

/// Expires, groups, and runs one popped batch.
fn process_batch(shard: &Arc<Shard>, model: &Arc<ModelCtx>, batch: Vec<Pending>) {
    if shard.panic_next.swap(false, Ordering::AcqRel) {
        panic!("injected batch-worker panic (fail_next_batch)");
    }
    // The coalescing window: how long the batch's oldest request held
    // the queue open collecting co-riders. Every request served by this
    // batch records the same fill sample.
    let popped = Instant::now();
    let oldest = batch
        .first()
        .expect("pop_batch yields ≥ 1 request")
        .enqueued;
    let fill_ns = popped.saturating_duration_since(oldest).as_nanos() as u64;
    let batch_rows: usize = batch.iter().map(|p| p.rows).sum();
    hpnn_trace::span_between("batch.fill", oldest, popped, Some(batch_rows as u64));
    // Group by (mode, stage), preserving arrival order within each
    // group, and expire requests whose deadline already passed.
    let mut groups: BatchGroups = Vec::new();
    for p in batch {
        if p.deadline.is_some_and(|d| d < popped) {
            Metrics::bump(&model.metrics.expired);
            p.done.complete(ReplyPayload::Expired);
            continue;
        }
        let key = (p.mode, p.stage);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(p),
            None => groups.push((key, vec![p])),
        }
    }
    for ((mode, stage), group) in groups {
        // A `FWD_ACT` group runs exactly its one stage, always here —
        // forwarded work is never forwarded again, so a misconfigured ring
        // cannot loop activations forever. A whole-network group walks
        // every stage, offloading where its cluster plan allows.
        let (stages, may_offload) = match stage {
            Some(s) => (usize::from(s)..usize::from(s) + 1, false),
            None => (0..model.stages.len(), true),
        };
        let (total_rows, data) = concat_rows(&group);
        let chain = ChainGroup {
            model: Arc::clone(model),
            shard: Arc::clone(shard),
            mode,
            end: stages.end,
            may_offload,
            group,
            fill_ns,
            popped,
            fwd_start: Instant::now(),
            total_rows,
        };
        advance_chain(chain, stages.start, data, true);
    }
}

/// One group mid-chain; owned by whichever thread is advancing it (the
/// batch worker, or a remote backend's reply thread).
struct ChainGroup {
    model: Arc<ModelCtx>,
    /// The shard that popped the batch; its histograms receive the chain's
    /// replies even when the chain finishes on a peer reply thread.
    shard: Arc<Shard>,
    mode: InferMode,
    /// One past the last stage the group runs.
    end: usize,
    /// Whether offloadable stages may be offered to the remote backend.
    may_offload: bool,
    group: Vec<Pending>,
    fill_ns: u64,
    popped: Instant,
    fwd_start: Instant,
    total_rows: usize,
}

/// Fails every request in a chain that cannot finish.
fn fail_chain(chain: ChainGroup, code: ErrorCode) {
    for p in chain.group {
        p.done.complete(ReplyPayload::Failed { code });
    }
}

/// The one forward walker: advances a group from `stage_idx` to its end
/// and hands the replies out. Local stages run inline on the shared plan;
/// an offloadable stage is offered to the remote backend (unless `offer`
/// is off for this first stage) and the chain parks until the reply — or
/// the refusal, which re-enters here with `offer` off to run the stage
/// locally: offloading degrades to single-node execution, never to an
/// error, unless the work was already in flight when the peer died.
fn advance_chain(chain: ChainGroup, mut stage_idx: usize, mut data: Vec<f32>, mut offer: bool) {
    let model = Arc::clone(&chain.model);
    let rows = chain.total_rows;
    loop {
        if stage_idx == chain.end {
            let fwd_ns = chain.fwd_start.elapsed().as_nanos() as u64;
            Metrics::bump(&model.metrics.batches);
            finish_group(
                &model.metrics,
                &chain.shard,
                chain.group,
                &data,
                model.stages[stage_idx - 1].out_features,
                fwd_ns,
                chain.fill_ns,
                chain.popped,
            );
            return;
        }
        let stage = &model.stages[stage_idx];
        // Trusted-required stages never leave this node.
        let offload_via = (offer && chain.may_offload && !stage.trusted_required)
            .then(|| model.remote.clone())
            .flatten();
        if let Some(remote) = offload_via {
            let done_model = Arc::clone(&model);
            let sent = Instant::now();
            let deadline = chain.group.iter().filter_map(|p| p.deadline).min();
            let stage_u16 = stage_idx as u16;
            let out_len = rows * stage.out_features;
            // Offloadable stages hold no lockable neurons, so the keyless
            // view computes them bit-identically — the wire always asks
            // for keyless, and vault-less workers stay usable.
            let accepted = remote.forward(
                model.id,
                stage_u16,
                InferMode::Keyless,
                rows,
                stage.in_features,
                data,
                deadline,
                Box::new(move |outcome| match outcome {
                    RemoteOutcome::Output(out) => {
                        done_model
                            .metrics
                            .remote_wait
                            .record(sent.elapsed().as_nanos() as u64);
                        hpnn_trace::span_between(
                            "cluster.remote",
                            sent,
                            Instant::now(),
                            Some(u64::from(stage_u16)),
                        );
                        if out.len() == out_len {
                            advance_chain(chain, stage_idx + 1, out, true);
                        } else {
                            // A peer that answers with the wrong shape is
                            // as good as gone.
                            fail_chain(chain, ErrorCode::PeerUnavailable);
                        }
                    }
                    RemoteOutcome::Refused(data) => advance_chain(chain, stage_idx, data, false),
                    RemoteOutcome::Failed(code) => fail_chain(chain, code),
                }),
            );
            if accepted {
                Metrics::bump(&model.metrics.fwd_sent);
            }
            return;
        }
        // Admission (`KeyUnavailable`) keeps keyed groups off vault-less
        // plans, so the refusal below never fires in a correct build.
        let view = match chain.mode {
            InferMode::Keyed => model.plan.keyed(),
            InferMode::Keyless => Some(model.plan.keyless()),
        };
        let Some(view) = view else {
            return fail_chain(chain, ErrorCode::Internal);
        };
        let x = Tensor::from_vec(Shape::d2(rows, stage.in_features), data)
            .expect("admission and the partition fix rows * stage in_features");
        let y = {
            let _span = if model.partition.is_some() {
                hpnn_trace::span!("stage.forward", rows)
            } else {
                hpnn_trace::span!("batch.forward", rows)
            };
            view.run(&x, stage.layers.clone())
        };
        debug_assert_eq!(y.shape().dims(), &[rows, stage.out_features]);
        data = y.into_vec();
        stage_idx += 1;
        offer = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WakePipe;
    use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
    use hpnn_nn::mlp;
    use hpnn_tensor::Rng;
    use std::time::Duration;

    fn registry_with_mlp(seed: u64) -> ServeRegistry {
        let mut rng = Rng::new(seed);
        let spec = mlp(4, &[6], 3);
        let key = HpnnKey::random(&mut rng);
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
        let mut net = spec.build(&mut rng).unwrap();
        net.install_lock_factors(&schedule.derive_lock_factors(&key));
        let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
        let mut reg = ServeRegistry::new();
        reg.add("mlp", model, Some(KeyVault::provision(key, "dev")));
        reg
    }

    /// What `deploy_trusted` computes for `input` on the registry's model 0.
    fn trusted_bits(reg: &ServeRegistry, input: &[f32]) -> Vec<u32> {
        let entry = reg.get(0).unwrap();
        let mut net = entry
            .model
            .deploy_trusted(entry.vault.as_ref().unwrap())
            .unwrap();
        let x = Tensor::from_vec(Shape::d2(1, input.len()), input.to_vec()).unwrap();
        net.forward(&x, false)
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig::builder()
            .max_batch(8)
            .max_wait(Duration::from_millis(1))
            .queue_cap(64)
            .max_rows_per_request(32)
            .build()
            .unwrap()
    }

    #[test]
    fn submit_and_receive_logits() {
        let reg = registry_with_mlp(1);
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::start(&reg, quick_cfg(), Arc::clone(&metrics)).unwrap();
        let rx = sched
            .submit(0, InferMode::Keyed, 2, 4, vec![0.5; 8], None)
            .unwrap();
        match rx.recv().unwrap() {
            ReplyPayload::Logits { rows, cols, data } => {
                assert_eq!((rows, cols), (2, 3));
                assert_eq!(data.len(), 6);
                // Identical input rows must produce identical output rows.
                assert_eq!(
                    data[..3].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    data[3..].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
            other => panic!("expected logits, got {other:?}"),
        }
        sched.drain();
        let s = metrics.snapshot();
        assert_eq!(s.requests, 1);
        assert_eq!(s.rows, 2);
        assert_eq!(s.replies_ok, 1);
        assert_eq!(s.e2e.count, 1);
        assert_eq!(s.forward.count, 1);
        assert_eq!(s.queue_wait.count, 1);
        assert_eq!(s.batch_fill.count, 1);
        // One shard, one reply: the per-shard histograms reconcile.
        let shards = sched.shard_stats();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].forward.count, 1);
        assert_eq!(shards[0].queue_wait.count, 1);
    }

    #[test]
    fn keyed_and_keyless_disagree() {
        let reg = registry_with_mlp(2);
        let sched = Scheduler::start(&reg, quick_cfg(), Arc::new(Metrics::new())).unwrap();
        let input = vec![0.25, -0.5, 1.0, 2.0];
        let keyed = sched
            .submit(0, InferMode::Keyed, 1, 4, input.clone(), None)
            .unwrap()
            .recv()
            .unwrap();
        let keyless = sched
            .submit(0, InferMode::Keyless, 1, 4, input, None)
            .unwrap()
            .recv()
            .unwrap();
        let (ReplyPayload::Logits { data: a, .. }, ReplyPayload::Logits { data: b, .. }) =
            (keyed, keyless)
        else {
            panic!("expected logits from both modes");
        };
        let diff: f32 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max);
        assert!(diff > 1e-5, "locking must change outputs, diff {diff}");
    }

    #[test]
    fn validation_errors() {
        let reg = registry_with_mlp(3);
        let sched = Scheduler::start(&reg, quick_cfg(), Arc::new(Metrics::new())).unwrap();
        assert_eq!(
            sched
                .submit(9, InferMode::Keyed, 1, 4, vec![0.0; 4], None)
                .err(),
            Some(SubmitError::UnknownModel(9))
        );
        assert_eq!(
            sched
                .submit(0, InferMode::Keyed, 1, 3, vec![0.0; 3], None)
                .err(),
            Some(SubmitError::BadWidth {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(
            sched.submit(0, InferMode::Keyed, 0, 4, vec![], None).err(),
            Some(SubmitError::BadRows { max: 32, got: 0 })
        );
        assert_eq!(
            sched
                .submit(0, InferMode::Keyed, 33, 4, vec![0.0; 33 * 4], None)
                .err(),
            Some(SubmitError::BadRows { max: 32, got: 33 })
        );
    }

    #[test]
    fn keyless_only_model_rejects_keyed_mode() {
        let mut rng = Rng::new(4);
        let spec = mlp(4, &[5], 2);
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
        let mut net = spec.build(&mut rng).unwrap();
        let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
        let mut reg = ServeRegistry::new();
        reg.add("stolen", model, None);
        let sched = Scheduler::start(&reg, quick_cfg(), Arc::new(Metrics::new())).unwrap();
        assert_eq!(
            sched
                .submit(0, InferMode::Keyed, 1, 4, vec![0.0; 4], None)
                .err(),
            Some(SubmitError::KeyUnavailable(0))
        );
        // Keyless still works.
        let rx = sched
            .submit(0, InferMode::Keyless, 1, 4, vec![0.0; 4], None)
            .unwrap();
        assert!(matches!(rx.recv().unwrap(), ReplyPayload::Logits { .. }));
    }

    #[test]
    fn expired_deadline_reported() {
        let reg = registry_with_mlp(5);
        let metrics = Arc::new(Metrics::new());
        let cfg = ServeConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(150),
            ..quick_cfg()
        };
        let sched = Scheduler::start(&reg, cfg, Arc::clone(&metrics)).unwrap();
        // Deadline far shorter than the fill wait: the batch runs only after
        // max_wait, by which point the deadline has passed.
        let deadline = Instant::now() + Duration::from_millis(1);
        let rx = sched
            .submit(0, InferMode::Keyed, 1, 4, vec![0.0; 4], Some(deadline))
            .unwrap();
        assert_eq!(rx.recv().unwrap(), ReplyPayload::Expired);
        sched.drain();
        assert_eq!(metrics.snapshot().expired, 1);
    }

    #[test]
    fn busy_when_queue_full() {
        let reg = registry_with_mlp(6);
        // max_batch == queue_cap == 4 with a long fill wait: 3 queued rows
        // keep the worker in its fill window, so a 2-row admission must
        // bounce off the 4-row cap deterministically.
        let cfg = ServeConfig::builder()
            .max_batch(4)
            .max_wait(Duration::from_secs(5))
            .queue_cap(4)
            .max_rows_per_request(32)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::new(Metrics::new())).unwrap();
        let _rx1 = sched
            .submit(0, InferMode::Keyed, 3, 4, vec![0.0; 12], None)
            .unwrap();
        let err = sched
            .submit(0, InferMode::Keyed, 2, 4, vec![0.0; 8], None)
            .err();
        assert_eq!(err, Some(SubmitError::Busy));
        sched.drain();
    }

    #[test]
    fn oversized_request_admitted_when_idle() {
        let reg = registry_with_mlp(7);
        let cfg = ServeConfig::builder()
            .max_batch(2)
            .max_wait(Duration::from_millis(1))
            .queue_cap(2)
            .max_rows_per_request(16)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::new(Metrics::new())).unwrap();
        // 8 rows > queue_cap, but the queue is empty: must be admitted and
        // answered (possibly across multiple internal batches).
        let rx = sched
            .submit(0, InferMode::Keyed, 8, 4, vec![0.1; 32], None)
            .unwrap();
        match rx.recv().unwrap() {
            ReplyPayload::Logits { rows, .. } => assert_eq!(rows, 8),
            other => panic!("expected logits, got {other:?}"),
        }
    }

    #[test]
    fn drain_completes_queued_work_and_rejects_new() {
        let reg = registry_with_mlp(8);
        let metrics = Arc::new(Metrics::new());
        let cfg = ServeConfig::builder()
            .max_batch(64)
            .max_wait(Duration::from_secs(5)) // only drain can release the batch
            .queue_cap(64)
            .max_rows_per_request(32)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::clone(&metrics)).unwrap();
        let rx1 = sched
            .submit(0, InferMode::Keyed, 1, 4, vec![0.0; 4], None)
            .unwrap();
        let rx2 = sched
            .submit(0, InferMode::Keyless, 2, 4, vec![0.5; 8], None)
            .unwrap();
        sched.drain();
        assert!(matches!(rx1.recv().unwrap(), ReplyPayload::Logits { .. }));
        assert!(matches!(
            rx2.recv().unwrap(),
            ReplyPayload::Logits { rows: 2, .. }
        ));
        assert_eq!(
            sched
                .submit(0, InferMode::Keyed, 1, 4, vec![0.0; 4], None)
                .err(),
            Some(SubmitError::ShuttingDown)
        );
        assert_eq!(metrics.snapshot().replies_ok, 2);
    }

    #[test]
    fn completion_drop_fires_aborted() {
        let (tx, rx) = mpsc::channel();
        let done = Completion::new(move |p| {
            let _ = tx.send(p);
            None
        });
        drop(done);
        assert_eq!(rx.recv().unwrap(), ReplyPayload::Aborted);
    }

    #[test]
    fn dismissed_completion_stays_silent() {
        let (tx, rx) = mpsc::channel::<ReplyPayload>();
        Completion::new(move |p| {
            let _ = tx.send(p);
            None
        })
        .dismiss();
        assert!(rx.recv().is_err(), "dismiss must not fire the callback");
    }

    #[test]
    fn submit_with_returns_completion_unfired_on_rejection() {
        let reg = registry_with_mlp(11);
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::start(&reg, quick_cfg(), Arc::clone(&metrics)).unwrap();
        let (tx, rx) = mpsc::channel();
        let done = Completion::new(move |p| {
            let _ = tx.send(p);
            None
        });
        let (e, done) = sched
            .submit_with(9, InferMode::Keyed, 1, 4, vec![0.0; 4], None, done)
            .expect_err("unknown model must be rejected");
        assert_eq!(e, SubmitError::UnknownModel(9));
        assert!(
            rx.try_recv().is_err(),
            "rejection must not fire the completion"
        );
        // The returned completion is still live and can carry the caller's
        // own answer.
        done.complete(ReplyPayload::Expired);
        assert_eq!(rx.recv().unwrap(), ReplyPayload::Expired);
        assert_eq!(metrics.snapshot().inflight, 0, "gauge released");
    }

    const PATIENT: Duration = Duration::from_secs(5);

    #[test]
    fn batch_parks_every_reply_then_wakes_its_loop_once() {
        let reg = registry_with_mlp(13);
        let metrics = Arc::new(Metrics::new());
        let cfg = ServeConfig {
            max_wait: Duration::from_millis(200),
            ..quick_cfg()
        };
        let sched = Scheduler::start(&reg, cfg, Arc::clone(&metrics)).unwrap();
        let pipe = WakePipe::new().unwrap();
        let parked = Arc::new(Mutex::new(Vec::new()));
        let n = 4;
        for _ in 0..n {
            let (parked, waker) = (Arc::clone(&parked), pipe.waker());
            let done = Completion::new(move |p| {
                parked.lock().unwrap().push(p);
                Some(waker)
            });
            sched
                .submit_with(0, InferMode::Keyed, 1, 4, vec![0.5; 4], None, done)
                .unwrap();
        }
        assert!(
            pipe.readable_within(PATIENT),
            "the batch never woke its loop"
        );
        // One coalesced batch: by the time the wake is visible, all of its
        // replies are parked, and they cost one wake byte between them.
        assert_eq!(metrics.snapshot().batches, 1, "requests did not coalesce");
        assert_eq!(parked.lock().unwrap().len(), n);
        assert_eq!(pipe.drain(), 1);
        sched.drain();
        assert!(
            !pipe.readable_within(Duration::ZERO),
            "no further wake after the batch's one"
        );
    }

    #[test]
    fn completion_resolved_outside_a_batch_wakes_at_once() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        drop(Completion::new(move |_| Some(waker)));
        assert!(
            pipe.readable_within(PATIENT),
            "Aborted must wake its loop immediately"
        );
        assert_eq!(pipe.drain(), 1);
        let waker = pipe.waker();
        Completion::new(move |_| Some(waker)).complete(ReplyPayload::Expired);
        assert!(
            pipe.readable_within(PATIENT),
            "a lone completion must wake immediately"
        );
    }

    #[test]
    fn inflight_gauge_returns_to_zero() {
        let reg = registry_with_mlp(12);
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::start(&reg, quick_cfg(), Arc::clone(&metrics)).unwrap();
        let rx = sched
            .submit(0, InferMode::Keyed, 1, 4, vec![0.5; 4], None)
            .unwrap();
        assert!(matches!(rx.recv().unwrap(), ReplyPayload::Logits { .. }));
        sched.drain();
        assert_eq!(metrics.snapshot().inflight, 0);
    }

    #[test]
    fn batched_equals_serial_bitwise() {
        let reg = registry_with_mlp(9);
        let cfg = ServeConfig::builder()
            .max_batch(64)
            .max_wait(Duration::from_millis(100))
            .queue_cap(256)
            .max_rows_per_request(64)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::new(Metrics::new())).unwrap();
        let mut rng = Rng::new(10);
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|_| (0..4).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect();
        // Serial: one at a time, waiting for each reply (batch size 1).
        let serial: Vec<Vec<u32>> = inputs
            .iter()
            .map(|x| {
                let rx = sched
                    .submit(0, InferMode::Keyed, 1, 4, x.clone(), None)
                    .unwrap();
                match rx.recv().unwrap() {
                    ReplyPayload::Logits { data, .. } => data.iter().map(|v| v.to_bits()).collect(),
                    other => panic!("expected logits, got {other:?}"),
                }
            })
            .collect();
        for (x, got) in inputs.iter().zip(&serial) {
            assert_eq!(got, &trusted_bits(&reg, x), "served bits != deploy_trusted");
        }
        // Coalesced: submit all six before the fill window closes.
        let rxs: Vec<_> = inputs
            .iter()
            .map(|x| {
                sched
                    .submit(0, InferMode::Keyed, 1, 4, x.clone(), None)
                    .unwrap()
            })
            .collect();
        for (rx, want) in rxs.into_iter().zip(&serial) {
            match rx.recv().unwrap() {
                ReplyPayload::Logits { data, .. } => {
                    let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(&got, want, "batched forward must be bitwise serial");
                }
                other => panic!("expected logits, got {other:?}"),
            }
        }
    }

    #[test]
    fn least_loaded_never_picks_a_deeper_queue() {
        // The property, exercised deterministically on the pure dispatch
        // core: for every choice, no live shard is shallower.
        let cases: Vec<Vec<Option<usize>>> = vec![
            vec![Some(5), Some(2), Some(7)],
            vec![Some(0), Some(0), Some(0)],
            vec![None, Some(3), Some(1)],
            vec![Some(9)],
            vec![None, None, Some(4)],
            vec![Some(2), None, Some(2), Some(8)],
        ];
        for depths in &cases {
            let picked = pick_least_loaded(depths).expect("a live shard exists");
            let chosen = depths[picked].expect("picked shard is live");
            for d in depths.iter().flatten() {
                assert!(
                    chosen <= *d,
                    "picked depth {chosen} but a shallower {d} existed in {depths:?}"
                );
            }
        }
        // Ties break toward the lowest index (deterministic dispatch).
        assert_eq!(
            pick_least_loaded(&[Some(3), Some(3), Some(1), Some(1)]),
            Some(2)
        );
        // No live shard: no pick.
        assert_eq!(pick_least_loaded(&[None, None]), None);
        assert_eq!(pick_least_loaded(&[]), None);
    }

    #[test]
    fn round_robin_skips_dead_shards() {
        assert_eq!(pick_round_robin(0, &[true, true, true]), Some(0));
        assert_eq!(pick_round_robin(1, &[true, true, true]), Some(1));
        assert_eq!(pick_round_robin(1, &[true, false, true]), Some(2));
        assert_eq!(pick_round_robin(2, &[true, false, false]), Some(0));
        assert_eq!(pick_round_robin(0, &[false, false]), None);
        assert_eq!(pick_round_robin(5, &[]), None);
    }

    #[test]
    fn controller_step_thresholds() {
        // Backlog above one batch with headroom: scale up.
        assert_eq!(controller_step(65.0, 64, 1, 1, 4), ScaleStep::Up);
        // At the ceiling: hold even under pressure.
        assert_eq!(controller_step(1000.0, 64, 4, 1, 4), ScaleStep::Hold);
        // Quiet (below a quarter batch) above the floor: scale down.
        assert_eq!(controller_step(10.0, 64, 2, 1, 4), ScaleStep::Down);
        // Quiet at the floor: hold.
        assert_eq!(controller_step(0.0, 64, 1, 1, 4), ScaleStep::Hold);
        // The dead band between the thresholds: hold.
        assert_eq!(controller_step(30.0, 64, 2, 1, 4), ScaleStep::Hold);
    }

    #[test]
    fn dispatch_spreads_across_shards_when_queues_differ() {
        let reg = registry_with_mlp(13);
        // Two pinned shards, long fill wait: queued rows stay visible.
        let cfg = ServeConfig::builder()
            .max_batch(8)
            .max_wait(Duration::from_secs(5))
            .queue_cap(64)
            .max_rows_per_request(32)
            .shards(2..=2)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::new(Metrics::new())).unwrap();
        // Two 3-row submissions: least-loaded must put them on different
        // shards (the first makes shard 0 deeper than shard 1).
        let _a = sched
            .submit(0, InferMode::Keyed, 3, 4, vec![0.0; 12], None)
            .unwrap();
        let _b = sched
            .submit(0, InferMode::Keyed, 3, 4, vec![0.0; 12], None)
            .unwrap();
        let depths: Vec<u64> = sched.sets[0]
            .shards
            .iter()
            .map(|s| s.queue.depth_rows.load(Ordering::Relaxed) as u64)
            .collect();
        assert_eq!(depths, vec![3, 3], "least-loaded must balance the queues");
        sched.drain();
    }

    #[test]
    fn worker_panic_drains_queue_and_reports_typed_errors() {
        let reg = registry_with_mlp(14);
        let metrics = Arc::new(Metrics::new());
        let cfg = ServeConfig::builder()
            .max_batch(1)
            .max_wait(Duration::from_millis(1))
            .queue_cap(64)
            .max_rows_per_request(32)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::clone(&metrics)).unwrap();
        assert!(sched.fail_next_batch(0), "live shard must be armed");
        let rx = sched
            .submit(0, InferMode::Keyed, 1, 4, vec![0.5; 4], None)
            .unwrap();
        // The batch panics under the request: its completion drops during
        // the unwind and fires Aborted.
        assert_eq!(rx.recv().unwrap(), ReplyPayload::Aborted);
        // Once the shard is marked dead, submits are refused up front (a
        // racing submit may still land in the queue and be drained with a
        // typed Internal reply — either way the client gets an answer).
        let mut saw_worker_failed = false;
        for _ in 0..200 {
            match sched.submit(0, InferMode::Keyed, 1, 4, vec![0.5; 4], None) {
                Err(SubmitError::WorkerFailed) => {
                    saw_worker_failed = true;
                    break;
                }
                Err(other) => panic!("unexpected submit error {other:?}"),
                Ok(rx) => match rx.recv().unwrap() {
                    ReplyPayload::Failed {
                        code: ErrorCode::Internal,
                    } => {}
                    other => panic!("expected Internal failure, got {other:?}"),
                },
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert!(saw_worker_failed, "dead shard must refuse new work");
        assert!(!sched.fail_next_batch(0), "no live shard remains");
        sched.drain();
        let s = metrics.snapshot();
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.inflight, 0, "every completion resolved");
    }

    #[test]
    fn shards_share_one_deployment_and_survive_a_peer_shard_panic() {
        let input = vec![0.25, -0.5, 1.0, 2.0];
        for n in 1..=4 {
            let reg = registry_with_mlp(16);
            let want = trusted_bits(&reg, &input);
            let metrics = Arc::new(Metrics::new());
            let cfg = ServeConfig::builder()
                .max_batch(1)
                .max_wait(Duration::from_millis(1))
                .queue_cap(64)
                .max_rows_per_request(32)
                .shards(n..=n)
                .build()
                .unwrap();
            let sched = Scheduler::start(&reg, cfg, Arc::clone(&metrics)).unwrap();
            // One allocation per model: the set's handle plus one per
            // worker, whatever the shard count.
            assert_eq!(Arc::strong_count(&sched.sets[0].model), 1 + n);
            if n == 1 {
                continue; // the lone-shard panic is the test above
            }
            // Kill shard 0 under a request. The plan is only ever read, so
            // nothing the dead worker held can wedge the survivors.
            assert!(sched.fail_next_batch(0));
            let rx = sched
                .submit(0, InferMode::Keyed, 1, 4, input.clone(), None)
                .unwrap();
            assert_eq!(rx.recv().unwrap(), ReplyPayload::Aborted);
            let mut served = 0;
            for _ in 0..200 {
                let rx = sched
                    .submit(0, InferMode::Keyed, 1, 4, input.clone(), None)
                    .expect("live shards remain");
                match rx.recv().unwrap() {
                    ReplyPayload::Logits { data, .. } => {
                        let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "survivor bits != deploy_trusted ({n} shards)");
                        served += 1;
                    }
                    // Raced into the dying shard's queue before it was
                    // marked dead.
                    ReplyPayload::Failed {
                        code: ErrorCode::Internal,
                    } => thread::sleep(Duration::from_millis(1)),
                    other => panic!("unexpected reply {other:?}"),
                }
                if served == 8 {
                    break;
                }
            }
            assert_eq!(served, 8, "survivors must keep answering keyed requests");
            sched.drain();
            assert_eq!(metrics.snapshot().worker_panics, 1);
        }
    }

    #[test]
    fn scale_transitions_lose_zero_requests() {
        // A model slow enough that the queue visibly backs up on any
        // machine: the controller must scale up under the flood, scale back
        // down when it clears, and every single request must be answered.
        let mut rng = Rng::new(15);
        let spec = mlp(32, &[2048, 2048], 4);
        let key = HpnnKey::random(&mut rng);
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
        let mut net = spec.build(&mut rng).unwrap();
        net.install_lock_factors(&schedule.derive_lock_factors(&key));
        let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
        let mut reg = ServeRegistry::new();
        reg.add("hot", model, Some(KeyVault::provision(key, "dev")));

        let metrics = Arc::new(Metrics::new());
        let cfg = ServeConfig::builder()
            .max_batch(1)
            .max_wait(Duration::from_micros(100))
            .queue_cap(4096)
            .max_rows_per_request(8)
            .shards(1..=4)
            .controller_interval(Duration::from_millis(1))
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::clone(&metrics)).unwrap();

        const N: usize = 96;
        let input: Vec<f32> = (0..32).map(|i| (i as f32) / 32.0 - 0.5).collect();
        let rxs: Vec<_> = (0..N)
            .map(|_| {
                sched
                    .submit(0, InferMode::Keyed, 1, 32, input.clone(), None)
                    .unwrap()
            })
            .collect();
        // Zero loss across scale transitions: every request gets logits,
        // and identical inputs come back bit-identical no matter which
        // shard served them.
        let mut bits: Option<Vec<u32>> = None;
        for rx in rxs {
            match rx.recv().unwrap() {
                ReplyPayload::Logits { data, .. } => {
                    let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                    match &bits {
                        Some(want) => assert_eq!(&got, want, "shards must be bit-identical"),
                        None => bits = Some(got),
                    }
                }
                other => panic!("expected logits, got {other:?}"),
            }
        }
        // The flood must have tripped at least one scale-up; once the
        // queues are empty the EWMA decays and the controller steps back
        // down. Wait for it (bounded) before draining.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let s = metrics.snapshot();
            if s.shard_scale_ups >= 1 && s.shard_scale_downs >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "controller never completed an up/down cycle: ups {} downs {}",
                s.shard_scale_ups,
                s.shard_scale_downs
            );
            thread::sleep(Duration::from_millis(2));
        }
        sched.drain();
        let s = metrics.snapshot();
        assert_eq!(s.replies_ok, N as u64, "no request may be lost");
        assert_eq!(s.inflight, 0);
        // Exact reconciliation: every OK reply ran on exactly one shard.
        let shard_replies: u64 = sched.shard_stats().iter().map(|sh| sh.forward.count).sum();
        assert_eq!(shard_replies, s.replies_ok);
    }
}
