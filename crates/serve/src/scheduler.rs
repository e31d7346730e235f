//! Micro-batching scheduler over a fixed set of worker shards.
//!
//! Each registered model is deployed **once** — one immutable
//! [`InferencePlan`] shared by `Arc` — and gets [`ServeConfig::shards`]
//! bounded queues, each drained by a dedicated batch worker; the count is
//! fixed at start. Connection handlers [`submit`](Scheduler::submit)
//! requests; admission places each on the shallowest live queue (by queued
//! rows, ties to the lowest index), and the worker coalesces what queued up
//! while it ran the previous batch — up to `max_batch` rows — into one
//! batched run of the plan: full batches under load, no added latency when
//! idle. It is work-conserving by default; a non-zero `max_wait` makes an
//! idle worker hold a short batch back until the oldest request has waited
//! that long, trading latency for fuller batches.
//!
//! Keyed and keyless requests run the same weights: the mode only selects
//! the plan's lock view (the paper's `L_j`, or all `+1`). The plan is read
//! through `&self`, so shards never serialize on it, there is no lock a
//! panicking forward could poison, and resident weights do not grow with
//! the shard count.
//!
//! Because the batched conv/dense paths are row-decomposable with a fixed
//! reduction order, and every shard runs the same plan, a coalesced forward
//! on any shard produces **bitwise identical** rows to per-request serial
//! forwards — sharding and batching are purely throughput optimizations,
//! never a numerics change.
//!
//! This module is the front door — [`Scheduler`], [`SubmitError`],
//! admission and `drain`. Behind it, `queue` holds the bounded queue and
//! the completion types, and `shard` the placement rule, the batch worker
//! and the forward a popped group takes.

mod queue;
mod shard;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

use hpnn_core::InferencePlan;
use hpnn_tensor::TensorError;

use self::queue::Pending;
use self::shard::{batch_worker, ModelCtx, Shard, ShardSet};
use crate::config::ServeConfig;
use crate::metrics::{Metrics, ShardStatsSnapshot};
use crate::protocol::{InferMode, ModelInfo};
use crate::registry::ServeRegistry;

pub use self::queue::{Completion, ReplyPayload};

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
    /// The data is not `rows * cols` values. The wire decoder sizes the
    /// body itself, so only an embedder can send this; it maps to
    /// [`ErrorCode::Malformed`](crate::protocol::ErrorCode::Malformed).
    BadLength {
        /// `rows * cols`.
        expected: usize,
        /// Values the caller passed.
        got: usize,
    },
    /// Queue full — retry later.
    Busy,
    /// Every shard worker for the model is dead (panicked); the request
    /// cannot be served. Maps to
    /// [`ErrorCode::Internal`](crate::protocol::ErrorCode::Internal) on the
    /// wire.
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
            SubmitError::BadLength { expected, got } => {
                write!(f, "request carries {got} values, rows * cols is {expected}")
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

/// The per-model shard sets plus the submission front door.
pub struct Scheduler {
    sets: Vec<ShardSet>,
    cfg: ServeConfig,
    metrics: Arc<Metrics>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    draining: AtomicBool,
}

impl Scheduler {
    /// Deploys every registry entry once (one [`InferencePlan`] per model,
    /// whatever the shard count) and starts `cfg.shards` batch workers per
    /// model — the only threads the scheduler owns.
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
        for (entry, info) in registry.iter().zip(registry.model_infos()) {
            let model = Arc::new(ModelCtx {
                plan: InferencePlan::new(&entry.model, entry.vault.as_ref())?,
                layers: entry.model.spec().layers.len(),
                info,
                metrics: Arc::clone(&metrics),
            });
            let mut shards = Vec::with_capacity(cfg.shards);
            for shard_idx in 0..cfg.shards {
                let shard = Arc::new(Shard::default());
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
            sets.push(ShardSet { shards, model });
        }
        Ok(Scheduler {
            sets,
            cfg,
            metrics,
            workers: Mutex::new(workers),
            draining: AtomicBool::new(false),
        })
    }

    /// Wire-facing model descriptions, in id order.
    pub fn models(&self) -> Vec<ModelInfo> {
        self.sets.iter().map(|s| s.model.info.clone()).collect()
    }

    /// The active serve configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Per-shard stats snapshots, ordered by (model, shard).
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        let mut out = Vec::new();
        for set in self.sets.iter() {
            for (i, shard) in set.shards.iter().enumerate() {
                out.push(ShardStatsSnapshot {
                    model: set.model.info.id,
                    shard: i as u16,
                    active: !shard.dead.load(Ordering::Acquire),
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
        let err = |e: SubmitError, done: Completion| Err((e, done));
        if self.draining.load(Ordering::Acquire) {
            return err(SubmitError::ShuttingDown, done);
        }
        let set = match self.sets.get(model as usize) {
            Some(set) => set,
            None => return err(SubmitError::UnknownModel(model), done),
        };
        if mode == InferMode::Keyed && !set.model.info.has_key {
            return err(SubmitError::KeyUnavailable(model), done);
        }
        if cols != set.model.info.in_features {
            return err(
                SubmitError::BadWidth {
                    expected: set.model.info.in_features,
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
        if data.len() != rows * cols {
            return err(
                SubmitError::BadLength {
                    expected: rows * cols,
                    got: data.len(),
                },
                done,
            );
        }
        // Pick the shard before arming anything: with no live shard the
        // request is rejected without touching a queue.
        let Some(shard_idx) = set.dispatch() else {
            return err(SubmitError::WorkerFailed, done);
        };
        // Arm the gauge before the push so a completion firing immediately
        // after admission can never decrement below zero.
        let mut done = done;
        Metrics::bump(&self.metrics.inflight);
        done.gauge = Some(Arc::clone(&self.metrics));
        let pending = Pending {
            mode,
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
    /// joins the batch workers. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        for set in self.sets.iter() {
            for shard in &set.shards {
                shard.queue.drain();
            }
        }
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
    use hpnn_nn::mlp;
    use hpnn_tensor::{Rng, Shape, Tensor};
    use std::time::Duration;

    // The helpers below also serve the `queue` and `shard` tests.

    pub(super) fn registry_with_mlp(seed: u64) -> ServeRegistry {
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
    pub(super) fn trusted_bits(reg: &ServeRegistry, input: &[f32]) -> Vec<u32> {
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

    pub(super) fn quick_cfg() -> ServeConfig {
        ServeConfig::builder()
            .max_batch(8)
            .max_wait(Duration::from_millis(1))
            .queue_cap(64)
            .max_rows_per_request(32)
            .build()
            .unwrap()
    }

    pub(super) const PATIENT: Duration = Duration::from_secs(5);

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

    /// The wire decoder sizes a request's body from its header, but an
    /// embedder can hand `submit` any vector. A short one used to reach the
    /// worker, panic there and leave the model's only shard dead.
    #[test]
    fn length_mismatch_is_refused_at_admission_and_the_shard_lives() {
        let reg = registry_with_mlp(17);
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::start(&reg, quick_cfg(), Arc::clone(&metrics)).unwrap();
        assert_eq!(
            sched
                .submit(0, InferMode::Keyed, 2, 4, vec![0.0; 4], None)
                .err(),
            Some(SubmitError::BadLength {
                expected: 8,
                got: 4
            })
        );
        let input = vec![0.25, -0.5, 1.0, 2.0];
        let rx = sched
            .submit(0, InferMode::Keyed, 1, 4, input.clone(), None)
            .expect("the shard must still be live");
        match rx.recv().unwrap() {
            ReplyPayload::Logits { data, .. } => {
                let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, trusted_bits(&reg, &input));
            }
            other => panic!("expected logits, got {other:?}"),
        }
        sched.drain();
        let s = metrics.snapshot();
        assert_eq!((s.worker_panics, s.inflight, s.requests), (0, 0, 1));
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
}
