//! Placement, panic containment and the forward: a model's fixed
//! [`ShardSet`], the one dispatch rule (the shallowest live queue), and the
//! [`batch_worker`] each [`Shard`] runs — pop a batch, expire and group it
//! by mode, run each group through the model's shared plan and split the
//! output back into replies — which marks its shard dead instead of taking
//! the server down.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hpnn_core::InferencePlan;
use hpnn_tensor::{Shape, Tensor};

use super::queue::{BatchQueue, Pending, ReplyPayload};
use crate::config::ServeConfig;
use crate::event::WakeSet;
use crate::metrics::{Histogram, Metrics};
use crate::protocol::{ErrorCode, InferMode, ModelInfo};

/// One shard: a bounded queue drained by a dedicated worker, plus the
/// shard-local latency histograms.
#[derive(Default)]
pub(super) struct Shard {
    pub(super) queue: BatchQueue,
    /// Batched-forward wall time per reply served by this shard.
    pub(super) forward: Histogram,
    /// Admission-to-pop wait per reply served by this shard.
    pub(super) queue_wait: Histogram,
    /// The worker died (panicked); the dispatcher skips this shard.
    pub(super) dead: AtomicBool,
    /// Test hook: the next popped batch panics instead of running.
    pub(super) panic_next: AtomicBool,
}

/// Picks the shallowest live shard; `None` entries are dead shards. Ties
/// break toward the lowest index, so the choice is deterministic.
fn pick_least_loaded(depths: impl IntoIterator<Item = Option<usize>>) -> Option<usize> {
    depths
        .into_iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|depth| (depth, i)))
        .min()
        .map(|(_, i)| i)
}

/// Everything about one model that its shard workers share: built once at
/// start, immutable after.
pub(super) struct ModelCtx {
    /// The model's one deployment; a group's mode picks the lock view.
    pub(super) plan: InferencePlan,
    /// Layers in the plan; a forward runs all of them.
    pub(super) layers: usize,
    /// Wire-facing description: id, input / output widths, `has_key`.
    pub(super) info: ModelInfo,
    pub(super) metrics: Arc<Metrics>,
}

/// One model's shards, fixed at start.
pub(super) struct ShardSet {
    pub(super) shards: Vec<Arc<Shard>>,
    pub(super) model: Arc<ModelCtx>,
}

impl ShardSet {
    /// Picks a live shard for an admitted request, or `None` when every
    /// shard's worker is dead.
    pub(super) fn dispatch(&self) -> Option<usize> {
        pick_least_loaded(self.shards.iter().map(|s| {
            (!s.dead.load(Ordering::Acquire)).then(|| s.queue.depth_rows.load(Ordering::Relaxed))
        }))
    }
}

/// Runs one shard's coalescing loop until the queue drains dry — or a
/// batch panics, in which case the shard is marked dead, its queue is
/// answered with `Internal`, and the worker exits instead of stranding
/// clients until their deadlines. The plan is only ever read, so a panic
/// here leaves the other shards' view of it intact.
pub(super) fn batch_worker(shard: Arc<Shard>, cfg: ServeConfig, model: Arc<ModelCtx>) {
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

/// Concatenates a group's rows into one contiguous buffer.
fn concat_rows(group: &[Pending]) -> (usize, Vec<f32>) {
    let total_rows: usize = group.iter().map(|p| p.rows).sum();
    let mut data = Vec::with_capacity(group.iter().map(|p| p.data.len()).sum());
    for p in group {
        data.extend_from_slice(&p.data);
    }
    (total_rows, data)
}

/// Expires, groups, and runs one popped batch.
fn process_batch(shard: &Shard, model: &ModelCtx, batch: Vec<Pending>) {
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
    // Group by mode, preserving arrival order within each group, and
    // expire requests whose deadline already passed.
    let mut groups: Vec<(InferMode, Vec<Pending>)> = Vec::new();
    for p in batch {
        if p.deadline.is_some_and(|d| d < popped) {
            Metrics::bump(&model.metrics.expired);
            p.done.complete(ReplyPayload::Expired);
            continue;
        }
        match groups.iter_mut().find(|(mode, _)| *mode == p.mode) {
            Some((_, g)) => g.push(p),
            None => groups.push((p.mode, vec![p])),
        }
    }
    for (mode, group) in groups {
        let (rows, data) = concat_rows(&group);
        let fwd_start = Instant::now();
        // Admission (`KeyUnavailable`) keeps keyed groups off vault-less
        // plans, so the refusal below never fires in a correct build.
        let view = match mode {
            InferMode::Keyed => model.plan.keyed(),
            InferMode::Keyless => Some(model.plan.keyless()),
        };
        let Some(view) = view else {
            for p in group {
                p.done.complete(ReplyPayload::Failed {
                    code: ErrorCode::Internal,
                });
            }
            continue;
        };
        let x = Tensor::from_vec(Shape::d2(rows, model.info.in_features), data)
            .expect("admission fixes data.len() == rows * in_features");
        let y = view.run(&x, 0..model.layers);
        debug_assert_eq!(y.shape().dims(), &[rows, model.info.out_features]);
        let fwd_ns = fwd_start.elapsed().as_nanos() as u64;
        Metrics::bump(&model.metrics.batches);
        finish_group(model, shard, group, y.data(), fwd_ns, fill_ns, popped);
    }
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
fn finish_group(
    model: &ModelCtx,
    shard: &Shard,
    group: Vec<Pending>,
    out: &[f32],
    fwd_ns: u64,
    fill_ns: u64,
    popped: Instant,
) {
    let (metrics, out_features) = (&*model.metrics, model.info.out_features);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WakePipe;
    use crate::registry::ServeRegistry;
    use crate::scheduler::queue::Completion;
    use crate::scheduler::tests::{quick_cfg, registry_with_mlp, trusted_bits, PATIENT};
    use crate::scheduler::{Scheduler, SubmitError};
    use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
    use hpnn_nn::mlp;
    use hpnn_tensor::Rng;
    use std::sync::Mutex;
    use std::thread;
    use std::time::Duration;

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
            let picked = pick_least_loaded(depths.iter().copied()).expect("a live shard exists");
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
            pick_least_loaded([Some(3), Some(3), Some(1), Some(1)]),
            Some(2)
        );
        // No live shard: no pick.
        assert_eq!(pick_least_loaded([None, None]), None);
        assert_eq!(pick_least_loaded([]), None);
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
    fn pinned_shards_answer_every_request_bit_identically() {
        // A model slow enough that the flood backs up on any machine, so
        // the queues differ and placement spreads it over the four shards.
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
            .shards(4..=4)
            .build()
            .unwrap();
        let sched = Scheduler::start(&reg, cfg, Arc::clone(&metrics)).unwrap();
        // One worker thread per shard, and nothing else to join.
        assert_eq!(sched.workers.lock().unwrap().len(), 4);
        assert!(sched.shard_stats().iter().all(|sh| sh.active));

        const N: usize = 96;
        let input: Vec<f32> = (0..32).map(|i| (i as f32) / 32.0 - 0.5).collect();
        let rxs: Vec<_> = (0..N)
            .map(|_| {
                sched
                    .submit(0, InferMode::Keyed, 1, 32, input.clone(), None)
                    .unwrap()
            })
            .collect();
        // Every request gets logits, and identical inputs come back
        // bit-identical no matter which shard served them.
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
        sched.drain();
        let s = metrics.snapshot();
        assert_eq!(s.replies_ok, N as u64, "no request may be lost");
        assert_eq!(s.inflight, 0);
        // Exact reconciliation: every OK reply ran on exactly one shard,
        // and more than one shard took part in the comparison above.
        let served: Vec<u64> = sched
            .shard_stats()
            .iter()
            .map(|sh| sh.forward.count)
            .collect();
        assert_eq!(served.iter().sum::<u64>(), s.replies_ok);
        assert!(
            served.iter().filter(|&&n| n > 0).count() >= 2,
            "the flood stayed on one shard: {served:?}"
        );
    }

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
}
