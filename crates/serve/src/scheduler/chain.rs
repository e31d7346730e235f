//! The stage walk: a group popped by a shard is carried from its first
//! stage to its last by [`advance_chain`], locally on the model's shared
//! plan or — where a cluster plan allows — through a remote backend, and
//! its output is split back into per-request replies.

use std::sync::Arc;
use std::time::Instant;

use hpnn_core::{InferencePlan, LayerPartition, Stage};
use hpnn_tensor::{Shape, Tensor};

use super::queue::{Pending, ReplyPayload};
use super::shard::Shard;
use crate::cluster::{RemoteOutcome, RemoteStageBackend};
use crate::event::WakeSet;
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, InferMode};

/// Everything about one model that its shard workers and chain
/// continuations share: built once at start, immutable after.
pub(super) struct ModelCtx {
    pub(super) id: u16,
    /// The model's one deployment; a group's mode picks the lock view.
    pub(super) plan: InferencePlan,
    /// The cluster partition, when the model carries one (`FWD_ACT`
    /// admission checks stages against it).
    pub(super) partition: Option<Arc<LayerPartition>>,
    /// The chain a whole-network request walks: the partition's stages, or
    /// — unpartitioned — the one stage spanning every layer.
    pub(super) stages: Vec<Stage>,
    pub(super) remote: Option<Arc<dyn RemoteStageBackend>>,
    pub(super) metrics: Arc<Metrics>,
}

/// Concatenates a group's rows into one contiguous buffer.
pub(super) fn concat_rows(group: &[Pending]) -> (usize, Vec<f32>) {
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

/// One group mid-chain; owned by whichever thread is advancing it (the
/// batch worker, or a remote backend's reply thread).
pub(super) struct ChainGroup {
    pub(super) model: Arc<ModelCtx>,
    /// The shard that popped the batch; its histograms receive the chain's
    /// replies even when the chain finishes on a peer reply thread.
    pub(super) shard: Arc<Shard>,
    pub(super) mode: InferMode,
    /// One past the last stage the group runs.
    pub(super) end: usize,
    /// Whether offloadable stages may be offered to the remote backend.
    pub(super) may_offload: bool,
    pub(super) group: Vec<Pending>,
    pub(super) fill_ns: u64,
    pub(super) popped: Instant,
    pub(super) fwd_start: Instant,
    pub(super) total_rows: usize,
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
pub(super) fn advance_chain(
    chain: ChainGroup,
    mut stage_idx: usize,
    mut data: Vec<f32>,
    mut offer: bool,
) {
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
    use crate::config::ServeConfig;
    use crate::event::WakePipe;
    use crate::scheduler::queue::Completion;
    use crate::scheduler::tests::{quick_cfg, registry_with_mlp, trusted_bits, PATIENT};
    use crate::scheduler::Scheduler;
    use hpnn_tensor::Rng;
    use std::sync::Mutex;
    use std::time::Duration;

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
                .submit_with(0, None, InferMode::Keyed, 1, 4, vec![0.5; 4], None, done)
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
