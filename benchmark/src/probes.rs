//! Per-layer probes of the traced run: timed calls into the public
//! functions of each crate, on the workload's own model and frame shapes.
//! Each probe wraps its calls in spans and reports medians.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hpnn_bytes::{BytesMut, FrameBuffer};
use hpnn_core::{HpnnTrainer, LockedModel};
use hpnn_hw::TrustedAccelerator;
use hpnn_nn::{softmax_cross_entropy, LayerSpec, Network, NetworkSpec, Sgd, TrainConfig};
use hpnn_serve::{InferMode, Reply, Request, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION};
use hpnn_tensor::{Rng, Tensor};

use crate::models::Locked;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::spec::NOT_MEASURED;
use crate::stats;

/// Times `f` in `repeats` batches of `batch` calls; returns the median
/// nanoseconds per call and the number of calls.
fn ns_per_call(batch: usize, repeats: usize, mut f: impl FnMut()) -> (f64, u64) {
    let per_batch: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                f();
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    (stats::median(&per_batch), (batch * repeats) as u64)
}

/// Calls `f` repeatedly for about `window` (at least `min_calls` times,
/// after one warm-up call) and returns each call's milliseconds.
fn ms_per_call(window: Duration, min_calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let started = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min_calls || started.elapsed() < window {
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ms
}

fn rows_of(t: &Tensor, n: usize) -> Tensor {
    let idx: Vec<usize> = (0..n).map(|i| i % t.shape().rows()).collect();
    t.gather_rows(&idx)
}

/// `protocol.*` and `bytes.frame_extract_ns`: encode, decode and frame
/// extraction on a request of `rows` input rows and its reply.
pub fn protocol(
    inputs: &Tensor,
    rows: usize,
    logits: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let span = rec.open("probe.protocol", 0, 0);
    let cols = inputs.shape().cols();
    let request = Request::Infer {
        model: 0,
        mode: InferMode::Keyed,
        deadline_us: 0,
        rows,
        cols,
        data: rows_of(inputs, rows).into_vec(),
    };
    let reply = Reply::Logits {
        rows,
        cols: logits,
        data: vec![0.5; rows * logits],
    };
    let mut request_frame = BytesMut::new();
    request.encode(&mut request_frame, PROTOCOL_VERSION, 7);
    let mut reply_frame = BytesMut::new();
    reply.encode(&mut reply_frame, PROTOCOL_VERSION, 7);
    // A frame payload is what follows the 4-byte length prefix.
    let (request_payload, reply_payload) = (&request_frame[4..], &reply_frame[4..]);
    let (batch, repeats) = (200, 15);

    let (ns, n) = ns_per_call(batch, repeats, || {
        let mut buf = BytesMut::new();
        black_box(&request).encode(&mut buf, PROTOCOL_VERSION, 7);
        black_box(buf);
    });
    out.set("protocol.encode_request_ns", ns, n);
    let (ns, n) = ns_per_call(batch, repeats, || {
        black_box(Request::decode(black_box(request_payload)).expect("own request decodes"));
    });
    out.set("protocol.decode_request_ns", ns, n);
    let (ns, n) = ns_per_call(batch, repeats, || {
        let mut buf = BytesMut::new();
        black_box(&reply).encode(&mut buf, PROTOCOL_VERSION, 7);
        black_box(buf);
    });
    out.set("protocol.encode_reply_ns", ns, n);
    let (ns, n) = ns_per_call(batch, repeats, || {
        black_box(Reply::decode(black_box(reply_payload)).expect("own reply decodes"));
    });
    out.set("protocol.decode_reply_ns", ns, n);
    let mut frames = FrameBuffer::new(MAX_FRAME_PAYLOAD);
    let (ns, n) = ns_per_call(batch, repeats, || {
        frames.feed(black_box(&request_frame));
        black_box(frames.next_frame().expect("own frame").expect("complete"));
    });
    out.set("bytes.frame_extract_ns", ns, n);
    rec.close(span);
}

/// Span name of a replayed layer.
fn layer_span(kind: &str) -> &'static str {
    match kind {
        "conv2d" => "replay.layer.conv2d",
        "dense" => "replay.layer.dense",
        "relu" => "replay.layer.relu",
        "maxpool2d" => "replay.layer.maxpool2d",
        _ => "replay.layer.other",
    }
}

/// Index and flops per row of the largest layer `pick` selects.
fn largest_layer(
    spec: &NetworkSpec,
    pick: impl Fn(&LayerSpec) -> Option<usize>,
) -> Option<(usize, usize)> {
    spec.layers
        .iter()
        .enumerate()
        .filter_map(|(i, l)| pick(l).map(|macs| (i, 2 * macs)))
        .max_by_key(|&(_, flops)| flops)
}

/// `nn.*` forward numbers and `tensor.*` kernel rates on the deployed
/// model: cost per row at four batch sizes, the share of each layer kind
/// at batch 16, achieved GFLOP/s of the largest dense and conv layer, and
/// what the lock costs (key-derived factors against all-`+1` factors, and
/// the keyless deployment against the keyed one).
pub fn forward(locked: &Locked, inputs: &Tensor, rec: &mut Recorder, out: &mut Outcome) {
    let span = rec.open("probe.forward", 0, 0);
    let window = Duration::from_millis(150);
    let mut keyed = locked
        .model
        .deploy_trusted(&locked.vault())
        .expect("deploy keyed");
    let mut full_b16_ms = 0.0;
    for b in [1usize, 8, 16, 64] {
        let x = rows_of(inputs, b);
        let ms = ms_per_call(window, 5, || {
            black_box(keyed.forward(black_box(&x), false));
        });
        let median = stats::median(&ms);
        if b == 16 {
            full_b16_ms = median;
        }
        out.set(
            &format!("nn.forward_us_per_row_b{b}"),
            median * 1e3 / b as f64,
            ms.len() as u64,
        );
    }

    // Layer shares at batch 16: replay the forward one layer at a time.
    let x16 = rows_of(inputs, 16);
    let layers = keyed.len();
    let repeats = 15;
    let mut per_layer_ms = vec![Vec::with_capacity(repeats); layers];
    for _ in 0..repeats {
        let replay = rec.open("replay.forward", span, 0);
        let mut act = x16.clone();
        for (i, samples) in per_layer_ms.iter_mut().enumerate() {
            let s = rec.open(layer_span(keyed.layer(i).name()), replay, 0);
            let t = Instant::now();
            let next = keyed.forward_range(&act, false, i..i + 1);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            rec.close(s);
            act = next;
        }
        rec.close(replay);
    }
    let mut by_kind = [
        ("conv2d", 0.0),
        ("dense", 0.0),
        ("relu", 0.0),
        ("maxpool2d", 0.0),
    ];
    let mut layers_ms = 0.0;
    for (i, samples) in per_layer_ms.iter().enumerate() {
        let median = stats::median(samples);
        layers_ms += median;
        if let Some(slot) = by_kind
            .iter_mut()
            .find(|(k, _)| *k == keyed.layer(i).name())
        {
            slot.1 += median;
        }
    }
    let share = |ms: f64| {
        if full_b16_ms > 0.0 {
            ms / full_b16_ms
        } else {
            0.0
        }
    };
    for (kind, metric) in [
        ("conv2d", "nn.conv_share"),
        ("dense", "nn.dense_share"),
        ("relu", "nn.relu_share"),
        ("maxpool2d", "nn.pool_share"),
    ] {
        let ms = by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |k| k.1);
        out.set(metric, share(ms), repeats as u64);
    }
    out.set(
        "nn.forward_unaccounted_share",
        share(full_b16_ms - layers_ms),
        repeats as u64,
    );

    // Kernel rates: computed flops of the largest layer over its timed
    // forward alone; not measured for a model without such a layer.
    let spec = locked.model.spec();
    let mut layer_rate = |index: usize, flops_per_row: usize, b: usize| {
        let x = rows_of(inputs, b);
        let act = keyed.forward_range(&x, false, 0..index);
        let ms = ms_per_call(Duration::from_millis(60), 5, || {
            black_box(keyed.forward_range(black_box(&act), false, index..index + 1));
        });
        let gflops = (flops_per_row * b) as f64 / (stats::median(&ms) * 1e6);
        (gflops, ms.len() as u64)
    };
    let dense = largest_layer(spec, |l| match l {
        LayerSpec::Dense {
            in_features,
            out_features,
        } => Some(in_features * out_features),
        _ => None,
    });
    for b in [1usize, 16, 64] {
        let (gflops, n) = dense.map_or((NOT_MEASURED, 0), |(i, flops)| layer_rate(i, flops, b));
        out.set(&format!("tensor.dense_gflops_b{b}"), gflops, n);
    }
    let conv = largest_layer(spec, |l| match l {
        LayerSpec::Conv2d { geom } => Some(geom.macs_per_sample()),
        _ => None,
    });
    let (gflops, n) = conv.map_or((NOT_MEASURED, 0), |(i, flops)| layer_rate(i, flops, 16));
    out.set("tensor.conv_gflops_b16", gflops, n);

    // Lock cost, interleaved so drift hits all three alike.
    let mut plus_one = locked.model.deploy_stolen().expect("deploy");
    plus_one.install_lock_factors(&vec![1.0; plus_one.lockable_neurons()]);
    let mut keyless = locked.model.deploy_stolen().expect("deploy keyless");
    let mut timed = [Vec::new(), Vec::new(), Vec::new()];
    for net in [&mut keyed, &mut plus_one, &mut keyless] {
        black_box(net.forward(&x16, false));
    }
    for _ in 0..25 {
        for (net, ms) in [&mut keyed, &mut plus_one, &mut keyless]
            .into_iter()
            .zip(timed.iter_mut())
        {
            let t = Instant::now();
            black_box(net.forward(black_box(&x16), false));
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let [keyed_ms, plus_ms, keyless_ms] = timed.map(|ms| stats::median(&ms));
    out.set("nn.lock_cost_frac", keyed_ms / plus_ms - 1.0, 25);
    out.set("nn.keyless_over_keyed", keyless_ms / keyed_ms, 25);
    rec.close(span);
}

/// Scales all gradients so their global L2 norm is at most `max_norm`, as
/// the trainer's private helper does.
fn clip_gradients(net: &mut Network, max_norm: f32) {
    let mut norm_sq = 0.0f32;
    net.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        net.visit_params(&mut |p| p.grad.scale_inplace(scale));
    }
}

/// One training step of `hpnn_nn::train`, its five parts timed. Returns
/// `[gather, forward, loss, backward, optimizer, whole step]` in ms and the
/// number of correct training predictions.
#[allow(clippy::too_many_arguments)]
fn train_step(
    net: &mut Network,
    opt: &mut Sgd,
    config: &TrainConfig,
    inputs: &Tensor,
    labels: &[usize],
    chunk: &[usize],
    lr: f32,
    parent: u32,
    rec: &mut Recorder,
) -> [f64; 6] {
    let mut ms = [0.0; 6];
    let step = rec.open("train.step", parent, 0);
    let whole = Instant::now();
    let mut part = |k: usize, name: &'static str, rec: &mut Recorder, f: &mut dyn FnMut()| {
        let s = rec.open(name, step, 0);
        let t = Instant::now();
        f();
        ms[k] = t.elapsed().as_secs_f64() * 1e3;
        rec.close(s);
    };
    let mut batch = None;
    part(0, "train.gather", rec, &mut || {
        let x = inputs.gather_rows(chunk);
        let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        batch = Some((x, y));
    });
    let (x, y) = batch.expect("gathered");
    let mut logits = None;
    part(1, "train.forward", rec, &mut || {
        logits = Some(net.forward(&x, true));
    });
    let logits = logits.expect("forward ran");
    let mut loss = None;
    part(2, "train.loss", rec, &mut || {
        loss = Some(softmax_cross_entropy(&logits, &y));
    });
    let loss = loss.expect("loss ran");
    // The trainer counts training accuracy here; it is part of the step.
    black_box(logits.argmax_rows());
    part(3, "train.backward", rec, &mut || {
        black_box(net.backward(&loss.grad));
    });
    part(4, "train.optimizer", rec, &mut || {
        if config.grad_clip > 0.0 {
            clip_gradients(net, config.grad_clip);
        }
        opt.lr = lr;
        opt.step(net);
    });
    ms[5] = whole.elapsed().as_secs_f64() * 1e3;
    rec.close(step);
    ms
}

fn sgd_for(config: &TrainConfig) -> Sgd {
    Sgd::new(config.lr)
        .momentum(config.momentum)
        .weight_decay(config.weight_decay)
}

/// The loop of `hpnn_nn::train` exactly as `HpnnTrainer::train` drives it
/// (same seed use, shuffling, schedule, clipping and per-epoch evaluation),
/// run one epoch at a time so the caller can do other work between epochs.
/// Every epoch and every part of every step is timed (and, when the recorder
/// is on, gets a span).
pub struct TrainReplay<'a> {
    config: &'a TrainConfig,
    train: (&'a Tensor, &'a [usize]),
    eval: (&'a Tensor, &'a [usize]),
    pub net: Network,
    rng: Rng,
    order: Vec<usize>,
    opt: Sgd,
    step: usize,
    /// Milliseconds of `[gather, forward, loss, backward, optimizer, whole
    /// step]`, one entry per step.
    parts: [Vec<f64>; 6],
    /// Wall milliseconds of each epoch's shuffle and training steps; the
    /// test-set pass that follows each epoch is outside it.
    pub epoch_ms: Vec<f64>,
}

impl<'a> TrainReplay<'a> {
    /// Builds the locked network; no epoch has run yet.
    pub fn start(
        trainer: &'a HpnnTrainer,
        train: (&'a Tensor, &'a [usize]),
        eval: (&'a Tensor, &'a [usize]),
    ) -> Self {
        let mut rng = Rng::new(trainer.seed);
        let net = trainer
            .build_locked_network(&mut rng)
            .expect("build locked network");
        TrainReplay {
            config: &trainer.config,
            train,
            eval,
            net,
            rng,
            order: (0..train.1.len()).collect(),
            opt: sgd_for(&trainer.config),
            step: 0,
            parts: Default::default(),
            epoch_ms: Vec::with_capacity(trainer.config.epochs),
        }
    }

    /// `true` once every configured epoch has run.
    pub fn done(&self) -> bool {
        self.epoch_ms.len() == self.config.epochs
    }

    /// Runs the next epoch and the test-set pass that follows it.
    pub fn epoch(&mut self, rec: &mut Recorder) {
        let config = self.config;
        let (inputs, labels) = self.train;
        let total_steps = labels.len().div_ceil(config.batch_size) * config.epochs;
        let root = rec.open("owner.train", 0, 0);
        let epoch = rec.open("train.epoch", root, 0);
        let started = Instant::now();
        if config.shuffle {
            self.rng.shuffle(&mut self.order);
        }
        for chunk in self.order.chunks(config.batch_size) {
            let lr = config.lr_at(self.step, total_steps);
            self.step += 1;
            let ms = train_step(
                &mut self.net,
                &mut self.opt,
                config,
                inputs,
                labels,
                chunk,
                lr,
                epoch,
                rec,
            );
            for (all, one) in self.parts.iter_mut().zip(ms) {
                all.push(one);
            }
        }
        self.epoch_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let (net, eval) = (&mut self.net, self.eval);
        rec.within("train.eval", epoch, || {
            black_box(net.accuracy(eval.0, eval.1));
        });
        rec.close(epoch);
        rec.close(root);
    }

    /// Reports the step budget as `nn.train_*` and hands back the trained
    /// network and the epoch times.
    pub fn finish(self, out: &mut Outcome) -> (Network, Vec<f64>) {
        let steps = self.parts[5].len() as u64;
        let medians = self.parts.map(|ms| stats::median(&ms));
        for (metric, ms) in [
            "nn.train_gather_ms",
            "nn.train_forward_ms",
            "nn.train_loss_ms",
            "nn.train_backward_ms",
            "nn.train_optimizer_ms",
        ]
        .into_iter()
        .zip(medians)
        {
            out.set(metric, ms, steps);
        }
        let accounted: f64 = medians[..5].iter().sum();
        out.set(
            "nn.train_step_unaccounted_frac",
            (medians[5] - accounted) / medians[5],
            steps,
        );
        out.set(
            "nn.train_samples_per_s",
            self.train.1.len() as f64 / (stats::median(&self.epoch_ms) / 1e3),
            self.epoch_ms.len() as u64,
        );
        (self.net, self.epoch_ms)
    }
}

/// `nn.train_lock_cost_frac`: a key-dependent step against a conventional
/// one (no lock factors installed) on the same batches, alternating which
/// of the two runs first.
pub fn train_lock_cost(
    trainer: &HpnnTrainer,
    train: (&Tensor, &[usize]),
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let span = rec.open("probe.train_lock_cost", 0, 0);
    let config = &trainer.config;
    let mut rng = Rng::new(trainer.seed);
    let mut locked = trainer
        .build_locked_network(&mut rng)
        .expect("build locked network");
    let mut plain = trainer.spec.build(&mut rng).expect("build plain network");
    let (mut opt_locked, mut opt_plain) = (sgd_for(config), sgd_for(config));
    let (inputs, labels) = train;
    let order: Vec<usize> = (0..labels.len()).collect();
    let mut quiet = Recorder::new(Instant::now(), false);
    let (mut locked_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let chunks = order.chunks(config.batch_size).cycle().take(13);
    for (k, chunk) in chunks.enumerate() {
        let mut step = |net: &mut Network, opt: &mut Sgd| {
            train_step(
                net, opt, config, inputs, labels, chunk, config.lr, 0, &mut quiet,
            )[5]
        };
        let (a, b) = if k % 2 == 0 {
            let a = step(&mut locked, &mut opt_locked);
            (a, step(&mut plain, &mut opt_plain))
        } else {
            let b = step(&mut plain, &mut opt_plain);
            (step(&mut locked, &mut opt_locked), b)
        };
        // The first pair warms both networks' scratch buffers.
        if k > 0 {
            locked_ms.push(a);
            plain_ms.push(b);
        }
    }
    out.set(
        "nn.train_lock_cost_frac",
        stats::median(&locked_ms) / stats::median(&plain_ms) - 1.0,
        locked_ms.len() as u64,
    );
    rec.close(span);
}

/// One publication and deployment of a model.
pub struct Deployment {
    pub decoded: LockedModel,
    /// The keyed network the trusted side runs.
    pub deployed: Network,
    /// `[to_bytes ms, from_bytes ms, derive lock factors us, deploy_trusted
    /// ms]`.
    pub times: [f64; 4],
}

/// Publishes `locked` (`to_bytes`), decodes it (`from_bytes`), derives the
/// lock factors and deploys it, timing each step once.
pub fn publish_and_deploy(locked: &Locked, rec: &mut Recorder) -> Deployment {
    let span = rec.open("owner.deploy", 0, 0);
    let vault = locked.vault();
    let t = Instant::now();
    let bytes = rec.within("publish.encode", span, || locked.model.to_bytes());
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let decoded = rec.within("deploy.decode", span, || {
        LockedModel::from_bytes(bytes).expect("own container decodes")
    });
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    rec.within("deploy.derive", span, || {
        black_box(vault.with_key(|k| decoded.schedule().derive_lock_factors(k)));
    });
    let derive_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let deployed = rec.within("deploy.install", span, || {
        decoded.deploy_trusted(&vault).expect("deploy trusted")
    });
    let install_ms = t.elapsed().as_secs_f64() * 1e3;
    rec.close(span);
    assert!(
        decoded == locked.model,
        "container round trip changed the model"
    );
    Deployment {
        decoded,
        deployed,
        times: [encode_ms, decode_ms, derive_us, install_ms],
    }
}

/// Reports the medians of several [`Deployment::times`] as `core.*`.
pub fn report_deployments(times: &[[f64; 4]], out: &mut Outcome) {
    for (k, metric) in [
        "core.encode_model_ms",
        "core.decode_model_ms",
        "core.derive_lock_factors_us",
        "core.deploy_trusted_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let samples: Vec<f64> = times.iter().map(|t| t[k]).collect();
        out.set(metric, stats::median(&samples), samples.len() as u64);
    }
}

/// `core.accuracy_*`: what the key is worth on `(inputs, labels)`, as
/// `(with key, without key)`.
pub fn key_accuracy(
    decoded: &LockedModel,
    deployed: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    out: &mut Outcome,
) -> (f64, f64) {
    let rows = labels.len() as u64;
    let with_key = f64::from(deployed.accuracy(inputs, labels));
    let mut stolen = decoded.deploy_stolen().expect("deploy stolen");
    let without_key = f64::from(stolen.accuracy(inputs, labels));
    out.set("core.accuracy_with_key", with_key, rows);
    out.set("core.accuracy_without_key", without_key, rows);
    (with_key, without_key)
}

/// Repeated `Network::accuracy` passes over `(inputs, labels)` for about
/// `window`: each pass's milliseconds and the accuracy.
pub fn eval_stage(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    window: Duration,
    rec: &mut Recorder,
) -> (Vec<f64>, f32) {
    let span = rec.open("owner.eval", 0, 0);
    let mut accuracy = 0.0;
    let ms = ms_per_call(window, 5, || {
        let s = rec.open("eval.pass", span, 0);
        accuracy = net.accuracy(black_box(inputs), labels);
        rec.close(s);
    });
    rec.close(span);
    (ms, accuracy)
}

/// Rows per chunk handed to the simulated device.
pub const DEVICE_CHUNK: usize = 64;

/// What the device stage measured, summed over its calls.
#[derive(Debug, Default)]
pub struct DeviceRun {
    pub chunk_ms: Vec<f64>,
    /// Rows whose device argmax was compared with the software argmax, and
    /// how many agreed.
    checked_rows: usize,
    agreed_rows: usize,
    pub max_abs_err: f64,
    /// Exact totals from `DeviceStats`.
    macs: u64,
    cycles: u64,
}

impl DeviceRun {
    /// Rows whose device argmax was compared with the software one.
    pub fn checked_rows(&self) -> usize {
        self.checked_rows
    }

    /// Share of checked rows whose device argmax equals the software one.
    pub fn agree_frac(&self) -> f64 {
        self.agreed_rows as f64 / self.checked_rows.max(1) as f64
    }
}

/// Runs `inputs` through the simulated trusted accelerator in
/// [`DEVICE_CHUNK`]-row chunks, cycling for about `window`, timing
/// `TrustedAccelerator::run` alone, and adds what it saw to `run`. The
/// software logits it is compared against are computed outside the timed
/// call.
pub fn device_stage(
    locked: &Locked,
    software: &mut Network,
    inputs: &Tensor,
    window: Duration,
    rec: &mut Recorder,
    run: &mut DeviceRun,
) {
    let span = rec.open("owner.device", 0, 0);
    let mut device = TrustedAccelerator::new(&locked.vault());
    let chunks: Vec<Tensor> = (0..inputs.shape().rows() / DEVICE_CHUNK)
        .map(|c| {
            let idx: Vec<usize> = (c * DEVICE_CHUNK..(c + 1) * DEVICE_CHUNK).collect();
            inputs.gather_rows(&idx)
        })
        .collect();
    assert!(!chunks.is_empty(), "at least one device chunk of inputs");
    let references: Vec<Tensor> = chunks.iter().map(|x| software.forward(x, false)).collect();
    let started = Instant::now();
    let mut k = 0;
    // At least once over all inputs, so every row is checked.
    while k < chunks.len() || started.elapsed() < window {
        let (x, want) = (&chunks[k % chunks.len()], &references[k % chunks.len()]);
        k += 1;
        let s = rec.open("device.run", span, 0);
        let t = Instant::now();
        let got = device.run(&locked.model, x).expect("device run");
        run.chunk_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rec.close(s);
        // Every chunk computes the same thing each time round; check the
        // first pass over the inputs only.
        if k <= chunks.len() {
            run.agreed_rows += got
                .argmax_rows()
                .iter()
                .zip(want.argmax_rows())
                .filter(|(a, b)| **a == *b)
                .count();
            run.checked_rows += DEVICE_CHUNK;
            run.max_abs_err = run.max_abs_err.max(f64::from(got.max_abs_diff(want)));
        }
    }
    rec.close(span);
    let mmu = device.stats().mmu;
    run.macs += mmu.macs;
    run.cycles += mmu.cycles;
}

/// Reports a device run as `hw.*`.
pub fn report_device(run: &DeviceRun, out: &mut Outcome) {
    let n = run.chunk_ms.len() as u64;
    let chunk_s = stats::median(&run.chunk_ms) / 1e3;
    let total_rows = (run.chunk_ms.len() * DEVICE_CHUNK) as f64;
    let macs_per_row = run.macs as f64 / total_rows;
    out.set("hw.macs_per_row", macs_per_row, n);
    out.set("hw.cycles_per_row", run.cycles as f64 / total_rows, n);
    out.set(
        "hw.sim_macs_per_s",
        macs_per_row * DEVICE_CHUNK as f64 / chunk_s,
        n,
    );
    out.set("hw.device_rows_per_s", DEVICE_CHUNK as f64 / chunk_s, n);
    out.set("hw.argmax_agree_frac", run.agree_frac(), n);
    out.set("hw.max_abs_logit_err", run.max_abs_err, n);
}

/// The probes a serving workload's traced run adds, on its primary model
/// and pool: the layers its requests pass through, timed alone.
pub fn for_serving(
    locked: &Locked,
    inputs: &Tensor,
    frame_rows: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let logits = locked.model.spec().out_features();
    protocol(inputs, frame_rows, logits, rec, out);
    forward(locked, inputs, rec, out);
    let times: Vec<[f64; 4]> = (0..5)
        .map(|_| publish_and_deploy(locked, rec).times)
        .collect();
    report_deployments(&times, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{synthesize, ModelKind};
    use hpnn_core::HpnnKey;

    #[test]
    fn replay_trains_exactly_the_model_the_trainer_trains() {
        let kind = ModelKind::Cnn1Small;
        let (ds, _) = synthesize(kind.input(), 80, 20, 3);
        let key = HpnnKey::random(&mut Rng::new(5));
        let trainer = HpnnTrainer::new(kind.spec(), key)
            .with_config(TrainConfig::default().with_epochs(2))
            .with_seed(9);
        let artifacts = trainer.train(&ds).expect("train");

        let mut rec = Recorder::new(Instant::now(), true);
        let mut out = Outcome::default();
        let mut replay = TrainReplay::start(
            &trainer,
            (&ds.train_inputs, &ds.train_labels),
            (&ds.test_inputs, &ds.test_labels),
        );
        while !replay.done() {
            replay.epoch(&mut rec);
        }
        let (mut net, epoch_ms) = replay.finish(&mut out);
        let model = LockedModel::from_network(
            trainer.spec.clone(),
            &mut net,
            trainer.schedule(),
            artifacts.model.metadata().clone(),
        );
        assert!(
            model == artifacts.model,
            "replayed weights differ from the trainer's"
        );
        assert_eq!(epoch_ms.len(), 2);

        // 80 rows in batches of 32: three steps per epoch, each with its
        // five parts under it.
        let totals = crate::spans::totals_by_name(rec.spans());
        assert_eq!(totals["train.step"].count, 6);
        for part in [
            "train.gather",
            "train.forward",
            "train.loss",
            "train.backward",
            "train.optimizer",
        ] {
            assert_eq!(totals[part].count, 6, "{part}");
        }
        assert_eq!(totals["train.eval"].count, 2);
        assert!(out.get("nn.train_backward_ms").unwrap() > 0.0);
        assert!(out.get("nn.train_step_unaccounted_frac").unwrap() < 0.5);
    }
}
