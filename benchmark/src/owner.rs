//! `owner_flow`: the paper's Fig. 1 path with no server. The owner trains
//! CNN1 with key-dependent backpropagation and publishes a container after
//! every epoch; the trusted side decodes and deploys it and runs it on the
//! simulated accelerator. The final model is also evaluated in software.

use std::time::{Duration, Instant};

use hpnn_core::{HpnnKey, HpnnTrainer, LockedModel};
use hpnn_nn::TrainConfig;
use hpnn_tensor::Rng;

use crate::models::{synthesize, Locked, ModelKind};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::spec::{RUN_SECONDS, SET_UPS};
use crate::{host, probes, stats};

/// Sizes of the synthetic Fashion-MNIST stand-in (`DatasetScale::MEDIUM`).
const TRAIN_ROWS: usize = 4000;
const TEST_ROWS: usize = 1000;

/// Rows the device stage cycles over, in 64-row chunks.
const DEVICE_ROWS: usize = 256;

/// Epochs at the benchmark's run length; shorter runs train proportionally
/// less and skip the accuracy floor.
const EPOCHS: usize = 10;

/// Shares of the run length the software evaluation and the device stage
/// get; training takes about as long as the device stage.
const EVAL_SHARE: f64 = 0.1;
const DEVICE_SHARE: f64 = 0.45;

fn epochs_for(seconds: f64) -> usize {
    ((seconds / RUN_SECONDS as f64 * EPOCHS as f64).round() as usize).clamp(1, EPOCHS)
}

/// Runs the flow. Training is the loop of `HpnnTrainer::train` replayed
/// from the public functions it calls, because the trainer has no per-epoch
/// clock and cannot stop between epochs; a test proves the replay trains the
/// identical model. Traced, the run records its spans and ends with the
/// forward and lock-cost probes on the trained model.
///
/// Both slots hold the mean time per operation, not the median, and the
/// two stages alternate epoch by epoch instead of following each other.
/// The host runs single-threaded code at one of two speeds 1.28 apart and
/// switches every 1 to 30 seconds; an epoch or a chunk takes exactly one of
/// two times, so the median of a stage lands on whichever speed held for
/// most of it, and ten runs of one commit can spread by the whole 28 %. A
/// mean over samples from the whole run blends the two speeds in the
/// proportion the run saw them.
pub fn run(seed: u64, seconds: f64, process_start: Instant, rec: &mut Recorder, out: &mut Outcome) {
    let kind = ModelKind::Cnn1;
    let epochs = epochs_for(seconds);
    let full_length = epochs == EPOCHS;

    // Set-up ends where the owner's first operation, training, starts. It
    // is done SET_UPS times, the first counted from process start; the
    // median is what one warm set-up costs.
    let mut setup_s = Vec::with_capacity(SET_UPS);
    let (ds, synth_s, key, trainer) = loop {
        let started = if setup_s.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let (ds, synth_s) = synthesize(kind.input(), TRAIN_ROWS, TEST_ROWS, seed);
        let key = HpnnKey::random(&mut Rng::new(seed ^ 0x006b_6579));
        let trainer = HpnnTrainer::new(kind.spec(), key)
            .with_config(TrainConfig::default().with_epochs(epochs))
            .with_seed(seed);
        setup_s.push(started.elapsed().as_secs_f64());
        if setup_s.len() == SET_UPS {
            break (ds, synth_s, key, trainer);
        }
    };
    let train = (&ds.train_inputs, ds.train_labels.as_slice());
    let test = (&ds.test_inputs, ds.test_labels.as_slice());
    out.set("setup_s", stats::median(&setup_s), SET_UPS as u64);
    out.set("data.synthesize_s", synth_s, 1);
    let cpu_before = host::cpu_seconds();

    // Slots a and b: an epoch of key-dependent training, then the
    // checkpoint is published, decoded, deployed and run on the simulated
    // trusted accelerator, and so on until the last epoch.
    let device_rows = {
        let idx: Vec<usize> = (0..DEVICE_ROWS).collect();
        ds.test_inputs.gather_rows(&idx)
    };
    let device_window = Duration::from_secs_f64(seconds * DEVICE_SHARE / epochs as f64);
    let mut replay = probes::TrainReplay::start(&trainer, train, test);
    let mut device = probes::DeviceRun::default();
    let mut deploy_times = Vec::with_capacity(epochs);
    let mut last = None;
    while !replay.done() {
        replay.epoch(rec);
        let model = LockedModel::from_network(
            trainer.spec.clone(),
            &mut replay.net,
            trainer.schedule(),
            Default::default(),
        );
        let locked = Locked { kind, model, key };
        let mut deployment = probes::publish_and_deploy(&locked, rec);
        deploy_times.push(deployment.times);
        probes::device_stage(
            &locked,
            &mut deployment.deployed,
            &device_rows,
            device_window,
            rec,
            &mut device,
        );
        last = Some((locked, deployment));
    }
    let (locked, deployment) = last.expect("at least one epoch");
    let (decoded, mut deployed) = (deployment.decoded, deployment.deployed);
    let (_, epoch_ms) = replay.finish(out);
    out.set_slot(
        'a',
        "train epoch 4000 rows",
        stats::mean(&epoch_ms),
        &epoch_ms,
    );
    out.set_slot(
        'b',
        "device chunk 64 rows",
        stats::mean(&device.chunk_ms),
        &device.chunk_ms,
    );
    probes::report_deployments(&deploy_times, out);
    probes::report_device(&device, out);

    // What the key is worth, and the software evaluation over the test set,
    // on the final model.
    let (accuracy_with, accuracy_without) =
        probes::key_accuracy(&decoded, &mut deployed, test.0, test.1, out);
    let (pass_ms, _) = probes::eval_stage(
        &mut deployed,
        test.0,
        test.1,
        Duration::from_secs_f64(seconds * EVAL_SHARE),
        rec,
    );
    out.set(
        "nn.eval_rows_per_s",
        TEST_ROWS as f64 / (stats::median(&pass_ms) / 1e3),
        pass_ms.len() as u64,
    );
    out.set("peak_rss_mb", host::peak_rss_mb(), 1);

    let operations = (epochs + pass_ms.len() + device.chunk_ms.len()) as u64;
    out.set(
        "process.cpu_s_per_1k_ops",
        (host::cpu_seconds() - cpu_before) / operations as f64 * 1e3,
        operations,
    );
    out.attempted += operations;
    out.correct = true;
    let mut checks = vec![(
        "device argmax agrees with software on >= 0.98 of rows",
        device.agree_frac() >= 0.98,
    )];
    // A shortened run trains too little to be held to the accuracy floor.
    // What the missing key costs swings with the seed (0.14 to 0.81 left
    // without it over 41 seeds), so the check is only that it costs
    // something; the two accuracies are per-layer metrics.
    if full_length {
        checks.push(("accuracy with key >= 0.95", accuracy_with >= 0.95));
        checks.push((
            "accuracy without key < accuracy with key",
            accuracy_without < accuracy_with,
        ));
    }
    for (what, passed) in checks {
        if !passed {
            out.failed += 1;
            out.correct = false;
        }
        out.note(format!(
            "check {}: {what}",
            if passed { "ok" } else { "FAILED" }
        ));
    }
    out.note(format!(
        "accuracy with key {accuracy_with:.4}, without key {accuracy_without:.4}; device agrees on {:.4} of {} rows ({DEVICE_ROWS} per checkpoint), max |logit error| {:.4}",
        device.agree_frac(),
        device.checked_rows(),
        device.max_abs_err
    ));
    if !rec.enabled() {
        return;
    }

    // Traced run only: the kernels and the lock cost on this model. The
    // flow has no server, frames or load generator, and its two runs are
    // separate processes, so there is no in-run tracing overhead to take.
    probes::forward(&locked, test.0, rec, out);
    probes::train_lock_cost(&trainer, train, rec, out);
    out.not_measured(&[
        "serve.",
        "protocol.",
        "bytes.",
        "loadgen.",
        "trace.overhead_frac",
    ]);
}
