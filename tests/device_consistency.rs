//! Cross-crate integration tests: the gate-modeled trusted accelerator
//! (`hpnn-hw`) must agree with the float reference path (`hpnn-nn` +
//! `hpnn-core`) on every supported architecture, and the security
//! properties must hold identically on both paths.

use hpnn::core::{HpnnKey, HpnnTrainer, KeyVault, ScheduleKind};
use hpnn::data::{Benchmark, DatasetScale};
use hpnn::hw::TrustedAccelerator;
use hpnn::nn::{cnn1, cnn3, mlp, resnet, ImageDims, NetworkSpec, TrainConfig};
use hpnn::tensor::Rng;

fn train_model(
    spec: NetworkSpec,
    seed: u64,
) -> (hpnn::core::LockedModel, HpnnKey, hpnn::data::Dataset) {
    let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
    let mut rng = Rng::new(seed);
    let key = HpnnKey::random(&mut rng);
    let artifacts = HpnnTrainer::new(spec, key)
        .with_schedule(ScheduleKind::Permuted, 7)
        .with_config(TrainConfig::default().with_epochs(14).with_lr(0.03))
        .with_seed(seed)
        .train(&ds)
        .expect("training");
    (artifacts.model, key, ds)
}

fn agreement(
    model: &hpnn::core::LockedModel,
    key: HpnnKey,
    ds: &hpnn::data::Dataset,
    n: usize,
) -> f32 {
    let vault = KeyVault::provision(key, "tpu");
    let mut device = TrustedAccelerator::new(&vault);
    let idx: Vec<usize> = (0..n).collect();
    let probe = ds.test_inputs.gather_rows(&idx);
    let device_preds = device.predict(model, &probe).expect("device run");
    let mut float_net = model.deploy_with_key(&key).expect("deploy");
    let float_preds = float_net.predict(&probe);
    device_preds
        .iter()
        .zip(&float_preds)
        .filter(|(a, b)| a == b)
        .count() as f32
        / n as f32
}

#[test]
fn mlp_device_agrees_with_float() {
    let ds_probe = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
    let spec = mlp(ds_probe.shape.volume(), &[32], ds_probe.classes);
    let (model, key, ds) = train_model(spec, 1);
    assert!(agreement(&model, key, &ds, 32) >= 0.85);
}

#[test]
fn cnn1_device_agrees_with_float() {
    let ds_probe = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
    let dims = ImageDims::new(ds_probe.shape.c, ds_probe.shape.h, ds_probe.shape.w);
    let spec = cnn1(dims, ds_probe.classes, 0.5).expect("cnn1");
    let (model, key, ds) = train_model(spec, 2);
    assert!(agreement(&model, key, &ds, 24) >= 0.75);
}

#[test]
fn cnn3_device_agrees_with_float() {
    let ds_probe = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
    let dims = ImageDims::new(ds_probe.shape.c, ds_probe.shape.h, ds_probe.shape.w);
    let spec = cnn3(dims, ds_probe.classes, 0.25).expect("cnn3");
    let (model, key, ds) = train_model(spec, 3);
    assert!(agreement(&model, key, &ds, 24) >= 0.7);
}

#[test]
fn resnet_device_agrees_with_float() {
    let ds_probe = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
    let dims = ImageDims::new(ds_probe.shape.c, ds_probe.shape.h, ds_probe.shape.w);
    let spec = resnet(dims, ds_probe.classes, 0.25).expect("resnet");
    let (model, key, ds) = train_model(spec, 4);
    assert!(agreement(&model, key, &ds, 16) >= 0.7);
}

#[test]
fn security_holds_on_device_path() {
    // The with-key vs without-key accuracy gap must appear on the hardware
    // path exactly as it does on the float path.
    let ds_probe = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
    let spec = mlp(ds_probe.shape.volume(), &[32], ds_probe.classes);
    let (model, key, ds) = train_model(spec, 6);
    let vault = KeyVault::provision(key, "tpu");
    let mut trusted = TrustedAccelerator::new(&vault);
    let mut untrusted = TrustedAccelerator::untrusted();
    let good = trusted
        .accuracy(&model, &ds.test_inputs, &ds.test_labels)
        .expect("trusted");
    let bad = untrusted
        .accuracy(&model, &ds.test_inputs, &ds.test_labels)
        .expect("untrusted");
    assert!(good > bad + 0.15, "trusted {good} vs untrusted {bad}");
}
