//! Theorem 1, on the trainer that runs: training a locked network from
//! `w0` gives, bit for bit, the sign flip of training the unlocked network
//! from `flip(w0)`, wherever a lock is one sign per unit (a dense neuron,
//! a whole convolution channel). Per-position locks and locks after an
//! identity-skip residual add are not a sign flip, and the check says so.
//!
//! `cargo test --release -p hpnn-nn --test theorem1 -- --nocapture --test-threads=1`
//! prints the table quoted in EXPERIMENTS.md.

use hpnn_nn::{cnn1, cnn2, cnn3, mlp, resnet, train, ImageDims, LabeledBatch, LayerSpec};
use hpnn_nn::{NetworkSpec, TrainConfig};
use hpnn_tensor::pool::serial_scope;
use hpnn_tensor::simd::{self, SimdLevel};
use hpnn_tensor::{Rng, Tensor};

const ROWS: usize = 128;
const CLASSES: usize = 10;

/// Lock factors for `spec` and the factors of the sign flip that would
/// undo them: one random sign per unit, repeated over the unit's
/// positions. With `per_position`, every position of a convolution
/// channel but the first draws its own sign in the lock.
fn locks(spec: &NetworkSpec, per_position: bool, rng: &mut Rng) -> (Vec<f32>, Vec<f32>) {
    let (mut lock, mut flip) = (Vec::new(), Vec::new());
    let mut units = |count: usize, per_unit: usize, rng: &mut Rng| {
        for _ in 0..count {
            let sign = if rng.bit() { -1.0 } else { 1.0 };
            for p in 0..per_unit {
                flip.push(sign);
                lock.push(if per_position && p > 0 && rng.bit() {
                    -sign
                } else {
                    sign
                });
            }
        }
    };
    let mut width = 0;
    for layer in &spec.layers {
        match layer {
            LayerSpec::Dense { out_features, .. } => width = *out_features,
            LayerSpec::Conv2d { geom } => width = geom.out_c,
            LayerSpec::Activation { features, .. } => units(width, features / width, rng),
            LayerSpec::Residual { out_c, .. } => {
                let per_unit = layer.lockable_neurons() / (2 * out_c);
                units(*out_c, per_unit, rng);
                units(*out_c, per_unit, rng);
                width = *out_c;
            }
            LayerSpec::MaxPool2d { .. } => {}
        }
    }
    (lock, flip)
}

/// Trains `spec` under `lock` from `w0`, and unlocked from `w0` flipped by
/// `flip` and flipped back after training; returns how many parameters
/// differ in any bit, and how many there are.
fn differing(spec: &NetworkSpec, lock: &[f32], flip: &[f32]) -> (usize, usize) {
    let mut rng = Rng::new(0x7411);
    let x = Tensor::randn([ROWS, spec.in_features], 1.0, &mut rng);
    let y: Vec<usize> = (0..ROWS).map(|_| rng.below(CLASSES)).collect();
    let run = |locked: bool| {
        let mut net = spec.build(&mut Rng::new(3)).unwrap();
        if locked {
            net.install_lock_factors(lock);
        } else {
            net.flip_signs(flip);
        }
        let config = TrainConfig::default().with_epochs(2);
        train(
            &mut net,
            LabeledBatch::new(&x, &y),
            None,
            &config,
            &mut Rng::new(9),
        );
        if !locked {
            net.flip_signs(flip);
        }
        net.export_weights()
    };
    let (locked, flipped) = (run(true), run(false));
    let pairs = locked
        .iter()
        .zip(&flipped)
        .flat_map(|(a, b)| a.data().iter().zip(b.data()));
    let total = pairs.clone().count();
    (
        pairs.filter(|(a, b)| a.to_bits() != b.to_bits()).count(),
        total,
    )
}

fn specs() -> Vec<(&'static str, NetworkSpec)> {
    let gray = ImageDims::new(1, 16, 16);
    let rgb = ImageDims::new(3, 16, 16);
    vec![
        ("MLP", mlp(gray.volume(), &[24, 12], CLASSES)),
        ("CNN1", cnn1(gray, CLASSES, 0.5).unwrap()),
        ("CNN3", cnn3(rgb, CLASSES, 0.5).unwrap()),
        ("CNN2", cnn2(rgb, CLASSES, 0.5).unwrap()),
    ]
}

#[test]
fn channel_aligned_locks_train_as_a_sign_flip_at_every_level() {
    println!("| architecture | lock | SIMD level | threads | differing | total |");
    println!("|---|---|---|---|---|---|");
    for (name, spec) in specs() {
        let (lock, flip) = locks(&spec, false, &mut Rng::new(5));
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            if level > simd::probe() {
                continue;
            }
            let _forced = simd::force(level);
            for serial in [true, false] {
                let (diff, total) = if serial {
                    serial_scope(|| differing(&spec, &lock, &flip))
                } else {
                    differing(&spec, &lock, &flip)
                };
                let threads = if serial { "serial" } else { "pool" };
                println!("| {name} | channel | {level:?} | {threads} | {diff} | {total} |");
                assert_eq!(diff, 0, "{name} at {level:?}, {threads}");
            }
        }
    }
}

#[test]
fn per_position_locks_and_locks_after_a_residual_add_are_not_a_sign_flip() {
    let mut cases: Vec<_> = specs()
        .into_iter()
        .skip(1)
        .map(|(name, spec)| (name, "per-position", spec, true))
        .collect();
    let resnet = resnet(ImageDims::new(1, 16, 16), CLASSES, 0.5).unwrap();
    cases.push(("ResNet", "channel", resnet, false));
    for (name, arm, spec, per_position) in cases {
        let (lock, flip) = locks(&spec, per_position, &mut Rng::new(5));
        let (diff, total) = differing(&spec, &lock, &flip);
        println!(
            "| {name} | {arm} | {:?} | pool | {diff} | {total} |",
            simd::current()
        );
        assert!(diff > 0, "{name} {arm}: the sign flip should not hold");
    }
}
