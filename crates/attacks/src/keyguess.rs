//! Key-guessing attacks — an extension beyond the paper's evaluation.
//!
//! The paper argues security from the 2²⁵⁶ keyspace; this module makes the
//! brute-force surface measurable: random key sampling, single-bit flips
//! around a reference key (sensitivity), and a greedy bit-climbing attack
//! that uses test accuracy as an oracle. These quantify how much accuracy a
//! computationally bounded attacker can recover *without* any thief data.

use hpnn_core::{HpnnKey, LockedModel};
use hpnn_data::Dataset;
use hpnn_tensor::{Rng, TensorError};

/// Result of random key guessing.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyGuessReport {
    /// Keys tried.
    pub attempts: usize,
    /// Test accuracy of each guess, in try order.
    pub accuracies: Vec<f32>,
    /// Best accuracy achieved.
    pub best_accuracy: f32,
    /// Mean accuracy across guesses.
    pub mean_accuracy: f32,
}

/// Tries `attempts` uniformly random keys against a published model and
/// reports the accuracy distribution — with a 256-bit keyspace every guess
/// behaves like an unrelated key, so the distribution concentrates near the
/// no-key accuracy.
///
/// # Errors
///
/// Returns an error if the published architecture is invalid.
pub fn random_key_guessing(
    model: &LockedModel,
    dataset: &Dataset,
    attempts: usize,
    rng: &mut Rng,
) -> Result<KeyGuessReport, TensorError> {
    let mut accuracies = Vec::with_capacity(attempts);
    for _ in 0..attempts {
        let guess = HpnnKey::random(rng);
        let mut net = model.deploy_with_key(&guess)?;
        accuracies.push(net.accuracy(&dataset.test_inputs, &dataset.test_labels));
    }
    let best_accuracy = accuracies.iter().copied().fold(0.0, f32::max);
    let mean_accuracy = if accuracies.is_empty() {
        0.0
    } else {
        accuracies.iter().sum::<f32>() / accuracies.len() as f32
    };
    Ok(KeyGuessReport {
        attempts,
        accuracies,
        best_accuracy,
        mean_accuracy,
    })
}

/// Accuracy as a function of Hamming distance from the true key: flips
/// `flips` random bits of `true_key` and measures accuracy, repeated
/// `samples` times. Shows how gracefully (or not) accuracy degrades with
/// key error — relevant to partial-key-compromise scenarios.
///
/// # Errors
///
/// Returns an error if the published architecture is invalid.
pub fn key_distance_profile(
    model: &LockedModel,
    dataset: &Dataset,
    true_key: &HpnnKey,
    flips: usize,
    samples: usize,
    rng: &mut Rng,
) -> Result<Vec<f32>, TensorError> {
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut key = *true_key;
        let positions = rng.sample_indices(hpnn_core::KEY_BITS, flips.min(hpnn_core::KEY_BITS));
        for p in positions {
            key = key.with_flipped_bit(p);
        }
        let mut net = model.deploy_with_key(&key)?;
        out.push(net.accuracy(&dataset.test_inputs, &dataset.test_labels));
    }
    Ok(out)
}

/// One step record of the greedy bit-climbing attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClimbStep {
    /// Bit examined.
    pub bit: usize,
    /// Accuracy if the bit is flipped.
    pub flipped_accuracy: f32,
    /// Whether the flip was kept.
    pub kept: bool,
}

/// Greedy hill-climbing over key bits using test accuracy as an oracle:
/// starting from the all-zero key, flip each bit in turn and keep flips that
/// improve accuracy. This is the strongest "no data, unlimited queries"
/// attacker; its per-query cost is a full test-set evaluation and it probes
/// only `KEY_BITS` single-bit moves per pass.
///
/// Returns `(final_key, final_accuracy, steps)`.
///
/// # Errors
///
/// Returns an error if the published architecture is invalid.
pub fn greedy_bit_climb(
    model: &LockedModel,
    dataset: &Dataset,
    passes: usize,
    bits_per_pass: usize,
    rng: &mut Rng,
) -> Result<(HpnnKey, f32, Vec<ClimbStep>), TensorError> {
    let mut key = HpnnKey::ZERO;
    let mut net = model.deploy_with_key(&key)?;
    let mut best = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
    let mut steps = Vec::new();
    for _ in 0..passes {
        let order = rng.sample_indices(hpnn_core::KEY_BITS, bits_per_pass.min(hpnn_core::KEY_BITS));
        for bit in order {
            let candidate = key.with_flipped_bit(bit);
            let mut net = model.deploy_with_key(&candidate)?;
            let acc = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
            let kept = acc > best;
            steps.push(ClimbStep {
                bit,
                flipped_accuracy: acc,
                kept,
            });
            if kept {
                key = candidate;
                best = acc;
            }
        }
    }
    Ok((key, best, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_core::HpnnTrainer;
    use hpnn_data::{Benchmark, DatasetScale};
    use hpnn_nn::{mlp, TrainConfig};

    fn trained_model() -> (LockedModel, HpnnKey, Dataset, f32) {
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let spec = mlp(ds.shape.volume(), &[24], ds.classes);
        let mut rng = Rng::new(1);
        let key = HpnnKey::random(&mut rng);
        let artifacts = HpnnTrainer::new(spec, key)
            .with_config(TrainConfig::default().with_epochs(8).with_lr(0.05))
            .train(&ds)
            .unwrap();
        (artifacts.model, key, ds, artifacts.accuracy_with_key)
    }

    #[test]
    fn random_guesses_stay_degraded() {
        let (model, _, ds, owner_acc) = trained_model();
        let mut rng = Rng::new(2);
        let report = random_key_guessing(&model, &ds, 8, &mut rng).unwrap();
        assert_eq!(report.attempts, 8);
        assert_eq!(report.accuracies.len(), 8);
        assert!(
            report.best_accuracy < owner_acc - 0.15,
            "best guess {} vs owner {owner_acc}",
            report.best_accuracy
        );
    }

    #[test]
    fn zero_distance_recovers_owner_accuracy() {
        let (model, key, ds, owner_acc) = trained_model();
        let mut rng = Rng::new(3);
        let profile = key_distance_profile(&model, &ds, &key, 0, 2, &mut rng).unwrap();
        for acc in profile {
            assert!((acc - owner_acc).abs() < 1e-6);
        }
    }

    #[test]
    fn more_flips_hurt_more() {
        let (model, key, ds, _) = trained_model();
        let mut rng = Rng::new(4);
        let near: f32 = key_distance_profile(&model, &ds, &key, 4, 4, &mut rng)
            .unwrap()
            .iter()
            .sum::<f32>()
            / 4.0;
        let far: f32 = key_distance_profile(&model, &ds, &key, 128, 4, &mut rng)
            .unwrap()
            .iter()
            .sum::<f32>()
            / 4.0;
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn greedy_climb_records_steps() {
        let (model, _, ds, _) = trained_model();
        let mut rng = Rng::new(5);
        let (key, acc, steps) = greedy_bit_climb(&model, &ds, 1, 16, &mut rng).unwrap();
        assert_eq!(steps.len(), 16);
        // Final accuracy must be at least the all-zero-key accuracy.
        let mut zero_net = model.deploy_with_key(&HpnnKey::ZERO).unwrap();
        let zero_acc = zero_net.accuracy(&ds.test_inputs, &ds.test_labels);
        assert!(acc >= zero_acc);
        // Kept flips are reflected in the final key's weight.
        let kept = steps.iter().filter(|s| s.kept).count() as u32;
        assert_eq!(key.hamming_weight(), kept);
    }
}
