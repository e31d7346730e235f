//! Sign-recovery attack — an extension analysis beyond the paper.
//!
//! A locked neuron computes `f(−aᵀw)`; an attacker who *negates that
//! neuron's incoming weights* in the stolen model gets `f(−aᵀ(−w)) = f(aᵀw)`
//! back without knowing the key at all (the Lemma 1 equivalence, weaponized).
//! The search space is one bit per locked neuron — far larger than the
//! 256-bit key — but a greedy, accuracy-oracle-guided search over *neuron
//! groups* is the natural attack to try. This module implements it for
//! networks whose first weighted layer is dense (MLPs), where column
//! negation is well-defined, plus a group-flip variant that exploits
//! knowledge of the scheduling policy (if leaked) to flip all neurons
//! sharing an accumulator at once.
//!
//! The harness uses this to *measure* how much security rests on keeping the
//! schedule private (paper Sec. III-D2 keeps it secret for exactly this
//! reason).

use hpnn_core::{LockedModel, Schedule};
use hpnn_data::Dataset;
use hpnn_nn::Network;
use hpnn_tensor::{Rng, TensorError};

/// Outcome of a greedy sign-recovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct SignFlipReport {
    /// Accuracy of the stolen model before any flips.
    pub initial_accuracy: f32,
    /// Accuracy after the greedy search.
    pub final_accuracy: f32,
    /// Number of candidate flips evaluated (oracle queries).
    pub queries: usize,
    /// Number of flips kept.
    pub flips_kept: usize,
}

/// The attacker's guess that the first-layer neurons in `group` were
/// locked: [`Network::flip_signs`] of exactly those neurons. Applying it
/// twice restores the network.
fn flip_first_layer(net: &mut Network, group: &[usize]) {
    let mut factors = vec![1.0; net.lockable_neurons()];
    for &j in group {
        factors[j] = -1.0;
    }
    net.flip_signs(&factors);
}

/// Greedy per-neuron sign recovery on the first hidden layer of an
/// MLP-shaped locked model: for each of the first `budget` neurons (in
/// random order), flip its incoming weights and keep the flip if test
/// accuracy improves.
///
/// # Errors
///
/// Returns an error if the published architecture is invalid.
///
/// # Panics
///
/// Panics if the model's first layer is not a dense layer feeding an
/// activation (the attack is defined on MLPs).
pub fn greedy_neuron_flip(
    model: &LockedModel,
    dataset: &Dataset,
    budget: usize,
    rng: &mut Rng,
) -> Result<SignFlipReport, TensorError> {
    let mut net = model.deploy_stolen()?;
    let hidden = first_dense_width(&net);
    let mut best = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
    let initial_accuracy = best;
    let mut queries = 0usize;
    let mut flips_kept = 0usize;

    let order = rng.sample_indices(hidden, budget.min(hidden));
    for neuron in order {
        flip_first_layer(&mut net, &[neuron]);
        let acc = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
        queries += 1;
        if acc > best {
            best = acc;
            flips_kept += 1;
        } else {
            // Revert.
            flip_first_layer(&mut net, &[neuron]);
        }
    }
    Ok(SignFlipReport {
        initial_accuracy,
        final_accuracy: best,
        queries,
        flips_kept,
    })
}

/// Schedule-aware group flip: if the attacker has learned the hardware's
/// scheduling algorithm (the paper keeps it private), they can flip all
/// first-layer neurons sharing one accumulator together — reducing the
/// search from `#neurons` bits to at most 256 bits. This measures the value
/// of schedule secrecy.
///
/// # Errors
///
/// Returns an error if the published architecture is invalid.
pub fn schedule_aware_group_flip(
    model: &LockedModel,
    dataset: &Dataset,
    leaked_schedule: &Schedule,
    passes: usize,
) -> Result<SignFlipReport, TensorError> {
    let mut net = model.deploy_stolen()?;
    let hidden = first_dense_width(&net);
    let mut best = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
    let initial_accuracy = best;
    let mut queries = 0usize;
    let mut flips_kept = 0usize;

    // Group first-layer neurons by their (leaked) accumulator index.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); hpnn_core::KEY_BITS];
    for j in 0..hidden.min(leaked_schedule.num_neurons()) {
        groups[leaked_schedule.accumulator_of(j)].push(j);
    }

    for _ in 0..passes {
        for group in groups.iter().filter(|g| !g.is_empty()) {
            flip_first_layer(&mut net, group);
            let acc = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
            queries += 1;
            if acc > best {
                best = acc;
                flips_kept += 1;
            } else {
                flip_first_layer(&mut net, group);
            }
        }
    }
    Ok(SignFlipReport {
        initial_accuracy,
        final_accuracy: best,
        queries,
        flips_kept,
    })
}

fn first_dense_width(net: &Network) -> usize {
    assert!(
        net.len() > 1 && net.layer(0).name() == "dense" && net.layer(1).lockable_neurons() > 0,
        "sign-flip attack requires a dense first layer feeding an activation"
    );
    net.layer(0).out_features(net.in_features())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_core::{HpnnKey, HpnnTrainer, ScheduleKind};
    use hpnn_data::{Benchmark, DatasetScale};
    use hpnn_nn::{mlp, TrainConfig};

    fn trained() -> (LockedModel, Dataset, f32, Schedule) {
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let spec = mlp(ds.shape.volume(), &[24], ds.classes);
        let mut rng = Rng::new(1);
        let key = HpnnKey::random(&mut rng);
        let trainer = HpnnTrainer::new(spec, key)
            .with_schedule(ScheduleKind::Permuted, 99)
            .with_config(TrainConfig::default().with_epochs(10).with_lr(0.05));
        let artifacts = trainer.train(&ds).unwrap();
        (
            artifacts.model,
            ds,
            artifacts.accuracy_with_key,
            trainer.schedule(),
        )
    }

    #[test]
    fn greedy_flip_improves_over_stolen() {
        let (model, ds, _owner, _) = trained();
        let mut rng = Rng::new(2);
        let report = greedy_neuron_flip(&model, &ds, 24, &mut rng).unwrap();
        assert!(report.final_accuracy >= report.initial_accuracy);
        assert_eq!(report.queries, 24);
    }

    #[test]
    fn schedule_leak_is_at_least_as_strong_as_blind_start() {
        let (model, ds, _owner, schedule) = trained();
        let report = schedule_aware_group_flip(&model, &ds, &schedule, 2).unwrap();
        // With the true schedule leaked, group flips must never end below
        // the stolen baseline (greedy keeps only improving moves).
        assert!(report.final_accuracy >= report.initial_accuracy);
        assert!(report.queries > 0);
    }

    #[test]
    fn flip_is_involutive() {
        let (model, ds, _, _) = trained();
        let mut net = model.deploy_stolen().unwrap();
        let before = net.forward(&ds.test_inputs, false);
        flip_first_layer(&mut net, &[3]);
        flip_first_layer(&mut net, &[3]);
        let after = net.forward(&ds.test_inputs, false);
        assert_eq!(before.data(), after.data());
    }

    #[test]
    fn flip_changes_function() {
        let (model, ds, _, _) = trained();
        let mut net = model.deploy_stolen().unwrap();
        let before = net.forward(&ds.test_inputs, false);
        flip_first_layer(&mut net, &[0]);
        let after = net.forward(&ds.test_inputs, false);
        assert!(before.max_abs_diff(&after) > 1e-6);
    }
}
