//! The paper's attacker (Sec. IV-B/C) as one object: the published weights,
//! the schedule the container publishes and a labelled test set as accuracy
//! oracle, but no key.
//!
//! Every key and sign attack is one greedy [`Attacker::climb`] over moves,
//! each a set of lock factors toggled together from the all-`+1` view (the
//! zero key): a key bit is every neuron on its accumulator, a blind sign flip
//! one neuron of [`Attacker::first_layer`], a leaked-schedule flip the
//! first-layer neurons of one accumulator. By Lemma 1 a toggle equals
//! negating the neuron's weights bit for bit (`crates/nn/tests/theorem1.rs`
//! gates `Network::flip_signs`), so no query edits or redeploys a network.
//! The schedule is public (its seed derives from key word 0, ROADMAP security
//! step 1); [`Attacker::new`] alone decides which one the attacker holds.

use std::ops::Range;

use hpnn_core::{HpnnKey, LockedModel, Schedule};
use hpnn_data::Dataset;
use hpnn_nn::Network;
use hpnn_tensor::{Tensor, TensorError};

/// What one greedy [`Attacker::climb`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Oracle accuracy before any move: the keyless view.
    pub initial_accuracy: f32,
    /// Oracle accuracy after the climb, never below `initial_accuracy`.
    pub accuracy: f32,
    /// Moves tried, one oracle query each.
    pub queries: usize,
    /// Positions in the move sequence of the moves kept, in order.
    pub kept: Vec<usize>,
}

/// A key-less attacker holding a stolen model and an accuracy oracle.
#[derive(Debug)]
pub struct Attacker<'a> {
    net: Network,
    schedule: Schedule,
    dataset: &'a Dataset,
}

impl<'a> Attacker<'a> {
    /// Loads the published weights into the baseline architecture and
    /// takes the schedule the container publishes.
    ///
    /// # Errors
    ///
    /// Returns an error if the published architecture is invalid.
    pub fn new(model: &LockedModel, dataset: &'a Dataset) -> Result<Self, TensorError> {
        Ok(Attacker {
            net: model.deploy_stolen()?,
            schedule: model.schedule().clone(),
            dataset,
        })
    }

    /// The factor indices of every lockable neuron.
    pub fn neurons(&self) -> Range<usize> {
        0..self.schedule.num_neurons()
    }

    /// Test accuracy of the stolen network under `factors`, one ±1 per
    /// lockable neuron in layer order (any other length panics).
    pub fn accuracy(&self, factors: &[f32]) -> f32 {
        hpnn_nn::accuracy(
            &self.logits(factors).argmax_rows(),
            &self.dataset.test_labels,
        )
    }

    /// Test-set logits of the stolen network under `factors`.
    pub(crate) fn logits(&self, factors: &[f32]) -> Tensor {
        let x = &self.dataset.test_inputs;
        self.net.infer_range(x, 0..self.net.len(), Some(factors))
    }

    /// Test accuracy under the factors `key` derives through the schedule.
    pub fn key_accuracy(&self, key: &HpnnKey) -> f32 {
        self.accuracy(&self.schedule.derive_lock_factors(key))
    }

    /// The factor indices of the first lockable layer's neurons.
    pub fn first_layer(&self) -> Range<usize> {
        let mut widths = (0..self.net.len()).map(|i| self.net.layer(i).lockable_neurons());
        0..widths.find(|&n| n > 0).unwrap_or(0)
    }

    /// The neurons in `neurons` the schedule places on accumulator `acc`.
    pub fn on_accumulator(&self, acc: usize, neurons: Range<usize>) -> Vec<usize> {
        let on_acc = |j: &usize| self.schedule.accumulator_of(*j) == acc;
        neurons.filter(on_acc).collect()
    }

    /// Greedy search from the all-`+1` view: toggle each move's factors,
    /// keep the move if accuracy strictly improves, otherwise undo it.
    pub fn climb(&self, moves: impl IntoIterator<Item = Vec<usize>>) -> Outcome {
        let mut factors = vec![1.0; self.net.lockable_neurons()];
        let initial_accuracy = self.accuracy(&factors);
        let (mut accuracy, mut queries, mut kept) = (initial_accuracy, 0, Vec::new());
        for (i, neurons) in moves.into_iter().enumerate() {
            toggle(&mut factors, &neurons);
            let candidate = self.accuracy(&factors);
            queries += 1;
            if candidate > accuracy {
                accuracy = candidate;
                kept.push(i);
            } else {
                toggle(&mut factors, &neurons);
            }
        }
        Outcome {
            initial_accuracy,
            accuracy,
            queries,
            kept,
        }
    }
}

/// Negates the factors of `neurons`; applying it twice is the identity.
pub(crate) fn toggle(factors: &mut [f32], neurons: &[usize]) {
    for &j in neurons {
        factors[j] = -factors[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_core::{HpnnTrainer, ModelMetadata, ScheduleKind, KEY_BITS};
    use hpnn_data::{Benchmark, DatasetScale};
    use hpnn_nn::{cnn1, mlp, ImageDims, NetworkSpec, TrainConfig};
    use hpnn_tensor::Rng;

    fn trained() -> (LockedModel, HpnnKey, Dataset, f32) {
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let spec = mlp(ds.shape.volume(), &[24], ds.classes);
        let key = HpnnKey::random(&mut Rng::new(1));
        let artifacts = HpnnTrainer::new(spec, key)
            .with_config(TrainConfig::default().with_epochs(8).with_lr(0.05))
            .train(&ds)
            .unwrap();
        (artifacts.model, key, ds, artifacts.accuracy_with_key)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn random_guesses_stay_degraded() {
        let (model, _, ds, owner) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        let mut rng = Rng::new(2);
        let best = (0..8)
            .map(|_| attacker.key_accuracy(&HpnnKey::random(&mut rng)))
            .fold(0.0, f32::max);
        assert!(best < owner - 0.15, "best guess {best} vs owner {owner}");
    }

    #[test]
    fn the_true_key_gives_the_owners_accuracy() {
        let (model, key, ds, owner) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        assert_eq!(attacker.key_accuracy(&key), owner);
    }

    #[test]
    fn more_wrong_bits_hurt_more() {
        let (model, key, ds, _) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        let mut rng = Rng::new(4);
        let mut mean_at = |wrong: usize| {
            let accuracies = (0..4).map(|_| {
                let guess = rng
                    .sample_indices(KEY_BITS, wrong)
                    .into_iter()
                    .fold(key, |k, b| k.with_flipped_bit(b));
                attacker.key_accuracy(&guess)
            });
            accuracies.sum::<f32>() / 4.0
        };
        let (near, far) = (mean_at(4), mean_at(128));
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn key_accuracy_is_the_deployed_keys_accuracy() {
        let (model, _, ds, _) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        let mut rng = Rng::new(6);
        for key in [
            HpnnKey::ZERO,
            HpnnKey::random(&mut rng),
            HpnnKey::random(&mut rng),
        ] {
            let mut net = model.deploy_with_key(&key).unwrap();
            let deployed = net.accuracy(&ds.test_inputs, &ds.test_labels);
            assert_eq!(attacker.key_accuracy(&key).to_bits(), deployed.to_bits());
        }
    }

    #[test]
    fn the_bit_climbs_kept_moves_are_the_bits_of_its_key() {
        let (model, _, ds, _) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        let order = Rng::new(5).sample_indices(KEY_BITS, KEY_BITS);
        let key_bit = |&b: &usize| attacker.on_accumulator(b, attacker.neurons());
        let outcome = attacker.climb(order.iter().map(key_bit));
        assert_eq!(outcome.queries, KEY_BITS);
        assert_eq!(
            outcome.initial_accuracy,
            attacker.key_accuracy(&HpnnKey::ZERO)
        );
        assert!(outcome.accuracy >= outcome.initial_accuracy);
        let key = outcome
            .kept
            .iter()
            .fold(HpnnKey::ZERO, |k, &i| k.with_flipped_bit(order[i]));
        assert!(!outcome.kept.is_empty());
        assert_eq!(key.hamming_weight() as usize, outcome.kept.len());
        assert_eq!(attacker.key_accuracy(&key), outcome.accuracy);
    }

    /// Lemma 1 on the attacker's own path: toggling a unit's factors gives
    /// the logits of the keyless network with that unit's weights negated.
    fn assert_toggle_is_sign_flip(spec: NetworkSpec, ds: &Dataset, moves: &[Vec<usize>]) {
        let mut net = spec.build(&mut Rng::new(7)).unwrap();
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::Permuted, 1);
        let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
        let attacker = Attacker::new(&model, ds).unwrap();
        for neurons in moves {
            let mut factors = vec![1.0; attacker.net.lockable_neurons()];
            toggle(&mut factors, neurons);
            let mut flipped = model.deploy_stolen().unwrap();
            flipped.flip_signs(&factors);
            let keyless = flipped.infer_range(&ds.test_inputs, 0..flipped.len(), None);
            assert_eq!(bits(&attacker.logits(&factors)), bits(&keyless));
        }
    }

    #[test]
    fn a_toggle_is_the_sign_flip_of_the_units_weights() {
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let spec = mlp(ds.shape.volume(), &[24, 16], ds.classes);
        assert_toggle_is_sign_flip(spec, &ds, &[vec![0], vec![5], vec![24 + 7]]);

        let dims = ImageDims::new(ds.shape.c, ds.shape.h, ds.shape.w);
        let spec = cnn1(dims, ds.classes, 0.5).unwrap();
        // One channel of each convolution: a channel's factors are its
        // positions, `h·w` in the first (4 channels), a quarter in the second.
        let per = ds.shape.h * ds.shape.w;
        let channel = |start: usize, c: usize, n: usize| start + c * n..start + (c + 1) * n;
        let moves = [
            channel(0, 1, per).collect(),
            channel(4 * per, 5, per / 4).collect(),
        ];
        assert_eq!(spec.lockable_neurons(), 4 * per + 8 * (per / 4));
        assert_toggle_is_sign_flip(spec, &ds, &moves);
    }
}
