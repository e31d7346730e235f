//! The sign-flip attacks as [`Attacker`] move sets (tests only).
//!
//! By Lemma 1 an attacker who negates a locked neuron's incoming weights
//! undoes its lock without the key. Blind, each move toggles one neuron of
//! [`Attacker::first_layer`]; with the schedule leaked, each move toggles
//! the first-layer neurons that share one accumulator.

#[cfg(test)]
mod tests {
    use crate::attacker::toggle;
    use crate::Attacker;
    use hpnn_core::{HpnnKey, HpnnTrainer, LockedModel, ScheduleKind, KEY_BITS};
    use hpnn_data::{Benchmark, Dataset, DatasetScale};
    use hpnn_nn::{mlp, TrainConfig};
    use hpnn_tensor::Rng;

    fn trained() -> (LockedModel, Dataset) {
        let ds = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
        let spec = mlp(ds.shape.volume(), &[24], ds.classes);
        let key = HpnnKey::random(&mut Rng::new(1));
        let artifacts = HpnnTrainer::new(spec, key)
            .with_schedule(ScheduleKind::Permuted, 99)
            .with_config(TrainConfig::default().with_epochs(10).with_lr(0.05))
            .train(&ds)
            .unwrap();
        (artifacts.model, ds)
    }

    #[test]
    fn greedy_flip_improves_over_stolen() {
        let (model, ds) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        let first = attacker.first_layer();
        assert_eq!(first, 0..24);
        let order = Rng::new(2).sample_indices(first.len(), first.len());
        let blind = attacker.climb(order.iter().map(|&j| vec![j]));
        assert_eq!(blind.queries, 24);
        assert!(blind.accuracy >= blind.initial_accuracy);
    }

    #[test]
    fn schedule_leak_is_at_least_as_strong_as_blind_start() {
        let (model, ds) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        let first = attacker.first_layer();
        let groups = (0..KEY_BITS)
            .map(|acc| attacker.on_accumulator(acc, first.clone()))
            .filter(|group| !group.is_empty());
        // Two passes over the accumulator groups; greedy keeps only
        // improving moves, so the climb never ends below the stolen view.
        let leaked = attacker.climb(groups.clone().chain(groups));
        assert_eq!(leaked.queries, 48);
        assert!(leaked.accuracy >= leaked.initial_accuracy);
    }

    #[test]
    fn flip_is_involutive() {
        let (model, ds) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        let ones = vec![1.0; attacker.neurons().len()];
        let mut factors = ones.clone();
        toggle(&mut factors, &[3]);
        toggle(&mut factors, &[3]);
        let bits = |f: &[f32]| -> Vec<u32> {
            attacker
                .logits(f)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&factors), bits(&ones));
    }

    #[test]
    fn flip_changes_function() {
        let (model, ds) = trained();
        let attacker = Attacker::new(&model, &ds).unwrap();
        let ones = vec![1.0; attacker.neurons().len()];
        let mut factors = ones.clone();
        toggle(&mut factors, &[0]);
        let diff = attacker
            .logits(&ones)
            .max_abs_diff(&attacker.logits(&factors));
        assert!(diff > 1e-6);
    }
}
