//! Theorem 1 and Lemma 1 (paper Sec. III-C) on small dense networks, bit
//! for bit, through the one sign flip, [`Network::flip_signs`], and the
//! trainer that runs, [`train`]. `tests/theorem1.rs` gates the same
//! identity on the reference architectures at every SIMD level.

#[cfg(test)]
mod tests {
    use crate::{mlp, train, ActKind, LabeledBatch, LayerSpec, Network, NetworkSpec, TrainConfig};
    use hpnn_tensor::{Rng, Tensor};

    /// `inputs → neurons (kind) → 3` logits.
    fn one_hidden(kind: ActKind, inputs: usize, neurons: usize) -> NetworkSpec {
        NetworkSpec::new(
            inputs,
            vec![
                LayerSpec::Dense {
                    in_features: inputs,
                    out_features: neurons,
                },
                LayerSpec::Activation {
                    kind,
                    features: neurons,
                },
                LayerSpec::Dense {
                    in_features: neurons,
                    out_features: 3,
                },
            ],
        )
    }

    /// `spec` built from one fixed `w0`, its weights first flipped by
    /// `flip` and `lock` installed, then trained two epochs on fixed
    /// random data.
    fn trained(spec: &NetworkSpec, lock: Option<&[f32]>, flip: Option<&[f32]>) -> Network {
        let mut rng = Rng::new(0x7411);
        let x = Tensor::randn([48, spec.in_features], 1.0, &mut rng);
        let y: Vec<usize> = (0..48).map(|_| rng.below(3)).collect();
        let mut net = spec.build(&mut Rng::new(3)).unwrap();
        if let Some(flip) = flip {
            net.flip_signs(flip);
        }
        if let Some(lock) = lock {
            net.install_lock_factors(lock);
        }
        let config = TrainConfig::default().with_epochs(2);
        train(
            &mut net,
            LabeledBatch::new(&x, &y),
            None,
            &config,
            &mut Rng::new(9),
        );
        net
    }

    /// Theorem 1: training under `lock` from `w0` gives the sign flip by
    /// `lock` of training keyless from `flip(w0)`, in every bit.
    fn assert_theorem1(spec: &NetworkSpec, lock: &[f32]) {
        let mut locked = trained(spec, Some(lock), None);
        let mut keyless = trained(spec, None, Some(lock));
        keyless.flip_signs(lock);
        assert_same_bits(&mut locked, &mut keyless);
    }

    fn assert_same_bits(a: &mut Network, b: &mut Network) {
        for (i, (a, b)) in a
            .export_weights()
            .iter()
            .zip(&b.export_weights())
            .enumerate()
        {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "tensor {i}");
        }
    }

    fn random_signs(n: usize, rng: &mut Rng) -> Vec<f32> {
        (0..n).map(|_| if rng.bit() { -1.0 } else { 1.0 }).collect()
    }

    #[test]
    fn theorem1_holds_exactly() {
        assert_theorem1(&one_hidden(ActKind::Sigmoid, 5, 3), &[-1.0; 3]);
    }

    #[test]
    fn theorem1_per_neuron_mixed_locks() {
        // The induction is per neuron: a mixed lock vector negates exactly
        // the locked units' weights and leaves the others as trained.
        assert_theorem1(&one_hidden(ActKind::Tanh, 4, 4), &[1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn relu_theorem1_also_holds() {
        // ReLU's subgradient at 0 is taken on the locked pre-activation,
        // which both runs share, so the identity holds through two layers.
        let spec = mlp(6, &[5, 4], 3);
        assert_theorem1(
            &spec,
            &random_signs(spec.lockable_neurons(), &mut Rng::new(7)),
        );
    }

    #[test]
    fn locked_outputs_identical_under_theorem1_weights() {
        // Consequence: the locked model run under its key and the keyless
        // model trained from the flipped start compute the same logits.
        let spec = one_hidden(ActKind::Sigmoid, 6, 3);
        let lock = [1.0, -1.0, -1.0];
        let locked = trained(&spec, Some(&lock), None);
        let keyless = trained(&spec, None, Some(&lock));
        let probe = Tensor::randn([8, 6], 1.0, &mut Rng::new(4));
        let a = locked.infer_range(&probe, 0..locked.len(), Some(&lock));
        let b = keyless.infer_range(&probe, 0..keyless.len(), None);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn equivalent_weights_preserve_function() {
        // Lemma 1: changing key bits and flipping the units where the keys
        // differ preserves every output.
        let spec = one_hidden(ActKind::Sigmoid, 5, 4);
        let from = [1.0, -1.0, 1.0, -1.0];
        let to = [-1.0, -1.0, 1.0, 1.0];
        let differ: Vec<f32> = from.iter().zip(&to).map(|(a, b)| a * b).collect();
        let net = spec.build(&mut Rng::new(5)).unwrap();
        let mut flipped = spec.build(&mut Rng::new(5)).unwrap();
        flipped.flip_signs(&differ);
        let probe = Tensor::randn([10, 5], 1.0, &mut Rng::new(6));
        let a = net.infer_range(&probe, 0..net.len(), Some(&from));
        let b = flipped.infer_range(&probe, 0..flipped.len(), Some(&to));
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn equivalent_weights_identity_when_locks_match() {
        // Equal keys differ nowhere: the flip by their product is all +1
        // and changes no bit.
        let spec = one_hidden(ActKind::Sigmoid, 3, 3);
        let lock = [1.0, -1.0, 1.0];
        let differ: Vec<f32> = lock.iter().map(|l| l * l).collect();
        let mut net = spec.build(&mut Rng::new(6)).unwrap();
        let mut flipped = spec.build(&mut Rng::new(6)).unwrap();
        flipped.flip_signs(&differ);
        assert_same_bits(&mut net, &mut flipped);
    }
}
