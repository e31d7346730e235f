//! What an untrusted worker on both sides of a locked activation reads off
//! the wire: its own reply is `MAC_j`, its next input is `f(L_j · MAC_j)`,
//! and for ReLU `post_j > 0 ⇒ L_j = sign(MAC_j)` — the key bit, in the
//! clear. This is why serving is one node (DESIGN.md §7).

use hpnn_core::{Schedule, KEY_BITS};

/// Two observations disagreed about this key bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contradiction(pub usize);

/// Folds one observed exchange into a partial key: `pre` is the activation
/// the worker sent into a locked ReLU layer whose first lockable neuron is
/// `first_neuron`, `post` what it was handed back.
///
/// # Errors
///
/// Returns the key bit two observations disagree on.
pub fn observe(
    pre: &[f32],
    post: &[f32],
    first_neuron: usize,
    schedule: &Schedule,
    bits: &mut [Option<bool>; KEY_BITS],
) -> Result<(), Contradiction> {
    for (j, (&mac, &out)) in pre.iter().zip(post).enumerate() {
        if out > 0.0 {
            let bit = schedule.accumulator_of(first_neuron + j);
            let k = mac < 0.0;
            if bits[bit].replace(k).is_some_and(|seen| seen != k) {
                return Err(Contradiction(bit));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_core::{HpnnKey, InferencePlan, KeyVault, LockedModel, ModelMetadata, ScheduleKind};
    use hpnn_nn::{ActKind, LayerSpec, NetworkSpec};
    use hpnn_tensor::{Conv2dGeom, PoolGeom, Rng, Shape, Tensor};

    /// The served conv + fc2048 model; layer 7 is the locked `Relu(2048)`
    /// between the two dense layers, its neurons 3072..5120 of 7168.
    fn convfc() -> NetworkSpec {
        let kind = ActKind::Relu;
        let mut layers = Vec::new();
        for (c, hw, channels) in [(1, 16, 8), (8, 8, 16)] {
            let geom = Conv2dGeom::new(c, hw, hw, channels, 3, 1, 1).unwrap();
            let features = channels * hw * hw;
            layers.push(LayerSpec::Conv2d { geom });
            layers.push(LayerSpec::Activation { kind, features });
            let geom = PoolGeom::new(hw, hw, 2, 2).unwrap();
            layers.push(LayerSpec::MaxPool2d { channels, geom });
        }
        for (in_features, features) in [(256, 2048), (2048, 2048), (2048, 10)] {
            layers.push(LayerSpec::Dense {
                in_features,
                out_features: features,
            });
            layers.push(LayerSpec::Activation { kind, features });
        }
        layers.pop(); // the logits are not activated
        NetworkSpec::new(256, layers)
    }

    #[test]
    fn a_worker_on_both_sides_of_a_locked_layer_reads_the_key() {
        use ScheduleKind::{Blocked, Permuted, RoundRobin};
        for kind in [RoundRobin, Permuted, Blocked] {
            let mut rng = Rng::new(23);
            let (spec, key) = (convfc(), HpnnKey::random(&mut rng));
            let schedule = Schedule::new(spec.lockable_neurons(), kind, 0);
            let mut net = spec.build(&mut rng).unwrap();
            net.install_lock_factors(&schedule.derive_lock_factors(&key));
            let meta = ModelMetadata::default();
            let model = LockedModel::from_network(spec, &mut net, schedule.clone(), meta);
            let vault = KeyVault::provision(key, "head");
            let plan = InferencePlan::new(&model, Some(&vault)).unwrap();
            let (head, worker) = (plan.keyed().unwrap(), plan.keyless());
            let mut rows = |n| {
                let data = (0..n * 256).map(|_| rng.next_f32()).collect();
                Tensor::from_vec(Shape::d2(n, 256), data).unwrap()
            };
            let mut bits = [None; KEY_BITS];
            for _ in 0..4 {
                // The head runs 0..6 and the locked 7..8; the worker 6..7.
                let pre = worker.run(&head.run(&rows(1), 0..6), 6..7);
                let post = head.run(&pre, 7..8);
                observe(pre.data(), post.data(), 3072, &schedule, &mut bits).unwrap();
            }
            let touched = |b| (3072..5120).any(|j| schedule.accumulator_of(j) == b);
            for (b, k) in bits.iter().enumerate() {
                assert_eq!(*k, touched(b).then(|| key.bit(b)), "{kind:?} bit {b}");
            }
            if kind != Blocked {
                let ones = (0..KEY_BITS).filter(|&b| bits[b].unwrap());
                let recovered = ones.fold(HpnnKey::ZERO, |k, b| k.with_flipped_bit(b));
                assert_eq!(recovered.hamming_distance(&key), 0);
                let x = rows(16);
                let mut thief = model.deploy_with_key(&recovered).unwrap();
                let mut owner = model.deploy_trusted(&vault).unwrap();
                let raw = |y: Tensor| y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(raw(thief.forward(&x, false)), raw(owner.forward(&x, false)));
            }
            // An exchange that disagrees with what was seen is an error.
            let bit = schedule.accumulator_of(3072);
            let lie = [if key.bit(bit) { 1.0 } else { -1.0 }];
            let refused = observe(&lie, &[1.0], 3072, &schedule, &mut bits);
            assert_eq!(refused, Err(Contradiction(bit)));
        }
    }
}
