//! The immutable deployment a server runs: one copy of the published
//! weights, viewed with or without the key.
//!
//! The paper's authorised and stolen deployments are the *same published
//! weights*; they differ only in `L_j = (-1)^{k_j}`, one ±1 per locked
//! neuron (Eq. 1–2, `out_j = f(L_j · MAC_j)`). An [`InferencePlan`] is that
//! statement as a type: one [`Network`] built from the [`LockedModel`],
//! plus the vault-derived factor vector when a vault exists. A run picks a
//! [`PlanView`] — keyed (the factors) or keyless (all `+1`) — per call, and
//! reads the network through `&self`, so any number of threads share one
//! plan and resident weights do not grow with the number that do.

use std::ops::Range;

use hpnn_nn::Network;
use hpnn_tensor::{Tensor, TensorError};

use crate::key::KeyVault;
use crate::model::LockedModel;

/// One model deployed once, for every thread and both lock views.
#[derive(Debug)]
pub struct InferencePlan {
    net: Network,
    /// The vault-derived `L_j`; `None` on a node that holds no key.
    lock: Option<Vec<f32>>,
}

impl InferencePlan {
    /// Deploys `model`, deriving the lock factors inside `vault` when the
    /// node has one.
    ///
    /// # Errors
    ///
    /// Returns an error if the stored architecture fails to build.
    pub fn new(model: &LockedModel, vault: Option<&KeyVault>) -> Result<Self, TensorError> {
        Ok(InferencePlan {
            net: model.deploy_stolen()?,
            lock: vault.map(|v| v.with_key(|key| model.schedule().derive_lock_factors(key))),
        })
    }

    /// The all-`+1` view: what anyone holding the published file computes
    /// ([`LockedModel::deploy_stolen`], bit for bit).
    pub fn keyless(&self) -> PlanView<'_> {
        PlanView {
            net: &self.net,
            lock: None,
        }
    }

    /// The authorised view ([`LockedModel::deploy_trusted`], bit for bit);
    /// `None` when the plan was built without a vault — there is no other
    /// way to obtain a keyed view.
    pub fn keyed(&self) -> Option<PlanView<'_>> {
        Some(PlanView {
            net: &self.net,
            lock: Some(self.lock.as_deref()?),
        })
    }
}

/// An [`InferencePlan`] under one choice of lock factors.
#[derive(Debug, Clone, Copy)]
pub struct PlanView<'a> {
    net: &'a Network,
    lock: Option<&'a [f32]>,
}

impl PlanView<'_> {
    /// Runs the layers in `layers` on the activation entering them;
    /// consecutive ranges compose to the full forward bit for bit
    /// ([`Network::infer_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is out of bounds or `input` has the wrong width.
    pub fn run(&self, input: &Tensor, layers: Range<usize>) -> Tensor {
        self.net.infer_range(input, layers, self.lock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::HpnnKey;
    use crate::model::ModelMetadata;
    use crate::schedule::{Schedule, ScheduleKind};
    use hpnn_nn::{cnn1, mlp, ImageDims, LayerSpec, NetworkSpec};
    use hpnn_tensor::Rng;
    use std::sync::Barrier;

    /// A published model with every parameter (biases and batch-norm
    /// statistics included) away from its initial value, plus its vault.
    fn published(spec: NetworkSpec, seed: u64) -> (LockedModel, KeyVault) {
        let mut rng = Rng::new(seed);
        let key = HpnnKey::random(&mut rng);
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::Permuted, seed);
        let mut net = spec.build(&mut rng).unwrap();
        net.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v = 0.25 + rng.next_f32();
            }
        });
        let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
        (model, KeyVault::provision(key, "dev"))
    }

    fn residual_spec() -> NetworkSpec {
        NetworkSpec::new(
            2 * 8 * 8,
            vec![
                LayerSpec::Residual {
                    in_c: 2,
                    h: 8,
                    w: 8,
                    out_c: 4,
                    stride: 2,
                },
                LayerSpec::Activation {
                    kind: hpnn_nn::ActKind::Relu,
                    features: 64,
                },
                LayerSpec::Dense {
                    in_features: 64,
                    out_features: 5,
                },
            ],
        )
    }

    fn specs() -> Vec<NetworkSpec> {
        vec![
            mlp(12, &[16, 8], 3),
            cnn1(ImageDims::new(1, 8, 8), 4, 0.5).unwrap(),
            residual_spec(),
        ]
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn views_equal_the_two_deployments_bit_for_bit_over_every_split() {
        for (i, spec) in specs().into_iter().enumerate() {
            let layers = spec.layers.len();
            let in_features = spec.in_features;
            let (model, vault) = published(spec, 40 + i as u64);
            let plan = InferencePlan::new(&model, Some(&vault)).unwrap();
            assert!(
                InferencePlan::new(&model, None).unwrap().keyed().is_none(),
                "no vault, no keyed view"
            );
            let mut trusted = model.deploy_trusted(&vault).unwrap();
            let mut stolen = model.deploy_stolen().unwrap();
            let mut rng = Rng::new(7);
            for rows in [1, 33] {
                let x = Tensor::randn([rows, in_features], 1.0, &mut rng);
                let want_keyed = bits(&trusted.forward(&x, false));
                let want_keyless = bits(&stolen.forward(&x, false));
                assert_ne!(want_keyed, want_keyless, "spec {i}: the lock must matter");
                for (view, want) in [
                    (plan.keyed().unwrap(), &want_keyed),
                    (plan.keyless(), &want_keyless),
                ] {
                    assert_eq!(
                        &bits(&view.run(&x, 0..layers)),
                        want,
                        "spec {i}, {rows} rows"
                    );
                    for cut in 0..=layers {
                        let mid = view.run(&x, 0..cut);
                        let out = view.run(&mid, cut..layers);
                        assert_eq!(&bits(&out), want, "spec {i}, {rows} rows, cut {cut}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_plan_shared_by_threads_under_mixed_views_equals_serial() {
        let spec = cnn1(ImageDims::new(1, 8, 8), 4, 0.5).unwrap();
        let (layers, in_features) = (spec.layers.len(), spec.in_features);
        let (model, vault) = published(spec, 50);
        let plan = InferencePlan::new(&model, Some(&vault)).unwrap();
        let mut rng = Rng::new(8);
        let inputs: Vec<Tensor> = [1, 5, 33, 2, 16, 1, 9, 3]
            .iter()
            .map(|&rows| Tensor::randn([rows, in_features], 1.0, &mut rng))
            .collect();
        let view = |keyed: bool| {
            if keyed {
                plan.keyed().unwrap()
            } else {
                plan.keyless()
            }
        };
        let serial: Vec<[Vec<u32>; 2]> = inputs
            .iter()
            .map(|x| [false, true].map(|keyed| bits(&view(keyed).run(x, 0..layers))))
            .collect();
        const THREADS: usize = 4;
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (view, inputs, serial, start) = (&view, &inputs, &serial, &start);
                s.spawn(move || {
                    // All four enter the plan together, each alternating
                    // views out of phase with its neighbours.
                    start.wait();
                    for round in 0..8 {
                        for (i, x) in inputs.iter().enumerate() {
                            let keyed = (t + round + i) % 2 == 0;
                            let got = bits(&view(keyed).run(x, 0..layers));
                            assert_eq!(got, serial[i][usize::from(keyed)], "thread {t} input {i}");
                        }
                    }
                });
            }
        });
    }
}
