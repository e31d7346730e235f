//! The published obfuscated model container and its inference paths.

use hpnn_bytes::{Buf, Bytes, BytesMut};
use hpnn_nn::{Network, NetworkSpec};
use hpnn_tensor::{Rng, Tensor, TensorError};

use crate::codec;
use crate::codec::DecodeError;
use crate::key::{HpnnKey, KeyVault};
use crate::schedule::Schedule;

/// Descriptive metadata attached to a published model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelMetadata {
    /// Model name as listed on the sharing platform.
    pub name: String,
    /// Dataset the model was trained on.
    pub dataset: String,
    /// Free-form notes (hyperparameters, owner contact, …).
    pub notes: String,
}

/// An HPNN-obfuscated model as published on a model-sharing platform.
///
/// The container holds everything *public*: the baseline architecture
/// (white-box assumption), the key-obfuscated weights, and the schedule
/// parameters needed by a trusted device to derive per-neuron key bits.
/// It does **not** hold the HPNN key — without a [`KeyVault`] the model
/// only supports the degraded [`deploy_stolen`](LockedModel::deploy_stolen)
/// path.
///
/// # Examples
///
/// ```
/// use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
/// use hpnn_nn::mlp;
/// use hpnn_tensor::Rng;
///
/// let mut rng = Rng::new(0);
/// let spec = mlp(4, &[6], 2);
/// let key = HpnnKey::random(&mut rng);
/// let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
/// let mut net = spec.build(&mut rng)?;
/// net.install_lock_factors(&schedule.derive_lock_factors(&key));
/// // ... train `net` ...
/// let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
///
/// // Authorized user with trusted hardware:
/// let vault = KeyVault::provision(key, "tpu-0");
/// let mut authorized = model.deploy_trusted(&vault)?;
/// // Attacker without the key:
/// let mut stolen = model.deploy_stolen()?;
/// # Ok::<(), hpnn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LockedModel {
    spec: NetworkSpec,
    weights: Vec<Tensor>,
    schedule: Schedule,
    metadata: ModelMetadata,
}

impl LockedModel {
    /// Packages a trained (locked) network for publication. Only the weight
    /// values are captured — lock factors are *not* stored (they are derived
    /// from the key at inference time inside the trusted hardware).
    ///
    /// The model is checked as [`from_bytes`](LockedModel::from_bytes)
    /// checks a container, so every `LockedModel` holds the weights and
    /// schedule its architecture declares.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is an architecture `from_bytes` refuses, if
    /// `schedule.num_neurons()` differs from its lockable neuron count, or if
    /// the network's weights are not the tensors `spec` declares.
    pub fn from_network(
        spec: NetworkSpec,
        net: &mut Network,
        schedule: Schedule,
        metadata: ModelMetadata,
    ) -> Self {
        let (shapes, lockable) = codec::check_spec(&spec).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            schedule.num_neurons(),
            lockable,
            "schedule covers {} neurons but the architecture has {lockable}",
            schedule.num_neurons(),
        );
        let weights = net.export_weights();
        assert!(
            weights.iter().map(|t| t.shape().dims()).eq(&shapes),
            "the network's weights are not the tensors the architecture declares"
        );
        LockedModel {
            spec,
            weights,
            schedule,
            metadata,
        }
    }

    /// The public baseline architecture.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The published weight tensors.
    pub fn weights(&self) -> &[Tensor] {
        &self.weights
    }

    /// The neuron→accumulator schedule parameters.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Model metadata.
    pub fn metadata(&self) -> &ModelMetadata {
        &self.metadata
    }

    /// Builds the network as an **authorized** user: the trusted device
    /// derives per-neuron lock factors from its sealed key and installs
    /// them, retrieving the intended functionality (paper Fig. 1, right
    /// path).
    ///
    /// # Errors
    ///
    /// Returns an error if the stored architecture is invalid.
    pub fn deploy_trusted(&self, vault: &KeyVault) -> Result<Network, TensorError> {
        let mut net = self.instantiate()?;
        let factors = vault.with_key(|key| self.schedule.derive_lock_factors(key));
        net.install_lock_factors(&factors);
        Ok(net)
    }

    /// Builds the network with an explicit key (the owner's own validation
    /// path — during training the owner knows the key value; Sec. III-A).
    ///
    /// # Errors
    ///
    /// Returns an error if the stored architecture is invalid.
    pub fn deploy_with_key(&self, key: &HpnnKey) -> Result<Network, TensorError> {
        let mut net = self.instantiate()?;
        net.install_lock_factors(&self.schedule.derive_lock_factors(key));
        Ok(net)
    }

    /// Builds the network as an **attacker**: stolen weights loaded into the
    /// baseline architecture with no key (all lock factors behave as `+1`) —
    /// the unauthorized path whose accuracy collapses in Table I.
    ///
    /// # Errors
    ///
    /// Returns an error if the stored architecture is invalid.
    pub fn deploy_stolen(&self) -> Result<Network, TensorError> {
        self.instantiate()
    }

    fn instantiate(&self) -> Result<Network, TensorError> {
        // Weight import overwrites the random init; any seed works.
        let mut rng = Rng::new(0);
        let mut net = self.spec.build(&mut rng)?;
        net.import_weights(&self.weights);
        Ok(net)
    }

    /// Serializes the model into the `HPNN` binary container.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        codec::put_header(&mut buf);
        codec::put_string(&mut buf, &self.metadata.name);
        codec::put_string(&mut buf, &self.metadata.dataset);
        codec::put_string(&mut buf, &self.metadata.notes);
        codec::put_network_spec(&mut buf, &self.spec);
        codec::put_schedule(&mut buf, &self.schedule);
        codec::put_tensors(&mut buf, &self.weights);
        buf.freeze()
    }

    /// Parses a model from the `HPNN` binary container.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input: besides a truncated or
    /// mistagged stream, an architecture whose layers do not chain or whose
    /// sizes overflow, a schedule that does not cover exactly its lockable
    /// neurons, a weight list whose count or any shape is not the
    /// architecture's, and bytes after the last tensor. A decoded model
    /// therefore deploys without panicking.
    pub fn from_bytes(mut bytes: impl Buf) -> Result<Self, DecodeError> {
        codec::check_header(&mut bytes)?;
        let name = codec::get_string(&mut bytes)?;
        let dataset = codec::get_string(&mut bytes)?;
        let notes = codec::get_string(&mut bytes)?;
        let spec = codec::get_network_spec(&mut bytes)?;
        let (shapes, lockable) = codec::check_spec(&spec)?;
        let schedule = codec::get_schedule(&mut bytes)?;
        if schedule.num_neurons() != lockable {
            return Err(DecodeError::CountMismatch {
                context: "schedule neurons",
                expected: lockable as u64,
                declared: schedule.num_neurons() as u64,
            });
        }
        let weights = codec::get_tensors(&mut bytes, &shapes)?;
        if bytes.remaining() > 0 {
            return Err(DecodeError::TrailingBytes(bytes.remaining()));
        }
        Ok(LockedModel {
            spec,
            weights,
            schedule,
            metadata: ModelMetadata {
                name,
                dataset,
                notes,
            },
        })
    }

    /// Total number of published weight scalars.
    pub fn weight_count(&self) -> usize {
        self.weights.iter().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MAX_LOCKABLE;
    use crate::schedule::ScheduleKind;
    use hpnn_nn::{mlp, ActKind, LayerSpec};
    use hpnn_tensor::Conv2dGeom;

    fn build_model(seed: u64) -> (LockedModel, HpnnKey) {
        let mut rng = Rng::new(seed);
        let spec = mlp(4, &[6], 3);
        let key = HpnnKey::random(&mut rng);
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
        let mut net = spec.build(&mut rng).unwrap();
        net.install_lock_factors(&schedule.derive_lock_factors(&key));
        let meta = ModelMetadata {
            name: "test-model".into(),
            dataset: "synthetic".into(),
            notes: "unit test".into(),
        };
        (
            LockedModel::from_network(spec, &mut net, schedule, meta),
            key,
        )
    }

    #[test]
    fn container_roundtrip() {
        let (model, _) = build_model(1);
        let bytes = model.to_bytes();
        let decoded = LockedModel::from_bytes(bytes).unwrap();
        assert_eq!(decoded, model);
    }

    #[test]
    fn trusted_and_stolen_deployments_differ() {
        let (model, key) = build_model(2);
        let vault = KeyVault::provision(key, "dev");
        let mut trusted = model.deploy_trusted(&vault).unwrap();
        let mut stolen = model.deploy_stolen().unwrap();
        let mut rng = Rng::new(3);
        let x = Tensor::randn([8, 4], 1.0, &mut rng);
        let yt = trusted.forward(&x, false);
        let ys = stolen.forward(&x, false);
        assert!(yt.max_abs_diff(&ys) > 1e-4, "locking must change outputs");
    }

    #[test]
    fn deploy_with_key_matches_trusted() {
        let (model, key) = build_model(4);
        let vault = KeyVault::provision(key, "dev");
        let mut a = model.deploy_trusted(&vault).unwrap();
        let mut b = model.deploy_with_key(&key).unwrap();
        let mut rng = Rng::new(5);
        let x = Tensor::randn([4, 4], 1.0, &mut rng);
        assert!(a.forward(&x, false).max_abs_diff(&b.forward(&x, false)) < 1e-7);
    }

    #[test]
    fn wrong_key_differs_from_right_key() {
        let (model, key) = build_model(6);
        let wrong = key.with_flipped_bit(0).with_flipped_bit(3);
        let mut a = model.deploy_with_key(&key).unwrap();
        let mut b = model.deploy_with_key(&wrong).unwrap();
        let mut rng = Rng::new(7);
        let x = Tensor::randn([8, 4], 1.0, &mut rng);
        assert!(a.forward(&x, false).max_abs_diff(&b.forward(&x, false)) > 1e-5);
    }

    #[test]
    fn zero_key_equals_stolen_path() {
        // The stolen path installs no factors; an all-zero key installs all
        // +1 factors — functionally identical.
        let (model, _) = build_model(8);
        let mut a = model.deploy_with_key(&HpnnKey::ZERO).unwrap();
        let mut b = model.deploy_stolen().unwrap();
        let mut rng = Rng::new(9);
        let x = Tensor::randn([4, 4], 1.0, &mut rng);
        assert!(a.forward(&x, false).max_abs_diff(&b.forward(&x, false)) < 1e-7);
    }

    #[test]
    fn corrupted_container_rejected() {
        let (model, _) = build_model(10);
        let bytes = model.to_bytes();
        let mut corrupted = bytes.to_vec();
        corrupted[0] = b'X';
        assert!(LockedModel::from_bytes(corrupted.as_slice()).is_err());
    }

    #[test]
    fn truncated_container_rejected() {
        let (model, _) = build_model(11);
        let bytes = model.to_bytes();
        let truncated = bytes.slice(..bytes.len() - 10);
        assert!(LockedModel::from_bytes(truncated).is_err());
    }

    #[test]
    fn metadata_survives_roundtrip() {
        let (model, _) = build_model(12);
        let decoded = LockedModel::from_bytes(model.to_bytes()).unwrap();
        assert_eq!(decoded.metadata().name, "test-model");
        assert_eq!(decoded.metadata().dataset, "synthetic");
    }

    #[test]
    #[should_panic(expected = "schedule covers")]
    fn schedule_size_validated() {
        let mut rng = Rng::new(13);
        let spec = mlp(4, &[6], 3);
        let mut net = spec.build(&mut rng).unwrap();
        let bad_schedule = Schedule::new(5, ScheduleKind::RoundRobin, 0);
        let _ = LockedModel::from_network(spec, &mut net, bad_schedule, ModelMetadata::default());
    }

    #[test]
    #[should_panic(expected = "the network's weights are not the tensors")]
    fn a_network_that_is_not_its_spec_is_refused() {
        // Six hidden neurons either way, so the schedule fits; the network's
        // output layer has four units where the spec declares three.
        let mut rng = Rng::new(19);
        let spec = mlp(8, &[6], 3);
        let mut net = mlp(8, &[6], 4).build(&mut rng).unwrap();
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
        let _ = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
    }

    /// A container holding exactly `spec`, a schedule over `neurons` and
    /// `weights`, whatever they say.
    fn container(spec: &NetworkSpec, neurons: usize, weights: &[Tensor]) -> Bytes {
        let mut buf = BytesMut::new();
        codec::put_header(&mut buf);
        for field in ["name", "dataset", "notes"] {
            codec::put_string(&mut buf, field);
        }
        codec::put_network_spec(&mut buf, spec);
        let schedule = Schedule::new(neurons, ScheduleKind::RoundRobin, 0);
        codec::put_schedule(&mut buf, &schedule);
        codec::put_tensors(&mut buf, weights);
        buf.freeze()
    }

    #[test]
    fn layers_that_do_not_chain_or_overflow_are_refused() {
        // 3 inputs into a 4-input dense layer once decoded, then panicked
        // building the network; a 2^33 x 2^33 layer asked for 2^66 floats.
        let dense = |in_features, out_features| LayerSpec::Dense {
            in_features,
            out_features,
        };
        let unchained = NetworkSpec::new(3, vec![dense(4, 2)]);
        let weights = [Tensor::zeros([4, 2]), Tensor::zeros([2])];
        assert_eq!(
            LockedModel::from_bytes(container(&unchained, 0, &weights)).err(),
            Some(DecodeError::BadSpec {
                layer: 0,
                reason: "input width is not the width entering the layer",
            })
        );
        let huge = NetworkSpec::new(1 << 33, vec![dense(1 << 33, 1 << 33)]);
        assert_eq!(
            LockedModel::from_bytes(container(&huge, 0, &[])).err(),
            Some(DecodeError::BadSpec {
                layer: 0,
                reason: "size overflows",
            })
        );
    }

    #[test]
    fn containers_above_the_width_or_lock_caps_are_refused() {
        // A 1x1 convolution over a 2^20 x 2^20 image and its ReLU, with the
        // conv's two one-element tensors, once decoded with 2^40 lockable
        // neurons: 4 TiB of lock factors for whoever deployed it.
        let relu = |features| LayerSpec::Activation {
            kind: ActKind::Relu,
            features,
        };
        let side = 1 << 20;
        let geom = Conv2dGeom::new(1, side, side, 1, 1, 1, 0).unwrap();
        let wide = NetworkSpec::new(
            side * side,
            vec![LayerSpec::Conv2d { geom }, relu(side * side)],
        );
        let weights = [Tensor::zeros([1, 1]), Tensor::zeros([1])];
        assert_eq!(
            LockedModel::from_bytes(container(&wide, side * side, &weights)).err(),
            Some(DecodeError::BadSpec {
                layer: 0,
                reason: "width above MAX_WIDTH",
            })
        );
        // Every width at the cap's half, two ReLUs: one lock too many.
        let half = MAX_LOCKABLE / 2 + 1;
        let locky = NetworkSpec::new(half, vec![relu(half), relu(half)]);
        assert_eq!(
            LockedModel::from_bytes(container(&locky, 2 * half, &[])).err(),
            Some(DecodeError::BadSpec {
                layer: 1,
                reason: "lockable neurons above MAX_LOCKABLE",
            })
        );
    }

    #[test]
    fn a_conv_whose_column_matrix_is_above_the_width_cap_is_refused() {
        // One kernel-1024 convolution over a 1x1x1 input padded by 2048:
        // 9,449,476 outputs, under MAX_WIDTH, and a weight tensor its
        // 4 MB container holds. It once decoded, and the trusted
        // device would have reserved its 1,048,576 x 9,449,476 int8
        // column matrix, ≈ 9.9 TB, before the first MAC.
        let geom = Conv2dGeom::new(1, 1, 1, 1, 1024, 1, 2048).unwrap();
        assert_eq!(geom.out_volume(), 9_449_476);
        let spec = NetworkSpec::new(1, vec![LayerSpec::Conv2d { geom }]);
        let weights = [Tensor::zeros([1, 1 << 20]), Tensor::zeros([1])];
        let bytes = container(&spec, 0, &weights);
        assert_eq!(bytes.len(), 4_194_508);
        assert_eq!(
            LockedModel::from_bytes(bytes).err(),
            Some(DecodeError::BadSpec {
                layer: 0,
                reason: "column matrix above MAX_WIDTH",
            })
        );
    }

    #[test]
    fn a_weight_list_one_short_is_refused() {
        let (model, _) = build_model(15);
        let short = &model.weights()[..3];
        assert_eq!(
            LockedModel::from_bytes(container(model.spec(), 6, short)).err(),
            Some(DecodeError::CountMismatch {
                context: "weight tensors",
                expected: 4,
                declared: 3,
            })
        );
    }

    #[test]
    fn a_weight_tensor_of_the_wrong_shape_is_refused() {
        let (model, _) = build_model(16);
        let mut weights = model.weights().to_vec();
        weights[3] = Tensor::zeros([2]); // the 3-entry output bias
        assert_eq!(
            LockedModel::from_bytes(container(model.spec(), 6, &weights)).err(),
            Some(DecodeError::ShapeMismatch {
                tensor: 3,
                expected: vec![3],
                declared: vec![2],
            })
        );
    }

    #[test]
    fn a_schedule_not_covering_the_lockable_neurons_is_refused() {
        // 7 once panicked installing the factors; 2^62 overflowed the
        // factor vector's capacity, and 2^36 asked for 256 GiB.
        let (model, _) = build_model(17);
        for declared in [5, 7, 1 << 36, 1 << 62] {
            let bytes = container(model.spec(), declared, model.weights());
            assert_eq!(
                LockedModel::from_bytes(bytes).err(),
                Some(DecodeError::CountMismatch {
                    context: "schedule neurons",
                    expected: 6,
                    declared: declared as u64,
                }),
                "{declared}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let (model, _) = build_model(18);
        let mut bytes = model.to_bytes().to_vec();
        bytes.push(0);
        assert_eq!(
            LockedModel::from_bytes(bytes.as_slice()).err(),
            Some(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn weight_count() {
        let (model, _) = build_model(14);
        assert_eq!(model.weight_count(), 4 * 6 + 6 + 6 * 3 + 3);
    }
}
