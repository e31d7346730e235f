//! The model owner's key-dependent training flow (paper Fig. 1, left path).

use hpnn_data::Dataset;
use hpnn_nn::{train, LabeledBatch, Network, NetworkSpec, TrainConfig, TrainHistory};
use hpnn_tensor::{Rng, TensorError};

use crate::key::HpnnKey;
use crate::model::{LockedModel, ModelMetadata};
use crate::schedule::{Schedule, ScheduleKind};

/// Configuration of an owner-side HPNN training run.
#[derive(Debug, Clone)]
pub struct HpnnTrainer {
    /// The baseline architecture to train.
    pub spec: NetworkSpec,
    /// The secret 256-bit key.
    pub key: HpnnKey,
    /// Scheduling policy of the target hardware.
    pub schedule_kind: ScheduleKind,
    /// Schedule seed. The published container carries it, so it is public.
    /// By default it is derived from key word 0 ([`HpnnTrainer::new`]).
    pub schedule_seed: u64,
    /// Training hyperparameters.
    pub config: TrainConfig,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
}

/// Everything produced by one owner training run.
#[derive(Debug)]
pub struct TrainedArtifacts {
    /// The publishable obfuscated model.
    pub model: LockedModel,
    /// Per-epoch history of the key-dependent training.
    pub history: TrainHistory,
    /// Test accuracy with the key installed (owner's expected accuracy;
    /// Table I "HPNN locked accuracy" is the *without-key* counterpart).
    pub accuracy_with_key: f32,
    /// Test accuracy of the same published weights run on the baseline
    /// architecture without a key — the attacker's direct-use accuracy.
    pub accuracy_without_key: f32,
}

impl TrainedArtifacts {
    /// Accuracy drop (percentage points, 0–100 scale) caused by removing the
    /// key — the paper's "%drop" column of Table I.
    pub fn accuracy_drop_percent(&self) -> f32 {
        (self.accuracy_with_key - self.accuracy_without_key) * 100.0
    }
}

impl HpnnTrainer {
    /// Creates a trainer with the default hardware schedule
    /// ([`ScheduleKind::Permuted`], seed derived from key word 0) and
    /// default hyperparameters.
    ///
    /// The container publishes that seed, so every published model leaks
    /// 64 bits of information about key word 0 (ROADMAP security step 1,
    /// "Close the key leak").
    pub fn new(spec: NetworkSpec, key: HpnnKey) -> Self {
        // Published in the container: a function of key word 0, not a secret.
        let schedule_seed = key.words()[0] ^ 0x7072_6976_6174_6531;
        HpnnTrainer {
            spec,
            key,
            schedule_kind: ScheduleKind::Permuted,
            schedule_seed,
            config: TrainConfig::default(),
            seed: 0,
        }
    }

    /// Builder: sets hyperparameters.
    pub fn with_config(mut self, config: TrainConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder: sets the initialization/shuffle seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the schedule policy/seed explicitly.
    pub fn with_schedule(mut self, kind: ScheduleKind, seed: u64) -> Self {
        self.schedule_kind = kind;
        self.schedule_seed = seed;
        self
    }

    /// The schedule this trainer will embed in published models.
    pub fn schedule(&self) -> Schedule {
        Schedule::new(
            self.spec.lockable_neurons(),
            self.schedule_kind,
            self.schedule_seed,
        )
    }

    /// Builds the locked network (lock factors installed, weights fresh).
    ///
    /// # Errors
    ///
    /// Returns an error if the architecture is invalid.
    pub fn build_locked_network(&self, rng: &mut Rng) -> Result<Network, TensorError> {
        let mut net = self.spec.build(rng)?;
        net.install_lock_factors(&self.schedule().derive_lock_factors(&self.key));
        Ok(net)
    }

    /// Runs key-dependent backpropagation on `dataset` and packages the
    /// result for publication.
    ///
    /// # Errors
    ///
    /// Returns an error if the architecture is invalid.
    pub fn train(&self, dataset: &Dataset) -> Result<TrainedArtifacts, TensorError> {
        let mut rng = Rng::new(self.seed);
        let mut net = self.build_locked_network(&mut rng)?;

        let history = train(
            &mut net,
            LabeledBatch::new(&dataset.train_inputs, &dataset.train_labels),
            Some(LabeledBatch::new(
                &dataset.test_inputs,
                &dataset.test_labels,
            )),
            &self.config,
            &mut rng,
        );

        let accuracy_with_key = net.accuracy(&dataset.test_inputs, &dataset.test_labels);

        let metadata = ModelMetadata {
            name: format!("hpnn-{}", dataset.name.to_lowercase().replace(' ', "-")),
            dataset: dataset.name.clone(),
            notes: format!(
                "key-dependent training, lr={}, epochs={}, batch={}",
                self.config.lr, self.config.epochs, self.config.batch_size
            ),
        };
        let model =
            LockedModel::from_network(self.spec.clone(), &mut net, self.schedule(), metadata);

        // Attacker's direct-use accuracy: same weights, no key.
        let mut stolen = model.deploy_stolen()?;
        let accuracy_without_key = stolen.accuracy(&dataset.test_inputs, &dataset.test_labels);

        Ok(TrainedArtifacts {
            model,
            history,
            accuracy_with_key,
            accuracy_without_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_data::{Benchmark, DatasetScale};
    use hpnn_nn::mlp;

    fn quick_config() -> TrainConfig {
        TrainConfig::default().with_epochs(14).with_lr(0.05)
    }

    fn tiny_dataset() -> Dataset {
        Benchmark::FashionMnist.synthetic(DatasetScale::TINY)
    }

    #[test]
    fn owner_gets_high_accuracy_attacker_does_not() {
        let ds = tiny_dataset();
        let spec = mlp(ds.shape.volume(), &[32], ds.classes);
        let mut rng = Rng::new(1);
        let key = HpnnKey::random(&mut rng);
        let artifacts = HpnnTrainer::new(spec, key)
            .with_config(quick_config())
            .with_seed(7)
            .train(&ds)
            .unwrap();
        assert!(
            artifacts.accuracy_with_key > 0.5,
            "owner accuracy {}",
            artifacts.accuracy_with_key
        );
        assert!(
            artifacts.accuracy_without_key < artifacts.accuracy_with_key - 0.2,
            "with {} vs without {}",
            artifacts.accuracy_with_key,
            artifacts.accuracy_without_key
        );
        assert!(artifacts.accuracy_drop_percent() > 20.0);
    }

    #[test]
    fn zero_key_training_equals_conventional() {
        // With the all-zero key every lock factor is +1, so key-dependent
        // training degenerates to conventional backpropagation and the
        // "stolen" path performs identically to the keyed path.
        let ds = tiny_dataset();
        let spec = mlp(ds.shape.volume(), &[16], ds.classes);
        let artifacts = HpnnTrainer::new(spec, HpnnKey::ZERO)
            .with_config(quick_config())
            .with_seed(3)
            .train(&ds)
            .unwrap();
        assert!((artifacts.accuracy_with_key - artifacts.accuracy_without_key).abs() < 1e-6);
    }

    #[test]
    fn published_model_roundtrips_and_deploys() {
        let ds = tiny_dataset();
        let spec = mlp(ds.shape.volume(), &[16], ds.classes);
        let mut rng = Rng::new(2);
        let key = HpnnKey::random(&mut rng);
        let artifacts = HpnnTrainer::new(spec, key)
            .with_config(quick_config())
            .train(&ds)
            .unwrap();
        let bytes = artifacts.model.to_bytes();
        let decoded = LockedModel::from_bytes(bytes).unwrap();
        let mut net = decoded.deploy_with_key(&key).unwrap();
        let acc = net.accuracy(&ds.test_inputs, &ds.test_labels);
        assert!((acc - artifacts.accuracy_with_key).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = tiny_dataset();
        let spec = mlp(ds.shape.volume(), &[16], ds.classes);
        let key = HpnnKey::from_words([1, 2, 3, 4]);
        let run = || {
            HpnnTrainer::new(spec.clone(), key)
                .with_config(quick_config())
                .with_seed(11)
                .train(&ds)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.accuracy_with_key, b.accuracy_with_key);
        assert_eq!(a.model, b.model);
    }

    /// Pins the exact bytes a short CNN1 training run publishes, so any
    /// change to the forward/backward memory path that moves a single bit
    /// of the trained weights fails here.
    #[test]
    fn trained_cnn1_container_bytes_are_pinned() {
        let ds = tiny_dataset();
        let dims = hpnn_nn::ImageDims::new(ds.shape.c, ds.shape.h, ds.shape.w);
        let spec = hpnn_nn::cnn1(dims, ds.classes, 0.5).unwrap();
        let artifacts = HpnnTrainer::new(spec, HpnnKey::from_words([9, 8, 7, 6]))
            .with_config(TrainConfig::default().with_epochs(2).with_lr(0.03))
            .with_seed(5)
            .train(&ds)
            .unwrap();
        assert_eq!(
            crate::sha256(&artifacts.model.to_bytes()).to_string(),
            "7261908c7ae92d4cbd05cde3ca556fdf1e36a756957c6421d9d5f0c8980a7374"
        );
    }

    /// Pins the geometries the CNN1 pin does not reach: resnet (stride-2
    /// 3×3 convolutions and their 1×1 stride-2 projections) and cnn3 (32 and
    /// 64 filters). Each digest covers the forward logits of the freshly
    /// built locked network and its parameters after two SGD steps.
    #[test]
    fn resnet_and_cnn3_logits_and_trained_parameters_are_pinned() {
        fn digest(values: &[f32]) -> String {
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            crate::sha256(&bytes).to_string()
        }
        let dims = hpnn_nn::ImageDims::new(3, 16, 16);
        let cases = [
            (
                hpnn_nn::resnet(dims, 10, 1.0).unwrap(),
                "481d5b7c90595cfd25c5521c374181e785c24956168d39f8a174eebc7b47a94d",
                "b61ac32260be17f36b11622ab865583d728c8cc028ad68f2a9ba1c4cd86405eb",
            ),
            (
                hpnn_nn::cnn3(dims, 10, 1.0).unwrap(),
                "f39955a98322a8bbda8dfe238780b90a14c1883358176026e244a4c578bd1c80",
                "7782de1310d42a58e578114d80cd3c78e80505308813903b3c26162c6735b93f",
            ),
        ];
        for (spec, want_logits, want_params) in cases {
            let trainer = HpnnTrainer::new(spec, HpnnKey::from_words([3, 1, 4, 1]));
            let mut rng = Rng::new(17);
            let mut net = trainer.build_locked_network(&mut rng).unwrap();
            let x = hpnn_tensor::Tensor::randn([6, dims.volume()], 1.0, &mut rng);
            let labels: Vec<usize> = (0..6).map(|i| i * 7 % 10).collect();
            let logits = net.forward(&x, false);
            let config = TrainConfig::default()
                .with_epochs(2)
                .with_batch_size(6)
                .with_lr(0.05);
            train(
                &mut net,
                LabeledBatch::new(&x, &labels),
                None,
                &config,
                &mut rng,
            );
            let params: Vec<f32> = net
                .export_weights()
                .iter()
                .flat_map(|t| t.data().to_vec())
                .collect();
            assert_eq!(
                (digest(logits.data()), digest(&params)),
                (want_logits.to_string(), want_params.to_string())
            );
        }
    }

    #[test]
    fn schedule_embedded_in_model() {
        let ds = tiny_dataset();
        let spec = mlp(ds.shape.volume(), &[16], ds.classes);
        let key = HpnnKey::from_words([5, 6, 7, 8]);
        let trainer = HpnnTrainer::new(spec, key).with_config(quick_config());
        let artifacts = trainer.train(&ds).unwrap();
        assert_eq!(artifacts.model.schedule(), &trainer.schedule());
    }
}
