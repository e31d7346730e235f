//! # hpnn-core
//!
//! Core of the HPNN (Hardware Protected Neural Network) reproduction —
//! the obfuscation framework of *"Hardware-Assisted Intellectual Property
//! Protection of Deep Learning Models"* (Chakraborty, Mondal, Srivastava,
//! DAC 2020):
//!
//! * [`HpnnKey`] — the secret 256-bit key (one bit per hardware accumulator).
//! * [`Schedule`] — the neuron→accumulator mapping that lets a
//!   256-bit key lock networks with thousands of neurons. The container
//!   publishes it, and its default seed is derived from key word 0
//!   (ROADMAP security step 1).
//! * [`HpnnTrainer`] — the owner's key-dependent backpropagation flow.
//! * [`LockedModel`] — the published obfuscated model container, with
//!   trusted ([`LockedModel::deploy_trusted`]) and stolen
//!   ([`LockedModel::deploy_stolen`]) inference paths.
//! * [`InferencePlan`] — one immutable deployment a server shares across
//!   threads, run under a keyed or keyless [`PlanView`] per call.
//!
//! ## End-to-end example
//!
//! ```
//! use hpnn_core::{HpnnKey, HpnnTrainer, KeyVault};
//! use hpnn_data::{Benchmark, DatasetScale};
//! use hpnn_nn::{mlp, TrainConfig};
//! use hpnn_tensor::Rng;
//!
//! let dataset = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
//! let spec = mlp(dataset.shape.volume(), &[16], dataset.classes);
//! let mut rng = Rng::new(1);
//! let key = HpnnKey::random(&mut rng);
//!
//! let artifacts = HpnnTrainer::new(spec, key)
//!     .with_config(TrainConfig::default().with_epochs(2))
//!     .train(&dataset)?;
//!
//! // Publish…
//! let bytes = artifacts.model.to_bytes();
//! // …and deploy on a trusted device.
//! let model = hpnn_core::LockedModel::from_bytes(bytes)?;
//! let vault = KeyVault::provision(key, "tpu-0");
//! let mut net = model.deploy_trusted(&vault)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod codec;
mod digest;
mod key;
mod model;
mod plan;
mod registry;
mod schedule;
mod train;

pub use codec::{DecodeError, MAGIC, MAX_LOCKABLE, MAX_WIDTH, VERSION};
pub use digest::{sha256, Digest};
pub use key::{HpnnKey, KeyVault, ParseKeyError, KEY_BITS};
pub use model::{LockedModel, ModelMetadata};
pub use plan::{InferencePlan, PlanView};
pub use registry::{ModelRegistry, RegistryError};
pub use schedule::{Schedule, ScheduleKind};
pub use train::{HpnnTrainer, TrainedArtifacts};
