//! # hpnn
//!
//! Umbrella crate for the HPNN (Hardware Protected Neural Network)
//! reproduction of *"Hardware-Assisted Intellectual Property Protection of
//! Deep Learning Models"* (Chakraborty, Mondal, Srivastava, DAC 2020).
//!
//! Re-exports the workspace crates under stable module names:
//!
//! * [`tensor`] — dense f32 tensors, deterministic RNG, conv/pool kernels.
//! * [`nn`] — layers with (key-dependent) manual backpropagation.
//! * [`core`] — keys, schedules, locked models, owner training.
//! * [`data`] — benchmark datasets and thief-subset sampling.
//! * [`hw`] — the gate/cycle-level trusted accelerator model.
//! * [`attacks`] — fine-tuning and key-guessing attacks.
//! * [`baselines`] — weight-encryption and watermarking comparison baselines.
//! * [`serve`] — batched TCP inference server for locked models, with an
//!   optional Prometheus scrape endpoint.
//!
//! ## Quickstart
//!
//! ```
//! use hpnn::core::{HpnnKey, HpnnTrainer, KeyVault};
//! use hpnn::data::{Benchmark, DatasetScale};
//! use hpnn::nn::{mlp, TrainConfig};
//! use hpnn::tensor::Rng;
//!
//! let dataset = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
//! let mut rng = Rng::new(1);
//! let key = HpnnKey::random(&mut rng);
//! let spec = mlp(dataset.shape.volume(), &[16], dataset.classes);
//! let artifacts = HpnnTrainer::new(spec, key)
//!     .with_config(TrainConfig::default().with_epochs(2))
//!     .train(&dataset)?;
//! assert!(artifacts.accuracy_with_key >= artifacts.accuracy_without_key);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use hpnn_attacks as attacks;
pub use hpnn_baselines as baselines;
pub use hpnn_core as core;
pub use hpnn_data as data;
pub use hpnn_hw as hw;
pub use hpnn_nn as nn;
pub use hpnn_serve as serve;
pub use hpnn_tensor as tensor;
