//! # hpnn-nn
//!
//! Neural-network substrate for the HPNN (Hardware Protected Neural Network)
//! reproduction: layers with manual backpropagation, lockable activations
//! implementing the paper's Eq. (1) neuron locking, losses, SGD, reference
//! architectures (CNN1/CNN2/CNN3/ResNet of Table I), and a mini-batch
//! training loop.
//!
//! The crate implements *key-dependent backpropagation* (paper Sec. III-C)
//! structurally: lock factors `L_j = (-1)^{k_j}` installed on activation
//! layers participate in both the forward pass (`out_j = f(L_j·MAC_j)`) and
//! the gradient (`∂out_j/∂MAC_j = f'(L_j·MAC_j)·L_j`), so the ordinary
//! training loop [`train`] trains a locked network exactly per Eq. (4).
//!
//! ## Example
//!
//! ```
//! use hpnn_nn::{mlp, train, LabeledBatch, TrainConfig};
//! use hpnn_tensor::{Rng, Shape, Tensor};
//!
//! let mut rng = Rng::new(7);
//! let spec = mlp(2, &[8], 2);
//! let mut net = spec.build(&mut rng)?;
//!
//! // Lock half the hidden neurons (key bits 1) and train: this is
//! // key-dependent backpropagation.
//! let factors: Vec<f32> = (0..8).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
//! net.install_lock_factors(&factors);
//!
//! let x = Tensor::randn([16, 2], 1.0, &mut rng);
//! let y: Vec<usize> = (0..16).map(|i| i % 2).collect();
//! let history = train(&mut net, LabeledBatch::new(&x, &y), None,
//!                     &TrainConfig::default().with_epochs(1), &mut rng);
//! assert_eq!(history.epochs.len(), 1);
//! # Ok::<(), hpnn_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

mod activation;
mod arch;
mod conv2d;
mod dense;
mod layer;
mod loss;
mod metrics;
mod network;
mod optimizer;
mod par;
mod param;
mod pool2d;
mod residual;
mod spec;
#[cfg(test)]
mod theory;
mod trainer;

pub use activation::{ActKind, Activation};
pub use arch::{cnn1, cnn2, cnn3, mlp, resnet, ArchKind, ImageDims};
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use layer::Layer;
pub use loss::{mse_one_hot, softmax, softmax_cross_entropy, LossOutput};
pub use metrics::{accuracy, ConfusionMatrix};
pub use network::Network;
pub use optimizer::Sgd;
pub use param::Param;
pub use pool2d::MaxPool2d;
pub use residual::ResidualBlock;
pub use spec::{LayerCensus, LayerSpec, NetworkSpec};
pub use trainer::{train, EpochStats, LabeledBatch, TrainConfig, TrainHistory};
