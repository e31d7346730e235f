//! Serializable network architecture specifications.
//!
//! A [`NetworkSpec`] is the "baseline DNN architecture" of the paper's
//! threat model: the layer types, sizes, and connectivity that an attacker
//! is assumed to know (white-box setting). Building a spec yields a
//! [`Network`] with freshly initialized weights; combined with exported
//! weight tensors it reconstructs a trained model exactly.

use hpnn_tensor::{Conv2dGeom, PoolGeom, Rng, TensorError};

use crate::activation::{ActKind, Activation};
use crate::conv2d::Conv2d;
use crate::dense::Dense;
use crate::network::Network;
use crate::pool2d::MaxPool2d;
use crate::residual::ResidualBlock;

/// One layer of a [`NetworkSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerSpec {
    /// Fully-connected layer.
    Dense {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// (Lockable) activation layer.
    Activation {
        /// Nonlinearity kind.
        kind: ActKind,
        /// Neuron count.
        features: usize,
    },
    /// 2-D convolution.
    Conv2d {
        /// Validated convolution geometry.
        geom: Conv2dGeom,
    },
    /// 2-D max pooling.
    MaxPool2d {
        /// Channel count.
        channels: usize,
        /// Per-plane pooling geometry.
        geom: PoolGeom,
    },
    /// Residual block with two 3×3 convolutions and lockable ReLUs.
    Residual {
        /// Input channels.
        in_c: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Output channels.
        out_c: usize,
        /// Spatial stride of the first convolution.
        stride: usize,
    },
}

/// Output spatial side of a residual block's 3×3/stride-`s`/pad-1 first
/// convolution: `(side − 1)/stride + 1`.
pub(crate) fn residual_out_side(side: usize, stride: usize) -> usize {
    (side - 1) / stride + 1
}

impl LayerSpec {
    /// Output features given input features (mirrors [`crate::Layer::out_features`]).
    pub fn out_features(&self, in_features: usize) -> usize {
        match self {
            LayerSpec::Dense { out_features, .. } => *out_features,
            LayerSpec::Activation { features, .. } => *features,
            LayerSpec::Conv2d { geom } => {
                debug_assert_eq!(in_features, geom.in_volume());
                geom.out_volume()
            }
            LayerSpec::MaxPool2d { channels, geom } => {
                debug_assert_eq!(in_features, channels * geom.in_h * geom.in_w);
                channels * geom.out_h * geom.out_w
            }
            LayerSpec::Residual {
                out_c,
                h,
                w,
                stride,
                ..
            } => out_c * residual_out_side(*h, *stride) * residual_out_side(*w, *stride),
        }
    }

    /// Number of lockable neurons contributed by this layer.
    pub fn lockable_neurons(&self) -> usize {
        match self {
            LayerSpec::Activation { features, .. } => *features,
            LayerSpec::Residual {
                out_c,
                h,
                w,
                stride,
                ..
            } => {
                // Two internal ReLUs over the block's output volume.
                2 * out_c * residual_out_side(*h, *stride) * residual_out_side(*w, *stride)
            }
            _ => 0,
        }
    }

    fn build(&self, rng: &mut Rng) -> Result<Box<dyn crate::Layer>, TensorError> {
        Ok(match self {
            LayerSpec::Dense {
                in_features,
                out_features,
            } => Box::new(Dense::new(*in_features, *out_features, rng)),
            LayerSpec::Activation { kind, features } => Box::new(Activation::new(*kind, *features)),
            LayerSpec::Conv2d { geom } => Box::new(Conv2d::new(*geom, rng)),
            LayerSpec::MaxPool2d { channels, geom } => Box::new(MaxPool2d::new(*channels, *geom)),
            LayerSpec::Residual {
                in_c,
                h,
                w,
                out_c,
                stride,
            } => Box::new(ResidualBlock::new(*in_c, *h, *w, *out_c, *stride, rng)?),
        })
    }
}

/// A complete, serializable architecture description.
///
/// # Examples
///
/// ```
/// use hpnn_nn::{ActKind, LayerSpec, NetworkSpec};
/// use hpnn_tensor::Rng;
///
/// let spec = NetworkSpec::new(4, vec![
///     LayerSpec::Dense { in_features: 4, out_features: 8 },
///     LayerSpec::Activation { kind: ActKind::Relu, features: 8 },
///     LayerSpec::Dense { in_features: 8, out_features: 2 },
/// ]);
/// let mut rng = Rng::new(0);
/// let net = spec.build(&mut rng)?;
/// assert_eq!(net.out_features(), 2);
/// assert_eq!(spec.lockable_neurons(), 8);
/// # Ok::<(), hpnn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSpec {
    /// Input features per sample.
    pub in_features: usize,
    /// Ordered layer descriptions.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Creates a spec from input width and layers.
    pub fn new(in_features: usize, layers: Vec<LayerSpec>) -> Self {
        NetworkSpec {
            in_features,
            layers,
        }
    }

    /// Builds a network with freshly initialized (random) weights.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer geometry is invalid.
    pub fn build(&self, rng: &mut Rng) -> Result<Network, TensorError> {
        let mut net = Network::new(self.in_features);
        for layer in &self.layers {
            net.push(layer.build(rng)?);
        }
        Ok(net)
    }

    /// Output features of the full stack.
    pub fn out_features(&self) -> usize {
        let mut width = self.in_features;
        for layer in &self.layers {
            width = layer.out_features(width);
        }
        width
    }

    /// Total lockable neurons (the paper's Table I neuron counts).
    pub fn lockable_neurons(&self) -> usize {
        self.layers.iter().map(|l| l.lockable_neurons()).sum()
    }

    /// Counts layers of each coarse kind `(conv, pool, relu, fc, residual)` —
    /// handy for matching the Table I architecture descriptions.
    pub fn layer_census(&self) -> LayerCensus {
        let mut census = LayerCensus::default();
        for layer in &self.layers {
            match layer {
                LayerSpec::Conv2d { .. } => census.conv += 1,
                LayerSpec::MaxPool2d { .. } => census.pool += 1,
                LayerSpec::Activation { .. } => census.relu += 1,
                LayerSpec::Dense { .. } => census.fc += 1,
                LayerSpec::Residual { .. } => census.residual += 1,
            }
        }
        census
    }
}

/// Coarse layer counts of a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCensus {
    /// Convolution layers.
    pub conv: usize,
    /// Max-pool layers.
    pub pool: usize,
    /// Activation layers.
    pub relu: usize,
    /// Fully-connected layers.
    pub fc: usize,
    /// Residual blocks.
    pub residual: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_tensor::Tensor;

    fn tiny_spec() -> NetworkSpec {
        NetworkSpec::new(
            4,
            vec![
                LayerSpec::Dense {
                    in_features: 4,
                    out_features: 6,
                },
                LayerSpec::Activation {
                    kind: ActKind::Relu,
                    features: 6,
                },
                LayerSpec::Dense {
                    in_features: 6,
                    out_features: 3,
                },
            ],
        )
    }

    #[test]
    fn build_and_run() {
        let mut rng = Rng::new(1);
        let mut net = tiny_spec().build(&mut rng).unwrap();
        let y = net.forward(&Tensor::randn([2, 4], 1.0, &mut rng), false);
        assert_eq!(y.shape().dims(), &[2, 3]);
    }

    #[test]
    fn same_seed_same_weights() {
        let spec = tiny_spec();
        let mut n1 = spec.build(&mut Rng::new(5)).unwrap();
        let mut n2 = spec.build(&mut Rng::new(5)).unwrap();
        let w1 = n1.export_weights();
        let w2 = n2.export_weights();
        assert_eq!(w1, w2);
    }

    #[test]
    fn lockable_neuron_census() {
        let spec = tiny_spec();
        assert_eq!(spec.lockable_neurons(), 6);
        let census = spec.layer_census();
        assert_eq!(census.fc, 2);
        assert_eq!(census.relu, 1);
    }

    #[test]
    fn conv_spec_builds() {
        let geom = Conv2dGeom::new(1, 6, 6, 2, 3, 1, 1).unwrap();
        let pool = PoolGeom::new(6, 6, 2, 2).unwrap();
        let spec = NetworkSpec::new(
            36,
            vec![
                LayerSpec::Conv2d { geom },
                LayerSpec::Activation {
                    kind: ActKind::Relu,
                    features: 72,
                },
                LayerSpec::MaxPool2d {
                    channels: 2,
                    geom: pool,
                },
                LayerSpec::Dense {
                    in_features: 18,
                    out_features: 2,
                },
            ],
        );
        assert_eq!(spec.out_features(), 2);
        let mut rng = Rng::new(2);
        let mut net = spec.build(&mut rng).unwrap();
        let y = net.forward(&Tensor::randn([1, 36], 1.0, &mut rng), false);
        assert_eq!(y.shape().dims(), &[1, 2]);
    }

    #[test]
    fn residual_spec_lockable_matches_built_network() {
        let spec = NetworkSpec::new(
            16,
            vec![LayerSpec::Residual {
                in_c: 1,
                h: 4,
                w: 4,
                out_c: 2,
                stride: 2,
            }],
        );
        let mut rng = Rng::new(3);
        let net = spec.build(&mut rng).unwrap();
        assert_eq!(spec.lockable_neurons(), net.lockable_neurons());
    }

    #[test]
    fn spec_roundtrips_consistent_out_features() {
        let spec = tiny_spec();
        let mut rng = Rng::new(4);
        let net = spec.build(&mut rng).unwrap();
        assert_eq!(spec.out_features(), net.out_features());
        assert_eq!(spec.lockable_neurons(), net.lockable_neurons());
    }
}
