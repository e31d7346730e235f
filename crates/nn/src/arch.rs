//! Reference architectures from the paper's evaluation (Table I).
//!
//! | Name | Paper description | Dataset |
//! |------|-------------------|---------|
//! | CNN1 | 2 C, 2 MP, 2 ReLU, 1 FC | Fashion-MNIST |
//! | CNN2 | 6 C, 3 MP, 8 ReLU, 3 FC | CIFAR-10 |
//! | CNN3 | 3 C, 3 MP, 4 ReLU, 2 FC | SVHN |
//! | ResNet | residual CNN (stand-in for ResNet18) | Fashion-MNIST |
//!
//! Builders are parameterized by input image size and a channel-width
//! multiplier so the same topology runs at paper scale (GPU-class) or at the
//! reduced widths used by the CPU experiment harness. Topology — layer
//! counts, nonlinearity placement, pooling schedule — matches the paper; the
//! locking mechanism interacts with topology, not with channel width.

use hpnn_tensor::{Conv2dGeom, PoolGeom, TensorError};

use crate::activation::ActKind;
use crate::spec::{LayerSpec, NetworkSpec};

/// Input image dimensions (channels, height, width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageDims {
    /// Channels (1 for grayscale, 3 for RGB).
    pub c: usize,
    /// Height in pixels.
    pub h: usize,
    /// Width in pixels.
    pub w: usize,
}

impl ImageDims {
    /// Creates image dimensions.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        ImageDims { c, h, w }
    }

    /// Flattened per-sample feature count.
    pub fn volume(&self) -> usize {
        self.c * self.h * self.w
    }
}

/// Incrementally builds a [`NetworkSpec`] while tracking spatial dims.
struct ArchBuilder {
    dims: ImageDims,
    layers: Vec<LayerSpec>,
    in_features: usize,
}

impl ArchBuilder {
    fn new(dims: ImageDims) -> Self {
        ArchBuilder {
            dims,
            layers: Vec::new(),
            in_features: dims.volume(),
        }
    }

    fn conv(
        &mut self,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<&mut Self, TensorError> {
        let geom = Conv2dGeom::new(
            self.dims.c,
            self.dims.h,
            self.dims.w,
            out_c,
            kernel,
            stride,
            pad,
        )?;
        self.layers.push(LayerSpec::Conv2d { geom });
        self.dims = ImageDims::new(out_c, geom.out_h, geom.out_w);
        Ok(self)
    }

    fn relu(&mut self) -> &mut Self {
        self.layers.push(LayerSpec::Activation {
            kind: ActKind::Relu,
            features: self.dims.volume(),
        });
        self
    }

    fn pool(&mut self, window: usize) -> Result<&mut Self, TensorError> {
        let geom = PoolGeom::new(self.dims.h, self.dims.w, window, window)?;
        self.layers.push(LayerSpec::MaxPool2d {
            channels: self.dims.c,
            geom,
        });
        self.dims = ImageDims::new(self.dims.c, geom.out_h, geom.out_w);
        Ok(self)
    }

    fn residual(&mut self, out_c: usize, stride: usize) -> &mut Self {
        let spec = LayerSpec::Residual {
            in_c: self.dims.c,
            h: self.dims.h,
            w: self.dims.w,
            out_c,
            stride,
        };
        let out_h = (self.dims.h - 1) / stride + 1;
        let out_w = (self.dims.w - 1) / stride + 1;
        self.layers.push(spec);
        self.dims = ImageDims::new(out_c, out_h, out_w);
        self
    }

    fn dense(&mut self, out: usize) -> &mut Self {
        self.layers.push(LayerSpec::Dense {
            in_features: self.dims.volume(),
            out_features: out,
        });
        // After a dense layer the "image" is 1×1×out.
        self.dims = ImageDims::new(out, 1, 1);
        self
    }

    fn dense_relu(&mut self, out: usize) -> &mut Self {
        self.dense(out);
        self.layers.push(LayerSpec::Activation {
            kind: ActKind::Relu,
            features: out,
        });
        self
    }

    fn finish(self) -> NetworkSpec {
        NetworkSpec::new(self.in_features, self.layers)
    }
}

fn scaled(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(1)
}

/// CNN1 from Table I: `2 C, 2 MP, 2 ReLU, 1 FC` (Fashion-MNIST network).
///
/// At `width = 1.0` and 28×28 input the nonlinear layers hold
/// 8·28² + 16·14² = 9408 neurons; the paper reports 4352 for its variant —
/// both are "thousands of locked neurons" per Sec. III-D.
///
/// # Errors
///
/// Returns an error if the input is too small for the pooling schedule.
pub fn cnn1(input: ImageDims, classes: usize, width: f32) -> Result<NetworkSpec, TensorError> {
    let mut b = ArchBuilder::new(input);
    b.conv(scaled(8, width), 3, 1, 1)?.relu().pool(2)?;
    b.conv(scaled(16, width), 3, 1, 1)?.relu().pool(2)?;
    b.dense(classes);
    Ok(b.finish())
}

/// CNN2 from Table I: `6 C, 3 MP, 8 ReLU, 3 FC` (CIFAR-10 network).
///
/// VGG-style pairs of convolutions between pools; the two hidden dense
/// layers are also ReLU-activated, giving 6 + 2 = 8 ReLU layers.
///
/// # Errors
///
/// Returns an error if the input is too small for the pooling schedule.
pub fn cnn2(input: ImageDims, classes: usize, width: f32) -> Result<NetworkSpec, TensorError> {
    let mut b = ArchBuilder::new(input);
    b.conv(scaled(16, width), 3, 1, 1)?.relu();
    b.conv(scaled(16, width), 3, 1, 1)?.relu().pool(2)?;
    b.conv(scaled(32, width), 3, 1, 1)?.relu();
    b.conv(scaled(32, width), 3, 1, 1)?.relu().pool(2)?;
    b.conv(scaled(64, width), 3, 1, 1)?.relu();
    b.conv(scaled(64, width), 3, 1, 1)?.relu().pool(2)?;
    b.dense_relu(scaled(128, width));
    b.dense_relu(scaled(64, width));
    b.dense(classes);
    Ok(b.finish())
}

/// CNN3 from Table I: `3 C, 3 MP, 4 ReLU, 2 FC` (SVHN network).
///
/// # Errors
///
/// Returns an error if the input is too small for the pooling schedule.
pub fn cnn3(input: ImageDims, classes: usize, width: f32) -> Result<NetworkSpec, TensorError> {
    let mut b = ArchBuilder::new(input);
    b.conv(scaled(16, width), 3, 1, 1)?.relu().pool(2)?;
    b.conv(scaled(32, width), 3, 1, 1)?.relu().pool(2)?;
    b.conv(scaled(64, width), 3, 1, 1)?.relu().pool(2)?;
    b.dense_relu(scaled(64, width));
    b.dense(classes);
    Ok(b.finish())
}

/// Residual CNN used as the reproduction's stand-in for ResNet18 (Fig. 3 and
/// Fig. 5 experiments): an initial convolution followed by four residual
/// blocks in two stages, then a classifier head.
///
/// # Errors
///
/// Returns an error if the input is too small for the stride schedule.
pub fn resnet(input: ImageDims, classes: usize, width: f32) -> Result<NetworkSpec, TensorError> {
    let c1 = scaled(8, width);
    let c2 = scaled(16, width);
    let mut b = ArchBuilder::new(input);
    b.conv(c1, 3, 1, 1)?.relu();
    b.residual(c1, 1);
    b.residual(c2, 2);
    b.residual(c2, 1);
    b.residual(c2, 2);
    b.dense(classes);
    Ok(b.finish())
}

/// A small multi-layer perceptron (used by unit/property tests and the
/// single-layer theory experiments).
pub fn mlp(in_features: usize, hidden: &[usize], classes: usize) -> NetworkSpec {
    let mut layers = Vec::new();
    let mut width = in_features;
    for &h in hidden {
        layers.push(LayerSpec::Dense {
            in_features: width,
            out_features: h,
        });
        layers.push(LayerSpec::Activation {
            kind: ActKind::Relu,
            features: h,
        });
        width = h;
    }
    layers.push(LayerSpec::Dense {
        in_features: width,
        out_features: classes,
    });
    NetworkSpec::new(in_features, layers)
}

/// Identifier for the four reference architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// [`cnn1`].
    Cnn1,
    /// [`cnn2`].
    Cnn2,
    /// [`cnn3`].
    Cnn3,
    /// [`resnet`].
    ResNet,
}

impl ArchKind {
    /// Builds the architecture for the given input and width multiplier.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors from the underlying builder.
    pub fn build_spec(
        self,
        input: ImageDims,
        classes: usize,
        width: f32,
    ) -> Result<NetworkSpec, TensorError> {
        match self {
            ArchKind::Cnn1 => cnn1(input, classes, width),
            ArchKind::Cnn2 => cnn2(input, classes, width),
            ArchKind::Cnn3 => cnn3(input, classes, width),
            ArchKind::ResNet => resnet(input, classes, width),
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::Cnn1 => "CNN1",
            ArchKind::Cnn2 => "CNN2",
            ArchKind::Cnn3 => "CNN3",
            ArchKind::ResNet => "ResNet18",
        }
    }
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_tensor::{Rng, Tensor};

    const FMNIST: ImageDims = ImageDims { c: 1, h: 28, w: 28 };
    const CIFAR: ImageDims = ImageDims { c: 3, h: 32, w: 32 };

    #[test]
    fn cnn1_census_matches_table1() {
        let spec = cnn1(FMNIST, 10, 1.0).unwrap();
        let census = spec.layer_census();
        assert_eq!(
            (census.conv, census.pool, census.relu, census.fc),
            (2, 2, 2, 1)
        );
        assert!(
            spec.lockable_neurons() > 1000,
            "thousands of locked neurons"
        );
    }

    #[test]
    fn cnn2_census_matches_table1() {
        let spec = cnn2(CIFAR, 10, 1.0).unwrap();
        let census = spec.layer_census();
        assert_eq!(
            (census.conv, census.pool, census.relu, census.fc),
            (6, 3, 8, 3)
        );
    }

    #[test]
    fn cnn3_census_matches_table1() {
        let spec = cnn3(CIFAR, 10, 1.0).unwrap();
        let census = spec.layer_census();
        assert_eq!(
            (census.conv, census.pool, census.relu, census.fc),
            (3, 3, 4, 2)
        );
    }

    #[test]
    fn resnet_has_four_blocks() {
        let spec = resnet(FMNIST, 10, 1.0).unwrap();
        assert_eq!(spec.layer_census().residual, 4);
    }

    #[test]
    fn all_archs_build_and_run() {
        let mut rng = Rng::new(1);
        for kind in [
            ArchKind::Cnn1,
            ArchKind::Cnn2,
            ArchKind::Cnn3,
            ArchKind::ResNet,
        ] {
            let input = if kind == ArchKind::Cnn2 {
                CIFAR
            } else {
                FMNIST
            };
            let spec = kind.build_spec(input, 10, 0.25).unwrap();
            let mut net = spec.build(&mut rng).unwrap();
            let x = Tensor::randn([2, input.volume()], 1.0, &mut rng);
            let y = net.forward(&x, false);
            assert_eq!(y.shape().dims(), &[2, 10], "{kind}");
        }
    }

    #[test]
    fn width_scales_channels() {
        let narrow = cnn1(FMNIST, 10, 0.5).unwrap();
        let wide = cnn1(FMNIST, 10, 2.0).unwrap();
        assert!(wide.lockable_neurons() > narrow.lockable_neurons());
    }

    #[test]
    fn small_input_rejected() {
        // 2x2 input cannot survive two 2x2 pools after conv.
        assert!(cnn1(ImageDims::new(1, 2, 2), 10, 1.0).is_err());
    }

    #[test]
    fn mlp_shape() {
        let spec = mlp(10, &[16, 8], 3);
        assert_eq!(spec.out_features(), 3);
        assert_eq!(spec.lockable_neurons(), 24);
    }

    #[test]
    fn arch_kind_names() {
        assert_eq!(ArchKind::Cnn1.to_string(), "CNN1");
        assert_eq!(ArchKind::ResNet.to_string(), "ResNet18");
    }
}
