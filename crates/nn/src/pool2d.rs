//! 2-D max-pooling layer.

use hpnn_tensor::{maxpool_plane_backward, maxpool_plane_into, PoolGeom, Shape, Tensor};

use crate::layer::Layer;

/// Max pooling over each channel plane of `[batch x (C·H·W)]` activations.
///
/// # Examples
///
/// ```
/// use hpnn_nn::{Layer, MaxPool2d};
/// use hpnn_tensor::{PoolGeom, Tensor};
///
/// let geom = PoolGeom::new(4, 4, 2, 2)?;
/// let mut pool = MaxPool2d::new(1, geom);
/// let x = Tensor::from_vec([1usize, 16], (0..16).map(|v| v as f32).collect())?;
/// let y = pool.forward(&x, false);
/// assert_eq!(y.data(), &[5., 7., 13., 15.]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    channels: usize,
    geom: PoolGeom,
    /// Winning within-plane input index per (sample, channel, output cell).
    cached_argmax: Option<Vec<u32>>,
}

impl MaxPool2d {
    /// Creates a pooling layer over `channels` planes of the given geometry.
    pub fn new(channels: usize, geom: PoolGeom) -> Self {
        MaxPool2d {
            channels,
            geom,
            cached_argmax: None,
        }
    }

    /// The pooling geometry (per channel plane).
    pub fn geom(&self) -> &PoolGeom {
        &self.geom
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn in_plane(&self) -> usize {
        self.geom.in_h * self.geom.in_w
    }

    fn out_plane(&self) -> usize {
        self.geom.out_h * self.geom.out_w
    }

    /// Pools every channel plane of every sample in one kernel call — the
    /// one body behind both [`Layer::infer`] and [`Layer::forward`]. With
    /// `argmax` (`batch · out_volume` long) it also records each winner's
    /// within-plane index for backward.
    fn pool(&self, input: &Tensor, argmax: Option<&mut [u32]>) -> Tensor {
        let batch = input.shape().rows();
        let in_vol = self.channels * self.in_plane();
        let out_vol = self.channels * self.out_plane();
        assert_eq!(
            input.shape().cols(),
            in_vol,
            "pool input volume {} != {in_vol}",
            input.shape().cols()
        );
        let mut out = vec![0.0; batch * out_vol];
        maxpool_plane_into(input.data(), &self.geom, &mut out, argmax);
        Tensor::from_vec(Shape::d2(batch, out_vol), out).expect("pool output volume")
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn infer(&self, input: &Tensor, _lock: Option<&[f32]>) -> Tensor {
        self.pool(input, None)
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            self.cached_argmax = None;
            return self.infer(input, None);
        }
        let mut argmax = vec![0; input.shape().rows() * self.channels * self.out_plane()];
        let out = self.pool(input, Some(&mut argmax));
        self.cached_argmax = Some(argmax);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self
            .cached_argmax
            .take()
            .expect("pool backward without training forward");
        let out_vol = self.channels * self.out_plane();
        let batch = argmax.len() / out_vol;
        assert_eq!(
            grad_out.shape().dims(),
            &[batch, out_vol],
            "pool backward batch mismatch"
        );
        let in_vol = self.channels * self.in_plane();
        let mut grad_in = vec![0.0; batch * in_vol];
        maxpool_plane_backward(grad_out.data(), &argmax, &self.geom, &mut grad_in);
        Tensor::from_vec(Shape::d2(batch, in_vol), grad_in).expect("pool grad_in volume")
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(
            in_features,
            self.channels * self.in_plane(),
            "pool wiring mismatch"
        );
        self.channels * self.out_plane()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_tensor::Rng;

    #[test]
    fn forward_two_channels() {
        let geom = PoolGeom::new(2, 2, 2, 2).unwrap();
        let mut pool = MaxPool2d::new(2, geom);
        let x = Tensor::from_vec([1usize, 8], vec![1., 2., 3., 4., -1., -2., -3., -4.]).unwrap();
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[4., -1.]);
    }

    #[test]
    fn backward_routes_per_channel() {
        let geom = PoolGeom::new(2, 2, 2, 2).unwrap();
        let mut pool = MaxPool2d::new(2, geom);
        let x = Tensor::from_vec([1usize, 8], vec![1., 2., 3., 4., -1., -2., -3., -4.]).unwrap();
        pool.forward(&x, true);
        let g = Tensor::from_vec([1usize, 2], vec![10., 20.]).unwrap();
        let dx = pool.backward(&g);
        assert_eq!(dx.data(), &[0., 0., 0., 10., 20., 0., 0., 0.]);
    }

    #[test]
    fn batch_independence() {
        let geom = PoolGeom::new(4, 4, 2, 2).unwrap();
        let mut pool = MaxPool2d::new(1, geom);
        let mut rng = Rng::new(1);
        let a = Tensor::randn([1, 16], 1.0, &mut rng);
        let b = Tensor::randn([1, 16], 1.0, &mut rng);
        let ya = pool.forward(&a, false);
        let yb = pool.forward(&b, false);
        let mut both = a.clone().into_vec();
        both.extend_from_slice(b.data());
        let yboth = pool.forward(&Tensor::from_vec([2usize, 16], both).unwrap(), false);
        assert_eq!(yboth.row(0), ya.row(0));
        assert_eq!(yboth.row(1), yb.row(0));
    }

    #[test]
    fn batch_walk_equals_per_plane_reference_bitwise() {
        // One kernel call over the batch, forward and backward, against a
        // call per (sample, channel) plane. ReLU-like input: many zero ties.
        let (batch, channels) = (4, 3);
        let geom = PoolGeom::new(6, 6, 2, 2).unwrap();
        let mut pool = MaxPool2d::new(channels, geom);
        let mut rng = Rng::new(2);
        let x = Tensor::randn([batch, channels * 36], 1.0, &mut rng).map(|v| v.max(0.0));
        let g = Tensor::randn([batch, channels * 9], 1.0, &mut rng);
        let y = pool.forward(&x, true);
        let dx = pool.backward(&g);
        let (mut want_y, mut want_dx) = (vec![0.0f32; batch * channels * 9], vec![0.0f32; x.len()]);
        for p in 0..batch * channels {
            let (plane, cells) = (p * 36..(p + 1) * 36, p * 9..(p + 1) * 9);
            let mut idx = [0u32; 9];
            maxpool_plane_into(
                &x.data()[plane.clone()],
                &geom,
                &mut want_y[cells.clone()],
                Some(&mut idx),
            );
            maxpool_plane_backward(&g.data()[cells], &idx, &geom, &mut want_dx[plane]);
        }
        assert_eq!(y.data(), want_y);
        assert_eq!(dx.data(), want_dx);
    }

    #[test]
    fn out_features() {
        let geom = PoolGeom::new(8, 8, 2, 2).unwrap();
        let pool = MaxPool2d::new(3, geom);
        assert_eq!(pool.out_features(3 * 64), 3 * 16);
    }

    #[test]
    #[should_panic(expected = "without training forward")]
    fn backward_without_forward_panics() {
        let geom = PoolGeom::new(2, 2, 2, 2).unwrap();
        let mut pool = MaxPool2d::new(1, geom);
        let _ = pool.backward(&Tensor::ones([1, 1]));
    }
}
