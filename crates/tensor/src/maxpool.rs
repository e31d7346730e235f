//! Max-pooling primitives (see [`crate::pool`] for the worker pool).

use crate::error::TensorError;

/// Validated geometry of a 2-D max-pool over one channel plane.
///
/// # Examples
///
/// ```
/// use hpnn_tensor::PoolGeom;
///
/// let g = PoolGeom::new(28, 28, 2, 2)?;
/// assert_eq!((g.out_h, g.out_w), (14, 14));
/// # Ok::<(), hpnn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolGeom {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square window side.
    pub window: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl PoolGeom {
    /// Computes and validates pooling geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit
    /// or any parameter is zero.
    pub fn new(
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self, TensorError> {
        if in_h == 0 || in_w == 0 || window == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "zero dimension in pool geom h={in_h} w={in_w} k={window} s={stride}"
            )));
        }
        if window > in_h || window > in_w {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {window} larger than input {in_h}x{in_w}"
            )));
        }
        let out_h = (in_h - window) / stride + 1;
        let out_w = (in_w - window) / stride + 1;
        Ok(PoolGeom {
            in_h,
            in_w,
            window,
            stride,
            out_h,
            out_w,
        })
    }
}

/// Max-pools one channel plane; returns pooled values and, for each output
/// cell, the flat input index of the winning element (for backprop routing).
///
/// # Panics
///
/// Panics if `plane.len() != geom.in_h * geom.in_w`.
pub fn maxpool_plane(plane: &[f32], geom: &PoolGeom) -> (Vec<f32>, Vec<u32>) {
    let n = geom.out_h * geom.out_w;
    let mut vals = vec![0.0f32; n];
    let mut idxs = vec![0u32; n];
    maxpool_plane_into(plane, geom, &mut vals, Some(&mut idxs));
    (vals, idxs)
}

/// Allocation-free form of [`maxpool_plane`]: writes pooled values and —
/// when the caller wants them for backprop — winning input indices into
/// caller-provided buffers (used by the pooling layer so its per-plane loop
/// allocates nothing, and its inference path needs no index storage).
///
/// # Panics
///
/// Panics if any buffer length disagrees with `geom`.
pub fn maxpool_plane_into(
    plane: &[f32],
    geom: &PoolGeom,
    vals: &mut [f32],
    mut idxs: Option<&mut [u32]>,
) {
    assert_eq!(
        plane.len(),
        geom.in_h * geom.in_w,
        "maxpool plane volume mismatch"
    );
    let n = geom.out_h * geom.out_w;
    assert_eq!(vals.len(), n, "maxpool vals buffer mismatch");
    if let Some(idxs) = idxs.as_deref() {
        assert_eq!(idxs.len(), n, "maxpool idxs buffer mismatch");
    }
    let mut o = 0;
    for oy in 0..geom.out_h {
        for ox in 0..geom.out_w {
            let mut best_v = f32::NEG_INFINITY;
            let mut best_i = 0u32;
            for ky in 0..geom.window {
                let iy = oy * geom.stride + ky;
                for kx in 0..geom.window {
                    let ix = ox * geom.stride + kx;
                    let i = iy * geom.in_w + ix;
                    if plane[i] > best_v {
                        best_v = plane[i];
                        best_i = i as u32;
                    }
                }
            }
            vals[o] = best_v;
            if let Some(idxs) = idxs.as_deref_mut() {
                idxs[o] = best_i;
            }
            o += 1;
        }
    }
}

/// Scatters output-cell gradients back to the winning input positions
/// recorded by [`maxpool_plane`], accumulating into `grad_in`.
///
/// # Panics
///
/// Panics if the argument lengths are inconsistent with `geom`.
pub fn maxpool_plane_backward(
    grad_out: &[f32],
    argmax: &[u32],
    geom: &PoolGeom,
    grad_in: &mut [f32],
) {
    assert_eq!(
        grad_out.len(),
        geom.out_h * geom.out_w,
        "maxpool grad_out mismatch"
    );
    assert_eq!(argmax.len(), grad_out.len(), "maxpool argmax mismatch");
    assert_eq!(
        grad_in.len(),
        geom.in_h * geom.in_w,
        "maxpool grad_in mismatch"
    );
    for (&g, &i) in grad_out.iter().zip(argmax) {
        grad_in[i as usize] += g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geom_basics() {
        let g = PoolGeom::new(8, 8, 2, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (4, 4));
        let g = PoolGeom::new(7, 7, 2, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (3, 3)); // floor division drops the tail
    }

    #[test]
    fn geom_rejects_bad() {
        assert!(PoolGeom::new(0, 8, 2, 2).is_err());
        assert!(PoolGeom::new(8, 8, 9, 2).is_err());
        assert!(PoolGeom::new(8, 8, 2, 0).is_err());
    }

    #[test]
    fn pool_picks_max_and_index() {
        #[rustfmt::skip]
        let plane = vec![
            1., 5., 2., 0.,
            3., 4., 1., 7.,
            0., 0., 9., 8.,
            0., 0., 6., 5.,
        ];
        let g = PoolGeom::new(4, 4, 2, 2).unwrap();
        let (vals, idxs) = maxpool_plane(&plane, &g);
        assert_eq!(vals, vec![5., 7., 0., 9.]);
        assert_eq!(idxs, vec![1, 7, 8, 10]);
    }

    #[test]
    fn pool_handles_negatives() {
        let plane = vec![-5., -1., -3., -2.];
        let g = PoolGeom::new(2, 2, 2, 2).unwrap();
        let (vals, idxs) = maxpool_plane(&plane, &g);
        assert_eq!(vals, vec![-1.]);
        assert_eq!(idxs, vec![1]);
    }

    #[test]
    fn backward_routes_to_winner() {
        let plane = vec![1., 5., 3., 4.];
        let g = PoolGeom::new(2, 2, 2, 2).unwrap();
        let (_, idxs) = maxpool_plane(&plane, &g);
        let mut grad_in = vec![0.0; 4];
        maxpool_plane_backward(&[2.5], &idxs, &g, &mut grad_in);
        assert_eq!(grad_in, vec![0., 2.5, 0., 0.]);
    }

    #[test]
    fn backward_accumulates_overlaps() {
        // stride 1 window 2 on a 3x1... use 3x3 with stride 1: overlapping windows.
        #[rustfmt::skip]
        let plane = vec![
            0., 0., 0.,
            0., 9., 0.,
            0., 0., 0.,
        ];
        let g = PoolGeom::new(3, 3, 2, 1).unwrap();
        let (vals, idxs) = maxpool_plane(&plane, &g);
        assert_eq!(vals, vec![9.; 4]); // center wins all four windows
        let mut grad_in = vec![0.0; 9];
        maxpool_plane_backward(&[1., 1., 1., 1.], &idxs, &g, &mut grad_in);
        assert_eq!(grad_in[4], 4.0);
        assert_eq!(grad_in.iter().sum::<f32>(), 4.0);
    }
}
