//! # hpnn-tensor
//!
//! Dense `f32` tensor library underpinning the HPNN (Hardware Protected
//! Neural Network) reproduction — shapes, deterministic RNG, matrix
//! multiplication, direct convolution, and max-pooling primitives.
//!
//! This crate deliberately implements everything from scratch (no BLAS, no
//! `ndarray`) so the whole stack — from the key-dependent backpropagation of
//! the paper down to the multiply–accumulate — is auditable in one workspace.
//!
//! ## Example
//!
//! ```
//! use hpnn_tensor::{matmul, Rng, Shape, Tensor};
//!
//! let mut rng = Rng::new(42);
//! let w = Tensor::kaiming(Shape::d2(4, 3), 3, &mut rng);
//! let x = Tensor::randn(Shape::d2(3, 2), 1.0, &mut rng);
//! let y = matmul(&w, &x);
//! assert_eq!(y.shape().dims(), &[4, 2]);
//! ```

#![warn(missing_docs)]

mod conv;
mod error;
mod matmul;
mod maxpool;
pub mod pool;
mod rng;
mod shape;
pub mod simd;
mod tensor;

pub use conv::{
    conv2d_forward_batch_into, conv2d_input_grad_batch_into, conv2d_pack_batch,
    conv2d_weight_grad_batch_into, im2col, Conv2dGeom,
};
pub use error::TensorError;
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_at_b, matmul_at_b_into, matmul_into,
};
pub use maxpool::{maxpool_plane, maxpool_plane_backward, maxpool_plane_into, PoolGeom};
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;
