//! # hpnn-hw
//!
//! Gate- and cycle-level model of the HPNN hardware root-of-trust: a
//! TPU-like accelerator whose 256 accumulator units are augmented with
//! 16 XOR gates each, making every multiply–accumulate key-dependent
//! (paper Sec. III-D, Fig. 4).
//!
//! Layer map, bottom-up:
//!
//! * [`gates`](crate::GateCount) — boolean primitives with gate accounting.
//! * [`RippleCarryAdder`] — the assumed FA-chain accumulator datapath.
//! * [`KeyedAccumulator`] — Fig. 4(b): XOR layer + carry-in = two's-complement
//!   negation selected by the key bit, realizing `(−1)^k·MAC` in hardware.
//! * [`Mmu`] — the 256×256 matrix-multiply unit with keyed accumulators,
//!   performance counters, and a systolic cycle model. One arithmetic entry
//!   point, [`Mmu::matmul_tile`] (int8 weights `[rows × k]` times int8
//!   columns `[k × n]`, each output negated by the key bit of the
//!   accumulator a [`Routing`] names; [`Mmu::route`] resolves it once per
//!   layer), computed with vectorized integer arithmetic. The vectorized
//!   body sums products two at a time; the pair sum is exact and every
//!   addition wraps modulo 2³², so it yields the integers of the
//!   one-product-at-a-time reference.
//! * [`SystolicArray`] — the cycle-stepped weight-stationary array whose
//!   columns drain into [`KeyedAccumulator`]s: the gate-level reference a
//!   test holds every [`Mmu::matmul_tile`] result to.
//! * [`TrustedAccelerator`] — end-to-end locked-model inference on the int8
//!   datapath, driven by the schedule embedded in a published model. A
//!   [`LockedModel`](hpnn_core::LockedModel) is valid by construction, so
//!   the device checks only the input's width; it then quantizes each layer
//!   once, routes it once, issues tiles, and applies each nonlinearity as it
//!   dequantizes.
//! * [`OverheadReport`] — the Sec. III-D3 area/timing overhead numbers.
//!
//! ## Simulated numbers versus host time
//!
//! The crate reports two kinds of number and keeps them apart. What the
//! *modeled hardware* does — [`MmuStats`] (`macs`, `cycles`,
//! `dot_products`), logits, argmax — is fixed by the model and the input; a
//! change that makes the simulator faster must leave all of it identical
//! at every SIMD level (pinned by tests as constants for CNN1). How long
//! the *host* takes to produce them is the only thing an optimization may
//! move; DESIGN.md §5 records it per layer.
//! A free lock (Sec. III-D: no cycle overhead) only reads as free next to a
//! datapath that runs at machine speed.
//!
//! ## Example
//!
//! ```
//! use hpnn_hw::KeyedAccumulator;
//!
//! // The hardware mechanism in one line: key bit 1 ⇒ the unit computes -MAC.
//! let mut unit = KeyedAccumulator::new(true);
//! unit.accumulate_all([10, -3, 5]);
//! assert_eq!(unit.value(), -12);
//! ```

#![warn(missing_docs)]

mod accumulator;
mod adder;
mod area;
mod device;
mod gates;
mod mmu;
mod multiplier;
mod quant;
mod systolic;

pub use accumulator::{KeyedAccumulator, ACC_BITS, PRODUCT_BITS};
pub use adder::RippleCarryAdder;
pub use area::{OverheadReport, BASELINE_MMU_GATES};
pub use device::{DeviceError, DeviceStats, TrustedAccelerator};
pub use gates::{full_adder, xor_gate, GateCount, FULL_ADDER_GATES, XOR_GATES};
pub use mmu::{KeySource, Mmu, MmuStats, Routing, MMU_SIZE};
pub use multiplier::{baseline_mac_gates, keyed_mac_gates, ArrayMultiplier8, MUL_PRODUCT_BITS};
pub use quant::{scale_for, Q_MAX};
pub use systolic::SystolicArray;
