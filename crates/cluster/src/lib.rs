//! # hpnn-cluster
//!
//! Distributed layer-partitioned serving for HPNN locked models — the
//! trusted/untrusted node split.
//!
//! The paper locks a model by entangling ±1 key factors into its
//! activations; only those **locked** layers need the trusted device.
//! Every other layer computes bit-identically with or without the key,
//! so a [`LayerPartition`](hpnn_core::LayerPartition) can pin the
//! trusted-required stages to the head node (the one holding the
//! [`KeyVault`](hpnn_core::KeyVault)) and stream the rest to cheap
//! keyless workers as `FWD_ACT` activation frames.
//!
//! This crate is the head node's side of that pipeline:
//!
//! - [`CostModel`] — static per-stage offload decision: estimated compute
//!   time against link transfer time.
//! - [`RouteTable`] — which peer serves each offloadable stage.
//! - [`PeerClient`] — one persistent connection to a worker: HELLO
//!   handshake (a peer announcing another protocol version is refused),
//!   pipelined in-flight window, a reply thread matching correlations to
//!   parked continuations.
//! - [`ClusterBackend`] — the [`RemoteStageBackend`] plugged into
//!   `hpnn-serve`'s scheduler: routing, lazy dials, per-peer health with
//!   exponential backoff, and graceful drain.
//!
//! Failure never changes results: a peer that is down, in backoff, or
//! over its window refuses the work synchronously and the scheduler runs
//! the same stage locally. Only work already in flight when a link dies
//! surfaces as a typed `PeerUnavailable` error. Workers without a vault
//! refuse trusted-required stages (`TrustedStageRefused`), so locked
//! layers can never be coaxed off the trusted node.

#![warn(missing_docs)]

mod backend;
mod cost;
mod peer;
mod route;

pub use backend::ClusterBackend;
pub use cost::CostModel;
pub use peer::PeerClient;
pub use route::RouteTable;

pub use hpnn_serve::cluster::{RemoteDone, RemoteOutcome, RemoteStageBackend};
