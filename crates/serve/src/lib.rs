//! `hpnn-serve` — a batched TCP inference server for HPNN locked models.
//!
//! The paper's deployment story needs a serving layer: authorized devices
//! run the **keyed** path (lock factors resolved from a sealed
//! [`KeyVault`](hpnn_core::KeyVault)), adversaries run the **keyless** path
//! whose accuracy collapses. This crate provides that layer end to end with
//! no dependencies outside the workspace:
//!
//! - [`protocol`] — a versioned, length-prefixed binary wire protocol on
//!   [`hpnn_bytes`] framing; `f32`s travel as raw bits so logits are
//!   bit-identical across the wire. Many requests ride one connection,
//!   matched by correlation IDs (replies may arrive out of order).
//! - [`config`] — the one serve configuration surface:
//!   [`ServeConfig::builder`] validates batching, sharding, event-loop
//!   knobs and the metrics scrape address together at build time.
//! - [`scheduler`] — micro-batching over a fixed set of worker shards:
//!   per-shard bounded queues coalesce the requests that arrive while a
//!   worker is busy into one batched forward (up to `max_batch` rows; an
//!   idle worker waits for co-riders only if `max_wait` is raised from zero),
//!   with each admission placed on the shallowest live queue, `BUSY`
//!   backpressure, per-request deadlines, and graceful drain.
//! - [`registry`] — the set of locked models a server exposes, keyed
//!   and/or keyless.
//! - [`metrics`] — atomic counters plus power-of-two latency histograms
//!   (per-shard included), every one declared once in a table that the
//!   `STATS` frame and the Prometheus scrape endpoint (`expose`, started
//!   by [`Server::start`] when [`ServeConfig::metrics_addr`] is set) are
//!   derived from.
//! - [`server`] / [`client`] — TCP front end (a fixed pool of event-loop
//!   threads multiplexing nonblocking sockets over a `poll(2)` readiness
//!   loop, see [`conn`]) and the [`Session`] client (`submit → Ticket`,
//!   `wait`, `drain`, `infer`) with typed [`ServeError`] results.
//! - [`loadgen`] — a reproducible closed-loop load generator.
//!
//! Batching and sharding never change results: the batched conv/dense
//! forwards are row-decomposable with a fixed reduction order, and every
//! shard runs the model's one shared deployment, so any coalescing or
//! placement returns the same bits as per-request serial execution.
//!
//! # Examples
//!
//! ```
//! use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
//! use hpnn_nn::mlp;
//! use hpnn_serve::{InferMode, ServeConfig, ServeRegistry, Server, Session};
//! use hpnn_tensor::Rng;
//!
//! let mut rng = Rng::new(7);
//! let spec = mlp(4, &[8], 3);
//! let key = HpnnKey::random(&mut rng);
//! let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
//! let mut net = spec.build(&mut rng)?;
//! net.install_lock_factors(&schedule.derive_lock_factors(&key));
//! let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
//!
//! let mut registry = ServeRegistry::new();
//! registry.add("mlp", model, Some(KeyVault::provision(key, "tpu-0")));
//! let cfg = ServeConfig::builder().shards(2..=2).build()?;
//! let server = Server::start(registry, cfg, "127.0.0.1:0")?;
//!
//! let mut session = Session::connect(server.local_addr())?;
//! let models = session.hello("example")?;
//! assert_eq!(models[0].in_features, 4);
//! // Pipeline two requests on one connection, then collect both.
//! let a = session.submit(0, InferMode::Keyed, 0, 1, 4, vec![0.1, 0.2, 0.3, 0.4])?;
//! let b = session.submit(0, InferMode::Keyed, 0, 1, 4, vec![0.4, 0.3, 0.2, 0.1])?;
//! let out = session.wait(b)?; // out-of-order wait is fine
//! assert_eq!((out.rows, out.cols), (1, 3));
//! assert_eq!(session.wait(a)?.rows, 1);
//! session.shutdown()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the readiness poller in `event::sys` opts
// back in (one audited `poll(2)` FFI call); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod conn;
pub(crate) mod event;
mod expose;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod scheduler;
pub mod server;

pub use client::{DrainedTicket, Logits, ServeError, Session, Ticket};
pub use config::{ConfigError, ServeConfig, ServeConfigBuilder, SHARD_CAP};
pub use hpnn_bytes::FrameReader;
pub use loadgen::{LoadPattern, LoadgenConfig, LoadgenReport};
pub use metrics::{
    Histogram, HistogramRow, HistogramSnapshot, HistogramUnit, Metrics, RowKind,
    ShardStatsSnapshot, StatsDelta, StatsRow, StatsSnapshot, HISTOGRAM_BUCKETS, STATS_ROWS,
};
pub use protocol::{
    ErrorCode, InferMode, ModelInfo, Reply, Request, WireError, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
pub use registry::{ServeEntry, ServeRegistry};
pub use scheduler::{Completion, ReplyPayload, Scheduler, SubmitError};
pub use server::Server;
