//! The consolidated serve configuration surface.
//!
//! Every knob the server takes — batching, admission control, the
//! connection front end, worker sharding, and the metrics scrape address —
//! lives in one [`ServeConfig`], built through a fluent
//! [`ServeConfigBuilder`] that validates cross-field invariants once, at
//! build time, with typed [`ConfigError`]s.
//! [`Server::start`](crate::server::Server::start) is the single entry
//! point consuming it.

use std::fmt;
use std::ops::RangeInclusive;
use std::time::Duration;

/// Hard ceiling on `shards`: a shard is a queue plus a worker thread, so an
/// absurd count is a config bug, not a tuning choice.
pub const SHARD_CAP: usize = 64;

/// Why a [`ServeConfigBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_batch` is zero — no batch could ever form.
    ZeroMaxBatch,
    /// `queue_cap` is zero — nothing could ever be admitted.
    ZeroQueueCap,
    /// `max_rows_per_request` is zero — every request would be rejected.
    ZeroMaxRows,
    /// `max_inflight_per_conn` is zero — v2 connections could never submit.
    ZeroMaxInflight,
    /// A batch larger than the queue could never fill.
    BatchExceedsQueueCap {
        /// Requested target rows per batch.
        max_batch: usize,
        /// Row capacity of each shard queue.
        queue_cap: usize,
    },
    /// The shard range does not name one count: its ends differ, or it is
    /// zero or inverted. The shard count is fixed at start.
    ShardRange {
        /// Start of the requested range.
        min: usize,
        /// End of the requested range.
        max: usize,
    },
    /// `shards` exceeds [`SHARD_CAP`].
    TooManyShards {
        /// Requested shards per model.
        shards: usize,
        /// The hard ceiling.
        cap: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            ConfigError::ZeroQueueCap => write!(f, "queue_cap must be at least 1"),
            ConfigError::ZeroMaxRows => write!(f, "max_rows_per_request must be at least 1"),
            ConfigError::ZeroMaxInflight => {
                write!(f, "max_inflight_per_conn must be at least 1")
            }
            ConfigError::BatchExceedsQueueCap {
                max_batch,
                queue_cap,
            } => write!(
                f,
                "max_batch {max_batch} exceeds queue_cap {queue_cap}; such a batch could never fill"
            ),
            ConfigError::ShardRange { min, max } => {
                write!(
                    f,
                    "shard range {min}..={max} does not name one count (need N..=N with N >= 1)"
                )
            }
            ConfigError::TooManyShards { shards, cap } => {
                write!(f, "shards {shards} exceeds the shard cap {cap}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The complete, validated serve configuration.
///
/// Construct through [`ServeConfig::builder`]; the field documentation
/// lives on the builder methods. A `Default` config is one shard per
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Target rows per coalesced forward.
    pub max_batch: usize,
    /// Longest an idle worker holds the oldest queued request back for
    /// co-riders.
    pub max_wait: Duration,
    /// Row capacity of **each shard's** queue; admissions beyond it get
    /// `BUSY`.
    pub queue_cap: usize,
    /// Largest single request, in rows.
    pub max_rows_per_request: usize,
    /// Most requests one v2 connection may have in flight; further
    /// submissions get `BUSY` before touching any model queue.
    pub max_inflight_per_conn: usize,
    /// Event-loop threads multiplexing the connection sockets. `0` (the
    /// default) sizes the pool automatically from the machine's available
    /// parallelism, capped at 4.
    pub event_threads: usize,
    /// Shards per model, fixed at start: each is a queue plus a worker
    /// thread over the model's one shared deployment.
    pub shards: usize,
    /// Bind address (`host:port`) of the Prometheus scrape endpoint;
    /// `None` (the default) runs none.
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::ZERO,
            queue_cap: 1024,
            max_rows_per_request: 4096,
            max_inflight_per_conn: 64,
            event_threads: 0,
            shards: 1,
            metrics_addr: None,
        }
    }
}

impl ServeConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
            shards: 1..=1,
        }
    }
}

/// Fluent builder for [`ServeConfig`].
///
/// ```
/// use hpnn_serve::ServeConfig;
///
/// let cfg = ServeConfig::builder()
///     .max_batch(32)
///     .shards(8..=8)
///     .build()?;
/// assert_eq!(cfg.shards, 8);
/// # Ok::<(), hpnn_serve::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
    /// As given to [`shards`](Self::shards); `build` checks it names one
    /// count.
    shards: RangeInclusive<usize>,
}

impl ServeConfigBuilder {
    /// Target rows per coalesced forward (default 64).
    pub fn max_batch(mut self, rows: usize) -> Self {
        self.cfg.max_batch = rows;
        self
    }

    /// Longest an idle worker holds the oldest queued request back for
    /// co-riders (default zero: the worker takes what is queued, and
    /// requests coalesce only while it is busy with the previous batch).
    pub fn max_wait(mut self, wait: Duration) -> Self {
        self.cfg.max_wait = wait;
        self
    }

    /// Row capacity of each shard's queue (default 1024).
    pub fn queue_cap(mut self, rows: usize) -> Self {
        self.cfg.queue_cap = rows;
        self
    }

    /// Largest single request, in rows (default 4096).
    pub fn max_rows_per_request(mut self, rows: usize) -> Self {
        self.cfg.max_rows_per_request = rows;
        self
    }

    /// Per-connection pipelining window for protocol v2 (default 64).
    pub fn max_inflight_per_conn(mut self, n: usize) -> Self {
        self.cfg.max_inflight_per_conn = n;
        self
    }

    /// Socket event-loop threads; 0 sizes automatically (default 0).
    pub fn event_threads(mut self, n: usize) -> Self {
        self.cfg.event_threads = n;
        self
    }

    /// Shards per model, written `N..=N` (default `1..=1`). The count is
    /// fixed at start, so a range whose ends differ is refused by `build`.
    pub fn shards(mut self, range: RangeInclusive<usize>) -> Self {
        self.shards = range;
        self
    }

    /// Bind address of the Prometheus scrape endpoint (default: none).
    /// Port 0 picks a free port; [`Server::metrics_addr`] reports it.
    ///
    /// [`Server::metrics_addr`]: crate::server::Server::metrics_addr
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.metrics_addr = Some(addr.into());
        self
    }

    /// Validates the cross-field invariants and yields the config.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`ConfigError`].
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        let mut cfg = self.cfg;
        if cfg.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if cfg.queue_cap == 0 {
            return Err(ConfigError::ZeroQueueCap);
        }
        if cfg.max_rows_per_request == 0 {
            return Err(ConfigError::ZeroMaxRows);
        }
        if cfg.max_inflight_per_conn == 0 {
            return Err(ConfigError::ZeroMaxInflight);
        }
        if cfg.max_batch > cfg.queue_cap {
            return Err(ConfigError::BatchExceedsQueueCap {
                max_batch: cfg.max_batch,
                queue_cap: cfg.queue_cap,
            });
        }
        let (min, max) = self.shards.into_inner();
        if min == 0 || min != max {
            return Err(ConfigError::ShardRange { min, max });
        }
        if max > SHARD_CAP {
            return Err(ConfigError::TooManyShards {
                shards: max,
                cap: SHARD_CAP,
            });
        }
        cfg.shards = max;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builds_clean() {
        let cfg = ServeConfig::builder().build().unwrap();
        assert_eq!(cfg, ServeConfig::default());
        assert_eq!(cfg.shards, 1);
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = ServeConfig::builder()
            .max_batch(8)
            .max_wait(Duration::from_millis(3))
            .queue_cap(32)
            .max_rows_per_request(16)
            .max_inflight_per_conn(7)
            .event_threads(2)
            .shards(5..=5)
            .metrics_addr("127.0.0.1:9100")
            .build()
            .unwrap();
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.max_wait, Duration::from_millis(3));
        assert_eq!(cfg.queue_cap, 32);
        assert_eq!(cfg.max_rows_per_request, 16);
        assert_eq!(cfg.max_inflight_per_conn, 7);
        assert_eq!(cfg.event_threads, 2);
        assert_eq!(cfg.shards, 5);
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
    }

    #[test]
    fn rejects_zero_fields() {
        assert_eq!(
            ServeConfig::builder().max_batch(0).build().unwrap_err(),
            ConfigError::ZeroMaxBatch
        );
        assert_eq!(
            ServeConfig::builder().queue_cap(0).build().unwrap_err(),
            ConfigError::ZeroQueueCap
        );
        assert_eq!(
            ServeConfig::builder()
                .max_rows_per_request(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMaxRows
        );
        assert_eq!(
            ServeConfig::builder()
                .max_inflight_per_conn(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMaxInflight
        );
    }

    #[test]
    fn rejects_batch_exceeding_queue_cap() {
        assert_eq!(
            ServeConfig::builder()
                .max_batch(65)
                .queue_cap(64)
                .build()
                .unwrap_err(),
            ConfigError::BatchExceedsQueueCap {
                max_batch: 65,
                queue_cap: 64
            }
        );
        // Equal is fine: a full queue is exactly one batch.
        assert!(ServeConfig::builder()
            .max_batch(64)
            .queue_cap(64)
            .build()
            .is_ok());
    }

    #[test]
    fn a_real_shard_range_is_refused() {
        // The count is fixed at start: a range that leaves it open is an
        // error, never silently collapsed to one of its ends.
        assert_eq!(
            ServeConfig::builder().shards(1..=4).build().unwrap_err(),
            ConfigError::ShardRange { min: 1, max: 4 }
        );
        assert_eq!(
            ServeConfig::builder().shards(0..=0).build().unwrap_err(),
            ConfigError::ShardRange { min: 0, max: 0 }
        );
        // An inverted range is exactly what this test feeds the validator.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = ServeConfig::builder().shards(5..=4).build().unwrap_err();
        assert_eq!(inverted, ConfigError::ShardRange { min: 5, max: 4 });
    }

    #[test]
    fn shard_count_is_capped() {
        assert_eq!(
            ServeConfig::builder()
                .shards(SHARD_CAP + 1..=SHARD_CAP + 1)
                .build()
                .unwrap_err(),
            ConfigError::TooManyShards {
                shards: SHARD_CAP + 1,
                cap: SHARD_CAP
            }
        );
        let cfg = ServeConfig::builder().shards(SHARD_CAP..=SHARD_CAP).build();
        assert_eq!(cfg.unwrap().shards, SHARD_CAP);
    }

    #[test]
    fn builder_sets_obs_knobs() {
        // The scrape address is the one observability knob: off by default,
        // and port 0 (a free port, picked at start) is a valid setting.
        assert_eq!(ServeConfig::default().metrics_addr, None);
        assert_eq!(ServeConfig::builder().build().unwrap().metrics_addr, None);
        let cfg = ServeConfig::builder()
            .metrics_addr("127.0.0.1:0")
            .build()
            .unwrap();
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        let other = ServeConfig {
            metrics_addr: None,
            ..cfg
        };
        assert_eq!(other, ServeConfig::default());
    }

    #[test]
    fn config_errors_display() {
        let e = ConfigError::BatchExceedsQueueCap {
            max_batch: 9,
            queue_cap: 4,
        };
        assert!(e.to_string().contains("max_batch 9"));
        assert!(ConfigError::ShardRange { min: 0, max: 3 }
            .to_string()
            .contains("0..=3"));
    }
}
