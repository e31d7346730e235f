//! What the benchmark is: its workloads, its metrics with units, directions
//! and bounds, and the `BENCHMARK.json` that states them. The JSON file at
//! the repository root is this module's [`manifest`] output, byte for byte.

use crate::json::Json;

/// Seconds one run measures; results at any other length are labelled
/// non-comparable.
pub const RUN_SECONDS: u64 = 20;

/// Set-ups per run; `setup_s` is their median, so one slow start (the
/// first, which pays for the process's cold pages) moves nothing.
pub const SET_UPS: usize = 5;

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// The two operation classes ("slots") every workload reports latency
/// for. What a slot holds is part of each workload's definition.
pub const SLOT_A: u8 = 0;
pub const SLOT_B: u8 = 1;

/// Value of a per-layer metric the workload does not exercise (the `serve.*`
/// numbers of `owner_flow`, the training and device numbers of a serving
/// workload). The driver wants every name from every workload; no metric in
/// the list can measure -1, and the sample count beside it is 0.
pub const NOT_MEASURED: f64 = -1.0;

/// One workload: its name and the one-line reason it exists, which also
/// says what its slots hold.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Human label of slots a and b.
    pub slots: [&'static str; 2],
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "serve_convfc",
        why: "compute-bound serving: open-loop keyed single rows to the locked conv+fc2048 model; b=800 rps (batching, forward is most of the latency), then a=200 rps (one row per forward).",
        slots: ["lo 200 rps", "hi 800 rps"],
    },
    WorkloadSpec {
        name: "serve_tiny",
        why: "overhead-bound serving: same driver, locked mlp(64,[64],10); b=10k rps, then a=5k rps. Forward is ~10 us, so protocol, framing, event loop and scheduler do the work; kernels must not move it.",
        slots: ["lo 5k rps", "hi 10k rps"],
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "serve layer used differently: convfc 70% + cnn1 30%, 2 shards, one phase; a=single rows (300 rps, 20% keyless), b=32-row INFER_BATCH (10 rps) on the same connection.",
        slots: ["single rows", "32-row batches"],
    },
    WorkloadSpec {
        name: "owner_flow",
        why: "paper Fig. 1 without a server: a=epoch of key-dependent CNN1 training (4000 rows), publish, deploy, software passes over 1000 test rows, b=64-row chunk on the simulated trusted device.",
        slots: ["train epoch 4000 rows", "device chunk 64 rows"],
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: `(name, unit, direction, bound)`. The bound is the
/// share of the parent's median by which the metric may get worse before a
/// change counts as a regression. `ms_a` and `ms_b` are the typical
/// milliseconds per operation of a workload's two slots: the median latency
/// of a serving slot's requests, the mean time of an `owner_flow` stage's
/// operations.
///
/// The timing bounds are as wide as the driver allows because the shared
/// 2-vCPU host they were sized on runs unchanged code at two speeds 1.28
/// apart (README, "Repeatability"), and the driver rejects a benchmark whose
/// spread exceeds its own bound. p95, p99 and the software evaluation pass
/// of `owner_flow` repeated worse still and are per-layer numbers for that
/// reason. Peak memory follows the queues: in a noisy hour `serve_convfc`
/// spread by 7.5 %.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("ms_a", "ms", Lower, 0.25),
    ("ms_b", "ms", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.15),
    ("setup_s", "s", Lower, 0.25),
];

/// A per-layer metric: `(name, unit, direction)`. Measured in the traced
/// run only; no bound.
pub const PER_LAYER: [(&str, &str, Better); 75] = [
    // hpnn-serve, from STATS snapshot deltas over slot b's phase.
    ("serve.queue_wait_mean_us", "us", Lower),
    ("serve.batch_fill_mean_us", "us", Lower),
    ("serve.forward_mean_us", "us", Lower),
    ("serve.writeback_mean_us", "us", Lower),
    ("serve.e2e_mean_us", "us", Lower),
    ("serve.unaccounted_mean_us", "us", Lower),
    ("serve.rows_per_batch", "rows", Higher),
    ("serve.batches_per_s", "1/s", Lower),
    ("serve.wakeups_per_batch", "count", Higher),
    ("serve.stalled_writebacks", "count", Lower),
    ("serve.loop_events_per_req", "count", Lower),
    ("serve.shard_forward_share_max", "frac", Lower),
    ("serve.busy", "count", Lower),
    ("serve.expired", "count", Lower),
    ("serve.protocol_errors", "count", Lower),
    ("serve.worker_panics", "count", Lower),
    ("serve.start_ms", "ms", Lower),
    // hpnn-serve::protocol and hpnn-bytes, timed on the workload's frames.
    ("protocol.encode_request_ns", "ns", Lower),
    ("protocol.decode_request_ns", "ns", Lower),
    ("protocol.encode_reply_ns", "ns", Lower),
    ("protocol.decode_reply_ns", "ns", Lower),
    ("bytes.frame_extract_ns", "ns", Lower),
    // hpnn-nn and hpnn-tensor, on the workload's primary model.
    ("nn.forward_us_per_row_b1", "us", Lower),
    ("nn.forward_us_per_row_b8", "us", Lower),
    ("nn.forward_us_per_row_b16", "us", Lower),
    ("nn.forward_us_per_row_b64", "us", Lower),
    ("nn.conv_share", "frac", Lower),
    ("nn.dense_share", "frac", Lower),
    ("nn.relu_share", "frac", Lower),
    ("nn.pool_share", "frac", Lower),
    ("nn.forward_unaccounted_share", "frac", Lower),
    ("tensor.dense_gflops_b1", "gflop/s", Higher),
    ("tensor.dense_gflops_b16", "gflop/s", Higher),
    ("tensor.dense_gflops_b64", "gflop/s", Higher),
    ("tensor.conv_gflops_b16", "gflop/s", Higher),
    ("nn.eval_rows_per_s", "1/s", Higher),
    // What the lock costs in the f32 path (software twin of Sec. III-D).
    ("nn.lock_cost_frac", "frac", Lower),
    ("nn.train_lock_cost_frac", "frac", Lower),
    ("nn.keyless_over_keyed", "ratio", Lower),
    // Training step budget, replaying the loop of `hpnn_nn::train`.
    ("nn.train_gather_ms", "ms", Lower),
    ("nn.train_forward_ms", "ms", Lower),
    ("nn.train_loss_ms", "ms", Lower),
    ("nn.train_backward_ms", "ms", Lower),
    ("nn.train_optimizer_ms", "ms", Lower),
    ("nn.train_step_unaccounted_frac", "frac", Lower),
    ("nn.train_samples_per_s", "1/s", Higher),
    // hpnn-data and hpnn-core.
    ("data.synthesize_s", "s", Lower),
    ("core.derive_lock_factors_us", "us", Lower),
    ("core.deploy_trusted_ms", "ms", Lower),
    ("core.encode_model_ms", "ms", Lower),
    ("core.decode_model_ms", "ms", Lower),
    ("core.accuracy_with_key", "frac", Higher),
    ("core.accuracy_without_key", "frac", Lower),
    // hpnn-hw: exact counts from DeviceStats, host time of the simulator.
    ("hw.macs_per_row", "count", Lower),
    ("hw.cycles_per_row", "count", Lower),
    ("hw.sim_macs_per_s", "1/s", Higher),
    ("hw.device_rows_per_s", "1/s", Higher),
    ("hw.argmax_agree_frac", "frac", Higher),
    ("hw.max_abs_logit_err", "logit", Lower),
    // The load generator itself, and the tails it saw per slot.
    ("loadgen.sent", "count", Higher),
    ("loadgen.ok", "count", Higher),
    ("loadgen.failed", "count", Lower),
    ("loadgen.mismatched", "count", Lower),
    ("loadgen.achieved_rps_b", "1/s", Higher),
    ("loadgen.late_mean_us", "us", Lower),
    ("loadgen.late_p99_us", "us", Lower),
    ("loadgen.late_max_ms", "ms", Lower),
    ("client.p95_ms_a", "ms", Lower),
    ("client.p95_ms_b", "ms", Lower),
    ("client.p99_ms_a", "ms", Lower),
    ("client.p99_ms_b", "ms", Lower),
    ("loadgen.max_rate_in_slo_rps", "1/s", Higher),
    // Whole process.
    ("process.cpu_s_per_1k_ops", "s", Lower),
    ("trace.overhead_frac", "frac", Lower),
    ("trace.spans_recorded", "count", Lower),
];

/// One row of either metric table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for end-to-end metrics, `None` for per-layer ones.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// `unit`, `better` and, when there is one, `bound`, as JSON members in
    /// the order `BENCHMARK.json` lists them.
    pub fn describe(&self) -> Vec<(&'static str, Json)> {
        let mut members = vec![
            ("unit", Json::str(self.unit)),
            ("better", Json::str(self.better.name())),
        ];
        if let Some(bound) = self.bound {
            members.push(("bound", Json::num(bound)));
        }
        members
    }
}

/// The end-to-end table (what an untraced run prints) or the per-layer
/// table (what a traced run prints).
pub fn metric_specs(per_layer: bool) -> Vec<MetricSpec> {
    if per_layer {
        PER_LAYER
            .iter()
            .map(|&(name, unit, better)| MetricSpec {
                name,
                unit,
                better,
                bound: None,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, better, bound)| MetricSpec {
                name,
                unit,
                better,
                bound: Some(bound),
            })
            .collect()
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let table = |per_layer: bool| {
        Json::Arr(
            metric_specs(per_layer)
                .iter()
                .map(|m| {
                    let mut members = vec![("name", Json::str(m.name))];
                    members.extend(m.describe());
                    Json::obj(members)
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", table(false)),
        ("per_layer", table(true)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn manifest_meets_the_drivers_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.1)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.1)));
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "set-up has the largest bound"
        );
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 * 1024);
        // 4 + 22 runs per workload, with set-up and two builds, within the
        // driver's cap: leave each run the measured time plus 11 s.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 11) + 120 <= 3420, "{runs} runs");
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
        let parsed = Json::parse(&on_disk).unwrap();
        let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
