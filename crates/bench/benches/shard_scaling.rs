//! Bench: N-way worker sharding under a skewed multi-tenant workload.
//!
//! One GEMM-heavy "hot" model shares a server with three small "cold"
//! tenants. 32 closed-loop clients send 70% of their traffic to the hot
//! model (the load generator's `hot_fraction` skew spreads the rest over
//! the cold ones), and the same workload runs against two shard counts:
//!
//! 1. **1 shard** — one worker thread owns the hot model's queue.
//! 2. **4 shards** — `shards(4..=4)`; on a multi-core host the hot
//!    model's throughput must reach at least **2x** the single-shard run
//!    (the gate is skipped, loudly, when the host has fewer than 4 cores —
//!    there is nothing to parallelise).
//!
//! Both scenarios reconcile the per-shard `STATS` section exactly:
//! summed per-shard forward and queue-wait histogram counts equal the
//! server's OK-reply count, and bucket totals equal sample counts. A
//! separate pass proves sharding never changes numerics: the same rows
//! through a 1-shard and a 4-shard server return bit-identical logits.
//!
//! Results land in `BENCH_shard.json` at the repository root. Run with
//! `--quick` (as CI does) for a shorter load at the same concurrency.

use std::time::Duration;

use hpnn_bench::timing::{bench_output_path, fmt_ns, group, write_json, BenchResult};
use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::{mlp, ActKind, LayerSpec, NetworkSpec};
use hpnn_serve::{
    InferMode, LoadgenConfig, LoadgenReport, ServeConfig, ServeRegistry, Server, Session,
    StatsSnapshot,
};
use hpnn_tensor::Rng;

/// Concurrent closed-loop clients (the acceptance bar is >= 16).
const CLIENTS: usize = 32;

/// Fraction of requests aimed at the hot model; the rest spread over the
/// cold tenants.
const HOT_FRACTION: f64 = 0.7;

/// Input width shared by the hot and cold models so the skewed load
/// generator can swap targets without changing request shapes.
const IN_FEATURES: usize = 256;

/// The hot model: a two-layer 1024-wide fc trunk — wide enough that a
/// forward is GEMM-bound and a second worker shard has real work to steal.
fn hot_spec() -> NetworkSpec {
    NetworkSpec::new(
        IN_FEATURES,
        vec![
            LayerSpec::Dense {
                in_features: IN_FEATURES,
                out_features: 1024,
            },
            LayerSpec::Activation {
                kind: ActKind::Relu,
                features: 1024,
            },
            LayerSpec::Dense {
                in_features: 1024,
                out_features: 1024,
            },
            LayerSpec::Activation {
                kind: ActKind::Relu,
                features: 1024,
            },
            LayerSpec::Dense {
                in_features: 1024,
                out_features: 10,
            },
        ],
    )
}

fn lock(spec: NetworkSpec, seed: u64) -> (LockedModel, HpnnKey) {
    let mut rng = Rng::new(seed);
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).expect("build model");
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    (
        LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default()),
        key,
    )
}

/// Model 0 is the hot tenant; models 1..=3 are small cold tenants with the
/// same input width.
fn registry() -> ServeRegistry {
    let mut registry = ServeRegistry::new();
    let (hot, key) = lock(hot_spec(), 501);
    registry.add("hot", hot, Some(KeyVault::provision(key, "bench")));
    for (i, seed) in [(1u32, 511u64), (2, 512), (3, 513)] {
        let (cold, key) = lock(mlp(IN_FEATURES, &[32], 10), seed);
        registry.add(
            format!("cold{i}"),
            cold,
            Some(KeyVault::provision(key, "bench")),
        );
    }
    registry
}

fn run_scenario(
    label: &str,
    cfg: ServeConfig,
    requests_per_client: usize,
) -> (LoadgenReport, StatsSnapshot) {
    let server = Server::start(registry(), cfg, "127.0.0.1:0").expect("bind loopback server");
    let report = hpnn_serve::loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: CLIENTS,
        requests_per_client,
        model: 0,
        mode: InferMode::Keyed,
        rows_per_request: 1,
        deadline_us: 0,
        retry_busy: true,
        seed: 91,
        depth: 2,
        pattern: hpnn_serve::LoadPattern::Steady,
        hot_fraction: Some(HOT_FRACTION),
        // Benches measure the raw hot path; no stats sampler connection.
        sample_interval: Duration::ZERO,
    })
    .expect("load generation");
    let stats = server.metrics();
    server.shutdown();
    let hot_ok = report.ok_by_model.get(&0).copied().unwrap_or(0);
    println!(
        "{label:<16} {:>8.1} hot req/s ({:>8.1} total)   mean latency {:>10}   \
         ({hot_ok} hot / {} total ok, {} busy)",
        report.throughput_rps_for(0),
        report.throughput_rps(),
        fmt_ns(report.latency.mean_ns()),
        report.ok,
        report.busy,
    );
    (report, stats)
}

/// The per-shard STATS section must account for every OK reply exactly.
fn reconcile(label: &str, report: &LoadgenReport, stats: &StatsSnapshot) {
    assert_eq!(
        report.ok, report.requests,
        "{label}: every request must eventually succeed (busy retries enabled)"
    );
    assert_eq!(report.errors, 0, "{label}: no transport/protocol errors");
    assert_eq!(
        stats.replies_ok, report.ok,
        "{label}: server OK-reply count must match the load generator"
    );
    assert!(
        !stats.shards.is_empty(),
        "{label}: STATS must carry a per-shard section"
    );
    let fwd: u64 = stats.shards.iter().map(|s| s.forward.count).sum();
    let qw: u64 = stats.shards.iter().map(|s| s.queue_wait.count).sum();
    assert_eq!(
        fwd, stats.replies_ok,
        "{label}: summed per-shard forward samples must equal replies_ok"
    );
    assert_eq!(
        qw, stats.replies_ok,
        "{label}: summed per-shard queue-wait samples must equal replies_ok"
    );
    for s in &stats.shards {
        assert_eq!(
            s.forward.buckets.iter().sum::<u64>(),
            s.forward.count,
            "{label}: shard {}/{} forward buckets must sum to its count",
            s.model,
            s.shard
        );
        assert_eq!(
            s.queue_wait.buckets.iter().sum::<u64>(),
            s.queue_wait.count,
            "{label}: shard {}/{} queue-wait buckets must sum to its count",
            s.model,
            s.shard
        );
    }
    assert_eq!(
        stats.inflight, 0,
        "{label}: the in-flight gauge must drain to zero with the run over"
    );
    assert_eq!(stats.worker_panics, 0, "{label}: no shard worker may panic");
}

/// Shards on each config: identical rows in, identical bits out.
fn assert_bit_identical(one: &ServeConfig, four: &ServeConfig) {
    let mut outs: Vec<Vec<u32>> = Vec::new();
    for cfg in [one, four] {
        let server = Server::start(registry(), cfg.clone(), "127.0.0.1:0").expect("bind");
        let mut session = Session::connect(server.local_addr()).expect("connect");
        session.hello("shard-identity").expect("hello");
        let mut rng = Rng::new(907);
        let mut bits = Vec::new();
        for _ in 0..8 {
            let input: Vec<f32> = (0..IN_FEATURES).map(|_| rng.next_f32() - 0.5).collect();
            let t = session
                .submit(0, InferMode::Keyed, 0, 1, IN_FEATURES, input)
                .expect("submit");
            let logits = session.wait(t).expect("wait");
            bits.extend(logits.data.iter().map(|v| v.to_bits()));
        }
        outs.push(bits);
        drop(session);
        server.shutdown();
    }
    assert_eq!(
        outs[0], outs[1],
        "sharding must never change numerics: 1-shard and 4-shard logits diverged"
    );
    println!("bit-identity: 8 rows through 1-shard and 4-shard servers match exactly\n");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let requests_per_client = if quick { 6 } else { 24 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    group("shard_scaling");
    println!(
        "{CLIENTS} clients x {requests_per_client} requests, {:.0}% hot / {:.0}% cold over 3 \
         tenants, keyed path, {cores} cores\n",
        HOT_FRACTION * 100.0,
        (1.0 - HOT_FRACTION) * 100.0,
    );

    let base = ServeConfig::builder()
        .max_batch(8)
        .max_wait(Duration::from_micros(500))
        .queue_cap(8 * CLIENTS)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64);
    let one_cfg = base.clone().shards(1..=1).build().expect("1-shard config");
    let four_cfg = base.shards(4..=4).build().expect("4-shard config");

    assert_bit_identical(&one_cfg, &four_cfg);

    let (one_report, one_stats) = run_scenario("shards=1", one_cfg, requests_per_client);
    reconcile("shards=1", &one_report, &one_stats);
    assert_eq!(
        one_stats.shards.iter().filter(|s| s.model == 0).count(),
        1,
        "single-shard run must expose exactly one hot shard"
    );

    let (four_report, four_stats) = run_scenario("shards=4", four_cfg, requests_per_client);
    reconcile("shards=4", &four_report, &four_stats);
    let hot_shards: Vec<_> = four_stats.shards.iter().filter(|s| s.model == 0).collect();
    assert_eq!(hot_shards.len(), 4, "pinned run must expose 4 hot shards");
    assert!(
        hot_shards.iter().all(|s| s.active),
        "every shard's worker is alive"
    );
    assert!(
        hot_shards.iter().filter(|s| s.forward.count > 0).count() >= 2,
        "placement must spread the hot queue over multiple shards"
    );

    println!("\nper-shard forward samples (shards=4 run):");
    for s in &hot_shards {
        println!(
            "  model {} shard {} [{}]: {:>6} forwards, mean {:>10}, queue wait mean {:>10}",
            s.model,
            s.shard,
            if s.active { "active" } else { "dead" },
            s.forward.count,
            fmt_ns(s.forward.mean_ns()),
            fmt_ns(s.queue_wait.mean_ns()),
        );
    }

    let speedup = four_report.throughput_rps_for(0) / one_report.throughput_rps_for(0).max(1e-9);
    println!("\nhot-model speedup at 4 shards over 1: {speedup:.2}x");

    let results = vec![
        BenchResult {
            name: format!("shard/1/c{CLIENTS}"),
            iters_per_batch: one_report.ok,
            mean_ns: one_report.latency.mean_ns(),
            best_ns: one_report.latency.quantile_upper_ns(0.5) as f64,
        },
        BenchResult {
            name: format!("shard/4/c{CLIENTS}"),
            iters_per_batch: four_report.ok,
            mean_ns: four_report.latency.mean_ns(),
            best_ns: four_report.latency.quantile_upper_ns(0.5) as f64,
        },
    ];
    let metrics = [
        ("clients", CLIENTS as f64),
        ("cores", cores as f64),
        ("hot_fraction", HOT_FRACTION),
        ("hot_rps_1shard", one_report.throughput_rps_for(0)),
        ("hot_rps_4shard", four_report.throughput_rps_for(0)),
        ("hot_speedup_4_over_1", speedup),
        ("total_rps_1shard", one_report.throughput_rps()),
        ("total_rps_4shard", four_report.throughput_rps()),
    ];
    let out = bench_output_path("BENCH_shard.json");
    write_json(&out, "shard_scaling", &metrics, &results).expect("write BENCH_shard.json");
    println!("wrote {} ({} results)", out.display(), results.len());

    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "4 hot shards must at least double hot-model throughput over 1 \
             at {CLIENTS} clients, got {speedup:.2}x"
        );
        println!("\nacceptance: 4-shard hot throughput >= 2x single shard — ok ({speedup:.2}x)");
    } else {
        println!(
            "\nacceptance: 2x gate SKIPPED — {cores} core(s) available, sharding \
             cannot parallelise below 4 cores (reconciliation still enforced)"
        );
    }
}
