//! `hpnn` — command-line tool for the HPNN workflow.
//!
//! ```text
//! hpnn keygen [--seed N]
//! hpnn train   --key HEX --arch cnn1|cnn2|cnn3|resnet|mlp --dataset fashion|cifar10|svhn
//!              [--scale tiny|small|medium] [--epochs N] [--lr F] [--seed N] [--out FILE]
//! hpnn inspect --model FILE
//! hpnn eval    --model FILE --dataset fashion|cifar10|svhn [--key HEX] [--scale S]
//! hpnn attack  --model FILE --dataset fashion|cifar10|svhn --alpha F [--init stolen|random]
//!              [--scale S] [--epochs N] [--lr F] [--seed N]
//! hpnn serve   --model FILE [--model FILE ...] [--key HEX] [--addr HOST:PORT]
//!              [--max-batch N] [--max-wait-us N] [--queue-cap N] [--max-inflight N]
//!              [--event-threads N] [--shards N] [--metrics-addr HOST:PORT]
//! hpnn loadgen [--addr HOST:PORT] [--clients N] [--requests N] [--model ID]
//!              [--mode keyed|keyless] [--rows N] [--depth N] [--deadline-us N]
//!              [--idle-hold-ms N] [--churn-every N]
//!              [--sample-interval-ms N] [--seed N] [--no-retry-busy] [--shutdown]
//! hpnn stats   [ADDR]                          one-shot STATS against a running server
//! ```
//!
//! The tool drives the same library code as the experiment harness; it
//! exists so the locked-model life-cycle (generate key → train → publish →
//! deploy/eval → attack) can be exercised from a shell. Each subcommand
//! refuses any `--flag` it does not take before it opens a file or socket.

use std::fs;
use std::process::ExitCode;

use hpnn::attacks::{AttackInit, FineTuneAttack};
use hpnn::core::{HpnnKey, HpnnTrainer, KeyVault, LockedModel};
use hpnn::data::{Benchmark, Dataset, DatasetScale};
use hpnn::nn::{mlp, ArchKind, ImageDims, TrainConfig};
use hpnn::serve::{InferMode, LoadPattern, LoadgenConfig, ServeConfig, ServeRegistry, Server};
use hpnn::tensor::Rng;

type Command = fn(&[String]) -> CliResult;

/// Every subcommand with the flags it accepts, space-separated. A trailing
/// `!` marks a bare switch; every other flag takes a value.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("keygen", cmd_keygen, "--seed"),
    (
        "train",
        cmd_train,
        "--key --arch --dataset --scale --epochs --lr --seed --out",
    ),
    ("inspect", cmd_inspect, "--model"),
    ("eval", cmd_eval, "--model --dataset --scale --key"),
    (
        "attack",
        cmd_attack,
        "--model --dataset --scale --alpha --init --epochs --lr --seed",
    ),
    (
        "serve",
        cmd_serve,
        "--model --key --addr --max-batch --max-wait-us --queue-cap --max-inflight \
         --event-threads --shards --metrics-addr",
    ),
    (
        "loadgen",
        cmd_loadgen,
        "--addr --clients --requests --model --mode --rows --depth --deadline-us --seed \
         --sample-interval-ms --no-retry-busy! --idle-hold-ms --churn-every --shutdown!",
    ),
    ("stats", cmd_stats, "--addr"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|(n, ..)| *n == name) {
            Some((_, run, accepted)) => check_flags(&args, accepted).and_then(|()| run(&args)),
            None => Err(format!("unknown command `{name}` (try `hpnn help`)").into()),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn print_usage() {
    println!(
        "hpnn — Hardware Protected Neural Networks (DAC 2020 reproduction)\n\n\
         commands:\n\
         \x20 keygen  [--seed N]                          generate a random 256-bit HPNN key\n\
         \x20 train   --key HEX --arch A --dataset D      key-dependent training, writes a .hpnn container\n\
         \x20         [--scale S] [--epochs N] [--lr F] [--seed N] [--out FILE]\n\
         \x20 inspect --model FILE                        print a published container's metadata\n\
         \x20 eval    --model FILE --dataset D [--key HEX] evaluate with or without the key\n\
         \x20         [--scale S]\n\
         \x20 attack  --model FILE --dataset D --alpha F  fine-tuning attack with a thief dataset\n\
         \x20         [--init stolen|random] [--scale S] [--epochs N] [--lr F] [--seed N]\n\
         \x20 serve   --model FILE [--model FILE ...]     batched TCP inference server (SHUTDOWN frame stops it)\n\
         \x20         [--key HEX] [--addr HOST:PORT] [--max-batch N] [--queue-cap N]\n\
         \x20         [--max-wait-us N]                   hold a short batch back for co-riders (default 0:\n\
         \x20                                             an idle worker takes what is queued)\n\
         \x20         [--max-inflight N]                  per-connection pipelining window\n\
         \x20         [--event-threads N]                 socket event-loop threads (0 = auto, default)\n\
         \x20         [--shards N]                        worker shards per model, fixed at start (default 1)\n\
         \x20         [--metrics-addr HOST:PORT]          Prometheus scrape endpoint: /metrics /healthz /readyz\n\
         \x20 loadgen [--addr HOST:PORT] [--clients N]    closed-loop load generator against a running server\n\
         \x20         [--requests N] [--model ID] [--mode keyed|keyless] [--rows N] [--seed N] [--shutdown]\n\
         \x20         [--depth N]                         requests kept in flight per connection (default 1)\n\
         \x20         [--deadline-us N]                   per-request deadline (default 0: none)\n\
         \x20         [--no-retry-busy]                   count a BUSY reply as final instead of retrying\n\
         \x20         [--idle-hold-ms N]                  hold every connection idle for N ms before the run\n\
         \x20         [--churn-every N]                   reconnect each client after every N requests\n\
         \x20         [--sample-interval-ms N]            server-side stats sampling bucket (default 1000, 0 off)\n\
         \x20 stats   [ADDR]                              one-shot STATS snapshot of a running server (default\n\
         \x20                                             127.0.0.1:7433), printed as loadgen's stage tables\n\n\
         datasets: fashion | cifar10 | svhn   architectures: cnn1 | cnn2 | cnn3 | resnet | mlp\n\
         scales:   tiny | small | medium      (HPNN_DATA_DIR selects real data files)"
    );
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|p| args.get(p + 1).cloned())
}

/// Refuses the first `--flag` the subcommand does not take, or that needs
/// a value and is last or followed by another `--flag`, before it opens
/// any file or socket.
fn check_flags(args: &[String], accepted: &str) -> CliResult {
    let cmd = &args[0];
    for (i, arg) in args.iter().enumerate().skip(1) {
        if !arg.starts_with("--") {
            continue;
        }
        let Some(spec) = accepted
            .split_whitespace()
            .find(|f| f.trim_end_matches('!') == arg)
        else {
            return Err(format!("`hpnn {cmd}` does not take `{arg}` (try `hpnn help`)").into());
        };
        if !spec.ends_with('!') && args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            return Err(format!("`hpnn {cmd} {arg}` needs a value (try `hpnn help`)").into());
        }
    }
    Ok(())
}

/// Every value of a repeatable flag, in order.
fn flag_all(args: &[String], name: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].clone())
        .collect()
}

/// Whether a bare (valueless) switch is present.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_dataset(
    args: &[String],
) -> Result<(Benchmark, Dataset, DatasetScale), Box<dyn std::error::Error>> {
    let benchmark = match flag(args, "--dataset").as_deref() {
        Some("fashion") | Some("fashion-mnist") => Benchmark::FashionMnist,
        Some("cifar10") | Some("cifar-10") => Benchmark::Cifar10,
        Some("svhn") => Benchmark::Svhn,
        Some(other) => return Err(format!("unknown dataset `{other}`").into()),
        None => return Err("missing --dataset".into()),
    };
    let scale = match flag(args, "--scale").as_deref() {
        Some("tiny") => DatasetScale::TINY,
        Some("small") | None => DatasetScale::SMALL,
        Some("medium") => DatasetScale::MEDIUM,
        Some("paper") => DatasetScale::PAPER,
        Some(other) => return Err(format!("unknown scale `{other}`").into()),
    };
    let dir = std::env::var_os("HPNN_DATA_DIR").map(std::path::PathBuf::from);
    let dataset = benchmark.load_or_synthesize(dir.as_deref(), scale);
    Ok((benchmark, dataset, scale))
}

fn parse_key(args: &[String]) -> Result<HpnnKey, Box<dyn std::error::Error>> {
    match flag(args, "--key") {
        Some(hex) => Ok(HpnnKey::from_hex(&hex)?),
        None => Err("missing --key HEX (use `hpnn keygen`)".into()),
    }
}

fn cmd_keygen(args: &[String]) -> CliResult {
    let seed: u64 = match flag(args, "--seed") {
        Some(s) => s.parse()?,
        None => {
            // Derive a seed from the OS when none is given; determinism is
            // only required when the user pins --seed.
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)?
                .as_nanos() as u64
        }
    };
    let mut rng = Rng::new(seed);
    let key = HpnnKey::random(&mut rng);
    println!("{key}");
    Ok(())
}

fn cmd_train(args: &[String]) -> CliResult {
    let key = parse_key(args)?;
    let (_benchmark, dataset, _) = parse_dataset(args)?;
    let dims = ImageDims::new(dataset.shape.c, dataset.shape.h, dataset.shape.w);
    let spec = match flag(args, "--arch").as_deref() {
        Some("cnn1") => ArchKind::Cnn1.build_spec(dims, dataset.classes, 0.5)?,
        Some("cnn2") => ArchKind::Cnn2.build_spec(dims, dataset.classes, 0.5)?,
        Some("cnn3") => ArchKind::Cnn3.build_spec(dims, dataset.classes, 0.5)?,
        Some("resnet") => ArchKind::ResNet.build_spec(dims, dataset.classes, 0.5)?,
        Some("mlp") | None => mlp(dataset.shape.volume(), &[64], dataset.classes),
        Some(other) => return Err(format!("unknown architecture `{other}`").into()),
    };
    let epochs: usize = flag(args, "--epochs")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(12);
    let lr: f32 = flag(args, "--lr")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(0.02);
    let out = flag(args, "--out").unwrap_or_else(|| "model.hpnn".to_string());

    eprintln!(
        "training on {} ({} train / {} test), {} lockable neurons, {epochs} epochs @ lr {lr}",
        dataset.name,
        dataset.train_len(),
        dataset.test_len(),
        spec.lockable_neurons()
    );
    let artifacts = HpnnTrainer::new(spec, key)
        .with_config(TrainConfig::default().with_epochs(epochs).with_lr(lr))
        .with_seed(
            flag(args, "--seed")
                .map(|v| v.parse())
                .transpose()?
                .unwrap_or(0),
        )
        .train(&dataset)?;
    println!(
        "accuracy with key: {:.2}% | without key: {:.2}% | drop: {:.2} points",
        artifacts.accuracy_with_key * 100.0,
        artifacts.accuracy_without_key * 100.0,
        artifacts.accuracy_drop_percent()
    );
    fs::write(&out, artifacts.model.to_bytes())?;
    println!("published container written to {out}");
    Ok(())
}

fn load_model(args: &[String]) -> Result<LockedModel, Box<dyn std::error::Error>> {
    let path = flag(args, "--model").ok_or("missing --model FILE")?;
    let bytes = fs::read(&path)?;
    Ok(LockedModel::from_bytes(bytes.as_slice())?)
}

fn cmd_inspect(args: &[String]) -> CliResult {
    let model = load_model(args)?;
    let meta = model.metadata();
    println!("name:     {}", meta.name);
    println!("dataset:  {}", meta.dataset);
    println!("notes:    {}", meta.notes);
    let spec = model.spec();
    let census = spec.layer_census();
    println!(
        "arch:     {} layers ({} conv, {} pool, {} activation, {} fc, {} residual)",
        spec.layers.len(),
        census.conv,
        census.pool,
        census.relu,
        census.fc,
        census.residual
    );
    println!("inputs:   {} features", spec.in_features);
    println!("outputs:  {} classes", spec.out_features());
    println!("locked:   {} neurons", spec.lockable_neurons());
    println!("weights:  {} scalars", model.weight_count());
    println!(
        "schedule: {:?} (seed {})",
        model.schedule().kind(),
        model.schedule().seed()
    );
    Ok(())
}

fn cmd_eval(args: &[String]) -> CliResult {
    let model = load_model(args)?;
    let (_, dataset, _) = parse_dataset(args)?;
    let mut net = match flag(args, "--key") {
        Some(hex) => {
            let key = HpnnKey::from_hex(&hex)?;
            let vault = KeyVault::provision(key, "cli-device");
            model.deploy_trusted(&vault)?
        }
        None => {
            eprintln!("no --key given: evaluating the stolen (unauthorized) path");
            model.deploy_stolen()?
        }
    };
    let acc = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
    println!("test accuracy: {:.2}%", acc * 100.0);
    Ok(())
}

fn cmd_attack(args: &[String]) -> CliResult {
    let model = load_model(args)?;
    let (_, dataset, _) = parse_dataset(args)?;
    let alpha: f32 = flag(args, "--alpha").ok_or("missing --alpha F")?.parse()?;
    let init = match flag(args, "--init").as_deref() {
        Some("random") => AttackInit::Random,
        Some("stolen") | None => AttackInit::Stolen,
        Some(other) => return Err(format!("unknown init `{other}`").into()),
    };
    let epochs: usize = flag(args, "--epochs")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(10);
    let lr: f32 = flag(args, "--lr")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(0.02);

    let result = FineTuneAttack::new(init, alpha)
        .with_config(TrainConfig::default().with_epochs(epochs).with_lr(lr))
        .with_seed(
            flag(args, "--seed")
                .map(|v| v.parse())
                .transpose()?
                .unwrap_or(0),
        )
        .run(&model, &dataset)?;
    println!(
        "{init} with alpha = {:.1}% ({} thief samples)",
        alpha * 100.0,
        result.thief_size
    );
    println!(
        "  initial accuracy: {:.2}%",
        result.initial_accuracy * 100.0
    );
    println!("  final accuracy:   {:.2}%", result.final_accuracy * 100.0);
    println!("  best accuracy:    {:.2}%", result.best_accuracy * 100.0);
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let paths = flag_all(args, "--model");
    if paths.is_empty() {
        return Err("missing --model FILE (repeatable)".into());
    }
    let vault = flag(args, "--key")
        .map(|hex| HpnnKey::from_hex(&hex))
        .transpose()?
        .map(|key| KeyVault::provision(key, "hpnn-serve"));

    // One builder carries every serve knob — batching, sharding, event
    // loop, and the scrape address — so cross-field mistakes fail here,
    // before any socket is bound.
    let mut builder = ServeConfig::builder();
    if let Some(v) = flag(args, "--max-batch") {
        builder = builder.max_batch(v.parse()?);
    }
    if let Some(v) = flag(args, "--max-wait-us") {
        builder = builder.max_wait(std::time::Duration::from_micros(v.parse()?));
    }
    if let Some(v) = flag(args, "--queue-cap") {
        builder = builder.queue_cap(v.parse()?);
    }
    if let Some(v) = flag(args, "--max-inflight") {
        builder = builder.max_inflight_per_conn(v.parse()?);
    }
    if let Some(v) = flag(args, "--event-threads") {
        builder = builder.event_threads(v.parse()?);
    }
    if let Some(v) = flag(args, "--shards") {
        let n: usize = v
            .parse()
            .map_err(|_| format!("bad --shards `{v}` (expected one count N)"))?;
        builder = builder.shards(n..=n);
    }
    if let Some(addr) = flag(args, "--metrics-addr") {
        builder = builder.metrics_addr(addr);
    }
    let cfg = builder.build()?;

    let mut registry = ServeRegistry::new();
    for path in &paths {
        let bytes = fs::read(path)?;
        let model = LockedModel::from_bytes(bytes.as_slice())?;
        let name = if model.metadata().name.is_empty() {
            path.clone()
        } else {
            model.metadata().name.clone()
        };
        let id = registry.add(name.clone(), model, vault.clone());
        eprintln!("model {id}: {name} ({path})");
    }
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7433".to_string());
    let shard_note = if cfg.shards > 1 {
        format!(", {} shards per model", cfg.shards)
    } else {
        String::new()
    };
    let server = Server::start(registry, cfg, addr.as_str())?;
    println!(
        "listening on {}{shard_note} (send a SHUTDOWN frame to stop)",
        server.local_addr()
    );
    if let Some(maddr) = server.metrics_addr() {
        println!("metrics on {maddr} (GET /metrics /healthz /readyz)");
    }
    server.join();
    let stats = server.metrics();
    eprintln!(
        "served {} requests ({} rows) in {} batches; {} busy, {} expired, {} protocol errors",
        stats.replies_ok,
        stats.rows,
        stats.batches,
        stats.busy,
        stats.expired,
        stats.protocol_errors
    );
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> CliResult {
    let mut cfg = LoadgenConfig::default();
    if let Some(v) = flag(args, "--addr") {
        cfg.addr = v;
    }
    if let Some(v) = flag(args, "--clients") {
        cfg.clients = v.parse()?;
    }
    if let Some(v) = flag(args, "--requests") {
        cfg.requests_per_client = v.parse()?;
    }
    if let Some(v) = flag(args, "--model") {
        cfg.model = v.parse()?;
    }
    cfg.mode = match flag(args, "--mode").as_deref() {
        Some("keyless") => InferMode::Keyless,
        Some("keyed") | None => InferMode::Keyed,
        Some(other) => return Err(format!("unknown mode `{other}`").into()),
    };
    if let Some(v) = flag(args, "--rows") {
        cfg.rows_per_request = v.parse()?;
    }
    if let Some(v) = flag(args, "--depth") {
        cfg.depth = v.parse()?;
    }
    if let Some(v) = flag(args, "--deadline-us") {
        cfg.deadline_us = v.parse()?;
    }
    if let Some(v) = flag(args, "--seed") {
        cfg.seed = v.parse()?;
    }
    if let Some(v) = flag(args, "--sample-interval-ms") {
        cfg.sample_interval = std::time::Duration::from_millis(v.parse()?);
    }
    cfg.retry_busy = !switch(args, "--no-retry-busy");
    match (flag(args, "--idle-hold-ms"), flag(args, "--churn-every")) {
        (Some(_), Some(_)) => {
            return Err("--idle-hold-ms and --churn-every are mutually exclusive".into());
        }
        (Some(ms), None) => {
            cfg.pattern = LoadPattern::Idle(std::time::Duration::from_millis(ms.parse()?));
        }
        (None, Some(n)) => {
            cfg.pattern = LoadPattern::Churn(n.parse()?);
        }
        (None, None) => {}
    }
    let report = hpnn::serve::loadgen::run(&cfg).map_err(|e| e.to_string())?;
    println!(
        "{} clients x {} requests: {} ok, {} busy, {} expired, {} errors in {:.3}s",
        cfg.clients,
        cfg.requests_per_client,
        report.ok,
        report.busy,
        report.expired,
        report.errors,
        report.elapsed.as_secs_f64()
    );
    println!(
        "throughput: {:.1} req/s ({:.1} rows/s)",
        report.throughput_rps(),
        report.throughput_rows_per_sec()
    );
    if let Some((min, mean, max)) = report.interval_rps() {
        println!(
            "per-interval throughput ({} x {} ms, server clock): min {min:.1} / mean {mean:.1} / max {max:.1} req/s",
            report.intervals.len(),
            cfg.sample_interval.as_millis()
        );
    }
    println!(
        "latency: mean {:.1} us, p50 <= {:.1} us, p99 <= {:.1} us",
        report.latency.mean_ns() / 1_000.0,
        report.latency.quantile_upper_ns(0.50) as f64 / 1_000.0,
        report.latency.quantile_upper_ns(0.99) as f64 / 1_000.0
    );
    if let Some(rps) = report.server_rps() {
        println!("server:  {rps:.1} replies/s over the server's own uptime clock");
    }
    if let Some(stats) = &report.server_after {
        print_server_stats(stats);
    }
    if switch(args, "--shutdown") {
        let mut admin =
            hpnn::serve::Session::connect(cfg.addr.as_str()).map_err(|e| e.to_string())?;
        admin.shutdown().map_err(|e| e.to_string())?;
        println!("server shut down");
    }
    Ok(())
}

/// The server-side stats tables `loadgen` and `stats` both print: per-stage
/// latency quantiles, then per-shard activity when the server runs shards.
fn print_server_stats(stats: &hpnn::serve::StatsSnapshot) {
    println!("per-stage server latency (us, bucket upper bounds):");
    println!(
        "  {:<12} {:>10} {:>12} {:>12} {:>12}",
        "stage", "count", "p50", "p95", "p99"
    );
    let stages = [
        ("queue_wait", &stats.queue_wait),
        ("batch_fill", &stats.batch_fill),
        ("forward", &stats.forward),
        ("writeback", &stats.writeback),
        ("e2e", &stats.e2e),
    ];
    for (name, h) in stages {
        println!(
            "  {:<12} {:>10} {:>12.1} {:>12.1} {:>12.1}",
            name,
            h.count,
            h.quantile_upper_ns(0.50) as f64 / 1_000.0,
            h.quantile_upper_ns(0.95) as f64 / 1_000.0,
            h.quantile_upper_ns(0.99) as f64 / 1_000.0
        );
    }
    if !stats.shards.is_empty() {
        println!("per-shard server latency (us):");
        println!(
            "  {:<6} {:<6} {:<7} {:>10} {:>14} {:>16}",
            "model", "shard", "state", "forwards", "fwd p50", "queue-wait p50"
        );
        for s in &stats.shards {
            println!(
                "  {:<6} {:<6} {:<7} {:>10} {:>14.1} {:>16.1}",
                s.model,
                s.shard,
                if s.active { "active" } else { "dead" },
                s.forward.count,
                s.forward.quantile_upper_ns(0.50) as f64 / 1_000.0,
                s.queue_wait.quantile_upper_ns(0.50) as f64 / 1_000.0
            );
        }
    }
}

fn cmd_stats(args: &[String]) -> CliResult {
    // Optional positional address: `hpnn stats 127.0.0.1:7433`. Anything
    // starting with `--` is a flag, not an address.
    let addr = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7433".to_string()));
    let mut client = hpnn::serve::Session::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    let uptime = stats.uptime_ns as f64 / 1e9;
    println!(
        "server {addr}: up {uptime:.1}s, {} connections, {} open",
        stats.connections, stats.open_connections
    );
    println!(
        "requests: {} admitted ({} keyed, {} keyless), {} ok, {} busy, {} expired, {} protocol errors",
        stats.requests,
        stats.keyed_requests,
        stats.keyless_requests,
        stats.replies_ok,
        stats.busy,
        stats.expired,
        stats.protocol_errors
    );
    println!(
        "work: {} rows in {} batches ({:.1} rows/batch), {} inflight, {} worker panics",
        stats.rows,
        stats.batches,
        stats.mean_batch_rows(),
        stats.inflight,
        stats.worker_panics
    );
    if uptime > 0.0 {
        println!(
            "rates: {:.1} req/s admitted, {:.1} replies/s over the server's uptime",
            stats.requests as f64 / uptime,
            stats.replies_ok as f64 / uptime
        );
    }
    print_server_stats(&stats);
    Ok(())
}
