//! The one benchmark of the HPNN reproduction.
//!
//! ```text
//! hpnn-benchmark run [--seed N] [--runs K] [--seconds S]  every workload, untraced then traced,
//!                                                       each in a fresh child process
//! hpnn-benchmark run --workload W --seed N --seconds S --trace 0|1
//!                                                       one workload in this process (what
//!                                                       the driver of BENCHMARK.json calls)
//! hpnn-benchmark compare A.json B.json                  apply each metric's bound
//! hpnn-benchmark manifest                               print BENCHMARK.json
//! ```
//!
//! Everything is measured from outside the program under test: timed calls
//! into public functions and `Server::metrics()` snapshot deltas. See
//! `benchmark/README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use hpnn_benchmark::json::Json;
use hpnn_benchmark::report::{self, Outcome};
use hpnn_benchmark::spans::{self, Recorder};
use hpnn_benchmark::spec::{self, RUN_SECONDS, WORKLOADS};
use hpnn_benchmark::{compare, owner, serve, stats};

/// Where result and trace files go unless `--out` says otherwise, relative
/// to the directory the command runs in (the repository root).
const DEFAULT_OUT: &str = "benchmark/out";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        runs: 1,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                spec::workload(v).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {v:?}; the workloads are {}",
                        names.join(", ")
                    )
                })?;
                parsed.workload = Some(v.to_string());
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=60.0).contains(s))
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                let v = value()?;
                parsed.runs = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or_else(|| bad(v))?;
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints the driver's JSON line
/// last.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let started = Instant::now();
    let mut rec = Recorder::new(started, args.traced);
    let mut out = Outcome::default();
    let counts = if name == "owner_flow" {
        owner::run(args.seed, args.seconds, started, &mut rec, &mut out);
        Vec::new()
    } else {
        serve::run(name, args.seed, args.seconds, started, &mut rec, &mut out)
    };
    if args.traced {
        out.set(
            "trace.spans_recorded",
            rec.spans().len() as f64,
            rec.spans().len() as u64,
        );
        println!("-- self time by span name ({name})");
        for (span, t) in spans::totals_by_name(rec.spans()) {
            println!(
                "{span:<28} n={:<8} total {:>12.3} ms  self {:>12.3} ms  mean self {:>10.2} us",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e3 / t.count as f64
            );
        }
        report::write_file(
            &args.out.join(format!("trace_{name}.json")),
            &spans::trace_document(name, rec.spans(), &counts).render(),
        )?;
    }
    let line = report::publish(
        name,
        args.seed,
        args.seconds,
        args.traced,
        started.elapsed().as_secs_f64(),
        &out,
        &args.out,
    )?;
    println!("{line}");
    // Failed operations are in the result line; the exit code only says
    // whether a result was produced.
    Ok(true)
}

/// Runs `workload` in a fresh child process, so set-up time and peak
/// memory are its own, and reads back the result file it wrote.
fn run_child(workload: &str, seed: u64, traced: bool, args: &RunArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let status = Command::new(exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .status()
        .map_err(|e| format!("start child: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (seed {seed}) exited with {status}"));
    }
    read_result(
        &args
            .out
            .join(format!("{workload}.trace{}.json", u8::from(traced))),
    )
}

/// The ISSUE's one command: every workload in a child process, `runs`
/// untraced runs on consecutive seeds for the end-to-end numbers, then one
/// traced run for the per-layer numbers; writes `<out>/result.json`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut all_good = true;
    let mut fingerprint = None;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut docs = Vec::new();
        for k in 0..args.runs {
            docs.push(run_child(w.name, args.seed + k as u64, false, args)?);
        }
        let traced = run_child(w.name, args.seed, true, args)?;
        fingerprint
            .get_or_insert_with(|| docs[0].get("fingerprint").cloned().unwrap_or(Json::Null));
        // A run that lacks a field or a metric is a broken run, not a zero.
        let field = |doc: &Json, key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{}: a run reported no {key}", w.name))
        };
        let value_of = |doc: &Json, metric: &str, key: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get(key))
                .and_then(Json::as_f64)
                .ok_or(format!("{}: a run reported no {metric}", w.name))
        };
        let mut correct = Vec::new();
        for doc in docs.iter().chain([&traced]) {
            let ok = doc.get("correct").and_then(Json::as_bool) == Some(true);
            correct.push(Json::Bool(ok));
            all_good &= ok && field(doc, "failed")? == 0.0;
        }
        let series = |key: &str| -> Result<Json, String> {
            let values: Result<Vec<f64>, String> = docs.iter().map(|d| field(d, key)).collect();
            Ok(Json::nums(&values?))
        };
        let mut end_to_end = Vec::new();
        for m in spec::metric_specs(false) {
            let mut entry = m.describe();
            for (key, from) in [("values", "value"), ("samples", "samples")] {
                let of: Result<Vec<f64>, String> =
                    docs.iter().map(|d| value_of(d, m.name, from)).collect();
                entry.push((key, Json::nums(&of?)));
            }
            end_to_end.push((m.name, Json::obj(entry)));
        }
        let mut per_layer = Vec::new();
        for m in spec::metric_specs(true) {
            let mut entry = m.describe();
            entry.push(("value", Json::num(value_of(&traced, m.name, "value")?)));
            entry.push(("samples", Json::num(value_of(&traced, m.name, "samples")?)));
            per_layer.push((m.name, Json::obj(entry)));
        }
        workloads.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                ("wall_s", series("wall_s")?),
                ("attempted", series("attempted")?),
                ("failed", series("failed")?),
                ("traced_wall_s", Json::num(field(&traced, "wall_s")?)),
                ("traced_failed", Json::num(field(&traced, "failed")?)),
                ("correct", Json::Arr(correct)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }
    let result = Json::obj([
        ("benchmark", Json::str("hpnn-benchmark")),
        ("comparable", Json::Bool(args.seconds == RUN_SECONDS as f64)),
        ("runs", Json::num(args.runs as f64)),
        ("fingerprint", fingerprint.unwrap_or(Json::Null)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = args.out.join("result.json");
    report::write_file(&path, &result.pretty())?;
    print_summary(&result);
    println!("wrote {}", path.display());
    Ok(all_good)
}

/// One row per (workload, end-to-end metric): the median over the runs and,
/// with several runs, their interquartile spread against the bound.
fn print_summary(result: &Json) {
    println!("\n== summary: median over runs, interquartile spread as a share of the median");
    let workloads = result.get("workloads").map(Json::members).unwrap_or(&[]);
    for (name, w) in workloads {
        for (metric, m) in w.get("end_to_end").map(Json::members).unwrap_or(&[]) {
            let values = m.get("values").map(Json::as_f64s).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let spread = stats::spread(&values).map_or("-".to_string(), |s| {
                format!(
                    "{:.1}%{}",
                    s * 100.0,
                    if s > bound / 3.0 && metric != "setup_s" {
                        "  (above a third of the bound)"
                    } else {
                        ""
                    }
                )
            });
            println!(
                "{name:<14} {metric:<12} {:>12.4} {:<4} bound {:>3.0}%  spread {spread}",
                stats::median(&values),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                bound * 100.0,
            );
        }
    }
}

fn read_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    // One kernel thread unless the caller asks otherwise. On the small
    // shared hosts this runs on, the load generator and the server's own
    // threads already fill the cores, and a fork-join kernel pool waiting on
    // a descheduled sibling moved a convfc forward from 1.6 to 8 ms between
    // two hours of one host. Set before any thread exists and before the
    // pool reads it; child processes inherit it.
    if std::env::var_os("HPNN_THREADS").is_none() {
        std::env::set_var("HPNN_THREADS", "1");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| match a.workload.clone() {
            Some(name) => run_one(&name, &a),
            None => run_all(&a),
        }),
        Some("compare") if args.len() == 3 => read_result(Path::new(&args[1]))
            .and_then(|a| read_result(Path::new(&args[2])).and_then(|b| compare::compare(&a, &b)))
            .map(|(report, failed)| {
                print!("{report}");
                !failed
            }),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        _ => Err(
            "usage: hpnn-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                  [--runs K] [--out DIR] | compare A.json B.json | manifest"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("hpnn-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
