//! Smoke: every workload for 3 seconds, untraced and traced, end to end
//! through the built binary. The numbers are labelled non-comparable; what
//! is checked is that every metric is reported, nothing fails, and every
//! reply matched its reference bit for bit.

use std::path::PathBuf;
use std::process::Command;

use hpnn_benchmark::json::Json;

const WORKLOADS: [&str; 4] = ["serve_convfc", "serve_tiny", "serve_mixed", "owner_flow"];

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hpnn-benchmark"))
}

fn read(path: PathBuf) -> Json {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn short_run_exercises_every_workload_and_compares_with_itself() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let run = benchmark()
        .args(["run", "--seconds", "3", "--seed", "5", "--out"])
        .arg(&out)
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "short run failed\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("NON-COMPARABLE"), "short runs are labelled");

    let result = read(out.join("result.json"));
    assert_eq!(result.get("comparable"), Some(&Json::Bool(false)));
    let fingerprint = result.get("fingerprint").expect("fingerprint");
    for key in ["nproc", "simd", "pool_threads", "commit", "rustc", "seed"] {
        assert!(fingerprint.get(key).is_some(), "fingerprint lacks {key}");
    }
    let manifest = read(PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCHMARK.json"
    )));
    let names = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .expect(key)
            .elements()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    for workload in WORKLOADS {
        let w = result
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("{workload} missing"));
        assert_eq!(
            w.get("failed").map(Json::as_f64s),
            Some(vec![0.0]),
            "{workload}"
        );
        assert_eq!(w.get("traced_failed").and_then(Json::as_f64), Some(0.0));
        assert!(w.get("attempted").map(Json::as_f64s).unwrap()[0] >= 1.0);
        for metric in names("end_to_end") {
            let values = w
                .get("end_to_end")
                .and_then(|m| m.get(&metric))
                .and_then(|m| m.get("values"))
                .map(Json::as_f64s)
                .unwrap_or_default();
            assert!(
                values.len() == 1 && values[0] > 0.0,
                "{workload}/{metric} must be measured and never 0: {values:?}"
            );
        }
        let serving = workload != "owner_flow";
        for metric in names("per_layer") {
            let m = w
                .get("per_layer")
                .and_then(|m| m.get(&metric))
                .unwrap_or_else(|| panic!("{workload} lacks per-layer metric {metric}"));
            // A layer the workload does not exercise reads -1 with no
            // samples; every other number has samples behind it.
            let idle_layer = if serving {
                metric.starts_with("hw.") || metric.starts_with("nn.train_")
            } else {
                metric.starts_with("serve.") || metric.starts_with("loadgen.")
            };
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            let samples = m.get("samples").and_then(Json::as_f64).unwrap();
            if idle_layer {
                assert_eq!((value, samples), (-1.0, 0.0), "{workload}/{metric}");
            } else if samples == 0.0 {
                assert_eq!(value, -1.0, "{workload}/{metric}");
            }
        }
        let trace = read(out.join(format!("trace_{workload}.json")));
        assert!(trace.get("spans_recorded").and_then(Json::as_f64).unwrap() > 0.0);
        let by_name = trace.get("self_time_by_name").expect("self times");
        let spans: &[&str] = if serving {
            &[
                "request",
                "client.wait",
                "check.logits",
                "replay.layer.dense",
            ]
        } else {
            &["train.backward", "deploy.decode", "eval.pass", "device.run"]
        };
        for span in spans {
            assert!(by_name.get(span).is_some(), "{workload} trace lacks {span}");
        }
    }

    // A result compared with itself passes every bound.
    let same = benchmark()
        .arg("compare")
        .arg(out.join("result.json"))
        .arg(out.join("result.json"))
        .output()
        .expect("start compare");
    let report = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{report}");
    assert!(
        report.contains("owner_flow") && report.contains("ms_b"),
        "{report}"
    );
    assert!(!report.contains("FAIL"), "{report}");
}

#[test]
fn driver_invocation_ends_with_the_result_line() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("driver");
    let run = benchmark()
        .args(["run", "--workload", "serve_tiny", "--seed", "9"])
        .args(["--seconds", "1", "--trace", "0", "--out"])
        .arg(&out)
        .output()
        .expect("start the benchmark");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let line = Json::parse(stdout.lines().last().expect("output")).expect("JSON last line");
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = line.get("metrics").expect("metrics");
    assert_eq!(
        metrics.members().len(),
        4,
        "every end-to-end metric, nothing else"
    );
    let setup = metrics.get("setup_s").expect("setup_s");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert!(setup.get("value").and_then(Json::as_f64).unwrap() > 0.0);

    // Bad arguments are refused with a message, not a panic.
    let bad = benchmark()
        .args(["run", "--workload", "nope"])
        .output()
        .expect("start the benchmark");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown workload"));
}
