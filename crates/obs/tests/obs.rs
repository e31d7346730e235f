//! End-to-end observer tests against a real serving stack: a live
//! `Server`, a live `Observer`, real TCP on both the serving and the
//! exposition side.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::mlp;
use hpnn_obs::json::Json;
use hpnn_obs::{FlightConfig, ObsOptions, Observer};
use hpnn_serve::{InferMode, ServeConfig, ServeRegistry, Server, Session};
use hpnn_tensor::Rng;

const IN_FEATURES: usize = 6;

fn mlp_server(seed: u64) -> Server {
    let spec = mlp(IN_FEATURES, &[10], 4);
    let mut rng = Rng::new(seed);
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).unwrap();
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
    let mut registry = ServeRegistry::new();
    registry.add("mlp", model, Some(KeyVault::provision(key, "tpu-0")));
    Server::start(registry, ServeConfig::default(), "127.0.0.1:0").unwrap()
}

fn observer_for(server: &Arc<Server>, opts: ObsOptions) -> Observer {
    let source = {
        let s = Arc::clone(server);
        Arc::new(move || s.metrics())
    };
    let ready = {
        let s = Arc::clone(server);
        Arc::new(move || s.is_serving())
    };
    Observer::start(opts, source, ready).unwrap()
}

/// Blocks until the collector took its baseline snapshot, so traffic
/// driven afterwards is fully covered by interval deltas.
fn wait_for_baseline(obs: &Observer) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while obs.state().last_snapshot().is_none() {
        assert!(Instant::now() < deadline, "collector never took a baseline");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn drive_load(server: &Server, requests: usize) {
    let mut client = Session::connect(server.local_addr()).unwrap();
    client.hello("obs-test").unwrap();
    for i in 0..requests {
        let x = vec![0.25f32 + i as f32 * 0.01; IN_FEATURES];
        client
            .infer(0, InferMode::Keyed, 0, 1, IN_FEATURES, x)
            .unwrap();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("hpnn-obs-it-{tag}-{}-{nanos}", std::process::id()))
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = resp.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// The acceptance scenario: an injected worker panic breaches a
/// `worker_panics > 0` rule, the breach counter moves, and a non-empty,
/// JSON-parseable flight-recorder dump appears — never more than the
/// configured budget.
#[test]
fn slo_breach_fires_counters_and_flight_dump() {
    let server = Arc::new(mlp_server(11));
    let flight = tmp_dir("breach");
    let opts = ObsOptions {
        tick: Duration::from_millis(20),
        history: 64,
        rules: vec![
            hpnn_obs::slo::SloRule::parse("worker_panics > 0").unwrap(),
            // A rule whose metric stays undefined (no remote traffic →
            // requests include no expiries) must never fire alongside.
            hpnn_obs::slo::SloRule::parse("error_rate > 0.5").unwrap(),
        ],
        flight: Some(FlightConfig {
            dir: flight.clone(),
            max_dumps: 2,
            max_events: 512,
        }),
        metrics_addr: None,
    };
    let obs = observer_for(&server, opts);
    wait_for_baseline(&obs);

    // Healthy traffic first, so the trace rings and the series hold a
    // lead-up when the incident fires.
    drive_load(&server, 20);

    // Inject the fault: the next batch the model's worker pops panics.
    assert!(server.fail_next_batch(0));
    let mut client = Session::connect(server.local_addr()).unwrap();
    client.hello("obs-fault").unwrap();
    let x = vec![0.5f32; IN_FEATURES];
    // The panicked worker drains this request with an Internal error.
    let _ = client.infer(0, InferMode::Keyed, 0, 1, IN_FEATURES, x);

    let deadline = Instant::now() + Duration::from_secs(30);
    while obs.state().breaches_total() == 0 {
        assert!(Instant::now() < deadline, "watchdog never saw the panic");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(obs.state().rule_breaches(0) >= 1);
    assert_eq!(
        obs.state().rule_breaches(1),
        0,
        "undefined-metric rule fired"
    );

    // Flight dump: present, within budget, non-empty, valid Chrome JSON.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let n = obs.state().dumps_written();
        if n >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no flight dump appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    let dumps: Vec<PathBuf> = fs::read_dir(&flight)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!dumps.is_empty());
    assert!(dumps.len() <= 2, "dump budget exceeded: {dumps:?}");
    for dump in &dumps {
        let body = fs::read_to_string(dump).unwrap();
        assert!(!body.is_empty(), "empty flight dump {dump:?}");
        let doc = Json::parse(&body).expect("flight dump must be valid JSON");
        assert!(doc.get("traceEvents").is_some());
    }

    // The series recorded the panic in exactly one tick's delta.
    let panics: u64 = obs
        .state()
        .with_points(|r| r.iter().map(|p| p.delta.worker_panics).sum());
    assert_eq!(panics, 1);

    drop(obs);
    server.shutdown();
    fs::remove_dir_all(&flight).unwrap();
}

/// The exposition listener end to end: Prometheus text, health, readiness
/// (flipping on drain), and the JSON series with real traffic in it.
#[test]
fn metrics_endpoints_reflect_real_traffic() {
    let server = Arc::new(mlp_server(13));
    let opts = ObsOptions {
        tick: Duration::from_millis(20),
        history: 32,
        rules: vec![hpnn_obs::slo::SloRule::parse("p99_ms > 60000").unwrap()],
        flight: None,
        metrics_addr: Some("127.0.0.1:0".into()),
    };
    let obs = observer_for(&server, opts);
    let addr = obs.metrics_addr().expect("listener bound synchronously");
    wait_for_baseline(&obs);

    drive_load(&server, 25);

    // Wait until at least one tick captured traffic.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let replied = obs
            .state()
            .with_points(|r| r.iter().map(|p| p.delta.replies_ok).sum::<u64>());
        if replied >= 25 {
            break;
        }
        assert!(Instant::now() < deadline, "collector never saw the traffic");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (code, body) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    for name in [
        "hpnn_requests_total",
        "hpnn_replies_ok_total",
        "hpnn_keyed_requests_total",
        "hpnn_worker_panics_total 0",
        "hpnn_slo_breaches_total 0",
        "hpnn_slo_rule_breaches{rule=\"0\"}",
        "hpnn_stage_latency_seconds{stage=\"e2e\",quantile=\"0.99\"}",
    ] {
        assert!(body.contains(name), "missing {name} in:\n{body}");
    }
    for line in body.lines() {
        if !line.starts_with('#') && !line.is_empty() {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    let (code, body) = http_get(addr, "/series");
    assert_eq!(code, 200);
    let doc = Json::parse(&body).unwrap();
    let points = doc.get("points").unwrap().as_arr().unwrap();
    assert!(!points.is_empty());
    let replied: u64 = points
        .iter()
        .map(|p| p.get("requests").unwrap().as_u64().unwrap())
        .sum();
    assert!(replied >= 25, "series missed traffic: {replied}");
    let keyed: u64 = points
        .iter()
        .map(|p| p.get("keyed_requests").unwrap().as_u64().unwrap())
        .sum();
    assert_eq!(keyed, replied, "all test traffic was keyed");
    assert!(points
        .iter()
        .any(|p| !p.get("shards").unwrap().as_arr().unwrap().is_empty()));

    assert_eq!(http_get(addr, "/healthz"), (200, "ok\n".to_string()));
    assert_eq!(http_get(addr, "/readyz").0, 200);
    assert_eq!(http_get(addr, "/nope").0, 404);

    // Draining flips readiness while the listener stays up.
    server.shutdown();
    let (code, body) = http_get(addr, "/readyz");
    assert_eq!(
        (code, body.as_str()),
        (503, "draining\n"),
        "got {code} {body}"
    );
    drop(obs);
}
