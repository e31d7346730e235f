//! The scrape endpoint end to end: a live `Server` with
//! `ServeConfig::metrics_addr` set, real TCP on both the serving and the
//! scrape side.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::mlp;
use hpnn_serve::{InferMode, RowKind, ServeConfig, ServeRegistry, Server, Session};
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
    let cfg = ServeConfig::builder()
        .metrics_addr("127.0.0.1:0")
        .build()
        .unwrap();
    Server::start(registry, cfg, "127.0.0.1:0").unwrap()
}

/// Sends `request` as is and returns the raw response (empty if the
/// endpoint dropped the connection without one).
fn send_raw(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A refused write means the endpoint already dropped us.
    let _ = s.write_all(request);
    let mut resp = Vec::new();
    // A reset (unread bytes at close) reads as an error: no reply either way.
    let _ = s.read_to_end(&mut resp);
    resp
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let resp = send_raw(addr, format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes());
    let resp = String::from_utf8(resp).unwrap();
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = resp.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// Every sample of a scrape, keyed by its series (`name` or
/// `name{labels}`), plus the histogram bucket values in document order.
fn samples(body: &str) -> (HashMap<String, f64>, Vec<(String, f64)>) {
    let mut all = HashMap::new();
    let mut buckets = Vec::new();
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.split_once(' ').expect("`series value`");
        let value: f64 = value.parse().expect("numeric sample");
        if series.contains("_bucket{") {
            buckets.push((series.to_string(), value));
        }
        all.insert(series.to_string(), value);
    }
    (all, buckets)
}

#[test]
fn listener_serves_all_endpoints() {
    let server = mlp_server(13);
    let addr = server.metrics_addr().expect("endpoint bound at start");

    assert_eq!(http_get(addr, "/healthz"), (200, "ok\n".to_string()));
    assert_eq!(http_get(addr, "/readyz"), (200, "ok\n".to_string()));
    let (code, body) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert!(body.contains("# TYPE hpnn_requests_total counter"));
    assert!(body.contains("# TYPE hpnn_e2e_seconds histogram"));
    assert_eq!(http_get(addr, "/").0, 200);
    assert_eq!(http_get(addr, "/nope").0, 404);
    assert_eq!(http_get(addr, "/series").0, 404, "the ring is gone");

    // Hostile requests over a live socket: each gets its status and the
    // listener keeps serving.
    let table: [(&[u8], &str); 8] = [
        (b"\r\n\r\n", "HTTP/1.0 400 "),
        (b"\xff\xfe\x00\x01\x80 garbage\x7f\r\n\r\n", "HTTP/1.0 400 "),
        (b"GET\r\n\r\n", "HTTP/1.0 400 "),
        (b"GET /metrics?x=1 HTTP/1.0\r\n\r\n", "HTTP/1.0 200 "),
        (b"get /metrics HTTP/1.0\r\n\r\n", "HTTP/1.0 405 "),
        (b"POST /metrics HTTP/1.0\r\n\r\n", "HTTP/1.0 405 "),
        (b"GET /healthz\n\n", "HTTP/1.0 200 "),
        (b"GET /readyz HTTP/1.0\r\nHost: x\r\n\r\n", "HTTP/1.0 200 "),
    ];
    for (request, want) in table {
        let resp = send_raw(addr, request);
        assert!(
            resp.starts_with(want.as_bytes()),
            "{:?} got {:?}",
            String::from_utf8_lossy(request),
            String::from_utf8_lossy(&resp)
        );
    }

    // 8 KiB + 1 bytes and no header terminator: not a scrape. Dropped
    // with no reply, and the listener is still serving.
    let oversized = vec![b'a'; 8 * 1024 + 1];
    assert!(
        send_raw(addr, &oversized).is_empty(),
        "oversized request answered"
    );
    assert_eq!(http_get(addr, "/healthz").0, 200);

    // A client SHUTDOWN drains the server: `/readyz` says so while the
    // endpoint is still up ...
    Session::connect(server.local_addr())
        .unwrap()
        .shutdown()
        .unwrap();
    assert!(!server.is_serving());
    assert_eq!(http_get(addr, "/readyz"), (503, "draining\n".to_string()));
    // ... and once `shutdown` returns the port is released.
    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "metrics port still accepting after shutdown"
    );
    server.shutdown(); // idempotent
}

/// N keyed requests on a real server: every latency histogram counts
/// exactly the N replies, buckets never fall as `le` grows, `+Inf` equals
/// `_count`, and each table row reads what the server's own snapshot
/// reads.
#[test]
fn metrics_endpoints_reflect_real_traffic() {
    const N: usize = 25;
    let server = mlp_server(11);
    let addr = server.metrics_addr().unwrap();
    let mut client = Session::connect(server.local_addr()).unwrap();
    client.hello("expose-test").unwrap();
    for i in 0..N {
        let x = vec![0.25f32 + i as f32 * 0.01; IN_FEATURES];
        client
            .infer(0, InferMode::Keyed, 0, 1, IN_FEATURES, x)
            .unwrap();
    }

    let before = server.metrics();
    let (code, body) = http_get(addr, "/metrics");
    let after = server.metrics();
    assert_eq!(code, 200);
    let (all, buckets) = samples(&body);

    for (row, later) in before.rows().zip(after.rows()) {
        let metric = match row.kind {
            RowKind::Counter => format!("hpnn_{}_total", row.name),
            RowKind::Gauge => format!("hpnn_{}", row.name),
        };
        let scraped = all[&metric] as u64;
        assert!(
            (row.value.min(later.value)..=row.value.max(later.value)).contains(&scraped),
            "{metric} = {scraped}, snapshots read {} and {}",
            row.value,
            later.value
        );
    }
    let n = N as f64;
    assert_eq!(all["hpnn_replies_ok_total"], n);
    assert_eq!(all["hpnn_keyed_requests_total"], n);
    for h in ["e2e", "forward", "queue_wait", "batch_fill", "writeback"] {
        let count = all[&format!("hpnn_{h}_seconds_count")];
        assert_eq!(count, n, "{h} count");
        assert_eq!(
            all[&format!("hpnn_{h}_seconds_bucket{{le=\"+Inf\"}}")],
            count
        );
        assert!(all[&format!("hpnn_{h}_seconds_sum")] > 0.0, "{h} sum");
    }
    assert_eq!(all["hpnn_depth_count"], n, "one depth sample per admission");

    // Cumulative buckets: within each family, never decreasing with `le`.
    let mut prev: Option<(&str, f64)> = None;
    for (series, value) in &buckets {
        let family = series.split('{').next().unwrap();
        if let Some((f, v)) = prev {
            if f == family {
                assert!(*value >= v, "{series} fell from {v} to {value}");
            }
        }
        prev = Some((family, *value));
    }
    assert_eq!(buckets.len(), 6 * hpnn_serve::HISTOGRAM_BUCKETS);

    server.shutdown();
}
