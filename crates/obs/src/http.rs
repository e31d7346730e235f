//! Metrics exposition over minimal HTTP/1.0, on the serving stack's own
//! `poll(2)` machinery ([`hpnn_serve::event::Poller`]) — one nonblocking
//! listener thread, no per-connection threads, no HTTP library.
//!
//! Endpoints:
//!
//! | path       | body                                                   |
//! |------------|--------------------------------------------------------|
//! | `/metrics` | Prometheus text format: cumulative counters, gauges, windowed stage quantiles, SLO breach counters |
//! | `/healthz` | `ok` — the listener thread itself is alive              |
//! | `/readyz`  | `ok` / 503 `draining` via the [`ReadyCheck`]            |
//! | `/series`  | the time-series ring as JSON (what `hpnn top` renders)  |
//! | `/`        | a plain-text index of the above                         |
//!
//! Every response is `HTTP/1.0` with `Content-Length` and
//! `Connection: close`, so any client — `curl`, Prometheus, python
//! `urllib`, or a five-line `TcpStream` loop — can speak it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hpnn_serve::event::{fd_of, Poller, Ready};
use hpnn_serve::{HistogramSnapshot, RowKind};

use crate::{ObsState, ReadyCheck};

/// Per-request read cap: a GET line plus a few headers fits comfortably;
/// anything larger is not a scrape.
const MAX_REQUEST: usize = 8 * 1024;

/// Idle cap per connection: a scraper that neither finishes its request
/// nor drains its response within this window is dropped.
const CONN_TIMEOUT: Duration = Duration::from_secs(5);

/// Binds `addr` and spawns the listener thread; returns the bound address
/// (resolves port 0) and the join handle. The thread exits promptly once
/// `stop` is set — its poll timeout is 100 ms.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn_listener(
    addr: &str,
    state: Arc<ObsState>,
    ready: ReadyCheck,
    stop: Arc<AtomicBool>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("hpnn-obs-http".into())
        .spawn(move || listener_loop(listener, state, ready, stop))?;
    Ok((bound, handle))
}

struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    written: usize,
    replied: bool,
    opened: Instant,
}

impl HttpConn {
    fn new(stream: TcpStream) -> HttpConn {
        HttpConn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            written: 0,
            replied: false,
            opened: Instant::now(),
        }
    }

    /// Advances the connection; returns false once it should be dropped.
    fn drive(
        &mut self,
        can_read: bool,
        can_write: bool,
        state: &ObsState,
        ready: &ReadyCheck,
    ) -> bool {
        if !self.replied && can_read {
            let mut chunk = [0u8; 1024];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => return false, // client gone before a request
                    Ok(n) => {
                        self.buf.extend_from_slice(&chunk[..n]);
                        if self.buf.len() > MAX_REQUEST {
                            return false;
                        }
                        // Headers complete?
                        if self.buf.windows(4).any(|w| w == b"\r\n\r\n")
                            || self.buf.windows(2).any(|w| w == b"\n\n")
                        {
                            self.out = respond(&self.buf, state, ready);
                            self.replied = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => return false,
                }
            }
        }
        if self.replied && can_write {
            while self.written < self.out.len() {
                match self.stream.write(&self.out[self.written..]) {
                    Ok(0) => return false,
                    Ok(n) => self.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => return false,
                }
            }
            if self.written == self.out.len() {
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                return false; // done: HTTP/1.0, one request per connection
            }
        }
        self.opened.elapsed() < CONN_TIMEOUT
    }
}

fn listener_loop(
    listener: TcpListener,
    state: Arc<ObsState>,
    ready: ReadyCheck,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<HttpConn> = Vec::new();
    let mut poller = Poller::new();
    while !stop.load(Ordering::Acquire) {
        poller.clear();
        let listen_idx = poller.register(
            fd_of(&listener),
            Ready {
                readable: true,
                writable: false,
            },
        );
        let conn_idx: Vec<usize> = conns
            .iter()
            .map(|c| {
                poller.register(
                    fd_of(&c.stream),
                    Ready {
                        readable: !c.replied,
                        writable: c.replied && c.written < c.out.len(),
                    },
                )
            })
            .collect();
        if poller.poll(Duration::from_millis(100)).is_err() {
            // poll(2) failing persistently would spin; back off a little.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        if poller.ready(listen_idx).readable {
            loop {
                match listener.accept() {
                    Ok((s, _)) => {
                        if s.set_nonblocking(true).is_ok() {
                            conns.push(HttpConn::new(s));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        let mut kept = Vec::with_capacity(conns.len());
        for (i, mut c) in conns.drain(..).enumerate() {
            // Connections accepted above joined after this round's poll
            // registration; they have no slot yet and get driven next loop.
            let keep = match conn_idx.get(i) {
                Some(&slot) => {
                    let r = poller.ready(slot);
                    c.drive(r.readable, r.writable, &state, &ready)
                }
                None => true,
            };
            if keep {
                kept.push(c);
            }
        }
        conns = kept;
    }
}

/// Builds the full HTTP response for one buffered request.
fn respond(request: &[u8], state: &ObsState, ready: &ReadyCheck) -> Vec<u8> {
    let line = request
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(b"");
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return http_response(405, "text/plain; charset=utf-8", "method not allowed\n");
    }
    // Ignore any query string: `/series?x=1` is `/series`.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => http_response(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &render_prometheus(state),
        ),
        "/healthz" => http_response(200, "text/plain; charset=utf-8", "ok\n"),
        "/readyz" => {
            if ready() {
                http_response(200, "text/plain; charset=utf-8", "ok\n")
            } else {
                http_response(503, "text/plain; charset=utf-8", "draining\n")
            }
        }
        "/series" => http_response(200, "application/json", &render_series(state)),
        "/" => http_response(
            200,
            "text/plain; charset=utf-8",
            "hpnn-obs endpoints: /metrics /healthz /readyz /series\n",
        ),
        _ => http_response(404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn http_response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Renders the Prometheus text format: every row of the stats table from a
/// fresh snapshot (a counter as `hpnn_<name>_total`, a gauge as
/// `hpnn_<name>`, `HELP` from the row's description), windowed stage
/// quantiles from the newest ring point, and the watchdog counters. Rule
/// metrics are labelled by index (`rule="0"`) with the rule text in a
/// comment, keeping label values free of spaces and quoting hazards.
pub fn render_prometheus(state: &ObsState) -> String {
    let snap = state.current();
    let mut out = String::with_capacity(4096);
    let mut sample = |name: &str, kind: &str, help: &str, v: String| {
        out.push_str(&format!(
            "# HELP hpnn_{name} {help}\n# TYPE hpnn_{name} {kind}\nhpnn_{name} {v}\n"
        ));
    };
    for row in snap.rows() {
        match row.kind {
            RowKind::Counter => sample(
                &format!("{}_total", row.name),
                "counter",
                row.description,
                row.value.to_string(),
            ),
            RowKind::Gauge => sample(row.name, "gauge", row.description, row.value.to_string()),
        }
    }
    sample(
        "uptime_seconds",
        "gauge",
        "Server uptime.",
        format!("{:.3}", snap.uptime_ns as f64 / 1e9),
    );

    // Windowed stage quantiles from the newest completed tick; omitted
    // entirely until the collector has an interval (a scrape then sees the
    // counters but no latency series — correct, not a fake zero).
    let window = state.with_points(|ring| ring.latest().map(|p| p.delta.clone()));
    if let Some(delta) = window {
        out.push_str(
            "# HELP hpnn_stage_latency_seconds Windowed stage latency quantiles (last tick).\n\
             # TYPE hpnn_stage_latency_seconds gauge\n",
        );
        let stages: [(&str, &HistogramSnapshot); 5] = [
            ("e2e", &delta.e2e),
            ("queue_wait", &delta.queue_wait),
            ("batch_fill", &delta.batch_fill),
            ("forward", &delta.forward),
            ("writeback", &delta.writeback),
        ];
        for (stage, h) in stages {
            if h.count == 0 {
                continue;
            }
            for (label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "hpnn_stage_latency_seconds{{stage=\"{stage}\",quantile=\"{label}\"}} {:.6}\n",
                    h.quantile_upper_ns(q) as f64 / 1e9
                ));
            }
        }
        out.push_str(
            "# HELP hpnn_interval_rps Answered requests per second over the last tick.\n\
             # TYPE hpnn_interval_rps gauge\n",
        );
        out.push_str(&format!("hpnn_interval_rps {:.3}\n", delta.rps()));
    }

    out.push_str(
        "# HELP hpnn_slo_breaches_total SLO watchdog breaches across all rules.\n\
         # TYPE hpnn_slo_breaches_total counter\n",
    );
    out.push_str(&format!(
        "hpnn_slo_breaches_total {}\n",
        state.breaches_total()
    ));
    if !state.rules().is_empty() {
        out.push_str(
            "# HELP hpnn_slo_rule_breaches Breaches per rule, labelled by index.\n\
             # TYPE hpnn_slo_rule_breaches counter\n",
        );
        for (idx, rule) in state.rules().iter().enumerate() {
            out.push_str(&format!("# rule {idx}: {}\n", rule.text()));
            out.push_str(&format!(
                "hpnn_slo_rule_breaches{{rule=\"{idx}\"}} {}\n",
                state.rule_breaches(idx)
            ));
        }
    }
    out.push_str(
        "# HELP hpnn_flight_dumps_total Flight-recorder dump files written.\n\
         # TYPE hpnn_flight_dumps_total counter\n",
    );
    out.push_str(&format!(
        "hpnn_flight_dumps_total {}\n",
        state.dumps_written()
    ));
    out
}

fn quantiles_json(h: &HistogramSnapshot, qs: &[(&str, f64)]) -> String {
    let fields: Vec<String> = qs
        .iter()
        .map(|(name, q)| format!("\"{name}\":{:.1}", h.quantile_upper_ns(*q) as f64 / 1e3))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders the `/series` JSON: header (tick, breach totals, rules) plus one
/// object per ring point, oldest first. A point carries every row of the
/// stats table under the row's name (counters as the interval's increment,
/// gauges as the level at its end) beside the derived rates and quantiles.
pub fn render_series(state: &ObsState) -> String {
    let uptime_ns = state
        .last_snapshot()
        .map(|s| s.uptime_ns)
        .unwrap_or_else(|| state.current().uptime_ns);
    let mut out = String::with_capacity(8192);
    out.push_str(&format!(
        "{{\"tick_ms\":{},\"uptime_ns\":{uptime_ns},\"breaches_total\":{},\"dumps\":{},",
        state.tick().as_millis(),
        state.breaches_total(),
        state.dumps_written(),
    ));
    out.push_str("\"slo\":[");
    for (idx, r) in state.rules().iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":\"");
        hpnn_trace::json_escape_into(&mut out, &r.text());
        out.push_str(&format!("\",\"breaches\":{}}}", state.rule_breaches(idx)));
    }
    out.push_str(&format!(
        "],\"history\":{},",
        state.with_points(|r| r.capacity())
    ));
    out.push_str("\"points\":[");
    state.with_points(|ring| {
        for (i, p) in ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let d = &p.delta;
            let shards: Vec<String> = d
                .shards
                .iter()
                .map(|s| {
                    format!(
                        "{{\"model\":{},\"shard\":{},\"active\":{},\"rps\":{:.3},\
                         \"fwd_p50_us\":{:.1},\"queue_p50_us\":{:.1}}}",
                        s.model,
                        s.shard,
                        s.active,
                        d.rate(s.forward.count),
                        s.forward.quantile_upper_ns(0.5) as f64 / 1e3,
                        s.queue_wait.quantile_upper_ns(0.5) as f64 / 1e3,
                    )
                })
                .collect();
            out.push_str(&format!(
                "{{\"seq\":{},\"at_ns\":{},\"interval_ns\":{},\"rps\":{:.3},\"rows_ps\":{:.3},",
                p.seq,
                p.at_ns,
                d.interval_ns,
                d.rps(),
                d.rate(d.rows),
            ));
            // Every row of the stats table under its own name.
            for row in d.rows() {
                out.push_str(&format!("\"{}\":{},", row.name, row.value));
            }
            out.push_str(&format!(
                "\"breaches\":{},\"e2e_us\":{},\"queue_us\":{},\"shards\":[{}]}}",
                p.breaches,
                quantiles_json(&d.e2e, &[("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]),
                quantiles_json(&d.queue_wait, &[("p50", 0.50), ("p99", 0.99)]),
                shards.join(","),
            ));
        }
    });
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::slo::SloRule;
    use hpnn_serve::{Metrics, Reply, StatsSnapshot, PROTOCOL_VERSION, STATS_ROWS};

    fn test_state(rules: Vec<SloRule>) -> (Arc<Metrics>, ObsState) {
        let m = Arc::new(Metrics::new());
        let src = Arc::clone(&m);
        let state = ObsState::new(
            Duration::from_millis(10),
            8,
            rules,
            None,
            Arc::new(move || src.snapshot()),
        )
        .unwrap();
        (m, state)
    }

    fn tick(state: &ObsState) {
        std::thread::sleep(Duration::from_millis(2));
        state.observe_now();
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let (m, state) = test_state(vec![SloRule::parse("p99_ms > 50").unwrap()]);
        Metrics::add(&m.requests, 10);
        Metrics::add(&m.replies_ok, 9);
        m.e2e.record(3_000_000);
        tick(&state); // baseline
        m.e2e.record(4_000_000);
        Metrics::bump(&m.replies_ok);
        tick(&state); // first interval
        let text = render_prometheus(&state);
        for name in [
            "hpnn_requests_total",
            "hpnn_replies_ok_total",
            "hpnn_worker_panics_total",
            "hpnn_keyed_requests_total",
            "hpnn_inflight",
            "hpnn_uptime_seconds",
            "hpnn_slo_breaches_total",
            "hpnn_slo_rule_breaches{rule=\"0\"}",
            "hpnn_flight_dumps_total",
            "hpnn_stage_latency_seconds{stage=\"e2e\",quantile=\"0.99\"}",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // The exposition contract scrapers rely on: every sample line is
        // exactly `name value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            assert_eq!(
                line.split_whitespace().count(),
                2,
                "malformed sample line: {line}"
            );
        }
    }

    #[test]
    fn series_json_parses_and_carries_points() {
        let (m, state) = test_state(vec![SloRule::parse("worker_panics > 0").unwrap()]);
        tick(&state); // baseline
        Metrics::add(&m.replies_ok, 5);
        Metrics::bump(&m.worker_panics);
        m.e2e.record(2_000_000);
        tick(&state);
        let doc = Json::parse(&render_series(&state)).expect("series must be valid JSON");
        assert_eq!(doc.get("tick_ms").unwrap().as_u64(), Some(10));
        assert_eq!(doc.get("breaches_total").unwrap().as_u64(), Some(1));
        let slo = doc.get("slo").unwrap().as_arr().unwrap();
        assert_eq!(
            slo[0].get("rule").unwrap().as_str(),
            Some("worker_panics > 0")
        );
        let points = doc.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("worker_panics").unwrap().as_u64(), Some(1));
        assert_eq!(points[0].get("breaches").unwrap().as_u64(), Some(1));
        assert!(
            points[0]
                .get("e2e_us")
                .unwrap()
                .get("p99")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    /// Walks the stats table instead of naming rows: whatever is declared
    /// there — today's rows or one added tomorrow — reaches the `STATS`
    /// wire, `/metrics`, `/series` and `delta_since` with no other edit.
    #[test]
    fn every_table_row_reaches_every_surface() {
        // Row `i` reads `tick * (100 + i)`: distinct per row and per tick.
        let snapshot_at = |tick: u64| {
            let mut s = StatsSnapshot {
                uptime_ns: tick * 1_000_000,
                snapshot_seq: tick,
                ..StatsSnapshot::default()
            };
            for (i, slot) in s.rows_mut().enumerate() {
                *slot = tick * (100 + i as u64);
            }
            s
        };
        let (earlier, later) = (snapshot_at(1), snapshot_at(3));

        let mut frame = hpnn_bytes::BytesMut::new();
        Reply::StatsOk(Box::new(later.clone())).encode(&mut frame, PROTOCOL_VERSION, 1);
        let Ok((_, _, Reply::StatsOk(decoded))) = Reply::decode(&frame[4..]) else {
            panic!("STATS_OK must decode");
        };

        let current = later.clone();
        let state = ObsState::new(
            Duration::from_millis(10),
            8,
            Vec::new(),
            None,
            Arc::new(move || current.clone()),
        )
        .unwrap();
        state.observe(earlier.clone());
        state.observe(later.clone());
        let metrics = render_prometheus(&state);
        let series = Json::parse(&render_series(&state)).expect("series must be valid JSON");
        let point = &series.get("points").unwrap().as_arr().unwrap()[0];
        let delta = later.delta_since(&earlier).unwrap();

        assert_eq!(later.rows().count(), STATS_ROWS);
        let surfaces = later.rows().zip(decoded.rows()).zip(delta.rows());
        for (i, ((row, wire), diffed)) in surfaces.enumerate() {
            let (then, now) = (100 + i as u64, 3 * (100 + i as u64));
            assert_eq!(row.value, now, "{}", row.name);
            assert_eq!(wire, row, "wire round trip");
            let (metric, kind, interval) = match row.kind {
                RowKind::Counter => (format!("hpnn_{}_total", row.name), "counter", now - then),
                RowKind::Gauge => (format!("hpnn_{}", row.name), "gauge", now),
            };
            assert_eq!(diffed.value, interval, "{} over the interval", row.name);
            assert_eq!((diffed.name, diffed.kind), (row.name, row.kind));
            let sample = format!(
                "# HELP {metric} {}\n# TYPE {metric} {kind}\n{metric} {now}\n",
                row.description
            );
            assert!(
                metrics.contains(&sample),
                "missing:\n{sample}in:\n{metrics}"
            );
            for comment in ["HELP", "TYPE"] {
                let line = format!("# {comment} {metric} ");
                assert_eq!(metrics.matches(&line).count(), 1, "one {line}");
            }
            assert_eq!(
                point.get(row.name).and_then(Json::as_u64),
                Some(interval),
                "/series key {}",
                row.name
            );
        }
    }

    #[test]
    fn listener_serves_all_endpoints() {
        let (_m, state) = test_state(Vec::new());
        tick(&state);
        tick(&state);
        let state = Arc::new(state);
        let stop = Arc::new(AtomicBool::new(false));
        let serving = Arc::new(AtomicBool::new(true));
        let ready: ReadyCheck = {
            let serving = Arc::clone(&serving);
            Arc::new(move || serving.load(Ordering::Relaxed))
        };
        let (addr, handle) =
            spawn_listener("127.0.0.1:0", Arc::clone(&state), ready, Arc::clone(&stop)).unwrap();

        let get = |path: &str| -> (u16, String) {
            let mut s = TcpStream::connect(addr).unwrap();
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
        };

        let (code, body) = get("/healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, body) = get("/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("hpnn_requests_total"));
        let (code, body) = get("/series");
        assert_eq!(code, 200);
        assert!(Json::parse(&body).is_ok());
        let (code, _) = get("/nope");
        assert_eq!(code, 404);
        let (code, _) = get("/readyz");
        assert_eq!(code, 200);
        serving.store(false, Ordering::Relaxed);
        let (code, body) = get("/readyz");
        assert_eq!((code, body.as_str()), (503, "draining\n"));

        // Non-GET is refused, connection still answered.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 405"));

        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }
}
