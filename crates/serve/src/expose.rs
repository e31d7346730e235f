//! The Prometheus scrape endpoint: minimal HTTP/1.0 on the serving stack's
//! own `poll(2)` machinery ([`Poller`]) — one nonblocking listener thread,
//! no per-connection threads, no HTTP library. [`Server::start`] runs it
//! when [`ServeConfig::metrics_addr`] is set.
//!
//! | path       | body                                                   |
//! |------------|--------------------------------------------------------|
//! | `/metrics` | Prometheus text format from a fresh snapshot: every stats-table row, the uptime, and every table histogram as a Prometheus histogram |
//! | `/healthz` | `ok` — the listener thread itself is alive              |
//! | `/readyz`  | `ok`, or 503 `draining` once the server stops admitting work |
//! | `/`        | a plain-text index of the above                         |
//!
//! Everything is rendered at scrape time from cumulative counters, and
//! nothing is kept between scrapes: windows (a rate, a p99 over the last
//! minute) are the scraper's job, through `rate()` and
//! `histogram_quantile()`. Between scrapes the thread sleeps in `poll` with
//! no timeout; [`Server::shutdown`] wakes it through a [`WakePipe`].
//!
//! Every response is `HTTP/1.0` with `Content-Length` and
//! `Connection: close`, so any client — `curl`, Prometheus, python
//! `urllib`, or a five-line `TcpStream` loop — can speak it.
//!
//! [`Server::start`]: crate::server::Server::start
//! [`Server::shutdown`]: crate::server::Server::shutdown
//! [`ServeConfig::metrics_addr`]: crate::config::ServeConfig::metrics_addr

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::event::{fd_of, AcceptBackoff, Poller, Ready, WakePipe, Waker};
use crate::metrics::{HistogramUnit, RowKind, StatsSnapshot, HISTOGRAM_BUCKETS};
use crate::server::Shared;

/// Per-request read cap: a GET line plus a few headers fits comfortably;
/// anything larger is not a scrape, and is dropped without a reply.
const MAX_REQUEST: usize = 8 * 1024;

/// Idle cap per connection: a scraper that neither finishes its request
/// nor drains its response within this window is dropped.
const CONN_TIMEOUT: Duration = Duration::from_secs(5);

const TEXT: &str = "text/plain; charset=utf-8";

/// The running endpoint: where it is bound and how to stop it.
pub(crate) struct Endpoint {
    addr: SocketAddr,
    stop: Waker,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Endpoint {
    /// Spawns the listener thread over an already bound `listener`.
    ///
    /// # Errors
    ///
    /// Propagates socket setup and thread spawn failures.
    pub(crate) fn start(listener: TcpListener, shared: Arc<Shared>) -> io::Result<Endpoint> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let pipe = WakePipe::new()?;
        let stop = pipe.waker();
        let thread = std::thread::Builder::new()
            .name("hpnn-metrics".into())
            .spawn(move || listen(&listener, &pipe, &shared))?;
        Ok(Endpoint {
            addr,
            stop,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The bound address (resolves port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wakes the listener thread and waits for it to exit; the port is
    /// released on return. Idempotent: a concurrent second call waits for
    /// the first to finish.
    pub(crate) fn stop(&self) {
        let mut slot = self
            .thread
            .lock()
            .expect("held only by stop, which never panics");
        if let Some(thread) = slot.take() {
            self.stop.wake();
            let _ = thread.join();
        }
    }
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
    fn drive(&mut self, ready: Ready, shared: &Shared) -> bool {
        if !self.replied && ready.readable {
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
                            self.out = respond(&self.buf, shared.serving(), || shared.stats());
                            self.replied = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => return false,
                }
            }
        }
        if self.replied && ready.writable {
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

fn listen(listener: &TcpListener, stop: &WakePipe, shared: &Shared) {
    const READ: Ready = Ready {
        readable: true,
        writable: false,
    };
    let mut conns: Vec<HttpConn> = Vec::new();
    let mut poller = Poller::new();
    let mut backoff = AcceptBackoff::new();
    loop {
        poller.clear();
        let stop_idx = poller.register(stop.fd(), READ);
        let listen_idx = poller.register(fd_of(listener), READ);
        for c in &conns {
            poller.register(
                fd_of(&c.stream),
                Ready {
                    readable: !c.replied,
                    writable: c.replied,
                },
            );
        }
        // Wake for a scrape, for shutdown, or at the oldest connection's
        // deadline; with nobody connected there is no timeout at all.
        let timeout = conns
            .iter()
            .map(|c| CONN_TIMEOUT.saturating_sub(c.opened.elapsed()))
            .min()
            .unwrap_or(Duration::MAX);
        if poller.poll(timeout).is_err() {
            // poll(2) failing persistently would spin; back off a little.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        // The pipe's only byte is the stop signal; `drain` also tells a
        // real byte from the always-ready fallback poller.
        if poller.ready(stop_idx).readable && stop.drain() > 0 {
            return;
        }
        let mut slot = listen_idx;
        conns.retain_mut(|c| {
            slot += 1;
            c.drive(poller.ready(slot), shared)
        });
        if poller.ready(listen_idx).readable {
            loop {
                match listener.accept() {
                    Ok((s, _)) => {
                        backoff.on_success();
                        if s.set_nonblocking(true).is_ok() {
                            conns.push(HttpConn::new(s));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        // A persistent failure (e.g. EMFILE) leaves the
                        // listener readable, so poll would return at once:
                        // back off as the serving accept loop does.
                        std::thread::sleep(backoff.on_error());
                        break;
                    }
                }
            }
        }
    }
}

/// Builds the full HTTP response for one buffered request. `stats` is only
/// called for `/metrics`.
fn respond(request: &[u8], serving: bool, stats: impl FnOnce() -> StatsSnapshot) -> Vec<u8> {
    let line = request
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(b"");
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) || !path.starts_with('/') {
        return http_response(400, TEXT, "bad request\n");
    }
    if method != "GET" {
        return http_response(405, TEXT, "method not allowed\n");
    }
    // A query string does not change the document: `/metrics?x=1` is
    // `/metrics`.
    match path.split('?').next().unwrap_or(path) {
        "/metrics" => http_response(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &render_prometheus(&stats()),
        ),
        "/healthz" => http_response(200, TEXT, "ok\n"),
        "/readyz" if serving => http_response(200, TEXT, "ok\n"),
        "/readyz" => http_response(503, TEXT, "draining\n"),
        "/" => http_response(
            200,
            TEXT,
            "hpnn-serve endpoints: /metrics /healthz /readyz\n",
        ),
        _ => http_response(404, TEXT, "not found\n"),
    }
}

fn http_response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
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

/// Renders the Prometheus text format by walking the stats table: a
/// counter row as `hpnn_<name>_total`, a gauge row as `hpnn_<name>`, each
/// with `HELP` from the row's description; `hpnn_uptime_seconds`; and each
/// histogram row as a Prometheus histogram, `hpnn_<name>_seconds_*` for
/// latencies and `hpnn_<name>_*` for unitless values.
fn render_prometheus(snap: &StatsSnapshot) -> String {
    fn family(out: &mut String, name: &str, kind: &str, help: &str) {
        let _ = writeln!(out, "# HELP hpnn_{name} {help}\n# TYPE hpnn_{name} {kind}");
    }
    let mut out = String::with_capacity(16 * 1024);
    for row in snap.rows() {
        let (name, kind) = match row.kind {
            RowKind::Counter => (format!("{}_total", row.name), "counter"),
            RowKind::Gauge => (row.name.to_string(), "gauge"),
        };
        family(&mut out, &name, kind, row.description);
        let _ = writeln!(out, "hpnn_{name} {}", row.value);
    }
    family(&mut out, "uptime_seconds", "gauge", "Server uptime.");
    let _ = writeln!(
        out,
        "hpnn_uptime_seconds {:.3}",
        snap.uptime_ns as f64 / 1e9
    );
    for row in snap.histograms() {
        // Bucket `i` holds [2^i, 2^(i+1)) base units (µs for a latency),
        // so its cumulative count is `le = 2^(i+1)`; the last bucket is
        // open-ended and becomes `+Inf`.
        let (name, base, sum) = match row.unit {
            HistogramUnit::Seconds => (
                format!("{}_seconds", row.name),
                1e-6,
                row.hist.sum_ns as f64 / 1e9,
            ),
            HistogramUnit::Unitless => (row.name.to_string(), 1.0, row.hist.sum_ns as f64),
        };
        family(&mut out, &name, "histogram", row.description);
        let mut cumulative = 0u64;
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            cumulative += row.hist.buckets.get(i).copied().unwrap_or(0);
            let le = (1u64 << (i + 1)) as f64 * base;
            let _ = writeln!(out, "hpnn_{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        // `+Inf` and `_count` are the bucket total rather than the
        // separately loaded `count`, so one scrape is self-consistent even
        // while requests complete.
        let total: u64 = row.hist.buckets.iter().sum();
        let _ = writeln!(
            out,
            "hpnn_{name}_bucket{{le=\"+Inf\"}} {total}\nhpnn_{name}_sum {sum}\nhpnn_{name}_count {total}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, Metrics};
    use crate::protocol::{Reply, PROTOCOL_VERSION};
    use crate::STATS_ROWS;

    fn status_of(response: &[u8]) -> u16 {
        let text = String::from_utf8_lossy(response);
        text.split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0)
    }

    fn body_of(response: &[u8]) -> String {
        let text = String::from_utf8_lossy(response);
        text.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
    }

    /// The sample value of `line` if it is exactly `name value` or
    /// `name{labels} value` with a Prometheus metric name.
    fn sample_value(line: &str) -> Option<f64> {
        let (series, value) = line.split_once(' ')?;
        let name = series.split('{').next()?;
        let valid_name = name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
            && !name.starts_with(|c: char| c.is_ascii_digit());
        let labels_closed = !series.contains('{') || series.ends_with('}');
        (valid_name && labels_closed && !name.is_empty())
            .then(|| value.parse().ok())
            .flatten()
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = Metrics::new();
        Metrics::add(&m.requests, 10);
        Metrics::add(&m.replies_ok, 9);
        m.e2e.record(3_000_000);
        m.e2e.record(500);
        m.e2e.record(u64::MAX / 2); // lands in the open-ended top bucket
        m.depth.record_value(3);
        let text = render_prometheus(&m.snapshot());
        for name in [
            "hpnn_requests_total 10",
            "hpnn_replies_ok_total 9",
            "hpnn_worker_panics_total 0",
            "hpnn_keyed_requests_total 0",
            "hpnn_inflight 0",
            "hpnn_uptime_seconds ",
            "# TYPE hpnn_e2e_seconds histogram",
            "hpnn_e2e_seconds_bucket{le=\"0.000002\"} 1",
            "hpnn_e2e_seconds_bucket{le=\"0.004096\"} 2",
            "hpnn_e2e_seconds_bucket{le=\"8.388608\"} 2",
            "hpnn_e2e_seconds_bucket{le=\"+Inf\"} 3",
            "hpnn_e2e_seconds_count 3",
            "# TYPE hpnn_depth histogram",
            "hpnn_depth_bucket{le=\"2\"} 0",
            "hpnn_depth_bucket{le=\"4\"} 1",
            "hpnn_depth_sum 3",
            "hpnn_depth_count 1",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // The exposition contract scrapers rely on: every sample line is
        // `name value` or `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(sample_value(line).is_some(), "malformed sample: {line}");
        }
        // Retired with the in-process collector and watchdog.
        for gone in ["stage_latency", "interval_rps", "slo_", "flight_"] {
            assert!(!text.contains(gone), "{gone} still rendered");
        }
    }

    /// Walks the stats table instead of naming rows: whatever is declared
    /// there — today's rows or one added tomorrow — reaches the `STATS`
    /// wire, `delta_since` and `/metrics` with no other edit.
    #[test]
    fn every_table_row_reaches_every_surface() {
        // Row `i` reads `tick * (100 + i)`; histogram `j` holds `tick * (j + 1)`
        // samples in each bucket: distinct per row and per tick.
        let snapshot_at = |tick: u64| {
            let mut s = StatsSnapshot {
                uptime_ns: tick * 1_000_000,
                snapshot_seq: tick,
                ..StatsSnapshot::default()
            };
            for (i, slot) in s.rows_mut().enumerate() {
                *slot = tick * (100 + i as u64);
            }
            for (j, h) in s.histograms_mut().enumerate() {
                let per_bucket = tick * (j as u64 + 1);
                h.buckets = vec![per_bucket; HISTOGRAM_BUCKETS];
                h.count = per_bucket * HISTOGRAM_BUCKETS as u64;
                h.sum_ns = tick * 1_000_000_000;
            }
            s
        };
        let (earlier, later) = (snapshot_at(1), snapshot_at(3));

        let mut frame = hpnn_bytes::BytesMut::new();
        Reply::StatsOk(Box::new(later.clone())).encode(&mut frame, PROTOCOL_VERSION, 1);
        let Ok((_, _, Reply::StatsOk(decoded))) = Reply::decode(&frame[4..]) else {
            panic!("STATS_OK must decode");
        };
        assert_eq!(*decoded, later, "wire round trip");
        let metrics = render_prometheus(&later);
        let delta = later.delta_since(&earlier).unwrap();

        assert_eq!(later.rows().count(), STATS_ROWS);
        for (i, (row, diffed)) in later.rows().zip(delta.rows()).enumerate() {
            let (then, now) = (100 + i as u64, 3 * (100 + i as u64));
            assert_eq!(row.value, now, "{}", row.name);
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
        }
        for (j, row) in later.histograms().enumerate() {
            let metric = match row.unit {
                HistogramUnit::Seconds => format!("hpnn_{}_seconds", row.name),
                HistogramUnit::Unitless => format!("hpnn_{}", row.name),
            };
            let head = format!(
                "# HELP {metric} {}\n# TYPE {metric} histogram\n",
                row.description
            );
            assert_eq!(metrics.matches(&head).count(), 1, "{metric} header");
            let total = 3 * (j as u64 + 1) * HISTOGRAM_BUCKETS as u64;
            for tail in [
                format!("{metric}_bucket{{le=\"+Inf\"}} {total}\n"),
                format!("{metric}_count {total}\n"),
            ] {
                assert!(metrics.contains(&tail), "missing {tail}");
            }
            let sum = match row.unit {
                HistogramUnit::Seconds => format!("{metric}_sum 3\n"),
                HistogramUnit::Unitless => format!("{metric}_sum 3000000000\n"),
            };
            assert!(metrics.contains(&sum), "missing {sum}");
        }
    }

    /// Bucket `i` of `[2^i, 2^(i+1))` µs is reported at `le = 2^(i+1)` µs,
    /// with samples on either side of a boundary landing on either side
    /// of its `le`.
    #[test]
    fn latency_buckets_map_to_their_upper_bound() {
        let h = Histogram::new();
        for ns in [1_999, 2_000, 1_048_575_999, 1_048_576_000] {
            h.record(ns);
        }
        let m = Metrics::new();
        let mut snap = m.snapshot();
        snap.forward = h.snapshot();
        let text = render_prometheus(&snap);
        for want in [
            "hpnn_forward_seconds_bucket{le=\"0.000002\"} 1\n",
            "hpnn_forward_seconds_bucket{le=\"0.000004\"} 2\n",
            "hpnn_forward_seconds_bucket{le=\"1.048576\"} 3\n",
            "hpnn_forward_seconds_bucket{le=\"2.097152\"} 4\n",
        ] {
            assert!(text.contains(want), "missing {want}");
        }
    }

    /// Every hostile request the parser can see gets an answer with the
    /// right status, and none panics.
    #[test]
    fn hostile_requests_get_the_right_status() {
        let table: [(&[u8], u16); 11] = [
            (b"\r\n\r\n", 400),
            (b"\n\n", 400),
            (b"\xff\xfe\x00\x01\x80 garbage\x7f\r\n\r\n", 400),
            (b"\x00\x00\x00\x00\r\n\r\n", 400),
            (b"GET\r\n\r\n", 400),
            (b"GET metrics HTTP/1.0\r\n\r\n", 400),
            (b"GET /metrics?x=1 HTTP/1.0\r\n\r\n", 200),
            (b"get /metrics HTTP/1.0\r\n\r\n", 405),
            (b"POST /metrics HTTP/1.0\r\n\r\n", 405),
            (b"GET /series HTTP/1.0\r\n\r\n", 404),
            (b"GET / HTTP/1.0\r\n\r\n", 200),
        ];
        for (request, want) in table {
            let response = respond(request, true, StatsSnapshot::default);
            assert_eq!(
                status_of(&response),
                want,
                "{:?}",
                String::from_utf8_lossy(request)
            );
        }
        let query = respond(b"GET /metrics?x=1\n\n", true, StatsSnapshot::default);
        assert!(body_of(&query).contains("hpnn_requests_total 0"));
    }

    #[test]
    fn readyz_is_503_draining_once_the_server_stops_serving() {
        let get = |serving| {
            respond(
                b"GET /readyz HTTP/1.0\r\n\r\n",
                serving,
                StatsSnapshot::default,
            )
        };
        assert_eq!(
            (status_of(&get(true)), body_of(&get(true))),
            (200, "ok\n".into())
        );
        let draining = get(false);
        assert!(String::from_utf8_lossy(&draining).starts_with("HTTP/1.0 503 Service Unavailable"));
        assert_eq!(body_of(&draining), "draining\n");
    }
}
