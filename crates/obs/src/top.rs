//! `hpnn top` — a terminal dashboard over the `/series` endpoint.
//!
//! Fetches the JSON time series from a running observer, renders rates,
//! stage quantiles, SLO status, and per-shard activity with unicode
//! sparklines, and repeats on an interval (or once with `--once`). Pure
//! client: everything it shows comes over the wire, so it works against
//! any reachable metrics address, local or not.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::json::Json;

/// Dashboard settings.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Metrics listener address, `host:port`.
    pub addr: String,
    /// Render a single frame and exit instead of looping.
    pub once: bool,
    /// Refresh interval in loop mode.
    pub interval: Duration,
}

impl Default for TopConfig {
    fn default() -> Self {
        TopConfig {
            addr: String::from("127.0.0.1:9434"),
            once: true,
            interval: Duration::from_secs(2),
        }
    }
}

/// One blocking HTTP/1.0 GET against the metrics listener; returns the
/// response body.
///
/// # Errors
///
/// Describes connect/read failures and non-200 statuses.
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let status = resp.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("GET {path}: HTTP {status}"));
    }
    resp.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| format!("GET {path}: malformed response"))
}

/// Scales `values` into a `▁▂▃▄▅▆▇█` sparkline (empty input → empty
/// string; an all-zero series renders as all-minimum).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

fn f(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

fn u(v: Option<&Json>) -> u64 {
    v.and_then(Json::as_u64).unwrap_or(0)
}

/// Renders one dashboard frame from a parsed `/series` document.
pub fn render(addr: &str, doc: &Json) -> String {
    let mut out = String::new();
    let points = doc.get("points").and_then(Json::as_arr).unwrap_or(&[]);
    let uptime_s = f(doc.get("uptime_ns")) / 1e9;
    out.push_str(&format!(
        "hpnn top — {addr}   uptime {uptime_s:.1}s   tick {} ms   {} point(s)\n",
        u(doc.get("tick_ms")),
        points.len(),
    ));

    let series = |key: &str| -> Vec<f64> { points.iter().map(|p| f(p.get(key))).collect() };
    let rps = series("rps");
    let rows = series("rows_ps");
    if let Some(last) = points.last() {
        out.push_str(&format!(
            "  rps      {:>9.1}  {}\n",
            f(last.get("rps")),
            sparkline(&rps)
        ));
        out.push_str(&format!(
            "  rows/s   {:>9.1}  {}\n",
            f(last.get("rows_ps")),
            sparkline(&rows)
        ));
        out.push_str(&format!(
            "  inflight {:>9}  open conns {}  busy {}  expired {}  errors {}\n",
            u(last.get("inflight")),
            u(last.get("open_connections")),
            u(last.get("busy")),
            u(last.get("expired")),
            u(last.get("protocol_errors")),
        ));
        out.push_str(&format!(
            "  keyed {}  keyless {}  worker-panics {}\n",
            u(last.get("keyed_requests")),
            u(last.get("keyless_requests")),
            u(last.get("worker_panics")),
        ));
        let e2e = last.get("e2e_us");
        let queue = last.get("queue_us");
        out.push_str(&format!(
            "  e2e p50/p95/p99 {:.1}/{:.1}/{:.1} ms   queue p50/p99 {:.1}/{:.1} ms\n",
            f(e2e.and_then(|q| q.get("p50"))) / 1e3,
            f(e2e.and_then(|q| q.get("p95"))) / 1e3,
            f(e2e.and_then(|q| q.get("p99"))) / 1e3,
            f(queue.and_then(|q| q.get("p50"))) / 1e3,
            f(queue.and_then(|q| q.get("p99"))) / 1e3,
        ));
        let shards = last.get("shards").and_then(Json::as_arr).unwrap_or(&[]);
        for s in shards {
            out.push_str(&format!(
                "  shard m{}/s{} {}  rps {:>8.1}  fwd p50 {:.2} ms  queue p50 {:.2} ms\n",
                u(s.get("model")),
                u(s.get("shard")),
                if s.get("active").and_then(Json::as_bool).unwrap_or(false) {
                    "[active]"
                } else {
                    "[drain] "
                },
                f(s.get("rps")),
                f(s.get("fwd_p50_us")) / 1e3,
                f(s.get("queue_p50_us")) / 1e3,
            ));
        }
    } else {
        out.push_str("  (no completed collector tick yet)\n");
    }

    out.push_str(&format!(
        "  slo breaches {}   flight dumps {}\n",
        u(doc.get("breaches_total")),
        u(doc.get("dumps")),
    ));
    if let Some(rules) = doc.get("slo").and_then(Json::as_arr) {
        for r in rules {
            out.push_str(&format!(
                "    rule \"{}\" — {} breach(es)\n",
                r.get("rule").and_then(Json::as_str).unwrap_or("?"),
                u(r.get("breaches")),
            ));
        }
    }
    out
}

/// Runs the dashboard: fetch, render, print; once or on a loop until the
/// process is killed.
///
/// # Errors
///
/// In `--once` mode any fetch/parse failure is fatal. In loop mode only
/// the *first* fetch is — once a frame has rendered, transient errors are
/// shown in-frame and the loop keeps going.
pub fn run(cfg: &TopConfig) -> Result<(), String> {
    let mut first = true;
    loop {
        let frame = http_get(&cfg.addr, "/series")
            .and_then(|body| Json::parse(&body).map_err(|e| format!("bad /series JSON: {e}")))
            .map(|doc| render(&cfg.addr, &doc));
        match frame {
            Ok(text) => {
                if !cfg.once {
                    // Clear screen, home cursor.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{text}");
                let _ = std::io::stdout().flush();
            }
            Err(e) if cfg.once || first => return Err(e),
            Err(e) => println!("hpnn top: {e} (retrying)"),
        }
        if cfg.once {
            return Ok(());
        }
        first = false;
        std::thread::sleep(cfg.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[0.0, 50.0, 100.0]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().next_back(), Some('█'));
        assert_eq!(s.chars().next(), Some('▁'));
    }

    #[test]
    fn render_survives_minimal_and_full_documents() {
        let doc = Json::parse(r#"{"tick_ms":1000,"uptime_ns":0,"breaches_total":0,"dumps":0,"slo":[],"history":120,"points":[]}"#).unwrap();
        let text = render("127.0.0.1:9434", &doc);
        assert!(text.contains("no completed collector tick"));

        let doc = Json::parse(
            r#"{"tick_ms":1000,"uptime_ns":5000000000,"breaches_total":2,"dumps":1,
                "slo":[{"rule":"p99_ms > 50","breaches":2}],"history":120,
                "points":[{"seq":1,"at_ns":1,"interval_ns":1000000000,"rps":123.4,"rows_ps":123.4,
                 "requests":124,"busy":0,"expired":0,"protocol_errors":0,"batches":10,
                 "inflight":3,"open_connections":4,"keyed_requests":100,"keyless_requests":24,
                 "worker_panics":0,"breaches":0,
                 "e2e_us":{"p50":900.0,"p95":1500.0,"p99":2000.0},"queue_us":{"p50":100.0,"p99":300.0},
                 "shards":[{"model":0,"shard":0,"active":true,"rps":123.4,"fwd_p50_us":800.0,"queue_p50_us":90.0}]}]}"#,
        )
        .unwrap();
        let text = render("127.0.0.1:9434", &doc);
        assert!(text.contains("rps"));
        assert!(text.contains("123.4"));
        assert!(text.contains("[active]"));
        assert!(text.contains("p99_ms > 50"));
        assert!(text.contains("breaches 2"));
    }

    #[test]
    fn http_get_reports_unreachable_addresses() {
        // Port 1 on loopback is essentially never listening.
        let err = http_get("127.0.0.1:1", "/series").unwrap_err();
        assert!(err.contains("connect"), "unexpected error: {err}");
    }
}
