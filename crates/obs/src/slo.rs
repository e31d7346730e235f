//! SLO rules: a tiny grammar over the per-tick [`StatsDelta`].
//!
//! Rules are written `"<metric> <op> <value> [for <n>]"`, e.g.
//! `"p99_ms > 50 for 3"` — breach when the windowed e2e p99 exceeds 50 ms
//! for 3 consecutive ticks. The `for` clause defaults to 1 (breach on the
//! first offending tick). Every metric is evaluated on the *interval*
//! delta, never the cumulative totals, so a breach means the condition
//! held *now*, not averaged over the server's whole life.

use hpnn_serve::StatsDelta;

/// What a rule measures, always over one collector tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloMetric {
    /// Windowed e2e latency p50, in milliseconds.
    P50Ms,
    /// Windowed e2e latency p95, in milliseconds.
    P95Ms,
    /// Windowed e2e latency p99, in milliseconds.
    P99Ms,
    /// Windowed queue-wait p99, in milliseconds.
    QueueP99Ms,
    /// `(expired + protocol_errors) / requests` over the tick.
    ErrorRate,
    /// `busy / (requests + busy)` over the tick — the rejected share of
    /// offered load.
    BusyRate,
    /// Worker panics during the tick.
    WorkerPanics,
    /// `keyless / (keyed + keyless)` admissions over the tick — the
    /// stolen-traffic share under the paper's threat model.
    KeylessShare,
    /// Answered requests per second over the tick.
    Rps,
}

impl SloMetric {
    /// The grammar's name for this metric.
    pub fn name(self) -> &'static str {
        match self {
            SloMetric::P50Ms => "p50_ms",
            SloMetric::P95Ms => "p95_ms",
            SloMetric::P99Ms => "p99_ms",
            SloMetric::QueueP99Ms => "queue_p99_ms",
            SloMetric::ErrorRate => "error_rate",
            SloMetric::BusyRate => "busy_rate",
            SloMetric::WorkerPanics => "worker_panics",
            SloMetric::KeylessShare => "keyless_share",
            SloMetric::Rps => "rps",
        }
    }

    fn from_name(s: &str) -> Option<SloMetric> {
        Some(match s {
            "p50_ms" => SloMetric::P50Ms,
            "p95_ms" => SloMetric::P95Ms,
            "p99_ms" => SloMetric::P99Ms,
            "queue_p99_ms" => SloMetric::QueueP99Ms,
            "error_rate" => SloMetric::ErrorRate,
            "busy_rate" => SloMetric::BusyRate,
            "worker_panics" => SloMetric::WorkerPanics,
            "keyless_share" => SloMetric::KeylessShare,
            "rps" => SloMetric::Rps,
            _ => return None,
        })
    }

    /// The metric's value over one tick, or `None` when undefined this
    /// tick (no samples for a quantile, no admissions for a share). An
    /// undefined metric never breaches — and never feeds a `for` streak.
    pub fn value(self, d: &StatsDelta) -> Option<f64> {
        let quantile_ms = |h: &hpnn_serve::HistogramSnapshot, q: f64| {
            (h.count > 0).then(|| h.quantile_upper_ns(q) as f64 / 1e6)
        };
        match self {
            SloMetric::P50Ms => quantile_ms(&d.e2e, 0.50),
            SloMetric::P95Ms => quantile_ms(&d.e2e, 0.95),
            SloMetric::P99Ms => quantile_ms(&d.e2e, 0.99),
            SloMetric::QueueP99Ms => quantile_ms(&d.queue_wait, 0.99),
            SloMetric::ErrorRate => {
                (d.requests > 0).then(|| (d.expired + d.protocol_errors) as f64 / d.requests as f64)
            }
            SloMetric::BusyRate => {
                let offered = d.requests + d.busy;
                (offered > 0).then(|| d.busy as f64 / offered as f64)
            }
            SloMetric::WorkerPanics => Some(d.worker_panics as f64),
            SloMetric::KeylessShare => {
                let admitted = d.keyed_requests + d.keyless_requests;
                (admitted > 0).then(|| d.keyless_requests as f64 / admitted as f64)
            }
            SloMetric::Rps => Some(d.rps()),
        }
    }
}

/// Comparison operator of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloCmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl SloCmp {
    fn symbol(self) -> &'static str {
        match self {
            SloCmp::Gt => ">",
            SloCmp::Ge => ">=",
            SloCmp::Lt => "<",
            SloCmp::Le => "<=",
        }
    }

    /// Whether `value <op> threshold` holds.
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            SloCmp::Gt => value > threshold,
            SloCmp::Ge => value >= threshold,
            SloCmp::Lt => value < threshold,
            SloCmp::Le => value <= threshold,
        }
    }
}

/// One parsed SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// What to measure each tick.
    pub metric: SloMetric,
    /// How to compare it against [`threshold`](SloRule::threshold).
    pub cmp: SloCmp,
    /// The comparison threshold, in the metric's own unit.
    pub threshold: f64,
    /// Consecutive offending ticks required before a breach fires (≥ 1).
    pub for_ticks: u32,
}

impl SloRule {
    /// Parses `"<metric> <op> <value> [for <n>]"`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem: unknown
    /// metric, bad operator, unparsable threshold, or a zero `for` count.
    pub fn parse(s: &str) -> Result<SloRule, String> {
        let tokens: Vec<&str> = s.split_whitespace().collect();
        if tokens.len() != 3 && tokens.len() != 5 {
            return Err(format!(
                "rule \"{s}\": expected \"<metric> <op> <value> [for <n>]\""
            ));
        }
        let metric = SloMetric::from_name(tokens[0]).ok_or_else(|| {
            format!(
                "rule \"{s}\": unknown metric \"{}\" (one of p50_ms p95_ms p99_ms queue_p99_ms \
                 error_rate busy_rate worker_panics keyless_share rps)",
                tokens[0]
            )
        })?;
        let cmp = match tokens[1] {
            ">" => SloCmp::Gt,
            ">=" => SloCmp::Ge,
            "<" => SloCmp::Lt,
            "<=" => SloCmp::Le,
            other => return Err(format!("rule \"{s}\": bad operator \"{other}\"")),
        };
        let threshold: f64 = tokens[2]
            .parse()
            .map_err(|_| format!("rule \"{s}\": bad threshold \"{}\"", tokens[2]))?;
        let for_ticks = if tokens.len() == 5 {
            if tokens[3] != "for" {
                return Err(format!(
                    "rule \"{s}\": expected \"for\", got \"{}\"",
                    tokens[3]
                ));
            }
            let n: u32 = tokens[4]
                .parse()
                .map_err(|_| format!("rule \"{s}\": bad tick count \"{}\"", tokens[4]))?;
            if n == 0 {
                return Err(format!("rule \"{s}\": \"for 0\" could never fire"));
            }
            n
        } else {
            1
        };
        Ok(SloRule {
            metric,
            cmp,
            threshold,
            for_ticks,
        })
    }

    /// Whether this tick's value (if defined) offends the rule.
    pub fn offends(&self, d: &StatsDelta) -> bool {
        self.metric
            .value(d)
            .is_some_and(|v| self.cmp.holds(v, self.threshold))
    }

    /// The canonical text of the rule (parse → text round-trips up to
    /// whitespace).
    pub fn text(&self) -> String {
        let mut s = format!(
            "{} {} {}",
            self.metric.name(),
            self.cmp.symbol(),
            self.threshold
        );
        if self.for_ticks > 1 {
            s.push_str(&format!(" for {}", self.for_ticks));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        let r = SloRule::parse("p99_ms > 50").unwrap();
        assert_eq!(r.metric, SloMetric::P99Ms);
        assert_eq!(r.cmp, SloCmp::Gt);
        assert_eq!(r.threshold, 50.0);
        assert_eq!(r.for_ticks, 1);
        let r = SloRule::parse("  error_rate >= 0.01   for 3 ").unwrap();
        assert_eq!(r.metric, SloMetric::ErrorRate);
        assert_eq!(r.for_ticks, 3);
        assert_eq!(r.text(), "error_rate >= 0.01 for 3");
        let r = SloRule::parse("rps < 100").unwrap();
        assert_eq!(r.cmp, SloCmp::Lt);
        assert_eq!(r.text(), "rps < 100");
    }

    #[test]
    fn rejects_bad_rules() {
        assert!(SloRule::parse("").is_err());
        assert!(SloRule::parse("p99_ms >").is_err());
        assert!(SloRule::parse("nope > 1")
            .unwrap_err()
            .contains("unknown metric"));
        // The cluster split's metric went with it: typed, naming the metric.
        let retired = SloRule::parse("trusted_refused > 0").unwrap_err();
        assert!(
            retired.contains("unknown metric \"trusted_refused\""),
            "{retired}"
        );
        assert!(SloRule::parse("p99_ms ! 1")
            .unwrap_err()
            .contains("bad operator"));
        assert!(SloRule::parse("p99_ms > banana")
            .unwrap_err()
            .contains("bad threshold"));
        assert!(SloRule::parse("p99_ms > 1 for 0")
            .unwrap_err()
            .contains("never fire"));
        assert!(SloRule::parse("p99_ms > 1 at 3")
            .unwrap_err()
            .contains("expected \"for\""));
    }

    #[test]
    fn metrics_evaluate_on_the_interval_delta() {
        let mut d = StatsDelta {
            interval_ns: 1_000_000_000,
            requests: 100,
            replies_ok: 90,
            busy: 10,
            expired: 4,
            protocol_errors: 1,
            worker_panics: 2,
            keyed_requests: 75,
            keyless_requests: 25,
            ..StatsDelta::default()
        };
        assert_eq!(SloMetric::Rps.value(&d), Some(90.0));
        assert_eq!(SloMetric::ErrorRate.value(&d), Some(0.05));
        assert!((SloMetric::BusyRate.value(&d).unwrap() - 10.0 / 110.0).abs() < 1e-12);
        assert_eq!(SloMetric::WorkerPanics.value(&d), Some(2.0));
        assert_eq!(SloMetric::KeylessShare.value(&d), Some(0.25));
        // Quantiles are undefined without samples, so latency rules cannot
        // breach on an idle tick.
        assert_eq!(SloMetric::P99Ms.value(&d), None);
        assert!(!SloRule::parse("p99_ms > 0").unwrap().offends(&d));
        // With samples they evaluate in milliseconds.
        d.e2e.buckets = vec![0; hpnn_serve::HISTOGRAM_BUCKETS];
        d.e2e.buckets[13] = 10; // [2^13, 2^14) µs ≈ 8-16 ms
        d.e2e.count = 10;
        let p99 = SloMetric::P99Ms.value(&d).unwrap();
        assert!(p99 > 8.0 && p99 <= 16.5, "p99 = {p99}");
        assert!(SloRule::parse("p99_ms > 5").unwrap().offends(&d));
        assert!(!SloRule::parse("p99_ms > 50").unwrap().offends(&d));
    }

    #[test]
    fn share_metrics_undefined_with_no_traffic() {
        let d = StatsDelta {
            interval_ns: 1_000_000_000,
            ..StatsDelta::default()
        };
        assert_eq!(SloMetric::ErrorRate.value(&d), None);
        assert_eq!(SloMetric::BusyRate.value(&d), None);
        assert_eq!(SloMetric::KeylessShare.value(&d), None);
        assert_eq!(SloMetric::Rps.value(&d), Some(0.0));
    }
}
