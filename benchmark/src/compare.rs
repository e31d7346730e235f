//! `compare A.json B.json`: applies each end-to-end metric's bound to two
//! result files (A the base, B the candidate), one row per (workload,
//! metric), fails a candidate that got an output wrong or failed more
//! operations than the base, and refuses files from different kinds of host
//! or with a metric that was not measured.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::Better;
use crate::{host, stats};

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Fail,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the medians cannot tell: unresolved, not unchanged.
    Unresolved,
}

/// Judges one metric from both sides' values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let widest = [a, b]
        .iter()
        .filter_map(|v| stats::spread(v))
        .fold(0.0, f64::max);
    if widest > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Fail
    } else {
        Verdict::Ok
    }
}

/// Compares two result documents. Returns the report and whether any row
/// failed.
///
/// # Errors
///
/// A refusal: fingerprints that differ in cores or SIMD level, files that
/// are not results of this benchmark, or a metric without values or
/// without samples behind a value (a slot in which every request failed has
/// no latency; it must not read as a latency of 0).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let fingerprint = |doc: &Json| {
        doc.get("fingerprint")
            .cloned()
            .ok_or("not a result file: no fingerprint")
    };
    if let Some(why) = host::incomparable(&fingerprint(a)?, &fingerprint(b)?) {
        return Err(format!("refusing to compare: {why}"));
    }
    let mut report = String::new();
    for doc in [a, b] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            writeln!(
                report,
                "NOTE: a file holds non-comparable (shortened-run) numbers; verdicts are indicative only"
            )
            .expect("write to string");
            break;
        }
    }
    writeln!(
        report,
        "{:<14} {:<12} {:>12} {:>12} {:>8}  {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "iqr A", "iqr B", "bound"
    )
    .expect("write to string");
    let workloads = a
        .get("workloads")
        .ok_or("not a result file: no workloads")?;
    let mut any_fail = false;
    for (name, wa) in workloads.members() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        // Latency counts answered requests only, so shedding load would
        // read as a gain: more failed operations, or a wrong output, fails
        // the candidate whatever its timings say.
        let failed = |w: &Json| -> Result<f64, String> {
            let untraced = w
                .get("failed")
                .map(Json::as_f64s)
                .ok_or(format!("{name} has no failed counts"))?;
            let traced = w
                .get("traced_failed")
                .and_then(Json::as_f64)
                .ok_or(format!("{name} has no traced failed count"))?;
            Ok(untraced.iter().sum::<f64>() + traced)
        };
        let all_correct = wb
            .get("correct")
            .ok_or(format!("{name} has no correctness verdicts"))?
            .elements()
            .iter()
            .all(|c| c.as_bool() == Some(true));
        let (failed_a, failed_b) = (failed(wa)?, failed(wb)?);
        if !all_correct || failed_b > failed_a {
            any_fail = true;
            writeln!(
                report,
                "{name:<14} operations: {failed_a} failed in A, {failed_b} in B, outputs of B {}  FAIL",
                if all_correct { "correct" } else { "WRONG" }
            )
            .expect("write to string");
        }
        let metrics = wa.get("end_to_end").map(Json::members).unwrap_or(&[]);
        for (metric, ma) in metrics {
            let mb = wb
                .get("end_to_end")
                .and_then(|m| m.get(metric))
                .ok_or(format!("{name}/{metric} is missing from the second file"))?;
            let (va, vb) = (
                ma.get("values").map(Json::as_f64s).unwrap_or_default(),
                mb.get("values").map(Json::as_f64s).unwrap_or_default(),
            );
            let better = ma
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or(format!("{name}/{metric} has no direction"))?;
            let bound = ma
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}/{metric} has no bound"))?;
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}/{metric} has no values"));
            }
            for (m, values) in [(ma, &va), (mb, &vb)] {
                let samples = m.get("samples").map(Json::as_f64s).unwrap_or_default();
                if samples.len() != values.len() || samples.contains(&0.0) {
                    return Err(format!(
                        "{name}/{metric} has a value with no samples behind it"
                    ));
                }
            }
            let verdict = judge(&va, &vb, better, bound);
            any_fail |= verdict == Verdict::Fail;
            let pct = |v: &[f64]| {
                stats::spread(v).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0))
            };
            let (med_a, med_b) = (stats::median(&va), stats::median(&vb));
            writeln!(
                report,
                "{name:<14} {metric:<12} {med_a:>12.4} {med_b:>12.4} {:>8.3}  {:>7} {:>7} {:>5.0}%  {}",
                med_b / med_a,
                pct(&va),
                pct(&vb),
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Fail => "FAIL (worse than the bound allows)",
                    Verdict::Unresolved => "unresolved (spread wider than the bound)",
                }
            )
            .expect("write to string");
        }
    }
    writeln!(
        report,
        "B/A is the second file's median over the first's; iqr is the interquartile distance as a share of the median."
    )
    .expect("write to string");
    Ok((report, any_fail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_applied_in_the_metrics_direction() {
        let base = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&base, &[10.9, 10.8, 11.0, 10.9], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &[11.2, 11.1, 11.3, 11.2], Better::Lower, 0.10),
            Verdict::Fail
        );
        // Getting much better is never a failure.
        assert_eq!(
            judge(&base, &[5.0, 5.0, 5.1, 4.9], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &[8.8, 8.9, 8.7, 8.8], Better::Higher, 0.10),
            Verdict::Fail
        );
        assert_eq!(
            judge(&base, &[11.5, 11.4, 11.6, 11.5], Better::Higher, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.1, 9.9, 10.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // A single value has no spread to object to.
        assert_eq!(judge(&[10.0], &[10.5], Better::Lower, 0.10), Verdict::Ok);
    }

    /// One side of a comparison.
    #[derive(Clone, Copy)]
    struct Side<'a> {
        nproc: f64,
        p50: &'a [f64],
        /// Samples behind each value.
        samples: f64,
        failed: f64,
        correct: bool,
    }

    const BASE: Side = Side {
        nproc: 2.0,
        p50: &[1.0, 1.01, 0.99],
        samples: 500.0,
        failed: 0.0,
        correct: true,
    };

    /// A result file of one workload with one metric.
    fn doc(side: Side) -> Json {
        Json::obj([
            (
                "fingerprint",
                Json::obj([
                    ("nproc", Json::num(side.nproc)),
                    ("simd", Json::str("avx2")),
                ]),
            ),
            ("comparable", Json::Bool(true)),
            (
                "workloads",
                Json::obj([(
                    "serve_tiny",
                    Json::obj([
                        ("failed", Json::nums(&[side.failed])),
                        ("traced_failed", Json::num(0.0)),
                        ("correct", Json::Arr(vec![Json::Bool(side.correct)])),
                        (
                            "end_to_end",
                            Json::obj([(
                                "ms_a",
                                Json::obj([
                                    ("unit", Json::str("ms")),
                                    ("better", Json::str("lower")),
                                    ("bound", Json::num(0.1)),
                                    ("values", Json::nums(side.p50)),
                                    ("samples", Json::nums(&vec![side.samples; side.p50.len()])),
                                ]),
                            )]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compares_documents_and_refuses_other_hosts() {
        let a = doc(BASE);
        let b = |p50| doc(Side { p50, ..BASE });
        let (report, failed) = compare(&a, &b(&[1.05, 1.04, 1.06])).unwrap();
        assert!(!failed, "{report}");
        assert!(report.contains("serve_tiny") && report.contains("1.050"));
        let (report, failed) = compare(&a, &b(&[1.3, 1.31, 1.29])).unwrap();
        assert!(failed && report.contains("FAIL"), "{report}");
        let refusal = compare(&a, &doc(Side { nproc: 4.0, ..BASE })).unwrap_err();
        assert!(refusal.contains("nproc"), "{refusal}");
        assert!(compare(&a, &Json::Null).is_err());
    }

    #[test]
    fn a_faster_candidate_that_fails_more_or_answers_wrong_fails() {
        let a = doc(Side {
            failed: 2.0,
            ..BASE
        });
        let faster = Side {
            p50: &[0.5, 0.51, 0.49],
            ..BASE
        };
        // Shedding load makes the answered requests faster: still a failure.
        let (report, failed) = compare(
            &a,
            &doc(Side {
                failed: 3.0,
                ..faster
            }),
        )
        .unwrap();
        assert!(failed && report.contains("operations"), "{report}");
        let (report, failed) = compare(
            &a,
            &doc(Side {
                correct: false,
                ..faster
            }),
        )
        .unwrap();
        assert!(failed && report.contains("WRONG"), "{report}");
        // No more failures than the base is not held against the candidate.
        let (report, failed) = compare(
            &a,
            &doc(Side {
                failed: 2.0,
                ..faster
            }),
        )
        .unwrap();
        assert!(!failed, "{report}");
        // A slot in which every request failed has no latency: refused, not
        // read as a latency of 0.
        let refusal = compare(
            &a,
            &doc(Side {
                p50: &[0.0],
                samples: 0.0,
                ..BASE
            }),
        )
        .unwrap_err();
        assert!(refusal.contains("no samples"), "{refusal}");
    }
}
