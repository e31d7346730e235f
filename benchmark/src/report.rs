//! What one run of one workload produced, and how it is printed: a table
//! for people, a result file with the host fingerprint, and the one-line
//! JSON the driver reads last.

use std::path::Path;

use crate::json::Json;
use crate::spec::{self, NOT_MEASURED, PER_LAYER, RUN_SECONDS};
use crate::{host, stats};

/// One measured value with the number of samples it summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: u64,
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output checked was right (bit-exact logits, accuracy checks).
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable report (sample counts, tail
    /// percentiles, check results).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.samples = samples;
            }
            None => self.metrics.push(Metric {
                name: name.to_string(),
                value,
                samples,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks every per-layer metric whose name starts with one of
    /// `prefixes` as not measured: the workload does no work in that layer.
    pub fn not_measured(&mut self, prefixes: &[&str]) {
        for (name, _, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, NOT_MEASURED, 0);
            }
        }
    }

    /// Records slot `a` or `b`: `typical_ms` end to end (`ms_<slot>`: the
    /// median of a serving slot's latencies, the mean of an `owner_flow`
    /// stage's operations), the p95 and p99 of `ms` for the per-layer list,
    /// plus a note with the highest percentile the sample count supports.
    pub fn set_slot(&mut self, slot: char, label: &str, typical_ms: f64, ms: &[f64]) {
        let sorted = stats::sorted(ms);
        let n = sorted.len() as u64;
        self.set(&format!("ms_{slot}"), typical_ms, n);
        for p in [95.0, 99.0] {
            self.set(
                &format!("client.p{p}_ms_{slot}"),
                stats::percentile(&sorted, p),
                n,
            );
        }
        let tail = match stats::highest_supported_percentile(sorted.len()) {
            Some(p) => format!(
                "highest supported percentile p{p} = {:.3} ms",
                stats::percentile(&sorted, p)
            ),
            None => "too few samples for any percentile".to_string(),
        };
        self.note(format!("slot {slot} ({label}): {n} samples, {tail}"));
    }
}

/// Prints the human table, writes `<out>/<workload>.trace<t>.json`, and
/// returns the driver's one-line JSON. Metrics the mode does not call for
/// (per-layer values computed in an untraced run, and the reverse) go to
/// the result file only.
///
/// # Errors
///
/// A missing metric (a bug in the workload) or a failure writing the file.
pub fn publish(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    wall_s: f64,
    outcome: &Outcome,
    out_dir: &Path,
) -> Result<String, String> {
    let comparable = seconds == RUN_SECONDS as f64;
    let table = spec::metric_specs(traced);
    let mut line_metrics = Vec::new();
    let mut file_metrics = Vec::new();
    println!(
        "== {workload}  seed {seed}  {seconds} s  {}{}",
        if traced {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        if comparable {
            ""
        } else {
            "  [NON-COMPARABLE: not the benchmark's run length]"
        }
    );
    for spec in &table {
        let (name, unit) = (spec.name, spec.unit);
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("workload {workload} did not report {name}"))?;
        if m.samples == 0 && m.value == NOT_MEASURED {
            println!("{name:<34} {:>16} not measured in this workload", "-");
        } else {
            println!(
                "{name:<34} {:>16.4} {unit:<8} n={:<8} {}{}",
                m.value,
                m.samples,
                spec.better.name(),
                spec.bound
                    .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0)),
            );
        }
        line_metrics.push((
            name.to_string(),
            Json::obj([("value", Json::num(m.value)), ("unit", Json::str(unit))]),
        ));
    }
    let known: Vec<_> = [false, true]
        .into_iter()
        .flat_map(spec::metric_specs)
        .collect();
    for m in &outcome.metrics {
        let mut entry = vec![
            ("value", Json::num(m.value)),
            ("samples", Json::num(m.samples as f64)),
        ];
        if let Some(spec) = known.iter().find(|k| k.name == m.name) {
            entry.extend(spec.describe());
        }
        file_metrics.push((m.name.clone(), Json::obj(entry)));
    }
    for note in &outcome.notes {
        println!("   {note}");
    }
    println!(
        "   attempted {}  failed {}  correct {}  wall {wall_s:.1} s",
        outcome.attempted, outcome.failed, outcome.correct
    );

    let file = Json::obj([
        ("workload", Json::str(workload)),
        ("traced", Json::Bool(traced)),
        ("comparable", Json::Bool(comparable)),
        ("fingerprint", host::fingerprint(seed, seconds)),
        ("wall_s", Json::num(wall_s)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("correct", Json::Bool(outcome.correct)),
        ("metrics", Json::Obj(file_metrics)),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(Json::str).collect()),
        ),
    ]);
    write_file(
        &out_dir.join(format!("{workload}.trace{}.json", u8::from(traced))),
        &file.pretty(),
    )?;

    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", Json::Obj(line_metrics)),
    ])
    .render())
}

/// Writes `text` to `path`, creating the directory.
///
/// # Errors
///
/// The I/O failure, with the path.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
