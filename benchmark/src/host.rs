//! What the host is and what the process has used: the fingerprint stamped
//! into every result file, peak resident memory and CPU time.

use std::process::Command;

use crate::json::Json;

/// Peak resident set size of this process in MB (`VmHWM`); 0 where `/proc`
/// does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process so far, all threads; 0
/// where `/proc` does not exist. The kernel reports ticks of 10 ms.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; count from its
            // closing parenthesis. utime and stime are fields 14 and 15.
            let rest = s.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint: two results compare only when cores and SIMD level
/// agree.
pub fn fingerprint(seed: u64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::num(nproc as f64)),
        ("simd", Json::str(hpnn_tensor::simd::probe().name())),
        (
            "pool_threads",
            Json::num(hpnn_tensor::pool::global().threads() as f64),
        ),
        (
            "hpnn_threads_env",
            std::env::var("HPNN_THREADS").map_or(Json::Null, Json::Str),
        ),
        (
            "commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        ("os", Json::str(std::env::consts::OS)),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
    ])
}

/// Why two fingerprints must not be compared, if they must not.
pub fn incomparable(a: &Json, b: &Json) -> Option<String> {
    for key in ["nproc", "simd"] {
        let (x, y) = (a.get(key), b.get(key));
        if x != y {
            return Some(format!(
                "fingerprints differ in {key}: {} vs {}",
                x.map_or("missing".into(), Json::render),
                y.map_or("missing".into(), Json::render)
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_to_compare_across_cores_or_simd() {
        let fp = |nproc: f64, simd: &str| {
            Json::obj([("nproc", Json::num(nproc)), ("simd", Json::str(simd))])
        };
        assert_eq!(incomparable(&fp(2.0, "avx2"), &fp(2.0, "avx2")), None);
        assert!(incomparable(&fp(2.0, "avx2"), &fp(4.0, "avx2"))
            .unwrap()
            .contains("nproc"));
        assert!(incomparable(&fp(2.0, "avx2"), &fp(2.0, "avx512"))
            .unwrap()
            .contains("simd"));
        assert!(incomparable(&fp(2.0, "avx2"), &Json::obj::<&str>([])).is_some());
    }

    #[test]
    fn process_counters_read_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_seconds() >= 0.0);
        }
    }
}
