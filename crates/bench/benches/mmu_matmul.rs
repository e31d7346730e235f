//! Bench: keyed vs baseline MMU dot products across vector lengths, plus
//! the host-side float GEMM at the shapes the server actually runs.
//!
//! The `host_float_matmul` group times `[m × 2048]·[2048 × 2048]` and
//! `[m × 256]·[256 × 2048]` — the two large dense layers of the served
//! conv + fc2048 model — at the batch sizes the scheduler forms (1–3 rows
//! when lightly loaded, up to `max_batch` under load). It reports absolute
//! GFLOP/s and the rate at which the weight matrix is consumed (computed
//! from its size, not measured on the memory bus), median and quartiles,
//! and writes `BENCH_gemm.json` with the host fingerprint.
//!
//! Run with `--quick` (as CI does) for fewer samples per shape.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use hpnn_bench::timing::{bench, bench_output_path, group};
use hpnn_core::HpnnKey;
use hpnn_hw::{DatapathMode, KeySource, Mmu};
use hpnn_tensor::{matmul_into, pool, simd, Rng, Tensor};
use hpnn_trace::json_escape_into;

/// Batch sizes: below, at and above the streaming/tiled kernel crossover.
const ROWS: [usize; 8] = [1, 2, 3, 4, 7, 8, 16, 64];

fn int_vec(rng: &mut Rng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| (rng.below(255) as i32 - 127) as i8)
        .collect()
}

/// One timed GEMM shape: quartiles of the per-call time and the rates they
/// imply.
struct GemmRow {
    m: usize,
    k: usize,
    n: usize,
    q1_us: f64,
    median_us: f64,
    q3_us: f64,
}

impl GemmRow {
    fn gflops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64 / self.median_us / 1e3
    }

    /// Bytes of `B` per second of one call: every call reads the whole
    /// weight matrix at least once.
    fn weight_gbps(&self) -> f64 {
        4.0 * (self.k * self.n) as f64 / self.median_us / 1e3
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"m\":{},\"k\":{},\"n\":{},\"median_us\":{:.2},\"q1_us\":{:.2},\"q3_us\":{:.2},\
             \"gflops\":{:.2},\"weight_gbps\":{:.2}}}",
            self.m,
            self.k,
            self.n,
            self.median_us,
            self.q1_us,
            self.q3_us,
            self.gflops(),
            self.weight_gbps()
        )
    }
}

fn time_gemm(rng: &mut Rng, b: &Tensor, m: usize, samples: usize) -> GemmRow {
    let (k, n) = (b.shape().rows(), b.shape().cols());
    let a = Tensor::randn([m, k], 1.0, rng);
    let mut out = vec![0.0f32; m * n];
    let mut call = || matmul_into(black_box(&a), black_box(b), black_box(&mut out));
    for _ in 0..3 {
        call();
    }
    let mut us: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            call();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    GemmRow {
        m,
        k,
        n,
        q1_us: us[samples / 4],
        median_us: us[samples / 2],
        q3_us: us[3 * samples / 4],
    }
}

/// The host a number was taken on, as a JSON object.
fn host_json() -> String {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let mut out = format!(
        "{{\"cores\":{},\"simd\":\"{}\",\"pool_threads\":{},\"hpnn_threads_env\":\"",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd::probe().name(),
        pool::global().threads(),
    );
    json_escape_into(&mut out, &std::env::var("HPNN_THREADS").unwrap_or_default());
    out.push_str("\",\"commit\":\"");
    json_escape_into(&mut out, &commit);
    out.push_str("\"}");
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut rng = Rng::new(7);
    let key = HpnnKey::random(&mut rng);

    group("mmu_dot_product");
    for n in [64usize, 256, 1024] {
        let w = int_vec(&mut rng, n);
        let a = int_vec(&mut rng, n);

        // One dot product: a `1 x n` weight tile against one column.
        let mut out = [0i32];
        let mut keyed = Mmu::build(KeySource::Key(&key), DatapathMode::Behavioral);
        bench(&format!("keyed/{n}"), || {
            keyed.matmul_tile(black_box(&w), black_box(&a), n, Some(&[17]), &mut out);
            black_box(out[0])
        })
        .report();

        let mut baseline = Mmu::build(KeySource::None, DatapathMode::Behavioral);
        bench(&format!("baseline/{n}"), || {
            baseline.matmul_tile(black_box(&w), black_box(&a), n, Some(&[17]), &mut out);
            black_box(out[0])
        })
        .report();
    }

    group("host_float_matmul");
    let host = host_json();
    println!("host {host}");
    let samples = if quick { 9 } else { 41 };
    let mut rows = Vec::new();
    for (k, n) in [(2048usize, 2048usize), (256, 2048)] {
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        for m in ROWS {
            let row = time_gemm(&mut rng, &b, m, samples);
            println!(
                "matmul/{k}x{n}/m{m:<3} median {:>9.1} µs  [{:.1}, {:.1}]  {:>6.1} GFLOP/s  {:>6.1} GB/s weights",
                row.median_us,
                row.q1_us,
                row.q3_us,
                row.gflops(),
                row.weight_gbps()
            );
            rows.push(row);
        }
    }
    let results: Vec<String> = rows.iter().map(GemmRow::to_json).collect();
    let doc = format!(
        "{{\n  \"bench\": \"host_float_matmul\",\n  \"host\": {host},\n  \"samples_per_shape\": {samples},\n  \"results\": [\n    {}\n  ]\n}}\n",
        results.join(",\n    ")
    );
    let out = bench_output_path("BENCH_gemm.json");
    std::fs::write(&out, doc).expect("write BENCH_gemm.json");
    println!("wrote {} ({} shapes)", out.display(), rows.len());
}
