//! Ablation studies of HPNN design choices (DESIGN.md §3):
//!
//! 1. **Lock coverage** — what fraction of nonlinear neurons must be locked
//!    for the no-key accuracy to collapse? The paper locks *all* of them;
//!    this sweep justifies that choice.
//! 2. **Schedule policy** — RoundRobin vs Blocked vs Permuted mapping of
//!    neurons to the 256 key bits: does the (private) policy choice affect
//!    owner accuracy or the locked drop?
//! 3. **Key Hamming weight** — does the number of 1-bits in the key (i.e.
//!    how many accumulators negate) matter, or is any non-degenerate key
//!    equally protective?
//!
//! ```text
//! cargo run --release -p hpnn-bench --bin ablation [-- --scale tiny|small|medium]
//! ```

use hpnn_bench::{load_dataset, pct, print_table, Scale};
use hpnn_core::{HpnnKey, Schedule, ScheduleKind};
use hpnn_data::Benchmark;
use hpnn_nn::{mlp, train, LabeledBatch};
use hpnn_tensor::Rng;

fn main() {
    let scale = Scale::from_env_args();
    println!("# HPNN design ablations (scale: {})", scale.label);
    println!();

    let dataset = load_dataset(Benchmark::FashionMnist, &scale);
    let spec = mlp(dataset.shape.volume(), &[64], dataset.classes);
    let neurons = spec.lockable_neurons();
    let mut rng = Rng::new(0xAB1A);
    let key = HpnnKey::random(&mut rng);

    // One owner training run per arm, from one initialization: the row is
    // the arm's label, its accuracy with the key, without it (the
    // attacker's all-+1 factors on the same weights) and the drop.
    let score = |label: String, factors: &[f32]| {
        let mut net = spec.build(&mut Rng::new(1)).expect("build");
        net.install_lock_factors(factors);
        let history = train(
            &mut net,
            LabeledBatch::new(&dataset.train_inputs, &dataset.train_labels),
            None,
            &scale.owner_config(),
            &mut Rng::new(2),
        );
        let with_key = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
        net.install_lock_factors(&vec![1.0; neurons]);
        let without_key = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
        let row = vec![
            label,
            pct(with_key),
            pct(without_key),
            pct(with_key - without_key),
        ];
        (row, history.final_loss())
    };

    // ── 1. Lock-coverage sweep ───────────────────────────────────────────
    println!("## lock coverage: fraction of neurons locked vs no-key accuracy");
    let schedule = Schedule::new(neurons, ScheduleKind::Permuted, 3);
    let full_factors = schedule.derive_lock_factors(&key);
    let mut rows = Vec::new();
    for coverage in [0.0f32, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let mut cov_rng = Rng::new(900 + (coverage * 100.0) as u64);
        let kept = cov_rng.sample_indices(neurons, (neurons as f32 * coverage).round() as usize);
        let mut factors = vec![1.0f32; neurons];
        for &j in &kept {
            factors[j] = full_factors[j];
        }
        let (mut row, final_loss) = score(format!("{:.0}%", coverage * 100.0), &factors);
        row.push(format!("{final_loss:.3}"));
        rows.push(row);
        eprintln!("[ablation] coverage {coverage} done");
    }
    print_table(
        &[
            "locked fraction",
            "with key",
            "no key",
            "drop",
            "final loss",
        ],
        &rows,
    );
    println!("(expected: drop grows with coverage; partial locking leaves exploitable accuracy)");
    println!();

    // ── 2. Schedule-policy sweep ─────────────────────────────────────────
    println!("## schedule policy: neuron→accumulator mapping");
    let mut rows = Vec::new();
    for kind in [
        ScheduleKind::RoundRobin,
        ScheduleKind::Blocked,
        ScheduleKind::Permuted,
    ] {
        let factors = Schedule::new(neurons, kind, 17).derive_lock_factors(&key);
        rows.push(score(format!("{kind:?}"), &factors).0);
        eprintln!("[ablation] schedule {kind:?} done");
    }
    print_table(&["schedule", "with key", "no key", "drop"], &rows);
    println!("(expected: owner accuracy and drop are policy-independent — the policy only");
    // The sign-flip searches now live in `hpnn_attacks::Attacker`; the line
    // keeps the old name until `results/ablation.txt` is regenerated.
    println!(" matters for attack surface, cf. hpnn_attacks::signflip)");
    println!();

    // ── 3. Key Hamming-weight sweep ──────────────────────────────────────
    println!("## key Hamming weight: how many of the 256 accumulators negate");
    let schedule = Schedule::new(neurons, ScheduleKind::RoundRobin, 0);
    let mut rows = Vec::new();
    for ones in [0usize, 16, 64, 128, 192, 256] {
        let mut kw_rng = Rng::new(ones as u64 + 1);
        let mut key = HpnnKey::ZERO;
        for bit in kw_rng.sample_indices(256, ones) {
            key = key.with_flipped_bit(bit);
        }
        rows.push(score(ones.to_string(), &schedule.derive_lock_factors(&key)).0);
        eprintln!("[ablation] hamming weight {ones} done");
    }
    print_table(&["key weight", "with key", "no key", "drop"], &rows);
    println!("(expected: weight 0 gives no protection — it is the conventional model —");
    println!(" and protection saturates once a sizable fraction of accumulators negate)");
}
