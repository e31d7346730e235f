//! Regenerates the **Sec. III-D / Fig. 4 hardware numbers**: functional
//! verification of the key-dependent accumulator against the paper's Eq. (1),
//! the 4096-gate area overhead, the zero-cycle timing claim, and an
//! end-to-end locked inference on the simulated trusted device.
//!
//! ```text
//! cargo run --release -p hpnn-bench --bin hw_overhead [-- --scale tiny|small|medium]
//! ```

use hpnn_bench::{pct, print_table, Scale};
use hpnn_core::{HpnnKey, HpnnTrainer, KeyVault};
use hpnn_data::Benchmark;
use hpnn_hw::{
    baseline_mac_gates, keyed_mac_gates, ArrayMultiplier8, KeySource, KeyedAccumulator, Mmu,
    OverheadReport, Routing, TrustedAccelerator,
};
use hpnn_nn::mlp;
use hpnn_tensor::Rng;

fn verify_accumulator() -> (usize, usize) {
    // Gate-level vs behavioral equivalence on random product streams.
    let mut rng = Rng::new(0x4A57);
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for _ in 0..200 {
        let products: Vec<i16> = (0..64).map(|_| rng.next_u32() as i16).collect();
        let reference: i32 = products.iter().map(|&p| p as i32).sum();
        for key_bit in [false, true] {
            let mut unit = KeyedAccumulator::new(key_bit);
            unit.accumulate_all(products.iter().copied());
            let expected = if key_bit { -reference } else { reference };
            checked += 1;
            if unit.value() != expected {
                mismatches += 1;
            }
        }
    }
    (checked, mismatches)
}

fn main() {
    let scale = Scale::from_env_args();
    println!("# Hardware root-of-trust verification & overhead (Sec. III-D / Fig. 4)");
    println!();

    // 1. Functional equivalence: acc(k) = (-1)^k · MAC, in gates.
    let (checked, mismatches) = verify_accumulator();
    println!("## key-dependent accumulator (Fig. 4b)");
    println!(
        "gate-level XOR+FA-chain vs reference: {checked} random streams, {mismatches} mismatches"
    );
    assert_eq!(
        mismatches, 0,
        "gate-level accumulator diverged from Eq. (1)"
    );
    println!();

    // 2. Area/timing overhead (Sec. III-D3).
    println!("## implementation overhead");
    let report = OverheadReport::compute();
    println!("{report}");
    println!();

    // 2b. Per-MAC gate budget including the gate-level multiplier.
    println!("## per-MAC gate budget (array multiplier + FA-chain accumulator)");
    let mul = ArrayMultiplier8::new();
    print_table(
        &["unit", "XOR", "AND", "OR", "total gates"],
        &[
            vec![
                "8x8 array multiplier".into(),
                mul.gate_count().xor.to_string(),
                mul.gate_count().and.to_string(),
                mul.gate_count().or.to_string(),
                mul.gate_count().total().to_string(),
            ],
            vec![
                "baseline MAC".into(),
                baseline_mac_gates().xor.to_string(),
                baseline_mac_gates().and.to_string(),
                baseline_mac_gates().or.to_string(),
                baseline_mac_gates().total().to_string(),
            ],
            vec![
                "keyed MAC".into(),
                keyed_mac_gates().xor.to_string(),
                keyed_mac_gates().and.to_string(),
                keyed_mac_gates().or.to_string(),
                keyed_mac_gates().total().to_string(),
            ],
        ],
    );
    let per_mac_overhead = 16.0 / baseline_mac_gates().total() as f64 * 100.0;
    println!("per-MAC overhead of the 16 XOR lock gates: {per_mac_overhead:.2}%");
    println!();

    // 3. Cycle model: locked vs unlocked MMU run the same schedule.
    println!("## cycle-count parity (no clock cycle overhead)");
    let mut rng = Rng::new(0x4A58);
    let key = HpnnKey::random(&mut rng);
    let w: Vec<i8> = (0..256)
        .map(|_| (rng.below(255) as i32 - 127) as i8)
        .collect();
    let a: Vec<i8> = (0..256)
        .map(|_| (rng.below(255) as i32 - 127) as i8)
        .collect();
    let mut locked = Mmu::build(KeySource::Key(&key));
    let mut unlocked = Mmu::build(KeySource::None);
    // The same weight row against one column, collected by 64 units in turn.
    let (mut locked_route, mut unlocked_route) = (Routing::default(), Routing::default());
    let mut out = [0i32];
    for acc in 0..64 {
        locked.route([acc], &mut locked_route);
        unlocked.route([acc], &mut unlocked_route);
        locked.matmul_tile(&w, &a, w.len(), Some(&locked_route), &mut out);
        unlocked.matmul_tile(&w, &a, w.len(), Some(&unlocked_route), &mut out);
    }
    print_table(
        &["datapath", "dot products", "MACs", "cycles"],
        &[
            vec![
                "keyed MMU".into(),
                locked.stats().dot_products.to_string(),
                locked.stats().macs.to_string(),
                locked.stats().cycles.to_string(),
            ],
            vec![
                "baseline MMU".into(),
                unlocked.stats().dot_products.to_string(),
                unlocked.stats().macs.to_string(),
                unlocked.stats().cycles.to_string(),
            ],
        ],
    );
    assert_eq!(locked.stats().cycles, unlocked.stats().cycles);
    println!();

    // 4. End-to-end device inference: trusted vs untrusted accelerator.
    println!("## end-to-end locked inference on the simulated device");
    let dataset = Benchmark::FashionMnist.synthetic(scale.dataset);
    let spec = mlp(dataset.shape.volume(), &[48], dataset.classes);
    let artifacts = HpnnTrainer::new(spec, key)
        .with_config(scale.owner_config())
        .with_seed(5)
        .train(&dataset)
        .expect("training");
    let vault = KeyVault::provision(key, "tpu-sim-0");
    let mut trusted = TrustedAccelerator::new(&vault);
    let mut untrusted = TrustedAccelerator::untrusted();
    let trusted_acc = trusted
        .accuracy(&artifacts.model, &dataset.test_inputs, &dataset.test_labels)
        .expect("device run");
    let untrusted_acc = untrusted
        .accuracy(&artifacts.model, &dataset.test_inputs, &dataset.test_labels)
        .expect("device run");
    print_table(
        &["device", "int8 datapath accuracy", "float reference"],
        &[
            vec![
                "trusted (key on chip)".into(),
                pct(trusted_acc),
                pct(artifacts.accuracy_with_key),
            ],
            vec![
                "untrusted (no key)".into(),
                pct(untrusted_acc),
                pct(artifacts.accuracy_without_key),
            ],
        ],
    );
    let stats = trusted.stats();
    println!();
    println!(
        "trusted-device counters: {} MACs, {} modeled cycles, {} locked + {} unlocked layers",
        stats.mmu.macs, stats.mmu.cycles, stats.locked_layers, stats.unlocked_layers
    );
}
