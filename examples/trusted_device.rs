//! Hardware root-of-trust walkthrough: from a single XOR gate to end-to-end
//! locked inference on the simulated TPU-like accelerator.
//!
//! ```text
//! cargo run --release --example trusted_device
//! ```

use hpnn::core::{HpnnKey, HpnnTrainer, KeyVault};
use hpnn::data::{Benchmark, DatasetScale};
use hpnn::hw::{
    KeySource, KeyedAccumulator, Mmu, OverheadReport, RippleCarryAdder, Routing, SystolicArray,
    TrustedAccelerator,
};
use hpnn::nn::{mlp, TrainConfig};
use hpnn::tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Level 1: the FA chain (Fig. 4b assumption) ───────────────────────
    let adder = RippleCarryAdder::new(32);
    let (sum, _) = adder.add(1000, (-250i32) as u32, false);
    println!("ripple-carry FA chain: 1000 + (-250) = {}", sum as i32);
    println!(
        "  {} gates, {}-gate critical path",
        adder.gate_count().total(),
        adder.critical_path_gates()
    );

    // ── Level 2: the key-dependent accumulator ──────────────────────────
    let mut unlocked = KeyedAccumulator::new(false);
    let mut locked = KeyedAccumulator::new(true);
    let products = [120i16, -45, 300, 7];
    unlocked.accumulate_all(products);
    locked.accumulate_all(products);
    println!("\nkeyed accumulator on products {products:?}:");
    println!("  key bit 0 → {}", unlocked.value());
    println!(
        "  key bit 1 → {} (two's-complement negation in the datapath)",
        locked.value()
    );
    println!(
        "  extra hardware: {} XOR gates per unit",
        KeyedAccumulator::extra_gates().total()
    );

    // ── Level 3: the MMU, its gate-level reference, the overhead report ─
    let mut rng = Rng::new(1);
    let key = HpnnKey::random(&mut rng);
    let mut mmu = Mmu::build(KeySource::Key(&key));
    // The key register is read once, when a layer's outputs are routed to
    // their accumulator units; every tile of the layer reuses the routing.
    let mut routing = Routing::default();
    mmu.route([0], &mut routing);
    let mut out = [0i32];
    mmu.matmul_tile(&[1, 2, 3], &[10, 20, 30], 3, Some(&routing), &mut out);
    println!("\nMMU dot product on accumulator 0: {}", out[0]);
    println!("  {mmu:?}"); // counters only; the key register stays sealed
                           // The same dot product gate by gate: a stepped 3 × 1 systolic array
                           // whose column drains into a keyed accumulator wired to key bit 0.
    let mut array = SystolicArray::new(vec![vec![1], vec![2], vec![3]], &[key.bit(0)]);
    let stepped = array.run(&[&[10, 20, 30]]);
    println!(
        "  stepped systolic array, gate level: {} in {} cycles",
        stepped[0][0],
        array.cycles()
    );
    println!("\n{}", OverheadReport::compute());

    // ── Level 4: end-to-end locked inference ────────────────────────────
    let dataset = Benchmark::FashionMnist.synthetic(DatasetScale::TINY);
    let spec = mlp(dataset.shape.volume(), &[32], dataset.classes);
    println!(
        "\ntraining a locked model ({} locked neurons) ...",
        spec.lockable_neurons()
    );
    let artifacts = HpnnTrainer::new(spec, key)
        .with_config(TrainConfig::default().with_epochs(8).with_lr(0.05))
        .train(&dataset)?;

    let vault = KeyVault::provision(key, "edge-tpu-7");
    println!("provisioned device: {vault:?}"); // note: key prints as <sealed>

    let mut device = TrustedAccelerator::new(&vault);
    let acc = device.accuracy(&artifacts.model, &dataset.test_inputs, &dataset.test_labels)?;
    let mut pirate = TrustedAccelerator::untrusted();
    let pirate_acc =
        pirate.accuracy(&artifacts.model, &dataset.test_inputs, &dataset.test_labels)?;

    println!("\nint8 inference on the simulated accelerator:");
    println!("  trusted device (key on chip): {:.2}%", acc * 100.0);
    println!("  commodity device (no key):    {:.2}%", pirate_acc * 100.0);
    let stats = device.stats();
    println!(
        "  device counters: {} MACs, {} modeled cycles",
        stats.mmu.macs, stats.mmu.cycles
    );
    Ok(())
}
