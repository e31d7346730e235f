//! Attacker's-eye view: trying to break an HPNN-locked model.
//!
//! Implements the full Sec. IV threat model against one published model:
//! direct use, fine-tuning with growing thief datasets (both stolen-weight
//! and random init), a learning-rate sweep, and key guessing.
//!
//! ```text
//! cargo run --release --example fine_tune_attack
//! ```

use hpnn::attacks::{leakage_experiment, run_sweep, AttackInit, Attacker, SweepGrid};
use hpnn::core::{HpnnKey, HpnnTrainer, KEY_BITS};
use hpnn::data::{Benchmark, DatasetScale};
use hpnn::nn::{mlp, TrainConfig};
use hpnn::tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The victim publishes a locked model.
    let dataset = Benchmark::FashionMnist.synthetic(DatasetScale::SMALL);
    let spec = mlp(dataset.shape.volume(), &[64], dataset.classes);
    let mut rng = Rng::new(99);
    let key = HpnnKey::random(&mut rng);
    let artifacts = HpnnTrainer::new(spec, key)
        .with_config(TrainConfig::default().with_epochs(12).with_lr(0.03))
        .with_seed(3)
        .train(&dataset)?;
    let model = artifacts.model;
    println!(
        "victim's accuracy (with key): {:.2}%",
        artifacts.accuracy_with_key * 100.0
    );
    println!(
        "direct stolen use (no key):   {:.2}%\n",
        artifacts.accuracy_without_key * 100.0
    );

    // Attack 1: fine-tuning with growing thief datasets.
    println!("## fine-tuning attack (stolen vs random init)");
    let ft_config = TrainConfig::default().with_epochs(8).with_lr(0.03);
    for alpha in [0.0f32, 0.02, 0.05, 0.10] {
        let (hpnn, random) = leakage_experiment(&model, &dataset, alpha, &ft_config, 5)?;
        println!(
            "  α = {:>4.0}%: HPNN-init best {:.2}% | random-init best {:.2}% ({} thief samples)",
            alpha * 100.0,
            hpnn.best_accuracy * 100.0,
            random.best_accuracy * 100.0,
            hpnn.thief_size
        );
    }

    // Attack 2: hyperparameter sweep at α = 10%.
    println!("\n## learning-rate sweep at α = 10%");
    let grid = SweepGrid::paper_lr_grid(8);
    let report = run_sweep(
        &model,
        &dataset,
        0.10,
        AttackInit::Stolen,
        &grid,
        ft_config,
        6,
    )?;
    for cell in &report.cells {
        println!(
            "  lr = {:<7}: best {:.2}%",
            cell.lr,
            cell.result.best_accuracy * 100.0
        );
    }
    if let Some(best) = report.best() {
        println!(
            "  attacker's best overall: {:.2}% (vs owner {:.2}%)",
            best.result.best_accuracy * 100.0,
            artifacts.accuracy_with_key * 100.0
        );
    }

    // Attack 3: key guessing, and a greedy climb over key bits.
    println!("\n## key guessing (keyspace = 2^256)");
    let attacker = Attacker::new(&model, &dataset)?;
    let mut attack_rng = Rng::new(7);
    let guesses: Vec<f32> = (0..10)
        .map(|_| attacker.key_accuracy(&HpnnKey::random(&mut attack_rng)))
        .collect();
    println!(
        "  10 random keys: best {:.2}%, mean {:.2}%",
        guesses.iter().copied().fold(0.0, f32::max) * 100.0,
        guesses.iter().sum::<f32>() / 10.0 * 100.0
    );
    let bits = attack_rng.sample_indices(KEY_BITS, 32);
    let key_bit = |&b: &usize| attacker.on_accumulator(b, attacker.neurons());
    let climb = attacker.climb(bits.iter().map(key_bit));
    println!(
        "  greedy bit-climb (32 bits probed, {} flips kept): {:.2}%",
        climb.kept.len(),
        climb.accuracy * 100.0
    );

    println!("\nconclusion: every attack stays well below the owner's accuracy.");
    Ok(())
}
