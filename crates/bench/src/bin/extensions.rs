//! Extension experiments beyond the paper's evaluation (EXPERIMENTS.md
//! "Extensions" section):
//!
//! 1. **Transformation attacks** — scaling / noising / pruning of stolen
//!    weights (cited in the paper's introduction as watermark-evasion
//!    transforms): none recovers locked accuracy.
//! 2. **Key guessing** — random 256-bit keys and greedy bit-climbing with a
//!    test-set oracle.
//! 3. **Sign recovery** — per-neuron sign flips (Lemma 1 weaponized) and
//!    their schedule-aware variant, which groups first-layer neurons by the
//!    accumulator the published schedule gives them (the paper keeps the
//!    schedule private, Sec. III-D2; this container publishes it).
//!
//! Sections 2 and 3 are one greedy search each over lock factors of the
//! stolen network ([`hpnn_attacks::Attacker`]).
//!
//! ```text
//! cargo run --release -p hpnn-bench --bin extensions [-- --scale tiny|small|medium]
//! ```

use hpnn_attacks::{transformation_sweep, AttackInit, Attacker, FineTuneAttack, Transform};
use hpnn_bench::{load_dataset, pct, print_table, Scale};
use hpnn_core::{HpnnKey, HpnnTrainer, ScheduleKind, KEY_BITS};
use hpnn_data::AugmentPolicy;
use hpnn_data::Benchmark;
use hpnn_nn::mlp;
use hpnn_tensor::Rng;

fn main() {
    let scale = Scale::from_env_args();
    println!(
        "# Extension attacks against an HPNN-locked model (scale: {})",
        scale.label
    );
    println!();

    let dataset = load_dataset(Benchmark::FashionMnist, &scale);
    // Two hidden layers: sign recovery on the first layer alone cannot undo
    // the locking of the second (see the single-layer caveat below).
    let spec = mlp(dataset.shape.volume(), &[64, 48], dataset.classes);
    let mut rng = Rng::new(0xE71);
    let key = HpnnKey::random(&mut rng);
    eprintln!("[extensions] owner-training ...");
    let artifacts = HpnnTrainer::new(spec, key)
        .with_schedule(ScheduleKind::Permuted, 0x5EC2E7)
        .with_config(scale.owner_config())
        .with_seed(5)
        .train(&dataset)
        .expect("owner training");
    println!(
        "victim: owner accuracy {} | stolen (no key) {}",
        pct(artifacts.accuracy_with_key),
        pct(artifacts.accuracy_without_key)
    );
    println!();

    // ── 1. Transformation attacks ────────────────────────────────────────
    println!("## weight-transformation attacks on the stolen model");
    let transforms = [
        Transform::Scale { factor: 0.5 },
        Transform::Scale { factor: 2.0 },
        Transform::Noise {
            relative_sigma: 0.05,
        },
        Transform::Noise {
            relative_sigma: 0.2,
        },
        Transform::Prune { fraction: 0.1 },
        Transform::Prune { fraction: 0.3 },
        Transform::Prune { fraction: 0.6 },
    ];
    let results =
        transformation_sweep(&artifacts.model, &dataset, &transforms, 11).expect("transform sweep");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.transform),
                pct(r.stolen_accuracy),
                pct(r.transformed_accuracy),
            ]
        })
        .collect();
    print_table(&["transform", "stolen acc", "after transform"], &rows);
    println!("(no transformation recovers the owner's accuracy)");
    println!();

    // ── 1b. Augmented fine-tuning ────────────────────────────────────────
    println!("## augmented fine-tuning (thief stretches the stolen data, α = 10%)");
    let plain_ft = FineTuneAttack::new(AttackInit::Stolen, 0.10)
        .with_config(scale.attacker_config())
        .with_seed(21)
        .run(&artifacts.model, &dataset)
        .expect("plain ft");
    let augmented_ft = FineTuneAttack::new(AttackInit::Stolen, 0.10)
        .with_config(scale.attacker_config())
        .with_augmentation(4, AugmentPolicy::standard())
        .with_seed(21)
        .run(&artifacts.model, &dataset)
        .expect("augmented ft");
    print_table(
        &["attack", "thief samples", "best accuracy"],
        &[
            vec![
                "fine-tuning".into(),
                plain_ft.thief_size.to_string(),
                pct(plain_ft.best_accuracy),
            ],
            vec![
                "fine-tuning + 4x augmentation".into(),
                augmented_ft.thief_size.to_string(),
                pct(augmented_ft.best_accuracy),
            ],
        ],
    );
    println!(
        "(augmentation buys the attacker some accuracy but stays below the owner's {})",
        pct(artifacts.accuracy_with_key)
    );
    println!();

    // ── 2. Key guessing ──────────────────────────────────────────────────
    println!("## key guessing (2^256 keyspace)");
    let attacker = Attacker::new(&artifacts.model, &dataset).expect("stolen model");
    let mut guess_rng = Rng::new(0x6E55);
    let guesses: Vec<f32> = (0..12)
        .map(|_| attacker.key_accuracy(&HpnnKey::random(&mut guess_rng)))
        .collect();
    let best_guess = guesses.iter().copied().fold(0.0, f32::max);
    println!(
        "12 random keys: best {} | mean {}",
        pct(best_guess),
        pct(guesses.iter().sum::<f32>() / 12.0)
    );
    let profile_rows: Vec<Vec<String>> = [1usize, 8, 32, 128]
        .iter()
        .map(|&flips| {
            let mean = (0..4)
                .map(|_| {
                    let wrong = guess_rng.sample_indices(KEY_BITS, flips);
                    attacker
                        .key_accuracy(&wrong.into_iter().fold(key, |k, b| k.with_flipped_bit(b)))
                })
                .sum::<f32>()
                / 4.0;
            vec![flips.to_string(), pct(mean)]
        })
        .collect();
    print_table(&["key bits wrong", "mean accuracy"], &profile_rows);
    let bits = guess_rng.sample_indices(KEY_BITS, 64);
    let key_bit = |&b: &usize| attacker.on_accumulator(b, attacker.neurons());
    let climb = attacker.climb(bits.iter().map(key_bit));
    println!(
        "greedy bit-climb (64 oracle queries, {} flips kept): {}",
        climb.kept.len(),
        pct(climb.accuracy)
    );
    println!();

    // ── 3. Sign recovery ─────────────────────────────────────────────────
    println!("## sign-recovery attacks (Lemma 1 weaponized)");
    let first = attacker.first_layer();
    let order = Rng::new(0x516F).sample_indices(first.len(), 64);
    let blind = attacker.climb(order.iter().map(|&j| vec![j]));
    println!(
        "blind per-neuron flips:     {} -> {} ({} queries, {} kept)",
        pct(blind.initial_accuracy),
        pct(blind.accuracy),
        blind.queries,
        blind.kept.len()
    );
    let groups = (0..KEY_BITS)
        .map(|acc| attacker.on_accumulator(acc, first.clone()))
        .filter(|group| !group.is_empty());
    let leaked = attacker.climb(groups.clone().chain(groups));
    println!(
        "schedule-leak group flips:  {} -> {} ({} queries, {} kept)",
        pct(leaked.initial_accuracy),
        pct(leaked.accuracy),
        leaked.queries,
        leaked.kept.len()
    );
    println!();
    let best_attack = leaked
        .accuracy
        .max(blind.accuracy)
        .max(climb.accuracy)
        .max(best_guess);
    println!(
        "owner reference: {} | best extension attack: {}",
        pct(artifacts.accuracy_with_key),
        pct(best_attack)
    );
    println!();
    println!("## single-hidden-layer caveat (security analysis)");
    println!("For an MLP with ONE hidden layer, every locked neuron sits in the first");
    println!("layer, so greedy per-neuron sign recovery with an accuracy oracle");
    println!("reconstructs the Lemma 1 equivalent weights and FULLY unlocks the model:");
    let shallow_spec = mlp(dataset.shape.volume(), &[48], dataset.classes);
    let shallow = HpnnTrainer::new(shallow_spec, key)
        .with_schedule(ScheduleKind::Permuted, 0x5EC2E7)
        .with_config(scale.owner_config())
        .with_seed(6)
        .train(&dataset)
        .expect("shallow training");
    let shallow_attacker = Attacker::new(&shallow.model, &dataset).expect("stolen model");
    let order = Rng::new(0x51F).sample_indices(shallow_attacker.first_layer().len(), 48);
    let broken = shallow_attacker.climb(order.iter().map(|&j| vec![j]));
    println!(
        "  1-hidden-layer MLP: owner {} | stolen {} | after {} greedy flips: {}",
        pct(shallow.accuracy_with_key),
        pct(broken.initial_accuracy),
        broken.queries,
        pct(broken.accuracy)
    );
    println!("HPNN therefore needs depth (interacting locked layers) for its security —");
    println!("the paper's CNN1/CNN2/CNN3/ResNet18 evaluation targets all satisfy this;");
    println!("single-hidden-layer deployments should not rely on HPNN alone.");
}
