//! # hpnn-bench
//!
//! Experiment harness regenerating every table and figure of the HPNN paper
//! (see DESIGN.md §3 for the experiment index). Each binary prints the same
//! rows/series the paper reports:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table1` | Table I (locked accuracy + fine-tuning columns) |
//! | `fig3` | Fig. 3 (accuracy across 20 random keys) |
//! | `fig5` | Fig. 5 (fine-tuning vs thief fraction, CNN1 + ResNet) |
//! | `fig6` | Fig. 6 (fine-tuning vs learning rate) |
//! | `fig7` | Fig. 7 (random vs HPNN fine-tuning across α) |
//! | `hw_overhead` | Fig. 4 / Sec. III-D overhead numbers |
//!
//! Scale is controlled by the `HPNN_SCALE` environment variable or a
//! `--scale tiny|small|medium` argument (default `small`); real data files
//! are used when `HPNN_DATA_DIR` points at them.

#![warn(missing_docs)]

use std::path::PathBuf;

use hpnn_core::{HpnnKey, HpnnTrainer, TrainedArtifacts};
use hpnn_data::{Benchmark, Dataset, DatasetScale};
use hpnn_nn::{ArchKind, ImageDims, NetworkSpec, TrainConfig};

/// Experiment sizing: dataset split sizes, channel-width multiplier, and
/// epoch budgets for owner training and attacker fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Dataset split sizes / image side.
    pub dataset: DatasetScale,
    /// Channel-width multiplier for the Table I architectures.
    pub width: f32,
    /// Owner training epochs.
    pub epochs: usize,
    /// Attacker fine-tuning epochs.
    pub ft_epochs: usize,
    /// Label printed in experiment headers.
    pub label: &'static str,
}

impl Scale {
    /// Seconds-level runs (CI smoke tests).
    pub fn tiny() -> Self {
        Scale {
            dataset: DatasetScale::TINY,
            width: 0.5,
            epochs: 6,
            ft_epochs: 12,
            label: "tiny",
        }
    }

    /// Minutes-level runs — the default experiment scale.
    pub fn small() -> Self {
        Scale {
            dataset: DatasetScale::SMALL,
            width: 0.5,
            epochs: 12,
            ft_epochs: 30,
            label: "small",
        }
    }

    /// Tens of minutes on a multicore CPU.
    pub fn medium() -> Self {
        Scale {
            dataset: DatasetScale::MEDIUM,
            width: 1.0,
            epochs: 20,
            ft_epochs: 40,
            label: "medium",
        }
    }

    /// Parses a scale name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Scale::tiny()),
            "small" => Some(Scale::small()),
            "medium" => Some(Scale::medium()),
            _ => None,
        }
    }

    /// Resolves the scale from `--scale <name>` in `args` or the
    /// `HPNN_SCALE` environment variable, defaulting to `small`.
    pub fn from_env_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if let Some(pos) = args.iter().position(|a| a == "--scale") {
            if let Some(name) = args.get(pos + 1) {
                if let Some(s) = Scale::by_name(name) {
                    return s;
                }
                eprintln!("unknown scale `{name}`, falling back to env/default");
            }
        }
        std::env::var("HPNN_SCALE")
            .ok()
            .and_then(|s| Scale::by_name(&s))
            .unwrap_or_else(Scale::small)
    }

    /// Owner training configuration at this scale.
    pub fn owner_config(&self) -> TrainConfig {
        TrainConfig::default()
            .with_epochs(self.epochs)
            .with_lr(0.02)
            .with_batch_size(32)
            .with_warmup(2.0)
            .with_grad_clip(2.0)
    }

    /// Attacker fine-tuning configuration (paper: same hyperparameters as
    /// the owner unless swept).
    pub fn attacker_config(&self) -> TrainConfig {
        self.owner_config().with_epochs(self.ft_epochs)
    }
}

/// Architecture used for each benchmark in Table I.
pub fn arch_for(benchmark: Benchmark) -> ArchKind {
    match benchmark {
        Benchmark::FashionMnist => ArchKind::Cnn1,
        Benchmark::Cifar10 => ArchKind::Cnn2,
        Benchmark::Svhn => ArchKind::Cnn3,
    }
}

/// Directory holding real benchmark files, if configured via
/// `HPNN_DATA_DIR`.
pub fn data_dir() -> Option<PathBuf> {
    std::env::var_os("HPNN_DATA_DIR").map(PathBuf::from)
}

/// Materializes a benchmark dataset at the given scale (real files when
/// available, synthetic stand-in otherwise).
pub fn load_dataset(benchmark: Benchmark, scale: &Scale) -> Dataset {
    benchmark.load_or_synthesize(data_dir().as_deref(), scale.dataset)
}

/// Builds the Table I architecture spec for a dataset at the given scale.
///
/// # Panics
///
/// Panics if the dataset geometry cannot host the architecture (should not
/// happen for the built-in scales).
pub fn spec_for(benchmark: Benchmark, dataset: &Dataset, scale: &Scale) -> NetworkSpec {
    let dims = ImageDims::new(dataset.shape.c, dataset.shape.h, dataset.shape.w);
    arch_for(benchmark)
        .build_spec(dims, dataset.classes, scale.width)
        .expect("architecture fits the dataset geometry")
}

/// Builds an arbitrary architecture spec for a dataset.
///
/// # Panics
///
/// Panics if the geometry is incompatible.
pub fn spec_for_arch(arch: ArchKind, dataset: &Dataset, scale: &Scale) -> NetworkSpec {
    let dims = ImageDims::new(dataset.shape.c, dataset.shape.h, dataset.shape.w);
    arch.build_spec(dims, dataset.classes, scale.width)
        .expect("architecture fits the dataset geometry")
}

/// Owner-side training: dataset + key → published artifacts.
///
/// # Panics
///
/// Panics if training fails (invalid architecture), which indicates a bug
/// in the harness rather than a recoverable condition.
pub fn owner_train(
    benchmark: Benchmark,
    scale: &Scale,
    key: HpnnKey,
    seed: u64,
) -> (Dataset, TrainedArtifacts) {
    let dataset = load_dataset(benchmark, scale);
    let spec = spec_for(benchmark, &dataset, scale);
    let artifacts = HpnnTrainer::new(spec, key)
        .with_config(scale.owner_config())
        .with_seed(seed)
        .train(&dataset)
        .expect("owner training");
    (dataset, artifacts)
}

/// Prints a Markdown-style table: header row, separator, then rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        println!("{s}");
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

/// Formats an accuracy as the paper does (percent, two decimals).
pub fn pct(acc: f32) -> String {
    format!("{:.2}", acc * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::by_name("tiny").unwrap().label, "tiny");
        assert_eq!(Scale::by_name("small").unwrap().label, "small");
        assert_eq!(Scale::by_name("medium").unwrap().label, "medium");
        assert!(Scale::by_name("gigantic").is_none());
    }

    #[test]
    fn arch_mapping_matches_table1() {
        assert_eq!(arch_for(Benchmark::FashionMnist), ArchKind::Cnn1);
        assert_eq!(arch_for(Benchmark::Cifar10), ArchKind::Cnn2);
        assert_eq!(arch_for(Benchmark::Svhn), ArchKind::Cnn3);
    }

    #[test]
    fn specs_build_for_all_benchmarks_at_tiny() {
        let scale = Scale::tiny();
        for b in Benchmark::all() {
            let ds = load_dataset(b, &scale);
            let spec = spec_for(b, &ds, &scale);
            assert!(spec.lockable_neurons() > 0, "{b}");
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.8993), "89.93");
        assert_eq!(pct(0.1), "10.00");
    }

    #[test]
    fn owner_train_tiny_smoke() {
        let scale = Scale::tiny();
        let (ds, artifacts) = owner_train(
            Benchmark::FashionMnist,
            &scale,
            HpnnKey::from_words([9, 8, 7, 6]),
            1,
        );
        assert_eq!(ds.classes, 10);
        assert!(artifacts.accuracy_with_key > artifacts.accuracy_without_key);
    }
}
