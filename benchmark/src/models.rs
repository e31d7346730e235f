//! The locked models the workloads serve, the seeded input pool, and the
//! reference logits every reply is checked against.

use std::time::Instant;

use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_data::{Dataset, ImageShape, SyntheticSpec};
use hpnn_nn::{cnn1, mlp, ActKind, ImageDims, LayerSpec, NetworkSpec};
use hpnn_serve::InferMode;
use hpnn_tensor::{Conv2dGeom, PoolGeom, Rng, Tensor};

use crate::loadgen::References;

/// Rows in the input pool of a serving workload.
pub const POOL_ROWS: usize = 256;

/// Which architecture a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The conv + fc2048 model of `crates/bench/benches/serve_throughput.rs`:
    /// two 3x3 conv + 2x2 maxpool stages on a 16x16 input feeding a
    /// 2048-wide two-layer fc head (GEMM-bound, so batching pays).
    ConvFc,
    /// `mlp(64, [64], 10)`: a forward of a few microseconds.
    TinyMlp,
    /// CNN1 of Table I on a 16x16 input, width 1.0.
    Cnn1Small,
    /// CNN1 of Table I on the 28x28 Fashion-MNIST geometry, width 1.0.
    Cnn1,
}

impl ModelKind {
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::ConvFc => "convfc",
            ModelKind::TinyMlp => "tiny",
            ModelKind::Cnn1Small => "cnn1-16",
            ModelKind::Cnn1 => "cnn1",
        }
    }

    /// The image geometry of the model's input rows.
    pub fn input(self) -> ImageShape {
        match self {
            ModelKind::ConvFc | ModelKind::Cnn1Small => ImageShape::new(1, 16, 16),
            ModelKind::TinyMlp => ImageShape::new(1, 8, 8),
            ModelKind::Cnn1 => ImageShape::new(1, 28, 28),
        }
    }

    pub fn spec(self) -> NetworkSpec {
        let dims = |s: ImageShape| ImageDims::new(s.c, s.h, s.w);
        match self {
            ModelKind::ConvFc => convfc_spec(),
            ModelKind::TinyMlp => mlp(64, &[64], 10),
            ModelKind::Cnn1Small | ModelKind::Cnn1 => {
                cnn1(dims(self.input()), 10, 1.0).expect("cnn1 geometry")
            }
        }
    }
}

fn convfc_spec() -> NetworkSpec {
    let c1 = Conv2dGeom::new(1, 16, 16, 8, 3, 1, 1).expect("conv1 geom");
    let c2 = Conv2dGeom::new(8, 8, 8, 16, 3, 1, 1).expect("conv2 geom");
    let relu = |features| LayerSpec::Activation {
        kind: ActKind::Relu,
        features,
    };
    let dense = |in_features, out_features| LayerSpec::Dense {
        in_features,
        out_features,
    };
    NetworkSpec::new(
        256,
        vec![
            LayerSpec::Conv2d { geom: c1 },
            relu(8 * 16 * 16),
            LayerSpec::MaxPool2d {
                channels: 8,
                geom: PoolGeom::new(16, 16, 2, 2).expect("pool1 geom"),
            },
            LayerSpec::Conv2d { geom: c2 },
            relu(16 * 8 * 8),
            LayerSpec::MaxPool2d {
                channels: 16,
                geom: PoolGeom::new(8, 8, 2, 2).expect("pool2 geom"),
            },
            dense(256, 2048),
            relu(2048),
            dense(2048, 2048),
            relu(2048),
            dense(2048, 10),
        ],
    )
}

/// A published model with the key that unlocks it.
pub struct Locked {
    pub kind: ModelKind,
    pub model: LockedModel,
    pub key: HpnnKey,
}

impl Locked {
    /// A freshly initialised (untrained) network of `kind`, locked under a
    /// key drawn from `rng` and packaged for publication. Serving cost does
    /// not depend on what the weights have learnt.
    pub fn fresh(kind: ModelKind, rng: &mut Rng) -> Locked {
        let spec = kind.spec();
        let key = HpnnKey::random(rng);
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
        let mut net = spec.build(rng).expect("build model");
        net.install_lock_factors(&schedule.derive_lock_factors(&key));
        let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
        Locked { kind, model, key }
    }

    pub fn vault(&self) -> KeyVault {
        KeyVault::provision(self.key, "benchmark")
    }
}

/// A synthetic labelled dataset in `shape`, made from `seed`; returns it
/// with the seconds `hpnn-data` took to synthesize and normalize it.
pub fn synthesize(shape: ImageShape, train_n: usize, test_n: usize, seed: u64) -> (Dataset, f64) {
    let started = Instant::now();
    // Noise level of the Fashion-MNIST stand-in (`Benchmark::synthetic`),
    // scaled down for small sides exactly as that function does.
    let noise = 0.70 * (shape.h.min(shape.w) as f32 / 16.0).min(1.0);
    let mut ds = SyntheticSpec::new("Fashion-MNIST", shape, 10)
        .with_sizes(train_n, test_n)
        .with_noise(noise)
        .with_seed(seed)
        .generate();
    ds.normalize();
    (ds, started.elapsed().as_secs_f64())
}

/// Reference logits of `locked` over the whole pool, in `mode`: deploy as
/// the trusted device (or as the thief) and run one plain forward.
pub fn reference(locked: &Locked, mode: InferMode, pool: &Tensor) -> Vec<f32> {
    let mut net = match mode {
        InferMode::Keyed => locked.model.deploy_trusted(&locked.vault()),
        InferMode::Keyless => locked.model.deploy_stolen(),
    }
    .expect("deploy reference network");
    net.forward(pool, false).into_vec()
}

/// Reference tables for every `(model id, mode)` pair in `pairs`.
pub fn references(models: &[Locked], pairs: &[(u16, InferMode)], pool: &Tensor) -> References {
    References {
        tables: pairs
            .iter()
            .map(|&(id, mode)| {
                let locked = &models[id as usize];
                let cols = locked.model.spec().out_features();
                (id, mode, reference(locked, mode, pool), cols)
            })
            .collect(),
    }
}
