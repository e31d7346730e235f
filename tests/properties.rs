//! Randomized property tests over the core data structures and the paper's
//! algebraic invariants.
//!
//! Each property is exercised over many cases drawn from the workspace's own
//! deterministic [`Rng`], so failures reproduce exactly (the external
//! `proptest` dependency is unavailable in the offline build environment and
//! was never needed for shrinkable inputs here — every case prints its seed).

use hpnn::core::{sha256, HpnnKey, LockedModel, ModelMetadata, Schedule, ScheduleKind, KEY_BITS};
use hpnn::hw::{KeyedAccumulator, RippleCarryAdder};
use hpnn::nn::{mlp, ActKind, LayerSpec, NetworkSpec};
use hpnn::tensor::{matmul, Rng, Shape, Tensor};

/// Cases per property; tuned so the whole file stays test-suite fast.
const CASES: usize = 64;

fn random_key(rng: &mut Rng) -> HpnnKey {
    HpnnKey::from_words([
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
    ])
}

fn random_kind(rng: &mut Rng) -> ScheduleKind {
    [
        ScheduleKind::RoundRobin,
        ScheduleKind::Blocked,
        ScheduleKind::Permuted,
    ][rng.below(3)]
}

/// Key hex serialization is a bijection.
#[test]
fn key_hex_roundtrip() {
    let mut rng = Rng::new(0x01);
    for case in 0..CASES {
        let key = random_key(&mut rng);
        let hex = key.to_string();
        assert_eq!(HpnnKey::from_hex(&hex).unwrap(), key, "case {case}");
    }
}

/// Key byte serialization is a bijection.
#[test]
fn key_bytes_roundtrip() {
    let mut rng = Rng::new(0x02);
    for case in 0..CASES {
        let key = random_key(&mut rng);
        assert_eq!(HpnnKey::from_bytes(key.to_bytes()), key, "case {case}");
    }
}

/// Flipping a bit changes the Hamming distance by exactly one, and flipping
/// twice restores the key.
#[test]
fn hamming_flip_changes_distance_by_one() {
    let mut rng = Rng::new(0x03);
    for case in 0..CASES {
        let key = random_key(&mut rng);
        let bit = rng.below(KEY_BITS);
        let flipped = key.with_flipped_bit(bit);
        assert_eq!(key.hamming_distance(&flipped), 1, "case {case}");
        assert_eq!(flipped.with_flipped_bit(bit), key, "case {case}");
    }
}

/// Lock factors are exactly (−1)^bit.
#[test]
fn lock_factor_sign_matches_bit() {
    let mut rng = Rng::new(0x04);
    for case in 0..CASES {
        let key = random_key(&mut rng);
        let bit = rng.below(KEY_BITS);
        let expected = if key.bit(bit) { -1.0 } else { 1.0 };
        assert_eq!(key.lock_factor(bit), expected, "case {case}");
    }
}

/// Every schedule maps every neuron to a valid accumulator and is
/// deterministic.
#[test]
fn schedule_in_range_and_deterministic() {
    let mut rng = Rng::new(0x05);
    for case in 0..CASES {
        let neurons = 1 + rng.below(4999);
        let seed = rng.next_u64();
        let kind = random_kind(&mut rng);
        let a = Schedule::new(neurons, kind, seed);
        let b = Schedule::new(neurons, kind, seed);
        for j in (0..neurons).step_by(1 + neurons / 64) {
            let acc = a.accumulator_of(j);
            assert!(acc < KEY_BITS, "case {case}");
            assert_eq!(acc, b.accumulator_of(j), "case {case}");
        }
    }
}

/// Derived lock factors agree with the per-neuron key-bit lookup.
#[test]
fn schedule_factors_match_bits() {
    let mut rng = Rng::new(0x06);
    for case in 0..CASES {
        let key = random_key(&mut rng);
        let neurons = 1 + rng.below(1999);
        let seed = rng.next_u64();
        let schedule = Schedule::new(neurons, ScheduleKind::Permuted, seed);
        let factors = schedule.derive_lock_factors(&key);
        assert_eq!(factors.len(), neurons, "case {case}");
        for (j, f) in factors.iter().enumerate().step_by(1 + neurons / 32) {
            let expected = key.lock_factor(schedule.accumulator_of(j));
            assert_eq!(*f, expected, "case {case}");
        }
    }
}

/// The gate-level ripple-carry adder equals wrapping integer addition.
#[test]
fn adder_matches_integer_semantics() {
    let mut rng = Rng::new(0x07);
    let adder = RippleCarryAdder::new(32);
    for case in 0..CASES * 4 {
        let a = rng.next_u32();
        let b = rng.next_u32();
        let cin = rng.bit();
        let (sum, _) = adder.add(a, b, cin);
        assert_eq!(
            sum,
            a.wrapping_add(b).wrapping_add(cin as u32),
            "case {case}"
        );
    }
}

/// The keyed accumulator realizes Eq. (1): acc(k) = (−1)^k · Σ products.
#[test]
fn keyed_accumulator_is_lock_factor() {
    let mut rng = Rng::new(0x08);
    for case in 0..CASES {
        let len = rng.below(128);
        let products: Vec<i16> = (0..len)
            .map(|_| (rng.next_u32() & 0xFFFF) as u16 as i16)
            .collect();
        let reference: i64 = products.iter().map(|&p| p as i64).sum();
        let key_bit = rng.bit();
        let mut unit = KeyedAccumulator::new(key_bit);
        unit.accumulate_all(products.iter().copied());
        let expected = if key_bit { -reference } else { reference };
        assert_eq!(unit.value() as i64, expected, "case {case}");
    }
}

/// Lemma 1 equivalence: a network under lock factors `from` and its sign
/// flip where `from` and `to` differ, run under `to`, give the same logits
/// bit for bit on random probes.
#[test]
fn lemma1_equivalence_preserves_outputs() {
    let mut rng = Rng::new(0x09);
    let kinds = [ActKind::Relu, ActKind::Sigmoid, ActKind::Tanh];
    for case in 0..CASES {
        let inputs = 1 + rng.below(9);
        let neurons = 1 + rng.below(7);
        let spec = NetworkSpec::new(
            inputs,
            vec![
                LayerSpec::Dense {
                    in_features: inputs,
                    out_features: neurons,
                },
                LayerSpec::Activation {
                    kind: kinds[rng.below(3)],
                    features: neurons,
                },
                LayerSpec::Dense {
                    in_features: neurons,
                    out_features: 3,
                },
            ],
        );
        let seed = rng.next_u64();
        let net = spec.build(&mut Rng::new(seed)).unwrap();
        let mut flipped = spec.build(&mut Rng::new(seed)).unwrap();
        let mut signs = || -> Vec<f32> {
            (0..neurons)
                .map(|_| if rng.bit() { 1.0 } else { -1.0 })
                .collect()
        };
        let (from, to) = (signs(), signs());
        let differ: Vec<f32> = from.iter().zip(&to).map(|(a, b)| a * b).collect();
        flipped.flip_signs(&differ);
        let probe = Tensor::randn([4, inputs], 1.0, &mut rng);
        let layers = 0..net.len();
        let a = net.infer_range(&probe, layers.clone(), Some(&from));
        let b = flipped.infer_range(&probe, layers, Some(&to));
        assert_eq!(a.data(), b.data(), "case {case}");
    }
}

/// Matmul distributes over addition: A(B + C) = AB + AC.
#[test]
fn matmul_distributive() {
    let mut rng = Rng::new(0x0A);
    for case in 0..CASES {
        let (m, k, n) = (1 + rng.below(5), 1 + rng.below(5), 1 + rng.below(5));
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let c = Tensor::randn([k, n], 1.0, &mut rng);
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        assert!(lhs.max_abs_diff(&rhs) < 1e-3, "case {case}");
    }
}

/// Transpose is an involution and reverses products.
#[test]
fn transpose_reverses_product() {
    let mut rng = Rng::new(0x0B);
    for case in 0..CASES {
        let (m, k, n) = (1 + rng.below(4), 1 + rng.below(4), 1 + rng.below(4));
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        assert!(lhs.max_abs_diff(&rhs) < 1e-4, "case {case}");
    }
}

/// Reshape preserves data and volume.
#[test]
fn reshape_preserves_data() {
    let mut rng = Rng::new(0x0C);
    for case in 0..CASES {
        let rows = 1 + rng.below(7);
        let cols = 1 + rng.below(7);
        let t = Tensor::randn([rows, cols], 1.0, &mut rng);
        let flat = t.clone().reshape(Shape::d1(rows * cols)).unwrap();
        assert_eq!(flat.data(), t.data(), "case {case}");
    }
}

/// Published containers roundtrip for arbitrary MLP geometries, keys,
/// schedules, and metadata, and their digests are stable.
#[test]
fn locked_model_container_roundtrip() {
    let mut rng = Rng::new(0x0D);
    for case in 0..CASES / 4 {
        let inputs = 1 + rng.below(11);
        let hidden = 1 + rng.below(9);
        let classes = 2 + rng.below(4);
        let key = random_key(&mut rng);
        let kind = random_kind(&mut rng);
        let schedule_seed = rng.next_u64();
        let name: String = (0..rng.below(13))
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();

        let spec = mlp(inputs, &[hidden], classes);
        let mut build_rng = Rng::new(1);
        let mut net = spec.build(&mut build_rng).unwrap();
        let schedule = Schedule::new(spec.lockable_neurons(), kind, schedule_seed);
        net.install_lock_factors(&schedule.derive_lock_factors(&key));
        let meta = ModelMetadata {
            name: name.clone(),
            dataset: "prop".into(),
            notes: String::new(),
        };
        let model = LockedModel::from_network(spec, &mut net, schedule, meta);
        let bytes = model.to_bytes();
        let decoded = LockedModel::from_bytes(bytes.clone()).unwrap();
        assert_eq!(&decoded, &model, "case {case}");
        assert_eq!(
            decoded.metadata().name.as_str(),
            name.as_str(),
            "case {case}"
        );
        // Content digest is deterministic and matches the raw bytes.
        assert_eq!(model.digest(), sha256(&bytes), "case {case}");
    }
}

/// SHA-256 is deterministic and single-bit-sensitive.
#[test]
fn sha256_bit_sensitivity() {
    let mut rng = Rng::new(0x0E);
    for case in 0..CASES {
        let len = 1 + rng.below(255);
        let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let d1 = sha256(&data);
        assert_eq!(d1, sha256(&data), "case {case}");
        let mut mutated = data.clone();
        let bit = rng.below(mutated.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(d1, sha256(&mutated), "case {case}");
    }
}
