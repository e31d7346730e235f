//! Neuron-to-accumulator scheduling.
//!
//! A modern DNN has thousands of lockable neurons but the hardware
//! root-of-trust has only 256 accumulator units, each wired to one key bit.
//! The hardware's scheduling algorithm maps every locked neuron onto an
//! accumulator; the neuron inherits that accumulator's key bit (paper
//! Sec. III-D2). The paper notes that keeping the scheduling details secret
//! further hardens the framework; this module models the policy as a seeded
//! permutation. The seed is **not** secret here: the model container
//! publishes it, and the default seed is derived from key word 0 (see
//! [`HpnnTrainer::new`](crate::HpnnTrainer::new) and ROADMAP security
//! step 1, "Close the key leak").

use hpnn_tensor::Rng;

use crate::key::{HpnnKey, KEY_BITS};

/// The mapping policy from neuron index to accumulator index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Neuron `j` → accumulator `j mod A`: the natural weight-stationary
    /// systolic assignment where consecutive output neurons stream through
    /// consecutive accumulator columns.
    RoundRobin,
    /// Neuron `j` → accumulator `j / ceil(N/A)`: contiguous blocks of
    /// neurons share an accumulator (output-stationary tiling).
    Blocked,
    /// Like [`ScheduleKind::RoundRobin`] but composed with a permutation of
    /// the accumulator indices derived from the schedule seed — the
    /// paper's "details of such scheduling … kept private". The container
    /// publishes the seed, so the permutation is public.
    Permuted,
}

/// A concrete neuron→accumulator schedule for one network.
///
/// # Examples
///
/// ```
/// use hpnn_core::{HpnnKey, Schedule, ScheduleKind};
///
/// let schedule = Schedule::new(1000, ScheduleKind::RoundRobin, 0);
/// assert_eq!(schedule.accumulator_of(0), 0);
/// assert_eq!(schedule.accumulator_of(256), 0);
/// assert_eq!(schedule.accumulator_of(257), 1);
///
/// let key = HpnnKey::ZERO;
/// let factors = schedule.derive_lock_factors(&key);
/// assert!(factors.iter().all(|&f| f == 1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    num_neurons: usize,
    kind: ScheduleKind,
    seed: u64,
    /// Accumulator permutation (identity unless `Permuted`).
    perm: Vec<u16>,
}

impl Schedule {
    /// Creates a schedule for `num_neurons` locked neurons.
    ///
    /// `seed` parameterizes the permutation for
    /// [`ScheduleKind::Permuted`] (ignored otherwise, but stored so the
    /// owner can reproduce the mapping).
    pub fn new(num_neurons: usize, kind: ScheduleKind, seed: u64) -> Self {
        let mut perm: Vec<u16> = (0..KEY_BITS as u16).collect();
        if kind == ScheduleKind::Permuted {
            let mut rng = Rng::new(seed ^ 0x5C4E_D01E);
            rng.shuffle(&mut perm);
        }
        Schedule {
            num_neurons,
            kind,
            seed,
            perm,
        }
    }

    /// Number of locked neurons covered.
    pub fn num_neurons(&self) -> usize {
        self.num_neurons
    }

    /// The mapping policy.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Accumulator (and hence key-bit) index for neuron `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= num_neurons`.
    pub fn accumulator_of(&self, j: usize) -> usize {
        assert!(
            j < self.num_neurons,
            "neuron {j} out of range ({})",
            self.num_neurons
        );
        let base = match self.kind {
            ScheduleKind::RoundRobin | ScheduleKind::Permuted => j % KEY_BITS,
            ScheduleKind::Blocked => {
                let block = self.num_neurons.div_ceil(KEY_BITS);
                j / block
            }
        };
        self.perm[base] as usize
    }

    /// Derives per-neuron ±1 lock factors from an HPNN key (paper Eq. 2 via
    /// the scheduling of Sec. III-D2).
    pub fn derive_lock_factors(&self, key: &HpnnKey) -> Vec<f32> {
        (0..self.num_neurons)
            .map(|j| key.lock_factor(self.accumulator_of(j)))
            .collect()
    }

    /// Derives the raw key-bit assignment per neuron.
    pub fn derive_key_bits(&self, key: &HpnnKey) -> Vec<bool> {
        (0..self.num_neurons)
            .map(|j| key.bit(self.accumulator_of(j)))
            .collect()
    }

    /// Number of neurons mapped to each accumulator (load histogram).
    pub fn load_histogram(&self) -> [usize; KEY_BITS] {
        let mut hist = [0usize; KEY_BITS];
        for j in 0..self.num_neurons {
            hist[self.accumulator_of(j)] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_wraps() {
        let s = Schedule::new(600, ScheduleKind::RoundRobin, 0);
        assert_eq!(s.accumulator_of(5), 5);
        assert_eq!(s.accumulator_of(261), 5);
    }

    #[test]
    fn blocked_groups_contiguously() {
        let s = Schedule::new(512, ScheduleKind::Blocked, 0);
        // block size = ceil(512/256) = 2.
        assert_eq!(s.accumulator_of(0), 0);
        assert_eq!(s.accumulator_of(1), 0);
        assert_eq!(s.accumulator_of(2), 1);
        assert_eq!(s.accumulator_of(511), 255);
    }

    #[test]
    fn permuted_is_a_bijection_of_round_robin() {
        let s = Schedule::new(256, ScheduleKind::Permuted, 1234);
        let mut seen = [false; KEY_BITS];
        for j in 0..256 {
            let a = s.accumulator_of(j);
            assert!(!seen[a], "accumulator {a} reused within one round");
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permuted_depends_on_seed() {
        let a = Schedule::new(256, ScheduleKind::Permuted, 1);
        let b = Schedule::new(256, ScheduleKind::Permuted, 2);
        let same = (0..256)
            .filter(|&j| a.accumulator_of(j) == b.accumulator_of(j))
            .count();
        assert!(same < 32, "{same} matching assignments");
    }

    #[test]
    fn permuted_reproducible() {
        let a = Schedule::new(100, ScheduleKind::Permuted, 9);
        let b = Schedule::new(100, ScheduleKind::Permuted, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn lock_factors_follow_key_bits() {
        let key = HpnnKey::from_words([0b1, 0, 0, 0]); // only bit 0 set
        let s = Schedule::new(512, ScheduleKind::RoundRobin, 0);
        let f = s.derive_lock_factors(&key);
        assert_eq!(f[0], -1.0);
        assert_eq!(f[256], -1.0); // wraps to accumulator 0
        assert_eq!(f[1], 1.0);
    }

    #[test]
    fn key_bits_match_factors() {
        let mut rng = Rng::new(3);
        let key = HpnnKey::random(&mut rng);
        let s = Schedule::new(300, ScheduleKind::Permuted, 7);
        let bits = s.derive_key_bits(&key);
        let factors = s.derive_lock_factors(&key);
        for (b, f) in bits.iter().zip(&factors) {
            assert_eq!(*f, if *b { -1.0 } else { 1.0 });
        }
    }

    #[test]
    fn load_histogram_balanced_round_robin() {
        let s = Schedule::new(1024, ScheduleKind::RoundRobin, 0);
        let hist = s.load_histogram();
        assert!(hist.iter().all(|&c| c == 4));
    }

    #[test]
    fn zero_key_unlocks_everything() {
        let s = Schedule::new(777, ScheduleKind::Permuted, 42);
        let f = s.derive_lock_factors(&HpnnKey::ZERO);
        assert!(f.iter().all(|&x| x == 1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn accumulator_of_validates() {
        let s = Schedule::new(10, ScheduleKind::RoundRobin, 0);
        let _ = s.accumulator_of(10);
    }

    #[test]
    fn fewer_neurons_than_accumulators() {
        let s = Schedule::new(8, ScheduleKind::Blocked, 0);
        // block = ceil(8/256) = 1 → one neuron per accumulator.
        for j in 0..8 {
            assert_eq!(s.accumulator_of(j), j);
        }
    }
}
