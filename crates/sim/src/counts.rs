use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A histogram of measurement outcomes over `num_bits` classical bits.
///
/// Outcomes are stored as `u64` keys where bit `i` of the key is the value of
/// classical bit `i` (so at most 64 classical bits per histogram — far more
/// than any subcircuit the QRCC pipeline executes).
///
/// ```rust
/// use qrcc_sim::Counts;
///
/// let mut counts = Counts::new(2);
/// counts.record(0b00, 3);
/// counts.record(0b11, 1);
/// assert_eq!(counts.shots(), 4);
/// assert!((counts.probability(0b00) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Counts {
    counts: HashMap<u64, u64>,
    num_bits: usize,
    shots: u64,
}

impl Counts {
    /// The widest histogram [`Counts::probability_vector`] densifies: a
    /// `2^30`-entry vector is 8 GiB of `f64`.
    pub const MAX_DENSE_BITS: usize = 30;

    /// An empty histogram over `num_bits` classical bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_bits > 64`.
    pub fn new(num_bits: usize) -> Self {
        assert!(num_bits <= 64, "counts histograms support at most 64 classical bits");
        Counts { counts: HashMap::new(), num_bits, shots: 0 }
    }

    /// Number of classical bits of each outcome.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Total number of recorded shots.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Records `count` occurrences of `outcome`.
    pub fn record(&mut self, outcome: u64, count: u64) {
        *self.counts.entry(outcome).or_insert(0) += count;
        self.shots += count;
    }

    /// Records one occurrence of an outcome given as a bit slice
    /// (`bits[i]` is classical bit `i`).
    pub fn record_bits(&mut self, bits: &[bool]) {
        let mut key = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                key |= 1 << i;
            }
        }
        self.record(key, 1);
    }

    /// The number of shots that produced `outcome`.
    pub fn count(&self, outcome: u64) -> u64 {
        self.counts.get(&outcome).copied().unwrap_or(0)
    }

    /// The empirical probability of `outcome` (0 if no shots were recorded).
    pub fn probability(&self, outcome: u64) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / self.shots as f64
        }
    }

    /// Iterator over `(outcome, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }

    /// The empirical probability vector over all `2^num_bits` outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `num_bits` is large enough that the dense vector would not
    /// fit in memory (more than [`Counts::MAX_DENSE_BITS`]).
    pub fn probability_vector(&self) -> Vec<f64> {
        assert!(
            self.num_bits <= Self::MAX_DENSE_BITS,
            "dense probability vector limited to {} bits",
            Self::MAX_DENSE_BITS
        );
        let mut v = vec![0.0; 1 << self.num_bits];
        if self.shots == 0 {
            return v;
        }
        for (k, c) in &self.counts {
            v[*k as usize] = *c as f64 / self.shots as f64;
        }
        v
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths differ.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.num_bits, other.num_bits, "cannot merge histograms of different widths");
        for (k, c) in other.iter() {
            self.record(k, c);
        }
    }

    /// The expectation value of the ±1-valued parity of the listed bits:
    /// `E[(-1)^{popcount(outcome & mask)}]`.
    pub fn parity_expectation(&self, bits: &[usize]) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let mask: u64 = bits.iter().fold(0, |m, b| m | (1 << b));
        let mut total = 0.0;
        for (outcome, count) in self.iter() {
            let parity = (outcome & mask).count_ones() % 2;
            let sign = if parity == 0 { 1.0 } else { -1.0 };
            total += sign * count as f64;
        }
        total / self.shots as f64
    }

    /// Total-variation distance to an exact probability vector over the same
    /// bit width: `½ Σ_x |p̂(x) − p(x)|`.
    ///
    /// # Panics
    ///
    /// Panics if `exact.len() != 2^num_bits`.
    pub fn total_variation_distance(&self, exact: &[f64]) -> f64 {
        assert_eq!(exact.len(), 1usize << self.num_bits, "probability vector length mismatch");
        let mut distance = 0.0;
        for (x, p) in exact.iter().enumerate() {
            distance += (self.probability(x as u64) - p).abs();
        }
        distance / 2.0
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(u64, u64)> = self.iter().collect();
        entries.sort_unstable();
        write!(f, "{{")?;
        for (i, (k, v)) in entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:0width$b}: {}", k, v, width = self.num_bits.max(1))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_probability() {
        let mut c = Counts::new(3);
        c.record(0b101, 2);
        c.record_bits(&[true, false, true]);
        assert_eq!(c.count(0b101), 3);
        assert_eq!(c.shots(), 3);
        assert!((c.probability(0b101) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probability_vector_sums_to_one() {
        let mut c = Counts::new(2);
        c.record(0, 5);
        c.record(3, 15);
        let v = c.probability_vector();
        assert_eq!(v.len(), 4);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((v[3] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn parity_expectation_of_deterministic_outcomes() {
        let mut c = Counts::new(2);
        c.record(0b11, 10);
        // parity of both bits of 11 is even -> +1
        assert!((c.parity_expectation(&[0, 1]) - 1.0).abs() < 1e-12);
        // parity of bit 0 alone is odd -> -1
        assert!((c.parity_expectation(&[0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn parity_expectation_of_uniform_mixture_is_zero() {
        let mut c = Counts::new(1);
        c.record(0, 500);
        c.record(1, 500);
        assert!((c.parity_expectation(&[0])).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::new(2);
        a.record(1, 4);
        let mut b = Counts::new(2);
        b.record(1, 1);
        b.record(2, 5);
        a.merge(&b);
        assert_eq!(a.count(1), 5);
        assert_eq!(a.count(2), 5);
        assert_eq!(a.shots(), 10);
    }

    #[test]
    fn tvd_against_exact_distribution() {
        let mut c = Counts::new(1);
        c.record(0, 50);
        c.record(1, 50);
        assert!(c.total_variation_distance(&[0.5, 0.5]) < 1e-12);
        assert!((c.total_variation_distance(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_rejects_width_mismatch() {
        let mut a = Counts::new(2);
        let b = Counts::new(3);
        a.merge(&b);
    }

    #[test]
    fn empty_counts_probability_is_zero() {
        let c = Counts::new(2);
        assert_eq!(c.probability(0), 0.0);
        assert_eq!(c.parity_expectation(&[0]), 0.0);
    }
}
