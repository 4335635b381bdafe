//! The uncut oracle: an exact state vector that applies one gate at a time.
//!
//! `StateVector::from_circuit` is the reference every cut plan is judged
//! against, and noisy trajectories (`Device::execute_trajectories`) and
//! branch enumeration (`branching::classical_distribution`) run their gates
//! through it. So this file keeps three rules:
//!
//! * It shares no code with the compiled path: nothing here calls
//!   `compile::Kernel`, and every sweep runs on the calling thread.
//! * It reads a matrix's structure from its values (an exactly zero
//!   off-diagonal, an all-real matrix, one non-zero entry per row), never
//!   from the `Gate` that produced it.
//! * A sweep leaves out only exact-zero terms of the dense rule, where each
//!   output is the full row-by-column sum over its pair or quad. So its
//!   amplitudes equal (`==`) that rule's, which a test keeps and holds every
//!   sweep to; a diagonal or real 2×2 may leave −0 where the rule leaves +0.

use crate::binomial::binomial;
use crate::matrix::{single_qubit_matrix, two_qubit_matrix, Matrix2, Matrix4};
use crate::{Complex, Counts, SimError};
use qrcc_circuit::observable::{Pauli, PauliObservable, PauliString};
use qrcc_circuit::{Circuit, Gate, Operation, QubitId};
use rand::Rng;

/// An exact state-vector simulator over `n` qubits.
///
/// Qubit `i` corresponds to bit `i` of the basis-state index (qubit 0 is the
/// least-significant bit). The simulator supports all gates of the IR, plus
/// projective measurement and reset for trajectory-style execution.
///
/// ```rust
/// use qrcc_circuit::Circuit;
/// use qrcc_sim::StateVector;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let sv = StateVector::from_circuit(&c).unwrap();
/// assert!((sv.probabilities()[0b11] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

/// The dense simulator's qubit limit: a `2^28`-amplitude vector is 4 GiB of
/// [`Complex`], the largest allocation appropriate for this reproduction.
/// Every width check in the crate ([`StateVector::try_new`],
/// [`StateVector::from_circuit`], branch enumeration, compiled programs)
/// funnels through this single constant and the typed
/// [`SimError::TooManyQubits`] path.
pub const MAX_QUBITS: usize = 28;

/// Deals shots over basis indices in proportion to `|ψ|²`, as one
/// multinomial draw — what [`StateVector::sample_counts`] and every leaf of
/// a sampled readout draw (one buffer, rebuilt per state).
///
/// The index range is halved recursively: a node `[a, b)` holding `k`
/// shots sends `binomial(k, mass[a, mid) / mass[a, b))` of them to its lower
/// half, and only halves that hold shots are descended. So a deal costs one
/// prefix-sum pass plus one binomial draw per node it visits — at most
/// min(2·2^n, shots·n) nodes, whatever the number of shots — and a range of
/// zero mass (an exact zero difference of the prefix sums) is never dealt a
/// shot.
#[derive(Debug, Default)]
pub(crate) struct Multinomial {
    /// `prefix[i]` is the mass of the indices `[0, i)`.
    prefix: Vec<f64>,
}

impl Multinomial {
    /// Deals `shots` over the indices of `amps` from `rng`, calling
    /// `record(index, shots)` once per index dealt at least one shot, in
    /// ascending index order.
    pub(crate) fn deal<R: Rng>(
        &mut self,
        amps: &[Complex],
        shots: u64,
        rng: &mut R,
        mut record: impl FnMut(usize, u64),
    ) {
        self.prefix.clear();
        self.prefix.push(0.0);
        let mut acc = 0.0;
        self.prefix.extend(amps.iter().map(|a| {
            acc += a.norm_sqr();
            acc
        }));
        self.halve(0, amps.len(), shots, rng, &mut record);
    }

    /// Deals the `shots` of the node `[from, to)` between its halves.
    fn halve<R: Rng>(
        &self,
        from: usize,
        to: usize,
        shots: u64,
        rng: &mut R,
        record: &mut impl FnMut(usize, u64),
    ) {
        if to - from == 1 {
            return record(from, shots);
        }
        let mid = from + (to - from) / 2;
        let [a, m, b] = [from, mid, to].map(|i| self.prefix[i]);
        // a zero-mass half gets probability exactly 0 (or 1 for its sibling)
        let low = binomial(rng, shots, (m - a) / (b - a));
        if low > 0 {
            self.halve(from, mid, low, rng, record);
        }
        if low < shots {
            self.halve(mid, to, shots - low, rng, record);
        }
    }
}

impl StateVector {
    /// The all-zeros state |0…0⟩ over `num_qubits` qubits.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] if `num_qubits` exceeds
    /// [`MAX_QUBITS`].
    pub fn try_new(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits > MAX_QUBITS {
            return Err(SimError::TooManyQubits { required: num_qubits, available: MAX_QUBITS });
        }
        let mut amps = vec![Complex::ZERO; 1 << num_qubits];
        amps[0] = Complex::ONE;
        Ok(StateVector { num_qubits, amps })
    }

    /// The all-zeros state |0…0⟩ over `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > MAX_QUBITS`; use [`StateVector::try_new`] for
    /// the typed-error path.
    pub fn new(num_qubits: usize) -> Self {
        StateVector::try_new(num_qubits)
            .unwrap_or_else(|_| panic!("state-vector simulation limited to {MAX_QUBITS} qubits"))
    }

    /// Builds the state produced by running the unitary part of `circuit`
    /// from |0…0⟩.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonUnitaryCircuit`] if the circuit contains a
    /// measurement or reset, and [`SimError::TooManyQubits`] if it exceeds
    /// [`MAX_QUBITS`].
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, SimError> {
        let mut sv = StateVector::try_new(circuit.num_qubits())?;
        sv.apply_circuit(circuit)?;
        Ok(sv)
    }

    /// Mutable access to the raw amplitudes for in-crate kernel sweeps.
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitudes (length `2^n`).
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// The amplitude of basis state `index`.
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// The 2-norm of the state (1.0 for a normalised state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(Complex::norm_sqr).sum::<f64>().sqrt()
    }

    /// The inner product ⟨self|other⟩.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn inner(&self, other: &StateVector) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits, "state widths differ");
        let mut acc = Complex::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// Applies a single-qubit matrix to `qubit`: one pass over the `(lo, hi)`
    /// amplitude pairs, block by block. A diagonal matrix scales each half by
    /// its entry and a real one takes real × complex products; either way
    /// only exact-zero terms of the dense rule are left out.
    pub fn apply_matrix1(&mut self, m: &Matrix2, qubit: QubitId) {
        let q = qubit.index();
        debug_assert!(q < self.num_qubits);
        let bit = 1usize << q;
        let [[m00, m01], [m10, m11]] = *m;
        let pairs = self.amps.chunks_exact_mut(bit << 1).map(|block| block.split_at_mut(bit));
        if m01 == Complex::ZERO && m10 == Complex::ZERO {
            for (lo, hi) in pairs {
                lo.iter_mut().for_each(|a| *a = m00 * *a);
                hi.iter_mut().for_each(|a| *a = m11 * *a);
            }
        } else if m.iter().flatten().all(|c| c.im == 0.0) {
            let [[r00, r01], [r10, r11]] = m.map(|row| row.map(|c| c.re));
            for (lo, hi) in pairs {
                for (a0, a1) in lo.iter_mut().zip(hi) {
                    let (x, y) = (*a0, *a1);
                    *a0 = x.scale(r00) + y.scale(r01);
                    *a1 = x.scale(r10) + y.scale(r11);
                }
            }
        } else {
            for (lo, hi) in pairs {
                for (a0, a1) in lo.iter_mut().zip(hi) {
                    let (x, y) = (*a0, *a1);
                    *a0 = m00 * x + m01 * y;
                    *a1 = m10 * x + m11 * y;
                }
            }
        }
    }

    /// Applies a two-qubit matrix to `(first, second)` using the convention
    /// that the basis index of the matrix is `(bit_first << 1) | bit_second`.
    ///
    /// Visits only the `2^(n-2)` quad bases (both bits clear), each a count
    /// with a zero bit inserted at the two positions. A matrix with
    /// one non-zero entry per row (CX, CZ, CP, RZZ, SWAP, …) takes one
    /// product per amplitude; any other takes the dense 4×4 product.
    pub fn apply_matrix2(&mut self, m: &Matrix4, first: QubitId, second: QubitId) {
        let qa = first.index();
        let qb = second.index();
        debug_assert!(qa < self.num_qubits && qb < self.num_qubits && qa != qb);
        let bit_a = 1usize << qa;
        let bit_b = 1usize << qb;
        // the bits below each position; the lower is inserted first, so the
        // higher one lands in place
        let (low, high) = (bit_a.min(bit_b) - 1, bit_a.max(bit_b) - 1);
        let quads = (0..self.amps.len() >> 2).map(|k| {
            let k = (k & !low) << 1 | (k & low);
            let i = (k & !high) << 1 | (k & high);
            [i, i | bit_b, i | bit_a, i | bit_a | bit_b]
        });
        // the column of each row's only non-zero entry, if every row has one
        let column = |row: &[Complex; 4]| {
            let mut nonzero = (0..4).filter(|&c| row[c] != Complex::ZERO);
            nonzero.next().filter(|_| nonzero.next().is_none())
        };
        if let [Some(c0), Some(c1), Some(c2), Some(c3)] = m.each_ref().map(column) {
            let (columns, entries) = ([c0, c1, c2, c3], [m[0][c0], m[1][c1], m[2][c2], m[3][c3]]);
            for idx in quads {
                let v = idx.map(|j| self.amps[j]);
                for r in 0..4 {
                    // the dense sum starts at +0, which turns a −0 product into +0
                    self.amps[idx[r]] = Complex::ZERO + entries[r] * v[columns[r]];
                }
            }
        } else {
            for idx in quads {
                let v = idx.map(|j| self.amps[j]);
                for (r, &j) in idx.iter().enumerate() {
                    let mut out = Complex::ZERO;
                    for (c, v_c) in v.iter().enumerate() {
                        out += m[r][c] * *v_c;
                    }
                    self.amps[j] = out;
                }
            }
        }
    }

    /// Applies a gate to the given qubits.
    ///
    /// # Panics
    ///
    /// Panics if the number of qubits does not match the gate's arity.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[QubitId]) {
        match (gate.num_qubits(), qubits) {
            (1, [q]) => self.apply_matrix1(&single_qubit_matrix(gate), *q),
            (2, [a, b]) => self.apply_matrix2(&two_qubit_matrix(gate), *a, *b),
            _ => panic!("gate {} applied to {} qubits", gate.name(), qubits.len()),
        }
    }

    /// Applies every unitary operation of `circuit` in order (barriers are
    /// skipped).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonUnitaryCircuit`] on the first measurement or
    /// reset encountered.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        for (index, op) in circuit.operations().iter().enumerate() {
            match op {
                Operation::Single { gate, qubit } => self.apply_gate(gate, &[*qubit]),
                Operation::Two { gate, qubits } => self.apply_gate(gate, qubits),
                Operation::Barrier { .. } => {}
                _ => return Err(SimError::NonUnitaryCircuit { index }),
            }
        }
        Ok(())
    }

    /// The probability of measuring `outcome` (`false` = 0, `true` = 1) on
    /// `qubit`.
    pub fn outcome_probability(&self, qubit: QubitId, outcome: bool) -> f64 {
        let bit = 1usize << qubit.index();
        let half = if outcome { bit..bit << 1 } else { 0..bit };
        self.amps
            .chunks_exact(bit << 1)
            .flat_map(|block| &block[half.clone()])
            .map(Complex::norm_sqr)
            .sum()
    }

    /// Projects `qubit` onto `outcome`, renormalising the state, and returns
    /// the probability of that outcome before projection.
    ///
    /// When the probability is (numerically) zero the state is left zeroed
    /// and `0.0` is returned; callers should discard such branches.
    pub fn project(&mut self, qubit: QubitId, outcome: bool) -> f64 {
        let prob = self.outcome_probability(qubit, outcome);
        if prob <= f64::EPSILON {
            self.amps.fill(Complex::ZERO);
            return 0.0;
        }
        self.collapse(qubit, outcome, prob);
        prob
    }

    /// The probabilities of measuring 0 and 1 on `qubit`, in one sweep —
    /// what a branching executor reads **before** deciding whether either
    /// outcome is worth a copy of the state.
    pub fn outcome_probabilities(&self, qubit: QubitId) -> [f64; 2] {
        let bit = 1usize << qubit.index();
        let mut p = [0.0; 2];
        for block in self.amps.chunks(bit << 1) {
            let (lo, hi) = block.split_at(bit);
            p[0] += lo.iter().map(Complex::norm_sqr).sum::<f64>();
            p[1] += hi.iter().map(Complex::norm_sqr).sum::<f64>();
        }
        p
    }

    /// Projects `qubit` onto `outcome` given that outcome's (non-zero)
    /// probability `prob`, renormalising the state: the sweep half of
    /// [`StateVector::project`] for callers that already know `prob`.
    pub(crate) fn collapse(&mut self, qubit: QubitId, outcome: bool, prob: f64) {
        let bit = 1usize << qubit.index();
        let scale = 1.0 / prob.sqrt();
        for block in self.amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            let (kept, dropped) = if outcome { (hi, lo) } else { (lo, hi) };
            for (k, d) in kept.iter_mut().zip(dropped) {
                (*k, *d) = (k.scale(scale), Complex::ZERO);
            }
        }
    }

    /// Measures `qubit` in the computational basis, collapsing the state, and
    /// returns the outcome.
    pub fn measure(&mut self, qubit: QubitId, rng: &mut impl Rng) -> bool {
        let p1 = self.outcome_probability(qubit, true);
        let outcome = rng.gen::<f64>() < p1;
        self.project(qubit, outcome);
        outcome
    }

    /// Resets `qubit` to |0⟩ (measure, then flip if the outcome was 1).
    pub fn reset(&mut self, qubit: QubitId, rng: &mut impl Rng) {
        let outcome = self.measure(qubit, rng);
        if outcome {
            self.apply_gate(&Gate::X, &[qubit]);
        }
    }

    /// The probability of every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(Complex::norm_sqr).collect()
    }

    /// Samples `shots` outcomes of measuring all qubits, as a [`Counts`]
    /// histogram keyed by qubit index: one multinomial draw over `|ψ|²`, by
    /// recursive halving of the basis-index range with one binomial draw per
    /// visited node, so the cost is O(2^n) whatever `shots` is. A basis state
    /// of zero probability is never drawn.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroShots`] if `shots == 0`.
    pub fn sample_counts(&self, shots: u64, rng: &mut impl Rng) -> Result<Counts, SimError> {
        if shots == 0 {
            return Err(SimError::ZeroShots);
        }
        let mut counts = Counts::new(self.num_qubits);
        Multinomial::default()
            .deal(&self.amps, shots, rng, |index, shots| counts.record(index as u64, shots));
        Ok(counts)
    }

    /// The expectation value ⟨ψ|P|ψ⟩ of a Pauli string, in one read-only
    /// pass: with `f` the mask of its X and Y qubits and `s` that of its Y
    /// and Z qubits, `(P|ψ⟩)_j = (−i)^{#Y} (−1)^{|j∧s|} ψ_{j⊕f}`, and
    /// ⟨ψ|P|ψ⟩ = Σ_j conj(ψ_j) (P|ψ⟩)_j is summed in ascending `j`.
    ///
    /// # Panics
    ///
    /// Panics if the string's width differs from the state's.
    pub fn expectation_pauli(&self, string: &PauliString) -> f64 {
        assert_eq!(string.num_qubits(), self.num_qubits, "pauli string width mismatch");
        let (mut flip, mut sign, mut ys) = (0usize, 0usize, 0);
        for (q, pauli) in string.paulis().iter().enumerate() {
            let bit = 1usize << q;
            match pauli {
                Pauli::I => {}
                Pauli::X => flip |= bit,
                Pauli::Y => (flip, sign, ys) = (flip | bit, sign | bit, ys + 1),
                Pauli::Z => sign |= bit,
            }
        }
        // (−i)^{#Y}: multiplying by it only permutes and negates parts
        let phase = [Complex::ONE, Complex::new(0.0, -1.0), -Complex::ONE, Complex::i()][ys % 4];
        let mut acc = 0.0;
        for (j, a) in self.amps.iter().enumerate() {
            let t = phase * self.amps[j ^ flip];
            // Re(conj(a)·t), its sign flipped when j has odd `s` parity
            let odd = u64::from((j & sign).count_ones() & 1) << 63;
            acc += f64::from_bits((a.re * t.re + a.im * t.im).to_bits() ^ odd);
        }
        acc
    }

    /// The expectation value of a weighted Pauli observable.
    ///
    /// # Panics
    ///
    /// Panics if the observable's width differs from the state's.
    pub fn expectation(&self, observable: &PauliObservable) -> f64 {
        observable
            .terms()
            .iter()
            .map(|(coeff, string)| coeff * self.expectation_pauli(string))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    /// The dense per-index rule the sweeps replaced, for one or two qubits:
    /// every index is visited, the pair (or quad) members are found by bit
    /// tests, and each output is the full row-by-column sum, in column
    /// order. The sweeps must equal it (`==`).
    fn naive_apply(amps: &mut [Complex], m: &[&[Complex]], qubits: &[usize]) {
        let bits: Vec<usize> = qubits.iter().map(|&q| 1usize << q).collect();
        for i in (0..amps.len()).filter(|i| bits.iter().all(|b| i & b == 0)) {
            // matrix index k has the first qubit as its high bit
            let members: Vec<usize> = (0..m.len())
                .map(|k| {
                    let set = bits.iter().rev().enumerate().filter(|(pos, _)| k >> pos & 1 == 1);
                    set.fold(i, |j, (_, b)| j | b)
                })
                .collect();
            let v: Vec<Complex> = members.iter().map(|&j| amps[j]).collect();
            for (row, &j) in m.iter().zip(&members) {
                let mut out = Complex::ZERO;
                for (entry, v_c) in row.iter().zip(&v) {
                    out += *entry * *v_c;
                }
                amps[j] = out;
            }
        }
    }

    /// ⟨ψ|P|ψ⟩ by copying the state and applying `P` qubit by qubit.
    fn naive_expectation(sv: &StateVector, string: &PauliString) -> f64 {
        let mut t = sv.amplitudes().to_vec();
        for (q, pauli) in string.paulis().iter().enumerate() {
            let bit = 1usize << q;
            for i in (0..t.len()).filter(|i| i & bit == 0) {
                let (low, high) = (t[i], t[i | bit]);
                let (low, high) = match pauli {
                    Pauli::I => (low, high),
                    Pauli::X => (high, low),
                    Pauli::Y => (Complex::new(0.0, -1.0) * high, Complex::i() * low),
                    Pauli::Z => (low, -high),
                };
                (t[i], t[i | bit]) = (low, high);
            }
        }
        sv.amplitudes().iter().zip(&t).fold(Complex::ZERO, |acc, (a, t)| acc + a.conj() * *t).re
    }

    /// A random `dim`×`dim` matrix of one structural kind: dense, diagonal,
    /// anti-diagonal, real, one non-zero per row (a random permutation) or
    /// dense with random exact zeros (rows of two or three non-zeros).
    fn structured(dim: usize, kind: usize, rng: &mut StdRng) -> Vec<Vec<Complex>> {
        let perm = {
            let mut p: Vec<usize> = (0..dim).collect();
            for i in (1..dim).rev() {
                p.swap(i, rng.gen_range(0..i + 1));
            }
            p
        };
        (0..dim)
            .map(|r| {
                (0..dim)
                    .map(|c| {
                        let z = Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                        let keep = match kind {
                            1 => r == c,
                            2 => r + c == dim - 1,
                            4 => perm[r] == c,
                            5 => rng.gen_range(0..2) == 0,
                            _ => true,
                        };
                        match (keep, kind) {
                            (false, _) => Complex::ZERO,
                            (true, 3) => Complex::new(z.re, 0.0),
                            (true, _) => z,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The strided sweeps equal the dense per-index rule exactly, for
        /// every structural kind of 2×2 and 4×4 matrix, every qubit and both
        /// orders of every pair; the one-pass Pauli expectation equals the
        /// copy-and-apply form, and the strided outcome probability,
        /// collapse and projection equal their per-index forms.
        #[test]
        fn sweeps_match_the_dense_rule(n in 1..7usize, seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            // a fresh state for every application, so no matrix sees the
            // zeros or the scale a singular one left behind
            let random_state = |rng: &mut StdRng| {
                let mut sv = StateVector::new(n);
                for a in sv.amps_mut() {
                    *a = Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                }
                let norm = sv.norm();
                sv.amps_mut().iter_mut().for_each(|a| *a = a.scale(1.0 / norm));
                let naive = sv.amplitudes().to_vec();
                (sv, naive)
            };
            for kind in 0..6 {
                for a in 0..n {
                    let m = structured(2, kind, &mut rng);
                    let (mut sv, mut naive) = random_state(&mut rng);
                    sv.apply_matrix1(&[[m[0][0], m[0][1]], [m[1][0], m[1][1]]], q(a));
                    naive_apply(&mut naive, &[&m[0], &m[1]], &[a]);
                    proptest::prop_assert!(sv.amplitudes() == naive, "2x2 kind {kind} on {a}");
                    for b in (0..n).filter(|&b| b != a) {
                        let m = structured(4, kind, &mut rng);
                        let m4 = [0, 1, 2, 3].map(|r| [0, 1, 2, 3].map(|c| m[r][c]));
                        let (mut sv, mut naive) = random_state(&mut rng);
                        sv.apply_matrix2(&m4, q(a), q(b));
                        naive_apply(&mut naive, &[&m[0], &m[1], &m[2], &m[3]], &[a, b]);
                        proptest::prop_assert!(sv.amplitudes() == naive, "4x4 kind {kind} on {a},{b}");
                    }
                }
            }
            let (sv, _) = random_state(&mut rng);
            let all = |p| PauliString::from_paulis(vec![p; n]);
            let mut strings = vec![all(Pauli::I), all(Pauli::Y), all(Pauli::X), all(Pauli::Z)];
            strings.extend((0..8).map(|_| {
                let paulis = (0..n).map(|_| [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..4usize)]);
                PauliString::from_paulis(paulis.collect())
            }));
            for string in &strings {
                let (fast, slow) = (sv.expectation_pauli(string), naive_expectation(&sv, string));
                proptest::prop_assert!(fast == slow, "{string:?}: {fast} vs {slow}");
            }
            for (a, outcome) in (0..n).flat_map(|a| [(a, false), (a, true)]) {
                let bit = 1usize << a;
                let kept = |i: usize| (i & bit != 0) == outcome;
                let amps = sv.amplitudes();
                let p: f64 = (0..amps.len()).filter(|&i| kept(i)).map(|i| amps[i].norm_sqr()).sum();
                proptest::prop_assert!(sv.outcome_probability(q(a), outcome) == p);
                // a (numerically) impossible outcome zeroes the state
                let possible = p > f64::EPSILON;
                let mut projected = sv.clone();
                let returned = projected.project(q(a), outcome);
                proptest::prop_assert!(returned == if possible { p } else { 0.0 }, "{returned} vs {p}");
                let scale = 1.0 / p.sqrt();
                for (i, (x, y)) in projected.amplitudes().iter().zip(amps).enumerate() {
                    let expected = if possible && kept(i) { y.scale(scale) } else { Complex::ZERO };
                    proptest::prop_assert!(*x == expected, "collapse of {a} onto {outcome} at {i}");
                }
            }
        }
    }

    #[test]
    fn initial_state_is_all_zeros() {
        let sv = StateVector::new(3);
        assert_eq!(sv.amplitude(0), Complex::ONE);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
        assert_eq!(sv.probabilities()[0], 1.0);
    }

    #[test]
    fn x_gate_flips_qubit() {
        let mut sv = StateVector::new(2);
        sv.apply_gate(&Gate::X, &[q(1)]);
        assert!((sv.probabilities()[0b10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_probabilities_and_correlation() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c).unwrap();
        let p = sv.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
        assert!(p[0b01].abs() < 1e-12);
        // ZZ expectation of a Bell state is +1
        assert!((sv.expectation_pauli(&PauliString::zz(2, 0, 1)) - 1.0).abs() < 1e-12);
        // single-qubit Z expectation is 0
        assert!(sv.expectation_pauli(&PauliString::z(2, 0)).abs() < 1e-12);
    }

    #[test]
    fn ghz_from_circuit_matches_manual_application() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let sv = StateVector::from_circuit(&c).unwrap();
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[7] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cx_control_and_target_order() {
        // X on qubit 1 (control) then cx(1, 0) must flip qubit 0.
        let mut sv = StateVector::new(2);
        sv.apply_gate(&Gate::X, &[q(1)]);
        sv.apply_gate(&Gate::Cx, &[q(1), q(0)]);
        assert!((sv.probabilities()[0b11] - 1.0).abs() < 1e-12);
        // X on qubit 0 (target position) with control 1 unset does nothing.
        let mut sv = StateVector::new(2);
        sv.apply_gate(&Gate::X, &[q(0)]);
        sv.apply_gate(&Gate::Cx, &[q(1), q(0)]);
        assert!((sv.probabilities()[0b01] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut sv = StateVector::new(2);
        sv.apply_gate(&Gate::X, &[q(0)]);
        sv.apply_gate(&Gate::Swap, &[q(0), q(1)]);
        assert!((sv.probabilities()[0b10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rzz_is_diagonal_and_phases_odd_parity() {
        let theta = 0.8;
        let mut plus = Circuit::new(2);
        plus.h(0).h(1).rzz(theta, 0, 1);
        let sv = StateVector::from_circuit(&plus).unwrap();
        // diagonal gate keeps uniform probabilities
        for p in sv.probabilities() {
            assert!((p - 0.25).abs() < 1e-12);
        }
        // and the single-qubit X expectation reflects the rotation angle:
        // RZZ(θ) maps X⊗I to cosθ·X⊗I − sinθ·Y⊗Z, so on |++⟩ it is cosθ.
        let e = sv.expectation_pauli(&PauliString::x(2, 0));
        assert!((e - theta.cos()).abs() < 1e-12);
        // X⊗X commutes with Z⊗Z, so its expectation stays +1.
        let exx = sv.expectation_pauli(&PauliString::from_paulis(vec![Pauli::X, Pauli::X]));
        assert!((exx - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circuit_inverse_returns_to_zero_state() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cz(1, 2).ry(0.3, 2).rzz(0.7, 0, 2).sx(1);
        let mut sv = StateVector::from_circuit(&c).unwrap();
        sv.apply_circuit(&c.inverse().unwrap()).unwrap();
        assert!((sv.probabilities()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn norm_is_preserved_by_random_unitaries() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(1.1, 2).rzz(0.4, 1, 2).cp(0.9, 2, 3).sx(3).cy(3, 0);
        let sv = StateVector::from_circuit(&c).unwrap();
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_collapses_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut sv = StateVector::from_circuit(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let outcome = sv.measure(q(0), &mut rng);
        // after measuring one half of a Bell pair, the other is perfectly correlated
        assert_eq!(sv.outcome_probability(q(1), outcome), 1.0);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn project_returns_outcome_probability() {
        let mut c = Circuit::new(1);
        c.ry(1.0, 0);
        let sv = StateVector::from_circuit(&c).unwrap();
        let p1 = sv.outcome_probability(q(0), true);
        let mut projected = sv.clone();
        let p = projected.project(q(0), true);
        assert!((p - p1).abs() < 1e-12);
        assert!((projected.outcome_probability(q(0), true) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn project_onto_impossible_outcome_zeroes_state() {
        let mut sv = StateVector::new(1);
        let p = sv.project(q(0), true);
        assert_eq!(p, 0.0);
        assert_eq!(sv.norm(), 0.0);
    }

    #[test]
    fn reset_always_yields_zero_state_on_that_qubit() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let mut sv = StateVector::from_circuit(&c).unwrap();
            sv.reset(q(0), &mut rng);
            assert!(sv.outcome_probability(q(0), true) < 1e-12);
        }
    }

    #[test]
    fn sampling_matches_exact_distribution() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let counts = sv.sample_counts(20_000, &mut rng).unwrap();
        assert_eq!(counts.shots(), 20_000);
        assert!(counts.total_variation_distance(&sv.probabilities()) < 0.02);
    }

    #[test]
    fn zero_probability_outcomes_are_never_sampled() {
        /// The two ends of `gen::<f64>()`: exactly 0 and `1 - 2^-53`.
        struct Constant(u64);
        impl rand::RngCore for Constant {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        // amplitude on |001⟩ and |011⟩ only: the first and the last basis
        // states (and more) are impossible
        let mut c = Circuit::new(3);
        c.x(0).h(1);
        let sv = StateVector::from_circuit(&c).unwrap();
        assert_eq!((sv.probabilities()[0], sv.probabilities()[7]), (0.0, 0.0));
        for word in [0, u64::MAX] {
            let counts = sv.sample_counts(10, &mut Constant(word)).unwrap();
            assert_eq!(counts.shots(), 10);
            assert_eq!(counts.count(0b001) + counts.count(0b011), 10, "word {word:#x}");
        }
        // rounding may leave the total short of 1, and the range is not a
        // power of two: still only the three possible entries are dealt
        let third = Complex::new((1.0f64 / 3.0).sqrt(), 0.0);
        let amps = [Complex::ZERO, third, third, third, Complex::ZERO];
        for word in [0, u64::MAX] {
            let mut dealt = [0u64; 5];
            Multinomial::default().deal(&amps, 10, &mut Constant(word), |i, k| dealt[i] += k);
            assert_eq!(dealt.iter().sum::<u64>(), 10, "word {word:#x}");
            assert_eq!((dealt[0], dealt[4]), (0, 0), "word {word:#x}");
        }
    }

    #[test]
    fn sampling_zero_shots_is_an_error() {
        let sv = StateVector::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(sv.sample_counts(0, &mut rng), Err(SimError::ZeroShots)));
    }

    #[test]
    fn from_circuit_rejects_measurements() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0);
        assert!(matches!(
            StateVector::from_circuit(&c),
            Err(SimError::NonUnitaryCircuit { index: 1 })
        ));
    }

    #[test]
    fn pauli_expectations_of_plus_state() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sv = StateVector::from_circuit(&c).unwrap();
        assert!((sv.expectation_pauli(&PauliString::x(1, 0)) - 1.0).abs() < 1e-12);
        assert!(sv.expectation_pauli(&PauliString::z(1, 0)).abs() < 1e-12);
        assert!(sv.expectation_pauli(&PauliString::y(1, 0)).abs() < 1e-12);
    }

    #[test]
    fn y_expectation_of_i_state() {
        // |i> = S H |0> has <Y> = +1
        let mut c = Circuit::new(1);
        c.h(0).s(0);
        let sv = StateVector::from_circuit(&c).unwrap();
        assert!((sv.expectation_pauli(&PauliString::y(1, 0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn observable_expectation_combines_terms_linearly() {
        let mut c = Circuit::new(2);
        c.x(0);
        let sv = StateVector::from_circuit(&c).unwrap();
        let mut obs = PauliObservable::new(2);
        obs.add_term(2.0, PauliString::z(2, 0)); // <Z0> = -1
        obs.add_term(3.0, PauliString::z(2, 1)); // <Z1> = +1
        obs.add_term(0.5, PauliString::identity(2)); // constant
        assert!((sv.expectation(&obs) - (-2.0 + 3.0 * 1.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn inner_product_of_orthogonal_states_is_zero() {
        let a = StateVector::new(1);
        let mut b = StateVector::new(1);
        b.apply_gate(&Gate::X, &[q(0)]);
        assert!(a.inner(&b).abs() < 1e-12);
        assert!((a.inner(&a).re - 1.0).abs() < 1e-12);
    }
}
