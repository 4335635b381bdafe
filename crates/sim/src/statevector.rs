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

    /// Applies a single-qubit matrix to `qubit`.
    pub fn apply_matrix1(&mut self, m: &Matrix2, qubit: QubitId) {
        let q = qubit.index();
        debug_assert!(q < self.num_qubits);
        let bit = 1usize << q;
        let dim = self.amps.len();
        let mut i = 0;
        while i < dim {
            if i & bit == 0 {
                let j = i | bit;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[j] = m[1][0] * a0 + m[1][1] * a1;
            }
            i += 1;
        }
    }

    /// Applies a two-qubit matrix to `(first, second)` using the convention
    /// that the basis index of the matrix is `(bit_first << 1) | bit_second`.
    pub fn apply_matrix2(&mut self, m: &Matrix4, first: QubitId, second: QubitId) {
        let qa = first.index();
        let qb = second.index();
        debug_assert!(qa < self.num_qubits && qb < self.num_qubits && qa != qb);
        let bit_a = 1usize << qa;
        let bit_b = 1usize << qb;
        let dim = self.amps.len();
        for i in 0..dim {
            if i & bit_a == 0 && i & bit_b == 0 {
                let i00 = i;
                let i01 = i | bit_b;
                let i10 = i | bit_a;
                let i11 = i | bit_a | bit_b;
                let v = [self.amps[i00], self.amps[i01], self.amps[i10], self.amps[i11]];
                let mut out = [Complex::ZERO; 4];
                for (r, out_r) in out.iter_mut().enumerate() {
                    for (c, v_c) in v.iter().enumerate() {
                        *out_r += m[r][c] * *v_c;
                    }
                }
                self.amps[i00] = out[0];
                self.amps[i01] = out[1];
                self.amps[i10] = out[2];
                self.amps[i11] = out[3];
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
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| ((i & bit) != 0) == outcome)
            .map(|(_, a)| a.norm_sqr())
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
            for a in &mut self.amps {
                *a = Complex::ZERO;
            }
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
        for (i, a) in self.amps.iter_mut().enumerate() {
            if ((i & bit) != 0) == outcome {
                *a = a.scale(scale);
            } else {
                *a = Complex::ZERO;
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

    /// The expectation value ⟨ψ|P|ψ⟩ of a Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if the string's width differs from the state's.
    pub fn expectation_pauli(&self, string: &PauliString) -> f64 {
        assert_eq!(string.num_qubits(), self.num_qubits, "pauli string width mismatch");
        // Compute P|ψ⟩ then take the real part of ⟨ψ|Pψ⟩.
        let mut transformed = self.amps.clone();
        for (q, pauli) in string.paulis().iter().enumerate() {
            let bit = 1usize << q;
            match pauli {
                Pauli::I => {}
                Pauli::X => {
                    for i in 0..transformed.len() {
                        if i & bit == 0 {
                            transformed.swap(i, i | bit);
                        }
                    }
                }
                Pauli::Y => {
                    for i in 0..transformed.len() {
                        if i & bit == 0 {
                            let j = i | bit;
                            let low = transformed[i];
                            let high = transformed[j];
                            // Y = [[0, -i], [i, 0]] acting on (low, high)
                            transformed[i] = Complex::new(0.0, -1.0) * high;
                            transformed[j] = Complex::i() * low;
                        }
                    }
                }
                Pauli::Z => {
                    for (i, amp) in transformed.iter_mut().enumerate() {
                        if i & bit != 0 {
                            *amp = -*amp;
                        }
                    }
                }
            }
        }
        let mut acc = Complex::ZERO;
        for (a, t) in self.amps.iter().zip(&transformed) {
            acc += a.conj() * *t;
        }
        acc.re
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
    use rand::SeedableRng;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
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
