//! Property-based tests for the state-vector simulator: unitarity (norm
//! preservation), inverse circuits, probability normalisation, expectation
//! bounds, measurement-branch consistency and shot sampling on randomly
//! generated circuits.

use proptest::prelude::*;
use qrcc_circuit::observable::PauliString;
use qrcc_circuit::{Circuit, QubitId};
use qrcc_sim::branching::enumerate_branches;
use qrcc_sim::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing a random unitary circuit over `n` qubits.
fn random_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0..8usize, 0..n, 0..n, -3.0f64..3.0);
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for (kind, a, b, theta) in gates {
            let a = a % n;
            let b = b % n;
            match kind {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.rx(theta, a);
                }
                2 => {
                    c.rz(theta, a);
                }
                3 => {
                    c.t(a);
                }
                4 if a != b => {
                    c.cx(a, b);
                }
                5 if a != b => {
                    c.cz(a, b);
                }
                6 if a != b => {
                    c.rzz(theta, a, b);
                }
                7 if a != b => {
                    c.cp(theta, a, b);
                }
                _ => {
                    c.sx(a);
                }
            }
        }
        c
    })
}

/// Strategy producing a random Pauli string over `n` qubits.
fn random_pauli(n: usize) -> impl Strategy<Value = PauliString> {
    proptest::collection::vec(0..4u8, n).prop_map(|ps| {
        use qrcc_circuit::observable::Pauli;
        PauliString::from_paulis(
            ps.into_iter()
                .map(|p| match p {
                    0 => Pauli::I,
                    1 => Pauli::X,
                    2 => Pauli::Y,
                    _ => Pauli::Z,
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn norm_is_preserved(c in random_circuit(4, 25)) {
        let sv = StateVector::from_circuit(&c).unwrap();
        prop_assert!((sv.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one(c in random_circuit(3, 20)) {
        let sv = StateVector::from_circuit(&c).unwrap();
        let total: f64 = sv.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn applying_the_inverse_returns_to_zero(c in random_circuit(3, 15)) {
        let mut sv = StateVector::from_circuit(&c).unwrap();
        sv.apply_circuit(&c.inverse().unwrap()).unwrap();
        prop_assert!((sv.probabilities()[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn pauli_expectations_are_bounded(c in random_circuit(4, 20), p in random_pauli(4)) {
        let sv = StateVector::from_circuit(&c).unwrap();
        let e = sv.expectation_pauli(&p);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&e), "expectation {e} out of range");
    }

    #[test]
    fn measurement_branch_probabilities_sum_to_one(c in random_circuit(3, 12)) {
        let mut measured = c.clone();
        measured.measure(0, 0).h(0).measure(1, 1);
        let branches = enumerate_branches(&measured).unwrap();
        let total: f64 = branches.iter().map(|b| b.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        for b in branches {
            prop_assert!((b.state.norm() - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn marginal_probabilities_match_projection(c in random_circuit(3, 18)) {
        let sv = StateVector::from_circuit(&c).unwrap();
        for q in 0..3 {
            let p0 = sv.outcome_probability(QubitId::new(q), false);
            let p1 = sv.outcome_probability(QubitId::new(q), true);
            prop_assert!((p0 + p1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_shots_conserve_avoid_empty_states_and_fit_the_state(
        c in random_circuit(5, 25),
        seed in 0..u64::MAX,
    ) {
        // one multinomial draw over |ψ|²: every shot lands, none on an index
        // of amplitude exactly zero, and the histogram fits |ψ|² (χ² over
        // cells pooled to expect ≥ 5 shots, bounded far in its tail)
        let shots = 1 << 16;
        let sv = StateVector::from_circuit(&c).unwrap();
        let counts = sv.sample_counts(shots, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(counts.shots(), shots);
        let probabilities = sv.probabilities();
        for (index, dealt) in counts.iter() {
            prop_assert!(probabilities[index as usize] > 0.0, "{dealt} shots on empty {index}");
        }
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let mut open = (0.0, 0.0);
        for (index, p) in probabilities.iter().enumerate() {
            open = (open.0 + p * shots as f64, open.1 + counts.count(index as u64) as f64);
            if open.0 >= 5.0 {
                cells.push(std::mem::take(&mut open));
            }
        }
        let last = cells.last_mut().unwrap();
        *last = (last.0 + open.0, last.1 + open.1);
        let dof = (cells.len() - 1) as f64;
        let chi2: f64 = cells.iter().map(|(e, o)| (o - e).powi(2) / e).sum();
        prop_assert!(chi2 <= dof + 10.0 * (2.0 * dof).sqrt() + 10.0, "χ² {} over {} dof", chi2, dof);
    }
}
