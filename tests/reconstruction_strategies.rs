//! Strategy-agreement tests for the reconstruction engine: the dense global
//! loop, pairwise contraction, and pruned contraction must agree with each
//! other and with direct state-vector simulation — on random small circuits
//! (wire-cut and gate-cut plans alike) and on a chain plan whose total cut
//! count exceeds the dense cap, where only `Contract` is feasible.

use proptest::prelude::*;
use qrcc::core::reconstruct::MAX_DENSE_CUTS;
use qrcc::prelude::*;
use std::time::Duration;

fn wire_config() -> QrccConfig {
    QrccConfig::new(4).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
}

fn gate_config() -> QrccConfig {
    wire_config().with_gate_cuts(true)
}

/// The probability workload's variants as one batch on an exact backend,
/// for every strategy to reconstruct from.
fn execute_probability_batch(pipeline: &QrccPipeline) -> ExecutionResults {
    let requests = ProbabilityReconstructor::with_options(pipeline.reconstruction_options())
        .requests(pipeline.fragments())
        .unwrap();
    execute_requests(pipeline.fragments(), &requests, &ExactBackend::new()).unwrap()
}

fn strategy_options() -> [ReconstructionOptions; 3] {
    [
        ReconstructionOptions { strategy: ReconstructionStrategy::Dense, prune_tolerance: 0.0 },
        ReconstructionOptions { strategy: ReconstructionStrategy::Contract, prune_tolerance: 0.0 },
        // a tiny tolerance exercises the pruning path without visibly
        // perturbing the result
        ReconstructionOptions { strategy: ReconstructionStrategy::Contract, prune_tolerance: 1e-9 },
    ]
}

/// Random 4–6 qubit circuits built from the cuttable gate set, wide enough
/// that cutting is required for a 4-qubit device.
fn random_circuit() -> impl Strategy<Value = Circuit> {
    let gate = (0..6usize, 0..6usize, 0..6usize, -2.0f64..2.0);
    (4..7usize, proptest::collection::vec(gate, 4..16)).prop_map(|(n, gates)| {
        let mut c = Circuit::new(n);
        // span all wires so the circuit cannot fit the device uncut
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for (kind, a, b, theta) in gates {
            let a = a % n;
            let b = b % n;
            match kind {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.ry(theta, a);
                }
                2 => {
                    c.rz(theta, a);
                }
                3 if a != b => {
                    c.cx(a, b);
                }
                4 if a != b => {
                    c.rzz(theta, a, b);
                }
                5 if a != b => {
                    c.cz(a, b);
                }
                _ => {
                    c.t(a);
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Wire-cut plans: every strategy's probability vector matches the
    /// exact distribution.
    #[test]
    fn strategies_agree_on_probabilities(circuit in random_circuit()) {
        let pipeline = match QrccPipeline::plan(&circuit, wire_config()) {
            Ok(p) => p,
            Err(_) => return Ok(()), // not cuttable within limits: nothing to compare
        };
        let results = execute_probability_batch(&pipeline);
        let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
        for options in strategy_options() {
            let reconstructor = ProbabilityReconstructor::with_options(options);
            let (p, report) = reconstructor
                .reconstruct_with_report(pipeline.fragments(), &results)
                .unwrap();
            prop_assert_eq!(report.strategy, options.strategy);
            for (a, b) in exact.iter().zip(&p) {
                prop_assert!(
                    (a - b).abs() < 1e-6,
                    "strategy {:?} deviates: {} vs {}", options.strategy, a, b
                );
            }
        }
    }

    /// Gate-cut-enabled plans: every strategy's expectation value matches
    /// the exact value.
    #[test]
    fn strategies_agree_on_expectations(circuit in random_circuit()) {
        let pipeline = match QrccPipeline::plan(&circuit, gate_config()) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let n = circuit.num_qubits();
        let mut observable = PauliObservable::new(n);
        observable.add_term(1.0, qrcc::circuit::observable::PauliString::zz(n, 0, n - 1));
        observable.add_term(-0.5, qrcc::circuit::observable::PauliString::x(n, 1));
        observable.add_term(
            0.25,
            qrcc::circuit::observable::PauliString::from_paulis(vec![
                qrcc::circuit::observable::Pauli::Z;
                n
            ]),
        );
        let requests = ExpectationReconstructor::with_options(pipeline.reconstruction_options())
            .requests(pipeline.fragments(), &observable)
            .unwrap();
        let results =
            execute_requests(pipeline.fragments(), &requests, &ExactBackend::new()).unwrap();
        let exact = StateVector::from_circuit(&circuit).unwrap().expectation(&observable);
        for options in strategy_options() {
            let reconstructor = ExpectationReconstructor::with_options(options);
            let (value, report) = reconstructor
                .reconstruct_with_report(pipeline.fragments(), &results, &observable)
                .unwrap();
            prop_assert_eq!(report.strategy, options.strategy);
            prop_assert!(
                (value - exact).abs() < 1e-6,
                "strategy {:?} deviates: {} vs exact {}", options.strategy, value, exact
            );
        }
    }
}

/// A disconnected cut graph (two independent chains, each cut once): the
/// contraction engine must finish with an outer-product merge of the two
/// unrelated clusters and still match the exact distribution.
#[test]
fn contraction_handles_disconnected_cut_graphs() {
    let mut circuit = Circuit::new(6);
    circuit.h(0).cx(0, 1).cx(1, 2).ry(0.4, 2);
    circuit.h(3).cx(3, 4).cx(4, 5).rz(0.7, 5);
    let config = QrccConfig::new(2)
        .with_subcircuit_range(4, 4)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).expect("two-chain plan");
    // the two chains share no cuts, so the cut graph must actually be
    // disconnected — count its connected components by flood fill
    let adjacency = pipeline.fragments().cut_adjacency();
    let mut component = vec![usize::MAX; adjacency.len()];
    let mut components = 0usize;
    for start in 0..adjacency.len() {
        if component[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        while let Some(f) = stack.pop() {
            if component[f] != usize::MAX {
                continue;
            }
            component[f] = components;
            stack.extend(adjacency[f].iter().copied());
        }
        components += 1;
    }
    assert!(components >= 2, "plan must have a disconnected cut graph, got {components}");
    let results = execute_probability_batch(&pipeline);
    let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
    let contract = ProbabilityReconstructor::with_options(ReconstructionOptions {
        strategy: ReconstructionStrategy::Contract,
        prune_tolerance: 0.0,
    });
    let (p, report) = contract.reconstruct_with_report(pipeline.fragments(), &results).unwrap();
    // every fragment is merged exactly once, including the final
    // outer-product merge(s) across unrelated components
    assert_eq!(report.contractions, adjacency.len() - 1);
    for (i, (a, b)) in exact.iter().zip(&p).enumerate() {
        assert!((a - b).abs() < 1e-6, "mismatch at {i}: exact {a} vs contract {b}");
    }
}

/// The acceptance case of the contraction engine: a chain plan whose total
/// wire-cut count exceeds `MAX_DENSE_CUTS`, so the dense strategy must
/// refuse while pairwise contraction (whose per-merge leg count stays tiny
/// on a chain) reconstructs the exact distribution.
#[test]
fn contraction_reconstructs_beyond_the_dense_cut_cap() {
    let n = MAX_DENSE_CUTS + 3; // 17 qubits → 16 two-qubit fragments, 15+ cuts
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
    }
    circuit.ry(0.3, n - 1);
    // force one fragment per chain link so the plan carries n-1 > cap cuts
    let config = QrccConfig::new(2)
        .with_subcircuit_range(n - 1, n - 1)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).expect("chain plan");
    let cuts = pipeline.fragments().num_wire_cuts();
    assert!(cuts > MAX_DENSE_CUTS, "need a beyond-cap plan, got {cuts} cuts");

    // dense refuses the plan outright
    let dense = ProbabilityReconstructor::with_options(ReconstructionOptions {
        strategy: ReconstructionStrategy::Dense,
        prune_tolerance: 0.0,
    });
    assert!(dense.requests(pipeline.fragments()).is_err(), "dense must refuse {cuts} cuts");

    // contraction enumerates, executes and reconstructs exactly
    let contract = ProbabilityReconstructor::with_options(ReconstructionOptions {
        strategy: ReconstructionStrategy::Contract,
        prune_tolerance: 0.0,
    });
    let requests = contract.requests(pipeline.fragments()).expect("contract accepts the plan");
    let backend = ExactBackend::new();
    let results = execute_requests(pipeline.fragments(), &requests, &backend).unwrap();
    let (p, report) = contract.reconstruct_with_report(pipeline.fragments(), &results).unwrap();
    assert_eq!(report.strategy, ReconstructionStrategy::Contract);
    assert!(
        report.max_contraction_legs <= MAX_DENSE_CUTS,
        "per-merge legs {} must stay under the cap",
        report.max_contraction_legs
    );
    assert_eq!(report.contractions, pipeline.fragments().fragments.len() - 1);

    let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
    for (i, (a, b)) in exact.iter().zip(&p).enumerate() {
        assert!((a - b).abs() < 1e-6, "mismatch at {i}: exact {a} vs contract {b}");
    }

    // Auto resolves to the only feasible strategy
    let auto = ProbabilityReconstructor::new();
    let (_, auto_report) = auto.reconstruct_with_report(pipeline.fragments(), &results).unwrap();
    assert_eq!(auto_report.strategy, ReconstructionStrategy::Contract);
}

/// The output-sliced dense readout on chain plans: every output slot sums
/// its `4^cuts` combos in one fixed order whatever thread fills its slice,
/// so the vector is bit-identical at 1, 2 and 4 rayon threads — and it
/// agrees with pairwise contraction to 1e-12. Chain-13 has `2^13` outputs,
/// enough for more than one slice.
#[test]
fn dense_readout_is_bit_identical_across_thread_counts_and_matches_contraction() {
    let chain = |n: usize| {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1).ry(0.1 * (q as f64 + 1.0), q + 1);
        }
        c
    };
    let plans = [
        // one two-qubit fragment per link: 8 fragments, 7 cuts
        (chain(9), QrccConfig::new(2).with_subcircuit_range(8, 8)),
        // six three-qubit fragments, 5 cuts, two output slices
        (chain(13), QrccConfig::new(3).with_subcircuit_range(6, 6)),
    ];
    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    for (circuit, config) in plans {
        let config = config.with_qubit_reuse(false).with_ilp_time_limit(Duration::ZERO);
        let pipeline = QrccPipeline::plan(&circuit, config).expect("chain plan");
        let results = execute_probability_batch(&pipeline);
        let reconstruct = |strategy| {
            ProbabilityReconstructor::with_options(ReconstructionOptions {
                strategy,
                prune_tolerance: 0.0,
            })
            .reconstruct(pipeline.fragments(), &results)
            .unwrap()
        };
        let per_thread_count: Vec<Vec<f64>> = ["1", "2", "4"]
            .iter()
            .map(|threads| {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                reconstruct(ReconstructionStrategy::Dense)
            })
            .collect();
        for dense in &per_thread_count[1..] {
            assert!(
                dense.iter().zip(&per_thread_count[0]).all(|(a, b)| a.to_bits() == b.to_bits()),
                "dense readout must not depend on the thread count"
            );
        }
        let contract = reconstruct(ReconstructionStrategy::Contract);
        for (i, (a, b)) in per_thread_count[0].iter().zip(&contract).enumerate() {
            assert!((a - b).abs() < 1e-12, "mismatch at {i}: dense {a} vs contract {b}");
        }
    }
    match previous {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
