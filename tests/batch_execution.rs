//! Integration tests of the batch-first execution protocol:
//!
//! * a property test asserting that batched + parallel + deduplicated
//!   execution reconstructs results bit-identical (within 1e-9) to a serial
//!   per-variant reference on random 4–6 qubit circuits, and
//! * dedup-accounting tests showing the batch executes strictly fewer
//!   circuits than a per-term enumeration would request when variants
//!   repeat across Pauli terms (and than the plan's instance count on
//!   gate-cut plans).

use proptest::prelude::*;
use qrcc::prelude::*;
use std::time::Duration;

/// Serial per-variant reference: executes every request one circuit at a
/// time — no batching, no cross-request dedup, no parallelism — reproducing
/// the old `distribution()`-per-variant flow against the same backend type.
fn execute_serially(
    fragments: &FragmentSet,
    requests: &[VariantRequest],
    backend: &ExactBackend,
) -> ExecutionResults {
    let mut results = ExecutionResults::default();
    for request in requests {
        let circuit = fragments.instantiate_key(&request.key).expect("valid key");
        let dist = backend.run_batch(&[circuit]).remove(0).expect("exact execution");
        // sanity: the one-request batch path agrees with a one-circuit run
        let one = execute_requests(fragments, std::slice::from_ref(request), &ExactBackend::new())
            .expect("single-request batch");
        assert_eq!(one.distribution(&request.key).unwrap(), dist.as_slice());
        results.extend(one);
    }
    results
}

/// Every variant `observable` needs, as one deduplicated batch on `backend`.
fn execute_observable(
    pipeline: &QrccPipeline,
    observable: &PauliObservable,
    backend: &ExactBackend,
) -> ExecutionResults {
    let reconstructor = ExpectationReconstructor::with_options(pipeline.reconstruction_options());
    let requests = reconstructor.requests(pipeline.fragments(), observable).unwrap();
    execute_requests(pipeline.fragments(), &requests, backend).unwrap()
}

fn config(device: usize) -> QrccConfig {
    QrccConfig::new(device).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
}

/// Random 4–6 qubit circuits over the cuttable gate set, entangled enough
/// that cutting is required.
fn random_circuit() -> impl Strategy<Value = Circuit> {
    (4..7usize, proptest::collection::vec((0..6usize, 0..6usize, 0..6usize, -2.0f64..2.0), 4..18))
        .prop_map(|(n, gates)| {
            let mut c = Circuit::new(n);
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batched_parallel_execution_matches_serial_per_variant(circuit in random_circuit()) {
        let pipeline = match QrccPipeline::plan(&circuit, config(4)) {
            Ok(p) => p,
            // Some random circuits cannot be cut for a 4-qubit device within
            // the small subcircuit range; that is a legitimate planner answer.
            Err(_) => return Ok(()),
        };
        prop_assume!(pipeline.plan_ref().wire_cut_count() <= 5);
        let fragments = pipeline.fragments();
        let reconstructor = ProbabilityReconstructor::new();
        let requests = reconstructor.requests(fragments).unwrap();

        // batched + deduplicated + rayon-parallel
        let batch_backend = ExactBackend::new();
        let batched = execute_requests(fragments, &requests, &batch_backend).unwrap();
        // serial per-variant reference
        let serial_backend = ExactBackend::new();
        let serial = execute_serially(fragments, &requests, &serial_backend);

        let from_batch = reconstructor.reconstruct(fragments, &batched).unwrap();
        let from_serial = reconstructor.reconstruct(fragments, &serial).unwrap();
        prop_assert_eq!(from_batch.len(), from_serial.len());
        for (i, (a, b)) in from_batch.iter().zip(&from_serial).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "basis state {i}: batched {a} vs serial {b}");
        }
        // and both must be correct against direct simulation
        let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
        for (a, b) in exact.iter().zip(&from_batch) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }
}

#[test]
fn dedup_executes_fewer_circuits_than_requested_across_pauli_terms() {
    // Multiple Z-like Pauli terms share every fragment measurement-basis
    // signature, so where a per-term enumeration would request each variant
    // once per term, the enumerate phase lists it once for all terms and the
    // execute phase runs it once in total.
    let mut circuit = Circuit::new(5);
    circuit.h(0).cx(0, 1).ry(0.4, 1).cx(1, 2).cx(2, 3).rz(0.8, 3).cx(3, 4);
    let mut observable = PauliObservable::new(5);
    observable.add_term(1.0, qrcc::circuit::observable::PauliString::zz(5, 0, 4));
    observable.add_term(-0.5, qrcc::circuit::observable::PauliString::z(5, 2));
    observable.add_term(0.25, qrcc::circuit::observable::PauliString::zz(5, 1, 3));

    let pipeline = QrccPipeline::plan(&circuit, config(3)).unwrap();
    let backend = ExactBackend::new();
    let results = execute_observable(&pipeline, &observable, &backend);

    let executing = pipeline.fragments().fragments.iter().filter(|f| f.num_clbits > 0);
    let per_term: u64 = observable.terms().len() as u64
        * executing.map(|fragment| fragment.variant_count()).sum::<u64>();
    assert!(
        backend.executions() < per_term,
        "dedup must execute fewer circuits ({}) than a per-term enumeration requests ({})",
        backend.executions(),
        per_term
    );
    // three signature-identical terms: exactly one third of the per-term
    // requests are enumerated, each once
    assert_eq!(3 * results.requested(), per_term);
    assert_eq!(results.requested(), results.unique_variants() as u64);
    // and far fewer than the old per-term serial flow would have run
    let serial_cost = observable.terms().len() as u64 * pipeline.total_instances();
    assert!(backend.executions() < serial_cost);
}

#[test]
fn structural_dedup_beats_the_instance_count_on_gate_cut_plans() {
    // On the measuring half of a gate cut, Mitarai–Fujii instances 3 and 4
    // (resp. 5 and 6) instantiate to the *same* circuit, so the batch runs
    // strictly fewer circuits than the 4^k·3^l·6^m instance count.
    let mut circuit = Circuit::new(4);
    circuit.h(0).cx(0, 1).ry(0.4, 1).h(2).cx(2, 3).rz(0.7, 3).rzz(0.9, 1, 2).rx(0.3, 1).ry(0.2, 2);
    let config = QrccConfig::new(2)
        .with_subcircuit_range(2, 2)
        .with_gate_cuts(true)
        .with_max_wire_cuts(0)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();
    assert!(pipeline.plan_ref().gate_cut_count() >= 1, "expected a gate cut");

    let mut observable = PauliObservable::new(4);
    observable.add_term(1.0, qrcc::circuit::observable::PauliString::zz(4, 1, 2));
    observable.add_term(0.5, qrcc::circuit::observable::PauliString::z(4, 0));

    let backend = ExactBackend::new();
    let results = execute_observable(&pipeline, &observable, &backend);
    assert!(
        backend.executions() < pipeline.total_instances(),
        "structural dedup must beat the instance count: executed {} of {} instances",
        backend.executions(),
        pipeline.total_instances()
    );
    assert_eq!(backend.executions(), results.executed());

    // correctness is untouched by the dedup
    let reconstructor = ExpectationReconstructor::with_options(pipeline.reconstruction_options());
    let value = reconstructor.reconstruct(pipeline.fragments(), &results, &observable).unwrap();
    let exact = StateVector::from_circuit(&circuit).unwrap().expectation(&observable);
    assert!((value - exact).abs() < 1e-6, "value {value} vs exact {exact}");
}
