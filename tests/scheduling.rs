//! Scheduler-layer integration tests: multi-device routed execution must be
//! indistinguishable from single-backend execution (and match direct
//! state-vector simulation to 1e-9) on random wire- and gate-cut plans, and
//! variance-weighted shot allocation must not lose to uniform allocation at
//! equal total budget on seeded shots-based runs.

use proptest::prelude::*;
use qrcc::prelude::*;
use std::time::Duration;

fn wire_config() -> QrccConfig {
    QrccConfig::new(4).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
}

fn gate_config() -> QrccConfig {
    wire_config().with_gate_cuts(true)
}

/// Two exact "devices" of different sizes: every fragment of a 4-qubit plan
/// fits one of them, narrow fragments can run on either.
fn two_device_registry() -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register("big", ExactBackend::capped(4));
    registry.register("small", ExactBackend::capped(3));
    registry
}

/// Random 4–6 qubit circuits built from the cuttable gate set, wide enough
/// that cutting is required for a 4-qubit device.
fn random_circuit() -> impl Strategy<Value = Circuit> {
    let gate = (0..6usize, 0..6usize, 0..6usize, -2.0f64..2.0);
    (4..7usize, proptest::collection::vec(gate, 4..16)).prop_map(|(n, gates)| {
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Wire-cut plans: scheduled multi-device execution (chunked, streamed
    /// through the incremental accumulator) must agree with single-backend
    /// execution and with the exact distribution to 1e-9.
    #[test]
    fn scheduled_probabilities_match_single_backend_and_statevector(
        circuit in random_circuit()
    ) {
        let pipeline = match QrccPipeline::plan(&circuit, wire_config()) {
            Ok(p) => p,
            Err(_) => return Ok(()), // no feasible plan for this sample
        };

        // single-backend reference
        let reconstructor =
            ProbabilityReconstructor::with_options(pipeline.reconstruction_options());
        let requests = reconstructor.requests(pipeline.fragments()).unwrap();
        let batch = execute_requests(pipeline.fragments(), &requests, &ExactBackend::new()).unwrap();
        let reference = reconstructor.reconstruct(pipeline.fragments(), &batch).unwrap();

        // scheduled: two capped devices, chunked streaming reconstruction
        let registry = two_device_registry();
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_chunk_size(2));
        let (streamed, _, schedule_report) = pipeline.execute_streaming(&scheduler).unwrap();
        prop_assert!(schedule_report.chunks >= 1);

        let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
        for ((a, b), c) in exact.iter().zip(&reference).zip(&streamed) {
            prop_assert!((a - b).abs() < 1e-9, "single-backend vs exact: {a} vs {b}");
            prop_assert!((a - c).abs() < 1e-9, "scheduled vs exact: {a} vs {c}");
            prop_assert!((b - c).abs() < 1e-9, "scheduled vs single-backend: {b} vs {c}");
        }
    }

    /// Gate-cut (and mixed) plans: scheduled expectation values agree with
    /// single-backend execution and the state vector to 1e-9.
    #[test]
    fn scheduled_expectations_match_single_backend_and_statevector(
        circuit in random_circuit()
    ) {
        let pipeline = match QrccPipeline::plan(&circuit, gate_config()) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let n = circuit.num_qubits();
        let mut observable = PauliObservable::new(n);
        observable.add_term(1.0, PauliString::zz(n, 0, n - 1));
        observable.add_term(-0.5, PauliString::z(n, 1));

        let reconstructor =
            ExpectationReconstructor::with_options(pipeline.reconstruction_options());
        let requests = reconstructor.requests(pipeline.fragments(), &observable).unwrap();
        let batch = execute_requests(pipeline.fragments(), &requests, &ExactBackend::new()).unwrap();
        let reference = reconstructor.reconstruct(pipeline.fragments(), &batch, &observable).unwrap();

        let registry = two_device_registry();
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_chunk_size(3));
        let (scheduled, _, report) =
            pipeline.execute_observables_streaming(&scheduler, &observable).unwrap();
        prop_assert_eq!(report.circuits, batch.executed());
        prop_assert!(report.circuits > 0);

        let exact = StateVector::from_circuit(&circuit).unwrap().expectation(&observable);
        prop_assert!((reference - exact).abs() < 1e-9, "single {reference} vs exact {exact}");
        prop_assert!((scheduled - exact).abs() < 1e-9, "scheduled {scheduled} vs exact {exact}");
    }
}

/// One seeded uniform-vs-variance comparison on a gate-cut plan (the
/// workload where the instance coefficients `cos²θ ≫ sin²θ` make the
/// variance weights genuinely non-uniform): same circuit, same observable,
/// same total shot budget, fresh same-seed devices — returns the two
/// squared observable errors `(uniform, variance_weighted)`.
fn allocation_squared_errors(pipeline: &QrccPipeline, seed: u64, budget: u64) -> (f64, f64) {
    let mut observable = PauliObservable::new(4);
    observable.add_term(1.0, PauliString::zz(4, 1, 2));
    observable.add_term(0.5, PauliString::z(4, 0));

    let mut errors = [0.0f64; 2];
    for (slot, allocation) in
        [ShotAllocation::Uniform, ShotAllocation::VarianceWeighted].into_iter().enumerate()
    {
        // fresh devices per run so both allocations sample the same streams
        let mut registry = DeviceRegistry::new();
        registry.register_device("dev2a", Device::new(DeviceConfig::ideal(2).with_seed(seed)), 1);
        registry.register_device(
            "dev2b",
            Device::new(DeviceConfig::ideal(2).with_seed(seed ^ 0xABCD)),
            1,
        );
        let policy =
            SchedulePolicy::with_budget(budget).with_allocation(allocation).with_min_shots(16);
        let scheduler = Scheduler::new(&registry, policy);
        let (estimate, _, report) =
            pipeline.execute_observables_streaming(&scheduler, &observable).unwrap();
        assert_eq!(report.total_shots, budget, "the whole budget must be spent");
        let exact =
            StateVector::from_circuit(&gate_cut_circuit()).unwrap().expectation(&observable);
        errors[slot] = (estimate - exact).powi(2);
    }
    (errors[0], errors[1])
}

/// Two halves coupled by one cuttable RZZ whose small angle gives strongly
/// non-uniform instance coefficients: for `RZZ(0.1)` the `cos²(0.05)`
/// instance outweighs the `sin²(0.05)` one about 400 to 1 and each
/// `±cos·sin` one 20 to 1 (for `RZZ(0.5)` only 15 and 4 to 1, too little for
/// variance weighting to beat uniform allocation measurably).
fn gate_cut_circuit() -> Circuit {
    let mut circuit = Circuit::new(4);
    circuit.h(0).cx(0, 1).ry(0.4, 1).h(2).cx(2, 3).rz(0.7, 3);
    circuit.rzz(0.1, 1, 2);
    circuit.rx(0.3, 1).ry(0.2, 2);
    circuit
}

/// ShotQC's claim, miniature: at equal total budget, variance-weighted
/// allocation reconstructs the observable more accurately than uniform
/// allocation (summed over a fixed seed set to smooth shot noise). Over 100
/// seeds the summed squared errors differ by about 4.4 standard deviations
/// of their paired difference (measured over 2 000 seeds), so the assertion
/// tests the allocation rather than the seed set.
#[test]
fn variance_allocation_beats_uniform_at_equal_budget() {
    let circuit = gate_cut_circuit();
    let config = QrccConfig::new(2)
        .with_subcircuit_range(2, 2)
        .with_gate_cuts(true)
        .with_max_wire_cuts(0)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();
    assert!(pipeline.plan_ref().gate_cut_count() >= 1, "the plan must gate-cut the RZZ");

    let mut uniform_mse = 0.0;
    let mut variance_mse = 0.0;
    for index in 0..100u64 {
        let (uniform, variance) = allocation_squared_errors(&pipeline, index * 37 + 5, 20_000);
        uniform_mse += uniform;
        variance_mse += variance;
    }
    eprintln!("uniform MSE {uniform_mse:.3e}, variance-weighted MSE {variance_mse:.3e}");
    assert!(
        variance_mse <= uniform_mse,
        "variance-weighted MSE {variance_mse:.3e} must not exceed uniform MSE {uniform_mse:.3e}"
    );
}

/// The acceptance scenario: a plan whose fragments fit across two small
/// registered devices but not on the smaller one alone runs end-to-end
/// through the scheduler with a global shot budget, streaming chunked
/// partial results into incremental reconstruction.
#[test]
fn two_small_devices_run_a_plan_neither_small_device_could_alone() {
    let mut circuit = Circuit::new(6);
    circuit.h(0);
    for q in 0..5 {
        circuit.cx(q, q + 1);
        circuit.ry(0.21 * (q as f64 + 1.0), q + 1);
    }
    let config = QrccConfig::new(3)
        .with_subcircuit_range(2, 3)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();
    let widths = pipeline.plan_ref().subcircuit_widths();
    assert!(widths.contains(&3), "plan must contain a 3-wide fragment: {widths:?}");
    assert!(widths.iter().any(|&w| w <= 2), "plan must contain a ≤2-wide fragment: {widths:?}");

    // the 2-qubit device alone cannot place the 3-wide fragments …
    let mut small_only = DeviceRegistry::new();
    small_only.register_device("dev2", Device::new(DeviceConfig::ideal(2).with_seed(5)), 1);
    let small_scheduler =
        Scheduler::new(&small_only, SchedulePolicy::with_budget(100_000).with_min_shots(16));
    assert!(matches!(
        pipeline.execute_streaming(&small_scheduler),
        Err(qrcc::core::CoreError::NoCompatibleBackend { required: 3, backends: 1 })
    ));

    // … but together with a 3-qubit device the plan streams end-to-end
    let mut registry = DeviceRegistry::new();
    registry.register_device("dev3", Device::new(DeviceConfig::ideal(3).with_seed(5)), 1);
    registry.register_device("dev2", Device::new(DeviceConfig::ideal(2).with_seed(9)), 1);
    let policy = SchedulePolicy::with_budget(400_000).with_min_shots(64).with_chunk_size(4);
    let scheduler = Scheduler::new(&registry, policy);
    let (probabilities, _, schedule_report) = pipeline.execute_streaming(&scheduler).unwrap();

    assert!(schedule_report.chunks > 1, "chunk size 4 must stream multiple chunks");
    assert_eq!(schedule_report.total_shots, 400_000);
    assert_eq!(schedule_report.backends.len(), 2, "both devices must receive work");
    assert!(schedule_report.backends.iter().all(|u| u.circuits > 0));

    let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
    let max_error =
        exact.iter().zip(&probabilities).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    assert!(max_error < 0.05, "shots-based streamed reconstruction off by {max_error}");
}

/// Streaming and blocking scheduled execution agree exactly on the same
/// seeded devices.
#[test]
fn streamed_and_blocking_scheduled_runs_agree() {
    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cx(q, q + 1);
    }
    let config = QrccConfig::new(3)
        .with_subcircuit_range(2, 3)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();

    let run = |chunk_size: usize| {
        let mut registry = DeviceRegistry::new();
        registry.register_device("dev3", Device::new(DeviceConfig::ideal(3).with_seed(77)), 1);
        let policy =
            SchedulePolicy::with_budget(80_000).with_min_shots(32).with_chunk_size(chunk_size);
        let scheduler = Scheduler::new(&registry, policy);
        let (p, _, _) = pipeline.execute_streaming(&scheduler).unwrap();
        p
    };
    let blocking = run(0);
    let streamed = run(2);
    for (a, b) in blocking.iter().zip(&streamed) {
        assert!((a - b).abs() < 1e-12, "chunking must not change the sampled result");
    }
}
