//! Dispatch-layer integration tests: fault-injected multi-device execution
//! must be indistinguishable from single-backend execution (and match direct
//! state-vector simulation to 1e-9) on random wire- and gate-cut plans while
//! a `FlakyBackend` drops a seeded fraction of jobs; results must be
//! byte-identical across worker counts and retry schedules; a fleet where
//! every compatible backend fails must surface `RetriesExhausted`; a
//! permanent error must end the request on its first attempt; an
//! in-flight window of 1 must provably bound the dispatcher's undelivered
//! work; and a budgeted sampled request must return the same bits at every
//! thread count and when two of them run at once.

use proptest::prelude::*;
use qrcc::core::CoreError;
use qrcc::prelude::*;
use std::time::Duration;

fn wire_config() -> QrccConfig {
    QrccConfig::new(4).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
}

fn gate_config() -> QrccConfig {
    wire_config().with_gate_cuts(true)
}

/// A three-device fleet where one device transiently drops a seeded fraction
/// of its jobs: every fragment of a 4-qubit plan fits somewhere, and every
/// dropped job has a healthy compatible backend to fall back to.
fn flaky_registry(seed: u64, fail_fraction: f64) -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register(
        "flaky-big",
        FlakyBackend::transient(ExactBackend::capped(4), seed, fail_fraction),
    );
    registry.register("steady-big", ExactBackend::capped(4));
    registry.register("steady-small", ExactBackend::capped(3));
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

    /// Wire-cut plans under fault injection: dispatched execution with a
    /// flaky device retrying a seeded fraction of jobs must agree with
    /// single-backend execution and with the exact distribution to 1e-9.
    #[test]
    fn dispatched_probabilities_with_retries_match_single_backend_and_statevector(
        circuit in random_circuit(),
        seed in 0u64..1000,
    ) {
        let pipeline = match QrccPipeline::plan(&circuit, wire_config()) {
            Ok(p) => p,
            Err(_) => return Ok(()), // no feasible plan for this sample
        };

        let reference = single_backend_probabilities(&pipeline);

        let registry = flaky_registry(seed, 0.4);
        let policy = SchedulePolicy::default()
            .with_chunk_size(2)
            .with_max_in_flight_chunks(2)
            .with_max_retries(3);
        let scheduler = Scheduler::new(&registry, policy);
        let (streamed, _, schedule) = pipeline.execute_streaming(&scheduler).unwrap();
        // every failure becomes exactly one retry while backends remain
        prop_assert_eq!(schedule.dispatch.failures, schedule.dispatch.jobs_retried);
        prop_assert_eq!(backend_failures(&schedule), schedule.dispatch.failures);

        let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
        for ((a, b), c) in exact.iter().zip(&reference).zip(&streamed) {
            prop_assert!((a - b).abs() < 1e-9, "single-backend vs exact: {} vs {}", a, b);
            prop_assert!((a - c).abs() < 1e-9, "dispatched vs exact: {} vs {}", a, c);
        }
    }

    /// Gate-cut (and mixed) plans under fault injection: streamed
    /// expectation values through the `ExpectationAccumulator` agree with
    /// single-backend execution and the state vector to 1e-9.
    #[test]
    fn dispatched_expectations_with_retries_match_single_backend_and_statevector(
        circuit in random_circuit(),
        seed in 0u64..1000,
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

        let registry = flaky_registry(seed ^ 0xDEAD, 0.4);
        let policy = SchedulePolicy::default().with_chunk_size(3).with_max_retries(3);
        let scheduler = Scheduler::new(&registry, policy);
        let (streamed, _, schedule) =
            pipeline.execute_observables_streaming(&scheduler, &observable).unwrap();
        prop_assert!(results_retries(&schedule) <= schedule.dispatch.failures);

        let exact = StateVector::from_circuit(&circuit).unwrap().expectation(&observable);
        prop_assert!((reference - exact).abs() < 1e-9, "single {} vs exact {}", reference, exact);
        prop_assert!((streamed - exact).abs() < 1e-9, "dispatched {} vs exact {}", streamed, exact);
    }
}

fn chain(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
        c.ry(0.2 * (q as f64 + 1.0), q + 1);
    }
    c
}

fn chain_pipeline() -> QrccPipeline {
    let config = QrccConfig::new(3)
        .with_subcircuit_range(2, 3)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    QrccPipeline::plan(&chain(6), config).unwrap()
}

/// Deterministic merge: the dispatched results are byte-identical across
/// worker counts (registry sizes) and retry schedules (failure seeds and
/// fractions) when the underlying backends are exact.
#[test]
fn dispatched_results_are_byte_identical_across_worker_counts_and_retry_schedules() {
    let pipeline = chain_pipeline();
    let run = |registry: &DeviceRegistry, window: usize| {
        let policy = SchedulePolicy::default()
            .with_chunk_size(2)
            .with_max_in_flight_chunks(window)
            .with_max_retries(4);
        let scheduler = Scheduler::new(registry, policy);
        let (p, _, _) = pipeline.execute_streaming(&scheduler).unwrap();
        p
    };

    // one worker, no faults — the reference
    let mut one = DeviceRegistry::new();
    one.register("only", ExactBackend::new());
    let reference = run(&one, 1);

    // three workers, two flaky with different seeds/fractions, windows 1..4
    for (seed, fraction, window) in [(1u64, 0.3, 1usize), (7, 0.6, 2), (99, 0.9, 4)] {
        let mut registry = DeviceRegistry::new();
        registry
            .register("flaky-a", FlakyBackend::transient(ExactBackend::capped(3), seed, fraction));
        registry.register(
            "flaky-b",
            FlakyBackend::transient(ExactBackend::capped(3), seed ^ 42, fraction),
        );
        registry.register("steady", ExactBackend::new());
        let dispatched = run(&registry, window);
        assert_eq!(reference.len(), dispatched.len());
        for (a, b) in reference.iter().zip(&dispatched) {
            let same = (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits();
            assert!(same, "byte-identical merge required: {a} vs {b}");
        }
    }
}

/// When every compatible backend fails persistently, the retry budget runs
/// out and the typed error surfaces with the final attempt attached.
#[test]
fn all_backends_failing_exhausts_retries() {
    let pipeline = chain_pipeline();
    let mut registry = DeviceRegistry::new();
    registry.register("dead-a", FlakyBackend::always_failing(ExactBackend::new()));
    registry.register("dead-b", FlakyBackend::always_failing(ExactBackend::new()));
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_max_retries(2));
    match pipeline.execute_streaming(&scheduler) {
        Err(CoreError::RetriesExhausted { attempts, last }) => {
            assert_eq!(attempts, 3, "initial dispatch + two retries");
            assert!(matches!(*last, CoreError::BackendUnavailable { .. }));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// A backend whose every circuit fails with the same permanent error,
/// counting the calls it gets.
struct Broken {
    error: CoreError,
    calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl ExecutionBackend for Broken {
    fn run(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
        self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        variants.keys().iter().map(|_| Err(self.error.clone())).collect()
    }

    fn executions(&self) -> u64 {
        0
    }
}

/// A deterministic failure — a protocol violation, a simulator refusal —
/// would recur on any backend: its job gets one attempt, no retry job is
/// made — on a one-device fleet a retry would be a requeue onto the same
/// device — and the request ends with the original error, unwrapped,
/// however large the retry budget.
#[test]
fn a_permanent_error_gets_one_attempt_and_ends_the_request() {
    let pipeline = chain_pipeline();
    let permanent = [
        CoreError::Transport { detail: "cannot submit batch: frame over the cap".into() },
        CoreError::Simulation(qrcc::sim::SimError::ZeroShots),
    ];
    for error in permanent {
        assert!(!error.is_transient());
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut registry = DeviceRegistry::new();
        registry.register("broken", Broken { error: error.clone(), calls: calls.clone() });
        // one chunk, so the broken backend gets exactly one job
        let policy = SchedulePolicy::default().with_chunk_size(0).with_max_retries(5);
        let scheduler = Scheduler::new(&registry, policy);
        match pipeline.execute_streaming(&scheduler) {
            Err(got) => assert_eq!(got, error, "the original error, unwrapped"),
            Ok(_) => panic!("a broken fleet cannot answer"),
        }
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1, "one attempt, no retry");
    }
}

/// An in-flight window of 1 provably bounds the dispatcher's undelivered
/// work: the observed in-flight maximum is exactly 1 even when the consumer
/// is slower than the devices, and chunk accounting still sums to the batch.
#[test]
fn window_of_one_bounds_in_flight_chunks_under_a_slow_consumer() {
    let pipeline = chain_pipeline();
    let requests = ProbabilityReconstructor::new().requests(pipeline.fragments()).unwrap();
    let mut registry = DeviceRegistry::new();
    registry.register("only", ExactBackend::new());
    let policy = SchedulePolicy::default().with_chunk_size(1).with_max_in_flight_chunks(1);
    let scheduler = Scheduler::new(&registry, policy);

    let mut delivered = 0u64;
    let report = scheduler
        .execute_chunked(pipeline.fragments(), &requests, |chunk| {
            delivered += chunk.requested();
            std::thread::sleep(Duration::from_millis(2)); // slow consumer
            Ok(())
        })
        .unwrap();
    assert_eq!(delivered, requests.len() as u64, "chunk accounting sums to the batch");
    assert!(report.chunks > 2, "chunk size 1 must stream many chunks");
    assert_eq!(
        report.dispatch.max_in_flight_chunks, 1,
        "a window of 1 must never hold a second undelivered chunk"
    );
    assert!(
        report.dispatch.deliver_wall >= Duration::from_millis(2 * (report.chunks as u64 - 1)),
        "the dispatcher must have absorbed the consumer's backpressure"
    );
}

/// Requeue path: a single registered device that drops every circuit once
/// recovers via the exclusion-waiving requeue (there is no second backend to
/// re-route to), and the telemetry records it.
#[test]
fn single_flaky_device_recovers_through_requeue() {
    let pipeline = chain_pipeline();
    let mut registry = DeviceRegistry::new();
    registry.register("lone-flaky", FlakyBackend::transient(ExactBackend::new(), 5, 1.0));
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_max_retries(2));
    let (probabilities, _, report) = pipeline.execute_streaming(&scheduler).unwrap();

    let reference = single_backend_probabilities(&pipeline);
    assert!(probabilities.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()));
    assert!(report.dispatch.failures > 0);
    assert_eq!(
        report.dispatch.jobs_requeued, report.dispatch.jobs_retried,
        "with one device every retry is a requeue onto the failer"
    );
    let usage = &report.backends[0];
    assert_eq!(usage.backend, "lone-flaky");
    assert_eq!(usage.failures, report.dispatch.failures);
    assert_eq!(usage.retries, report.dispatch.jobs_retried);
}

/// The schedule report carries the dispatch telemetry end-to-end, and shot
/// accounting stays exact under retries: a budget is spent exactly once per
/// circuit even when circuits fail and re-route.
#[test]
fn shot_budget_stays_exact_under_fault_injection() {
    let pipeline = chain_pipeline();
    let mut registry = DeviceRegistry::new();
    // a flaky sampling device plus a healthy one, same size
    registry.register_device("healthy", Device::new(DeviceConfig::ideal(3).with_seed(3)), 1);
    registry.register(
        "flaky",
        FlakyBackend::transient(
            ShotsBackend::new(Device::new(DeviceConfig::ideal(3).with_seed(4)), 1),
            21,
            0.5,
        ),
    );
    let policy = SchedulePolicy::with_budget(60_000)
        .with_min_shots(16)
        .with_chunk_size(3)
        .with_max_retries(3);
    let scheduler = Scheduler::new(&registry, policy);
    let (probabilities, _, schedule) = pipeline.execute_streaming(&scheduler).unwrap();

    assert_eq!(schedule.total_shots, 60_000, "every allocated shot spent exactly once");
    let usage_shots: u64 = schedule.backends.iter().map(|u| u.shots).sum();
    assert_eq!(usage_shots, 60_000, "per-backend usage sums to the total");
    assert_eq!(backend_failures(&schedule), schedule.dispatch.failures);
    assert!(results_retries(&schedule) <= schedule.dispatch.jobs_retried);

    let exact = StateVector::from_circuit(&chain(6)).unwrap().probabilities();
    let max_error =
        exact.iter().zip(&probabilities).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    assert!(max_error < 0.05, "shots-based dispatched reconstruction off by {max_error}");
}

/// A budgeted request on two seeded sampling devices — the pipeline ledger's
/// `reg8_gate_sampled` shape (REG-8 QAOA on 5 qubits, gate cuts on, 64-circuit
/// chunks) under a smaller budget — as the bits of its value and each
/// device's name, circuits and shots.
fn sampled_two_device_request(pipeline: &QrccPipeline, observable: &PauliObservable) -> SampledRun {
    let mut registry = DeviceRegistry::new();
    for (name, seed) in [("qpu-0", 0xd0), ("qpu-1", 0xd1)] {
        registry.register_device(name, Device::new(DeviceConfig::ideal(5).with_seed(seed)), 1024);
    }
    let policy = SchedulePolicy::with_budget(100_000).with_min_shots(16).with_chunk_size(64);
    let scheduler = Scheduler::new(&registry, policy);
    let (value, _, schedule) =
        pipeline.execute_observables_streaming(&scheduler, observable).unwrap();
    let usage =
        schedule.backends.iter().map(|u| (u.backend.clone(), u.circuits, u.shots)).collect();
    (value.to_bits(), usage)
}

type SampledRun = (u64, Vec<(String, u64, u64)>);

/// Each device draws circuit `i` of its job from its own seeded stream, and
/// a parallel call writes its results by index however wide it fans out: the
/// thread count and a concurrent request can move neither a draw nor a route.
#[test]
fn a_sampled_two_device_request_is_the_same_at_every_width_and_alongside_another() {
    let (circuit, graph) = generators::qaoa_regular(8, 3, 1, 3);
    let config = QrccConfig::new(5).with_gate_cuts(true).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();
    let observable = PauliObservable::maxcut(&graph);
    let reference = sampled_two_device_request(&pipeline, &observable);
    assert!(reference.1.len() == 2 && reference.1.iter().all(|&(_, circuits, _)| circuits > 0));
    assert_eq!(reference.1.iter().map(|&(_, _, shots)| shots).sum::<u64>(), 100_000);

    let inherited = std::env::var("RAYON_NUM_THREADS").ok();
    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let run = sampled_two_device_request(&pipeline, &observable);
        assert_eq!(run, reference, "RAYON_NUM_THREADS={threads}");
    }
    match inherited {
        Some(threads) => std::env::set_var("RAYON_NUM_THREADS", threads),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    let start = std::sync::Barrier::new(2);
    let both: Vec<SampledRun> = std::thread::scope(|s| {
        let requests: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    sampled_two_device_request(&pipeline, &observable)
                })
            })
            .collect();
        requests.into_iter().map(|request| request.join().unwrap()).collect()
    });
    assert_eq!(both, [reference.clone(), reference], "two requests at once");
}

/// Sum of per-backend retry counters in a schedule report.
fn results_retries(schedule: &ScheduleReport) -> u64 {
    schedule.backends.iter().map(|u| u.retries).sum()
}

/// Sum of per-backend failure counters in a schedule report.
fn backend_failures(schedule: &ScheduleReport) -> u64 {
    schedule.backends.iter().map(|u| u.failures).sum()
}

/// The single-backend reference: the whole batch on one exact backend
/// through `execute_requests`, then one blocking reconstruction.
fn single_backend_probabilities(pipeline: &QrccPipeline) -> Vec<f64> {
    let reconstructor = ProbabilityReconstructor::with_options(pipeline.reconstruction_options());
    let requests = reconstructor.requests(pipeline.fragments()).unwrap();
    let batch = execute_requests(pipeline.fragments(), &requests, &ExactBackend::new()).unwrap();
    reconstructor.reconstruct(pipeline.fragments(), &batch).unwrap()
}
