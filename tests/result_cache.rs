//! Result-cache integration tests: cache-served scheduled execution must be
//! indistinguishable from cache-free execution (and match direct
//! state-vector simulation to 1e-9), a warm cache must serve repeats without
//! spending any device shots, shot top-ups must execute only the missing
//! delta, persisted snapshots must survive a restart, shot accounting
//! must stay exact-once under every hit class and under retried top-ups, and
//! no circuit may be built that does not run.

use proptest::prelude::*;
use qrcc::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn config() -> QrccConfig {
    QrccConfig::new(4).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
}

fn exact_registry() -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register("big", ExactBackend::capped(4));
    registry.register("small", ExactBackend::capped(3));
    registry
}

fn sampling_registry(seed: u64, shots: u64) -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register_device("dev4", Device::new(DeviceConfig::ideal(4).with_seed(seed)), shots);
    registry
}

/// Random 4–6 qubit circuits from the cuttable gate set.
fn random_circuit() -> impl Strategy<Value = Circuit> {
    let gate = (0..5usize, 0..6usize, 0..6usize, -2.0f64..2.0);
    (4..7usize, proptest::collection::vec(gate, 4..14)).prop_map(|(n, gates)| {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for (kind, a, b, theta) in gates {
            let (a, b) = (a % n, b % n);
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
                _ if a != b => {
                    c.rzz(theta, a, b);
                }
                _ => {
                    c.ry(theta, a);
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache-on execution (cold and warm) reconstructs the same probability
    /// vector as cache-free execution and direct state-vector simulation.
    #[test]
    fn cached_execution_matches_fresh_and_statevector(circuit in random_circuit()) {
        let pipeline = match QrccPipeline::plan(&circuit, config()) {
            Ok(p) => p,
            Err(_) => return Ok(()), // no feasible plan for this sample
        };
        let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();

        let plain = exact_registry();
        let scheduler = Scheduler::new(&plain, SchedulePolicy::default());
        let (fresh, _, _) = pipeline.execute_streaming(&scheduler).unwrap();

        let cached = exact_registry().with_result_cache(&ResultCachePolicy::in_memory());
        let scheduler = Scheduler::new(&cached, SchedulePolicy::default());
        let (cold, _, _) = pipeline.execute_streaming(&scheduler).unwrap();
        let (warm, _, _) = pipeline.execute_streaming(&scheduler).unwrap();

        for (((f, c), w), e) in fresh.iter().zip(&cold).zip(&warm).zip(&exact) {
            prop_assert!((f - c).abs() < 1e-9, "cold cache run diverged: {f} vs {c}");
            prop_assert!((c - w).abs() < 1e-9, "warm cache run diverged: {c} vs {w}");
            prop_assert!((c - e).abs() < 1e-9, "cache run diverged from exact: {c} vs {e}");
        }
    }
}

/// A warm cache serves every repeat without touching any backend: zero
/// device shots, zero new executions, and the hit counters flow into the
/// `ScheduleReport`.
#[test]
fn warm_runs_spend_nothing_and_report_their_hits() {
    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cx(q, q + 1);
        circuit.ry(0.2 * (q as f64 + 1.0), q + 1);
    }
    let pipeline = QrccPipeline::plan(&circuit, config()).unwrap();

    let registry = sampling_registry(7, 512).with_result_cache(&ResultCachePolicy::in_memory());
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default());

    let (cold, _, cold_report) = pipeline.execute_streaming(&scheduler).unwrap();
    let executions_after_cold = registry.total_executions();
    assert!(cold_report.total_shots > 0, "the cold run must execute");

    let (warm, _, warm_report) = pipeline.execute_streaming(&scheduler).unwrap();
    assert_eq!(warm_report.total_shots, 0, "a warm run spends no device shots");
    assert_eq!(
        registry.total_executions(),
        executions_after_cold,
        "a warm run never reaches a backend"
    );

    // byte-identical answers: the cache returns exactly what ran
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.to_bits(), w.to_bits(), "cache-served answer must be byte-identical");
    }

    // counters reach the schedule report
    let stats = warm_report.result_cache.expect("cache counters must reach the report");
    let cold_stats = cold_report.result_cache.expect("cold run carries counters");
    assert_eq!(stats.hits, cold_stats.misses, "every cold miss warm-hits");
    assert!(stats.shots_saved >= cold_report.total_shots);
}

/// Every circuit-building call of the request's fragments, summed.
fn circuits_built(pipeline: &QrccPipeline) -> u64 {
    pipeline.fragments().fragments.iter().map(|f| f.body().instantiations()).sum()
}

/// A variant stays a key until a backend runs it: a cold request builds
/// each miss exactly once, a warm all-hit request builds and compiles
/// nothing, and a doubled-shot request builds only its top-ups.
#[test]
fn the_pipeline_builds_only_the_circuits_it_runs() {
    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cx(q, q + 1);
        circuit.ry(0.3 * (q as f64 + 1.0), q + 1);
    }
    let pipeline = QrccPipeline::plan(&circuit, config()).unwrap();

    let registry = exact_registry().with_result_cache(&ResultCachePolicy::in_memory());
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_chunk_size(3));
    let built = circuits_built(&pipeline);
    let (_, _, cold) = pipeline.execute_streaming(&scheduler).unwrap();
    let cold_cache = cold.result_cache.expect("a cache is attached");
    assert_eq!(cold_cache.misses, cold.circuits, "a cold request misses every circuit");
    assert_eq!(circuits_built(&pipeline) - built, cold.circuits, "each miss is built once");

    let compiled = registry.compile_stats();
    let built = circuits_built(&pipeline);
    let (_, _, warm) = pipeline.execute_streaming(&scheduler).unwrap();
    let warm_cache = warm.result_cache.expect("a cache is attached");
    assert_eq!(warm_cache.hits - cold_cache.hits, warm.circuits, "every circuit hits");
    assert_eq!(circuits_built(&pipeline), built, "an all-hit request builds nothing");
    assert_eq!(registry.compile_stats(), compiled, "and compiles nothing");

    // sampled: doubling the budget turns every entry into a delta hit,
    // whose top-up is the only thing built
    let registry = sampling_registry(5, 256).with_result_cache(&ResultCachePolicy::in_memory());
    let run = |budget: u64| {
        let policy = SchedulePolicy::with_budget(budget).with_min_shots(8);
        let scheduler = Scheduler::new(&registry, policy);
        let built = circuits_built(&pipeline);
        let (_, _, report) = pipeline.execute_streaming(&scheduler).unwrap();
        (circuits_built(&pipeline) - built, report.result_cache.expect("a cache is attached"))
    };
    let (cold_built, cold) = run(20_000);
    assert_eq!(cold_built, cold.misses);
    let (doubled_built, doubled) = run(40_000);
    let top_ups = (doubled.delta_hits + doubled.misses) - (cold.delta_hits + cold.misses);
    assert!(doubled.delta_hits > 0, "the doubled request tops entries up");
    assert_eq!(doubled_built, top_ups, "only the top-ups are built");
}

/// Re-running at a doubled per-circuit shot count is served as delta hits:
/// only the missing half executes, and the merged write-back upgrades the
/// stored entries.
#[test]
fn doubled_requests_execute_only_the_missing_delta() {
    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cx(q, q + 1);
        circuit.ry(0.3 * (q as f64 + 1.0), q + 1);
    }
    let pipeline = QrccPipeline::plan(&circuit, config()).unwrap();

    let base = sampling_registry(7, 1024).with_result_cache(&ResultCachePolicy::in_memory());
    let cache = Arc::clone(base.result_cache().unwrap());
    let scheduler = Scheduler::new(&base, SchedulePolicy::default());
    let (_, _, cold_report) = pipeline.execute_streaming(&scheduler).unwrap();

    let mut upsized = sampling_registry(7, 2048);
    upsized.set_result_cache(Arc::clone(&cache));
    let scheduler = Scheduler::new(&upsized, SchedulePolicy::default());
    let (_, _, topup_report) = pipeline.execute_streaming(&scheduler).unwrap();

    assert_eq!(
        topup_report.total_shots, cold_report.total_shots,
        "a 2x request tops up exactly the missing half"
    );
    let stats = cache.stats();
    assert!(stats.delta_hits > 0, "the doubled run must be served as deltas");
    assert_eq!(stats.delta_hits, stats.misses, "every cold miss delta-hits once");

    // the merged entries now hold 2048 shots: repeating the doubled request
    // is a pure warm run
    let (_, _, warm_report) = pipeline.execute_streaming(&scheduler).unwrap();
    assert_eq!(warm_report.total_shots, 0, "merged entries serve the doubled request fully");
}

/// Per-backend usage must sum to the report totals under every hit class —
/// the allocated shots of a cache-served circuit are not charged anywhere.
#[test]
fn shot_accounting_stays_exact_once_under_hits() {
    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cx(q, q + 1);
        circuit.ry(0.15 * (q as f64 + 1.0), q + 1);
    }
    let pipeline = QrccPipeline::plan(&circuit, config()).unwrap();
    let registry = sampling_registry(3, 256).with_result_cache(&ResultCachePolicy::in_memory());
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default());

    for pass in 0..2 {
        let (_, _, report) = pipeline.execute_streaming(&scheduler).unwrap();
        let usage_total: u64 = report.backends.iter().map(|u| u.shots).sum();
        assert_eq!(usage_total, report.total_shots, "usage must sum to the total (pass {pass})");
    }
}

/// A cached registry over one flaky sampling device: every circuit's first
/// submission to it fails, so every executed circuit is retried once.
fn flaky_sampling_registry(seed: u64, shots: u64) -> DeviceRegistry {
    let device = Device::new(DeviceConfig::ideal(4).with_seed(seed));
    let mut registry = DeviceRegistry::new();
    registry.register("flaky4", FlakyBackend::transient(ShotsBackend::new(device, shots), 5, 1.0));
    registry
}

/// Retries keep shot accounting exact through the cache: when every
/// top-up of a doubled request fails once and is retried, the run still
/// spends exactly the missing half — each top-up is charged once, on the
/// attempt that succeeded — and the merged entries then serve the doubled
/// request without spending anything. The cache's counters follow the
/// same rule: a retried miss is one miss, and a retried top-up is one
/// delta hit that saved its base shots once.
#[test]
fn retried_top_ups_spend_only_the_missing_shots() {
    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cx(q, q + 1);
        circuit.ry(0.2 * (q as f64 + 1.0), q + 1);
    }
    let pipeline = QrccPipeline::plan(&circuit, config()).unwrap();

    let cold = flaky_sampling_registry(7, 1024).with_result_cache(&ResultCachePolicy::in_memory());
    let cache = Arc::clone(cold.result_cache().unwrap());
    let scheduler = Scheduler::new(&cold, SchedulePolicy::default());
    let (_, _, cold_report) = pipeline.execute_streaming(&scheduler).unwrap();
    assert!(cold_report.total_shots > 0, "the cold run must execute");
    let cold_executed: u64 = cold_report.backends.iter().map(|u| u.circuits).sum();
    let cold = cache.stats();
    assert_eq!(cold.misses, cold_executed, "each retried miss counts once");

    let mut doubled = flaky_sampling_registry(7, 2048);
    doubled.set_result_cache(Arc::clone(&cache));
    let scheduler = Scheduler::new(&doubled, SchedulePolicy::default());
    let (_, _, topup_report) = pipeline.execute_streaming(&scheduler).unwrap();
    assert!(cache.stats().delta_hits > 0, "the doubled run must be served as deltas");
    let executed: u64 = topup_report.backends.iter().map(|u| u.circuits).sum();
    let retried: u64 = topup_report.backends.iter().map(|u| u.retries).sum();
    assert!(executed > 0, "the top-ups must execute");
    assert_eq!(retried, executed, "every top-up fails once and succeeds on its retry");
    assert_eq!(
        topup_report.total_shots, cold_report.total_shots,
        "retried top-ups spend exactly the missing half"
    );
    let usage_total: u64 = topup_report.backends.iter().map(|u| u.shots).sum();
    assert_eq!(usage_total, topup_report.total_shots, "usage must sum to the total");
    let doubled = cache.stats();
    assert_eq!(doubled.delta_hits - cold.delta_hits, executed, "one delta hit per top-up");
    assert_eq!(
        doubled.shots_saved - cold.shots_saved,
        executed * 1024,
        "each top-up saves its 1024 base shots once"
    );
    assert_eq!(doubled.misses, cold.misses, "a top-up is not a miss");

    let (_, _, warm_report) = pipeline.execute_streaming(&scheduler).unwrap();
    assert_eq!(warm_report.total_shots, 0, "the merged entries serve the doubled request");
}

/// A persisted snapshot restores the cache across a "restart": a second
/// registry opening the same path — over a device with a different seed —
/// serves byte-identical distributions without executing anything.
#[test]
fn persistence_survives_a_registry_restart() {
    let path = {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("qrcc-restart-{}-{n}.snapshot", std::process::id()))
    };
    let policy = ResultCachePolicy::persisted(path.to_string_lossy().into_owned());

    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cx(q, q + 1);
        circuit.ry(0.25 * (q as f64 + 1.0), q + 1);
    }
    let pipeline = QrccPipeline::plan(&circuit, config()).unwrap();

    let first = sampling_registry(7, 512).with_result_cache(&policy);
    let scheduler = Scheduler::new(&first, SchedulePolicy::default());
    let (original, _, _) = pipeline.execute_streaming(&scheduler).unwrap();
    first.result_cache().unwrap().persist().unwrap();
    drop(first);

    // a different seed would sample different distributions — identical
    // output therefore proves the snapshot served, not the device
    let second = sampling_registry(999, 512).with_result_cache(&policy);
    let executions_before = second.total_executions();
    let scheduler = Scheduler::new(&second, SchedulePolicy::default());
    let (restored, _, report) = pipeline.execute_streaming(&scheduler).unwrap();
    assert_eq!(report.total_shots, 0, "the restarted registry serves from the snapshot");
    assert_eq!(second.total_executions(), executions_before);
    for (a, b) in original.iter().zip(&restored) {
        assert_eq!(a.to_bits(), b.to_bits(), "snapshot-served answer must be byte-identical");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A snapshot whose distributions are not sized for their circuits is
/// ignored: the restarted registry re-executes every circuit and matches the
/// state vector, instead of serving the corrupt entries.
#[test]
fn a_mis_sized_snapshot_entry_is_never_served() {
    let path = std::env::temp_dir().join(format!("qrcc-missized-{}.snapshot", std::process::id()));
    let policy = ResultCachePolicy::persisted(path.to_string_lossy().into_owned());

    let mut circuit = Circuit::new(4);
    circuit.h(0);
    for q in 0..3 {
        circuit.cx(q, q + 1);
        circuit.ry(0.35 * (q as f64 + 1.0), q + 1);
    }
    let config = QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();
    let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
    let registry = || {
        let mut registry = DeviceRegistry::new();
        registry.register("dev3", ExactBackend::capped(3));
        registry.with_result_cache(&policy)
    };

    let first = registry();
    pipeline.execute_streaming(&Scheduler::new(&first, SchedulePolicy::default())).unwrap();
    first.result_cache().unwrap().persist().unwrap();
    drop(first);

    // rewrite every entry's distribution one value short, all of its mass
    // on outcome 0
    let text = std::fs::read_to_string(&path).unwrap();
    let corrupt = |field: &str| match field.strip_prefix("dist=") {
        Some(dist) => {
            let values = dist.split(',').count();
            assert!(values >= 2, "a fragment measures at least one clbit");
            let mut short = vec!["0000000000000000"; values - 1];
            short[0] = "3ff0000000000000";
            format!("dist={}", short.join(","))
        }
        None => field.to_string(),
    };
    let corrupted: String = text
        .lines()
        .map(|line| match line.strip_prefix("entry ") {
            Some(fields) => {
                let fields: Vec<String> = fields.split_whitespace().map(corrupt).collect();
                format!("entry {}\n", fields.join(" "))
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(corrupted, text, "the cold run must have persisted entries");
    std::fs::write(&path, corrupted).unwrap();

    let second = registry();
    let (probabilities, _, report) =
        pipeline.execute_streaming(&Scheduler::new(&second, SchedulePolicy::default())).unwrap();
    for (p, e) in probabilities.iter().zip(&exact) {
        assert!((p - e).abs() < 1e-9, "restarted run diverged from exact: {p} vs {e}");
    }
    let stats = report.result_cache.expect("cache counters must reach the report");
    assert!(stats.snapshot_ignored, "a mis-sized entry must void the snapshot");
    assert_eq!(stats.hits, 0, "nothing from the voided snapshot may be served");
    std::fs::remove_file(&path).unwrap();
}
