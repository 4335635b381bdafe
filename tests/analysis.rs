//! Pre-flight analysis integration tests: the `qrcc-lint` diagnostics
//! engine must be **sound** (a clean report means scheduled execution never
//! dies on a statically predictable error class), **quiet** (every paper
//! benchmark family analyzes clean on a compatible fleet), and **sharp**
//! (each seeded defect trips its own `QL` code before any backend runs).

use proptest::prelude::*;
use qrcc::core::analyze::analyze_qasm;
use qrcc::core::CoreError;
use qrcc::prelude::*;
use std::time::Duration;

fn plan(circuit: &Circuit, device_size: usize) -> QrccPipeline {
    let config = QrccConfig::new(device_size).with_ilp_time_limit(Duration::ZERO);
    QrccPipeline::plan(circuit, config).expect("benchmark circuits must plan")
}

fn unbounded_fleet() -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register("big", ExactBackend::new());
    registry.register("small", ExactBackend::capped(4));
    registry
}

/// Every generator family of the paper's evaluation (§5.1), sized to need
/// cutting on a 4-qubit device.
fn benchmark_circuits() -> Vec<(&'static str, Circuit)> {
    use generators::HamiltonianKind;
    vec![
        ("qft", generators::qft(6)),
        ("supremacy", generators::supremacy(2, 3, 4, 7)),
        ("adder", generators::ripple_carry_adder(2, 7)),
        ("qaoa", generators::qaoa_regular(6, 3, 1, 7).0),
        (
            "hamsim",
            generators::hamiltonian_simulation(
                HamiltonianKind::TransverseFieldIsing,
                2,
                3,
                false,
                1,
                0.1,
            )
            .0,
        ),
        ("vqe", generators::vqe_two_local(6, 1, 7)),
    ]
}

/// Zero false positives: every benchmark family, planned for a 4-qubit
/// device and analyzed against a fleet that can actually run it, must come
/// back with no errors and no warnings (notes are fine — they carry
/// overhead estimates, not defects).
#[test]
fn benchmark_families_analyze_clean_on_a_compatible_fleet() {
    let fleet = unbounded_fleet();
    for (name, circuit) in benchmark_circuits() {
        let pipeline = plan(&circuit, 4);
        let report = pipeline.analyze_with_fleet(&fleet);
        assert!(report.is_clean(), "{name} must analyze clean, got:\n{report}");
        // and the gate agrees at the default (Warn) level
        pipeline.preflight(&fleet).unwrap_or_else(|e| panic!("{name} must pass the gate: {e}"));
    }
}

/// The same circuits analyzed *without* a fleet stay clean too — the
/// circuit- and plan-level lints alone have no complaints about honest
/// benchmarks.
#[test]
fn benchmark_families_analyze_clean_standalone() {
    for (name, circuit) in benchmark_circuits() {
        let report = plan(&circuit, 4).analyze();
        assert!(report.is_clean(), "{name} must analyze clean, got:\n{report}");
    }
}

/// Random chain-like circuits for the soundness property: wide enough to
/// force cutting on the sampled device size.
fn random_chain() -> impl Strategy<Value = Circuit> {
    (4..7usize, proptest::collection::vec((0..4usize, -2.0f64..2.0), 2..10)).prop_map(
        |(n, extras)| {
            let mut c = Circuit::new(n);
            c.h(0);
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
            for (i, (kind, theta)) in extras.into_iter().enumerate() {
                let q = i % n;
                match kind {
                    0 => {
                        c.ry(theta, q);
                    }
                    1 => {
                        c.rz(theta, q);
                    }
                    2 => {
                        c.h(q);
                    }
                    _ if q + 1 < n => {
                        c.rzz(theta, q, q + 1);
                    }
                    _ => {
                        c.t(q);
                    }
                }
            }
            c
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Soundness: over random plans, fleets, and shot budgets, a clean
    /// analysis (no errors) guarantees that scheduled execution never fails
    /// with the two statically predictable error classes —
    /// `NoCompatibleBackend` or `ShotBudgetTooSmall`. Conversely, a
    /// predicted placement or budget error must carry its `QL` code.
    #[test]
    fn clean_reports_never_die_on_predictable_errors(
        circuit in random_chain(),
        cap_a in 1..7usize,
        cap_b in 2..7usize,
        budget in 0u64..400,
    ) {
        let mut config =
            QrccConfig::new(3).with_subcircuit_range(2, 4).with_ilp_time_limit(Duration::ZERO);
        // budget 0 means "no budget at all" rather than a zero-shot budget
        if budget > 0 {
            config = config.with_shot_budget(budget);
        }
        let pipeline = match QrccPipeline::plan(&circuit, config.clone()) {
            Ok(p) => p,
            Err(_) => return Ok(()), // no feasible plan for this sample
        };
        let mut registry = DeviceRegistry::new();
        registry.register("a", ExactBackend::capped(cap_a));
        registry.register("b", ExactBackend::capped(cap_b));

        let report = pipeline.analyze_with_fleet(&registry);
        let scheduler = Scheduler::new(&registry, config.schedule);
        let outcome = pipeline.execute_streaming(&scheduler);
        match &outcome {
            Err(CoreError::NoCompatibleBackend { .. }) => prop_assert!(
                report.diagnostics().iter().any(|d| d.code == "QL0301"),
                "runtime NoCompatibleBackend must have been predicted:\n{report}"
            ),
            Err(CoreError::ShotBudgetTooSmall { .. }) => prop_assert!(
                report.diagnostics().iter().any(|d| d.code == "QL0302"),
                "runtime ShotBudgetTooSmall must have been predicted:\n{report}"
            ),
            _ => {}
        }
        if report.errors() == 0 {
            prop_assert!(
                !matches!(
                    outcome,
                    Err(CoreError::NoCompatibleBackend { .. })
                        | Err(CoreError::ShotBudgetTooSmall { .. })
                ),
                "clean report but predictable runtime failure: {outcome:?}"
            );
        }
    }
}

// ---- seeded defects: each Error-severity lint fires on its own defect ----

fn codes(report: &AnalysisReport) -> Vec<&'static str> {
    report.diagnostics().iter().map(|d| d.code).collect()
}

#[test]
fn seeded_defect_unparseable_qasm_fires_ql0101_with_position() {
    let (circuit, report) = analyze_qasm("OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n");
    assert!(circuit.is_none());
    assert!(codes(&report).contains(&"QL0101"), "{report}");
    assert_eq!(report.errors(), 1);
    let rendered = report.to_string();
    assert!(rendered.contains("line 3"), "position must be reported: {rendered}");
}

#[test]
fn seeded_defect_reuse_plan_on_a_no_mid_circuit_fleet_fires_ql0105() {
    let mut chain = Circuit::new(6);
    chain.h(0);
    for q in 0..5 {
        chain.cx(q, q + 1);
    }
    let pipeline = plan(&chain, 3);
    let mut fleet = DeviceRegistry::new();
    let strict = Device::new(DeviceConfig::ideal(6).without_mid_circuit().with_seed(3));
    fleet.register("strict", ShotsBackend::new(strict, 256));
    let report = pipeline.analyze_with_fleet(&fleet);
    assert!(codes(&report).contains(&"QL0105"), "{report}");
    assert!(report.errors() > 0);
}

#[test]
fn seeded_defect_too_narrow_fleet_fires_ql0301_and_the_gate_blocks_it() {
    let mut chain = Circuit::new(6);
    chain.h(0);
    for q in 0..5 {
        chain.cx(q, q + 1);
    }
    let pipeline = plan(&chain, 3);
    let mut fleet = DeviceRegistry::new();
    // qubit reuse can shrink fragments to 2 physical qubits, but never below
    // the width of a CX — a 1-qubit backend can run nothing here
    fleet.register("tiny", ExactBackend::capped(1));
    let report = pipeline.analyze_with_fleet(&fleet);
    assert!(codes(&report).contains(&"QL0301"), "{report}");

    // the default (Warn) gate refuses the fleet before any execution
    let gated = pipeline.preflight(&fleet);
    assert!(
        matches!(gated, Err(CoreError::AnalysisFailed { errors, .. }) if errors > 0),
        "{gated:?}"
    );

    // and the runtime agrees with the prediction
    let scheduler = Scheduler::new(&fleet, SchedulePolicy::default());
    let outcome = pipeline.execute_streaming(&scheduler);
    assert!(outcome.is_err(), "a 1-qubit fleet cannot run the plan");
}

#[test]
fn seeded_defect_starved_shot_budget_fires_ql0302_and_matches_runtime() {
    let mut chain = Circuit::new(6);
    chain.h(0);
    for q in 0..5 {
        chain.cx(q, q + 1);
    }
    let config = QrccConfig::new(3).with_ilp_time_limit(Duration::ZERO).with_shot_budget(3);
    let pipeline = QrccPipeline::plan(&chain, config.clone()).unwrap();
    let fleet = unbounded_fleet();
    let report = pipeline.analyze_with_fleet(&fleet);
    assert!(codes(&report).contains(&"QL0302"), "{report}");
    assert!(report.errors() > 0);

    let scheduler = Scheduler::new(&fleet, config.schedule);
    let outcome = pipeline.execute_streaming(&scheduler);
    assert!(
        matches!(outcome, Err(CoreError::ShotBudgetTooSmall { .. })),
        "the runtime must agree with the prediction: {outcome:?}"
    );
}

#[test]
fn seeded_defect_empty_fleet_fires_ql0304() {
    let mut chain = Circuit::new(4);
    chain.h(0);
    for q in 0..3 {
        chain.cx(q, q + 1);
    }
    let pipeline = plan(&chain, 3);
    let report = pipeline.analyze_with_fleet(&DeviceRegistry::new());
    assert!(codes(&report).contains(&"QL0304"), "{report}");
    assert!(report.errors() > 0);
}

#[test]
fn seeded_defect_dangling_cuts_fire_ql0201_and_ql0202() {
    use qrcc::core::analyze::{AnalysisContext, Analyzer};
    let mut chain = Circuit::new(6);
    chain.h(0);
    for q in 0..5 {
        chain.cx(q, q + 1).rzz(0.3, q, q + 1);
    }
    let config = QrccConfig::new(3)
        .with_gate_cuts(true)
        .with_max_gate_cuts(2)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&chain, config).unwrap();

    // sever one wire-cut producer (and any gate-cut role) from fragment 0:
    // the analyzer must flag the now-unbalanced cut pairs as errors
    let mut broken = pipeline.fragments().clone();
    let had_wire = !broken.fragments[0].outgoing_cuts.is_empty();
    let had_gate = broken.fragments.iter().any(|f| !f.gate_cut_roles.is_empty());
    broken.fragments[0].outgoing_cuts.clear();
    for fragment in &mut broken.fragments {
        fragment.gate_cut_roles.truncate(fragment.gate_cut_roles.len().saturating_sub(1));
    }
    let report = Analyzer::new().run(&AnalysisContext::new().with_fragments(&broken));
    if had_wire {
        assert!(codes(&report).contains(&"QL0201"), "{report}");
    }
    if had_gate {
        assert!(codes(&report).contains(&"QL0202"), "{report}");
    }
    assert!(report.errors() > 0, "{report}");
}

/// The severity gate orders strictly: Allow passes everything, Warn fails
/// errors, Deny also fails warnings.
#[test]
fn lint_levels_gate_progressively() {
    let mut chain = Circuit::new(6);
    chain.h(0);
    for q in 0..5 {
        chain.cx(q, q + 1);
    }
    // fragments fit the (absent) fleet but exceed config.device_size → a
    // Warning-severity QL0203, no errors
    let mut config = QrccConfig::new(3).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&chain, config.clone()).unwrap();
    let mut shrunk = pipeline.fragments().clone();
    for fragment in &mut shrunk.fragments {
        fragment.num_physical = fragment.num_physical.max(4);
    }
    config.device_size = 3;
    let report = qrcc::core::analyze::Analyzer::new().run(
        &qrcc::core::analyze::AnalysisContext::new().with_fragments(&shrunk).with_config(&config),
    );
    assert!(report.errors() == 0 && report.warnings() > 0, "{report}");
    assert!(report.gate(LintLevel::Allow).is_ok());
    assert!(report.gate(LintLevel::Warn).is_ok());
    assert!(report.gate(LintLevel::Deny).is_err());
}
