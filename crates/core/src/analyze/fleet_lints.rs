//! Fleet/schedule lints (`QL03xx`): statically predicting the runtime
//! failures of the [`schedule`](crate::schedule) layer —
//! [`CoreError::NoCompatibleBackend`](crate::CoreError) and
//! [`CoreError::ShotBudgetTooSmall`](crate::CoreError) — before any backend
//! is contacted.

use super::{AnalysisContext, AnalysisReport, Diagnostic, Lint, Location};
use crate::execute::prepare_batch;
use crate::fragment::{FragmentSet, FragmentVariant, VariantRequest};
use crate::reconstruct::{expectation_variants, probability_variants};
use qrcc_circuit::observable::{Pauli, PauliString};

/// `QL0304`: the device registry is empty — every routing decision fails
/// immediately.
pub struct EmptyFleet;

impl Lint for EmptyFleet {
    fn code(&self) -> &'static str {
        "QL0304"
    }

    fn description(&self) -> &'static str {
        "an empty device registry"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(scheduler) = ctx.fleet else { return };
        if scheduler.registry().is_empty() {
            report.push(
                Diagnostic::error(
                    "QL0304",
                    Location::Circuit,
                    "the device registry is empty: nothing can be scheduled",
                )
                .with_suggestion("register at least one backend before scheduling"),
            );
        }
    }
}

/// Per-fragment cap on how many variant circuits [`PredictedPlacement`]
/// instantiates. Every built-in backend's `can_run` depends only on the
/// circuit's width and its use of mid-circuit operations — both constant
/// across a fragment's variants — so checking a prefix is exhaustive in
/// practice; a capped fragment still gets a note for honesty.
const VARIANT_CHECK_CAP: u64 = 512;

/// The variant circuits the execution phase would instantiate for
/// `fragment`: the probability enumeration for wire-cut-only plans, the
/// all-Z expectation enumeration when gate cuts are present.
fn variant_circuits<'a>(
    fragments: &'a FragmentSet,
    fragment: &'a crate::fragment::Fragment,
    all_z: &PauliString,
) -> Box<dyn Iterator<Item = FragmentVariant> + 'a> {
    if fragments.num_gate_cuts() == 0 {
        Box::new(probability_variants(fragment))
    } else {
        Box::new(expectation_variants(fragment, all_z))
    }
}

/// `QL0301`: a statically-predicted
/// [`CoreError::NoCompatibleBackend`](crate::CoreError): some variant
/// circuit of a fragment cannot be placed on any registered backend.
pub struct PredictedPlacement;

impl Lint for PredictedPlacement {
    fn code(&self) -> &'static str {
        "QL0301"
    }

    fn description(&self) -> &'static str {
        "fragment variants no registered backend can run"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let (Some(fragments), Some(scheduler)) = (ctx.fragments, ctx.fleet) else { return };
        let fleet = scheduler.registry();
        if fleet.is_empty() {
            return; // QL0304 owns the empty-fleet finding
        }
        let all_z = PauliString::from_paulis(vec![Pauli::Z; fragments.original_qubits]);
        for fragment in &fragments.fragments {
            if fragment.num_clbits == 0 {
                continue; // never executed: its distribution is trivially [1.0]
            }
            let mut capped = false;
            for (checked, variant) in variant_circuits(fragments, fragment, &all_z).enumerate() {
                if checked as u64 >= VARIANT_CHECK_CAP {
                    capped = true;
                    break;
                }
                let circuit = fragment.instantiate(&variant);
                let placeable =
                    fleet.entries().iter().any(|entry| entry.backend().can_run(&circuit));
                if placeable {
                    continue;
                }
                let width = circuit.num_qubits();
                let width_fits_somewhere = fleet
                    .entries()
                    .iter()
                    .any(|entry| entry.max_qubits().is_none_or(|max| width <= max));
                let (cause, suggestion) = if width_fits_somewhere {
                    (
                        "a required capability (mid-circuit measurement/reset) is missing",
                        "register a backend with mid-circuit support, or replan with \
                         QrccConfig::with_qubit_reuse(false)"
                            .to_string(),
                    )
                } else {
                    (
                        "every backend is too small",
                        format!(
                            "register a backend with at least {width} qubits or replan with a \
                             smaller device_size"
                        ),
                    )
                };
                report.push(
                    Diagnostic::error(
                        "QL0301",
                        Location::Fragment(fragment.index),
                        format!(
                            "no backend of the {}-backend fleet can run a {width}-qubit variant \
                             of fragment {}: {cause}",
                            fleet.len(),
                            fragment.index
                        ),
                    )
                    .with_suggestion(suggestion),
                );
                break; // one finding per fragment
            }
            if capped {
                report.push(Diagnostic::note(
                    "QL0301",
                    Location::Fragment(fragment.index),
                    format!(
                        "fragment {} enumerates {} variants; placement was checked for the \
                         first {VARIANT_CHECK_CAP} (width and capabilities do not vary across \
                         variants for the built-in backends)",
                        fragment.index,
                        fragment.variant_count()
                    ),
                ));
            }
        }
    }
}

/// The number of deduplicated circuits the scheduler would allocate shots
/// over, mirroring its exact pipeline:
/// enumerate → [`prepare_batch`] structural dedup.
fn deduplicated_circuit_count(fragments: &FragmentSet, requests: &[VariantRequest]) -> usize {
    prepare_batch(fragments, requests).map_or(0, |batch| batch.circuits.len())
}

/// `QL0302`: a statically-predicted
/// [`CoreError::ShotBudgetTooSmall`](crate::CoreError): the scheduler's
/// budget cannot give every deduplicated circuit its minimum shots.
///
/// For wire-cut-only plans the lint replays the scheduler's exact
/// probability-workload pipeline (same enumeration, same structural dedup),
/// so the finding is an **error**: the run is guaranteed to fail. Gate-cut
/// plans execute observable-dependent variants, so the lint checks a lower
/// bound (one default variant per executing fragment) and reports a
/// **warning**.
pub struct PredictedShotBudget;

impl Lint for PredictedShotBudget {
    fn code(&self) -> &'static str {
        "QL0302"
    }

    fn description(&self) -> &'static str {
        "shot budgets below the scheduled batch minimum"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let (Some(fragments), Some(scheduler)) = (ctx.fragments, ctx.fleet) else { return };
        let policy = scheduler.policy();
        let Some(budget) = policy.shot_budget else { return };
        let min_shots = policy.min_shots.max(1);
        let executing = || fragments.fragments.iter().filter(|f| f.num_clbits > 0);

        if fragments.num_gate_cuts() == 0 {
            // exact replay of the probability workload's batch
            let requests: Vec<VariantRequest> = executing()
                .flat_map(|fragment| {
                    probability_variants(fragment)
                        .map(|variant| VariantRequest::new(fragment.index, variant))
                })
                .collect();
            let circuits = deduplicated_circuit_count(fragments, &requests) as u64;
            let needed = circuits * min_shots;
            if circuits > 0 && budget < needed {
                report.push(
                    Diagnostic::error(
                        "QL0302",
                        Location::Circuit,
                        format!(
                            "shot budget {budget} is below the scheduled batch minimum of \
                             {needed} ({circuits} deduplicated circuit(s) × {min_shots} \
                             min_shots)"
                        ),
                    )
                    .with_suggestion(format!(
                        "raise the budget to at least {needed} or lower min_shots"
                    )),
                );
            }
        } else {
            // lower bound: every expectation batch holds at least one circuit
            // per executing fragment (before cross-fragment collisions)
            let requests: Vec<VariantRequest> = executing()
                .map(|fragment| VariantRequest::new(fragment.index, fragment.default_variant()))
                .collect();
            let circuits = deduplicated_circuit_count(fragments, &requests) as u64;
            let needed = circuits * min_shots;
            if circuits > 0 && budget < needed {
                report.push(
                    Diagnostic::warning(
                        "QL0302",
                        Location::Circuit,
                        format!(
                            "shot budget {budget} is below the batch lower bound of {needed} \
                             (≥{circuits} deduplicated circuit(s) × {min_shots} min_shots for \
                             any observable)"
                        ),
                    )
                    .with_suggestion(format!(
                        "raise the budget to at least {needed} or lower min_shots"
                    )),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AnalysisContext, Analyzer, LintLevel, Severity};
    use crate::pipeline::{ExactBackend, QrccPipeline};
    use crate::schedule::{DeviceRegistry, SchedulePolicy, Scheduler};
    use crate::{CoreError, QrccConfig};
    use qrcc_circuit::Circuit;
    use std::time::Duration;

    fn chain(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.ry(0.3 + q as f64 * 0.1, q + 1);
        }
        c
    }

    fn config(d: usize) -> QrccConfig {
        QrccConfig::new(d).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
    }

    #[test]
    fn an_empty_fleet_is_an_error() {
        let fleet = DeviceRegistry::new();
        let scheduler = Scheduler::new(&fleet, SchedulePolicy::default());
        let report = Analyzer::new().run(&AnalysisContext::new().with_fleet(&scheduler));
        let d = report.diagnostics().iter().find(|d| d.code == "QL0304").expect("fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(report.gate(LintLevel::Warn).is_err());
    }

    #[test]
    fn a_too_small_fleet_predicts_no_compatible_backend() {
        let pipeline = QrccPipeline::plan(&chain(6), config(4)).unwrap();
        let mut fleet = DeviceRegistry::new();
        // qubit reuse can shrink fragments to 2 physical qubits, but never
        // below the width of a CX — a 1-qubit backend can run nothing here
        fleet.register("tiny", ExactBackend::capped(1));
        let scheduler = Scheduler::new(&fleet, SchedulePolicy::default());
        let ctx =
            AnalysisContext::new().with_fragments(pipeline.fragments()).with_fleet(&scheduler);
        let report = Analyzer::new().run(&ctx);
        let d = report.diagnostics().iter().find(|d| d.code == "QL0301").expect("fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("too small"), "{d}");

        // ... and the runtime agrees
        let err = pipeline.execute_streaming(&scheduler).unwrap_err();
        assert!(
            matches!(err, CoreError::NoCompatibleBackend { .. })
                || matches!(err, CoreError::RetriesExhausted { .. }),
            "{err}"
        );
    }

    #[test]
    fn an_adequate_fleet_is_clean() {
        let pipeline = QrccPipeline::plan(&chain(6), config(4)).unwrap();
        let mut fleet = DeviceRegistry::new();
        fleet.register("roomy", ExactBackend::new());
        let scheduler = Scheduler::new(&fleet, SchedulePolicy::default());
        let ctx =
            AnalysisContext::new().with_fragments(pipeline.fragments()).with_fleet(&scheduler);
        let report = Analyzer::new().run(&ctx);
        assert!(
            report.diagnostics().iter().all(|d| d.code != "QL0301" || d.severity < Severity::Error),
            "{report}"
        );
    }

    #[test]
    fn a_starved_budget_predicts_shot_budget_too_small_exactly() {
        let pipeline = QrccPipeline::plan(&chain(6), config(4)).unwrap();
        let mut fleet = DeviceRegistry::new();
        fleet.register("exact", ExactBackend::new());
        let starved = Scheduler::new(&fleet, SchedulePolicy::with_budget(3));
        let ctx = AnalysisContext::new().with_fragments(pipeline.fragments()).with_fleet(&starved);
        let report = Analyzer::new().run(&ctx);
        let d = report.diagnostics().iter().find(|d| d.code == "QL0302").expect("fires");
        assert_eq!(d.severity, Severity::Error);

        // the runtime fails with exactly the predicted error
        let err = pipeline.execute_streaming(&starved).unwrap_err();
        assert!(matches!(err, CoreError::ShotBudgetTooSmall { .. }), "{err}");

        // a generous budget analyzes clean
        let generous = Scheduler::new(&fleet, SchedulePolicy::with_budget(1_000_000));
        let ctx = AnalysisContext::new().with_fragments(pipeline.fragments()).with_fleet(&generous);
        let report = Analyzer::new().run(&ctx);
        assert!(report.diagnostics().iter().all(|d| d.code != "QL0302"), "{report}");
    }
}
