//! Wire-level pre-flight lints: check a cut plan against a remote worker's
//! handshake-advertised [`Capabilities`] before anything is submitted.
//!
//! The in-process fleet lints (`QL0301`/`QL0302` in [`qrcc_core::analyze`])
//! reason over live [`ExecutionBackend`](qrcc_core::execute::ExecutionBackend)
//! values; a remote fleet often knows only what the handshake advertised.
//! [`lint_capabilities`] bridges that gap: it replays the same
//! width-and-mid-circuit feasibility reasoning — exactly the refinements
//! [`RemoteBackend::can_run`](crate::RemoteBackend) mirrors at run time —
//! against the [`Capabilities`] frame alone, emitting `QL0303` diagnostics,
//! so a fleet operator can reject a plan-to-worker pairing *before* dialling
//! a single batch.

use crate::proto::Capabilities;
use qrcc_core::analyze::{AnalysisReport, Diagnostic, Location};
use qrcc_core::fragment::FragmentSet;
use qrcc_sim::device::needs_mid_circuit;

/// Checks every fragment of `fragments` against a remote worker's
/// `capabilities`, reporting one `QL0303` **Error** per incompatible
/// fragment: a default-variant instantiation wider than the worker's
/// advertised `max_qubits`, or one needing mid-circuit measurement/reset on
/// a worker that does not support it.
///
/// An empty report means the worker can in principle run every fragment.
/// This is a *capability* check only — shot budgets and placement across a
/// whole fleet remain with the in-process `QL0301`/`QL0302` lints.
#[must_use]
pub fn lint_capabilities(capabilities: &Capabilities, fragments: &FragmentSet) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    for fragment in &fragments.fragments {
        let circuit = fragment.instantiate(0, 0);
        let width = circuit.num_qubits() as u64;
        if capabilities.max_qubits.is_some_and(|max| width > max) {
            let max = capabilities.max_qubits.unwrap_or(0);
            report.push(
                Diagnostic::error(
                    "QL0303",
                    Location::Fragment(fragment.index),
                    format!(
                        "fragment {} runs {width}-qubit variants but worker '{}' advertises \
                         at most {max} qubits",
                        fragment.index, capabilities.label
                    ),
                )
                .with_suggestion(
                    "cut deeper (smaller device_size) or route this fragment to a wider worker",
                ),
            );
            continue;
        }
        if !capabilities.supports_mid_circuit && needs_mid_circuit(&circuit) {
            report.push(
                Diagnostic::error(
                    "QL0303",
                    Location::Fragment(fragment.index),
                    format!(
                        "fragment {} reuses qubits (mid-circuit measurement/reset) but worker \
                         '{}' does not support mid-circuit operations",
                        fragment.index, capabilities.label
                    ),
                )
                .with_suggestion(
                    "replan without qubit reuse or route this fragment to a \
                     mid-circuit-capable worker",
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrcc_circuit::Circuit;
    use qrcc_core::QrccConfig;

    fn capabilities(max_qubits: Option<u64>, supports_mid_circuit: bool) -> Capabilities {
        Capabilities {
            max_qubits,
            shots_per_circuit: None,
            supports_mid_circuit,
            label: "test-worker".into(),
        }
    }

    fn planned_fragments(device_size: usize) -> FragmentSet {
        let mut chain = Circuit::new(6);
        for q in 0..5 {
            chain.h(q).cx(q, q + 1);
        }
        let pipeline =
            qrcc_core::pipeline::QrccPipeline::plan(&chain, QrccConfig::new(device_size)).unwrap();
        pipeline.fragments().clone()
    }

    #[test]
    fn a_wide_enough_worker_lints_clean() {
        let fragments = planned_fragments(3);
        let report = lint_capabilities(&capabilities(Some(3), true), &fragments);
        assert!(report.is_clean(), "{report}");
        let unbounded = lint_capabilities(&capabilities(None, true), &fragments);
        assert!(unbounded.is_clean(), "{unbounded}");
    }

    #[test]
    fn a_too_narrow_worker_fires_ql0303_per_fragment() {
        let fragments = planned_fragments(3);
        let report = lint_capabilities(&capabilities(Some(1), true), &fragments);
        assert!(report.errors() > 0, "{report}");
        assert!(report.diagnostics().iter().all(|d| d.code == "QL0303"));
        assert!(report.to_string().contains("test-worker"), "{report}");
    }

    #[test]
    fn a_reuse_plan_on_a_no_mid_circuit_worker_fires_ql0303() {
        let fragments = planned_fragments(3);
        let reuses = fragments
            .fragments
            .iter()
            .any(|fragment| needs_mid_circuit(&fragment.instantiate(0, 0)));
        assert!(reuses, "the cut chain plan is expected to exercise qubit reuse");
        let report = lint_capabilities(&capabilities(None, false), &fragments);
        assert!(report.errors() > 0, "{report}");
        assert!(report.to_string().contains("mid-circuit"), "{report}");
    }
}
