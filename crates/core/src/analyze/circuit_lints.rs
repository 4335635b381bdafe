//! Circuit lints (`QL01xx`): findings derivable from the original circuit
//! alone (plus, for `QL0105`, the fleet's capability surface).

use super::{AnalysisContext, AnalysisReport, Diagnostic, Lint, Location};
use qrcc_circuit::{Circuit, Operation};

/// `QL0102`: qubits declared but never touched by any operation.
///
/// Dead qubits inflate the declared width — the planner sizes fragments and
/// rejects device sizes against `num_qubits`, so an untouched wire can force
/// unnecessary cuts or spurious [`InvalidDeviceSize`](crate::CoreError)
/// rejections.
pub struct DeadQubits;

impl Lint for DeadQubits {
    fn code(&self) -> &'static str {
        "QL0102"
    }

    fn description(&self) -> &'static str {
        "qubits declared but never used by any operation"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(circuit) = ctx.circuit else { return };
        let dead = circuit.num_qubits() - circuit.active_qubit_count();
        if dead == 0 {
            return;
        }
        let active = circuit.active_qubits();
        let first_dead = (0..circuit.num_qubits())
            .find(|&q| !active.iter().any(|id| id.index() == q))
            .unwrap_or(0);
        report.push(
            Diagnostic::warning(
                "QL0102",
                Location::Qubit(first_dead),
                format!(
                    "{dead} of {} declared qubit(s) are never used by any operation",
                    circuit.num_qubits()
                ),
            )
            .with_suggestion("declare only the qubits the circuit acts on"),
        );
    }
}

/// `QL0103`: a measurement of a qubit no gate has touched yet — its outcome
/// is deterministically 0, which usually means a mis-indexed operand.
pub struct MeasureBeforeUse;

impl Lint for MeasureBeforeUse {
    fn code(&self) -> &'static str {
        "QL0103"
    }

    fn description(&self) -> &'static str {
        "measurement of a qubit before any gate touches it"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(circuit) = ctx.circuit else { return };
        let mut touched = vec![false; circuit.num_qubits()];
        for (index, op) in circuit.operations().iter().enumerate() {
            match op {
                Operation::Single { qubit, .. } => touched[qubit.index()] = true,
                Operation::Two { qubits, .. } => {
                    touched[qubits[0].index()] = true;
                    touched[qubits[1].index()] = true;
                }
                Operation::Measure { qubit, .. } => {
                    let q = qubit.index();
                    if !touched[q] {
                        report.push(
                            Diagnostic::warning(
                                "QL0103",
                                Location::Gate(index),
                                format!(
                                    "qubit {q} is measured before any gate touches it \
                                     (the outcome is deterministically 0)"
                                ),
                            )
                            .with_suggestion("check the measurement's qubit operand"),
                        );
                        // one finding per qubit is enough
                        touched[q] = true;
                    }
                }
                Operation::Reset { .. } | Operation::Barrier { .. } => {}
            }
        }
    }
}

/// `QL0104`: classical-register hygiene — a classical bit written by two
/// measurements (the first outcome is lost) or declared but never written
/// (always reads 0).
pub struct ClassicalRegisterUsage;

impl Lint for ClassicalRegisterUsage {
    fn code(&self) -> &'static str {
        "QL0104"
    }

    fn description(&self) -> &'static str {
        "classical bits overwritten by a second measurement or never written"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(circuit) = ctx.circuit else { return };
        if circuit.num_clbits() == 0 {
            return;
        }
        let mut writes = vec![0usize; circuit.num_clbits()];
        for (index, op) in circuit.operations().iter().enumerate() {
            if let Operation::Measure { clbit, .. } = op {
                writes[*clbit] += 1;
                if writes[*clbit] == 2 {
                    report.push(
                        Diagnostic::warning(
                            "QL0104",
                            Location::Gate(index),
                            format!(
                                "classical bit {clbit} is written by a second measurement \
                                 (the earlier outcome is lost)"
                            ),
                        )
                        .with_suggestion("measure into a distinct classical bit"),
                    );
                }
            }
        }
        if let Some(unwritten) = writes.iter().position(|&w| w == 0) {
            let count = writes.iter().filter(|&&w| w == 0).count();
            report.push(Diagnostic::note(
                "QL0104",
                Location::Clbit(unwritten),
                format!("{count} declared classical bit(s) are never written and always read 0"),
            ));
        }
    }
}

/// `QL0105`: the circuit (or its cut fragments) needs mid-circuit
/// measurement/reset — the signature of qubit reuse — but no backend of the
/// fleet supports that capability, so every dispatch attempt is doomed.
pub struct ReuseCapability;

/// A 1-qubit measure-reset-measure probe: exactly the capability qubit reuse
/// needs, kept minimal so width never interferes with the check.
fn mid_circuit_probe() -> Circuit {
    let mut probe = Circuit::with_clbits(1, 2);
    probe.h(0);
    probe.measure(0, 0);
    probe.reset(0);
    probe.h(0);
    probe.measure(0, 1);
    probe
}

impl Lint for ReuseCapability {
    fn code(&self) -> &'static str {
        "QL0105"
    }

    fn description(&self) -> &'static str {
        "qubit-reuse circuits on a fleet without mid-circuit measurement"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(fleet) = ctx.fleet.map(|scheduler| scheduler.registry()) else { return };
        if fleet.is_empty() {
            // QL0304 owns the empty-fleet finding
            return;
        }
        // Does anything we would execute need mid-circuit operations? Prefer
        // the instantiated fragments (what actually runs) over the original
        // circuit.
        let needs = match ctx.fragments {
            Some(fragments) => fragments
                .fragments
                .iter()
                .any(|fragment| qrcc_sim::device::needs_mid_circuit(&fragment.instantiate(0, 0))),
            None => match ctx.circuit {
                Some(circuit) => qrcc_sim::device::needs_mid_circuit(circuit),
                None => false,
            },
        };
        if !needs {
            return;
        }
        let probe = mid_circuit_probe();
        if fleet.entries().iter().any(|entry| entry.backend().can_run(&probe)) {
            return;
        }
        report.push(
            Diagnostic::error(
                "QL0105",
                Location::Circuit,
                format!(
                    "the circuit relies on mid-circuit measurement/reset (qubit reuse) but none \
                     of the {} registered backend(s) supports it",
                    fleet.len()
                ),
            )
            .with_suggestion(
                "register a backend with mid-circuit support, or replan with \
                 QrccConfig::with_qubit_reuse(false)",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AnalysisContext, Analyzer, Severity};
    use crate::schedule::{DeviceRegistry, SchedulePolicy, Scheduler};
    use qrcc_circuit::Circuit;
    use qrcc_sim::device::{Device, DeviceConfig};

    fn run(circuit: &Circuit) -> super::super::AnalysisReport {
        Analyzer::new().run(&AnalysisContext::new().with_circuit(circuit))
    }

    #[test]
    fn dead_qubits_warn_once_with_the_first_dead_index() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 2); // qubits 1 and 3 unused
        let report = run(&c);
        let d = report.diagnostics().iter().find(|d| d.code == "QL0102").expect("fires");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.location, super::super::Location::Qubit(1));
        assert!(d.message.contains("2 of 4"));
    }

    #[test]
    fn measure_before_use_flags_untouched_qubits_only() {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0);
        c.measure(0, 0); // fine: h touched qubit 0
        c.measure(1, 1); // qubit 1 untouched
        let report = run(&c);
        let hits: Vec<_> = report.diagnostics().iter().filter(|d| d.code == "QL0103").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].location, super::super::Location::Gate(2));
    }

    #[test]
    fn classical_register_overwrite_and_unwritten_bits() {
        let mut c = Circuit::with_clbits(2, 3);
        c.h(0).h(1);
        c.measure(0, 0);
        c.measure(1, 0); // overwrites bit 0; bits 1 and 2 never written
        let report = run(&c);
        let hits: Vec<_> = report.diagnostics().iter().filter(|d| d.code == "QL0104").collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].severity, Severity::Warning);
        assert_eq!(hits[1].severity, Severity::Note);
        assert!(hits[1].message.contains("2 declared classical bit(s)"));
    }

    #[test]
    fn reuse_on_a_fleet_without_mid_circuit_support_errors() {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0);
        c.measure(0, 0);
        c.reset(0);
        c.cx(1, 0);
        c.measure(0, 1);
        assert!(qrcc_sim::device::needs_mid_circuit(&c));

        let mut no_reuse = DeviceRegistry::new();
        no_reuse.register_device(
            "rigid",
            Device::new(DeviceConfig::ideal(4).without_mid_circuit()),
            4096,
        );
        let scheduler = Scheduler::new(&no_reuse, SchedulePolicy::default());
        let report =
            Analyzer::new().run(&AnalysisContext::new().with_circuit(&c).with_fleet(&scheduler));
        assert!(report.diagnostics().iter().any(|d| d.code == "QL0105"));

        let mut capable = DeviceRegistry::new();
        capable.register_device("reuse-ok", Device::new(DeviceConfig::ideal(4)), 4096);
        let scheduler = Scheduler::new(&capable, SchedulePolicy::default());
        let report =
            Analyzer::new().run(&AnalysisContext::new().with_circuit(&c).with_fleet(&scheduler));
        assert!(report.diagnostics().iter().all(|d| d.code != "QL0105"));
    }

    #[test]
    fn a_clean_circuit_reports_nothing() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let report = run(&c);
        assert!(report.diagnostics().is_empty(), "{report}");
    }
}
