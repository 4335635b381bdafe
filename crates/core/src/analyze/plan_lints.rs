//! Cut-plan lints (`QL02xx`): findings derivable from a
//! [`FragmentSet`](crate::fragment::FragmentSet) (plus the configuration for
//! strategy/pruning checks and the fleet for width checks).

use super::{AnalysisContext, AnalysisReport, Diagnostic, Lint, Location};
use crate::reconstruct::cost::{fre_log2_flops, frp_log2_flops, fss_threshold_log2};
use crate::reconstruct::{
    resolve_strategy, ReconstructionOptions, ReconstructionStrategy, Workload, MAX_DENSE_CUTS,
};
use crate::CoreError;

/// `QL0201`: a wire cut whose upstream (measurement) or downstream
/// (initialisation) side lands in no fragment — the attribution loop would
/// sum over a leg nobody produces, so reconstruction is structurally broken.
pub struct DanglingWireCut;

impl Lint for DanglingWireCut {
    fn code(&self) -> &'static str {
        "QL0201"
    }

    fn description(&self) -> &'static str {
        "wire cuts with a missing upstream or downstream fragment"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(fragments) = ctx.fragments else { return };
        for (cut, (upstream, downstream)) in fragments.wire_cut_endpoints().iter().enumerate() {
            let missing = match (upstream, downstream) {
                (None, None) => "upstream and downstream fragments",
                (None, Some(_)) => "upstream (measurement) fragment",
                (Some(_), None) => "downstream (initialisation) fragment",
                (Some(_), Some(_)) => continue,
            };
            report.push(
                Diagnostic::error(
                    "QL0201",
                    Location::WireCut(cut),
                    format!("wire cut {cut} has no {missing}"),
                )
                .with_suggestion("rebuild the fragment set from a validated cut plan"),
            );
        }
    }
}

/// `QL0202`: a gate cut with an incomplete endpoint set — both halves of the
/// six-instance decomposition must land in (possibly the same) fragments.
pub struct IncompleteGateCut;

impl Lint for IncompleteGateCut {
    fn code(&self) -> &'static str {
        "QL0202"
    }

    fn description(&self) -> &'static str {
        "gate cuts with a missing control or target half"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(fragments) = ctx.fragments else { return };
        for (cut, (control, target)) in fragments.gate_cut_endpoints().iter().enumerate() {
            let missing = match (control, target) {
                (None, None) => "both halves",
                (None, Some(_)) => "control half",
                (Some(_), None) => "target half",
                (Some(_), Some(_)) => continue,
            };
            report.push(
                Diagnostic::error(
                    "QL0202",
                    Location::GateCut(cut),
                    format!("gate cut {cut} hosts {missing} in no fragment"),
                )
                .with_suggestion("rebuild the fragment set from a validated cut plan"),
            );
        }
    }
}

/// `QL0203`: a fragment wider than anything that could run it — wider than
/// every registered backend (error), or wider than the planned
/// `device_size` when no fleet is given (warning: the planner should never
/// produce this, so the plan was likely hand-edited).
pub struct FragmentWidth;

impl Lint for FragmentWidth {
    fn code(&self) -> &'static str {
        "QL0203"
    }

    fn description(&self) -> &'static str {
        "fragments wider than every backend (or the planned device size)"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(fragments) = ctx.fragments else { return };
        for fragment in &fragments.fragments {
            let width = fragment.num_physical;
            if let Some(fleet) = ctx.fleet.map(|scheduler| scheduler.registry()) {
                if fleet.is_empty() {
                    continue; // QL0304 owns the empty-fleet finding
                }
                let fits_somewhere = fleet
                    .entries()
                    .iter()
                    .any(|entry| entry.max_qubits().is_none_or(|max| width <= max));
                if !fits_somewhere {
                    let widest =
                        fleet.entries().iter().filter_map(|e| e.max_qubits()).max().unwrap_or(0);
                    report.push(
                        Diagnostic::error(
                            "QL0203",
                            Location::Fragment(fragment.index),
                            format!(
                                "fragment {} needs {width} qubits but the widest of the {} \
                                 registered backend(s) offers {widest}",
                                fragment.index,
                                fleet.len()
                            ),
                        )
                        .with_suggestion(format!(
                            "register a backend with at least {width} qubits or replan with a \
                             smaller device_size"
                        )),
                    );
                }
            } else if let Some(config) = ctx.config {
                if width > config.device_size {
                    report.push(
                        Diagnostic::warning(
                            "QL0203",
                            Location::Fragment(fragment.index),
                            format!(
                                "fragment {} needs {width} qubits but the plan targets a \
                                 {}-qubit device",
                                fragment.index, config.device_size
                            ),
                        )
                        .with_suggestion("replan instead of editing fragments by hand"),
                    );
                }
            }
        }
    }
}

/// `QL0204`: the configured reconstruction strategy cannot handle the plan's
/// cut structure — the run would end in [`CoreError::TooManyCuts`] after
/// paying for every shot.
pub struct InfeasibleStrategy;

impl Lint for InfeasibleStrategy {
    fn code(&self) -> &'static str {
        "QL0204"
    }

    fn description(&self) -> &'static str {
        "cut plans the configured reconstruction strategy cannot contract"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(fragments) = ctx.fragments else { return };
        let options = ctx.config.map(ReconstructionOptions::from_config).unwrap_or_default();
        let workload = if fragments.num_gate_cuts() > 0 {
            Workload::Expectation
        } else {
            Workload::Probability
        };
        if let Err(CoreError::TooManyCuts { cuts, limit }) =
            resolve_strategy(fragments, &options, workload)
        {
            let suggestion = if options.strategy == ReconstructionStrategy::Dense {
                "switch to ReconstructionStrategy::Contract (or Auto), which caps legs per \
                 pairwise merge instead of total cuts"
                    .to_string()
            } else {
                format!(
                    "replan with fewer cuts: even the greedy contraction needs more than \
                     {MAX_DENSE_CUTS} legs in one merge"
                )
            };
            report.push(
                Diagnostic::error(
                    "QL0204",
                    Location::Circuit,
                    format!(
                        "the plan's {cuts} cut(s) exceed what the configured reconstruction \
                         strategy supports (limit {limit})"
                    ),
                )
                .with_suggestion(suggestion),
            );
        }
    }
}

/// `QL0205`: a-priori sampling/post-processing overhead — the exponential
/// cost the cut count commits the run to, compared against the paper's
/// full-state-simulation threshold.
pub struct SamplingOverhead;

impl Lint for SamplingOverhead {
    fn code(&self) -> &'static str {
        "QL0205"
    }

    fn description(&self) -> &'static str {
        "a-priori sampling and reconstruction overhead of the cut count"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(fragments) = ctx.fragments else { return };
        let wire = fragments.num_wire_cuts();
        let gate = fragments.num_gate_cuts();
        if wire + gate == 0 {
            return;
        }
        // the paper's FRP/FRE models: 4^wire (·6^gate via the √6-per-gate-cut
        // effective count) attribution components
        let log2_flops = if gate > 0 {
            fre_log2_flops(wire as f64 + gate as f64 * 6f64.log2() / 2.0)
        } else {
            frp_log2_flops(fragments.original_qubits, wire)
        };
        let threshold = fss_threshold_log2();
        let variants = fragments.total_variants();
        if log2_flops > threshold {
            report.push(
                Diagnostic::warning(
                    "QL0205",
                    Location::Circuit,
                    format!(
                        "dense reconstruction of {wire} wire + {gate} gate cut(s) costs \
                         ~2^{log2_flops:.1} flops, above the full-state-simulation threshold \
                         (~2^{threshold:.1})"
                    ),
                )
                .with_suggestion(
                    "use ReconstructionStrategy::Contract/Auto or replan with fewer cuts",
                ),
            );
        } else {
            report.push(Diagnostic::note(
                "QL0205",
                Location::Circuit,
                format!(
                    "the plan enumerates {variants} variant circuit(s) across {} fragment(s); \
                     estimated dense reconstruction cost ~2^{log2_flops:.1} flops",
                    fragments.fragments.len()
                ),
            ));
        }
    }
}

/// `QL0206`: sparse pruning is enabled — reconstructed mass will be dropped
/// below the tolerance, silently biasing results when the tolerance is
/// large.
pub struct PruneMass;

impl Lint for PruneMass {
    fn code(&self) -> &'static str {
        "QL0206"
    }

    fn description(&self) -> &'static str {
        "sparse-pruning tolerances that may drop reconstructed mass"
    }

    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
        let Some(config) = ctx.config else { return };
        let tolerance = config.prune_tolerance;
        if tolerance <= 0.0 || config.reconstruction_strategy == ReconstructionStrategy::Dense {
            return;
        }
        if tolerance > 0.05 {
            report.push(
                Diagnostic::warning(
                    "QL0206",
                    Location::Circuit,
                    format!(
                        "prune tolerance {tolerance} is large: the Contract strategy may drop \
                         significant reconstructed mass"
                    ),
                )
                .with_suggestion("check ReconstructionReport::pruned_mass after the run"),
            );
        } else {
            report.push(Diagnostic::note(
                "QL0206",
                Location::Circuit,
                format!(
                    "sparse pruning is enabled (tolerance {tolerance}); dropped mass is \
                     reported in ReconstructionReport::pruned_mass"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AnalysisContext, Analyzer, Severity};
    use crate::fragment::FragmentSet;
    use crate::pipeline::QrccPipeline;
    use crate::reconstruct::ReconstructionStrategy;
    use crate::schedule::{DeviceRegistry, SchedulePolicy, Scheduler};
    use crate::QrccConfig;
    use qrcc_circuit::Circuit;
    use qrcc_sim::device::{Device, DeviceConfig};
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

    fn planned(n: usize, d: usize) -> (QrccConfig, FragmentSet) {
        let config =
            QrccConfig::new(d).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        let pipeline = QrccPipeline::plan(&chain(n), config.clone()).unwrap();
        (config, pipeline.fragments().clone())
    }

    fn run(config: &QrccConfig, fragments: &FragmentSet) -> super::super::AnalysisReport {
        Analyzer::new().run(&AnalysisContext::new().with_config(config).with_fragments(fragments))
    }

    #[test]
    fn a_planner_produced_plan_has_no_errors_or_warnings() {
        let (config, fragments) = planned(5, 3);
        let report = run(&config, &fragments);
        assert!(report.is_clean(), "{report}");
        // ... but the overhead note fires for any plan with cuts
        assert!(report.diagnostics().iter().any(|d| d.code == "QL0205"));
    }

    #[test]
    fn a_dangling_wire_cut_is_an_error() {
        let (config, mut fragments) = planned(5, 3);
        assert!(fragments.num_wire_cuts() > 0);
        // detach the measurement side of wire cut 0 everywhere
        for fragment in &mut fragments.fragments {
            fragment.outgoing_cuts.retain(|&cut| cut != 0);
        }
        let report = run(&config, &fragments);
        let d = report.diagnostics().iter().find(|d| d.code == "QL0201").expect("fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.to_string().contains("wire cut 0"), "{d}");
        assert!(report.gate(crate::analyze::LintLevel::Warn).is_err());
    }

    #[test]
    fn an_incomplete_gate_cut_is_an_error() {
        let config = QrccConfig::new(3)
            .with_subcircuit_range(2, 3)
            .with_gate_cuts(true)
            .with_ilp_time_limit(Duration::ZERO);
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.8, 1).cx(1, 2).cx(2, 3).rz(0.3, 3);
        let pipeline = QrccPipeline::plan(&c, config.clone()).unwrap();
        let mut fragments = pipeline.fragments().clone();
        if fragments.num_gate_cuts() == 0 {
            return; // the planner chose pure wire cuts for this seed
        }
        for fragment in &mut fragments.fragments {
            fragment.gate_cut_roles.retain(|&(cut, _)| cut != 0);
        }
        let report = run(&config, &fragments);
        assert!(report.diagnostics().iter().any(|d| d.code == "QL0202"));
    }

    #[test]
    fn an_oversized_fragment_errors_against_the_fleet_and_warns_without_one() {
        let (config, mut fragments) = planned(5, 3);
        fragments.fragments[0].num_physical = 9;
        // no fleet: a warning against the planned device size
        let report = run(&config, &fragments);
        let d = report.diagnostics().iter().find(|d| d.code == "QL0203").expect("fires");
        assert_eq!(d.severity, Severity::Warning);
        // with a fleet that tops out below 9 qubits: an error
        let mut fleet = DeviceRegistry::new();
        fleet.register_device("small", Device::new(DeviceConfig::ideal(4)), 1024);
        let scheduler = Scheduler::new(&fleet, SchedulePolicy::default());
        let report = Analyzer::new().run(
            &AnalysisContext::new()
                .with_config(&config)
                .with_fragments(&fragments)
                .with_fleet(&scheduler),
        );
        let d = report.diagnostics().iter().find(|d| d.code == "QL0203").expect("fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("widest"), "{d}");
    }

    #[test]
    fn too_many_cuts_for_the_dense_strategy_is_an_error() {
        // a long chain cut into many fragments overflows MAX_DENSE_CUTS
        let config = QrccConfig::new(2)
            .with_subcircuit_range(2, 24)
            .with_reconstruction_strategy(ReconstructionStrategy::Dense)
            .with_ilp_time_limit(Duration::ZERO);
        let pipeline = QrccPipeline::plan(&chain(18), config.clone()).unwrap();
        let fragments = pipeline.fragments().clone();
        if fragments.num_wire_cuts() <= super::MAX_DENSE_CUTS {
            return; // planner found a surprisingly cheap cut; nothing to lint
        }
        let report = run(&config, &fragments);
        let d = report.diagnostics().iter().find(|d| d.code == "QL0204").expect("fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.suggestion.as_deref().unwrap_or("").contains("Contract"), "{d}");
        // the same plan under Contract/Auto resolves fine
        let auto = config.with_reconstruction_strategy(ReconstructionStrategy::Auto);
        let report = run(&auto, &fragments);
        assert!(report.diagnostics().iter().all(|d| d.code != "QL0204"), "{report}");
    }

    #[test]
    fn prune_tolerance_notes_and_warns() {
        let (config, fragments) = planned(5, 3);
        let noted = config
            .clone()
            .with_reconstruction_strategy(ReconstructionStrategy::Contract)
            .with_prune_tolerance(1e-9);
        let report = run(&noted, &fragments);
        let d = report.diagnostics().iter().find(|d| d.code == "QL0206").expect("fires");
        assert_eq!(d.severity, Severity::Note);
        let coarse = noted.with_prune_tolerance(0.2);
        let report = run(&coarse, &fragments);
        let d = report.diagnostics().iter().find(|d| d.code == "QL0206").expect("fires");
        assert_eq!(d.severity, Severity::Warning);
    }
}
