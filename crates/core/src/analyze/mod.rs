//! Pre-flight static analysis: a lint-style diagnostics engine for circuits,
//! cut plans and device fleets.
//!
//! The execution stack ([`schedule`](crate::schedule) →
//! [`dispatch`](crate::dispatch) → backends) discovers many failure classes
//! only *after* contacting a device: a fragment too wide for every registered
//! backend surfaces as [`CoreError::NoCompatibleBackend`] mid-dispatch, a
//! starved shot budget as [`CoreError::ShotBudgetTooSmall`], a reuse circuit
//! on a fleet without mid-circuit measurement as a per-circuit backend
//! failure. All of these are **statically decidable** from the circuit, the
//! cut plan and the [`Scheduler`] the request will run on — its registry is
//! the fleet, its [`SchedulePolicy`](crate::SchedulePolicy) the shot budget.
//! This module decides them up front, rustc-style:
//!
//! * [`Diagnostic`] — one finding: a stable code (`QL0203`), a [`Severity`],
//!   a [`Location`] (qubit, gate index, fragment, cut id, QASM line/column),
//!   a message and an optional suggestion.
//! * [`Lint`] — one check over an [`AnalysisContext`]; the built-in registry
//!   of an [`Analyzer`] covers three families:
//!   circuit lints (`QL01xx`), cut-plan lints (`QL02xx`) and fleet/schedule
//!   lints (`QL03xx`). See the table in the workspace README.
//! * [`AnalysisReport`] — the ordered findings plus a severity gate:
//!   [`AnalysisReport::gate`] turns findings at or above the configured
//!   [`LintLevel`] into [`CoreError::AnalysisFailed`] *before* any backend is
//!   contacted.
//!
//! The high-level entry points are
//! [`QrccPipeline::analyze`](crate::pipeline::QrccPipeline::analyze) /
//! [`analyze_with_fleet`](crate::pipeline::QrccPipeline::analyze_with_fleet)
//! and the gating
//! [`preflight`](crate::pipeline::QrccPipeline::preflight), the last two
//! over the same `&Scheduler` the request then runs on; the remote
//! server uses [`preflight_backend`] to reject statically-unplaceable
//! batch entries by their shape.
//!
//! ```rust
//! use qrcc_circuit::Circuit;
//! use qrcc_core::analyze::{AnalysisContext, Analyzer};
//!
//! let mut circuit = Circuit::new(3);
//! circuit.h(0).cx(0, 1); // qubit 2 is never touched
//! let analyzer = Analyzer::new();
//! let report = analyzer.run(&AnalysisContext::new().with_circuit(&circuit));
//! assert!(report.diagnostics().iter().any(|d| d.code == "QL0102"));
//! ```

mod circuit_lints;
mod fleet_lints;
mod plan_lints;

pub use circuit_lints::{ClassicalRegisterUsage, DeadQubits, MeasureBeforeUse, ReuseCapability};
pub use fleet_lints::{EmptyFleet, PredictedPlacement, PredictedShotBudget};
pub use plan_lints::{
    DanglingWireCut, FragmentWidth, IncompleteGateCut, InfeasibleStrategy, PruneMass,
    SamplingOverhead,
};

use crate::execute::{CircuitShape, ExecutionBackend};
use crate::fragment::FragmentSet;
use crate::schedule::Scheduler;
use crate::{CoreError, QrccConfig};
use qrcc_circuit::{Circuit, CircuitError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How serious a [`Diagnostic`] is. Ordered: `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — never gates execution (overhead estimates, capped
    /// enumerations).
    Note,
    /// Suspicious but runnable — gates execution only under
    /// [`LintLevel::Deny`].
    Warning,
    /// A statically-predicted runtime failure — gates execution under
    /// [`LintLevel::Warn`] (the default) and [`LintLevel::Deny`].
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The severity gate of the pre-flight analysis pass: which diagnostics make
/// [`AnalysisReport::gate`] fail (configured via
/// [`QrccConfig::with_lint_level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LintLevel {
    /// Never fail — diagnostics are reported but never block execution.
    Allow,
    /// Fail on [`Severity::Error`] diagnostics (the default).
    #[default]
    Warn,
    /// Deny-warnings mode: fail on [`Severity::Warning`] **and**
    /// [`Severity::Error`] diagnostics.
    Deny,
}

/// Where a [`Diagnostic`] points. Every variant renders into the
/// parenthesised suffix of the diagnostic's [`Display`](fmt::Display) form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Location {
    /// The circuit (or plan) as a whole.
    Circuit,
    /// A qubit of the analyzed circuit.
    Qubit(usize),
    /// An operation index into [`Circuit::operations`].
    Gate(usize),
    /// A classical bit of the analyzed circuit.
    Clbit(usize),
    /// A fragment (subcircuit) index of the cut plan.
    Fragment(usize),
    /// A global wire-cut id of the cut plan.
    WireCut(usize),
    /// A global gate-cut id of the cut plan.
    GateCut(usize),
    /// A named backend of the fleet.
    Backend(String),
    /// A position in OpenQASM source text (both 1-based; 0 = unknown).
    Qasm {
        /// 1-based line of the offending statement.
        line: usize,
        /// 1-based byte column of the offending token (0 when unknown).
        column: usize,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Circuit => write!(f, "circuit"),
            Location::Qubit(q) => write!(f, "qubit {q}"),
            Location::Gate(i) => write!(f, "operation {i}"),
            Location::Clbit(c) => write!(f, "classical bit {c}"),
            Location::Fragment(i) => write!(f, "fragment {i}"),
            Location::WireCut(i) => write!(f, "wire cut {i}"),
            Location::GateCut(i) => write!(f, "gate cut {i}"),
            Location::Backend(name) => write!(f, "backend '{name}'"),
            Location::Qasm { line, column: 0 } => write!(f, "line {line}"),
            Location::Qasm { line, column } => write!(f, "line {line}, column {column}"),
        }
    }
}

/// One static-analysis finding.
///
/// Renders rustc-style:
/// `error[QL0203]: fragment 1 is 5 qubits wide ... (fragment 1); help: ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint code (`QL0101`–`QL03xx`); see the README table.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// What the finding points at.
    pub location: Location,
    /// Human-readable description of the finding.
    pub message: String,
    /// Optional remediation hint, rendered as a `help:` suffix.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An [`Severity::Error`] diagnostic.
    pub fn error(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// A [`Severity::Warning`] diagnostic.
    pub fn warning(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// A [`Severity::Note`] diagnostic.
    pub fn note(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Note,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a remediation hint.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Converts a circuit-construction or QASM-parse error into a `QL0101`
    /// diagnostic. [`CircuitError::QasmParse`] keeps its line/column as a
    /// [`Location::Qasm`]; every other error points at the circuit.
    pub fn from_circuit_error(error: &CircuitError) -> Self {
        match error {
            CircuitError::QasmParse { line, column, reason } => Diagnostic::error(
                "QL0101",
                Location::Qasm { line: *line, column: *column },
                reason.clone(),
            ),
            other => Diagnostic::error("QL0101", Location::Circuit, other.to_string()),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if self.location != Location::Circuit {
            write!(f, " ({})", self.location)?;
        }
        if let Some(suggestion) = &self.suggestion {
            write!(f, "; help: {suggestion}")?;
        }
        Ok(())
    }
}

/// The ordered findings of one analysis run, plus the severity gate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// The findings, in lint-registry order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of [`Severity::Error`] findings.
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of [`Severity::Warning`] findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Number of [`Severity::Note`] findings.
    pub fn notes(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Note).count()
    }

    /// `true` when the report holds no errors and no warnings (notes are
    /// always allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.warnings() == 0
    }

    /// Applies the severity gate: [`LintLevel::Allow`] always passes,
    /// [`LintLevel::Warn`] fails on errors, [`LintLevel::Deny`] fails on
    /// warnings and errors.
    ///
    /// # Errors
    ///
    /// [`CoreError::AnalysisFailed`] carrying the error/warning counts and
    /// the first gating diagnostic, rendered.
    pub fn gate(&self, level: LintLevel) -> Result<(), CoreError> {
        let threshold = match level {
            LintLevel::Allow => return Ok(()),
            LintLevel::Warn => Severity::Error,
            LintLevel::Deny => Severity::Warning,
        };
        match self.diagnostics.iter().find(|d| d.severity >= threshold) {
            None => Ok(()),
            Some(first) => Err(CoreError::AnalysisFailed {
                errors: self.errors(),
                warnings: self.warnings(),
                first: first.to_string(),
            }),
        }
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for diagnostic in &self.diagnostics {
            writeln!(f, "{diagnostic}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} note(s)",
            self.errors(),
            self.warnings(),
            self.notes()
        )
    }
}

/// What a lint run can see. Every field is optional: a [`Lint`] inspects the
/// pieces it understands and stays silent when they are absent, so the same
/// [`Analyzer`] serves circuit-only, plan-only and full-fleet analyses.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisContext<'a> {
    /// The original (uncut) circuit.
    pub circuit: Option<&'a Circuit>,
    /// The cut plan's fragments.
    pub fragments: Option<&'a FragmentSet>,
    /// The planner configuration.
    pub config: Option<&'a QrccConfig>,
    /// The scheduler the batch would run on: its registry is the fleet the
    /// placement lints check, its policy the shot budget QL0302 checks.
    pub fleet: Option<&'a Scheduler<'a>>,
}

impl<'a> AnalysisContext<'a> {
    /// An empty context.
    pub fn new() -> Self {
        AnalysisContext::default()
    }

    /// Adds the original circuit.
    #[must_use]
    pub fn with_circuit(mut self, circuit: &'a Circuit) -> Self {
        self.circuit = Some(circuit);
        self
    }

    /// Adds the cut plan's fragments.
    #[must_use]
    pub fn with_fragments(mut self, fragments: &'a FragmentSet) -> Self {
        self.fragments = Some(fragments);
        self
    }

    /// Adds the planner configuration.
    #[must_use]
    pub fn with_config(mut self, config: &'a QrccConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Adds the scheduler the batch would run on (its fleet and policy).
    #[must_use]
    pub fn with_fleet(mut self, scheduler: &'a Scheduler<'a>) -> Self {
        self.fleet = Some(scheduler);
        self
    }
}

/// One static check over an [`AnalysisContext`].
pub trait Lint {
    /// The stable code this lint reports under (`QL0102`, ...).
    fn code(&self) -> &'static str;
    /// One-line description of what the lint checks.
    fn description(&self) -> &'static str;
    /// Runs the check, appending findings to `report`. A lint must stay
    /// silent when the context pieces it needs are absent.
    fn check(&self, ctx: &AnalysisContext<'_>, report: &mut AnalysisReport);
}

/// The lint registry: runs every registered [`Lint`] over a context.
pub struct Analyzer {
    lints: Vec<Box<dyn Lint>>,
}

impl Analyzer {
    /// An analyzer with the full built-in registry (all `QL01xx`/`QL02xx`/
    /// `QL03xx` lints).
    pub fn new() -> Self {
        let mut analyzer = Analyzer::empty();
        analyzer
            .register(Box::new(DeadQubits))
            .register(Box::new(MeasureBeforeUse))
            .register(Box::new(ClassicalRegisterUsage))
            .register(Box::new(ReuseCapability))
            .register(Box::new(DanglingWireCut))
            .register(Box::new(IncompleteGateCut))
            .register(Box::new(FragmentWidth))
            .register(Box::new(InfeasibleStrategy))
            .register(Box::new(SamplingOverhead))
            .register(Box::new(PruneMass))
            .register(Box::new(EmptyFleet))
            .register(Box::new(PredictedPlacement))
            .register(Box::new(PredictedShotBudget));
        analyzer
    }

    /// An analyzer with no lints registered.
    pub fn empty() -> Self {
        Analyzer { lints: Vec::new() }
    }

    /// Registers an additional lint (appended after the existing ones).
    pub fn register(&mut self, lint: Box<dyn Lint>) -> &mut Self {
        self.lints.push(lint);
        self
    }

    /// The codes of every registered lint, in run order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.lints.iter().map(|l| l.code()).collect()
    }

    /// Runs every registered lint over `ctx`.
    pub fn run(&self, ctx: &AnalysisContext<'_>) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        for lint in &self.lints {
            lint.check(ctx, &mut report);
        }
        report
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analyzer").field("lints", &self.codes()).finish()
    }
}

/// Parses OpenQASM source and runs the circuit lints over the result.
///
/// Parse failures become `QL0101` diagnostics carrying the line/column of
/// [`CircuitError::QasmParse`] — the same [`Diagnostic`] currency as every
/// other finding — and the circuit slot of the return value stays `None`.
pub fn analyze_qasm(source: &str) -> (Option<Circuit>, AnalysisReport) {
    match qrcc_circuit::qasm::from_qasm(source) {
        Ok(circuit) => {
            let report = Analyzer::new().run(&AnalysisContext::new().with_circuit(&circuit));
            (Some(circuit), report)
        }
        Err(error) => {
            let mut report = AnalysisReport::new();
            report.push(Diagnostic::from_circuit_error(&error));
            (None, report)
        }
    }
}

/// Statically checks whether `backend` can run a circuit of `shape` — the
/// per-entry pre-flight the remote [`QrccServer`](../../qrcc_net) applies
/// before execution. Returns a `QL0301` error diagnostic when placement is
/// impossible (too wide, or a required capability such as mid-circuit
/// measurement is missing), `None` when the circuit passes.
pub fn preflight_backend(
    shape: &CircuitShape,
    backend: &dyn ExecutionBackend,
) -> Option<Diagnostic> {
    if backend.can_run(shape) {
        return None;
    }
    Some(
        Diagnostic::error(
            "QL0301",
            Location::Circuit,
            format!(
                "the target backend cannot run this {}-qubit circuit (too wide, or a required \
                 capability such as mid-circuit measurement is missing)",
                shape.num_qubits
            ),
        )
        .with_suggestion(
            "route the circuit to a backend with more qubits or the missing capability",
        ),
    )
}
