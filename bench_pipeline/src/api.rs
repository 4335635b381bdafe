//! The only file of the benchmark that names items of the program under
//! measurement. Workloads, stages, statistics and tracing call the
//! functions below and see harness-owned values (plain counts, seconds and
//! opaque handles), so when the program's execution API collapses to one
//! request type this is the file that is re-pointed.
//!
//! Nothing here keeps time: every function is one call (or one loop of
//! calls) into a public layer function, and the callers wrap it in their
//! own `Instant` timers. Counts come from the reports those functions
//! already return.

use qrcc_circuit::dag::CircuitDag;
use qrcc_circuit::generators::{self, HamiltonianKind};
use qrcc_circuit::qasm::{from_qasm, to_qasm};
use qrcc_core::cache::{CacheLookup, CacheStats, ResultCache, ResultCachePolicy};
use qrcc_core::execute::{ExactBackend, ExecutionBackend, ExecutionResults, ShotsBackend};
use qrcc_core::fragment::{VariantKey, VariantRequest};
use qrcc_core::model::{solve_qrcc_model, QrccModel};
use qrcc_core::obs::MetricsSnapshot;
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::planner::{CutPlan, CutPlanner};
use qrcc_core::reconstruct::{
    ExpectationAccumulator, ExpectationReconstructor, ProbabilityAccumulator,
    ProbabilityReconstructor, MAX_DENSE_CUTS,
};
use qrcc_core::schedule::variant_weight;
use qrcc_core::{
    DeviceRegistry, QrccConfig, ReconstructionReport, ReconstructionStrategy, SchedulePolicy,
    ScheduleReport, Scheduler,
};
use qrcc_ilp::SolveStatus;
use qrcc_net::proto::{decode_frame, write_frame, Frame};
use qrcc_net::{QrccServer, RemoteBackend, ServerHandle};
use qrcc_sim::compile::FramedProgram;
use qrcc_sim::device::{Device, DeviceConfig};
use qrcc_sim::StateVector;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

pub type Circuit = qrcc_circuit::Circuit;
pub type Graph = qrcc_circuit::graph::Graph;
pub type Observable = qrcc_circuit::observable::PauliObservable;

/// The widest plan (wire + gate cuts) the benchmark lets a workload
/// enumerate; a wider one is recorded as a failed request, never run.
pub const CUT_GUARD: usize = MAX_DENSE_CUTS;

// ---- inputs --------------------------------------------------------------

pub fn aqft(n: usize, degree: usize) -> Circuit {
    generators::aqft(n, degree)
}

pub fn qft(n: usize) -> Circuit {
    generators::qft(n)
}

pub fn supremacy(rows: usize, cols: usize, cycles: usize, seed: u64) -> Circuit {
    generators::supremacy(rows, cols, cycles, seed)
}

pub fn adder(bits: usize, seed: u64) -> Circuit {
    generators::ripple_carry_adder(bits, seed)
}

/// One Trotter step `dt` of the transverse-field Ising model on a
/// `rows × cols` lattice, with the Ising energy as the observable.
pub fn tfim(rows: usize, cols: usize, dt: f64) -> (Circuit, Observable) {
    let (circuit, lattice) = generators::hamiltonian_simulation(
        HamiltonianKind::TransverseFieldIsing,
        rows,
        cols,
        false,
        1,
        dt,
    );
    (circuit, Observable::ising(&lattice, 1.0, 0.5))
}

pub fn vqe(n: usize, reps: usize, seed: u64) -> (Circuit, Observable) {
    (generators::vqe_two_local(n, reps, seed), Observable::all_z(n))
}

pub fn regular_graph(n: usize, degree: usize, seed: u64) -> Graph {
    qrcc_circuit::graph::random_regular(n, degree, seed)
}

/// QAOA MaxCut on `graph`; `seed` draws the angles only.
pub fn qaoa_maxcut(graph: &Graph, layers: usize, seed: u64) -> (Circuit, Observable) {
    (generators::qaoa(graph, layers, seed), Observable::maxcut(graph))
}

/// `circuit` preceded by `RY(angles[q])` on qubit `q`: a seeded product
/// state on the first wires, so a generator that takes no seed still gets
/// seed-dependent inputs and a non-uniform output to check.
pub fn with_prologue(circuit: &Circuit, angles: &[f64]) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    out.set_name(circuit.name().to_owned());
    for (qubit, &angle) in angles.iter().enumerate() {
        out.ry(angle, qubit);
    }
    out.compose(circuit);
    out
}

// ---- uncut reference -------------------------------------------------------

/// What a request returns, and what the uncut state vector says it should.
#[derive(Debug, Clone)]
pub enum Answer {
    Probabilities(Vec<f64>),
    Expectation(f64),
}

impl Answer {
    /// Max |Δp| or |Δ⟨O⟩| against `other`; infinite when the kinds differ.
    pub fn distance(&self, other: &Answer) -> f64 {
        match (self, other) {
            (Answer::Probabilities(a), Answer::Probabilities(b)) if a.len() == b.len() => {
                a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
            }
            (Answer::Expectation(a), Answer::Expectation(b)) => (a - b).abs(),
            _ => f64::INFINITY,
        }
    }
}

pub fn reference(circuit: &Circuit, observable: Option<&Observable>) -> Result<Answer, String> {
    let state = StateVector::from_circuit(circuit).map_err(|e| e.to_string())?;
    Ok(match observable {
        Some(observable) => Answer::Expectation(state.expectation(observable)),
        None => Answer::Probabilities(state.probabilities()),
    })
}

// ---- circuit.dag, core.planner, ilp ----------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    pub device: usize,
    pub gate_cuts: bool,
    /// `false` is `with_ilp_time_limit(ZERO)`: heuristic search only.
    pub ilp: bool,
}

impl PlanSpec {
    fn config(&self) -> QrccConfig {
        let config = QrccConfig::new(self.device).with_gate_cuts(self.gate_cuts);
        if self.ilp {
            config
        } else {
            config.with_ilp_time_limit(Duration::ZERO)
        }
    }

    /// The planner's ILP time limit in seconds (0 when `ilp` is off).
    pub fn ilp_limit_s(&self) -> f64 {
        self.config().ilp_time_limit.as_secs_f64()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCounts {
    pub wire_cuts: usize,
    pub gate_cuts: usize,
    pub subcircuits: usize,
    pub max_width: usize,
    pub used_ilp: bool,
    pub effective_cuts: f64,
}

pub struct Plan(CutPlan);

impl PlanCounts {
    fn of(plan: &CutPlan) -> PlanCounts {
        let metrics = plan.metrics();
        PlanCounts {
            wire_cuts: metrics.wire_cuts,
            gate_cuts: metrics.gate_cuts,
            subcircuits: metrics.num_subcircuits,
            max_width: metrics.max_width(),
            used_ilp: plan.used_ilp(),
            effective_cuts: metrics.effective_cuts(),
        }
    }
}

impl Plan {
    pub fn counts(&self) -> PlanCounts {
        PlanCounts::of(&self.0)
    }

    /// The check a plan gets where no simulator can run the circuit: the
    /// solution is consistent with the DAG and every subcircuit fits.
    pub fn check(&self) -> Result<(), String> {
        self.0.solution().validate(self.0.dag()).map_err(|e| e.to_string())?;
        let device = self.0.config().device_size;
        match self.0.subcircuit_widths().iter().find(|&&w| w > device) {
            Some(width) => Err(format!("subcircuit of width {width} on a {device}-qubit device")),
            None => Ok(()),
        }
    }
}

/// `CircuitDag::from_circuit`; returns the node count.
pub fn dag_build(circuit: &Circuit) -> usize {
    CircuitDag::from_circuit(circuit).nodes().len()
}

/// `CutPlanner::plan`.
pub fn plan(circuit: &Circuit, spec: &PlanSpec) -> Result<Plan, String> {
    CutPlanner::new(spec.config()).plan(circuit).map(Plan).map_err(|e| e.to_string())
}

#[derive(Debug, Clone, Copy, Default)]
pub struct IlpCounts {
    pub vars: usize,
    pub constraints: usize,
    pub optimal: bool,
}

/// `QrccModel::build` + `solve_qrcc_model` for the plan's subcircuit count,
/// from scratch (no warm start), under the spec's own time limit.
pub fn ilp_solve(plan: &Plan, spec: &PlanSpec) -> IlpCounts {
    let config = spec.config();
    let subcircuits = plan.0.num_subcircuits().max(2);
    let model = QrccModel::build(plan.0.dag(), &config, subcircuits);
    let solved = solve_qrcc_model(plan.0.dag(), &config, subcircuits, config.ilp_time_limit);
    IlpCounts {
        vars: model.ilp.num_vars(),
        constraints: model.ilp.num_constraints(),
        optimal: matches!(solved, Some((_, SolveStatus::Optimal, _))),
    }
}

// ---- core.fragment, enumeration, dedup --------------------------------------

pub struct Pipeline(QrccPipeline);

impl Pipeline {
    /// `QrccPipeline::from_plan`, which is `FragmentSet::from_plan`.
    pub fn from_plan(plan: Plan) -> Result<Pipeline, String> {
        QrccPipeline::from_plan(plan.0).map(Pipeline).map_err(|e| e.to_string())
    }

    pub fn counts(&self) -> PlanCounts {
        PlanCounts::of(self.0.plan_ref())
    }

    pub fn total_variants(&self) -> u64 {
        self.0.total_instances()
    }
}

/// The enumerated variant requests of one workload.
pub struct Requests(Vec<VariantRequest>);

impl Requests {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Indices of the first request of every distinct `VariantKey`, in
    /// first-seen order (the harness's own dedup, so that instantiation can
    /// be timed on exactly the keys the program instantiates).
    pub fn unique(&self) -> Vec<usize> {
        let mut seen: HashSet<&VariantKey> = HashSet::with_capacity(self.0.len());
        (0..self.0.len()).filter(|&i| seen.insert(&self.0[i].key)).collect()
    }
}

/// `ProbabilityReconstructor::requests` / `ExpectationReconstructor::requests`
/// with the plan's own reconstruction options.
pub fn enumerate(pipeline: &Pipeline, observable: Option<&Observable>) -> Result<Requests, String> {
    let options = pipeline.0.reconstruction_options();
    let fragments = pipeline.0.fragments();
    match observable {
        Some(observable) => {
            ExpectationReconstructor::with_options(options).requests(fragments, observable)
        }
        None => ProbabilityReconstructor::with_options(options).requests(fragments),
    }
    .map(Requests)
    .map_err(|e| e.to_string())
}

/// `FragmentSet::instantiate_key` over `keys`.
pub fn instantiate(
    pipeline: &Pipeline,
    requests: &Requests,
    keys: &[usize],
) -> Result<Vec<Circuit>, String> {
    let fragments = pipeline.0.fragments();
    keys.iter()
        .map(|&i| fragments.instantiate_key(&requests.0[i].key).map_err(|e| e.to_string()))
        .collect()
}

/// Collapses structurally identical circuits, keeping first-seen order —
/// the batch the program would put on a device or on the wire.
pub fn dedup_structural(circuits: Vec<Circuit>) -> Vec<Circuit> {
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut unique: Vec<Circuit> = Vec::new();
    for circuit in circuits {
        let bucket = buckets.entry(circuit.structural_hash()).or_default();
        if !bucket.iter().any(|&i| unique[i].structurally_equal(&circuit)) {
            bucket.push(unique.len());
            unique.push(circuit);
        }
    }
    unique
}

/// `schedule::variant_weight` over `keys`; returns the sum so the calls are
/// not optimised away.
pub fn variant_weights(pipeline: &Pipeline, requests: &Requests, keys: &[usize]) -> f64 {
    let fragments = pipeline.0.fragments();
    keys.iter().map(|&i| variant_weight(fragments, &requests.0[i].key)).sum()
}

// ---- circuit.qasm -------------------------------------------------------------

pub fn qasm_encode(circuits: &[Circuit]) -> Vec<String> {
    circuits.iter().map(to_qasm).collect()
}

/// Parses every document; returns the number of operations read.
pub fn qasm_parse(documents: &[String]) -> Result<usize, String> {
    documents
        .iter()
        .try_fold(0, |ops, text| from_qasm(text).map(|c| ops + c.len()).map_err(|e| e.to_string()))
}

// ---- sim ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
pub struct CompileCounts {
    pub kernels: u64,
    pub fusion_ratio: f64,
    pub coverage: f64,
    /// Computed, not measured: Σ kernels × 2^width over the batch.
    pub amp_updates: f64,
}

/// `FramedProgram::compile` over the batch, one circuit after the other.
pub fn compile(circuits: &[Circuit]) -> CompileCounts {
    let mut merged = qrcc_sim::compile::CompileStats::default();
    let mut amp_updates = 0.0;
    for circuit in circuits {
        let program = FramedProgram::compile(circuit);
        let stats = program.stats();
        amp_updates += stats.kernels_out as f64 * (1u64 << program.num_qubits()) as f64;
        merged.merge(stats);
    }
    CompileCounts {
        kernels: merged.kernels_out,
        fusion_ratio: merged.fusion_ratio(),
        coverage: merged.coverage(),
        amp_updates,
    }
}

/// What the devices of a workload are.
#[derive(Debug, Clone)]
pub enum FleetSpec {
    /// One in-process `ExactBackend::capped(device)`.
    Exact { device: usize },
    /// `workers` loopback `QrccServer`s, each an `ExactBackend::capped`.
    Remote { device: usize, workers: usize },
    /// One seeded ideal `ShotsBackend` per seed, optionally behind the
    /// registry's result cache.
    Shots { device: usize, shots: u64, seeds: Vec<u64>, cached: bool },
}

/// One in-process backend of the fleet's kind, for the stage-by-stage run.
pub enum LocalBackend {
    Exact(ExactBackend),
    Shots(ShotsBackend),
}

impl LocalBackend {
    pub fn of(spec: &FleetSpec) -> LocalBackend {
        match spec {
            FleetSpec::Exact { device } | FleetSpec::Remote { device, .. } => {
                LocalBackend::Exact(ExactBackend::capped(*device))
            }
            FleetSpec::Shots { device, shots, seeds, .. } => {
                LocalBackend::Shots(ShotsBackend::new(
                    shots_device(*device, seeds.first().copied().unwrap_or(0)),
                    *shots,
                ))
            }
        }
    }

    fn backend(&self) -> &dyn ExecutionBackend {
        match self {
            LocalBackend::Exact(backend) => backend,
            LocalBackend::Shots(backend) => backend,
        }
    }

    /// Shots per circuit (`None` for the exact backend).
    pub fn shots(&self) -> Option<u64> {
        self.backend().shots_per_circuit()
    }

    /// `run_batch` (exact) / `run_batch_with_shots` (sampling, `shots` each).
    pub fn run_batch(&self, circuits: &[Circuit], shots: u64) -> Result<Vec<Vec<f64>>, String> {
        let outcomes = match self {
            LocalBackend::Exact(backend) => backend.run_batch(circuits),
            LocalBackend::Shots(backend) => {
                backend.run_batch_with_shots(circuits, &vec![shots; circuits.len()])
            }
        };
        outcomes.into_iter().map(|o| o.map_err(|e| e.to_string())).collect()
    }
}

fn shots_device(qubits: usize, seed: u64) -> Device {
    Device::new(DeviceConfig::ideal(qubits).with_seed(seed))
}

// ---- core.execute ----------------------------------------------------------------

pub struct Results(ExecutionResults);

impl Results {
    pub fn unique_variants(&self) -> usize {
        self.0.unique_variants()
    }

    pub fn executed(&self) -> u64 {
        self.0.executed()
    }
}

/// `execute::execute_requests`: dedup, instantiate, one `run_batch`.
pub fn execute_requests(
    pipeline: &Pipeline,
    requests: &Requests,
    backend: &LocalBackend,
) -> Result<Results, String> {
    qrcc_core::execute::execute_requests(pipeline.0.fragments(), &requests.0, backend.backend())
        .map(Results)
        .map_err(|e| e.to_string())
}

// ---- core.reconstruct ----------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
pub struct ReconCounts {
    pub contractions: usize,
    pub strategy_dense: bool,
    pub pruned_mass: f64,
}

impl ReconCounts {
    fn of(report: &ReconstructionReport) -> ReconCounts {
        ReconCounts {
            contractions: report.contractions,
            strategy_dense: report.strategy == ReconstructionStrategy::Dense,
            pruned_mass: report.pruned_weight,
        }
    }
}

pub enum Accumulator<'a> {
    Probability(ProbabilityAccumulator<'a>),
    Expectation(ExpectationAccumulator<'a>),
}

impl<'a> Accumulator<'a> {
    pub fn new(
        pipeline: &'a Pipeline,
        observable: Option<&Observable>,
    ) -> Result<Accumulator<'a>, String> {
        let options = pipeline.0.reconstruction_options();
        let fragments = pipeline.0.fragments();
        match observable {
            Some(observable) => ExpectationAccumulator::new(fragments, observable, options)
                .map(Accumulator::Expectation),
            None => ProbabilityAccumulator::new(fragments, options).map(Accumulator::Probability),
        }
        .map_err(|e| e.to_string())
    }

    /// `*Accumulator::absorb` (the fold).
    pub fn absorb(&mut self, results: Results) -> Result<(), String> {
        match self {
            Accumulator::Probability(acc) => acc.absorb(results.0),
            Accumulator::Expectation(acc) => acc.absorb(results.0),
        }
        .map_err(|e| e.to_string())
    }

    /// `*Accumulator::finish` (the contraction).
    pub fn finish(&mut self) -> Result<(Answer, ReconCounts), String> {
        match self {
            Accumulator::Probability(acc) => {
                acc.finish().map(|(p, r)| (Answer::Probabilities(p), ReconCounts::of(&r)))
            }
            Accumulator::Expectation(acc) => {
                acc.finish().map(|(e, r)| (Answer::Expectation(e), ReconCounts::of(&r)))
            }
        }
        .map_err(|e| e.to_string())
    }
}

// ---- the fleet: registry, servers, result cache ------------------------------------------

/// Cumulative counters of a fleet; subtract two reads for one request's.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetCounters {
    pub kernel_hits: u64,
    pub kernel_misses: u64,
    pub cache_hits: u64,
    pub cache_delta_hits: u64,
    pub cache_misses: u64,
    pub cache_shots_saved: u64,
    pub server_batches: u64,
    pub server_queue_high_water: u64,
}

/// The devices of a workload behind a `DeviceRegistry`, plus the loopback
/// servers when they are remote. Fields drop in order: the registry's
/// connections close before the servers shut down.
pub struct Fleet {
    registry: DeviceRegistry,
    servers: Vec<ServerHandle>,
}

impl Fleet {
    pub fn build(spec: &FleetSpec) -> Result<Fleet, String> {
        let mut registry = DeviceRegistry::new();
        let mut servers = Vec::new();
        match spec {
            FleetSpec::Exact { device } => {
                registry.register("exact", ExactBackend::capped(*device));
            }
            FleetSpec::Remote { device, workers } => {
                for i in 0..*workers {
                    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(*device))
                        .map_err(|e| format!("bind loopback server: {e}"))?
                        .spawn();
                    let backend =
                        RemoteBackend::connect(server.addr()).map_err(|e| e.to_string())?;
                    registry.register(format!("worker-{i}"), backend);
                    servers.push(server);
                }
            }
            FleetSpec::Shots { device, shots, seeds, cached } => {
                for (i, &seed) in seeds.iter().enumerate() {
                    registry.register_device(
                        format!("qpu-{i}"),
                        shots_device(*device, seed),
                        *shots,
                    );
                }
                if *cached {
                    registry = registry.with_result_cache(&ResultCachePolicy::in_memory());
                }
            }
        }
        Ok(Fleet { registry, servers })
    }

    /// The loopback address of the first server, if the fleet is remote.
    pub fn first_server(&self) -> Option<std::net::SocketAddr> {
        self.servers.first().map(ServerHandle::addr)
    }

    pub fn counters(&self) -> FleetCounters {
        let compile = self.registry.compile_stats().unwrap_or_default();
        let cache: CacheStats = self.registry.cache_stats().unwrap_or_default();
        let servers: Vec<_> = self.servers.iter().map(ServerHandle::stats).collect();
        FleetCounters {
            kernel_hits: compile.cache_hits,
            kernel_misses: compile.cache_misses,
            cache_hits: cache.hits,
            cache_delta_hits: cache.delta_hits,
            cache_misses: cache.misses,
            cache_shots_saved: cache.shots_saved,
            server_batches: servers.iter().map(|s| s.batches).sum(),
            server_queue_high_water: servers.iter().map(|s| s.queue_high_water).max().unwrap_or(0),
        }
    }
}

// ---- core.schedule + core.dispatch: one streaming request ----------------------------------

#[derive(Debug, Clone, Copy)]
pub struct Policy {
    pub budget: Option<u64>,
    pub min_shots: u64,
    /// 0 = the whole batch as one chunk.
    pub chunk_size: usize,
    /// 0 = unbounded in-flight window.
    pub window: usize,
}

impl Policy {
    fn schedule(&self) -> SchedulePolicy {
        let base = match self.budget {
            Some(budget) => SchedulePolicy::with_budget(budget).with_min_shots(self.min_shots),
            None => SchedulePolicy::default(),
        };
        base.with_chunk_size(self.chunk_size).with_max_in_flight_chunks(self.window)
    }
}

/// The counts and phase times one streaming call reports about itself
/// (`ScheduleReport`, `DispatchStats`, `PhaseProfile`).
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    pub total_shots: u64,
    pub chunks: usize,
    /// Circuits routed per backend, registry order of first use.
    pub routed: Vec<u64>,
    pub jobs: u64,
    pub retries: u64,
    pub max_in_flight: usize,
    pub queue_wait_s: f64,
    pub execute_wall_s: f64,
    pub deliver_wall_s: f64,
    pub dispatch_s: f64,
    pub fold_s: f64,
    pub total_s: f64,
}

impl StreamReport {
    fn of(schedule: &ScheduleReport, recon: &ReconstructionReport) -> StreamReport {
        let phase = |name: &str| {
            recon
                .profile
                .iter()
                .flat_map(|p| &p.phases)
                .filter(|(n, _)| n == name)
                .map(|(_, d)| d.as_secs_f64())
                .sum()
        };
        StreamReport {
            total_shots: schedule.total_shots,
            chunks: schedule.chunks,
            routed: schedule.backends.iter().map(|b| b.circuits).collect(),
            jobs: schedule.dispatch.jobs_dispatched,
            retries: schedule.dispatch.jobs_retried,
            max_in_flight: schedule.dispatch.max_in_flight_chunks,
            queue_wait_s: schedule.dispatch.queue_wait.as_secs_f64(),
            execute_wall_s: schedule.dispatch.execute_wall.as_secs_f64(),
            deliver_wall_s: schedule.dispatch.deliver_wall.as_secs_f64(),
            dispatch_s: phase("dispatch"),
            fold_s: phase("fold"),
            total_s: recon.profile.as_ref().map_or(0.0, |p| p.total.as_secs_f64()),
        }
    }
}

/// One end-to-end request: `execute_streaming` /
/// `execute_observables_streaming` over a `Scheduler` on the fleet.
pub fn stream(
    pipeline: &Pipeline,
    fleet: &Fleet,
    policy: &Policy,
    observable: Option<&Observable>,
) -> Result<(Answer, StreamReport), String> {
    let scheduler = Scheduler::new(&fleet.registry, policy.schedule());
    match observable {
        Some(observable) => pipeline.0.execute_observables_streaming(&scheduler, observable).map(
            |(e, recon, schedule)| (Answer::Expectation(e), StreamReport::of(&schedule, &recon)),
        ),
        None => pipeline.0.execute_streaming(&scheduler).map(|(p, recon, schedule)| {
            (Answer::Probabilities(p), StreamReport::of(&schedule, &recon))
        }),
    }
    .map_err(|e| e.to_string())
}

/// Turns the program's own tracer on or off; turning it off hands back how
/// many spans it had recorded and empties its buffer.
pub fn program_tracing(on: bool) -> usize {
    let tracer = qrcc_core::obs::tracer();
    if on {
        tracer.enable();
        0
    } else {
        tracer.disable();
        tracer.drain().len()
    }
}

// ---- net -----------------------------------------------------------------------------------

pub struct Remote(RemoteBackend);

impl Remote {
    /// `RemoteBackend::connect` (dial + handshake).
    pub fn connect(addr: std::net::SocketAddr) -> Result<Remote, String> {
        RemoteBackend::connect(addr).map(Remote).map_err(|e| e.to_string())
    }

    pub fn ping_s(&self) -> Result<f64, String> {
        self.0.ping().map(|d| d.as_secs_f64()).map_err(|e| e.to_string())
    }

    /// `RemoteBackend::run_batch`: QASM encode, frame, socket, worker, reply.
    pub fn run_batch(&self, circuits: &[Circuit]) -> Result<Vec<Vec<f64>>, String> {
        self.0.run_batch(circuits).into_iter().map(|o| o.map_err(|e| e.to_string())).collect()
    }
}

fn wire(frame: &Frame) -> Result<Vec<u8>, String> {
    let mut wire = Vec::new();
    write_frame(&mut wire, frame).map_err(|e| e.to_string())?;
    Ok(wire)
}

/// `write_frame(SubmitBatch)` into a buffer; returns the wire bytes.
pub fn frame_submit(batch: u64, documents: &[String]) -> Result<Vec<u8>, String> {
    wire(&Frame::SubmitBatch { batch, circuits: documents.to_vec(), shots: None, trace: None })
}

/// `write_frame(CircuitResult)` into a buffer; returns the wire bytes.
pub fn frame_result(batch: u64, index: u32, distribution: &[f64]) -> Result<Vec<u8>, String> {
    wire(&Frame::CircuitResult { batch, index, distribution: distribution.to_vec() })
}

/// `decode_frame` on one length-prefixed frame as `frame_*` wrote it.
pub fn frame_decode(wire: &[u8]) -> Result<(), String> {
    decode_frame(wire.get(4..).unwrap_or_default()).map(drop).map_err(|e| e.to_string())
}

// ---- core.cache ----------------------------------------------------------------------------------

pub struct Cache(ResultCache);

impl Cache {
    pub fn new() -> Cache {
        Cache(ResultCache::open(&ResultCachePolicy::in_memory()))
    }

    /// `ResultCache::store`.
    pub fn store(&self, circuit: &Circuit, distribution: &[f64], shots: Option<u64>) {
        self.0.store(circuit, distribution, shots);
    }

    /// `ResultCache::lookup`; `true` on a full hit.
    pub fn lookup(&self, circuit: &Circuit, shots: Option<u64>) -> bool {
        matches!(self.0.lookup(circuit, shots), CacheLookup::Hit(_))
    }
}

// ---- the shared bench schema ------------------------------------------------------------------------

/// `obs::bench_json`: whole numbers as counters, the rest as gauges.
pub fn bench_json(
    name: &str,
    config: &[(&str, String)],
    counters: &[(String, u64)],
    gauges: &[(String, f64)],
) -> String {
    let mut metrics = MetricsSnapshot::default();
    for (key, value) in counters {
        metrics = metrics.with_counter(key, *value);
    }
    for (key, value) in gauges {
        metrics = metrics.with_gauge(key, *value);
    }
    qrcc_core::obs::bench_json(name, config, &metrics)
}
