//! The traced run: one request taken apart, stage by stage, through the
//! public layer functions in pipeline order — dag → plan → `from_plan` →
//! `requests` → `instantiate_key` → `to_qasm`/`from_qasm` → compile →
//! `run_batch` (local, and remote on the fleet workload) → `absorb` →
//! `finish` — with a harness span around each call and the layer's counts
//! read at the same boundary.
//!
//! Some stages run a layer in isolation that the program reaches only inside
//! a bigger call (`execute_requests` instantiates and runs the batch again),
//! so a staged request does more work than a streaming one. Its numbers
//! attribute time to layers; end-to-end numbers never come from here.

use crate::api::{self, Accumulator, Cache, FleetSpec, LocalBackend, Remote};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{Exec, Plans};

/// `(metric name, value)` rows of one traced request.
pub type Row = Vec<(&'static str, f64)>;

/// Round trips behind `net.ping_rtt_us`.
const PINGS: usize = 20;

/// What the stages reuse across requests, warm like the fleet's own
/// backends: one in-process backend of the fleet's kind and, for a remote
/// fleet, one more connection to its first server.
pub struct Probe {
    backend: LocalBackend,
    remote: Option<Remote>,
    connect_s: f64,
}

impl Probe {
    pub fn new(exec: &Exec) -> Result<Probe, String> {
        let started = std::time::Instant::now();
        let remote = exec.fleet.first_server().map(Remote::connect).transpose()?;
        let connect_s = started.elapsed().as_secs_f64();
        Ok(Probe { backend: LocalBackend::of(&exec.fleet_spec), remote, connect_s })
    }
}

/// Per-name median over the rows of several requests.
pub fn medians(rows: &[Row]) -> Row {
    let mut names: Vec<&'static str> = Vec::new();
    for (name, _) in rows.iter().flatten() {
        if !names.contains(name) {
            names.push(name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> =
                rows.iter().flatten().filter(|(n, _)| *n == name).map(|(_, v)| *v).collect();
            (name, stats::median(&values))
        })
        .collect()
}

/// Takes request `r` of an execution workload apart (its first point, for
/// the sweep). Fails when a stage errors or the staged answer is wrong.
/// Beside the row it returns the seconds of the stages a streaming request
/// also runs, to hold against what that request says it took.
pub fn exec_request(
    rec: &mut Recorder,
    exec: &Exec,
    probe: &Probe,
    r: usize,
) -> Result<(Row, f64), String> {
    let point = exec.points_of(r).next().ok_or("request evaluates no point")?;
    if let Some(guard) = &point.guard {
        return Err(guard.clone());
    }
    let observable = point.observable.as_ref();
    let mut row: Row = Vec::new();
    let root = rec.begin_request(r, "request");

    // circuit.dag, core.planner, core.fragment
    let (_, dag_s) = rec.span("circuit.dag_build", || api::dag_build(&point.circuit));
    let (plan, plan_s) = rec.span("planner.plan", || api::plan(&point.circuit, &exec.spec.plan));
    let plan = plan?;
    let planned = plan.counts();
    let (pipeline, fragment_s) = rec.span("fragment.build", || api::Pipeline::from_plan(plan));
    let pipeline = pipeline?;
    row.extend([
        ("circuit.dag_build_s", dag_s),
        ("planner.heuristic_s", plan_s),
        ("planner.wire_cuts", planned.wire_cuts as f64),
        ("planner.gate_cuts", planned.gate_cuts as f64),
        ("planner.subcircuits", planned.subcircuits as f64),
        ("planner.max_width", planned.max_width as f64),
        ("planner.used_ilp", f64::from(u8::from(planned.used_ilp))),
        ("fragment.build_s", fragment_s),
        ("fragment.total_variants", pipeline.total_variants() as f64),
    ]);

    // enumeration, then the dedup the program does inside `prepare_batch`
    let (requests, enumerate_s) =
        rec.span("reconstruct.enumerate", || api::enumerate(&pipeline, observable));
    let requests = requests?;
    let keys = requests.unique();
    let (_, weight_s) =
        rec.span("schedule.variant_weight", || api::variant_weights(&pipeline, &requests, &keys));
    let (circuits, instantiate_s) =
        rec.span("fragment.instantiate", || api::instantiate(&pipeline, &requests, &keys));
    let batch = api::dedup_structural(circuits?);
    row.extend([
        ("reconstruct.enumerate_s", enumerate_s),
        ("reconstruct.requests", requests.len() as f64),
        ("schedule.variant_weight_s", weight_s),
        ("fragment.instantiate_s", instantiate_s),
        ("execute.requested", requests.len() as f64),
        ("execute.unique_variants", keys.len() as f64),
        ("execute.executed", batch.len() as f64),
        ("execute.dedup_ratio", batch.len() as f64 / requests.len().max(1) as f64),
    ]);

    // circuit.qasm over the deduplicated batch
    let (documents, encode_s) = rec.span("circuit.qasm_encode", || api::qasm_encode(&batch));
    let (parsed, parse_s) = rec.span("circuit.qasm_parse", || api::qasm_parse(&documents));
    parsed?;
    row.extend([
        ("circuit.qasm_encode_s", encode_s),
        ("circuit.qasm_parse_s", parse_s),
        ("circuit.qasm_bytes", documents.iter().map(String::len).sum::<usize>() as f64),
    ]);

    // sim: compile, then the batch on a warm backend of the fleet's kind
    let (compiled, compile_s) = rec.span("sim.compile", || api::compile(&batch));
    row.extend([
        ("sim.compile_s", compile_s),
        ("sim.kernels", compiled.kernels as f64),
        ("sim.fusion_ratio", compiled.fusion_ratio),
        ("sim.coverage", compiled.coverage),
        ("sim.amp_updates", compiled.amp_updates),
    ]);
    let shots = match exec.spec.policy.budget {
        Some(budget) => (budget / batch.len().max(1) as u64).max(exec.spec.policy.min_shots),
        None => probe.backend.shots().unwrap_or(0),
    };
    let sampling = probe.backend.shots().is_some();
    let (distributions, run_s) = rec
        .span(if sampling { "sim.sample" } else { "sim.run_batch" }, || {
            probe.backend.run_batch(&batch, shots)
        });
    let distributions = distributions?;
    if sampling {
        let spent = shots as f64 * batch.len() as f64;
        row.extend([
            ("sim.sample_s", run_s),
            ("sim.shots_per_s", spent / run_s.max(f64::MIN_POSITIVE)),
        ]);
    } else {
        row.push(("sim.run_batch_s", run_s));
    }

    if let (Some(remote), FleetSpec::Remote { .. }) = (&probe.remote, &exec.fleet_spec) {
        let chunk = exec.spec.policy.chunk_size.max(1);
        net_stages(rec, &mut row, probe, remote, &batch, &documents, &distributions, chunk)?;
    }
    if matches!(exec.fleet_spec, FleetSpec::Shots { cached: true, .. }) {
        let cache = Cache::new();
        let (_, store_s) = rec.span("cache.store", || {
            for (circuit, distribution) in batch.iter().zip(&distributions) {
                cache.store(circuit, distribution, Some(shots));
            }
        });
        let (hits, lookup_s) = rec.span("cache.lookup", || {
            batch.iter().filter(|circuit| cache.lookup(circuit, Some(shots))).count()
        });
        if hits != batch.len() {
            return Err(format!("cache served {hits} of {} stored circuits", batch.len()));
        }
        row.extend([("cache.store_s", store_s), ("cache.lookup_s", lookup_s)]);
    }

    // core.execute: the program's own dedup + instantiate + run_batch
    let (results, execute_s) = rec.span("execute.execute_requests", || {
        api::execute_requests(&pipeline, &requests, &probe.backend)
    });
    let results = results?;
    if results.executed() != batch.len() as u64 || results.unique_variants() != keys.len() {
        return Err(format!(
            "program deduplicated to {} keys / {} circuits, harness to {} / {}",
            results.unique_variants(),
            results.executed(),
            keys.len(),
            batch.len()
        ));
    }
    row.push(("execute.prepare_s", (execute_s - run_s).max(0.0)));

    // core.reconstruct: fold the whole batch, then contract
    let (folded, fold_s) = rec.span("reconstruct.fold", || {
        let mut accumulator = Accumulator::new(&pipeline, observable)?;
        accumulator.absorb(results)?;
        Ok::<_, String>(accumulator)
    });
    let mut accumulator = folded?;
    let (finished, contract_s) = rec.span("reconstruct.contract", || accumulator.finish());
    let (answer, recon) = finished?;
    rec.end(root);

    let error = answer.distance(&point.reference);
    if error.is_nan() || error > exec.spec.tolerance {
        return Err(format!("staged answer off the reference by {error:e}"));
    }
    row.extend([
        ("reconstruct.fold_s", fold_s),
        ("reconstruct.contract_s", contract_s),
        ("reconstruct.contractions", recon.contractions as f64),
        ("reconstruct.strategy_dense", f64::from(u8::from(recon.strategy_dense))),
        ("reconstruct.pruned_mass", recon.pruned_mass),
    ]);
    Ok((row, enumerate_s + execute_s + fold_s + contract_s))
}

/// The batch over one remote connection in `chunk`-circuit submissions,
/// the same chunks in process, and the frame codec on the same payloads.
#[allow(clippy::too_many_arguments)]
fn net_stages(
    rec: &mut Recorder,
    row: &mut Row,
    probe: &Probe,
    remote: &Remote,
    batch: &[api::Circuit],
    documents: &[String],
    distributions: &[Vec<f64>],
    chunk: usize,
) -> Result<(), String> {
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        pings.push(remote.ping_s()?);
    }
    let (remote_run, remote_s) = rec.span("net.run_batch", || {
        batch.chunks(chunk).try_for_each(|c| remote.run_batch(c).map(drop))
    });
    remote_run?;
    let (local_run, local_s) = rec.span("net.local_run_batch", || {
        batch.chunks(chunk).try_for_each(|c| probe.backend.run_batch(c, 0).map(drop))
    });
    local_run?;

    let (submits, encode_s) = rec.span("net.frame_encode", || {
        documents
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| api::frame_submit(i as u64, c))
            .collect::<Result<Vec<_>, _>>()
    });
    let submits = submits?;
    let replies = distributions
        .iter()
        .enumerate()
        .map(|(i, d)| api::frame_result((i / chunk) as u64, (i % chunk) as u32, d))
        .collect::<Result<Vec<_>, _>>()?;
    let (decoded, decode_s) = rec.span("net.frame_decode", || {
        submits.iter().chain(&replies).try_for_each(|wire| api::frame_decode(wire))
    });
    decoded?;
    row.extend([
        ("net.connect_s", probe.connect_s),
        ("net.ping_rtt_us", stats::median(&pings) * 1e6),
        ("net.run_batch_s", remote_s),
        ("net.overhead_s", remote_s - local_s),
        ("net.frame_encode_s", encode_s),
        ("net.frame_decode_s", decode_s),
        ("net.frame_bytes_tx", submits.iter().map(Vec::len).sum::<usize>() as f64),
        ("net.frame_bytes_rx", replies.iter().map(Vec::len).sum::<usize>() as f64),
    ]);
    Ok(())
}

/// Takes a planning request apart: per case the DAG build, the plan, and —
/// for the ILP workload — the heuristic alone and the model solved from
/// scratch. Counts are summed over the cases (`max_width` is their max).
pub fn plans_request(rec: &mut Recorder, plans: &Plans, r: usize) -> Result<Row, String> {
    let root = rec.begin_request(r, "request");
    let (mut dag_s, mut heuristic_s, mut solve_s) = (0.0, 0.0, 0.0);
    let (mut wire, mut gate, mut subcircuits, mut max_width, mut used_ilp) = (0, 0, 0, 0, 0);
    let (mut vars, mut constraints, mut optimal) = (0, 0, true);
    for case in &plans.cases {
        let named = |e: String| format!("{}: {e}", case.name);
        dag_s += rec.span("circuit.dag_build", || api::dag_build(&case.circuit)).1;
        let (plan, plan_s) = rec.span("planner.plan", || api::plan(&case.circuit, &case.spec));
        let plan = plan.map_err(named)?;
        plan.check().map_err(named)?;
        let counts = plan.counts();
        wire += counts.wire_cuts;
        gate += counts.gate_cuts;
        subcircuits += counts.subcircuits;
        max_width = max_width.max(counts.max_width);
        used_ilp += usize::from(counts.used_ilp);
        if plans.ilp {
            let heuristic = api::PlanSpec { ilp: false, ..case.spec };
            let (alone, alone_s) =
                rec.span("planner.heuristic", || api::plan(&case.circuit, &heuristic));
            alone.map_err(named)?;
            heuristic_s += alone_s;
            let (ilp, ilp_s) = rec.span("ilp.solve", || api::ilp_solve(&plan, &case.spec));
            solve_s += ilp_s;
            vars += ilp.vars;
            constraints += ilp.constraints;
            optimal &= ilp.optimal;
        } else {
            heuristic_s += plan_s;
        }
    }
    rec.end(root);
    let mut row: Row = vec![
        ("circuit.dag_build_s", dag_s),
        ("planner.heuristic_s", heuristic_s),
        ("planner.wire_cuts", wire as f64),
        ("planner.gate_cuts", gate as f64),
        ("planner.subcircuits", subcircuits as f64),
        ("planner.max_width", max_width as f64),
        ("planner.used_ilp", used_ilp as f64),
    ];
    if plans.ilp {
        row.extend([
            ("ilp.solve_s", solve_s),
            ("ilp.vars", vars as f64),
            ("ilp.constraints", constraints as f64),
            ("ilp.optimal", f64::from(u8::from(optimal))),
        ]);
    }
    Ok(row)
}
