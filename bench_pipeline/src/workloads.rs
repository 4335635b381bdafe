//! The eight workloads: what their inputs are, how one request runs, and how
//! its answer is judged. See `WORKLOADS.md` for why each was chosen.
//!
//! Inputs come from `--seed`, but only where the seed cannot change how much
//! work a request is: rotation angles, the product state in front of the
//! seedless generators, and device sampling seeds. What decides the plan —
//! the interaction graph, the gate pattern — is fixed, so no seed runs into
//! the variant guard and counts repeat across seeds.

use crate::api::{
    self, Answer, Circuit, Fleet, FleetCounters, FleetSpec, Observable, Pipeline, Plan, PlanCounts,
    PlanSpec, Policy, StreamReport,
};
use std::collections::BTreeMap;

/// A workload whose plan asks for more variants than this is recorded as a
/// failed request and never enumerated: SPM 3×4 on 7 qubits plans to 11
/// wire cuts and was OOM-killed at 15 GB inside `requests()`.
pub const VARIANT_GUARD: u64 = 2_000_000;

/// An exact answer further than this from the uncut state vector is wrong.
pub const EXACT_TOLERANCE: f64 = 1e-9;
/// A sampled ⟨O⟩ further than this is wrong (⟨O⟩ ≈ 6.35; the worst
/// 256-shot point seen while sizing was off by 0.32).
pub const SAMPLED_TOLERANCE: f64 = 1.0;

/// The interaction graph of the three `reg8_*` workloads.
const REG8_GRAPH_SEED: u64 = 3;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Timed requests of a ledger run (a `--seconds` run takes what fits).
    pub requests: usize,
    kind: Kind,
}

enum Kind {
    Execute(ExecSpec),
    Plans { cases: fn(u64) -> Vec<Case>, ilp: bool },
}

#[derive(Clone)]
pub struct ExecSpec {
    /// The circuit (and observable) of sweep point `point`.
    input: fn(seed: u64, point: usize) -> (Circuit, Option<Observable>),
    pub plan: PlanSpec,
    fleet: fn(seed: u64) -> FleetSpec,
    pub policy: Policy,
    pub tolerance: f64,
    /// Request `r` evaluates points `r·stride .. r·stride + points`.
    points: usize,
    stride: usize,
}

pub struct Case {
    pub name: &'static str,
    pub circuit: Circuit,
    pub spec: PlanSpec,
}

// ---- seeds -------------------------------------------------------------------

/// splitmix64: the one generator the harness itself draws from.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn derive(seed: u64, salt: u64) -> u64 {
    mix(seed ^ mix(salt))
}

/// `n` angles in (−π, π) drawn from `seed`.
fn angles(seed: u64, n: usize) -> Vec<f64> {
    (0..n as u64)
        .map(|i| {
            let unit = (derive(seed, i) >> 11) as f64 / (1u64 << 53) as f64;
            (2.0 * unit - 1.0) * std::f64::consts::PI
        })
        .collect()
}

// ---- the table ------------------------------------------------------------------

const HEURISTIC: fn(usize) -> PlanSpec = |device| PlanSpec { device, gate_cuts: false, ilp: false };
const IN_ORDER: Policy = Policy { budget: None, min_shots: 1, chunk_size: 0, window: 0 };

/// QAOA MaxCut on the fixed 3-regular 8-node graph, angles from `angle_seed`.
fn reg8_point(angle_seed: u64) -> (Circuit, Option<Observable>) {
    let graph = api::regular_graph(8, 3, REG8_GRAPH_SEED);
    let (circuit, maxcut) = api::qaoa_maxcut(&graph, 1, angle_seed);
    (circuit, Some(maxcut))
}

fn reg8_input(seed: u64, point: usize) -> (Circuit, Option<Observable>) {
    reg8_point(derive(seed, 0x4e8 + point as u64))
}

/// Under a shot budget the QAOA angles are part of the cost: they weight the
/// gate-cut instances, the allocator follows the weights, and a shot on a
/// mid-circuit-measuring variant costs more than one on a plain variant —
/// seeded angles moved a request between 0.13 s and 0.48 s. So the budgeted
/// workload keeps the angles of `qaoa_regular(8,3,1,3)` and takes only its
/// sampling seeds from `--seed`.
fn reg8_fixed_angles(_seed: u64, _point: usize) -> (Circuit, Option<Observable>) {
    reg8_point(REG8_GRAPH_SEED + 1)
}

const REG8_PLAN: PlanSpec = PlanSpec { device: 5, gate_cuts: true, ilp: false };

fn two_shot_devices(seed: u64, shots: u64, cached: bool) -> FleetSpec {
    FleetSpec::Shots {
        device: 5,
        shots,
        seeds: vec![derive(seed, 0xd0), derive(seed, 0xd1)],
        cached,
    }
}

fn plan_wide_cases(seed: u64) -> Vec<Case> {
    let graph = api::regular_graph(40, 5, 1);
    let gate_cut = PlanSpec { device: 27, gate_cuts: true, ilp: false };
    vec![
        Case { name: "qft24", circuit: api::qft(24), spec: HEURISTIC(16) },
        Case {
            name: "spm5x6",
            circuit: api::supremacy(5, 6, 8, derive(seed, 1)),
            spec: HEURISTIC(16),
        },
        Case { name: "add14", circuit: api::adder(14, derive(seed, 2)), spec: HEURISTIC(16) },
        Case { name: "aqft30", circuit: api::aqft(30, 5), spec: HEURISTIC(16) },
        Case {
            name: "reg40",
            circuit: api::qaoa_maxcut(&graph, 1, derive(seed, 3)).0,
            spec: gate_cut,
        },
        Case { name: "vqe42", circuit: api::vqe(42, 2, derive(seed, 4)).0, spec: HEURISTIC(27) },
    ]
}

fn plan_ilp_cases(seed: u64) -> Vec<Case> {
    let spec = PlanSpec { device: 4, gate_cuts: false, ilp: true };
    vec![Case { name: "spm2x3", circuit: api::supremacy(2, 3, 3, derive(seed, 5)), spec }]
}

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "aqft20_prob",
            why: "AQFT-20 on 12 qubits, 3 wire cuts: the only dense 2^20 probability payload, so contraction dominates",
            requests: 12,
            kind: Kind::Execute(ExecSpec {
                // Rotating the first four wires makes the output depend on the
                // seed and keeps the plan (two 4-qubit reuse chains). Rotating
                // all twenty breaks the chains: fragments of 10 and 12 qubits,
                // 8 s and 1.1 GB per request.
                input: |seed, _| (api::with_prologue(&api::aqft(20, 4), &angles(seed, 4)), None),
                plan: HEURISTIC(12),
                fleet: |_| FleetSpec::Exact { device: 12 },
                policy: IN_ORDER,
                tolerance: EXACT_TOLERANCE,
                points: 1,
                stride: 0,
            }),
        },
        Spec {
            name: "tfim12_expect",
            why: "TFIM 3x4 on 8 qubits, 4 wire cuts, many Pauli terms: scalar payload, so the fold dominates",
            requests: 10,
            kind: Kind::Execute(ExecSpec {
                // the seed sets the Trotter step in 0.05..0.15; a rotation in
                // front of every wire would move the plan from 4 cuts to 5
                input: |seed, _| {
                    let (circuit, ising) = api::tfim(3, 4, 0.1 + angles(seed, 1)[0] / 64.0);
                    (circuit, Some(ising))
                },
                plan: HEURISTIC(8),
                fleet: |_| FleetSpec::Exact { device: 8 },
                policy: IN_ORDER,
                tolerance: EXACT_TOLERANCE,
                points: 1,
                stride: 0,
            }),
        },
        Spec {
            name: "vqe20_sim",
            why: "VQE-20 on 12 qubits, 25 twelve-qubit circuits: amplitude sweeps dominate, reconstruction is idle",
            requests: 8,
            kind: Kind::Execute(ExecSpec {
                input: |seed, _| {
                    let (circuit, all_z) = api::vqe(20, 2, derive(seed, 0x20));
                    (circuit, Some(all_z))
                },
                plan: HEURISTIC(12),
                fleet: |_| FleetSpec::Exact { device: 12 },
                policy: IN_ORDER,
                tolerance: EXACT_TOLERANCE,
                points: 1,
                stride: 0,
            }),
        },
        Spec {
            name: "reg8_gate_fleet",
            why: "REG-8 QAOA, 1 wire + 3 gate cuts, 875 cheap circuits over 2 loopback servers in 16-circuit chunks: QASM, framing and dispatch show",
            requests: 100,
            kind: Kind::Execute(ExecSpec {
                input: reg8_input,
                plan: REG8_PLAN,
                fleet: |_| FleetSpec::Remote { device: 5, workers: 2 },
                policy: Policy { budget: None, min_shots: 1, chunk_size: 16, window: 2 },
                tolerance: EXACT_TOLERANCE,
                points: 1,
                stride: 0,
            }),
        },
        Spec {
            name: "reg8_gate_sampled",
            why: "same plan on two seeded sampling devices under a 1M-shot budget: the sampling kernel and the shot allocator, with a real error",
            requests: 24,
            kind: Kind::Execute(ExecSpec {
                input: reg8_fixed_angles,
                plan: REG8_PLAN,
                fleet: |seed| two_shot_devices(seed, 1024, false),
                policy: Policy { budget: Some(1_000_000), min_shots: 16, chunk_size: 64, window: 0 },
                tolerance: SAMPLED_TOLERANCE,
                points: 1,
                stride: 0,
            }),
        },
        Spec {
            name: "reg8_sweep_cached",
            why: "8-point QAOA angle sweep sliding by 4 per request through the result cache: half hits, half misses and stores",
            requests: 12,
            kind: Kind::Execute(ExecSpec {
                input: reg8_input,
                plan: REG8_PLAN,
                fleet: |seed| two_shot_devices(seed, 256, true),
                policy: IN_ORDER,
                tolerance: SAMPLED_TOLERANCE,
                points: 8,
                stride: 4,
            }),
        },
        Spec {
            name: "plan_wide",
            why: "heuristic planning of six paper-scale circuits (24-42 qubits) no simulator here can run: DAG build and cut search",
            requests: 4,
            kind: Kind::Plans { cases: plan_wide_cases, ilp: false },
        },
        Spec {
            name: "plan_ilp",
            why: "default-config planning of a 31-node DAG whose ILP refinement reaches optimal well inside its time limit",
            requests: 8,
            kind: Kind::Plans { cases: plan_ilp_cases, ilp: true },
        },
    ]
}

// ---- a workload, set up ---------------------------------------------------------------

/// One evaluated circuit: its pipeline and the uncut answer it must match.
pub struct Point {
    pub circuit: Circuit,
    pub observable: Option<Observable>,
    pub pipeline: Pipeline,
    pub reference: Answer,
    /// Why the point must not be enumerated, if a guard was hit.
    pub guard: Option<String>,
}

pub struct Exec {
    pub spec: ExecSpec,
    pub fleet_spec: FleetSpec,
    pub fleet: Fleet,
    seed: u64,
    points: BTreeMap<usize, Point>,
}

pub struct Plans {
    pub cases: Vec<Case>,
    pub ilp: bool,
}

pub enum Workload {
    Exec(Box<Exec>),
    Plans(Plans),
}

/// What the timed part of a request hands back, unjudged.
pub enum Raw {
    Exec(Vec<Result<(Answer, StreamReport), String>>),
    Plans(Vec<Result<Plan, String>>),
}

/// One judged request.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Why the request counts as failed, refused or wrong.
    pub failure: Option<String>,
    /// |answer − reference| of every evaluated point.
    pub errors: Vec<f64>,
    pub shots: u64,
    pub cuts_effective: f64,
    pub reports: Vec<StreamReport>,
    pub plans: Vec<PlanCounts>,
}

impl Workload {
    /// Generators, uncut reference, plan and fleet for request 0.
    pub fn setup(spec: &Spec, seed: u64) -> Result<Workload, String> {
        match &spec.kind {
            Kind::Plans { cases, ilp } => {
                Ok(Workload::Plans(Plans { cases: cases(seed), ilp: *ilp }))
            }
            Kind::Execute(exec) => {
                let fleet_spec = (exec.fleet)(seed);
                let mut exec = Exec {
                    spec: exec.clone(),
                    fleet: Fleet::build(&fleet_spec)?,
                    fleet_spec,
                    seed,
                    points: BTreeMap::new(),
                };
                exec.prepare(0)?;
                Ok(Workload::Exec(Box::new(exec)))
            }
        }
    }

    /// The fleet's cumulative counters (all zero for a planning workload).
    pub fn fleet_counters(&self) -> FleetCounters {
        match self {
            Workload::Exec(exec) => exec.fleet.counters(),
            Workload::Plans(_) => FleetCounters::default(),
        }
    }

    /// Untimed: builds what request `r` evaluates and forgets older points.
    pub fn prepare(&mut self, r: usize) -> Result<(), String> {
        match self {
            Workload::Exec(exec) => exec.prepare(r),
            Workload::Plans(_) => Ok(()),
        }
    }

    /// The timed part of request `r`: calls into the program, nothing else.
    pub fn run(&self, r: usize) -> Raw {
        match self {
            Workload::Exec(exec) => Raw::Exec(
                exec.points_of(r)
                    .map(|point| match &point.guard {
                        Some(guard) => Err(guard.clone()),
                        None => api::stream(
                            &point.pipeline,
                            &exec.fleet,
                            &exec.spec.policy,
                            point.observable.as_ref(),
                        ),
                    })
                    .collect(),
            ),
            Workload::Plans(plans) => {
                Raw::Plans(plans.cases.iter().map(|c| api::plan(&c.circuit, &c.spec)).collect())
            }
        }
    }

    /// Checks request `r`'s answers against the uncut reference (or, for
    /// plans, against the device and the ILP limit).
    pub fn judge(&self, r: usize, raw: Raw, wall_s: f64) -> Outcome {
        let mut outcome = Outcome::default();
        let fail = |outcome: &mut Outcome, why: String| {
            outcome.failure.get_or_insert(why);
        };
        match (self, raw) {
            (Workload::Exec(exec), Raw::Exec(answers)) => {
                for (point, answer) in exec.points_of(r).zip(answers) {
                    outcome.cuts_effective += point.pipeline.counts().effective_cuts;
                    match answer {
                        Err(why) => fail(&mut outcome, why),
                        Ok((answer, report)) => {
                            let error = answer.distance(&point.reference);
                            // NaN must not pass
                            if error.is_nan() || error > exec.spec.tolerance {
                                fail(
                                    &mut outcome,
                                    format!("answer off the reference by {error:e}"),
                                );
                            }
                            outcome.errors.push(error);
                            outcome.shots += report.total_shots;
                            outcome.reports.push(report);
                        }
                    }
                }
            }
            (Workload::Plans(plans), Raw::Plans(results)) => {
                for (case, result) in plans.cases.iter().zip(results) {
                    let plan = match result {
                        Ok(plan) => plan,
                        Err(why) => {
                            fail(&mut outcome, format!("{}: {why}", case.name));
                            continue;
                        }
                    };
                    if let Err(why) = plan.check() {
                        fail(&mut outcome, format!("{}: {why}", case.name));
                    }
                    let counts = plan.counts();
                    if plans.ilp && !counts.used_ilp {
                        fail(
                            &mut outcome,
                            format!("{}: the ILP did not refine the plan", case.name),
                        );
                    }
                    outcome.cuts_effective += counts.effective_cuts;
                    outcome.plans.push(counts);
                }
                // a wall-clock equal to a timeout is not a measurement
                let limit: f64 = plans.cases.iter().map(|c| c.spec.ilp_limit_s()).sum();
                if plans.ilp && wall_s >= 0.98 * limit {
                    fail(
                        &mut outcome,
                        format!("{wall_s:.3} s is within 2% of the {limit} s ILP limit"),
                    );
                }
            }
            _ => fail(&mut outcome, "request and workload kinds differ".into()),
        }
        outcome
    }
}

impl Exec {
    fn range(&self, r: usize) -> std::ops::Range<usize> {
        r * self.spec.stride..r * self.spec.stride + self.spec.points
    }

    pub fn points_of(&self, r: usize) -> impl Iterator<Item = &Point> {
        self.range(r).map(|i| &self.points[&i])
    }

    fn prepare(&mut self, r: usize) -> Result<(), String> {
        let range = self.range(r);
        self.points.retain(|i, _| range.contains(i));
        for i in range {
            if !self.points.contains_key(&i) {
                let point = self.point(i)?;
                self.points.insert(i, point);
            }
        }
        Ok(())
    }

    fn point(&self, index: usize) -> Result<Point, String> {
        let (circuit, observable) = (self.spec.input)(self.seed, index);
        let reference = api::reference(&circuit, observable.as_ref())?;
        let pipeline = Pipeline::from_plan(api::plan(&circuit, &self.spec.plan)?)?;
        let counts = pipeline.counts();
        let cuts = counts.wire_cuts + counts.gate_cuts;
        let guard = if cuts > api::CUT_GUARD {
            Some(format!(
                "guard: {cuts} cuts exceed the {} the engine reconstructs",
                api::CUT_GUARD
            ))
        } else if pipeline.total_variants() > VARIANT_GUARD {
            Some(format!("guard: {} variants exceed {VARIANT_GUARD}", pipeline.total_variants()))
        } else {
            None
        };
        Ok(Point { circuit, observable, pipeline, reference, guard })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_and_angles_repeat_and_differ() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
        let a = angles(3, 20);
        assert_eq!(a, angles(3, 20));
        assert_ne!(a, angles(4, 20));
        assert!(a.iter().all(|x| x.abs() <= std::f64::consts::PI));
    }

    #[test]
    fn workload_names_are_unique_and_whys_fit_the_contract() {
        let specs = all();
        assert_eq!(specs.len(), 8);
        for (i, spec) in specs.iter().enumerate() {
            assert!(specs[..i].iter().all(|other| other.name != spec.name));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
            assert!(spec.requests >= 2);
        }
    }

    #[test]
    fn the_sweep_slides_by_half_its_window() {
        let specs = all();
        let sweep = specs.iter().find(|s| s.name == "reg8_sweep_cached").unwrap();
        let Kind::Execute(exec) = &sweep.kind else { panic!("sweep executes") };
        assert_eq!((exec.points, exec.stride), (8, 4));
    }
}
