//! End to end through a scheduler over loopback, the batches the key path
//! cannot carry — more than `MAX_FRAGMENTS` fragments in one job, or a
//! fragment body heavier than `MAX_FRAGMENT_WEIGHT` — travel as OpenQASM
//! `SubmitBatch` frames and answer exactly what the in-process backend
//! answers. A frame-counting relay between client and server shows which
//! path each submission took. (A job heavier than `MAX_BATCH_WEIGHT` has a
//! test binary of its own, `keyed_over_cap.rs`, which also bounds its
//! memory.)

mod relay;

use qrcc_circuit::Circuit;
use qrcc_core::execute::ExactBackend;
use qrcc_core::fragment::{FragmentSet, VariantKey, VariantRequest};
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::planner::CutPlanner;
use qrcc_core::{DeviceRegistry, QrccConfig, SchedulePolicy, Scheduler};
use qrcc_net::proto::{MAX_FRAGMENTS, MAX_FRAGMENT_WEIGHT};
use relay::{bitwise, scheduled, tailed_chain, through_relay};
use std::time::Duration;

#[test]
fn a_job_over_more_fragments_than_a_table_holds_goes_as_qasm() {
    // 40 small plans' fragments under one set: one job names them all
    let mut union: Option<FragmentSet> = None;
    for i in 0..40 {
        let mut circuit = Circuit::new(4);
        circuit.ry(0.1 + 0.05 * i as f64, 0).h(1).cx(0, 1).cx(1, 2).ry(0.3, 2).cx(2, 3);
        let config =
            QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&circuit).unwrap();
        let set = FragmentSet::from_plan(&plan).unwrap();
        match &mut union {
            None => union = Some(set),
            Some(union) => union.fragments.extend(set.fragments),
        }
    }
    let union = union.unwrap();
    assert!(union.fragments.len() > MAX_FRAGMENTS as usize, "{}", union.fragments.len());
    let requests: Vec<VariantRequest> = union
        .fragments
        .iter()
        .enumerate()
        .flat_map(|(index, fragment)| {
            (0..fragment.variant_count().min(2))
                .map(move |ordinal| VariantRequest { key: VariantKey::new(index, ordinal, 0) })
        })
        .collect();

    let mut local = DeviceRegistry::new();
    local.register("exact", ExactBackend::new());
    let expected = scheduled(&local, &union, &requests);
    let mut remote = None;
    let (qasm, keys, defines) = through_relay(|registry| {
        remote = Some(scheduled(registry, &union, &requests));
    });
    assert_eq!((qasm, keys, defines), (1, 0, 0), "the one job went as OpenQASM");
    assert_eq!(bitwise(&remote.unwrap()), bitwise(&expected));
}

#[test]
fn a_fragment_heavier_than_the_body_cap_goes_as_qasm_and_reconstructs_exactly() {
    // a chain cut once on a 3-qubit device, with a long rotation tail on the
    // last wire: the fragment holding it outweighs one table slot
    let circuit = tailed_chain(4, MAX_FRAGMENT_WEIGHT);
    let config = QrccConfig::new(3).with_subcircuit_range(2, 2).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();
    let heaviest = pipeline.fragments().fragments.iter().map(|f| f.body().weight()).max();
    assert!(heaviest > Some(MAX_FRAGMENT_WEIGHT), "{heaviest:?}");

    let mut local = DeviceRegistry::new();
    local.register("exact", ExactBackend::new());
    let scheduler = Scheduler::new(&local, SchedulePolicy::default());
    let (expected, _, _) = pipeline.execute_streaming(&scheduler).unwrap();
    let mut remote = None;
    let (qasm, keys, _) = through_relay(|registry| {
        let scheduler = Scheduler::new(registry, SchedulePolicy::default());
        remote = Some(pipeline.execute_streaming(&scheduler).unwrap().0);
    });
    assert_eq!((qasm, keys), (1, 0), "the one job went as OpenQASM");
    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&remote.unwrap()), bits(&expected));
}
