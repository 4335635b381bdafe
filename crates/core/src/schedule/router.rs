//! Deterministic per-circuit placement over a [`DeviceRegistry`].

use super::registry::DeviceRegistry;
use crate::execute::CircuitShape;
use crate::CoreError;

/// Routes each circuit, by its shape, to a compatible registry backend,
/// returning the entry index per circuit.
///
/// Placement is a deterministic greedy pass: circuits are considered widest
/// first (so scarce large devices are claimed before narrow circuits fill
/// them), and each goes to the compatible backend with the smallest
/// projected load — `Σ shots × cost_per_shot` of the circuits already
/// assigned to it — with ties broken towards the smaller device, then the
/// earlier registration.
///
/// `shots[i]` is the allocated shot count of circuit `i`; when the batch
/// runs without a budget the backend's own default (or 1 for exact
/// backends) stands in as the load estimate.
///
/// # Errors
///
/// [`CoreError::NoCompatibleBackend`] when some circuit fits no registered
/// backend.
pub(crate) fn route(
    registry: &DeviceRegistry,
    circuits: &[CircuitShape],
    shots: Option<&[u64]>,
) -> Result<Vec<usize>, CoreError> {
    let entries = registry.entries();
    let mut order: Vec<usize> = (0..circuits.len()).collect();
    order.sort_by(|&a, &b| circuits[b].num_qubits.cmp(&circuits[a].num_qubits).then(a.cmp(&b)));

    let mut load = vec![0.0f64; entries.len()];
    let mut assignment = vec![usize::MAX; circuits.len()];
    for &index in &order {
        let circuit = &circuits[index];
        let mut best: Option<(f64, usize)> = None;
        for (entry_index, entry) in entries.iter().enumerate() {
            if !entry.backend().can_run(circuit) {
                continue;
            }
            // load estimate: allocated shots, else the backend's default,
            // else one unit per circuit (exact backends)
            let effective = match shots {
                Some(s) => s[index],
                None => entry.backend().shots_per_circuit().unwrap_or(1),
            };
            let projected = load[entry_index] + effective.max(1) as f64 * entry.cost_per_shot();
            let better = match best {
                None => true,
                Some((best_load, best_entry)) => {
                    let best_max = entries[best_entry].max_qubits().unwrap_or(usize::MAX);
                    let this_max = entry.max_qubits().unwrap_or(usize::MAX);
                    projected < best_load || (projected == best_load && this_max < best_max)
                }
            };
            if better {
                best = Some((projected, entry_index));
            }
        }
        let Some((projected, entry_index)) = best else {
            return Err(CoreError::NoCompatibleBackend {
                required: circuit.num_qubits,
                backends: entries.len(),
            });
        };
        load[entry_index] = projected;
        assignment[index] = entry_index;
    }
    Ok(assignment)
}

/// Re-routes one failed circuit for the dispatcher: picks the **narrowest**
/// compatible backend whose entry index is not in `excluded` (ties towards
/// the earlier registration). When every compatible backend has already
/// failed this circuit, the exclusion list is waived — the failure may have
/// been transient — and the second tuple element reports the fallback as a
/// *requeue* so telemetry can distinguish it from a clean re-route.
///
/// Unlike the batch [`route`] pass this ignores projected load: retries are
/// rare, and a load-free rule keeps the retry target a pure function of
/// `(circuit, excluded, registry)` — independent of worker timing, so retry
/// schedules stay reproducible.
///
/// # Errors
///
/// [`CoreError::NoCompatibleBackend`] when no registered backend can run the
/// circuit at all (impossible after a successful initial routing, but kept
/// as a typed guard).
pub(crate) fn route_retry(
    registry: &DeviceRegistry,
    circuit: &CircuitShape,
    excluded: &[usize],
) -> Result<(usize, bool), CoreError> {
    let entries = registry.entries();
    let pick = |waive_exclusions: bool| {
        entries
            .iter()
            .enumerate()
            .filter(|(index, entry)| {
                (waive_exclusions || !excluded.contains(index)) && entry.backend().can_run(circuit)
            })
            .min_by_key(|(index, entry)| (entry.max_qubits().unwrap_or(usize::MAX), *index))
            .map(|(index, _)| index)
    };
    if let Some(entry) = pick(false) {
        return Ok((entry, false));
    }
    match pick(true) {
        Some(entry) => Ok((entry, true)),
        None => Err(CoreError::NoCompatibleBackend {
            required: circuit.num_qubits,
            backends: entries.len(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::ExactBackend;

    fn circuit(width: usize) -> CircuitShape {
        CircuitShape { num_qubits: width, num_clbits: width, reuses_wires: false }
    }

    #[test]
    fn wide_circuits_go_to_the_wide_backend() {
        let mut registry = DeviceRegistry::new();
        registry.register("big", ExactBackend::capped(3));
        registry.register("small", ExactBackend::capped(2));
        let circuits = vec![circuit(3), circuit(2), circuit(3), circuit(2)];
        let assignment = route(&registry, &circuits, None).unwrap();
        assert_eq!(assignment[0], 0);
        assert_eq!(assignment[2], 0);
        // narrow circuits land on the small (less loaded) device
        assert_eq!(assignment[1], 1);
        assert_eq!(assignment[3], 1);
    }

    #[test]
    fn load_balances_across_equal_backends() {
        let mut registry = DeviceRegistry::new();
        registry.register("a", ExactBackend::capped(2));
        registry.register("b", ExactBackend::capped(2));
        let circuits: Vec<CircuitShape> = (0..6).map(|_| circuit(2)).collect();
        let assignment = route(&registry, &circuits, None).unwrap();
        let on_a = assignment.iter().filter(|&&e| e == 0).count();
        assert_eq!(on_a, 3, "even split across equal devices: {assignment:?}");
    }

    #[test]
    fn allocated_shots_drive_the_balance() {
        let mut registry = DeviceRegistry::new();
        registry.register("a", ExactBackend::capped(2));
        registry.register("b", ExactBackend::capped(2));
        // one heavy circuit and three light ones: the heavy one should sit
        // alone while the light ones share the other backend
        let circuits: Vec<CircuitShape> = (0..4).map(|_| circuit(2)).collect();
        let shots = vec![900u64, 100, 100, 100];
        let assignment = route(&registry, &circuits, Some(&shots)).unwrap();
        let heavy = assignment[0];
        assert!(assignment[1..].iter().all(|&e| e != heavy), "{assignment:?}");
    }

    #[test]
    fn unplaceable_circuits_error() {
        let mut registry = DeviceRegistry::new();
        registry.register("small", ExactBackend::capped(2));
        let err = route(&registry, &[circuit(4)], None);
        assert!(matches!(err, Err(CoreError::NoCompatibleBackend { required: 4, backends: 1 })));
    }

    #[test]
    fn retry_routing_excludes_the_failer_then_requeues() {
        let mut registry = DeviceRegistry::new();
        registry.register("big", ExactBackend::capped(3));
        registry.register("small", ExactBackend::capped(2));
        let c = circuit(2);
        // nothing excluded: narrowest compatible wins
        assert_eq!(route_retry(&registry, &c, &[]).unwrap(), (1, false));
        // the narrow backend failed: fall over to the wide one
        assert_eq!(route_retry(&registry, &c, &[1]).unwrap(), (0, false));
        // both failed: requeue on the narrowest again, flagged as a requeue
        assert_eq!(route_retry(&registry, &c, &[1, 0]).unwrap(), (1, true));
        // a 3-wide circuit only ever fits the big backend
        assert_eq!(route_retry(&registry, &circuit(3), &[0]).unwrap(), (0, true));
        // nothing fits a 4-wide circuit at all
        assert!(matches!(
            route_retry(&registry, &circuit(4), &[]),
            Err(CoreError::NoCompatibleBackend { required: 4, backends: 2 })
        ));
    }
}
