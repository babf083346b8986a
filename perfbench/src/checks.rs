//! Output checks: properties every compiled schedule must have, computed
//! apart from the compiler's own bookkeeping.

use mech::mech_chiplet::{SemEventKind, SemGate1};
use mech::mech_circuit::Circuit;
use mech::{CompileResult, DeviceArtifacts};
use mech_bench::serve::{ServeOutcome, ServiceStats};
use mech_bench::verify::SchedVerifier;

/// A schedule the device can run, accounting for every two-qubit gate of
/// the program exactly once: two-qubit ops only on coupled, live qubits
/// (`DeviceArtifacts::audit`), and highway components plus regular gates
/// equal to the program's two-qubit gate count.
pub fn schedule(
    device: &DeviceArtifacts,
    program: &Circuit,
    result: &CompileResult,
) -> Result<(), String> {
    device.audit(&result.circuit)?;
    let two_qubit = program.two_qubit_count() as u64;
    let accounted = result.shuttle_stats.components + result.regular_gates;
    if accounted != two_qubit {
        return Err(format!(
            "{} highway components + {} regular gates != {two_qubit} two-qubit gates",
            result.shuttle_stats.components, result.regular_gates
        ));
    }
    Ok(())
}

/// A repeated compile produced exactly the first compile's schedule.
pub fn same_schedule(first: &CompileResult, again: &CompileResult) -> Result<(), String> {
    if first.circuit.ops() != again.circuit.ops() {
        return Err(format!(
            "schedule differs from the first ({} vs {} ops)",
            again.circuit.ops().len(),
            first.circuit.ops().len()
        ));
    }
    if first.final_positions != again.final_positions {
        return Err("final qubit positions differ from the first compile".to_string());
    }
    Ok(())
}

/// A served request came back compiled, verified, and equal to the
/// direct compile of the same program.
pub fn served(outcome: &ServeOutcome, direct: &CompileResult) -> Result<(), String> {
    let result = outcome
        .result
        .as_ref()
        .map_err(|e| format!("served request failed: {e}"))?;
    if !outcome.verified {
        return Err("served request came back unverified".to_string());
    }
    same_schedule(direct, result)
}

/// The service accounted for every submitted request exactly once, and
/// saw as many as the clients sent.
pub fn service_stats(stats: &ServiceStats, sent: u64) -> Result<(), String> {
    if stats.submitted != stats.served + stats.shed + stats.failed {
        return Err(format!("service stats do not reconcile: {stats:?}"));
    }
    if stats.submitted != sent {
        return Err(format!(
            "service saw {} requests, clients sent {sent}",
            stats.submitted
        ));
    }
    Ok(())
}

/// The verifier refuses a copy of `result`'s semantic trace with its
/// first Hadamard event dropped, so a verifier that accepts everything
/// fails the run.
pub fn corrupted_trace_refused(ideal: &Circuit, result: &CompileResult) -> Result<(), String> {
    let events = result.circuit.sem_events();
    let drop_at = events
        .iter()
        .position(|e| matches!(e.kind, SemEventKind::Gate1 { g: SemGate1::H, .. }))
        .ok_or("trace holds no Hadamard event to drop")?;
    let mut corrupted = events.to_vec();
    corrupted.remove(drop_at);
    let verifier = SchedVerifier::new(
        ideal,
        result.circuit.num_qubits(),
        &corrupted,
        &result.final_positions,
    );
    match verifier.verify_sweep() {
        Ok(_) => Err(format!(
            "verifier accepted a trace with event {drop_at} (a Hadamard) dropped"
        )),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech::mech_chiplet::{DefectMap, PhysOpKind};
    use mech::{CompilerConfig, DeviceSpec, MechCompiler};
    use mech_bench::programs;

    fn config() -> CompilerConfig {
        mech_bench::verify::recording(CompilerConfig {
            threads: 1,
            ..CompilerConfig::default()
        })
    }

    fn compiled(program: &Circuit) -> (std::sync::Arc<DeviceArtifacts>, CompileResult) {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let result = MechCompiler::new(device.clone(), config())
            .compile(program)
            .expect("compiles");
        (device, result)
    }

    #[test]
    fn genuine_schedule_passes() {
        let program = programs::bv(20);
        let (device, result) = compiled(&program);
        schedule(&device, &program, &result).expect("genuine schedule");
        same_schedule(&result, &result.clone()).expect("identical");
        corrupted_trace_refused(&program, &result).expect("verifier refuses");
    }

    #[test]
    fn schedule_on_a_dead_link_is_refused() {
        let program = programs::bv(20);
        let (device, result) = compiled(&program);
        let op = result
            .circuit
            .ops()
            .iter()
            .find(|op| matches!(op.kind, PhysOpKind::TwoQubit(_)))
            .expect("a two-qubit op");
        let degraded = device
            .spec()
            .clone()
            .with_defects(DefectMap::new().with_dead_link(op.a, op.b.expect("pair")))
            .build_artifacts();
        assert!(schedule(&degraded, &program, &result).is_err());
    }

    #[test]
    fn miscounted_schedule_is_refused() {
        let program = programs::bv(20);
        let (device, mut result) = compiled(&program);
        result.regular_gates += 1;
        assert!(schedule(&device, &program, &result).is_err());
    }

    #[test]
    fn altered_repetition_is_refused() {
        let program = programs::bv(20);
        let (_, result) = compiled(&program);
        let mut altered = result.clone();
        altered.circuit.one_qubit(result.final_positions[0]);
        assert!(same_schedule(&result, &altered).is_err());
        let mut moved = result.clone();
        moved.final_positions.swap(0, 1);
        assert!(same_schedule(&result, &moved).is_err());
    }

    #[test]
    fn unreconciled_stats_are_refused() {
        let stats = ServiceStats {
            submitted: 3,
            served: 2,
            ..ServiceStats::default()
        };
        assert!(service_stats(&stats, 3).is_err());
        let stats = ServiceStats { served: 3, ..stats };
        service_stats(&stats, 3).expect("reconciles");
        assert!(service_stats(&stats, 4).is_err());
    }
}
