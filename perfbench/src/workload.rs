//! The two workloads, their set-up, and the traced-only layer probe.
//!
//! Every workload runs on the paper's 441-qubit device
//! (`DeviceSpec::square(7, 3, 3)`, 360 data qubits) with a fixed compiler
//! configuration (`threads = 1`, whatever `MECH_THREADS` says). The
//! compiler only ever sees the generated programs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mech::mech_circuit::benchmarks::Benchmark;
use mech::mech_circuit::{Circuit, CommutationDag};
use mech::mech_highway::{EntranceTable, HighwaySkeleton};
use mech::{
    CompileError, CompileResult, CompileSession, CompilerConfig, DeviceArtifacts, DeviceSpec,
    HighwayLayout,
};
use mech_bench::programs;
use mech_bench::serve::{CompileService, Request, ServeOptions, Ticket};
use mech_bench::verify::{recording, OutcomePolicy, SchedVerifier, VerifyError};

use crate::checks;
use crate::stats::{geomean, median, p90_if_supported, quantile};
use crate::trace::{Trace, Tracer};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2's four families, compiled directly, again and again.
    Paper441q,
    /// Verified Clifford requests through the compile service.
    ServedVerify,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Paper441q, Workload::ServedVerify];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper441q => "paper-441q",
            Workload::ServedVerify => "served-verify",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-up repetitions. `setup_s` is the median of `SETUP_REPS` timed
/// ones taken across the run (see `run`), so one busy spell of the host
/// does not set the figure. `SETUP_WARMUP` untimed ones come first: the
/// first set-ups of a process run slower while the allocator's heap grows
/// (up to 2× on `paper-441q`, whose two 65k-gate programs dominate
/// generation).
const SETUP_WARMUP: usize = 10;
const SETUP_REPS: usize = 30;

/// The service shape of `served-verify`: two workers (the host's vCPU
/// count) and room for the two requests the clients keep in flight.
const SERVE_OPTIONS: ServeOptions = ServeOptions {
    workers: 2,
    queue_capacity: 2,
    threads_per_worker: 1,
};

/// The paper's evaluation device.
pub fn device_spec() -> DeviceSpec {
    DeviceSpec::square(7, 3, 3)
}

/// The compiler configuration of every compile the benchmark makes.
pub fn compiler_config() -> CompilerConfig {
    CompilerConfig {
        threads: 1,
        ..CompilerConfig::default()
    }
}

/// The generator seed of a seeded family under workload seed `seed`:
/// seed 0 gives the family's default program from `mech_bench::programs`;
/// every other seed is decorrelated from it.
fn derive_seed(default: u64, seed: u64) -> u64 {
    default.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One named input program.
pub struct Program {
    pub name: &'static str,
    pub circuit: Arc<Circuit>,
}

/// The workload's programs at width `n` for workload seed `seed`.
pub fn generate(workload: Workload, n: u32, seed: u64) -> Vec<Program> {
    let family = derive_seed(programs::FAMILY_SEED, seed);
    let list: Vec<(&'static str, Circuit)> = match workload {
        Workload::Paper441q => vec![
            ("qft", Benchmark::Qft.generate(n, family)),
            ("qaoa", Benchmark::Qaoa.generate(n, family)),
            ("vqe", Benchmark::Vqe.generate(n, family)),
            ("bv", Benchmark::Bv.generate(n, family)),
        ],
        // No random-Clifford program: on some seeds the verifier refuses
        // their highway schedules (see README.md).
        Workload::ServedVerify => vec![
            ("ghz", programs::ghz(n)),
            ("bv", Benchmark::Bv.generate(n, family)),
        ],
    };
    list.into_iter()
        .map(|(name, c)| Program {
            name,
            circuit: Arc::new(c),
        })
        .collect()
}

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks: any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed beside the metrics.
    pub info: Vec<String>,
}

impl Outcome {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn fail(&mut self, what: &str, error: impl std::fmt::Display) {
        self.failed += 1;
        self.info.push(format!("failed: {what}: {error}"));
    }
}

/// The device bundle and programs a run uses.
struct Setup {
    device: Arc<DeviceArtifacts>,
    programs: Vec<Program>,
}

/// Builds the device tier the way `DeviceArtifacts::build` does for a
/// pristine spec, one public call per span; the pieces are dropped.
fn build_device_traced(spec: &DeviceSpec, tr: &Tracer) {
    let topo = tr.time("chiplet.topology_build", || spec.chiplet().build());
    let layout = tr.time("chiplet.layout_generate", || {
        HighwayLayout::generate(&topo, spec.highway_density())
    });
    let entrances = tr.time("highway.entrance_table", || {
        EntranceTable::build(&topo, &layout, spec.entrance_candidates())
    });
    let skeleton = tr.time("highway.skeleton_build", || {
        HighwaySkeleton::build(topo.num_qubits() as usize, &layout)
    });
    std::hint::black_box((&entrances, &skeleton));
}

/// Times `reps` cold set-ups into `samples` and returns the programs of
/// the last: a device-tier build that bypasses the device cache, program
/// generation, and on `served-verify` a service start. The traced run
/// builds the tier piece by piece instead.
fn time_setups(
    workload: Workload,
    seed: u64,
    device: &Arc<DeviceArtifacts>,
    reps: usize,
    tr: &Tracer,
    samples: &mut Vec<f64>,
) -> Vec<Program> {
    let spec = device.spec();
    let mut programs = Vec::new();
    for _ in 0..reps {
        // Free the previous set-up's programs first, so generation reuses
        // that memory instead of holding two copies at once.
        drop(std::mem::take(&mut programs));
        let span = tr.span("setup");
        let t = Instant::now();
        let built = if tr.is_on() {
            build_device_traced(spec, tr);
            None
        } else {
            Some(spec.build_artifacts())
        };
        programs = tr.time("circuit.generate", || {
            generate(workload, device.num_data_qubits(), seed)
        });
        let service = (workload == Workload::ServedVerify).then(|| {
            tr.time("serve.start", || {
                CompileService::start(Arc::clone(device), compiler_config(), SERVE_OPTIONS)
            })
        });
        samples.push(t.elapsed().as_secs_f64());
        drop(span);
        drop(built);
        if let Some(service) = service {
            service.shutdown();
        }
    }
    programs
}

/// One direct compile, split at the layer boundaries `MechCompiler::compile`
/// crosses: validation, commutation DAG, session set-up, round loop.
fn compile_once(
    device: &DeviceArtifacts,
    config: CompilerConfig,
    circuit: &Circuit,
    tr: &Tracer,
) -> Result<CompileResult, CompileError> {
    let _compile = tr.span("core.compile");
    circuit.validate()?;
    let dag = tr.time("circuit.dag_build", || CommutationDag::new(circuit));
    let session = tr.time("core.session_new", || {
        CompileSession::new(device, config, circuit, &dag)
    })?;
    tr.time("core.session_run", || session.run())
}

/// Runs `workload` for `seconds` of measured work. With `tracing`, spans
/// are recorded and the layer probe runs after the measured loop.
pub fn run(workload: Workload, seed: u64, seconds: f64, tracing: bool) -> (Outcome, Trace) {
    let epoch = Instant::now();
    let tr = Tracer::new(tracing, epoch);
    let mut out = Outcome::default();
    let device = device_spec().build_artifacts();
    let quiet = Tracer::new(false, epoch);
    time_setups(
        workload,
        seed,
        &device,
        SETUP_WARMUP,
        &quiet,
        &mut Vec::new(),
    );
    // One timed set-up before the measured loop; the loop spreads the
    // others evenly over its length, at moments when nothing else runs.
    let mut setup_samples = Vec::new();
    let programs = time_setups(workload, seed, &device, 1, &tr, &mut setup_samples);
    let setup = Setup { device, programs };
    let mut more_setups = |reps: usize| {
        time_setups(workload, seed, &setup.device, reps, &tr, &mut setup_samples);
    };
    let spread = (SETUP_REPS - 1, &mut more_setups as &mut dyn FnMut(usize));
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut trace = Trace::default();
    let results = match workload {
        Workload::ServedVerify => {
            run_served(&setup, budget, &tr, epoch, &mut out, &mut trace, spread)
        }
        Workload::Paper441q => run_compiles(&setup, budget, &tr, &mut out, spread),
    };
    out.metrics.insert("setup_s", median(&setup_samples));
    if tracing {
        probe(workload, &setup, &results, &tr, epoch, &mut out, &mut trace);
    }
    record_counts(&results, &mut out);
    trace.absorb(tr);
    (out, trace)
}

/// Highway, router and schedule-size counts of one round, from each
/// program's reference compile.
fn record_counts(results: &[CompileResult], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&CompileResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let searches = sum(&|r| r.claim_searches);
    let skips = sum(&|r| r.claim_skips);
    let shuttles = sum(&|r| r.shuttle_stats.shuttles);
    let components = sum(&|r| r.shuttle_stats.components);
    let m = &mut out.metrics;
    m.insert("depth", sum(&|r| r.metrics().depth));
    m.insert(
        "eff_cnots",
        results.iter().map(|r| r.metrics().eff_cnots).sum(),
    );
    m.insert("highway.claim_searches", searches);
    m.insert("highway.claim_skips", skips);
    m.insert("highway.claim_skip_ratio", ratio(skips, searches + skips));
    m.insert("highway.shuttles", shuttles);
    m.insert("highway.components", components);
    m.insert(
        "highway.components_per_shuttle",
        ratio(components, shuttles),
    );
    m.insert("core.ops", sum(&|r| r.circuit.ops().len() as u64));
    m.insert("router.regular_gates", sum(&|r| r.regular_gates));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `paper-441q`: one caller compiles the programs
/// back to back, in whole rounds, until the time is up, calling `set_up`
/// between rounds so that `setup_reps` timed set-ups spread evenly over
/// the loop. Returns each program's first result.
fn run_compiles(
    setup: &Setup,
    budget: Duration,
    tr: &Tracer,
    out: &mut Outcome,
    (setup_reps, set_up): (usize, &mut dyn FnMut(usize)),
) -> Vec<CompileResult> {
    let config = compiler_config();
    let k = setup.programs.len();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut first: Vec<Option<CompileResult>> = vec![None; k];
    let mut round_ms = Vec::new();
    let start = Instant::now();
    let deadline = start + budget;
    let mut round = 0u64;
    let mut setups_done = 0;
    while round == 0 || Instant::now() < deadline {
        let mut this_round = 0.0;
        for (i, p) in setup.programs.iter().enumerate() {
            tr.set_request(round * k as u64 + i as u64);
            out.attempted += 1;
            let t = Instant::now();
            let result = compile_once(&setup.device, config, &p.circuit, tr);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(p.name, e);
                    continue;
                }
            };
            latencies[i].push(ms);
            this_round += ms;
            match &first[i] {
                None => {
                    out.check(p.name, checks::schedule(&setup.device, &p.circuit, &result));
                    first[i] = Some(result);
                }
                Some(f) => out.check(p.name, checks::same_schedule(f, &result)),
            }
        }
        round_ms.push(this_round);
        round += 1;
        if !budget.is_zero() {
            let share = start.elapsed().as_secs_f64() / budget.as_secs_f64();
            let due = ((setup_reps as f64 * share) as usize).min(setup_reps);
            if due > setups_done {
                set_up(due - setups_done);
                setups_done = due;
            }
        }
    }
    set_up(setup_reps - setups_done);

    let fastest: Vec<f64> = latencies
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| quantile(l, 0.0))
        .collect();
    let gates: f64 = setup
        .programs
        .iter()
        .zip(&latencies)
        .filter(|(_, l)| !l.is_empty())
        .map(|(p, _)| p.circuit.len() as f64)
        .sum();
    let compile_s: f64 = fastest.iter().sum::<f64>() / 1e3;
    out.metrics.insert("compile_ms", geomean(&fastest));
    out.metrics.insert("gates_per_s", ratio(gates, compile_s));
    // A request here is one direct compile call, the very thing
    // `compile_ms` times.
    out.metrics.insert("request_ms_min", geomean(&fastest));
    for (p, l) in setup.programs.iter().zip(&latencies) {
        let p90 = p90_if_supported(l).map_or(String::new(), |v| format!(" p90 {v:.3} ms"));
        out.info.push(format!(
            "{:<14} {:>7} gates  {:>4} compiles  median {:.3} ms (min {:.3}, max {:.3}){p90}",
            p.name,
            p.circuit.len(),
            l.len(),
            median(l),
            quantile(l, 0.0),
            quantile(l, 1.0)
        ));
    }
    out.info.push(format!(
        "{round} rounds, median {:.3} ms, {:.3} rounds/s of compile time",
        median(&round_ms),
        ratio(round_ms.len() as f64, round_ms.iter().sum::<f64>() / 1e3)
    ));
    first.into_iter().flatten().collect()
}

/// One served request's timings.
struct Sample {
    family: usize,
    latency_ms: f64,
    compile_ms: f64,
}

/// Hands out request numbers to the closed-loop clients, stopping at a
/// whole round once the time is up.
struct Turns {
    next: u64,
    stop_at: Option<u64>,
}

impl Turns {
    fn take(&mut self, deadline: Instant, round: u64) -> Option<u64> {
        if self.stop_at.is_none() && self.next > 0 && Instant::now() >= deadline {
            self.stop_at = Some(self.next.div_ceil(round) * round);
        }
        if self.stop_at.is_some_and(|s| self.next >= s) {
            return None;
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

/// Submits one verify-gated request and waits for it, recording a
/// `serve.request` span whose children are the service's own queue,
/// compile and verify durations (its self time is the serve overhead).
fn serve_request(
    service: &CompileService,
    program: &Program,
    tr: &Tracer,
) -> (Result<mech_bench::serve::ServeOutcome, String>, f64) {
    let span = tr.span("serve.request");
    let t0 = Instant::now();
    let outcome = service
        .submit_request(Request::new(Arc::clone(&program.circuit)).with_verify(true))
        .and_then(Ticket::wait);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Ok(o) = &outcome {
        let queue = Duration::from_secs_f64(o.queued_ms / 1e3);
        let compile = Duration::from_secs_f64(o.compile_ms / 1e3);
        tr.record("serve.queue", t0, queue);
        tr.record("serve.compile", t0 + queue, compile);
        tr.record(
            "serve.verify",
            t0 + queue + compile,
            Duration::from_secs_f64(o.verify_ms / 1e3),
        );
    }
    drop(span);
    (outcome.map_err(|e| e.to_string()), latency_ms)
}

/// What one client of `served-verify` saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    failed: Vec<String>,
    errors: Vec<String>,
}

/// Slices of the `served-verify` loop. The clients drain at the end of
/// each, and the timed set-ups run in between, when the service is idle.
const SERVE_SLICES: usize = 6;

/// `served-verify`: two closed-loop clients, one request in flight each,
/// alternate GHZ and BV requests through a two-worker service with the
/// verification gate on, in `SERVE_SLICES` slices with `setup_reps`
/// timed set-ups spread over the gaps. Returns the direct compiles the
/// served schedules are checked against.
fn run_served(
    setup: &Setup,
    budget: Duration,
    tr: &Tracer,
    epoch: Instant,
    out: &mut Outcome,
    trace: &mut Trace,
    (setup_reps, set_up): (usize, &mut dyn FnMut(usize)),
) -> Vec<CompileResult> {
    let config = recording(compiler_config());
    let mut direct = Vec::new();
    for p in &setup.programs {
        match compile_once(&setup.device, config, &p.circuit, tr) {
            Ok(r) => {
                out.check(p.name, checks::schedule(&setup.device, &p.circuit, &r));
                direct.push(r);
            }
            Err(e) => {
                out.errors
                    .push(format!("{}: direct reference compile failed: {e}", p.name));
                return direct;
            }
        }
    }
    out.check(
        "corrupted trace",
        checks::corrupted_trace_refused(&setup.programs[0].circuit, &direct[0]),
    );

    let service =
        CompileService::start(Arc::clone(&setup.device), compiler_config(), SERVE_OPTIONS);
    let start = Instant::now();
    let mut logs = Vec::new();
    let mut sent = 0;
    let mut wall_s = 0.0;
    for slice in 1..=SERVE_SLICES {
        let deadline = start + budget.mul_f64(slice as f64 / SERVE_SLICES as f64);
        let turns = Mutex::new(Turns {
            next: sent,
            stop_at: None,
        });
        let slice_start = Instant::now();
        logs.extend(serve_slice(
            &service,
            setup,
            &direct,
            &turns,
            deadline,
            tr.is_on(),
            epoch,
        ));
        wall_s += slice_start.elapsed().as_secs_f64();
        sent = turns.into_inner().expect("turn lock poisoned").next;
        set_up(setup_reps * slice / SERVE_SLICES - setup_reps * (slice - 1) / SERVE_SLICES);
    }
    let stats = service.shutdown();
    out.attempted += sent;
    out.check("service", checks::service_stats(&stats, sent));

    let mut samples = Vec::new();
    for (log, ctr) in logs {
        for f in log.failed {
            out.fail("request", f);
        }
        out.errors.extend(log.errors);
        samples.extend(log.samples);
        trace.absorb(ctr);
    }
    let of = |family: usize, pick: fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.family == family)
            .map(pick)
            .collect()
    };
    let mut fastest_latency = Vec::new();
    let mut fastest_compile = Vec::new();
    let mut gates = 0.0;
    for (f, p) in setup.programs.iter().enumerate() {
        let lat = of(f, |s| s.latency_ms);
        let comp = of(f, |s| s.compile_ms);
        if lat.is_empty() {
            continue;
        }
        fastest_latency.push(quantile(&lat, 0.0));
        fastest_compile.push(quantile(&comp, 0.0));
        gates += p.circuit.len() as f64;
        out.info.push(format!(
            "{:<15} {:>7} gates  {:>4} requests  median {:.3} ms (min {:.3}, max {:.3}), compile median {:.3} ms",
            p.name,
            p.circuit.len(),
            lat.len(),
            median(&lat),
            quantile(&lat, 0.0),
            quantile(&lat, 1.0),
            median(&comp)
        ));
    }
    let all: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let p90 = p90_if_supported(&all).map_or(String::new(), |v| format!(", p90 {v:.3} ms"));
    out.info.push(format!(
        "all requests: {} samples, {:.3} req/s, p50 {:.3} ms{p90}",
        all.len(),
        ratio(all.len() as f64, wall_s),
        median(&all)
    ));
    out.metrics.insert("compile_ms", geomean(&fastest_compile));
    out.metrics.insert(
        "gates_per_s",
        ratio(gates, fastest_compile.iter().sum::<f64>() / 1e3),
    );
    out.metrics
        .insert("request_ms_min", geomean(&fastest_latency));
    direct
}

/// Runs the two closed-loop clients until `deadline`, stopping at a whole
/// round.
fn serve_slice(
    service: &CompileService,
    setup: &Setup,
    direct: &[CompileResult],
    turns: &Mutex<Turns>,
    deadline: Instant,
    tracing: bool,
    epoch: Instant,
) -> Vec<(ClientLog, Tracer)> {
    let k = setup.programs.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_OPTIONS.workers)
            .map(|_| {
                s.spawn(|| {
                    let ctr = Tracer::new(tracing, epoch);
                    let mut log = ClientLog::default();
                    loop {
                        let turn = turns
                            .lock()
                            .expect("turn lock poisoned")
                            .take(deadline, k as u64);
                        let Some(i) = turn else { break };
                        let family = (i % k as u64) as usize;
                        let program = &setup.programs[family];
                        ctr.set_request(i);
                        let (outcome, latency_ms) = serve_request(service, program, &ctr);
                        match outcome {
                            Err(e) => log.failed.push(format!("{}: {e}", program.name)),
                            Ok(o) => match &o.result {
                                Err(CompileError::Miscompiled { detail }) => log
                                    .errors
                                    .push(format!("{}: miscompiled: {detail}", program.name)),
                                Err(e) => log.failed.push(format!("{}: {e}", program.name)),
                                Ok(_) => {
                                    if let Err(e) = checks::served(&o, &direct[family]) {
                                        log.errors.push(format!("{}: {e}", program.name));
                                    }
                                    log.samples.push(Sample {
                                        family,
                                        latency_ms,
                                        compile_ms: o.compile_ms,
                                    });
                                }
                            },
                        }
                    }
                    (log, ctr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The traced run's layer probe, after the measured loop: the semantic
/// trace and stabilizer verification of each program, and (on the compile
/// workloads) one verify-gated request per program through the service,
/// so every layer reports on every workload's programs. Programs outside
/// the stabilizer formalism are refused by the verifier at once.
fn probe(
    workload: Workload,
    setup: &Setup,
    results: &[CompileResult],
    tr: &Tracer,
    epoch: Instant,
    out: &mut Outcome,
    trace: &mut Trace,
) {
    let quiet = Tracer::new(false, epoch);
    let config = recording(compiler_config());
    let mut sem_events = 0u64;
    for (p, reference) in setup.programs.iter().zip(results) {
        // The served-verify references were compiled with recording on.
        let owned;
        let recorded = if workload == Workload::ServedVerify {
            reference
        } else {
            match compile_once(&setup.device, config, &p.circuit, &quiet) {
                Ok(r) => {
                    owned = r;
                    &owned
                }
                Err(e) => {
                    out.errors
                        .push(format!("{}: recording compile failed: {e}", p.name));
                    continue;
                }
            }
        };
        sem_events += recorded.circuit.sem_events().len() as u64;
        let verifier = SchedVerifier::new(
            &p.circuit,
            recorded.circuit.num_qubits(),
            recorded.circuit.sem_events(),
            &recorded.final_positions,
        );
        let sweep = tr.time("sim.verify_sweep", || verifier.verify_sweep().map(|_| ()));
        let policy = tr.time("sim.verify_policy", || {
            verifier.verify(OutcomePolicy::Zeros).map(|_| ())
        });
        for verdict in [sweep, policy] {
            match verdict {
                Ok(()) | Err(VerifyError::NonCliffordInput { .. }) => {}
                Err(e) => out
                    .errors
                    .push(format!("{}: verifier refused: {e}", p.name)),
            }
        }
    }
    out.metrics.insert("core.sem_events", sem_events as f64);

    if workload != Workload::ServedVerify {
        let service =
            CompileService::start(Arc::clone(&setup.device), compiler_config(), SERVE_OPTIONS);
        let ptr = Tracer::new(true, epoch);
        for (i, (p, reference)) in setup.programs.iter().zip(results).enumerate() {
            ptr.set_request(i as u64);
            let (outcome, _) = serve_request(&service, p, &ptr);
            let check = outcome.and_then(|o| {
                let served = o.result.as_ref().map_err(|e| e.to_string())?;
                if o.verified != p.circuit.is_clifford() {
                    return Err(format!("verified = {} on this program", o.verified));
                }
                checks::same_schedule(reference, served)
            });
            out.check(&format!("{} served once", p.name), check);
        }
        service.shutdown();
        trace.absorb(ptr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_gives_the_default_programs() {
        let n = 40;
        let pick = |w, name: &str| {
            generate(w, n, 0)
                .into_iter()
                .find(|p| p.name == name)
                .expect("program")
                .circuit
        };
        assert_eq!(*pick(Workload::Paper441q, "qft"), programs::qft(n));
        assert_eq!(*pick(Workload::Paper441q, "qaoa"), programs::qaoa(n));
        assert_eq!(*pick(Workload::Paper441q, "vqe"), programs::vqe(n));
        assert_eq!(*pick(Workload::Paper441q, "bv"), programs::bv(n));
        assert_eq!(*pick(Workload::ServedVerify, "ghz"), programs::ghz(n));
        assert_eq!(*pick(Workload::ServedVerify, "bv"), programs::bv(n));
    }

    #[test]
    fn same_seed_same_programs_other_seed_other_programs() {
        let a = generate(Workload::Paper441q, 40, 7);
        let b = generate(Workload::Paper441q, 40, 7);
        let c = generate(Workload::Paper441q, 40, 8);
        let qaoa = |ps: &[Program]| Arc::clone(&ps[1].circuit);
        assert_eq!(qaoa(&a), qaoa(&b));
        assert_ne!(qaoa(&a), qaoa(&c));
    }

    #[test]
    fn turns_stop_at_whole_rounds() {
        let mut turns = Turns {
            next: 0,
            stop_at: None,
        };
        let past = Instant::now();
        let mut taken = 0;
        while turns.take(past, 3).is_some() {
            taken += 1;
        }
        assert_eq!(taken, 3);
    }
}
