//! `device_noisy`: one n=800 paper-suite instance on `DeviceAccurate`
//! 128-row tiles with typical variation and read noise, in three timed
//! phases per round:
//!
//! * A — CiM in-situ through `DeviceInLoop`: per-flip incremental-E
//!   reads (four 2-trial requests of 700 iterations);
//! * B — CiM on shared grids through `Batched { tile_rows: 128, instances: 2 }`
//!   (two 2-trial requests);
//! * C — dSB through `DeviceInLoop`: full-array MVM reads (two 1-trial
//!   requests of 200 steps).
//!
//! Set-up generates, encodes and references the instance and prepares
//! the eight jobs. A run repeats the round as many times as fit its
//! seconds on the reference machine; every round must reproduce the
//! first.

use std::time::Instant;

use fecim::anneal::{success_rate, TiledBackend};
use fecim::crossbar::{CrossbarConfig, Fidelity, TiledCrossbar};
use fecim::device::VariationConfig;
use fecim::gset::{suite_instance, SizeGroup};
use fecim::ising::{CopProblem, Coupling, IsingModel, MaxCut, SpinVector};
use fecim::sb::{DeviceMvm, SbEngine, SbVariant};
use fecim::{
    BackendPlan, CimAnnealer, PreparedJob, ProblemSpec, RunPlan, SbAnnealer, Session, SessionError,
    SolveReport, SolveRequest, Solver, SolverSpec,
};
use perfbench::schedule::splitmix64;
use perfbench::stats::{median, Dist};
use perfbench::trace::{TraceIndex, Tracer};
use rand::SeedableRng;

use crate::exec::{
    check_repeats, common_layers, execute_prepared, factor_sweep, median_latencies, plain_trial,
    repeat, Executed,
};
use crate::layers::{SpannedBackend, SpannedMvm};
use crate::paper::INIT_SEED_SALT;
use crate::{Opts, Outcome, DEFAULT_SEED};

const TILE_ROWS: usize = 128;
const CIM_ITERATIONS: usize = 700;
const SB_STEPS: usize = 200;
/// Input DAC bits of the SB solver's device MVM (the solver default).
const SB_IN_BITS: u8 = 4;
const TARGET_FRACTION: f64 = 0.9;
/// Approximate wall time of one round on 2 CPUs.
const ROUND_SECONDS: f64 = 1.6;

/// The noisy device configuration every phase programs.
pub fn noisy_config() -> CrossbarConfig {
    let mut config = CrossbarConfig::paper_defaults();
    config.fidelity = Fidelity::DeviceAccurate;
    config.variation = VariationConfig::typical();
    config
}

/// The phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    InSitu,
    Batched,
    Sb,
}

struct Setup {
    problem: MaxCut,
    model: IsingModel,
    reference: f64,
    requests: Vec<(Phase, SolveRequest)>,
    jobs: Vec<PreparedJob>,
}

fn setup(opts: &Opts, session: &Session, tracer: &Tracer) -> Setup {
    let inst = suite_instance(SizeGroup::N800, 0);
    let mut config = inst.config;
    config.seed ^= splitmix64(opts.seed) ^ splitmix64(DEFAULT_SEED);
    let graph = tracer.span("gset.generate", 0, 0, |_| config.generate());
    let (problem, model) = tracer.span("ising.encode", 0, 0, |_| {
        let problem = graph.to_max_cut();
        let model = problem
            .to_ising()
            .expect("generated Max-Cut instances always encode");
        (problem, model)
    });
    let reference = tracer.span("anneal.reference", 0, 0, |_| {
        let (_, energy) = fecim::anneal::multi_start_local_search(model.couplings(), 20, opts.seed);
        problem.cut_from_energy(energy)
    });
    let spec = ProblemSpec::from_graph(&graph);
    let device = BackendPlan::DeviceInLoop {
        fidelity: Fidelity::DeviceAccurate,
        tile_rows: Some(TILE_ROWS),
    };
    let cim = SolverSpec::Cim(CimAnnealer::new(CIM_ITERATIONS));
    let mut requests = Vec::new();
    let (requests_a, requests_b, requests_c) = if opts.smoke { (1, 1, 1) } else { (4, 2, 2) };
    for (phase, count, trials) in [
        (Phase::InSitu, requests_a, 2),
        (Phase::Batched, requests_b, 2),
        (Phase::Sb, requests_c, 1),
    ] {
        for k in 0..count {
            let (solver, backend) = match phase {
                Phase::InSitu => (cim.clone(), device),
                Phase::Batched => (
                    cim.clone(),
                    BackendPlan::Batched {
                        tile_rows: TILE_ROWS,
                        instances: 2,
                    },
                ),
                Phase::Sb => (SolverSpec::Sb(SbAnnealer::discrete(SB_STEPS)), device),
            };
            let base_seed = splitmix64(opts.seed ^ ((phase as u64) << 8) ^ k as u64);
            requests.push((
                phase,
                SolveRequest::new(spec.clone(), solver)
                    .with_backend(backend)
                    .with_run(RunPlan::Ensemble {
                        trials,
                        base_seed,
                        threads: None,
                    })
                    .with_reference(reference),
            ));
        }
    }
    let jobs = requests
        .iter()
        .enumerate()
        .map(|(k, (_, request))| {
            tracer
                .span("core.prepare", 0, k as u64 + 1, |_| {
                    session.prepare(request)
                })
                .expect("device_noisy requests are valid")
        })
        .collect();
    Setup {
        problem,
        model,
        reference,
        requests,
        jobs,
    }
}

/// Instrumented replica of a `DeviceInLoop` trial: the same start spins,
/// array and engine as `PreparedJob::run_trial`, with the programming,
/// the engine call and every array read recorded as spans.
fn replica_trial(
    setup: &Setup,
    phase: Phase,
    job: &PreparedJob,
    i: usize,
    span: u64,
    tracer: &Tracer,
    req: u64,
) -> Result<SolveReport, SessionError> {
    let seed = job.seed(i);
    let quadratic = setup.model.to_quadratic_only();
    let coupling = quadratic.couplings();
    let n = coupling.dimension();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ INIT_SEED_SALT);
    let initial = SpinVector::random(n, &mut rng);
    let config = noisy_config();
    let (mut run, solver): (_, Box<dyn Solver>) = match phase {
        Phase::InSitu => {
            let backend = tracer.span("crossbar.program", span, req, |_| {
                TiledBackend::new(coupling, initial, config.clone(), TILE_ROWS)
            });
            let solver = CimAnnealer::new(CIM_ITERATIONS);
            let mut spanned = SpannedBackend::new(backend, tracer, req);
            let run = tracer.span("anneal.anneal_with_backend", span, req, |id| {
                spanned.parent = id;
                solver.anneal_with_backend(coupling, &mut spanned, seed)
            });
            spanned.finish();
            (
                run,
                Box::new(solver.with_tiled_device_in_loop(config, TILE_ROWS)),
            )
        }
        _ => {
            let array = tracer.span("crossbar.program", span, req, |_| {
                TiledCrossbar::program(coupling, config.clone(), TILE_ROWS)
            });
            let mut source = SpannedMvm::new(DeviceMvm::new(array, SB_IN_BITS), tracer, req);
            let engine = SbEngine::new(SbVariant::Discrete, SB_STEPS);
            let run = tracer.span("sb.run", span, req, |id| {
                source.parent = id;
                engine.run(coupling, &mut source, &initial, seed)
            });
            (
                run,
                Box::new(
                    SbAnnealer::discrete(SB_STEPS).with_tiled_device_in_loop(config, TILE_ROWS),
                ),
            )
        }
    };
    let spins = run.best_spins.clone();
    let objective = setup.problem.native_objective(&spins);
    let feasible = setup.problem.is_feasible(&spins);
    let (energy, time) = solver.hardware_report(&mut run, n);
    Ok(SolveReport {
        kind: solver.kind(),
        best_energy: run.best_energy,
        objective: Some(objective),
        feasible,
        best_spins: spins,
        energy,
        time,
        run,
    })
}

/// One round: the three requests once each.
fn round(setup: &Setup, tracer: &Tracer, failed: &mut u64) -> Vec<Option<Executed>> {
    setup
        .requests
        .iter()
        .zip(&setup.jobs)
        .enumerate()
        .map(|(k, ((phase, request), job))| {
            let req = k as u64 + 1;
            let executed = if tracer.enabled() && *phase != Phase::Batched {
                execute_prepared(job, request, tracer, req, |job: &PreparedJob, i, span| {
                    replica_trial(setup, *phase, job, i, span, tracer, req)
                })
            } else {
                execute_prepared(job, request, tracer, req, plain_trial)
            };
            match executed {
                Ok(e) => Some(e),
                Err(e) => {
                    eprintln!("perfbench: device_noisy request {k} failed: {e}");
                    *failed += 1;
                    None
                }
            }
        })
        .collect()
}

/// The reports of one round's requests of `phase`.
fn phase_reports<'a>(
    setup: &Setup,
    round: &'a [Option<Executed>],
    phase: Phase,
) -> Vec<&'a SolveReport> {
    setup
        .requests
        .iter()
        .zip(round)
        .filter(|((p, _), _)| *p == phase)
        .filter_map(|(_, e)| e.as_ref())
        .flat_map(|e| e.response.reports.iter())
        .collect()
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let session = Session::new().with_crossbar(noisy_config());
    let off = Tracer::new(false);
    let mut setup_times = Vec::new();
    let mut state = None;
    // Nine set-ups: one takes tens of milliseconds, so a median of
    // three would swing with a single noisy one.
    for _ in 0..if opts.smoke { 1 } else { 9 } {
        let t = Instant::now();
        state = Some(setup(opts, &session, &off));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up");
    let count = crate::work_units(opts.seconds, ROUND_SECONDS);
    let (all, wall) = repeat(count, |_| round(&state, &off, &mut outcome.failed));
    outcome.attempted = (all.len() * state.requests.len()) as u64;
    outcome.fingerprint = check_repeats(&all, &mut outcome.failed);

    if opts.trace {
        traced(opts, &mut outcome, &session, all.len(), wall);
        return outcome;
    }
    let rows: Vec<Vec<Option<&Executed>>> = all
        .iter()
        .map(|r| r.iter().map(Option::as_ref).collect())
        .collect();
    let mut work = [(0.0f64, 0.0f64); 3];
    let mut latencies = Vec::new();
    for ((phase, request), latency) in state.requests.iter().zip(median_latencies(&rows)) {
        let Some(latency) = latency else { continue };
        let per_trial = if *phase == Phase::Sb {
            SB_STEPS
        } else {
            CIM_ITERATIONS
        };
        let slot = &mut work[*phase as usize];
        slot.0 += (request.run.trials() * per_trial) as f64;
        slot.1 += latency;
        latencies.push(latency * 1e3);
    }
    let trials: Vec<f64> = all
        .iter()
        .flatten()
        .flatten()
        .flat_map(|e| e.trial_s.iter().map(|s| s * 1e3))
        .collect();
    let reports = phase_reports(&state, &all[0], Phase::InSitu);
    let normalized: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.objective)
        .map(|o| o / state.reference)
        .collect();
    let mean = |f: &dyn Fn(&SolveReport) -> f64| {
        reports.iter().map(|r| f(r)).sum::<f64>() / reports.len().max(1) as f64
    };
    outcome.set("setup_s", median(&setup_times));
    outcome.set(
        "anneal_iters_per_s",
        (work[0].0 + work[1].0) / (work[0].1 + work[1].1),
    );
    outcome.set("sb_steps_per_s", work[2].0 / work[2].1);
    outcome.set(
        "success_rate",
        success_rate(&normalized, TARGET_FRACTION, true),
    );
    outcome.set("sim_time_ms", mean(&|r| r.time.total()) * 1e3);
    outcome.set("sim_energy_uj", mean(&|r| r.energy.total()) * 1e6);
    outcome.set(
        "sustained_jobs_s",
        latencies.len() as f64 / (latencies.iter().sum::<f64>() * 1e-3),
    );
    outcome.dist(
        "request_ms",
        Some("p50_ms"),
        Some("p99_ms"),
        Dist::of(&latencies),
    );
    outcome.dist("trial_ms", None, Some("status_p99_ms"), Dist::of(&trials));
    outcome
}

/// The traced run: the same rounds with spans on, the `DeviceInLoop`
/// phases through instrumented replicas of their trials.
fn traced(opts: &Opts, outcome: &mut Outcome, session: &Session, count: usize, untraced_wall: f64) {
    let tracer = Tracer::new(true);
    let state = setup(opts, session, &tracer);
    let (all, wall) = repeat(count, |_| round(&state, &tracer, &mut outcome.failed));
    let fp = check_repeats(&all, &mut outcome.failed);
    if fp != outcome.fingerprint {
        eprintln!(
            "perfbench: traced fingerprint {} differs from untraced {}",
            fp.hex(),
            outcome.fingerprint.hex()
        );
        outcome.failed += 1;
    }
    // The annealing factor over one trial's worth of calls, per round.
    for _ in 0..count {
        factor_sweep(&tracer, 0, 0, CIM_ITERATIONS);
    }
    let _ = tracer
        .write_jsonl(&crate::out_dir().join(format!("trace-device_noisy-{}.jsonl", opts.seed)));
    let index = TraceIndex::of(&tracer);
    common_layers(outcome, &index);
    let program_ms = index.durations_ms("crossbar.program");
    outcome.set(
        "crossbar.program_ms",
        program_ms.iter().sum::<f64>() / program_ms.len().max(1) as f64,
    );

    let reads_us: Vec<f64> = index
        .durations_ms("crossbar.incr_read")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    outcome.set("crossbar.incr_reads", reads_us.len() as f64);
    outcome.dist(
        "crossbar.incr_read_us",
        Some("crossbar.incr_read_us.p50"),
        Some("crossbar.incr_read_us.p99"),
        Dist::of(&reads_us),
    );
    let mvm_ms = index.durations_ms("crossbar.mvm_read");
    outcome.set("crossbar.mvm_reads", mvm_ms.len() as f64);
    outcome.dist(
        "crossbar.mvm_read_ms",
        Some("crossbar.mvm_read_ms.p50"),
        Some("crossbar.mvm_read_ms.p99"),
        Dist::of(&mvm_ms),
    );

    let (mut engine_self, mut backend_ns, mut iterations) = (0u64, 0u64, 0u64);
    for span in index.named("anneal.anneal_with_backend") {
        engine_self += index.self_ns(span);
        backend_ns += span.duration_ns() - index.self_ns(span);
        iterations += CIM_ITERATIONS as u64;
    }
    outcome.set(
        "anneal.engine_self_ns_per_iter",
        engine_self as f64 / iterations.max(1) as f64,
    );
    outcome.set(
        "anneal.backend_ns_per_iter",
        backend_ns as f64 / iterations.max(1) as f64,
    );
    let (mut sb_self, mut steps) = (0u64, 0u64);
    for span in index.named("sb.run") {
        sb_self += index.self_ns(span);
        steps += SB_STEPS as u64;
    }
    outcome.set(
        "sb.step_self_us",
        sb_self as f64 * 1e-3 / steps.max(1) as f64,
    );

    // Exact counters from the first round's reports.
    let in_situ: Vec<_> = phase_reports(&state, &all[0], Phase::InSitu)
        .into_iter()
        .filter_map(|r| r.run.activity)
        .collect();
    let ops: u64 = in_situ.iter().map(|s| s.array_ops).sum();
    outcome.set(
        "crossbar.tiles_per_read",
        in_situ.iter().map(|s| s.tiles_activated).sum::<u64>() as f64 / ops.max(1) as f64,
    );
    outcome.set(
        "crossbar.adc_conversions_per_read",
        in_situ.iter().map(|s| s.adc_conversions).sum::<u64>() as f64 / ops.max(1) as f64,
    );
    let (mut accepted, mut attempted) = (0usize, 0usize);
    for r in phase_reports(&state, &all[0], Phase::InSitu) {
        accepted += r.run.accepted;
        attempted += r.run.iterations;
    }
    outcome.set(
        "anneal.accept_ratio",
        accepted as f64 / attempted.max(1) as f64,
    );
    // Batched phase: trial time per array read on the shared grid.
    let (mut batched_reads, mut batched_trial_s) = (0u64, 0.0f64);
    for r in &all {
        for ((phase, _), e) in state.requests.iter().zip(r) {
            if let (Phase::Batched, Some(e)) = (phase, e) {
                batched_reads += e
                    .response
                    .reports
                    .iter()
                    .filter_map(|r| r.run.activity.map(|s| s.array_ops))
                    .sum::<u64>();
                batched_trial_s += e.trial_s.iter().sum::<f64>();
            }
        }
    }
    outcome.set("crossbar.batched_reads", batched_reads as f64);
    outcome.set(
        "crossbar.batched_read_us",
        batched_trial_s * 1e6 / batched_reads.max(1) as f64,
    );
    outcome.set("bench.trace_overhead", wall / untraced_wall);
    outcome.set("bench.trace_spans", tracer.spans().len() as f64);
}
