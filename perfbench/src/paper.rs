//! `paper_fig10`: the paper's Fig. 10 / Table 1 protocol on the
//! 30-instance suite, both arms (CiM in-situ and CiM/ASIC direct-E) with
//! 100 seeded trials per instance on the analytic backend, plus a
//! four-trial, 200-step analytic dSB arm on the N800 group that is not
//! part of the paper's protocol and gives the SB engine a number on this
//! workload.
//!
//! Set-up (timed as `setup_s`) generates the suite, encodes it and runs
//! the local-search reference. The timed phase repeats whole protocol
//! passes, as many as fit the run's seconds on the reference machine;
//! every pass after the first must reproduce the first pass's
//! fingerprints.

use std::process::ExitCode;
use std::time::Instant;

use fecim::anneal::{multi_start_local_search, success_rate, Aggregate, ExactBackend};
use fecim::experiment::{run_experiment, ExperimentConfig, Scale};
use fecim::gset::{paper_suite, SizeGroup};
use fecim::ising::{CopProblem, Coupling, IsingModel, MaxCut, SpinVector};
use fecim::{
    CimAnnealer, DirectAnnealer, ProblemSpec, RunPlan, SbAnnealer, Session, SolveReport,
    SolveRequest, SolverSpec,
};
use perfbench::schedule::splitmix64;
use perfbench::stats::{median, Dist};
use perfbench::trace::{TraceIndex, Tracer};
use rand::SeedableRng;
use serde_json::json;

use crate::exec::{
    check_repeats, common_layers, execute, factor_sweep, median_latencies, plain_trial, repeat,
    Executed,
};
use crate::layers::{replay, RecordingBackend};
use crate::{Opts, Outcome, DEFAULT_SEED};

/// Seed salt the solvers apply before drawing a trial's start spins.
pub const INIT_SEED_SALT: u64 = 0xA5A5_5A5A;
/// Local-search starts of the reference optimum (paper protocol).
const REFERENCE_STARTS: usize = 20;
/// Success target as a fraction of the reference cut.
const TARGET_FRACTION: f64 = 0.9;
/// Trials per instance of the paper arms.
const PAPER_TRIALS: usize = 100;
/// Trials per instance of the dSB arm.
const SB_TRIALS: usize = 4;
/// Steps per dSB trial.
const SB_STEPS: usize = 200;
/// Approximate wall time of one protocol pass on 2 CPUs; a run makes
/// `seconds / PASS_SECONDS` passes (at least one), so every run of a
/// given length does the same work.
const PASS_SECONDS: f64 = 7.0;

/// Paper values printed beside the simulated numbers.
const PAPER_SUCCESS: f64 = 0.98;
const PAPER_BASELINE_SUCCESS: f64 = 0.50;
const PAPER_TABLE1_TIME_MS: f64 = 4.6;
const PAPER_TABLE1_ENERGY_UJ: f64 = 0.9;

/// One encoded suite instance.
#[derive(Debug)]
pub struct Instance {
    /// Suite label.
    pub label: String,
    /// Size group.
    pub group: SizeGroup,
    /// Index within the group (drives the trial base seed).
    pub group_index: usize,
    /// The wire-form problem.
    pub spec: ProblemSpec,
    /// The encoded problem.
    pub problem: MaxCut,
    /// Its Ising model.
    pub model: IsingModel,
    /// Local-search reference cut.
    pub reference: f64,
    /// Ising energy of a `TARGET_FRACTION` cut.
    pub target_energy: f64,
}

/// Generate, encode and reference the suite for `seed`. The default seed
/// yields `paper_suite()` exactly; any other seed perturbs every
/// instance's generator seed.
pub fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> Vec<Instance> {
    let mut suite = paper_suite();
    if smoke {
        suite.retain(|i| i.group == SizeGroup::N800);
        suite.truncate(2);
    }
    let mut group_counts: Vec<(SizeGroup, usize)> = Vec::new();
    suite
        .into_iter()
        .map(|inst| {
            let mut config = inst.config;
            config.seed ^= splitmix64(seed) ^ splitmix64(DEFAULT_SEED);
            let group_index = match group_counts.iter_mut().find(|(g, _)| *g == inst.group) {
                Some((_, count)) => {
                    *count += 1;
                    *count - 1
                }
                None => {
                    group_counts.push((inst.group, 1));
                    0
                }
            };
            let graph = tracer.span("gset.generate", 0, 0, |_| config.generate());
            let (problem, model) = tracer.span("ising.encode", 0, 0, |_| {
                let problem = graph.to_max_cut();
                let model = problem
                    .to_ising()
                    .expect("generated Max-Cut instances always encode");
                (problem, model)
            });
            let reference = tracer.span("anneal.reference", 0, 0, |_| {
                let (_, energy) =
                    multi_start_local_search(model.couplings(), REFERENCE_STARTS, seed);
                problem.cut_from_energy(energy)
            });
            let target_energy = problem.energy_from_cut(TARGET_FRACTION * reference);
            Instance {
                label: inst.label.clone(),
                group: inst.group,
                group_index,
                spec: ProblemSpec::from_graph(&graph),
                problem,
                model,
                reference,
                target_energy,
            }
        })
        .collect()
}

/// The protocol's arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// CiM in-situ.
    InSitu,
    /// CiM/ASIC direct-E baseline.
    Direct,
    /// Analytic dSB (not in the paper's protocol).
    Sb,
}

/// One request of a protocol pass.
#[derive(Debug)]
pub struct Planned {
    /// Instance index.
    pub instance: usize,
    /// Arm.
    pub arm: Arm,
    /// Iterations (steps) per trial.
    pub iterations: usize,
    /// The request.
    pub request: SolveRequest,
}

/// The requests of one pass, in the order `run_experiment` issues them
/// (group by group, instance by instance, in-situ then baseline), with
/// the dSB arm after the N800 instances.
pub fn plan(instances: &[Instance], seed: u64, smoke: bool) -> Vec<Planned> {
    let trials = if smoke { 10 } else { PAPER_TRIALS };
    let mut out = Vec::new();
    for (k, inst) in instances.iter().enumerate() {
        let iterations = inst.group.iteration_budget();
        let run = RunPlan::Ensemble {
            trials,
            base_seed: seed ^ ((inst.group_index as u64) << 32),
            threads: None,
        };
        let arms = [
            (
                Arm::InSitu,
                SolverSpec::Cim(
                    CimAnnealer::new(iterations).with_target_energy(inst.target_energy),
                ),
            ),
            (
                Arm::Direct,
                SolverSpec::Direct(
                    DirectAnnealer::cim_asic(iterations).with_target_energy(inst.target_energy),
                ),
            ),
        ];
        for (arm, solver) in arms {
            out.push(Planned {
                instance: k,
                arm,
                iterations,
                request: SolveRequest::new(inst.spec.clone(), solver)
                    .with_run(run)
                    .with_reference(inst.reference),
            });
        }
        if inst.group == SizeGroup::N800 {
            out.push(Planned {
                instance: k,
                arm: Arm::Sb,
                iterations: SB_STEPS,
                request: SolveRequest::new(
                    inst.spec.clone(),
                    SolverSpec::Sb(
                        SbAnnealer::discrete(SB_STEPS).with_target_energy(inst.target_energy),
                    ),
                )
                .with_run(RunPlan::Ensemble {
                    trials: SB_TRIALS,
                    base_seed: splitmix64(seed ^ 0x5B) ^ ((inst.group_index as u64) << 32),
                    threads: None,
                })
                .with_reference(inst.reference),
            });
        }
    }
    out
}

/// Scores of the first pass: per-group success and the Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scores {
    /// Mean in-situ success rate over groups.
    pub in_situ_success: f64,
    /// Mean baseline success rate over groups.
    pub baseline_success: f64,
    /// Spins of the largest group.
    pub largest_spins: usize,
    /// Table 1 time to solution, seconds.
    pub table1_time_s: f64,
    /// Table 1 energy to solution, joules.
    pub table1_energy_j: f64,
}

/// Score a pass the way `run_experiment` and `this_work_row` do.
pub fn score(instances: &[Instance], planned: &[Planned], results: &[Option<Executed>]) -> Scores {
    let mut groups: Vec<SizeGroup> = instances.iter().map(|i| i.group).collect();
    groups.dedup();
    let mut in_situ = Vec::new();
    let mut baseline = Vec::new();
    let mut largest = (0usize, 0.0f64, 0.0f64);
    for group in groups {
        let mut cuts = [Vec::new(), Vec::new()];
        let mut hits = Vec::new();
        let mut run_cost = (0.0, 0.0);
        let mut iterations = 0usize;
        let mut spins = 0usize;
        for (p, r) in planned.iter().zip(results) {
            let inst = &instances[p.instance];
            let Some(r) = r else { continue };
            if inst.group != group || p.arm == Arm::Sb {
                continue;
            }
            let side = usize::from(p.arm == Arm::Direct);
            let pairs = r.response.normalized_pairs().unwrap_or_default();
            cuts[side].extend(pairs.iter().map(|x| x.0));
            if p.arm == Arm::InSitu {
                hits.extend(pairs.iter().filter_map(|x| x.1).map(|h| h as f64));
                if let Some(first) = r.response.reports.first() {
                    run_cost = (first.time.total(), first.energy.total());
                }
                iterations = p.iterations;
                spins = inst.problem.spin_count();
            }
        }
        in_situ.push(success_rate(&cuts[0], TARGET_FRACTION, true));
        baseline.push(success_rate(&cuts[1], TARGET_FRACTION, true));
        if spins >= largest.0 {
            let fraction = if hits.is_empty() {
                1.0
            } else {
                Aggregate::of(&hits).mean / iterations as f64
            };
            largest = (spins, run_cost.0 * fraction, run_cost.1 * fraction);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Scores {
        in_situ_success: mean(&in_situ),
        baseline_success: mean(&baseline),
        largest_spins: largest.0,
        table1_time_s: largest.1,
        table1_energy_j: largest.2,
    }
}

/// Per-layer probe of one in-situ trial: re-run it through
/// `CimAnnealer::anneal_with_backend` on the exact backend (the span),
/// replay its backend calls on a fresh backend in one timed loop (the
/// rollup under that span), and time the annealing factor over the same
/// number of calls. Returns whether the probe reproduced the trial.
fn probe(
    tracer: &Tracer,
    inst: &Instance,
    iterations: usize,
    seed: u64,
    parent: u64,
    req: u64,
    expected: &SolveReport,
) -> bool {
    let quadratic = inst.model.to_quadratic_only();
    let coupling = quadratic.couplings();
    let n = coupling.dimension();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ INIT_SEED_SALT);
    let initial = SpinVector::random(n, &mut rng);
    let solver = CimAnnealer::new(iterations).with_target_energy(inst.target_energy);
    tracer.span("bench.probe", parent, req, |probe_span| {
        let mut anneal_span = 0;
        let run = tracer.span("anneal.anneal_with_backend", probe_span, req, |id| {
            anneal_span = id;
            let mut backend = ExactBackend::new(coupling, initial.clone());
            solver.anneal_with_backend(coupling, &mut backend, seed)
        });
        let mut recording = RecordingBackend::new(ExactBackend::new(coupling, initial.clone()));
        let _ = solver.anneal_with_backend(coupling, &mut recording, seed);
        let mut fresh = ExactBackend::new(coupling, initial.clone());
        let (calls, ns, _) = replay(&mut fresh, &recording.log);
        tracer.rollup(anneal_span, "anneal.backend", calls, ns);
        factor_sweep(tracer, probe_span, req, iterations);
        run.best_energy == expected.run.best_energy && run.best_spins == expected.run.best_spins
    })
}

/// Run every planned request once (`None` for a request that failed).
fn pass(
    session: &Session,
    instances: &[Instance],
    planned: &[Planned],
    tracer: &Tracer,
    failed: &mut u64,
) -> Vec<Option<Executed>> {
    let mut out = Vec::with_capacity(planned.len());
    for (k, p) in planned.iter().enumerate() {
        let req = k as u64 + 1;
        match execute(session, &p.request, tracer, req, plain_trial) {
            Ok(executed) => {
                if tracer.enabled() && p.arm == Arm::InSitu {
                    let seed = p.request.run.base_seed();
                    let inst = &instances[p.instance];
                    let ok = executed.response.reports.first().is_some_and(|first| {
                        probe(tracer, inst, p.iterations, seed, 0, req, first)
                    });
                    if !ok {
                        eprintln!(
                            "perfbench: probe of {} did not reproduce trial 0",
                            inst.label
                        );
                        *failed += 1;
                    }
                }
                out.push(Some(executed));
            }
            Err(e) => {
                eprintln!("perfbench: request {k} failed: {e}");
                *failed += 1;
                out.push(None);
            }
        }
    }
    out
}

fn setup_repeated(opts: &Opts, repeats: usize) -> (Vec<Instance>, f64) {
    let mut times = Vec::new();
    let mut last = Vec::new();
    for _ in 0..repeats {
        let t = Instant::now();
        last = setup(opts.seed, opts.smoke, &Tracer::new(false));
        times.push(t.elapsed().as_secs_f64());
    }
    (last, median(&times))
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let session = Session::new();
    let (instances, setup_s) = setup_repeated(opts, if opts.smoke { 1 } else { 3 });
    let planned = plan(&instances, opts.seed, opts.smoke);
    let off = Tracer::new(false);
    let count = crate::work_units(opts.seconds, PASS_SECONDS);
    let (passes, wall) = repeat(count, |_| {
        pass(&session, &instances, &planned, &off, &mut outcome.failed)
    });
    outcome.attempted = (passes.len() * planned.len()) as u64;
    outcome.fingerprint = check_repeats(&passes, &mut outcome.failed);
    let scores = score(&instances, &planned, &passes[0]);

    if opts.trace {
        traced(opts, &mut outcome, &session, &planned, passes.len(), wall);
    } else {
        end_to_end(&mut outcome, &planned, &passes, setup_s);
        outcome.set("success_rate", scores.in_situ_success);
        outcome.set("sim_time_ms", scores.table1_time_s * 1e3);
        outcome.set("sim_energy_uj", scores.table1_energy_j * 1e6);
    }
    paper_notes(&mut outcome, &scores);
    outcome
}

fn end_to_end(
    outcome: &mut Outcome,
    planned: &[Planned],
    passes: &[Vec<Option<Executed>>],
    setup_s: f64,
) {
    let rows: Vec<Vec<Option<&Executed>>> = passes
        .iter()
        .map(|pass| pass.iter().map(Option::as_ref).collect())
        .collect();
    let mut anneal = (0.0, 0.0);
    let mut sb = (0.0, 0.0);
    let mut latencies = Vec::new();
    for (p, latency) in planned.iter().zip(median_latencies(&rows)) {
        let Some(latency) = latency else { continue };
        let slot = if p.arm == Arm::Sb {
            &mut sb
        } else {
            &mut anneal
        };
        slot.0 += (p.request.run.trials() * p.iterations) as f64;
        slot.1 += latency;
        latencies.push(latency * 1e3);
    }
    let trials: Vec<f64> = passes
        .iter()
        .flatten()
        .flatten()
        .flat_map(|r| r.trial_s.iter().map(|s| s * 1e3))
        .collect();
    let busy: f64 = latencies.iter().sum::<f64>() * 1e-3;
    outcome.set("setup_s", setup_s);
    outcome.set("anneal_iters_per_s", anneal.0 / anneal.1);
    outcome.set("sb_steps_per_s", sb.0 / sb.1);
    outcome.set("sustained_jobs_s", latencies.len() as f64 / busy);
    outcome.dist(
        "request_ms",
        Some("p50_ms"),
        Some("p99_ms"),
        Dist::of(&latencies),
    );
    outcome.dist("trial_ms", None, Some("status_p99_ms"), Dist::of(&trials));
}

fn paper_notes(outcome: &mut Outcome, scores: &Scores) {
    let rel = |ours: f64, paper: f64| (ours - paper) / paper;
    let time_ms = scores.table1_time_s * 1e3;
    let energy_uj = scores.table1_energy_j * 1e6;
    eprintln!(
        "paper_fig10: success {:.3} (paper {PAPER_SUCCESS}, rel err {:+.3}); baseline {:.3} (paper {PAPER_BASELINE_SUCCESS}, rel err {:+.3})",
        scores.in_situ_success,
        rel(scores.in_situ_success, PAPER_SUCCESS),
        scores.baseline_success,
        rel(scores.baseline_success, PAPER_BASELINE_SUCCESS)
    );
    eprintln!(
        "paper_fig10: Table 1 row n={}: {time_ms:.4} ms (paper {PAPER_TABLE1_TIME_MS}, rel err {:+.3}), {energy_uj:.4} uJ (paper {PAPER_TABLE1_ENERGY_UJ}, rel err {:+.3})",
        scores.largest_spins,
        rel(time_ms, PAPER_TABLE1_TIME_MS),
        rel(energy_uj, PAPER_TABLE1_ENERGY_UJ)
    );
    eprintln!("paper_fig10: the hardware model is unvalidated beyond these published numbers");
    outcome.note(
        "paper_reference",
        json!({
            "success_rate": json!({"ours": scores.in_situ_success, "paper": PAPER_SUCCESS, "rel_err": rel(scores.in_situ_success, PAPER_SUCCESS)}),
            "baseline_success_rate": json!({"ours": scores.baseline_success, "paper": PAPER_BASELINE_SUCCESS, "rel_err": rel(scores.baseline_success, PAPER_BASELINE_SUCCESS)}),
            "sim_time_ms": json!({"ours": time_ms, "paper": PAPER_TABLE1_TIME_MS, "rel_err": rel(time_ms, PAPER_TABLE1_TIME_MS)}),
            "sim_energy_uj": json!({"ours": energy_uj, "paper": PAPER_TABLE1_ENERGY_UJ, "rel_err": rel(energy_uj, PAPER_TABLE1_ENERGY_UJ)}),
            "table1_spins": scores.largest_spins,
            "validity": "the hardware model is unvalidated beyond these published numbers",
        }),
    );
}

/// The traced run: set up and run the same passes again with spans on,
/// check the fingerprint, derive the per-layer metrics.
fn traced(
    opts: &Opts,
    outcome: &mut Outcome,
    session: &Session,
    planned: &[Planned],
    passes: usize,
    untraced_wall: f64,
) {
    let tracer = Tracer::new(true);
    let instances = setup(opts.seed, opts.smoke, &tracer);
    let (traced_passes, wall) = repeat(passes, |_| {
        pass(session, &instances, planned, &tracer, &mut outcome.failed)
    });
    let fp = check_repeats(&traced_passes, &mut outcome.failed);
    if fp != outcome.fingerprint {
        eprintln!(
            "perfbench: traced fingerprint {} differs from untraced {}",
            fp.hex(),
            outcome.fingerprint.hex()
        );
        outcome.failed += 1;
    }
    let _ = tracer
        .write_jsonl(&crate::out_dir().join(format!("trace-paper_fig10-{}.jsonl", opts.seed)));
    let index = TraceIndex::of(&tracer);
    common_layers(outcome, &index);

    let mut engine_self = 0u64;
    let mut backend = 0u64;
    let mut iterations = 0u64;
    for span in index.named("anneal.anneal_with_backend") {
        engine_self += index.self_ns(span);
        backend += index.rolled(span.id, "anneal.backend").1;
    }
    for p in planned.iter().filter(|p| p.arm == Arm::InSitu) {
        iterations += p.iterations as u64;
    }
    iterations *= passes as u64;
    outcome.set(
        "anneal.engine_self_ns_per_iter",
        engine_self as f64 / iterations.max(1) as f64,
    );
    outcome.set(
        "anneal.backend_ns_per_iter",
        backend as f64 / iterations.max(1) as f64,
    );
    let (mut accepted, mut attempted) = (0usize, 0usize);
    for (p, r) in planned.iter().zip(&traced_passes[0]) {
        let Some(r) = r else { continue };
        if p.arm == Arm::InSitu {
            for report in &r.response.reports {
                accepted += report.run.accepted;
                attempted += report.run.iterations;
            }
        }
    }
    outcome.set(
        "anneal.accept_ratio",
        accepted as f64 / attempted.max(1) as f64,
    );
    outcome.set("bench.trace_overhead", wall / untraced_wall);
    outcome.set("bench.trace_spans", tracer.spans().len() as f64);
}

/// One-off check: the decomposed protocol at the default seed reproduces
/// `run_experiment(ExperimentConfig::new(Scale::Paper))` exactly — both
/// success rates and the Table 1 row.
pub fn check_paper() -> ExitCode {
    let tracer = Tracer::new(false);
    let instances = setup(DEFAULT_SEED, false, &tracer);
    let planned = plan(&instances, DEFAULT_SEED, false);
    let mut failed = 0;
    let results = pass(&Session::new(), &instances, &planned, &tracer, &mut failed);
    let ours = score(&instances, &planned, &results);
    let reference = match run_experiment(ExperimentConfig::new(Scale::Paper)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: run_experiment failed: {e}");
            return ExitCode::from(1);
        }
    };
    let largest = reference
        .groups
        .iter()
        .max_by_key(|g| g.spins)
        .expect("the paper suite has groups");
    let hw = largest
        .hardware
        .iter()
        .find(|h| h.kind == fecim::hwcost::AnnealerKind::InSitu)
        .expect("in-situ cost present");
    let fraction = largest
        .in_situ
        .mean_iterations_to_target
        .map_or(1.0, |i| i / largest.iterations as f64);
    let expected = Scores {
        in_situ_success: reference.in_situ_mean_success(),
        baseline_success: reference.baseline_mean_success(),
        largest_spins: largest.spins,
        table1_time_s: hw.time * fraction,
        table1_energy_j: hw.energy * fraction,
    };
    let same = |a: f64, b: f64| a == b || ((a - b) / b).abs() < 1e-12;
    let ok = failed == 0
        && ours.in_situ_success == expected.in_situ_success
        && ours.baseline_success == expected.baseline_success
        && ours.largest_spins == expected.largest_spins
        && same(ours.table1_time_s, expected.table1_time_s)
        && same(ours.table1_energy_j, expected.table1_energy_j);
    println!("decomposed protocol: {ours:?}");
    println!("run_experiment:      {expected:?}");
    println!("{}", if ok { "MATCH" } else { "MISMATCH" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
