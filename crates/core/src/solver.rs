//! The unifying [`Solver`] abstraction over the three annealer
//! architectures.
//!
//! Every solver in this crate ([`CimAnnealer`](crate::CimAnnealer),
//! [`DirectAnnealer`](crate::DirectAnnealer),
//! [`MesaAnnealer`](crate::MesaAnnealer)) runs the same pipeline:
//!
//! 1. transform the COP to an Ising model (ancilla-embedding linear
//!    terms when present);
//! 2. draw the seeded random start configuration;
//! 3. run an architecture-specific annealing engine on the quadratic
//!    coupling;
//! 4. project the best embedded configuration back to the problem's
//!    original spins and score it in the native objective;
//! 5. attach hardware energy/time costs for the architecture.
//!
//! Steps 1, 2, 4 and 5 are identical across architectures and live in
//! one private trial function that [`Solver::solve`] and every
//! [`Session`](crate::Session) route call; implementors supply only the
//! two architecture-specific hooks [`Solver::run_engine`] (step 3) and
//! [`Solver::hardware_report`] (step 5's costing rule). Experiment
//! drivers dispatch over `&dyn Solver`, so adding a fourth architecture
//! never touches them.

use rand::SeedableRng;

#[cfg(test)]
use fecim_anneal::Ensemble;
use fecim_anneal::RunResult;
use fecim_hwcost::{AnnealerKind, CostModel, EnergyReport, IterationProfile, TimeReport};
use fecim_ising::{CopProblem, Coupling, CsrCoupling, IsingError, IsingModel, SpinVector};

use crate::annealer::SolveReport;

/// Seed salt applied before drawing the initial configuration, so the
/// start state and the engine's proposal stream come from decorrelated
/// streams of the same user seed.
const INIT_SEED_SALT: u64 = 0xA5A5_5A5A;

/// How every plain (software-exact) solver prices its run: the paper's
/// default geometry — 4-bit weights (Fig. 6d), 8:1 ADC muxing, one array
/// spanning the problem — at the solver's flip-set size `flips`. Device
/// runs are priced from their measured activity instead
/// ([`DeviceSolver`](crate::DeviceSolver)).
pub(crate) fn paper_pricing(spins: usize, flips: usize) -> (IterationProfile, CostModel) {
    let profile = IterationProfile {
        flips,
        ..IterationProfile::paper(spins)
    };
    (profile, CostModel::paper_22nm(spins, profile.quant_bits))
}

/// A combinatorial-optimization solver with hardware-cost accounting —
/// the common face of the paper's three annealer architectures.
///
/// Object safe: experiment drivers hold `&dyn Solver` / `Box<dyn Solver>`
/// and the [`Ensemble`](fecim_anneal::Ensemble) runner fans solver calls
/// out across threads (`Solver: Send + Sync`).
pub trait Solver: Send + Sync {
    /// Human-readable architecture name for reports and logs.
    fn name(&self) -> &str;

    /// The architecture tag attached to [`SolveReport::kind`].
    fn kind(&self) -> AnnealerKind;

    /// Iterations per run.
    fn iterations(&self) -> usize;

    /// Architecture hook: anneal a prepared quadratic coupling from the
    /// given start configuration. `seed` drives the engine's proposal
    /// stream.
    fn run_engine(&self, coupling: &CsrCoupling, initial: SpinVector, seed: u64) -> RunResult;

    /// Architecture hook: the hardware energy/time of a finished run over
    /// `spins` logical spins. Receives the run mutably so architectures
    /// can stamp architecture-implied activity (e.g. the baselines' one
    /// `eˣ` evaluation per iteration) before costing.
    fn hardware_report(&self, run: &mut RunResult, spins: usize) -> (EnergyReport, TimeReport);

    /// Solve a COP: transform to Ising, anneal, score the best solution
    /// in the problem's native objective and attach hardware costs.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors from the problem's Ising transformation.
    fn solve(&self, problem: &dyn CopProblem, seed: u64) -> Result<SolveReport, IsingError> {
        let encoding = Encoding::of(problem)?;
        Ok(trial(
            problem,
            &encoding,
            None,
            seed,
            self.kind(),
            |coupling, initial| self.run_engine(coupling, initial, seed),
            |run| self.hardware_report(run, encoding.model.dimension()),
        ))
    }
}

/// A problem's Ising model plus the quadratic-only form the engines
/// anneal over, encoded once and shared by every trial of a job.
pub(crate) struct Encoding {
    pub(crate) model: IsingModel,
    /// The ancilla-embedded form of a model with linear fields; `None`
    /// when the model is already quadratic-only (no second copy).
    embedded: Option<IsingModel>,
}

impl Encoding {
    /// Encode `problem`.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors from the problem's Ising transformation.
    pub(crate) fn of(problem: &dyn CopProblem) -> Result<Encoding, IsingError> {
        let model = problem.to_ising()?;
        let embedded = (!model.is_quadratic_only()).then(|| model.to_quadratic_only());
        Ok(Encoding { model, embedded })
    }

    /// The quadratic coupling the engines anneal over.
    pub(crate) fn coupling(&self) -> &CsrCoupling {
        self.embedded.as_ref().unwrap_or(&self.model).couplings()
    }
}

/// One trial of `problem` — the pipeline every route runs
/// ([`Solver::solve`], `PreparedJob::run_trial` and
/// `PreparedJob::run_batched_trial`):
///
/// 1. pick the start: `start` embedded into the quadratic space (warm
///    start), else a random configuration drawn from `seed ^
///    INIT_SEED_SALT`;
/// 2. anneal it with `engine` on the quadratic coupling;
/// 3. project the best configuration back to the original spins and
///    score it in the native objective;
/// 4. attach the hardware energy/time `price` assigns the run.
pub(crate) fn trial(
    problem: &dyn CopProblem,
    encoding: &Encoding,
    start: Option<&SpinVector>,
    seed: u64,
    kind: AnnealerKind,
    engine: impl FnOnce(&CsrCoupling, SpinVector) -> RunResult,
    price: impl FnOnce(&mut RunResult) -> (EnergyReport, TimeReport),
) -> SolveReport {
    let model = &encoding.model;
    let coupling = encoding.coupling();
    let initial = match start {
        Some(start) => embed_start(model, start),
        None => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ INIT_SEED_SALT);
            SpinVector::random(coupling.dimension(), &mut rng)
        }
    };
    let mut run = engine(coupling, initial);
    let spins = if model.is_quadratic_only() {
        run.best_spins.clone()
    } else {
        model.project_from_quadratic(&run.best_spins)
    };
    let objective = problem.native_objective(&spins);
    let feasible = problem.is_feasible(&spins);
    let (energy, time) = price(&mut run);
    SolveReport {
        kind,
        best_energy: run.best_energy,
        objective: Some(objective),
        feasible,
        best_spins: spins,
        energy,
        time,
        run,
    }
}

/// Embed a start configuration given in `model`'s original spin space
/// into the quadratic-only space [`Solver::run_engine`] anneals over.
/// Models with linear fields gain an ancilla spin at index 0, fixed to
/// `+1` so the gauge projection recovers the original spins unchanged —
/// a zero-iteration run returns `start` verbatim.
fn embed_start(model: &IsingModel, start: &SpinVector) -> SpinVector {
    assert_eq!(
        start.len(),
        model.dimension(),
        "warm-start spins must match the model dimension"
    );
    if model.is_quadratic_only() {
        start.clone()
    } else {
        let mut signs = Vec::with_capacity(start.len() + 1);
        signs.push(1);
        signs.extend_from_slice(start.as_slice());
        SpinVector::from_signs(&signs)
    }
}

/// One parallel ensemble of `solver` on `problem`, scored per trial as
/// `(native objective / reference, first iteration reaching the target)`
/// — the per-run record behind Fig. 10, Table 1 and the calibration
/// sweeps. Dispatches through `&dyn Solver`, so any architecture plugs
/// in unchanged. The public route to the same record is a
/// [`SolveRequest`](crate::SolveRequest) with a `reference` and an
/// ensemble [`RunPlan`](crate::RunPlan) through
/// [`Session::run`](crate::Session::run) (read
/// `SolveResponse::normalized` / `normalized_pairs()`).
///
/// # Errors
///
/// Returns the problem's encoding error instead of panicking when the
/// instance has no Ising form (and an [`IsingError::InvalidProblem`] if
/// a solve ever came back without a native objective — impossible for
/// the COP types in this workspace, but a solver bug must surface as an
/// error, not a crash inside a worker thread).
#[cfg(test)] // production callers go through `Session`'s normalized scoring
pub(crate) fn normalized_ensemble_impl(
    solver: &dyn Solver,
    problem: &(dyn CopProblem + Sync),
    reference: f64,
    ensemble: &Ensemble,
) -> Result<Vec<(f64, Option<usize>)>, IsingError> {
    // Encoding is deterministic: validate once before fanning out so a
    // bad instance fails fast instead of `trials` times.
    problem.to_ising()?;
    ensemble
        .run(|seed| {
            let report = solver.solve(problem, seed)?;
            let objective = report.objective.ok_or_else(|| {
                IsingError::InvalidProblem(format!(
                    "solver `{}` returned no native objective for `{}`",
                    solver.name(),
                    problem.name()
                ))
            })?;
            Ok((objective / reference, report.run.first_target_hit))
        })
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CimAnnealer, DirectAnnealer, MesaAnnealer};
    use fecim_ising::MaxCut;

    fn ring_problem(n: usize) -> MaxCut {
        MaxCut::new(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect()).unwrap()
    }

    #[test]
    fn all_three_architectures_dispatch_dynamically() {
        let ours = CimAnnealer::new(1500).with_flips(1);
        let fpga = DirectAnnealer::cim_fpga(1500).with_flips(1);
        let mesa = MesaAnnealer::new(1500);
        let solvers: [&dyn Solver; 3] = [&ours, &fpga, &mesa];
        let problem = ring_problem(12);
        for solver in solvers {
            let report = solver.solve(&problem, 5).unwrap();
            assert_eq!(report.kind, solver.kind(), "{}", solver.name());
            assert!(report.objective.unwrap() >= 8.0, "{}", solver.name());
            assert!(!solver.name().is_empty());
            assert_eq!(solver.iterations(), 1500);
        }
    }

    #[test]
    fn trait_solve_matches_inherent_solve() {
        let problem = ring_problem(10);
        let solver = CimAnnealer::new(500).with_flips(1);
        let inherent = solver.solve(&problem, 3).unwrap();
        let dynamic = Solver::solve(&solver, &problem, 3).unwrap();
        assert_eq!(inherent.best_energy, dynamic.best_energy);
        assert_eq!(inherent.best_spins, dynamic.best_spins);
        assert_eq!(inherent.energy.total(), dynamic.energy.total());
    }

    #[test]
    fn unencodable_problems_error_instead_of_panicking() {
        use fecim_anneal::Ensemble;
        use fecim_ising::{IsingError, ObjectiveSense};

        #[derive(Debug)]
        struct NoIsingForm;
        impl fecim_ising::CopProblem for NoIsingForm {
            fn spin_count(&self) -> usize {
                3
            }
            fn to_ising(&self) -> Result<fecim_ising::IsingModel, IsingError> {
                Err(IsingError::InvalidProblem(
                    "this model has no Ising form".into(),
                ))
            }
            fn native_objective(&self, _: &fecim_ising::SpinVector) -> f64 {
                0.0
            }
            fn objective_sense(&self) -> ObjectiveSense {
                ObjectiveSense::Maximize
            }
            fn is_feasible(&self, _: &fecim_ising::SpinVector) -> bool {
                true
            }
            fn name(&self) -> &str {
                "no-ising-form"
            }
        }

        let problem = NoIsingForm;
        for solver in [
            &CimAnnealer::new(50) as &dyn Solver,
            &DirectAnnealer::cim_asic(50),
            &MesaAnnealer::new(50),
        ] {
            let err = solver.solve(&problem, 1).expect_err("must not panic");
            assert!(matches!(err, IsingError::InvalidProblem(_)), "{err}");
        }
        let err =
            normalized_ensemble_impl(&CimAnnealer::new(50), &problem, 1.0, &Ensemble::new(4, 9))
                .expect_err("ensemble must propagate, not panic");
        assert!(matches!(err, IsingError::InvalidProblem(_)));
    }

    /// One warm-started trial of `problem` through the shared pipeline.
    fn warm_trial(
        solver: &dyn Solver,
        problem: &dyn CopProblem,
        start: &SpinVector,
        seed: u64,
    ) -> SolveReport {
        let encoding = Encoding::of(problem).unwrap();
        trial(
            problem,
            &encoding,
            Some(start),
            seed,
            solver.kind(),
            |coupling, initial| solver.run_engine(coupling, initial, seed),
            |run| solver.hardware_report(run, encoding.model.dimension()),
        )
    }

    #[test]
    fn warm_start_zero_iteration_run_returns_start_verbatim() {
        // Quadratic-only model (Max-Cut ring): no ancilla embedding.
        let ring = ring_problem(8);
        let model = fecim_ising::CopProblem::to_ising(&ring).unwrap();
        let start = SpinVector::from_signs(&[1, -1, 1, 1, -1, -1, 1, -1]);
        let report = warm_trial(&CimAnnealer::new(0), &ring, &start, 7);
        assert_eq!(report.best_spins, start);
        assert_eq!(report.run.best_energy, model.energy(&start));

        // Model WITH linear fields: the ancilla embedding must project
        // the supplied spins back unchanged, for all three engines.
        let mut qubo = fecim_ising::Qubo::new(4);
        qubo.add_term(0, 0, -1.0);
        qubo.add_term(0, 1, 2.0);
        qubo.add_term(1, 1, 0.75);
        qubo.add_term(2, 3, -0.5);
        let model = fecim_ising::CopProblem::to_ising(&qubo).unwrap();
        assert!(!model.is_quadratic_only());
        let start = SpinVector::from_signs(&[-1, 1, -1, 1]);
        for solver in [
            &CimAnnealer::new(0) as &dyn Solver,
            &DirectAnnealer::cim_fpga(0),
            &MesaAnnealer::new(0),
        ] {
            let report = warm_trial(solver, &qubo, &start, 3);
            assert_eq!(report.best_spins, start, "{}", solver.name());
            assert_eq!(report.run.iterations, 0, "{}", solver.name());
        }
    }

    #[test]
    fn warm_start_with_iterations_never_worsens_the_start() {
        let ring = ring_problem(16);
        let model = fecim_ising::CopProblem::to_ising(&ring).unwrap();
        let start = SpinVector::all_up(16); // worst cut: energy 16·J
        let report = warm_trial(&CimAnnealer::new(300).with_flips(1), &ring, &start, 11);
        assert!(
            report.run.best_energy <= model.energy(&start),
            "best over a trajectory that includes the start cannot exceed it"
        );
    }

    #[test]
    fn boxed_solvers_compose() {
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(CimAnnealer::new(300).with_flips(1)),
            Box::new(DirectAnnealer::cim_asic(300).with_flips(1)),
            Box::new(MesaAnnealer::new(300)),
        ];
        let problem = ring_problem(8);
        let energies: Vec<f64> = solvers
            .iter()
            .map(|s| s.solve(&problem, 1).unwrap().best_energy)
            .collect();
        assert_eq!(energies.len(), 3);
    }
}
