//! The one device-in-the-loop route: a solver paired with the simulated
//! DG FeFET crossbar its measurements go through.
//!
//! The annealing algorithm and the array it measures on are separate
//! concerns (paper Sec. 3), so [`CimAnnealer`], [`SbAnnealer`] and
//! [`DirectAnnealer`] carry only algorithm settings. A [`DeviceSolver`]
//! adds the [`CrossbarConfig`] and tile height, and it is the only code
//! that runs or prices a device trial:
//! [`BackendPlan::DeviceInLoop`](crate::BackendPlan::DeviceInLoop) runs it
//! on a [`TiledCrossbar`] programmed for each trial, and
//! [`BackendPlan::Batched`](crate::BackendPlan::Batched) runs the same
//! solver on a [`BatchInstance`](fecim_crossbar::BatchInstance) of a
//! shared grid.

use fecim_anneal::{DeviceBackend, RunResult};
use fecim_crossbar::{CrossbarConfig, InSituArray, TiledCrossbar};
use fecim_hwcost::{
    energy_of, time_of, AnnealerKind, CostModel, EnergyReport, ExpUnit, TimeReport,
};
use fecim_ising::{Coupling, CsrCoupling, SpinVector};
use fecim_sb::DeviceMvm;

use crate::request::SolverSpec;
use crate::solver::Solver;
use crate::{CimAnnealer, DirectAnnealer, SbAnnealer};

/// The algorithm a [`DeviceSolver`] runs on its array.
#[derive(Debug)]
pub(crate) enum Arch {
    /// The in-situ flow: per-flip incremental-E reads.
    Cim(CimAnnealer),
    /// bSB/dSB: full-array MVM reads.
    Sb(SbAnnealer),
    /// The direct-E baselines: full-array VMV reads.
    Direct(DirectAnnealer),
}

impl Arch {
    /// The device-capable algorithm of `spec` (`None` for MESA, which
    /// runs only on the analytic backend).
    pub(crate) fn of(spec: &SolverSpec) -> Option<Arch> {
        match spec {
            SolverSpec::Cim(solver) => Some(Arch::Cim(solver.clone())),
            SolverSpec::Sb(solver) => Some(Arch::Sb(solver.clone())),
            SolverSpec::Direct(solver) => Some(Arch::Direct(solver.clone())),
            SolverSpec::Mesa(_) => None,
        }
    }

    fn solver(&self) -> &dyn Solver {
        match self {
            Arch::Cim(solver) => solver,
            Arch::Sb(solver) => solver,
            Arch::Direct(solver) => solver,
        }
    }
}

/// A solver whose every measurement goes through the simulated crossbar
/// (quantization, ADC conversion, activity statistics and — in
/// device-accurate fidelity — variation and read noise), priced from the
/// activity it measured.
///
/// Built by the solvers' `with_device_in_loop` (one tile spanning the
/// matrix) and `with_tiled_device_in_loop` (fixed-size tiles), or by a
/// [`Session`](crate::Session) for a device [`BackendPlan`](crate::BackendPlan).
#[derive(Debug)]
pub struct DeviceSolver {
    arch: Arch,
    config: CrossbarConfig,
    tile_rows: Option<usize>,
}

impl DeviceSolver {
    /// Pair `arch` with the array it reads through: `tile_rows`-row
    /// tiles, or one tile spanning the matrix when `None`.
    ///
    /// # Panics
    ///
    /// Panics if `tile_rows == Some(0)`.
    pub(crate) fn new(
        arch: Arch,
        config: CrossbarConfig,
        tile_rows: Option<usize>,
    ) -> DeviceSolver {
        assert!(tile_rows != Some(0), "tile_rows must be positive");
        DeviceSolver {
            arch,
            config,
            tile_rows,
        }
    }

    /// The crossbar configuration the solver's arrays are programmed with.
    pub(crate) fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Anneal `coupling` from `initial`, reading through `array`, which
    /// already holds `coupling`: a freshly programmed [`TiledCrossbar`]
    /// or a shared-grid replica.
    pub(crate) fn run_on<A: InSituArray>(
        &self,
        coupling: &CsrCoupling,
        initial: SpinVector,
        array: A,
        seed: u64,
    ) -> RunResult {
        match &self.arch {
            Arch::Cim(solver) => solver.anneal_with_backend(
                coupling,
                &mut DeviceBackend::on(array, coupling, initial),
                seed,
            ),
            Arch::Direct(solver) => solver.anneal_with_backend(
                coupling,
                &mut DeviceBackend::on(array, coupling, initial),
                seed,
            ),
            // The array IS the MVM source: SB steps read it one
            // full-vector MVM at a time.
            Arch::Sb(solver) => solver.engine().run(
                coupling,
                &mut DeviceMvm::new(array, solver.in_bits()),
                &initial,
                seed,
            ),
        }
    }
}

impl Solver for DeviceSolver {
    fn name(&self) -> &str {
        self.arch.solver().name()
    }

    fn kind(&self) -> AnnealerKind {
        self.arch.solver().kind()
    }

    fn iterations(&self) -> usize {
        self.arch.solver().iterations()
    }

    fn run_engine(&self, coupling: &CsrCoupling, initial: SpinVector, seed: u64) -> RunResult {
        let tile_rows = self.tile_rows.unwrap_or(coupling.dimension());
        let array = TiledCrossbar::program(coupling, self.config.clone(), tile_rows);
        self.run_on(coupling, initial, array, seed)
    }

    fn hardware_report(&self, run: &mut RunResult, spins: usize) -> (EnergyReport, TimeReport) {
        let stats = run
            .activity
            .as_mut()
            // audit:allow(panic-path): device trials run only through crossbar arrays, which always populate `activity`; a None is a backend bug that must abort, not report zero cost
            .expect("device arrays always record activity");
        if let Arch::Direct(_) = self.arch {
            // The baseline evaluates eˣ once per iteration (Fig. 1b
            // digital computation).
            stats.exp_evaluations = run.iterations as u64;
        }
        let exp_unit = self.kind().exp_unit().unwrap_or(ExpUnit::Asic);
        let quant_bits = self.config.quant_bits;
        let cost_model = match self.tile_rows {
            None => CostModel::paper_22nm(spins, quant_bits),
            Some(rows) => CostModel::paper_22nm_tiled(spins, quant_bits, rows),
        };
        (
            energy_of(stats, &cost_model, exp_unit),
            time_of(stats, &cost_model, exp_unit),
        )
    }
}
