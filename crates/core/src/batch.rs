//! Shared-grid batched solving: a whole device-in-the-loop ensemble on
//! ONE physical tile grid.
//!
//! A single in-situ iteration activates only the flipped stripes of one
//! instance's block; everything else idles. The batched route (a
//! [`SolveRequest`](crate::SolveRequest) with
//! [`BackendPlan::Batched`](crate::BackendPlan::Batched) through
//! [`Session::run`](crate::Session::run)) turns that slack into
//! throughput: the ensemble's replicas are packed
//! side by side onto one [`BatchedTiledCrossbar`] (block-diagonal along
//! the stripe axis), every replica runs the request's
//! [`DeviceSolver`](crate::DeviceSolver) on its own
//! [`BatchInstance`](fecim_crossbar::BatchInstance), and replicas convert
//! concurrently on disjoint ADC banks — the grid serves `trials` solves
//! in the hardware time of roughly one.
//!
//! In [`Fidelity::Ideal`](fecim_crossbar::Fidelity::Ideal) mode each
//! replica's trajectory is bit-identical to the same trial run unbatched
//! through [`CimAnnealer::with_tiled_device_in_loop`](crate::CimAnnealer::with_tiled_device_in_loop)
//! — batching is a placement change, not an algorithm change — which is
//! exactly what the equivalence tests pin.

use serde::{Deserialize, Serialize};

use fecim_crossbar::BatchedTiledCrossbar;

use crate::annealer::SolveReport;

/// Grid-level summary of one batched ensemble solve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchGridSummary {
    /// Replicas that shared the grid.
    pub instances: usize,
    /// Physical tile height of every block.
    pub tile_rows: usize,
    /// Shared-grid dimensions `(row_bands, column_stripes)`.
    pub grid: (usize, usize),
    /// Physical tiles the shared grid instantiates.
    pub physical_tiles: usize,
    /// Fraction of the grid's tile-cycles activated when every replica
    /// iterates concurrently (lockstep estimate: summed per-instance
    /// activations over the grid's capacity for the longest replica's
    /// cycle count).
    pub concurrent_utilization: f64,
    /// Total hardware energy across all replicas, joules (attributed
    /// per replica in the individual [`SolveReport`]s).
    pub total_energy: f64,
    /// Hardware latency of the batch: replicas run concurrently on
    /// disjoint banks, so the batch finishes with its slowest replica.
    pub batch_time: f64,
    /// Hardware latency if the same grid served the replicas one at a
    /// time (the unbatched alternative): the sum of replica latencies.
    pub serial_time: f64,
    /// Solves per second of simulated hardware time under batching.
    pub instances_per_second: f64,
}

impl BatchGridSummary {
    /// Summarize one chunk grid after its replicas ran: placement from
    /// `grid`, hardware totals from the chunk's `reports`.
    pub(crate) fn of(
        grid: &BatchedTiledCrossbar,
        tile_rows: usize,
        reports: &[SolveReport],
    ) -> BatchGridSummary {
        let mut total_energy = 0.0f64;
        let mut batch_time = 0.0f64;
        let mut serial_time = 0.0f64;
        for report in reports {
            total_energy += report.energy.total();
            batch_time = batch_time.max(report.time.total());
            serial_time += report.time.total();
        }
        let instances = grid.instance_count();
        BatchGridSummary {
            instances,
            tile_rows,
            grid: grid.grid(),
            physical_tiles: grid.physical_tiles(),
            concurrent_utilization: concurrent_utilization(grid),
            total_energy,
            batch_time,
            serial_time,
            instances_per_second: if batch_time > 0.0 {
                instances as f64 / batch_time
            } else {
                0.0
            },
        }
    }
}

/// Lockstep utilization estimate: replicas iterate concurrently, so the
/// grid runs for the busiest replica's cycle count and every instance's
/// activated tiles land inside that window.
fn concurrent_utilization(grid: &BatchedTiledCrossbar) -> f64 {
    let mut activated = 0u64;
    let mut worst_cycles = 0u64;
    for i in 0..grid.instance_count() {
        let stats = grid.instance_stats(i);
        activated += stats.tiles_activated;
        worst_cycles = worst_cycles.max(stats.array_ops);
    }
    let capacity = worst_cycles * grid.physical_tiles() as u64;
    if capacity == 0 {
        return 0.0;
    }
    activated as f64 / capacity as f64
}

#[cfg(test)]
mod tests {
    use crate::{
        BackendPlan, CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec,
    };

    #[test]
    fn batch_summary_reports_sharing_win() {
        let out = Session::new()
            .run(
                &SolveRequest::new(
                    ProblemSpec::MaxCut {
                        vertices: 16,
                        edges: (0..16).map(|i| (i, (i + 1) % 16, 1.0)).collect(),
                    },
                    SolverSpec::Cim(CimAnnealer::new(80).with_flips(1)),
                )
                .with_backend(BackendPlan::Batched {
                    tile_rows: 4,
                    instances: 4,
                })
                .with_run(RunPlan::Ensemble {
                    trials: 4,
                    base_seed: 7,
                    threads: None,
                }),
            )
            .expect("ring encodes");
        assert_eq!(out.grids.len(), 1);
        let g = &out.grids[0];
        assert_eq!(g.instances, 4);
        assert_eq!(g.grid.0, 4);
        assert_eq!(g.grid.1, 16, "4 replicas × 4 stripes each");
        assert_eq!(g.physical_tiles, 64);
        // Concurrency: the batch finishes with its slowest replica, far
        // sooner than serving replicas one at a time.
        assert!(g.batch_time > 0.0);
        assert!(
            g.serial_time > 3.0 * g.batch_time,
            "serial {} vs batch {}",
            g.serial_time,
            g.batch_time
        );
        assert!(g.instances_per_second > 0.0);
        assert!(g.concurrent_utilization > 0.0 && g.concurrent_utilization <= 1.0);
        // Per-replica attribution survives batching.
        for r in &out.reports {
            assert!(r.energy.total() > 0.0);
            assert!(r.run.activity.is_some());
        }
        let attributed: f64 = out.reports.iter().map(|r| r.energy.total()).sum();
        assert!((attributed - g.total_energy).abs() < 1e-12 * g.total_energy.abs().max(1.0));
    }
}
