//! Results of annealing runs.

use serde::{Deserialize, Serialize};

use fecim_crossbar::ActivityStats;
use fecim_ising::SpinVector;

use crate::trace::Trace;

/// Outcome of one annealing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Iterations executed.
    pub iterations: usize,
    /// Accepted proposals.
    pub accepted: usize,
    /// Exact Ising energy of the final configuration.
    pub final_energy: f64,
    /// Final configuration.
    pub final_spins: SpinVector,
    /// Best exact energy visited during the run.
    pub best_energy: f64,
    /// Configuration achieving `best_energy`.
    pub best_spins: SpinVector,
    /// First iteration at which the best energy reached the configured
    /// target (`None` when no target was set or it was never reached).
    /// Iteration 0 means the random initialization already met it.
    pub first_target_hit: Option<usize>,
    /// Sampled trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// Hardware activity (present for crossbar-backed runs).
    pub activity: Option<ActivityStats>,
}

impl RunResult {
    /// Acceptance ratio over the run.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        self.accepted as f64 / self.iterations as f64
    }
}

/// Aggregate statistics over a set of per-run scalar outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Number of values aggregated.
    pub count: usize,
    /// Mean value.
    pub mean: f64,
    /// Standard deviation (population).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Aggregate {
    /// Aggregate a slice of values.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Aggregate {
        assert!(!values.is_empty(), "cannot aggregate zero values");
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Aggregate {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// Fraction of `values` meeting-or-exceeding `target` — the paper's
/// success rate (Fig. 10: 100 runs per instance, success = reaching 90 %
/// of the optimal cut); use `maximize = false` for minimization
/// objectives.
pub fn success_rate(values: &[f64], target: f64, maximize: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let hits = values
        .iter()
        .filter(|&&v| if maximize { v >= target } else { v <= target })
        .count();
    hits as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_basic_statistics() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.count, 4);
        assert!((a.mean - 2.5).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert!((a.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero values")]
    fn aggregate_rejects_empty() {
        let _ = Aggregate::of(&[]);
    }

    #[test]
    fn acceptance_ratio_handles_zero_iterations() {
        let r = RunResult {
            iterations: 0,
            accepted: 0,
            final_energy: 0.0,
            final_spins: SpinVector::all_up(1),
            best_energy: 0.0,
            best_spins: SpinVector::all_up(1),
            first_target_hit: None,
            trace: Trace::new(),
            activity: None,
        };
        assert_eq!(r.acceptance_ratio(), 0.0);
    }

    #[test]
    fn success_rate_directions() {
        let vals = [0.5, 0.95, 0.99, 0.8];
        assert!((success_rate(&vals, 0.9, true) - 0.5).abs() < 1e-12);
        assert!((success_rate(&vals, 0.9, false) - 0.5).abs() < 1e-12);
        assert_eq!(success_rate(&[], 0.9, true), 0.0);
    }
}
