//! Result fingerprints: a 64-bit FNV-1a hash over the exact bits of
//! everything a workload computes, so two runs agree only if every
//! energy, spin, simulated cost and activity counter agrees.

use fecim::crossbar::ActivityStats;
use fecim::SolveReport;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher over typed words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(OFFSET)
    }
}

impl Fingerprint {
    /// An empty fingerprint.
    pub fn new() -> Fingerprint {
        Fingerprint::default()
    }

    /// Mix raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fingerprint {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Mix an integer.
    pub fn u64(&mut self, x: u64) -> &mut Fingerprint {
        self.bytes(&x.to_le_bytes())
    }

    /// Mix a float by its exact bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Fingerprint {
        self.u64(x.to_bits())
    }

    /// Mix a spin configuration (length first).
    pub fn spins(&mut self, spins: &[i8]) -> &mut Fingerprint {
        self.u64(spins.len() as u64);
        for &s in spins {
            self.bytes(&[s as u8]);
        }
        self
    }

    /// Mix every hardware activity counter (a marker when absent).
    pub fn activity(&mut self, stats: Option<&ActivityStats>) -> &mut Fingerprint {
        match stats {
            None => self.u64(u64::MAX),
            Some(s) => {
                for x in [
                    s.array_ops,
                    s.row_passes,
                    s.adc_conversions,
                    s.adc_slots,
                    s.cells_activated,
                    s.rows_driven,
                    s.columns_driven,
                    s.bg_updates,
                    s.shift_add_ops,
                    s.buffer_writes,
                    s.tiles_activated,
                    s.exp_evaluations,
                ] {
                    self.u64(x);
                }
                self
            }
        }
    }

    /// Mix one trial: best energy and spins, simulated time and energy,
    /// activity counters.
    pub fn report(&mut self, report: &SolveReport) -> &mut Fingerprint {
        self.f64(report.best_energy)
            .spins(report.best_spins.as_slice())
            .f64(report.time.total())
            .f64(report.energy.total())
            .activity(report.run.activity.as_ref())
    }

    /// Mix another fingerprint.
    pub fn combine(&mut self, other: Fingerprint) -> &mut Fingerprint {
        self.u64(other.0)
    }

    /// The hash value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The hash as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
