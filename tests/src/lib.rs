//! Integration tests live in the `tests/` directory of this package.
//!
//! This library holds what several of them share: [`IdealReference`], an
//! independent oracle for the array reads, and
//! [`LEGACY_DEVICE_KNOB_REQUEST`], a request in the wire form that still
//! carried device settings inside the solver config.

use fecim_crossbar::{CrossbarConfig, QuantizedCoupling, SarAdc};
use fecim_ising::Coupling;

/// A request as the wire and the journal carried it while solver configs
/// still held device settings: a 10-vertex ring, a 150-iteration one-flip
/// `Cim` solver whose `device_in_loop` (the paper's crossbar), `tile_rows`
/// (4), `quant_bits` and `mux_ratio` keys sit under `"backend":"Analytic"`,
/// and one trial with seed 3. Today's solver configs no longer declare
/// those keys, so this must parse as the plain solver's request.
pub const LEGACY_DEVICE_KNOB_REQUEST: &str = r#"{"problem":{"MaxCut":{"vertices":10,"edges":[[0,1,1],[1,2,1],[2,3,1],[3,4,1],[4,5,1],[5,6,1],[6,7,1],[7,8,1],[8,9,1],[9,0,1]]}},"solver":{"Cim":{"iterations":150,"flips":1,"factor":"PaperFractional","einc_scale":null,"device_in_loop":{"quant_bits":4,"adc_bits":13,"mux_ratio":8,"interleaved_mux":true,"fidelity":"Ideal","variation":{"sigma_vth_d2d":0,"sigma_vth_c2c":0,"read_noise_rel":0},"wires":{"res_per_um":3.3,"cap_per_um":0.0000000000000002,"cell_pitch_um":0.15,"swing_v":1,"cell_on_res":50000},"device":{"front":{"vth_low":1.05,"vth_high":2.05,"ideality":1.5,"i_spec":0.00000105,"i_leak":0.0000000005},"bg_coupling":0.45,"v_read":1,"v_drain":1,"vbg_max":0.7,"vbg_step":0.01},"seed":62401},"tile_rows":4,"trace_every":null,"target_energy":null,"quant_bits":4,"mux_ratio":8}},"backend":"Analytic","run":{"Single":{"seed":3}},"reference":null,"initial_spins":null}"#;

/// A sequential, Ideal-fidelity reference for the three array reads,
/// built only from the public [`QuantizedCoupling`] and [`SarAdc`]: global
/// rows and columns, no tiles, bands, stripes, chunks or threads. It
/// shares no sensing code with `fecim_crossbar::TiledCrossbar`, so the
/// engine's "bit-identical for any tile size" contract keeps an oracle
/// that cannot drift along with it.
///
/// Every column group is sensed in ascending order, positive input pass
/// first: each polarity plane sums `factor` per conducting cell per bit
/// slice (row ascending), the ADC quantizes each sum once, and the bit
/// slices shift-add LSB first. Reads return coupling units.
#[derive(Debug, Clone)]
pub struct IdealReference {
    quant: QuantizedCoupling,
    adc: SarAdc,
}

impl IdealReference {
    /// Quantize `coupling` as an array built with `config` would.
    pub fn program<C: Coupling>(coupling: &C, config: &CrossbarConfig) -> IdealReference {
        let n = coupling.dimension();
        IdealReference {
            quant: QuantizedCoupling::from_coupling(coupling, config.quant_bits),
            adc: SarAdc::new(config.adc_bits, n as f64),
        }
    }

    /// `σ_rᵀ J σ_c · factor`.
    pub fn incremental_form(&self, sigma_r: &[i8], sigma_c: &[i8], factor: f64) -> f64 {
        self.scalar(sigma_r, sigma_c, factor)
    }

    /// `σᵀ J σ`.
    pub fn vmv(&self, sigma: &[i8]) -> f64 {
        self.scalar(sigma, sigma, 1.0)
    }

    /// `(Jσ)_j` for every column `j`.
    pub fn mvm(&self, sigma: &[i8]) -> Vec<f64> {
        let n = self.quant.dimension();
        let mut out = vec![0.0; n];
        for sign in [1i8, -1] {
            for (j, value) in out.iter_mut().enumerate() {
                *value += f64::from(sign) * self.column(j, sigma, sign, 1.0);
            }
        }
        out.iter().map(|v| v * self.quant.scale()).collect()
    }

    fn scalar(&self, rows: &[i8], select: &[i8], factor: f64) -> f64 {
        let mut total = 0.0;
        for sign in [1i8, -1] {
            for (j, &weight) in select.iter().enumerate() {
                if weight != 0 {
                    total +=
                        f64::from(sign) * f64::from(weight) * self.column(j, rows, sign, factor);
                }
            }
        }
        self.quant.scale() * total
    }

    /// Digital output of column group `j` (positive minus negative plane,
    /// in code units) for the input pass driving the rows equal to `sign`.
    fn column(&self, j: usize, rows: &[i8], sign: i8, factor: f64) -> f64 {
        let bits = usize::from(self.quant.bits());
        let mut planes = [[0.0f64; 8]; 2];
        for &(row, pos, neg) in self.quant.column(j) {
            if rows[row as usize] != sign {
                continue;
            }
            let (plane, code) = if pos > 0 { (0, pos) } else { (1, neg) };
            for (b, sum) in planes[plane].iter_mut().enumerate().take(bits) {
                if (code >> b) & 1 == 1 {
                    *sum += factor;
                }
            }
        }
        let [pos, neg] = planes.map(|sums| {
            (0..bits).fold(0.0, |acc, b| {
                acc + (1u64 << b) as f64 * self.adc.quantize(sums[b])
            })
        });
        pos - neg
    }
}
