//! Summary statistics: medians, the benchmark's percentile rule and a
//! least-squares trend.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_MARGIN: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Zero-based index of the nearest-rank `p`-th percentile of `n` sorted
/// samples.
pub fn rank_index(n: usize, p: u32) -> usize {
    let rank = (p as usize * n).div_ceil(100).max(1);
    rank.min(n) - 1
}

/// The percentile rule: the highest whole percentile from 50 to 99 whose
/// nearest-rank sample has at least [`TAIL_MARGIN`] samples beyond it.
/// `None` when even the median has fewer than that many beyond it
/// (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n > 0 && n - 1 - rank_index(n, p) >= TAIL_MARGIN)
}

/// A latency-like sample summary: median and the tail percentile chosen
/// by [`tail_percentile`], with the sample count beside them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail value reports (100 = the maximum, used when
    /// there are too few samples for the rule).
    pub tail_p: u32,
    /// Tail value.
    pub tail: f64,
}

impl Dist {
    /// Summarize `samples` (any order). An empty sample set gives zeros.
    pub fn of(samples: &[f64]) -> Dist {
        if samples.is_empty() {
            return Dist {
                n: 0,
                p50: 0.0,
                tail_p: 100,
                tail: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (tail_p, tail) = match tail_percentile(n) {
            Some(p) => (p, sorted[rank_index(n, p)]),
            None => (100, sorted[n - 1]),
        };
        Dist {
            n,
            p50: median(&sorted),
            tail_p,
            tail,
        }
    }
}

/// Median over consecutive windows: split `(time, value)` samples into
/// `windows` equal slices of `[start, end)`, summarize each slice with
/// [`Dist::of`], and report the median of the slice medians and of the
/// slice tails (`n` = all samples, `tail_p` = the smallest slice tail
/// percentile). A burst of machine noise inside one slice moves one slice
/// tail, not the reported one.
pub fn windowed(samples: &[(u64, f64)], start: u64, end: u64, windows: usize) -> Dist {
    let windows = windows.max(1);
    let width = (end.saturating_sub(start) / windows as u64).max(1);
    let slices: Vec<Dist> = (0..windows as u64)
        .map(|w| {
            let (lo, hi) = (start + w * width, start + (w + 1) * width);
            let v: Vec<f64> = samples
                .iter()
                .filter(|(t, _)| *t >= lo && (*t < hi || (w + 1 == windows as u64 && *t < end)))
                .map(|&(_, x)| x)
                .collect();
            Dist::of(&v)
        })
        .filter(|d| d.n > 0)
        .collect();
    if slices.is_empty() {
        return Dist::of(&[]);
    }
    Dist {
        n: slices.iter().map(|d| d.n).sum(),
        p50: median(&slices.iter().map(|d| d.p50).collect::<Vec<_>>()),
        tail_p: slices.iter().map(|d| d.tail_p).min().unwrap_or(100),
        tail: median(&slices.iter().map(|d| d.tail).collect::<Vec<_>>()),
    }
}

/// Least-squares slope of `ys` against `xs` (0 for fewer than two
/// distinct `x`).
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for i in 0..n {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}
