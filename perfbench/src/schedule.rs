//! The open-loop arrival schedule of the serving workload.
//!
//! Submissions arrive on a fixed rate ladder regardless of how fast the
//! server answers: rung `r` offers `rates[r] × rung_secs[r]` jobs over its
//! `rung_secs[r]` seconds, the `i`-th at a uniformly random time within
//! the `i`-th slot of length `1 / rates[r]` (jittered, so arrivals do not
//! phase-lock with the server, but without the bursts of a Poisson
//! process, whose queueing would differ from seed to seed).
//! The arrival times, the job mix and every job's seed come from the
//! workload seed alone, so the same seed gives the same schedule byte
//! for byte.

/// SplitMix64: a bijective 64-bit mixer, used to derive independent
/// seeds from the workload seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Kinds of submissions in the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobKind {
    /// Analytic CiM ensemble on a small generated Max-Cut graph.
    Analytic,
    /// CiM ensemble batched onto the shared 8-row live grid.
    Batched,
    /// Raw QUBO payload.
    Qubo,
    /// Raw Ising payload.
    Ising,
    /// Analytic dSB ensemble.
    Sb,
    /// Decomposed over-capacity QUBO campaign.
    Campaign,
}

impl JobKind {
    /// Short label used in request ids.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Analytic => "analytic",
            JobKind::Batched => "batched",
            JobKind::Qubo => "qubo",
            JobKind::Ising => "ising",
            JobKind::Sb => "sb",
            JobKind::Campaign => "campaign",
        }
    }
}

/// The per-block job mix (campaigns are inserted separately).
pub const MIX: [JobKind; 8] = [
    JobKind::Analytic,
    JobKind::Analytic,
    JobKind::Analytic,
    JobKind::Batched,
    JobKind::Batched,
    JobKind::Qubo,
    JobKind::Ising,
    JobKind::Sb,
];

/// The offered-rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    /// Offered rate of each rung, jobs per second, ascending.
    pub rates: Vec<f64>,
    /// Length of each rung, seconds.
    pub rung_secs: Vec<f64>,
    /// Every `campaign_every`-th submission is a campaign.
    pub campaign_every: usize,
}

impl Ladder {
    /// `[start, end)` of rung `rung`, nanoseconds after the schedule
    /// starts.
    pub fn rung_window_ns(&self, rung: usize) -> (u64, u64) {
        let start: f64 = self.rung_secs[..rung].iter().sum();
        (
            (start * 1e9) as u64,
            ((start + self.rung_secs[rung]) * 1e9) as u64,
        )
    }
}

/// One scheduled submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Position in the schedule.
    pub seq: usize,
    /// Ladder rung.
    pub rung: usize,
    /// Scheduled send time, nanoseconds after the schedule starts.
    pub at_ns: u64,
    /// What is submitted.
    pub kind: JobKind,
    /// The job's own seed (instance generation and trial seeds).
    pub seed: u64,
}

/// The full schedule for `seed` on `ladder`.
pub fn open_loop_schedule(seed: u64, ladder: &Ladder) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut state = splitmix64(seed ^ 0x5E4E_0000_0000_0001);
    let mut block: Vec<JobKind> = Vec::new();
    for (rung, &rate) in ladder.rates.iter().enumerate() {
        let count = (rate * ladder.rung_secs[rung]).round() as usize;
        let (rung_start_ns, rung_end_ns) = ladder.rung_window_ns(rung);
        let len_ns = rung_end_ns - rung_start_ns;
        let slot_ns = len_ns / count.max(1) as u64;
        for i in 0..count as u64 {
            state = splitmix64(state);
            let at_ns = rung_start_ns + i * slot_ns + state % slot_ns.max(1);
            let seq = out.len();
            if block.is_empty() {
                // A seeded Fisher-Yates shuffle of the mix block.
                block = MIX.to_vec();
                for k in (1..block.len()).rev() {
                    state = splitmix64(state);
                    block.swap(k, (state % (k as u64 + 1)) as usize);
                }
            }
            let kind = if ladder.campaign_every > 0 && seq % ladder.campaign_every == 0 {
                JobKind::Campaign
            } else {
                // `block` was refilled above when empty.
                block.pop().unwrap_or(JobKind::Analytic)
            };
            out.push(Arrival {
                seq,
                rung,
                at_ns,
                kind,
                seed: splitmix64(seed ^ ((seq as u64) << 20)),
            });
        }
    }
    out
}
