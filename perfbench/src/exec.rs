//! Request execution shared by the annealing workloads: the steps of
//! `Session::run` (prepare, one trial per ensemble seed — on shared
//! grids for batched requests — then finish), timed per request and per
//! trial, with spans around each step when the tracer is on.

use std::time::Instant;

use fecim::anneal::Ensemble;
use fecim::crossbar::BatchedTiledCrossbar;
use fecim::device::{AnnealFactor, FractionalFactor};
use fecim::{
    BackendPlan, PreparedJob, Session, SessionError, SolveReport, SolveRequest, SolveResponse,
};
use perfbench::fingerprint::Fingerprint;
use perfbench::stats::Dist;
use perfbench::trace::{TraceIndex, Tracer};

use crate::Outcome;

/// Worker threads an ensemble fans out over (the rayon pool's width).
pub fn pool_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One executed request.
#[derive(Debug)]
pub struct Executed {
    /// The response, as `Session::run` returns it (without batch-grid
    /// summaries).
    pub response: SolveResponse,
    /// Wall time of the whole request, seconds.
    pub latency_s: f64,
    /// Wall time of each trial, seconds.
    pub trial_s: Vec<f64>,
    /// Fingerprint of every trial of the response.
    pub fingerprint: Fingerprint,
}

/// Each request's median latency, seconds, over repetitions of the
/// same requests (`rows[rep][request]`; `None` = the request failed in
/// that repetition). The median keeps a burst of machine noise during
/// one repetition out of the reported figures.
pub fn median_latencies(rows: &[Vec<Option<&Executed>>]) -> Vec<Option<f64>> {
    let width = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..width)
        .map(|k| {
            let samples: Vec<f64> = rows
                .iter()
                .filter_map(|row| row.get(k).copied().flatten())
                .map(|e| e.latency_s)
                .collect();
            (!samples.is_empty()).then(|| perfbench::stats::median(&samples))
        })
        .collect()
}

/// Fingerprint of a response's trials.
pub fn response_fingerprint(reports: &[SolveReport]) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.u64(reports.len() as u64);
    for r in reports {
        fp.report(r);
    }
    fp
}

/// Runs trial `i` of a prepared solver-route job inside span `span`.
/// [`plain_trial`] calls `PreparedJob::run_trial`; traced runs substitute
/// an instrumented replica whose results the fingerprints check.
pub trait TrialFn:
    Fn(&PreparedJob, usize, u64) -> Result<SolveReport, SessionError> + Sync
{
}
impl<F: Fn(&PreparedJob, usize, u64) -> Result<SolveReport, SessionError> + Sync> TrialFn for F {}

/// The plain trial step.
pub fn plain_trial(job: &PreparedJob, i: usize, _span: u64) -> Result<SolveReport, SessionError> {
    job.run_trial(i)
}

/// Prepare and run `request` (its prepare step inside the timing).
pub fn execute(
    session: &Session,
    request: &SolveRequest,
    tracer: &Tracer,
    req: u64,
    trial: impl TrialFn,
) -> Result<Executed, SessionError> {
    let start = Instant::now();
    let out = tracer.span("bench.request", 0, req, |span| {
        let job = tracer.span("core.prepare", span, req, |_| session.prepare(request))?;
        run_trials(&job, request, tracer, req, span, &trial)
    });
    finish_timing(out, start)
}

/// Run an already prepared job (prepared from `request` during set-up).
pub fn execute_prepared(
    job: &PreparedJob,
    request: &SolveRequest,
    tracer: &Tracer,
    req: u64,
    trial: impl TrialFn,
) -> Result<Executed, SessionError> {
    let start = Instant::now();
    let out = tracer.span("bench.request", 0, req, |span| {
        run_trials(job, request, tracer, req, span, &trial)
    });
    finish_timing(out, start)
}

fn finish_timing(
    out: Result<(SolveResponse, Vec<f64>), SessionError>,
    start: Instant,
) -> Result<Executed, SessionError> {
    let latency_s = start.elapsed().as_secs_f64();
    let (response, trial_s) = out?;
    let fingerprint = response_fingerprint(&response.reports);
    Ok(Executed {
        response,
        latency_s,
        trial_s,
        fingerprint,
    })
}

/// Fan the job's trials out over the ensemble runner — replicas packed
/// `instances` at a time onto successive shared grids for batched jobs,
/// as `Session::run` does — then finish.
fn run_trials(
    job: &PreparedJob,
    request: &SolveRequest,
    tracer: &Tracer,
    req: u64,
    parent: u64,
    trial: &impl TrialFn,
) -> Result<(SolveResponse, Vec<f64>), SessionError> {
    let timed: Vec<(Result<SolveReport, SessionError>, f64)> = match (
        job.tile_rows(),
        job.batch_coupling(),
        job.crossbar_config(),
        request.backend,
    ) {
        (Some(tile_rows), Some(coupling), Some(config), BackendPlan::Batched { instances, .. }) => {
            let mut out = Vec::with_capacity(job.trials());
            let mut start = 0;
            while start < job.trials() {
                let width = instances.min(job.trials() - start);
                let grid =
                    BatchedTiledCrossbar::replicate(coupling, width, config.clone(), tile_rows)
                        .into_shared();
                out.extend(Ensemble::new(width, job.seed(start)).run_batched(
                    &grid,
                    |i, _seed, handle| {
                        let t = Instant::now();
                        let report = tracer.span("core.trial", parent, req, |_| {
                            job.run_batched_trial(start + i, handle)
                        });
                        (report, t.elapsed().as_secs_f64())
                    },
                ));
                start += width;
            }
            out
        }
        _ => Ensemble::new(job.trials(), job.seed(0)).run_indexed(|i, _seed| {
            let t = Instant::now();
            let report = tracer.span("core.trial", parent, req, |span| trial(job, i, span));
            (report, t.elapsed().as_secs_f64())
        }),
    };
    let mut reports = Vec::with_capacity(timed.len());
    let mut trial_s = Vec::with_capacity(timed.len());
    for (report, secs) in timed {
        reports.push(report?);
        trial_s.push(secs);
    }
    let response = tracer.span("core.finish", parent, req, |_| {
        job.finish(reports, Vec::new())
    })?;
    Ok((response, trial_s))
}

/// Run `round` `count` times; every result and the wall time, seconds.
pub fn repeat<T>(count: usize, round: impl FnMut(usize) -> T) -> (Vec<T>, f64) {
    let start = Instant::now();
    let all = (0..count).map(round).collect();
    (all, start.elapsed().as_secs_f64())
}

/// Fingerprint of the first repetition of the requests (`rows[rep][k]`);
/// a later repetition that differs or fails counts as a failed request.
pub fn check_repeats(rows: &[Vec<Option<Executed>>], failed: &mut u64) -> Fingerprint {
    let fps = |row: &[Option<Executed>]| -> Vec<Option<Fingerprint>> {
        row.iter()
            .map(|e| e.as_ref().map(|e| e.fingerprint))
            .collect()
    };
    let first = fps(&rows[0]);
    for later in &rows[1..] {
        for (a, b) in first.iter().zip(fps(later)) {
            if a.is_none() || *a != b {
                *failed += 1;
            }
        }
    }
    let mut fp = Fingerprint::new();
    for f in first {
        match f {
            Some(f) => fp.combine(f),
            None => fp.u64(u64::MAX),
        };
    }
    fp
}

/// Time `calls` evaluations of the paper's annealing factor over its
/// temperature range, as one `device.factor` rollup inside a span.
pub fn factor_sweep(tracer: &Tracer, parent: u64, req: u64, calls: usize) {
    let factor = FractionalFactor::paper();
    tracer.span("device.factor_sweep", parent, req, |sweep| {
        let t = Instant::now();
        let mut acc = 0.0;
        for i in 0..calls {
            acc += factor.factor(factor.t_max() * i as f64 / calls as f64);
        }
        std::hint::black_box(acc);
        tracer.rollup(
            sweep,
            "device.factor",
            calls as u64,
            t.elapsed().as_nanos() as u64,
        );
    });
}

/// The per-layer metrics every workload derives the same way: set-up
/// layers, the `Session`/`PreparedJob` steps and the annealing factor.
pub fn common_layers(outcome: &mut Outcome, index: &TraceIndex) {
    let mean_ms = |name: &str| {
        let d = index.durations_ms(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    outcome.set("gset.generate_ms", mean_ms("gset.generate"));
    outcome.set("ising.encode_ms", mean_ms("ising.encode"));
    outcome.set("anneal.reference_ms", mean_ms("anneal.reference"));
    outcome.set("core.prepare_ms", mean_ms("core.prepare"));
    outcome.set("core.finish_ms", mean_ms("core.finish"));
    let trial_ms = index.durations_ms("core.trial");
    outcome.set("core.trials", trial_ms.len() as f64);
    outcome.dist(
        "core.trial_ms",
        Some("core.trial_ms.p50"),
        Some("core.trial_ms.p99"),
        Dist::of(&trial_ms),
    );
    outcome.set(
        "core.ensemble_efficiency",
        index.total_ns("core.trial") as f64
            / (index.total_ns("bench.request") as f64 * pool_threads() as f64),
    );
    let (mut calls, mut ns) = (0, 0);
    for span in index.named("device.factor_sweep") {
        let (c, b) = index.rolled(span.id, "device.factor");
        calls += c;
        ns += b;
    }
    outcome.set("device.factor_ns", ns as f64 / calls.max(1) as f64);
}
