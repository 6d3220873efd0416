//! `serve_open`: an in-process `TcpServer` (2 scheduler workers, journal
//! on, admission limit set) fed by one client connection — one writer
//! thread, one reader thread — with an open-loop schedule of the
//! `queue_sweep` mix on a fixed rate ladder: analytic CiM ensembles on
//! small generated graphs, batched jobs sharing an 8-row live grid, raw
//! QUBO/Ising payloads, analytic dSB ensembles, and a decomposed
//! over-capacity QUBO campaign every `CAMPAIGN_EVERY` submissions. Every
//! submission's `Status` query is sent right after the next submission,
//! the read side beside the writes.
//!
//! Latency is timed from each submission's *scheduled* send time to its
//! terminal line. A `Rejected`, `Failed` or `DeadlineExceeded` line
//! misses the latency limit. After the ladder every scheduled request is
//! recomputed through `Session` (and `run_campaign` on an in-process
//! scheduler) and each `Completed`/`Campaign` line must match it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fecim::anneal::{multi_start_local_search, success_rate};
use fecim::gset::{GeneratorConfig, GsetFamily};
use fecim::ising::CopProblem;
use fecim::{
    BackendPlan, CimAnnealer, ProblemSpec, RunPlan, SbAnnealer, Session, SolveRequest,
    SolveResponse, SolverSpec,
};
use fecim_serve::jsonl::{RequestLine, ResponseLine};
use fecim_serve::{
    run_campaign, CampaignOutcome, CampaignSpec, DecomposePlan, JobHandle, ScheduleVariant,
    Scheduler, SchedulerConfig, SubmitOptions, TcpServer, TcpServerConfig,
};
use perfbench::fingerprint::Fingerprint;
use perfbench::schedule::{open_loop_schedule, splitmix64, Arrival, JobKind, Ladder};
use perfbench::stats::{median, slope, windowed, Dist};
use perfbench::trace::{TraceIndex, Tracer};

use crate::exec::{common_layers, execute, plain_trial, response_fingerprint};
use crate::{Opts, Outcome};

const WORKERS: usize = 2;
const TILE_ROWS: usize = 8;
const GRID_STRIPES: usize = 8;
/// Admission limit of the server (`max_open_jobs`).
const MAX_OPEN_JOBS: usize = 64;
/// Latency limit the tail percentile must meet, milliseconds.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Every `CAMPAIGN_EVERY`-th submission is a campaign.
const CAMPAIGN_EVERY: usize = 64;
/// Offered rates of the ladder, jobs per second: a light nominal rung, a
/// middle one, and one far beyond the 2-CPU capacity (about 1–2.5 k
/// jobs/s, depending on machine load) so refusals and saturation show.
const RATES: [f64; 3] = [100.0, 300.0, 6000.0];
/// The nominal rung the latency metrics are read at. It gets half of the
/// run's seconds; at this light load a sojourn is dominated by when the
/// server's response can leave, not by queueing on a machine whose speed
/// drifts.
const NOMINAL: usize = 0;
/// Share of the run's seconds each rung gets.
const RUNG_SHARE: [f64; 3] = [0.5, 0.45, 0.05];
/// Slices of the nominal rung its latency figures are medians over.
const WINDOWS: usize = 5;
/// Generated graphs the analytic and SB jobs draw from.
const POOL: usize = 64;
const POOL_SPINS: usize = 48;
const ITERATIONS: usize = 100;
const SB_STEPS: usize = 50;
const CAMPAIGN_SPINS: usize = 96;
const TARGET_FRACTION: f64 = 0.9;
/// Head start before the first scheduled send.
const LEAD_NS: u64 = 50_000_000;

/// The ladder for a run of `seconds`.
pub fn ladder(seconds: f64, smoke: bool) -> Ladder {
    if smoke {
        return Ladder {
            rates: vec![20.0, 40.0],
            rung_secs: vec![0.5, 0.5],
            campaign_every: CAMPAIGN_EVERY,
        };
    }
    Ladder {
        rates: RATES.to_vec(),
        rung_secs: RUNG_SHARE
            .iter()
            .map(|share| (share * seconds).max(0.5))
            .collect(),
        campaign_every: CAMPAIGN_EVERY,
    }
}

/// A pool graph with its local-search reference.
struct PoolGraph {
    config: GeneratorConfig,
    reference: f64,
}

/// What one scheduled submission sends.
// Built once per submission and never moved; boxing the request would
// only add indirection.
#[allow(clippy::large_enum_variant)]
enum Payload {
    Submit(SolveRequest),
    Campaign(CampaignSpec),
}

/// One scheduled line of the writer.
struct Event {
    at_ns: u64,
    seq: usize,
    status: bool,
    line: String,
}

/// Everything set-up builds.
struct Plan {
    arrivals: Vec<Arrival>,
    payloads: Vec<Payload>,
    events: Vec<Event>,
    ladder: Ladder,
}

fn ring(n: usize) -> ProblemSpec {
    ProblemSpec::MaxCut {
        vertices: n,
        edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
    }
}

fn max_cut_qubo(n: usize, edges: &[(usize, usize, f64)]) -> Vec<Vec<f64>> {
    let mut q = vec![vec![0.0; n]; n];
    for &(u, v, w) in edges {
        q[u][v] += 2.0 * w;
        q[u][u] -= w;
        q[v][v] -= w;
    }
    q
}

fn payload(a: &Arrival, pool: &[PoolGraph]) -> Payload {
    let cim = |iters: usize| SolverSpec::Cim(CimAnnealer::new(iters).with_flips(1));
    let ensemble = |trials: usize| RunPlan::Ensemble {
        trials,
        base_seed: a.seed,
        threads: None,
    };
    let graph = &pool[(a.seed % POOL as u64) as usize];
    match a.kind {
        JobKind::Analytic => Payload::Submit(
            SolveRequest::new(ProblemSpec::Generated(graph.config), cim(ITERATIONS))
                .with_run(ensemble(2))
                .with_reference(graph.reference),
        ),
        JobKind::Batched => Payload::Submit(
            // Sizes alternate by mix block, so every seed offers the same
            // grid load.
            SolveRequest::new(ring(if a.seq % 16 < 8 { 48 } else { 24 }), cim(ITERATIONS))
                .with_backend(BackendPlan::Batched {
                    tile_rows: TILE_ROWS,
                    instances: 2,
                })
                .with_run(ensemble(2)),
        ),
        JobKind::Qubo => Payload::Submit(
            SolveRequest::new(
                ProblemSpec::Qubo {
                    q: vec![
                        vec![-1.0, 2.0, 0.0],
                        vec![0.0, -1.0, 2.0],
                        vec![0.0, 0.0, -1.0],
                    ],
                },
                cim(ITERATIONS),
            )
            .with_run(RunPlan::Single { seed: a.seed }),
        ),
        JobKind::Ising => {
            let n = 24;
            let mut j = vec![vec![0.0; n]; n];
            for (x, y) in (0..n).map(|i| (i, (i + 1) % n)) {
                j[x][y] = 0.5;
                j[y][x] = 0.5;
            }
            Payload::Submit(
                SolveRequest::new(ProblemSpec::Ising { h: vec![0.0; n], j }, cim(ITERATIONS))
                    .with_run(ensemble(2)),
            )
        }
        JobKind::Sb => Payload::Submit(
            SolveRequest::new(
                ProblemSpec::Generated(graph.config),
                SolverSpec::Sb(SbAnnealer::discrete(SB_STEPS)),
            )
            .with_run(ensemble(2))
            .with_reference(graph.reference),
        ),
        JobKind::Campaign => {
            let g = GeneratorConfig::new(CAMPAIGN_SPINS, a.seed)
                .with_family(GsetFamily::RandomUnit)
                .with_mean_degree(4.0)
                .generate();
            Payload::Campaign(
                CampaignSpec::new(
                    ProblemSpec::Qubo {
                        q: max_cut_qubo(CAMPAIGN_SPINS, g.edges()),
                    },
                    2,
                    vec![ScheduleVariant::new(cim(100)).with_trials(2)],
                )
                .with_decompose(DecomposePlan::window(48).with_overlap(12))
                .with_backend(BackendPlan::Batched {
                    tile_rows: TILE_ROWS,
                    instances: 2,
                })
                .with_base_seed(a.seed),
            )
        }
    }
}

fn request_id(a: &Arrival) -> String {
    format!("{}-{}", a.kind.label(), a.seq)
}

/// Build the pool, the schedule and every wire line. Traced set-ups
/// record the generation, encoding, reference and serialization spans.
fn plan(opts: &Opts, tracer: &Tracer) -> Plan {
    let pool: Vec<PoolGraph> = (0..POOL)
        .map(|k| {
            let config = GeneratorConfig::new(POOL_SPINS, splitmix64(opts.seed ^ (k as u64 + 1)))
                .with_family(GsetFamily::RandomUnit)
                .with_mean_degree(6.0);
            let graph = tracer.span("gset.generate", 0, 0, |_| config.generate());
            let problem = graph.to_max_cut();
            let reference = tracer.span("anneal.reference", 0, 0, |_| {
                let model = problem
                    .to_ising()
                    .expect("generated Max-Cut instances always encode");
                let (_, energy) = multi_start_local_search(model.couplings(), 4, opts.seed);
                problem.cut_from_energy(energy)
            });
            PoolGraph { config, reference }
        })
        .collect();
    let ladder = ladder(opts.seconds, opts.smoke);
    let arrivals = open_loop_schedule(opts.seed, &ladder);
    let payloads: Vec<Payload> = arrivals.iter().map(|a| payload(a, &pool)).collect();
    let mut events = Vec::with_capacity(2 * arrivals.len());
    for (a, p) in arrivals.iter().zip(&payloads) {
        let id = request_id(a);
        let req = a.seq as u64 + 1;
        let line = tracer.span("serve.serialize", 0, req, |_| {
            let line = match p {
                Payload::Submit(request) => RequestLine::Submit {
                    id: id.clone(),
                    request: request.clone(),
                    options: SubmitOptions::default(),
                },
                Payload::Campaign(spec) => RequestLine::Campaign {
                    id: id.clone(),
                    spec: spec.clone(),
                    options: SubmitOptions::default(),
                },
            };
            serde_json::to_string(&line).expect("request lines serialize")
        });
        if tracer.enabled() {
            if let Payload::Submit(request) = p {
                tracer.span("ising.encode", 0, req, |_| {
                    let _ = request
                        .problem
                        .build()
                        .and_then(|problem| problem.to_ising());
                });
            }
        }
        events.push(Event {
            at_ns: a.at_ns,
            seq: a.seq,
            status: false,
            line,
        });
        if let Payload::Submit(_) = p {
            // The status query rides with the next submission, so every
            // response of the light nominal rung leaves with the client's
            // next packet (see the crate README on the server's writes).
            let gap = (1e9 / ladder.rates[a.rung]) as u64;
            let next = arrivals.get(a.seq + 1).map_or(a.at_ns + gap, |n| n.at_ns);
            events.push(Event {
                at_ns: next,
                seq: a.seq,
                status: true,
                line: serde_json::to_string(&RequestLine::Status { id })
                    .expect("request lines serialize"),
            });
        }
    }
    events.sort_by_key(|e| (e.at_ns, e.status));
    Plan {
        arrivals,
        payloads,
        events,
        ladder,
    }
}

fn server_config(journal: PathBuf) -> TcpServerConfig {
    TcpServerConfig {
        scheduler: SchedulerConfig::workers(WORKERS)
            .with_grid_stripes(GRID_STRIPES)
            .with_journal(journal),
        max_open_jobs: Some(MAX_OPEN_JOBS),
    }
}

fn journal_path(tag: &str) -> PathBuf {
    crate::out_dir().join(format!("serve-{}-{tag}.journal", std::process::id()))
}

/// What the client saw for one submission.
#[derive(Debug, Clone, Default)]
struct Seen {
    sent_ns: Option<u64>,
    status_sent_ns: Option<u64>,
    terminal_ns: Option<u64>,
    status_ns: Option<u64>,
    terminal: Option<Terminal>,
}

#[derive(Debug, Clone)]
enum Terminal {
    Completed(SolveResponse),
    Campaign(CampaignOutcome),
    /// Rejected, Failed, DeadlineExceeded or Cancelled.
    Missed(&'static str),
}

/// One ladder pass over TCP.
struct TcpPass {
    seen: Vec<Seen>,
    depth: Vec<(u64, usize)>,
    journal_bytes: u64,
    rejected: usize,
    wall_s: f64,
}

fn tcp_pass(plan: &Plan, tracer: &Tracer, tag: &str) -> std::io::Result<TcpPass> {
    let journal = journal_path(tag);
    let _ = std::fs::remove_file(&journal);
    let server = TcpServer::bind("127.0.0.1:0", server_config(journal.clone()))?;
    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let seen = Mutex::new(vec![Seen::default(); plan.arrivals.len()]);
    let ids: BTreeMap<String, usize> = plan
        .arrivals
        .iter()
        .map(|a| (request_id(a), a.seq))
        .collect();
    let done = std::sync::atomic::AtomicBool::new(false);
    let depth = Mutex::new(Vec::new());
    let rejected = std::sync::atomic::AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_nanos(LEAD_NS);
    let since = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;

    std::thread::scope(|scope| {
        // Reader: timestamp each line on arrival, then parse it.
        let reader = scope.spawn(|| {
            let reader = BufReader::new(stream);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                let now = since(Instant::now());
                let start_ns = tracer.now_ns();
                let parsed: Option<ResponseLine> = serde_json::from_str(&line).ok();
                tracer.record_call("serve.parse", 0, 0, start_ns, tracer.now_ns());
                let Some(parsed) = parsed else { continue };
                let Some(&seq) = ids.get(parsed.id()) else {
                    continue;
                };
                let mut seen = seen.lock().unwrap_or_else(|e| e.into_inner());
                let entry = &mut seen[seq];
                let status_answer = match &parsed {
                    ResponseLine::Status { .. } => true,
                    ResponseLine::Failed { error, .. } => error.starts_with("status for"),
                    _ => false,
                };
                if status_answer {
                    entry.status_ns = Some(now);
                    continue;
                }
                entry.terminal_ns = Some(now);
                entry.terminal = Some(match parsed {
                    ResponseLine::Completed { response, .. } => Terminal::Completed(response),
                    ResponseLine::Campaign { outcome, .. } => Terminal::Campaign(outcome),
                    ResponseLine::Rejected { .. } => {
                        rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        Terminal::Missed("rejected")
                    }
                    ResponseLine::DeadlineExceeded { .. } => Terminal::Missed("deadline"),
                    ResponseLine::Cancelled { .. } => Terminal::Missed("cancelled"),
                    _ => Terminal::Missed("failed"),
                });
            }
        });
        // Sampler: open jobs every 10 ms.
        scope.spawn(|| {
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let now = since(Instant::now());
                depth
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((now, server.open_jobs()));
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        // Writer: send each line at its scheduled time.
        for event in &plan.events {
            let due = t0 + Duration::from_nanos(event.at_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = since(Instant::now());
            if writer
                .write_all(event.line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .is_err()
            {
                break;
            }
            let mut seen = seen.lock().unwrap_or_else(|e| e.into_inner());
            if event.status {
                seen[event.seq].status_sent_ns = Some(sent);
            } else {
                seen[event.seq].sent_ns = Some(sent);
            }
        }
        let _ = writer.shutdown(Shutdown::Write);
        // The reader ends when the server has answered everything and
        // closed the connection; stop the sampler once it has.
        let _ = reader.join();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let wall_s = t0.elapsed().as_secs_f64();
    server.shutdown();
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&journal);
    Ok(TcpPass {
        seen: seen.into_inner().unwrap_or_else(|e| e.into_inner()),
        depth: depth.into_inner().unwrap_or_else(|e| e.into_inner()),
        journal_bytes,
        rejected: rejected.into_inner(),
        wall_s,
    })
}

/// Fingerprint of a campaign outcome.
fn campaign_fingerprint(o: &CampaignOutcome) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.f64(o.best_energy)
        .spins(&o.best_spins)
        .f64(o.total_hw_energy)
        .f64(o.total_hw_time);
    for r in &o.rounds {
        fp.u64(r.round as u64)
            .u64(r.variant as u64)
            .u64(r.jobs as u64)
            .f64(r.round_energy)
            .f64(r.best_energy)
            .f64(r.hw_energy)
            .f64(r.hw_time);
    }
    fp
}

/// The reference result of every scheduled submission.
struct Reference {
    fingerprint: Option<Fingerprint>,
    response: Option<SolveResponse>,
}

/// Recompute every scheduled request off the wire: `Session` for
/// submissions, `run_campaign` on an in-process scheduler for campaigns.
fn references(plan: &Plan, tracer: &Tracer) -> Vec<Reference> {
    let session = Session::new();
    let scheduler =
        Scheduler::with_config(SchedulerConfig::workers(WORKERS).with_grid_stripes(GRID_STRIPES));
    let out = plan
        .payloads
        .iter()
        .enumerate()
        .map(|(k, p)| match p {
            Payload::Submit(request) => {
                match execute(&session, request, tracer, k as u64 + 1, plain_trial) {
                    Ok(e) => Reference {
                        fingerprint: Some(e.fingerprint),
                        response: Some(e.response),
                    },
                    Err(_) => Reference {
                        fingerprint: None,
                        response: None,
                    },
                }
            }
            Payload::Campaign(spec) => Reference {
                fingerprint: run_campaign(&scheduler, spec, &SubmitOptions::default())
                    .ok()
                    .map(|o| campaign_fingerprint(&o)),
                response: None,
            },
        })
        .collect();
    scheduler.join();
    out
}

/// The workload fingerprint: every reference in schedule order.
fn schedule_fingerprint(refs: &[Reference]) -> Fingerprint {
    let mut fp = Fingerprint::new();
    for r in refs {
        match r.fingerprint {
            Some(f) => fp.combine(f),
            None => fp.u64(u64::MAX),
        };
    }
    fp
}

/// Per-pass verdicts and latency samples.
struct Judged {
    /// Submit sojourn from scheduled send to terminal line, ms, per rung;
    /// a missed submission counts as the whole pass's duration.
    latency_ms: Vec<Vec<(u64, f64)>>,
    /// Status round trips, ms, per rung.
    status_ms: Vec<Vec<(u64, f64)>>,
    /// Generator lateness, ms.
    lag_ms: Vec<f64>,
    /// Submissions that missed (rejected/failed/deadline/unanswered), per rung.
    missed: Vec<usize>,
    /// Completed or campaign lines that differ from their reference.
    mismatched: usize,
    /// Failed lines (errors, not admission).
    errors: usize,
}

fn values(samples: &[(u64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// The nominal rung's latency summary: the median over `WINDOWS`
/// consecutive slices of the rung (see [`windowed`]).
fn nominal_dist(plan: &Plan, samples: &[(u64, f64)], nominal: usize) -> Dist {
    let (start, end) = plan.ladder.rung_window_ns(nominal);
    windowed(samples, start, end, WINDOWS)
}

fn judge(plan: &Plan, pass: &TcpPass, refs: &[Reference]) -> Judged {
    let rungs = plan.ladder.rates.len();
    let mut j = Judged {
        latency_ms: vec![Vec::new(); rungs],
        status_ms: vec![Vec::new(); rungs],
        lag_ms: Vec::new(),
        missed: vec![0; rungs],
        mismatched: 0,
        errors: 0,
    };
    let miss_ms = pass.wall_s * 1e3;
    for ((a, seen), r) in plan.arrivals.iter().zip(&pass.seen).zip(refs) {
        if let Some(sent) = seen.sent_ns {
            j.lag_ms.push(sent.saturating_sub(a.at_ns) as f64 * 1e-6);
        }
        if let (Some(sent), Some(got)) = (seen.status_sent_ns, seen.status_ns) {
            j.status_ms[a.rung].push((a.at_ns, got.saturating_sub(sent) as f64 * 1e-6));
        }
        let ok = match &seen.terminal {
            Some(Terminal::Completed(response)) => {
                if Some(response_fingerprint(&response.reports)) != r.fingerprint {
                    j.mismatched += 1;
                }
                true
            }
            Some(Terminal::Campaign(outcome)) => {
                if Some(campaign_fingerprint(outcome)) != r.fingerprint {
                    j.mismatched += 1;
                }
                true
            }
            Some(Terminal::Missed(kind)) => {
                if *kind == "failed" {
                    j.errors += 1;
                }
                false
            }
            None => false,
        };
        if !ok {
            j.missed[a.rung] += 1;
        }
        // Latency is the submit sojourn: campaigns are multi-round
        // orchestrations with their own metric (`serve.campaign_round_ms`).
        if a.kind != JobKind::Campaign {
            let latency = match (ok, seen.terminal_ns) {
                (true, Some(done)) => done.saturating_sub(a.at_ns) as f64 * 1e-6,
                _ => miss_ms,
            };
            j.latency_ms[a.rung].push((a.at_ns, latency));
        }
    }
    j
}

/// Whether open jobs trend up across rung `rung`: the least-squares
/// slope of the sampled open-job count exceeds 5 % of the offered rate.
fn backlog_grows(plan: &Plan, depth: &[(u64, usize)], rung: usize) -> bool {
    let (start, end) = plan.ladder.rung_window_ns(rung);
    let (xs, ys): (Vec<f64>, Vec<f64>) = depth
        .iter()
        .filter(|(t, _)| *t >= start && *t < end)
        .map(|&(t, d)| (t as f64 * 1e-9, d as f64))
        .unzip();
    slope(&xs, &ys) > 0.05 * plan.ladder.rates[rung]
}

/// Mean sampled open jobs over rung `rung`.
fn mean_depth(plan: &Plan, depth: &[(u64, usize)], rung: usize) -> f64 {
    let (start, end) = plan.ladder.rung_window_ns(rung);
    let d: Vec<f64> = depth
        .iter()
        .filter(|(t, _)| *t >= start && *t < end)
        .map(|&(_, d)| d as f64)
        .collect();
    d.iter().sum::<f64>() / d.len().max(1) as f64
}

fn setup_once(opts: &Opts, tracer: &Tracer) -> (Plan, f64) {
    let t = Instant::now();
    let plan = plan(opts, tracer);
    // Binding (scheduler start-up, journal open) is part of set-up; the
    // timed pass binds its own server on a fresh journal.
    if let Ok(server) = TcpServer::bind("127.0.0.1:0", server_config(journal_path("setup"))) {
        server.shutdown();
    }
    let _ = std::fs::remove_file(journal_path("setup"));
    (plan, t.elapsed().as_secs_f64())
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let off = Tracer::new(false);
    let mut setup_times = Vec::new();
    let mut plan_state = None;
    // Five set-ups: one takes a few tenths of a second, so three would
    // leave the median at the mercy of a single noisy one.
    for _ in 0..if opts.smoke { 1 } else { 5 } {
        let (p, secs) = setup_once(opts, &off);
        setup_times.push(secs);
        plan_state = Some(p);
    }
    let plan = plan_state.expect("at least one set-up");
    let pass = match tcp_pass(&plan, &off, "untraced") {
        Ok(pass) => pass,
        Err(e) => {
            eprintln!("perfbench: serve_open transport failed: {e}");
            outcome.attempted = plan.arrivals.len() as u64;
            outcome.failed = outcome.attempted;
            return outcome;
        }
    };
    let refs = references(&plan, &off);
    outcome.fingerprint = schedule_fingerprint(&refs);
    let judged = judge(&plan, &pass, &refs);
    // Refusals above the nominal rung are admission control doing its
    // job there; they count against latency, not as failed operations.
    let rungs = plan.ladder.rates.len();
    let nominal = NOMINAL;
    let above: usize = judged.missed[nominal + 1..].iter().sum();
    let below: usize = judged.missed[..=nominal].iter().sum();
    outcome.attempted = (plan.arrivals.len() - above) as u64;
    outcome.failed = (judged.mismatched + judged.errors + below) as u64;
    if judged.mismatched > 0 {
        eprintln!(
            "perfbench: {} served results differ from their references",
            judged.mismatched
        );
    }
    let mut rung_notes = Vec::new();
    let mut sustained = 0.0;
    let mut prefix_ok = true;
    for rung in 0..rungs {
        let d = Dist::of(&values(&judged.latency_ms[rung]));
        let grows = backlog_grows(&plan, &pass.depth, rung);
        prefix_ok &= d.tail <= LATENCY_LIMIT_MS && !grows;
        if prefix_ok {
            sustained = plan.ladder.rates[rung];
        }
        rung_notes.push(serde_json::json!({
            "rate": plan.ladder.rates[rung],
            "n": d.n, "p50_ms": d.p50, "tail_percentile": d.tail_p, "tail_ms": d.tail,
            "missed": judged.missed[rung], "backlog_grows": grows,
            "mean_open_jobs": mean_depth(&plan, &pass.depth, rung),
        }));
    }
    outcome.note("ladder", serde_json::Value::Seq(rung_notes));
    outcome.note("latency_limit_ms", serde_json::json!(LATENCY_LIMIT_MS));
    outcome.note(
        "nominal_rate",
        serde_json::json!(plan.ladder.rates[nominal]),
    );
    outcome.note("rejected", serde_json::json!(pass.rejected));

    if opts.trace {
        traced(opts, &mut outcome, &plan, &pass, &refs, nominal);
        return outcome;
    }

    // Work served over the ladder, from the references of what completed.
    let (mut iters, mut steps) = (0usize, 0usize);
    for ((a, seen), r) in plan.arrivals.iter().zip(&pass.seen).zip(&refs) {
        if let (Some(Terminal::Completed(_)), Some(resp)) = (&seen.terminal, &r.response) {
            let trials = resp.reports.len();
            match a.kind {
                JobKind::Sb => steps += trials * SB_STEPS,
                JobKind::Campaign => {}
                _ => iters += trials * ITERATIONS,
            }
        }
    }
    let analytic: Vec<&SolveResponse> = plan
        .arrivals
        .iter()
        .zip(&refs)
        .filter(|(a, _)| a.kind == JobKind::Analytic)
        .filter_map(|(_, r)| r.response.as_ref())
        .collect();
    let normalized: Vec<f64> = analytic
        .iter()
        .filter_map(|r| r.normalized_objectives())
        .flatten()
        .collect();
    let reports: Vec<_> = analytic.iter().flat_map(|r| r.reports.iter()).collect();
    let mean = |f: &dyn Fn(&fecim::SolveReport) -> f64| {
        reports.iter().map(|r| f(r)).sum::<f64>() / reports.len().max(1) as f64
    };
    outcome.set("setup_s", median(&setup_times));
    outcome.set("anneal_iters_per_s", iters as f64 / pass.wall_s);
    outcome.set("sb_steps_per_s", steps as f64 / pass.wall_s);
    outcome.set(
        "success_rate",
        success_rate(&normalized, TARGET_FRACTION, true),
    );
    outcome.set("sim_time_ms", mean(&|r| r.time.total()) * 1e3);
    outcome.set("sim_energy_uj", mean(&|r| r.energy.total()) * 1e6);
    outcome.set("sustained_jobs_s", sustained);
    outcome.dist(
        "nominal_latency_ms",
        Some("p50_ms"),
        Some("p99_ms"),
        nominal_dist(&plan, &judged.latency_ms[nominal], nominal),
    );
    outcome.dist(
        "nominal_status_rtt_ms",
        None,
        Some("status_p99_ms"),
        nominal_dist(&plan, &judged.status_ms[nominal], nominal),
    );
    outcome
}

/// One ladder pass straight into an in-process `Scheduler` (no TCP),
/// with the same admission limit; returns sojourn samples of the nominal
/// rung and the grid/backlog observations.
struct SchedPass {
    sojourn_ms: Vec<f64>,
    waiting: Vec<(u64, usize)>,
    grid_utilization: f64,
    campaign_round_ms: Vec<f64>,
}

fn sched_pass(plan: &Plan, tracer: &Tracer, nominal: usize) -> SchedPass {
    let journal = journal_path("sched");
    let _ = std::fs::remove_file(&journal);
    let scheduler = Scheduler::with_config(
        SchedulerConfig::workers(WORKERS)
            .with_grid_stripes(GRID_STRIPES)
            .with_journal(journal.clone()),
    );
    let pending: Mutex<Vec<(usize, JobHandle)>> = Mutex::new(Vec::new());
    let finished: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
    let waiting = Mutex::new(Vec::new());
    let rounds = Mutex::new(Vec::new());
    let submitting = std::sync::atomic::AtomicBool::new(true);
    let t0 = Instant::now() + Duration::from_nanos(LEAD_NS);
    let since = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| loop {
            let now = since(Instant::now());
            let stats = scheduler.grid_stats();
            waiting
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((now, stats.iter().map(|g| g.waiting_jobs).sum::<usize>()));
            let mut open = pending.lock().unwrap_or_else(|e| e.into_inner());
            let mut done = finished.lock().unwrap_or_else(|e| e.into_inner());
            open.retain(|(seq, handle)| {
                if handle.status().is_terminal() {
                    done.push((*seq, now));
                    false
                } else {
                    true
                }
            });
            let idle = open.is_empty();
            drop(open);
            drop(done);
            if idle && !submitting.load(std::sync::atomic::Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        });
        let mut campaigns = Vec::new();
        for (a, p) in plan.arrivals.iter().zip(&plan.payloads) {
            let due = t0 + Duration::from_nanos(a.at_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if scheduler.open_jobs() >= MAX_OPEN_JOBS {
                continue;
            }
            match p {
                Payload::Submit(request) => {
                    let handle = tracer.span("serve.submit", 0, a.seq as u64 + 1, |_| {
                        scheduler.submit(request.clone(), SubmitOptions::default())
                    });
                    pending
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((a.seq, handle));
                }
                Payload::Campaign(spec) => {
                    let (scheduler, rounds, finished) = (&scheduler, &rounds, &finished);
                    campaigns.push(scope.spawn(move || {
                        let t = Instant::now();
                        let outcome = run_campaign(scheduler, spec, &SubmitOptions::default());
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let Ok(o) = outcome {
                            rounds
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(ms / o.rounds.len().max(1) as f64);
                        }
                        finished
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((a.seq, since(Instant::now())));
                    }));
                }
            }
        }
        for c in campaigns {
            let _ = c.join();
        }
        submitting.store(false, std::sync::atomic::Ordering::Relaxed);
        let _ = poller.join();
    });
    let grid_utilization = scheduler
        .grid_stats()
        .iter()
        .map(|g| g.grid_utilization)
        .fold(0.0, f64::max);
    scheduler.join();
    let _ = std::fs::remove_file(&journal);
    let finished = finished.into_inner().unwrap_or_else(|e| e.into_inner());
    let sojourn_ms = finished
        .iter()
        .filter(|(seq, _)| plan.arrivals[*seq].rung == nominal)
        .map(|&(seq, done)| done.saturating_sub(plan.arrivals[seq].at_ns) as f64 * 1e-6)
        .collect();
    SchedPass {
        sojourn_ms,
        waiting: waiting.into_inner().unwrap_or_else(|e| e.into_inner()),
        grid_utilization,
        campaign_round_ms: rounds.into_inner().unwrap_or_else(|e| e.into_inner()),
    }
}

/// The traced run: traced set-up, a traced TCP pass, an in-process
/// scheduler pass and traced reference computation; the references must
/// reproduce the untraced fingerprint.
fn traced(
    opts: &Opts,
    outcome: &mut Outcome,
    plan_untraced: &Plan,
    untraced: &TcpPass,
    untraced_refs: &[Reference],
    nominal: usize,
) {
    let tracer = Tracer::new(true);
    let plan = plan(opts, &tracer);
    let pass = match tcp_pass(&plan, &tracer, "traced") {
        Ok(pass) => pass,
        Err(e) => {
            eprintln!("perfbench: traced serve_open transport failed: {e}");
            outcome.failed += 1;
            return;
        }
    };
    let sched = sched_pass(&plan, &tracer, nominal);
    let refs = references(&plan, &tracer);
    let fp = schedule_fingerprint(&refs);
    if fp != outcome.fingerprint {
        eprintln!(
            "perfbench: traced fingerprint {} differs from untraced {}",
            fp.hex(),
            outcome.fingerprint.hex()
        );
        outcome.failed += 1;
    }
    let judged = judge(&plan, &pass, &refs);
    outcome.failed += judged.mismatched as u64;
    let _ =
        tracer.write_jsonl(&crate::out_dir().join(format!("trace-serve_open-{}.jsonl", opts.seed)));
    let index = TraceIndex::of(&tracer);
    common_layers(outcome, &index);
    let mean_us = |name: &str| {
        let d = index.durations_ms(name);
        d.iter().sum::<f64>() * 1e3 / d.len().max(1) as f64
    };
    outcome.set("serve.serialize_us", mean_us("serve.serialize"));
    outcome.set("serve.parse_us", mean_us("serve.parse"));
    outcome.set("serve.sched_jobs", sched.sojourn_ms.len() as f64);
    outcome.dist(
        "serve.sched_sojourn_ms",
        Some("serve.sched_sojourn_ms.p50"),
        Some("serve.sched_sojourn_ms.p99"),
        Dist::of(&sched.sojourn_ms),
    );
    outcome.set("serve.queue_depth", mean_depth(&plan, &pass.depth, nominal));
    outcome.set("serve.grid_utilization", sched.grid_utilization);
    outcome.set(
        "serve.grid_waiting_jobs",
        mean_depth(&plan, &sched.waiting, nominal),
    );
    let accepted = plan.arrivals.len() - judged.missed.iter().sum::<usize>();
    outcome.set(
        "serve.journal_bytes_per_job",
        pass.journal_bytes as f64 / accepted.max(1) as f64,
    );
    outcome.set(
        "serve.campaign_round_ms",
        sched.campaign_round_ms.iter().sum::<f64>() / sched.campaign_round_ms.len().max(1) as f64,
    );
    let status_us: Vec<f64> = values(&judged.status_ms[nominal])
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    outcome.dist(
        "serve.status_rtt_us",
        Some("serve.status_rtt_us.p50"),
        Some("serve.status_rtt_us.p99"),
        Dist::of(&status_us),
    );
    outcome.set("serve.rejected", pass.rejected as f64);
    outcome.dist(
        "bench.gen_lag_ms",
        Some("bench.gen_lag_ms.p50"),
        Some("bench.gen_lag_ms.p99"),
        Dist::of(&judged.lag_ms),
    );
    // Tracing overhead: mean sojourn up to the nominal rung, traced over
    // untraced (an open loop's wall time is fixed by its schedule).
    let untraced_judged = judge(plan_untraced, untraced, untraced_refs);
    let mean_upto = |j: &Judged| {
        let v: Vec<f64> = j.latency_ms[..=nominal]
            .iter()
            .flat_map(|r| values(r))
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    outcome.set(
        "bench.trace_overhead",
        mean_upto(&judged) / mean_upto(&untraced_judged),
    );
    outcome.set("bench.trace_spans", tracer.spans().len() as f64);
}
