//! The fecim benchmark: one command that runs a workload, checks every
//! result against its fingerprint and prints every metric by name with
//! its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_fig10|device_noisy|serve_open \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --check-paper
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the workload untraced and then traced, reports the
//! per-layer metrics derived from the recorded spans plus the tracing
//! overhead, and fails unless both runs produce the same fingerprint.
//! `--smoke` shrinks every workload to a few seconds (used by the
//! thread-count fingerprint test). The last line of standard output is
//! the result object; the line before it is the run record.

mod device;
mod exec;
mod layers;
mod paper;
mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::fingerprint::Fingerprint;
use perfbench::stats::Dist;
use serde_json::Value;

/// The default workload seed: on `paper_fig10` it selects the paper's own
/// suite and the experiment seed of `ExperimentConfig::new(Scale::Paper)`.
pub const DEFAULT_SEED: u64 = 2025;
/// The held-out seed later claims are re-checked on.
pub const HELD_OUT_SEED: u64 = 7;

/// End-to-end metrics: `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("anneal_iters_per_s", "1/s"),
    ("sb_steps_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("sim_time_ms", "ms_sim"),
    ("sim_energy_uj", "uJ_sim"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("status_p99_ms", "ms"),
    ("sustained_jobs_s", "jobs/s"),
];

/// Per-layer metrics: `(name, unit)`, printed with `--trace 1`. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("gset.generate_ms", "ms"),
    ("ising.encode_ms", "ms"),
    ("anneal.reference_ms", "ms"),
    ("anneal.engine_self_ns_per_iter", "ns"),
    ("anneal.backend_ns_per_iter", "ns"),
    ("anneal.accept_ratio", "ratio"),
    ("device.factor_ns", "ns"),
    ("crossbar.program_ms", "ms"),
    ("crossbar.incr_read_us.p50", "us"),
    ("crossbar.incr_read_us.p99", "us"),
    ("crossbar.incr_reads", "count"),
    ("crossbar.batched_read_us", "us"),
    ("crossbar.batched_reads", "count"),
    ("crossbar.mvm_read_ms.p50", "ms"),
    ("crossbar.mvm_read_ms.p99", "ms"),
    ("crossbar.mvm_reads", "count"),
    ("crossbar.tiles_per_read", "count"),
    ("crossbar.adc_conversions_per_read", "count"),
    ("sb.step_self_us", "us"),
    ("core.prepare_ms", "ms"),
    ("core.trial_ms.p50", "ms"),
    ("core.trial_ms.p99", "ms"),
    ("core.trials", "count"),
    ("core.finish_ms", "ms"),
    ("core.ensemble_efficiency", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.sched_sojourn_ms.p50", "ms"),
    ("serve.sched_sojourn_ms.p99", "ms"),
    ("serve.sched_jobs", "count"),
    ("serve.queue_depth", "count"),
    ("serve.grid_utilization", "ratio"),
    ("serve.grid_waiting_jobs", "count"),
    ("serve.journal_bytes_per_job", "B"),
    ("serve.campaign_round_ms", "ms"),
    ("serve.status_rtt_us.p50", "us"),
    ("serve.status_rtt_us.p99", "us"),
    ("serve.rejected", "count"),
    ("bench.gen_lag_ms.p50", "ms"),
    ("bench.gen_lag_ms.p99", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.trace_spans", "count"),
];

/// The workloads.
const WORKLOADS: [&str; 3] = ["paper_fig10", "device_noisy", "serve_open"];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Shrunken workload.
    pub smoke: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (requests) attempted.
    pub attempted: u64,
    /// Operations failed, including fingerprint mismatches.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Distributions behind percentile metrics, with their sample counts.
    pub dists: Vec<(String, Dist)>,
    /// Result fingerprint.
    pub fingerprint: Fingerprint,
    /// Extra run-record entries (references beside simulated numbers,
    /// ladder details, ...).
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a distribution and set its `p50`/tail metrics.
    pub fn dist(
        &mut self,
        label: &str,
        p50: Option<&'static str>,
        tail: Option<&'static str>,
        d: Dist,
    ) {
        if let Some(name) = p50 {
            self.set(name, d.p50);
        }
        if let Some(name) = tail {
            self.set(name, d.tail);
        }
        self.dists.push((label.to_string(), d));
    }

    /// Add a run-record note.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--smoke]\n       perfbench --check-paper",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => opts.workload = value(i)?,
            "--seed" => opts.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => {
                opts.smoke = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown or missing --workload `{}`", opts.workload));
    }
    Ok(opts)
}

/// Units of work a run of `seconds` makes, for a unit that takes about
/// `unit_seconds` on the reference machine (2 CPUs): at least one. Runs
/// of one length therefore always do the same work, so sample counts —
/// and the percentiles drawn from them — do not drift with machine load.
pub fn work_units(seconds: f64, unit_seconds: f64) -> usize {
    ((seconds / unit_seconds).round() as usize).max(1)
}

/// The directory runs write traces, records and journals to.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A digest of the library sources the benchmark built against, so a
/// record identifies the code even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for sub in ["crates", "third_party", "Cargo.toml", "Cargo.lock"] {
        let p = root.join(sub);
        if p.is_dir() {
            walk(&p, &mut files);
        } else if p.is_file() {
            files.push(p);
        }
    }
    files.sort();
    let mut fp = Fingerprint::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            fp.bytes(
                f.strip_prefix(&root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            fp.bytes(&bytes);
        }
    }
    fp.hex()
}

fn run_record(opts: &Opts, outcome: &Outcome) -> Value {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let root = root.to_string_lossy().to_string();
    let mut entries: Vec<(String, Value)> = vec![
        ("workload".into(), serde_json::json!(opts.workload)),
        ("seed".into(), serde_json::json!(opts.seed)),
        ("default_seed".into(), serde_json::json!(DEFAULT_SEED)),
        ("held_out_seed".into(), serde_json::json!(HELD_OUT_SEED)),
        ("seconds".into(), serde_json::json!(opts.seconds)),
        ("trace".into(), serde_json::json!(opts.trace)),
        ("smoke".into(), serde_json::json!(opts.smoke)),
        (
            "hw_threads".into(),
            serde_json::json!(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "git_rev".into(),
            serde_json::json!(command_line("git", &["-C", &root, "rev-parse", "HEAD"])),
        ),
        ("source_digest".into(), serde_json::json!(source_digest())),
        (
            "rustc".into(),
            serde_json::json!(command_line("rustc", &["--version"])),
        ),
        (
            "rayon_num_threads".into(),
            serde_json::json!(std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        (
            "fingerprint".into(),
            serde_json::json!(outcome.fingerprint.hex()),
        ),
    ];
    let dists: Vec<(String, Value)> = outcome
        .dists
        .iter()
        .map(|(label, d)| {
            (
                label.clone(),
                serde_json::json!({"n": d.n, "p50": d.p50, "tail_percentile": d.tail_p, "tail": d.tail}),
            )
        })
        .collect();
    entries.push(("percentiles".into(), Value::Map(dists)));
    entries.extend(outcome.notes.iter().cloned());
    Value::Map(vec![("record".into(), Value::Map(entries))])
}

/// The committed fingerprint of a run, if any: keyed by `seed`, or by
/// `seed@seconds` for workloads whose inputs depend on the run length.
fn golden(workload: &str, seed: u64, seconds: f64) -> Option<String> {
    let table: Value = serde_json::from_str(include_str!("../fingerprints.json")).ok()?;
    let Value::Map(workloads) = table else {
        return None;
    };
    let (_, seeds) = workloads.iter().find(|(k, _)| k == workload)?;
    let Value::Map(seeds) = seeds else {
        return None;
    };
    let keys = [format!("{seed}@{seconds}"), seed.to_string()];
    seeds
        .iter()
        .find(|(k, _)| keys.contains(k))
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check-paper") {
        return paper::check_paper();
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(msg) => return usage(&msg),
    };
    let mut outcome = match opts.workload.as_str() {
        "paper_fig10" => paper::run(&opts),
        "device_noisy" => device::run(&opts),
        _ => serve::run(&opts),
    };
    if !opts.smoke {
        if let Some(expected) = golden(&opts.workload, opts.seed, opts.seconds) {
            let ok = expected == outcome.fingerprint.hex();
            outcome.note("golden_fingerprint", serde_json::json!(expected));
            if !ok {
                eprintln!(
                    "perfbench: fingerprint {} differs from the committed {expected}",
                    outcome.fingerprint.hex()
                );
                outcome.failed += 1;
            }
        }
    }
    outcome.set("peak_rss_mb", peak_rss_mb());
    let attempted = outcome.attempted.max(1);
    outcome.set(
        "ok_frac",
        (attempted - outcome.failed.min(attempted)) as f64 / attempted as f64,
    );

    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if opts.trace => 0.0,
            None => {
                missing.push(name);
                0.0
            }
        };
        eprintln!("{name:<36} {value} {unit}");
        metrics.push((
            name.to_string(),
            serde_json::json!({"value": value, "unit": unit}),
        ));
    }
    if !missing.is_empty() {
        eprintln!("perfbench: workload reported no value for {missing:?}");
        outcome.failed += 1;
    }
    let record = run_record(&opts, &outcome);
    let record_line = serde_json::to_string(&record).unwrap_or_default();
    let _ = std::fs::write(
        out_dir().join(format!(
            "record-{}-{}-trace{}.json",
            opts.workload,
            opts.seed,
            u8::from(opts.trace)
        )),
        &record_line,
    );
    println!("{record_line}");
    let correct = outcome.failed == 0;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": Value::Map(metrics),
    });
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
