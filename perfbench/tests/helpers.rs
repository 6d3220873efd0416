//! Tests of the benchmark's own helpers: the percentile rule, span self
//! time, open-loop schedule generation and fingerprint stability across
//! thread counts.

use perfbench::schedule::{open_loop_schedule, JobKind, Ladder, MIX};
use perfbench::stats::{rank_index, tail_percentile, windowed, Dist};
use perfbench::trace::{covered_ns, self_time_ns, Rollup, Span, TraceIndex, Tracer};

#[test]
fn percentile_rule_keeps_ten_samples_beyond() {
    // Fewer than 20 samples: not even the median has ten beyond it.
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50));
    assert_eq!(tail_percentile(100), Some(90));
    assert_eq!(tail_percentile(500), Some(98));
    assert_eq!(tail_percentile(1000), Some(99));
    assert_eq!(tail_percentile(1100), Some(99));
    assert_eq!(tail_percentile(100_000), Some(99));
    for n in 20..3000 {
        let p = tail_percentile(n).unwrap();
        let beyond = n - 1 - rank_index(n, p);
        assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        if p < 99 {
            let next = n - 1 - rank_index(n, p + 1);
            assert!(next < 10, "n={n}: p{} also qualifies", p + 1);
        }
    }
}

#[test]
fn dist_reports_sample_count_and_rule_percentile() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let d = Dist::of(&samples);
    assert_eq!(d.n, 100);
    assert_eq!(d.p50, 50.5);
    assert_eq!(d.tail_p, 90);
    assert_eq!(d.tail, 90.0);
    // Too few samples for the rule: the maximum, flagged as p100.
    let d = Dist::of(&[3.0, 1.0, 2.0]);
    assert_eq!((d.n, d.tail_p, d.tail, d.p50), (3, 100, 3.0, 2.0));
}

#[test]
fn windowed_summary_ignores_a_burst_in_one_slice() {
    // Five slices of 100 samples each, values 1.0; slice 2 has a burst.
    let mut samples: Vec<(u64, f64)> = (0..500u64).map(|i| (i * 10, 1.0)).collect();
    for s in samples.iter_mut().filter(|(t, _)| (2000..3000).contains(t)) {
        s.1 = 50.0;
    }
    let d = windowed(&samples, 0, 5000, 5);
    assert_eq!(d.n, 500);
    assert_eq!((d.p50, d.tail), (1.0, 1.0));
    assert_eq!(d.tail_p, tail_percentile(100).unwrap());
    // One slice is the plain summary.
    let plain = Dist::of(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    assert_eq!(windowed(&samples, 0, 5000, 1), plain);
}

fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        req: 1,
        name: "s",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let parent = span(1, 0, 0, 100);
    // Two children on different threads overlap on [30, 40).
    let children = [span(2, 1, 10, 40), span(3, 1, 30, 60)];
    assert_eq!(self_time_ns(&parent, &children, &[]), 100 - 50);
    // A child sticking out of the parent is clipped to it.
    let children = [span(2, 1, 90, 150)];
    assert_eq!(self_time_ns(&parent, &children, &[]), 90);
    assert_eq!(covered_ns(0, 100, &[(10, 20), (15, 25), (50, 60)]), 25);
}

#[test]
fn self_time_ignores_grandchildren_and_subtracts_rollups() {
    let parent = span(1, 0, 0, 100);
    let child = span(2, 1, 10, 50);
    // The grandchild lies inside its parent: it must not be subtracted
    // from the grandparent a second time.
    let grandchild = span(3, 2, 20, 40);
    let all = [child, grandchild];
    assert_eq!(self_time_ns(&parent, &all, &[]), 60);
    assert_eq!(self_time_ns(&child, &all, &[]), 20);
    let rollups = [Rollup {
        parent: 1,
        name: "calls",
        count: 7,
        busy_ns: 15,
    }];
    assert_eq!(self_time_ns(&parent, &all, &rollups), 45);
    let index = TraceIndex::from_parts(
        vec![span(1, 0, 0, 100), child, grandchild],
        rollups.to_vec(),
    );
    assert_eq!(index.self_ns(&span(1, 0, 0, 100)), 45);
    assert_eq!(index.rolled(1, "calls"), (7, 15));
}

#[test]
fn tracer_records_nested_spans_and_disabled_tracer_records_nothing() {
    let on = Tracer::new(true);
    let out = on.span("outer", 0, 9, |outer| {
        on.span("inner", outer, 9, |inner| {
            assert_ne!(inner, outer);
            41
        }) + 1
    });
    assert_eq!(out, 42);
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    let inner = spans.iter().find(|s| s.name == "inner").unwrap();
    assert_eq!(inner.parent, outer.id);
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

    let off = Tracer::new(false);
    assert_eq!(off.span("x", 0, 0, |id| id), 0);
    off.rollup(0, "y", 1, 1);
    assert!(off.spans().is_empty() && off.rollups().is_empty());
}

fn ladder() -> Ladder {
    Ladder {
        rates: vec![50.0, 100.0, 200.0],
        rung_secs: vec![2.0, 2.0, 2.0],
        campaign_every: 32,
    }
}

#[test]
fn open_loop_schedule_is_a_function_of_the_seed() {
    let a = open_loop_schedule(2025, &ladder());
    let b = open_loop_schedule(2025, &ladder());
    assert_eq!(a, b);
    let c = open_loop_schedule(7, &ladder());
    assert_eq!(a.len(), c.len());
    assert_ne!(a, c, "another seed draws another mix and other job seeds");
}

#[test]
fn open_loop_schedule_follows_the_ladder() {
    let s = open_loop_schedule(1, &ladder());
    assert_eq!(s.len(), 100 + 200 + 400);
    for (k, a) in s.iter().enumerate() {
        assert_eq!(a.seq, k);
        let rung_start = a.rung as u64 * 2_000_000_000;
        assert!(a.at_ns >= rung_start && a.at_ns < rung_start + 2_000_000_000);
        if k > 0 {
            assert!(s[k - 1].at_ns <= a.at_ns, "arrivals are in time order");
            assert!(s[k - 1].rung <= a.rung);
        }
        assert_eq!(a.kind == JobKind::Campaign, k % 32 == 0);
    }
    // Each rung offers its rate: count fixed, arrivals spread over it.
    for (rung, rate) in ladder().rates.iter().enumerate() {
        let times: Vec<u64> = s
            .iter()
            .filter(|a| a.rung == rung)
            .map(|a| a.at_ns)
            .collect();
        assert_eq!(times.len(), (rate * 2.0) as usize);
        let mean_gap = (times[times.len() - 1] - times[0]) as f64 / (times.len() - 1) as f64;
        assert!(
            (mean_gap * rate / 1e9 - 1.0).abs() < 0.2,
            "rung {rung}: mean gap {mean_gap}"
        );
    }
    // Outside campaigns every block of the mix appears in full.
    let kinds: Vec<JobKind> = s
        .iter()
        .map(|a| a.kind)
        .filter(|k| *k != JobKind::Campaign)
        .collect();
    for block in kinds.chunks(MIX.len()).filter(|b| b.len() == MIX.len()) {
        let mut got = block.to_vec();
        let mut want = MIX.to_vec();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }
}

/// Run the benchmark binary on a shrunken workload and return the
/// fingerprint from its run record.
fn fingerprint(workload: &str, threads: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let key = "\"fingerprint\":\"";
    let start = stdout.find(key).expect("run record carries a fingerprint") + key.len();
    stdout[start..start + 16].to_string()
}

#[test]
fn fingerprints_do_not_depend_on_thread_count() {
    for workload in ["paper_fig10", "device_noisy", "serve_open"] {
        assert_eq!(
            fingerprint(workload, "1"),
            fingerprint(workload, "2"),
            "{workload}: RAYON_NUM_THREADS changed the results"
        );
    }
}
