//! The `fecim-serve` JSONL transport: protocol round-trips, the
//! committed smoke fixture (which CI also feeds to the real binary),
//! and the end-to-end serve loop semantics — responses in submission
//! order, deterministic cancellation, per-line failure isolation.

use std::io::BufReader;
use std::path::{Path, PathBuf};

use fecim::{CimAnnealer, ProblemSpec, RunPlan, SolveRequest, SolverSpec};
use fecim_serve::{
    check_responses, check_responses_against, run_jsonl, JsonlError, RequestLine, ResponseLine,
    SchedulerConfig, SubmitOptions,
};

fn ring_request(n: usize, iterations: usize) -> SolveRequest {
    SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: n,
            edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
        },
        SolverSpec::Cim(CimAnnealer::new(iterations).with_flips(1)),
    )
}

/// The CI smoke fixture: three submissions (a Max-Cut ensemble, a raw
/// QUBO, and a long Max-Cut), the last one cancelled in-stream — plus
/// a cancel for an id the stream never submits, which must get its own
/// `Failed` line instead of being silently swallowed.
fn fixture_lines() -> Vec<RequestLine> {
    vec![
        RequestLine::Submit {
            id: "ring".into(),
            request: ring_request(12, 400).with_run(RunPlan::Ensemble {
                trials: 3,
                base_seed: 7,
                threads: None,
            }),
            options: SubmitOptions::priority(1),
        },
        RequestLine::Submit {
            id: "qubo".into(),
            request: SolveRequest::new(
                ProblemSpec::Qubo {
                    q: vec![
                        vec![-1.0, 2.0, 0.0],
                        vec![0.0, -1.0, 2.0],
                        vec![0.0, 0.0, -1.0],
                    ],
                },
                SolverSpec::Cim(CimAnnealer::new(300).with_flips(1)),
            )
            .with_run(RunPlan::Single { seed: 2 }),
            options: SubmitOptions::default(),
        },
        RequestLine::Submit {
            id: "doomed".into(),
            // Far too large to ever finish: in the staged transport the
            // cancel applies before anything runs (free), and in the
            // streaming transport it guarantees the in-stream cancel
            // always beats completion instead of racing it.
            request: ring_request(16, 20_000).with_run(RunPlan::Ensemble {
                trials: 100_000,
                base_seed: 0,
                threads: None,
            }),
            options: SubmitOptions::default().with_tag("smoke"),
        },
        RequestLine::Cancel {
            id: "doomed".into(),
        },
        RequestLine::Cancel { id: "ghost".into() },
    ]
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("serve_smoke.jsonl")
}

/// The committed fixture must stay in sync with the protocol types.
/// Regenerate with `FIXTURE_REGEN=1 cargo test -p fecim-tests --test
/// serve_jsonl` after an intentional protocol change.
#[test]
fn committed_smoke_fixture_matches_protocol() {
    let mut expected = String::new();
    for line in fixture_lines() {
        expected.push_str(&serde_json::to_string(&line).expect("protocol serializes"));
        expected.push('\n');
    }
    let path = fixture_path();
    if std::env::var("FIXTURE_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        std::fs::write(&path, &expected).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\nrun `FIXTURE_REGEN=1 cargo test -p fecim-tests --test \
             serve_jsonl` to create it",
            path.display()
        )
    });
    assert_eq!(committed, expected, "fixture drifted from the protocol");
    // And every committed line parses back to the builder's value.
    for (line, built) in committed.lines().zip(fixture_lines()) {
        let parsed: RequestLine = serde_json::from_str(line).expect("fixture parses");
        assert_eq!(parsed, built);
    }
}

#[test]
fn serving_the_smoke_fixture_completes_two_and_cancels_one() {
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture committed");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(fixture.as_bytes()),
        &mut output,
        SchedulerConfig::workers(2),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 3);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.failed, 1, "the ghost cancel fails its own line");

    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert_eq!(
        responses.len(),
        4,
        "one response line per actionable input line"
    );
    // Responses come back in submission order, whatever ran first;
    // cancel errors trail the submissions.
    assert_eq!(
        responses.iter().map(ResponseLine::id).collect::<Vec<_>>(),
        vec!["ring", "qubo", "doomed", "ghost"]
    );
    // And the full per-id contract holds against the request stream.
    check_responses_against(
        BufReader::new(fixture.as_bytes()),
        BufReader::new(output.as_slice()),
    )
    .expect("fixture responses check out against the fixture requests");
    match &responses[0] {
        ResponseLine::Completed { response, .. } => {
            assert_eq!(response.reports.len(), 3);
            assert!(
                response.summary.best_objective.unwrap() >= 10.0,
                "12-ring cut"
            );
        }
        other => panic!("expected Completed, got {other:?}"),
    }
    match &responses[1] {
        ResponseLine::Completed { response, .. } => {
            // Optimum of the chain QUBO picks x0 and x2: value −2.
            assert_eq!(response.summary.best_objective, Some(-2.0));
        }
        other => panic!("expected Completed, got {other:?}"),
    }
    match &responses[2] {
        ResponseLine::Cancelled {
            completed_trials,
            partial,
            ..
        } => {
            // Cancelled while the scheduler was still paused: nothing ran.
            assert_eq!(*completed_trials, 0);
            assert!(partial.is_none());
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    match &responses[3] {
        ResponseLine::Failed { error, .. } => {
            assert_eq!(error, "cancel for unknown id `ghost`");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn cancel_before_its_submission_still_applies() {
    // The whole stream is staged before execution, so a cancel that
    // precedes its submit in the byte stream beats the worker pool too.
    let cancel = serde_json::to_string(&RequestLine::Cancel { id: "late".into() }).unwrap();
    let submit = serde_json::to_string(&RequestLine::Submit {
        id: "late".into(),
        request: ring_request(16, 5000).with_run(RunPlan::Ensemble {
            trials: 8,
            base_seed: 0,
            threads: None,
        }),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{cancel}\n{submit}\n").as_bytes()),
        &mut output,
        SchedulerConfig::workers(2),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.failed, 0, "a forward cancel is not an error");
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert!(matches!(
        &responses[0],
        ResponseLine::Cancelled {
            completed_trials: 0,
            ..
        }
    ));
}

#[test]
fn unknown_cancel_and_duplicate_ids_fail_per_line() {
    let ok = serde_json::to_string(&RequestLine::Submit {
        id: "a".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let dup = serde_json::to_string(&RequestLine::Submit {
        id: "a".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let ghost = serde_json::to_string(&RequestLine::Cancel { id: "ghost".into() }).unwrap();
    let stream = format!("{ok}\n\n{dup}\n{ghost}\n");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(stream.as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 2, "duplicate id + unknown cancel");
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert_eq!(responses.len(), 3);
    assert!(matches!(&responses[0], ResponseLine::Completed { id, .. } if id == "a"));
    assert!(matches!(&responses[1], ResponseLine::Failed { id, .. } if id == "a"));
    assert!(matches!(&responses[2], ResponseLine::Failed { id, .. } if id == "ghost"));
}

#[test]
fn malformed_lines_are_a_stream_error_with_position() {
    let err = run_jsonl(
        BufReader::new("{\"Submit\":{\"id\":oops\n".as_bytes()),
        Vec::new(),
        SchedulerConfig::workers(1),
    )
    .expect_err("malformed line");
    match err {
        JsonlError::Parse { line, .. } => assert_eq!(line, 1),
        other => panic!("expected Parse, got {other}"),
    }
}

#[test]
fn nesting_bomb_line_is_a_parse_error_not_a_crash() {
    // 400 000 unclosed brackets on one line: the parser stops at its
    // nesting limit and reports the line instead of overflowing the
    // stack and aborting the process.
    let input = format!("{}\n", "[".repeat(400_000));
    let err = run_jsonl(
        BufReader::new(input.as_bytes()),
        Vec::new(),
        SchedulerConfig::workers(1),
    )
    .expect_err("nesting bomb");
    match err {
        JsonlError::Parse { line, .. } => assert_eq!(line, 1),
        other => panic!("expected Parse, got {other}"),
    }
}

/// Serve `first` (a valid submission) followed by `second` and expect
/// the stream to end with a parse error naming line 2.
fn assert_second_line_ends_the_stream(second: &[u8], expected: &str) {
    let first = serde_json::to_string(&RequestLine::Submit {
        id: "first".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let mut input = format!("{first}\n").into_bytes();
    input.extend_from_slice(second);
    input.push(b'\n');
    let err = run_jsonl(
        BufReader::new(input.as_slice()),
        Vec::new(),
        SchedulerConfig::workers(1),
    )
    .expect_err("the second line ends the stream");
    match err {
        JsonlError::Parse { line, message } => {
            assert_eq!(line, 2);
            assert!(message.contains(expected), "{message}");
        }
        other => panic!("expected Parse, got {other}"),
    }
}

#[test]
fn a_line_over_the_length_limit_ends_the_stream_with_its_position() {
    // One byte past the limit: the reader stops buffering at the limit
    // instead of holding the whole line.
    let long = vec![b' '; fecim_serve::tcp::MAX_LINE_BYTES + 1];
    assert_second_line_ends_the_stream(&long, "exceeds");
}

#[test]
fn a_non_utf8_line_ends_the_stream_with_its_position() {
    assert_second_line_ends_the_stream(b"{\"Status\":{\"id\":\"\xff\"}}", "not valid UTF-8");
}

#[test]
fn surrogate_pair_escaped_ids_come_back_as_the_same_character() {
    // Python's default `json.dumps` escapes a non-BMP character as a
    // UTF-16 surrogate pair; the server must echo the id the client
    // meant, not two replacement characters.
    let line = serde_json::to_string(&RequestLine::Submit {
        id: "job-EMOJI".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap()
    .replace("EMOJI", "\\ud83d\\ude00");
    assert!(line.contains(r#""job-\ud83d\ude00""#), "{line}");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{line}\n").as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.completed, 1);
    assert!(String::from_utf8(output.clone())
        .unwrap()
        .contains("\"job-\u{1F600}\""));
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert!(
        matches!(&responses[0], ResponseLine::Completed { id, .. } if id == "job-\u{1F600}"),
        "got {:?}",
        responses[0]
    );
}

#[test]
fn invalid_requests_inside_valid_lines_fail_their_own_job() {
    // A structurally valid line whose *request* is rejected at prepare
    // time (non-square Q): the stream keeps serving.
    let bad = serde_json::to_string(&RequestLine::Submit {
        id: "bad-q".into(),
        request: SolveRequest::new(
            ProblemSpec::Qubo {
                q: vec![vec![1.0, 2.0], vec![0.0]],
            },
            SolverSpec::Cim(CimAnnealer::new(100)),
        ),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let ok = serde_json::to_string(&RequestLine::Submit {
        id: "ok".into(),
        request: ring_request(8, 200),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{bad}\n{ok}\n").as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 1);
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert!(
        matches!(&responses[0], ResponseLine::Failed { id, error } if id == "bad-q" && error.contains("dimension")),
        "got {:?}",
        responses[0]
    );
}

#[test]
fn status_and_progress_are_answered_at_stage_time() {
    // The batch transport stages before executing, so point-in-time
    // queries deterministically observe `Queued` for earlier-submitted
    // ids and fail for unknown ones — written before the terminals.
    let submit = serde_json::to_string(&RequestLine::Submit {
        id: "job".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let status = serde_json::to_string(&RequestLine::Status { id: "job".into() }).unwrap();
    let progress = serde_json::to_string(&RequestLine::Progress { id: "job".into() }).unwrap();
    let early = serde_json::to_string(&RequestLine::Status { id: "job".into() }).unwrap();
    let stream = format!("{early}\n{submit}\n{status}\n{progress}\n");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(stream.as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.observations, 2, "the two post-submit queries");
    assert_eq!(summary.failed, 1, "the pre-submit query sees no job yet");
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert_eq!(responses.len(), 4);
    assert!(
        matches!(&responses[0], ResponseLine::Failed { id, error } if id == "job" && error == "status for unknown id `job`")
    );
    assert!(
        matches!(&responses[1], ResponseLine::Status { id, status } if id == "job" && *status == fecim_serve::JobStatus::Queued)
    );
    match &responses[2] {
        ResponseLine::Progress { id, progress } => {
            assert_eq!(id, "job");
            assert_eq!(progress.trials_completed, 0, "staged, not yet running");
        }
        other => panic!("expected Progress, got {other:?}"),
    }
    assert!(matches!(&responses[3], ResponseLine::Completed { id, .. } if id == "job"));
    // Observations may repeat an id; the checker only counts terminals.
    check_responses_against(
        BufReader::new(stream.as_bytes()),
        BufReader::new(output.as_slice()),
    )
    .expect("observations don't violate the per-id contract");
}

#[test]
fn elapsed_deadlines_serialize_as_deadline_exceeded_lines() {
    let submit = serde_json::to_string(&RequestLine::Submit {
        id: "late".into(),
        request: ring_request(16, 5000).with_run(RunPlan::Ensemble {
            trials: 8,
            base_seed: 0,
            threads: None,
        }),
        options: SubmitOptions::default().with_deadline_ms(0),
    })
    .unwrap();
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{submit}\n").as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.deadline_exceeded, 1);
    assert_eq!(summary.completed, 0);
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    match &responses[0] {
        ResponseLine::DeadlineExceeded {
            id,
            completed_trials,
            partial,
        } => {
            assert_eq!(id, "late");
            assert_eq!(*completed_trials, 0);
            assert!(partial.is_none());
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn check_responses_flags_double_settled_ids() {
    let completed = r#"{"Cancelled":{"id":"a","completed_trials":0,"partial":null}}"#;
    let stream = format!("{completed}\n{completed}\n");
    match check_responses(BufReader::new(stream.as_bytes())) {
        Err(JsonlError::Contract { message }) => {
            assert!(message.contains("`a` settled by 2"), "got: {message}");
        }
        other => panic!("expected Contract violation, got {other:?}"),
    }
}

#[test]
fn check_responses_against_flags_missing_and_spurious_ids() {
    let submit = serde_json::to_string(&RequestLine::Submit {
        id: "a".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let requests = format!("{submit}\n");
    // A dropped response is a contract violation...
    match check_responses_against(
        BufReader::new(requests.as_bytes()),
        BufReader::new(&b""[..]),
    ) {
        Err(JsonlError::Contract { message }) => {
            assert!(message.contains("`a`"), "got: {message}");
            assert!(message.contains("got 0"), "got: {message}");
        }
        other => panic!("expected Contract violation, got {other:?}"),
    }
    // ...and so is a response no request line asked for.
    let spurious = format!(
        "{}\n{}\n",
        r#"{"Cancelled":{"id":"a","completed_trials":0,"partial":null}}"#,
        r#"{"Failed":{"id":"nobody","error":"made up"}}"#
    );
    match check_responses_against(
        BufReader::new(requests.as_bytes()),
        BufReader::new(spurious.as_bytes()),
    ) {
        Err(JsonlError::Contract { message }) => {
            assert!(message.contains("`nobody`"), "got: {message}");
        }
        other => panic!("expected Contract violation, got {other:?}"),
    }
}
