//! Serde round-trips for the workspace's persistence surface: experiment
//! configs, results, device parameters and graphs all serialize to JSON
//! (the harness artifact format) and deserialize back unchanged.

use fecim::experiment::{ExperimentConfig, Scale};
use fecim_crossbar::{ActivityStats, CrossbarConfig};
use fecim_device::{DgFefetParams, FefetParams, PreisachParams, VariationConfig};
use fecim_gset::{suite_instance, GeneratorConfig, SizeGroup};
use fecim_ising::{CsrCoupling, MaxCut, Qubo, SpinVector};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn spin_vector_roundtrip() {
    let v = SpinVector::from_signs(&[1, -1, 1, 1, -1]);
    assert_eq!(roundtrip(&v), v);
}

#[test]
fn coupling_roundtrip_preserves_energies() {
    let j = CsrCoupling::from_triplets(5, &[(0, 1, 1.5), (2, 4, -0.25), (1, 3, 0.75)]).unwrap();
    let back = roundtrip(&j);
    assert_eq!(back, j);
    use fecim_ising::Coupling;
    let s = SpinVector::all_up(5);
    assert_eq!(back.energy(&s), j.energy(&s));
}

#[test]
fn problem_roundtrips() {
    let mc = MaxCut::new(4, vec![(0, 1, 1.0), (2, 3, -2.0)]).unwrap();
    assert_eq!(roundtrip(&mc), mc);
    let mut q = Qubo::new(3);
    q.add_term(0, 1, 2.0);
    q.add_term(2, 2, -1.0);
    assert_eq!(roundtrip(&q), q);
    let raw =
        fecim_ising::RawIsing::new(vec![0.5, -0.5], &[vec![0.0, -1.0], vec![-1.0, 0.0]]).unwrap();
    assert_eq!(roundtrip(&raw), raw);
}

#[test]
fn raw_payload_specs_roundtrip_and_rebuild_identical_models() {
    use fecim::ProblemSpec;
    use fecim_ising::SpinVector;
    let qubo = ProblemSpec::Qubo {
        q: vec![
            vec![-1.0, 2.0, 0.25],
            vec![0.5, -1.0, 0.0],
            vec![0.25, 0.0, 3.0],
        ],
    };
    let back = roundtrip(&qubo);
    assert_eq!(back, qubo);
    // The deserialized spec builds a model with identical energies.
    let a = qubo.build().unwrap().to_ising().unwrap();
    let b = back.build().unwrap().to_ising().unwrap();
    for bits in 0u32..8 {
        let x: Vec<u8> = (0..3).map(|i| ((bits >> i) & 1) as u8).collect();
        let s = SpinVector::from_binaries(&x);
        assert_eq!(a.energy(&s), b.energy(&s));
    }

    let ising = ProblemSpec::Ising {
        h: vec![0.1, -0.2, 0.0],
        j: vec![
            vec![0.0, 0.5, -0.25],
            vec![0.5, 0.0, 0.75],
            vec![-0.25, 0.75, 0.0],
        ],
    };
    let back = roundtrip(&ising);
    assert_eq!(back, ising);
    let a = ising.build().unwrap().to_ising().unwrap();
    let b = back.build().unwrap().to_ising().unwrap();
    let s = SpinVector::from_signs(&[1, -1, 1]);
    assert_eq!(a.energy(&s), b.energy(&s));
}

#[test]
fn raw_payload_validation_errors_are_not_serialization_errors() {
    // Malformed payloads still *round-trip* (they are valid JSON) — the
    // error surfaces at build time, which is what lets a server answer
    // with a per-job failure instead of a protocol failure.
    use fecim::ProblemSpec;
    use fecim_ising::IsingError;
    let nonsquare = ProblemSpec::Qubo {
        q: vec![vec![1.0, 2.0], vec![0.0]],
    };
    let back = roundtrip(&nonsquare);
    assert!(matches!(
        back.build(),
        Err(IsingError::DimensionMismatch {
            expected: 2,
            found: 1
        })
    ));
    let mismatched = ProblemSpec::Ising {
        h: vec![0.0; 4],
        j: vec![vec![0.0; 3]; 3],
    };
    assert!(matches!(
        roundtrip(&mismatched).build(),
        Err(IsingError::DimensionMismatch {
            expected: 4,
            found: 3
        })
    ));
}

#[test]
fn scheduler_wire_types_roundtrip() {
    use fecim_serve::{JobProgress, JobStatus, SubmitOptions};
    let options = SubmitOptions::priority(-3)
        .with_deadline_ms(1500)
        .with_tag("sweep")
        .with_tag("nightly");
    assert_eq!(roundtrip(&options), options);
    for status in [
        JobStatus::Queued,
        JobStatus::Running,
        JobStatus::Completed,
        JobStatus::Cancelled,
        JobStatus::DeadlineExceeded,
        JobStatus::Failed,
    ] {
        assert_eq!(roundtrip(&status), status);
    }
    let progress = JobProgress {
        trials_completed: 3,
        trials_total: 8,
        in_flight: 2,
        best_energy: Some(-12.5),
    };
    assert_eq!(roundtrip(&progress), progress);
}

#[test]
fn device_params_roundtrip() {
    assert_eq!(
        roundtrip(&FefetParams::paper_reference()),
        FefetParams::paper_reference()
    );
    assert_eq!(
        roundtrip(&DgFefetParams::paper_reference()),
        DgFefetParams::paper_reference()
    );
    assert_eq!(
        roundtrip(&PreisachParams::paper_reference()),
        PreisachParams::paper_reference()
    );
    assert_eq!(
        roundtrip(&VariationConfig::typical()),
        VariationConfig::typical()
    );
}

#[test]
fn crossbar_config_and_stats_roundtrip() {
    let cfg = CrossbarConfig::paper_defaults();
    assert_eq!(roundtrip(&cfg), cfg);
    let stats = ActivityStats {
        array_ops: 10,
        adc_conversions: 320,
        ..Default::default()
    };
    assert_eq!(roundtrip(&stats), stats);
}

#[test]
fn gset_instances_roundtrip_and_regenerate_identically() {
    let inst = suite_instance(SizeGroup::N800, 3);
    let back = roundtrip(&inst);
    assert_eq!(back, inst);
    // The config fully determines the graph.
    assert_eq!(back.graph(), inst.graph());
    let gen = GeneratorConfig::new(64, 9);
    assert_eq!(roundtrip(&gen), gen);
}

#[test]
fn experiment_config_roundtrip() {
    let cfg = ExperimentConfig::new(Scale::Paper);
    let back = roundtrip(&cfg);
    assert_eq!(back, cfg);
}

#[test]
fn solve_report_serializes_for_artifacts() {
    // End-to-end: a real report must serialize (the harness writes these).
    let mc = MaxCut::new(6, (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect()).unwrap();
    let report = fecim::CimAnnealer::new(200).solve(&mc, 1).unwrap();
    let json = serde_json::to_value(&report).expect("report serializes");
    assert!(json.get("best_energy").is_some());
    assert!(json.get("energy").is_some());
}

#[test]
fn sb_solve_request_roundtrips_and_replays_bit_identically() {
    use fecim::sb::{PressureSchedule, SbVariant};
    use fecim::{BackendPlan, ProblemSpec, RunPlan, SbAnnealer, Session, SolveRequest, SolverSpec};
    let request = SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: 12,
            edges: (0..12).map(|i| (i, (i + 1) % 12, 1.0)).collect(),
        },
        SolverSpec::Sb(
            SbAnnealer::new(SbVariant::Discrete, 150)
                .with_dt(0.2)
                .with_pressure_schedule(PressureSchedule::DelayedLinear {
                    onset: 0.1,
                    end: 1.0,
                })
                .with_coupling_strength(1.25)
                .with_in_bits(5),
        ),
    )
    .with_backend(BackendPlan::DeviceInLoop {
        fidelity: fecim_crossbar::Fidelity::Ideal,
        tile_rows: Some(4),
    })
    .with_run(RunPlan::Ensemble {
        trials: 3,
        base_seed: 9,
        threads: None,
    })
    .with_reference(12.0);
    assert_eq!(roundtrip(&request), request);
    // A deserialized SB request produces bit-identical results — the
    // same wire contract the annealers honor.
    let session = Session::new();
    let a = session.run(&request).expect("valid request");
    let b = session.run(&roundtrip(&request)).expect("valid request");
    assert_eq!(
        serde_json::to_string(&a.reports).expect("reports serialize"),
        serde_json::to_string(&b.reports).expect("reports serialize"),
    );
}

#[test]
fn wire_deserialized_sb_misconfigurations_are_rejected_as_invalid_requests() {
    use fecim::{ProblemSpec, SbAnnealer, Session, SessionError, SolveRequest, SolverSpec};
    let valid = SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: 6,
            edges: (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect(),
        },
        SolverSpec::Sb(SbAnnealer::ballistic(50)),
    );
    // Navigate the parsed map tree to a named field (the shim's `Value`
    // has no JSON-pointer helpers).
    fn field_mut<'a>(value: &'a mut serde_json::Value, path: &[&str]) -> &'a mut serde_json::Value {
        let mut current = value;
        for key in path {
            current = match current {
                serde_json::Value::Map(entries) => {
                    &mut entries
                        .iter_mut()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("field `{key}` exists"))
                        .1
                }
                _ => panic!("expected an object at `{key}`"),
            };
        }
        current
    }

    let json = valid.to_json().expect("serializes");
    let session = Session::new();
    // The builders panic on these values, but wire payloads never run
    // the builders — `Session::prepare` re-validates instead. (JSON has
    // no NaN/Infinity literal, so the non-finite schedule case arrives
    // as an out-of-domain finite value.)
    let cases: Vec<(&[&str], serde_json::Value)> = vec![
        (&["solver", "Sb", "steps"], serde_json::json!(0u64)),
        (&["solver", "Sb", "dt"], serde_json::json!(-0.5f64)),
        (&["solver", "Sb", "in_bits"], serde_json::json!(0u64)),
        (
            &["solver", "Sb", "coupling_strength"],
            serde_json::json!(-2.0f64),
        ),
        (
            &["solver", "Sb", "pressure_schedule"],
            serde_json::json!({"DelayedLinear": serde_json::json!({"onset": 1.5f64, "end": 1.0f64})}),
        ),
    ];
    for (path, bad) in cases {
        let mut tree: serde_json::Value = serde_json::from_str(&json).expect("parses");
        *field_mut(&mut tree, path) = bad;
        let mutated = serde_json::to_string(&tree).expect("tree serializes");
        let request = SolveRequest::from_json(&mutated).expect("mutation still parses");
        match session.run(&request) {
            Err(SessionError::InvalidRequest(_)) => {}
            other => panic!("{path:?}: expected InvalidRequest, got {other:?}"),
        }
    }
}

#[test]
fn wire_deserialized_solver_misconfigurations_are_rejected_at_prepare() {
    use fecim::{
        CimAnnealer, DirectAnnealer, MesaAnnealer, ProblemSpec, Session, SessionError,
        SolveRequest, SolverSpec,
    };
    let ring = ProblemSpec::MaxCut {
        vertices: 6,
        edges: (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect(),
    };
    // Each builder panics on its value, but wire payloads never run the
    // builders: left unchecked, every one of these panicked a scheduler
    // worker mid-run and the job never settled.
    let cases = [
        (
            SolverSpec::Cim(CimAnnealer::new(50)),
            "\"flips\":2",
            "\"flips\":0",
            "flip",
        ),
        (
            SolverSpec::Cim(CimAnnealer::new(50)),
            "\"einc_scale\":null",
            "\"einc_scale\":-2",
            "E_inc",
        ),
        (
            SolverSpec::Cim(CimAnnealer::new(50)),
            "\"factor\":\"PaperFractional\"",
            // The denominator 5 - 0.01 T crosses zero at T = 500 < 700.
            "\"factor\":{\"Fractional\":{\"a\":1,\"b\":-0.01,\"c\":5,\"d\":-0.2,\"t_max\":700}}",
            "denominator",
        ),
        (
            SolverSpec::Cim(CimAnnealer::new(50)),
            "\"factor\":\"PaperFractional\"",
            // A valid table whose temperatures never reach above zero.
            "\"factor\":{\"Table\":[[-10,0.1],[-5,0.2]]}",
            "t_max",
        ),
        (
            SolverSpec::Direct(DirectAnnealer::cim_asic(50)),
            "\"flips\":2",
            "\"flips\":0",
            "flip",
        ),
        (
            SolverSpec::Direct(DirectAnnealer::cim_asic(50)),
            "\"t0\":null",
            "\"t0\":-1",
            "initial temperature",
        ),
        (
            SolverSpec::Direct(DirectAnnealer::cim_asic(50)),
            "\"t_end_fraction\":0.01",
            "\"t_end_fraction\":1.5",
            "fraction",
        ),
        (
            SolverSpec::Direct(DirectAnnealer::cim_asic(50)),
            "\"t_end_fraction\":0.01",
            "\"t_end_fraction\":0",
            "fraction",
        ),
        (
            SolverSpec::Mesa(MesaAnnealer::new(50)),
            "\"epochs\":4",
            "\"epochs\":0",
            "epoch",
        ),
    ];
    let session = Session::new();
    for (solver, from, to, expected) in cases {
        let wire = SolveRequest::new(ring.clone(), solver)
            .to_json()
            .expect("serializes");
        assert!(wire.contains(from), "`{from}` not in {wire}");
        let request =
            SolveRequest::from_json(&wire.replacen(from, to, 1)).expect("mutation still parses");
        match session.prepare(&request) {
            Err(SessionError::InvalidRequest(msg)) => {
                assert!(msg.contains(expected), "{to}: message `{msg}`")
            }
            other => panic!("{to}: expected InvalidRequest, got {other:?}"),
        }
    }
}

#[test]
fn legacy_lines_with_solver_device_knobs_parse_and_run_analytic() {
    use fecim::{CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, Solver, SolverSpec};
    use fecim_serve::{RequestLine, SubmitOptions};
    use fecim_tests::LEGACY_DEVICE_KNOB_REQUEST;
    // A serve-fixture line as written while solver configs carried
    // device settings. The derive reads declared fields only and ignores
    // the rest, as upstream serde does; the backend plan overrode those
    // keys all along, so the result is the plain solver's.
    let line = format!(
        r#"{{"Submit":{{"id":"legacy","request":{LEGACY_DEVICE_KNOB_REQUEST},"options":{{"priority":0,"deadline_ms":null,"tags":[]}}}}}}"#
    );
    let solver = CimAnnealer::new(150).with_flips(1);
    let ring = ProblemSpec::MaxCut {
        vertices: 10,
        edges: (0..10).map(|i| (i, (i + 1) % 10, 1.0)).collect(),
    };
    let plain = SolveRequest::new(ring.clone(), SolverSpec::Cim(solver.clone()))
        .with_run(RunPlan::Single { seed: 3 });
    let parsed: RequestLine = serde_json::from_str(&line).expect("legacy line parses");
    assert_eq!(
        parsed,
        RequestLine::Submit {
            id: "legacy".into(),
            request: plain.clone(),
            options: SubmitOptions::default(),
        }
    );
    let reserialized = serde_json::to_string(&parsed).expect("serializes");
    for key in ["device_in_loop", "tile_rows", "quant_bits", "mux_ratio"] {
        assert!(line.contains(key) && !reserialized.contains(key), "{key}");
    }
    let RequestLine::Submit { request, .. } = parsed else {
        unreachable!("asserted equal to a Submit above")
    };
    let response = Session::new().run(&request).expect("ring encodes");
    assert!(response.reports[0].run.activity.is_none(), "ran analytic");
    let problem = ring.build().expect("ring encodes");
    let direct = Solver::solve(&solver, problem.as_ref(), 3).expect("ring encodes");
    assert_eq!(
        serde_json::to_string(&response.reports[0]).expect("serializes"),
        serde_json::to_string(&direct).expect("serializes")
    );
}

#[test]
fn requests_predating_the_sb_family_parse_unchanged() {
    use fecim::{CimAnnealer, ProblemSpec, RunPlan, SolveRequest, SolverSpec};
    let request = SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: 4,
            edges: vec![(0, 1, 1.0), (2, 3, 1.0)],
        },
        SolverSpec::Cim(CimAnnealer::new(120).with_flips(1)),
    )
    .with_run(RunPlan::Single { seed: 7 });
    let wire = request.to_json().expect("serializes");
    // `SolverSpec` grew the `Sb` variant, which external tagging keeps
    // backward compatible: pre-SB payloads neither mention the new
    // variant nor gain required fields, so old JSON parses unchanged.
    assert!(!wire.contains("Sb"), "legacy encodings are SB-free: {wire}");
    assert_eq!(SolveRequest::from_json(&wire).expect("parses"), request);
}

#[test]
fn solve_request_and_response_roundtrip() {
    use fecim::{
        BackendPlan, CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolveResponse,
        SolverSpec,
    };
    let request = SolveRequest::new(
        ProblemSpec::Generated(GeneratorConfig::new(24, 4)),
        SolverSpec::Cim(CimAnnealer::new(120).with_flips(1)),
    )
    .with_backend(BackendPlan::DeviceInLoop {
        fidelity: fecim_crossbar::Fidelity::Ideal,
        tile_rows: Some(8),
    })
    .with_run(RunPlan::Ensemble {
        trials: 2,
        base_seed: 6,
        threads: None,
    })
    .with_reference(20.0);
    assert_eq!(roundtrip(&request), request);

    let response = Session::new().run(&request).expect("valid request");
    let back: SolveResponse = roundtrip(&response);
    assert_eq!(back.summary, response.summary);
    assert_eq!(back.normalized, response.normalized);
    assert_eq!(back.reports.len(), response.reports.len());
}
