//! Thread footprint of the TCP transport: a connection costs a fixed
//! number of threads, however many of its jobs are open. This is its own
//! test binary so no other test's threads are counted.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

use fecim::{CimAnnealer, ProblemSpec, RunPlan, SolveRequest, SolverSpec};
use fecim_serve::{
    RequestLine, ResponseLine, SchedulerConfig, SubmitOptions, TcpServer, TcpServerConfig,
};

const JOBS: usize = 100;

fn ring(n: usize, iterations: usize, trials: usize) -> SolveRequest {
    SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: n,
            edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
        },
        SolverSpec::Cim(CimAnnealer::new(iterations).with_flips(1)),
    )
    .with_run(RunPlan::Ensemble {
        trials,
        base_seed: 1,
        threads: None,
    })
}

fn send(writer: &mut TcpStream, line: &RequestLine) {
    writeln!(writer, "{}", serde_json::to_string(line).unwrap()).unwrap();
}

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn open_jobs_on_a_connection_hold_no_thread_each() {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: None,
        },
    )
    .unwrap();
    let mut writer = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut recv = || {
        let mut line = String::new();
        let read = reader.read_line(&mut line).unwrap();
        (read > 0).then(|| serde_json::from_str::<ResponseLine>(line.trim()).unwrap())
    };

    // Job 0 keeps the only worker busy for far longer than the test
    // needs (it is cancelled below); the other 99 queue up behind it, so
    // every job is open while the threads are counted.
    let ids: Vec<String> = (0..JOBS).map(|i| format!("job-{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        let request = if i == 0 {
            ring(64, 2000, 10_000)
        } else {
            ring(8, 50, 1)
        };
        send(
            &mut writer,
            &RequestLine::Submit {
                id: id.clone(),
                request,
                options: SubmitOptions::default(),
            },
        );
    }
    // The Status answer comes after the last submission was read, so
    // every job has been submitted when it arrives.
    let last = ids[JOBS - 1].clone();
    send(&mut writer, &RequestLine::Status { id: last.clone() });
    let mut terminal = 0;
    loop {
        match recv().expect("status answer") {
            ResponseLine::Status { id, .. } if id == last => break,
            ResponseLine::Completed { .. } => terminal += 1,
            other => panic!("unexpected line {other:?}"),
        }
    }

    let open = server.open_jobs();
    assert!(open >= JOBS / 2, "only {open} jobs still open");
    let threads = live_threads();
    assert!(
        threads <= 16,
        "{threads} threads alive with {open} open jobs on one connection"
    );

    send(&mut writer, &RequestLine::Cancel { id: ids[0].clone() });
    writer.shutdown(Shutdown::Write).unwrap();
    while let Some(line) = recv() {
        match line {
            ResponseLine::Completed { .. } | ResponseLine::Cancelled { .. } => terminal += 1,
            other => panic!("unexpected line {other:?}"),
        }
    }
    assert_eq!(
        terminal, JOBS,
        "every job answered before the server closed"
    );
    server.shutdown();
}
