//! The streaming TCP transport: the [`jsonl`] protocol
//! over a real wire (`fecim-serve serve --listen ADDR`).
//!
//! Each connection has two OS threads. The *reader* parses
//! [`RequestLine`]s as they arrive and executes them against a
//! scheduler shared by every connection. The *writer* owns the socket's
//! write side and drains a channel of [`ResponseLine`]s: it blocks for
//! the next line, serializes every line already queued behind it, and
//! sends the whole batch, newline-terminated, with one `write_all`.
//! Accepted sockets set `TCP_NODELAY`, so a batch leaves at once instead
//! of waiting in Nagle's buffer for the client's next packet. Terminal
//! lines are queued by a completion hook the scheduler fires when the
//! job finalizes, so no thread waits per job. Unlike the staged stdin
//! transport, execution is *live*:
//!
//! * terminal [`ResponseLine`]s are emitted **as jobs finish**, tagged
//!   by id, not in submission order;
//! * `Status`/`Progress` queries are answered immediately with the
//!   job's current state;
//! * a `Cancel` races the worker pool — trials that finished before it
//!   lands are kept in the `Cancelled` line's partial response;
//! * admission control pushes back: once the scheduler's open-job count
//!   reaches the configured limit, further submissions get a `Rejected`
//!   line and never enter the queue (the check is serialized across
//!   connections, so the limit is hard);
//! * submission ids are unique server-wide — a `Submit` reusing an id
//!   from ANY connection (ids key the journal) fails deterministically;
//! * a `Campaign` line runs its multi-round spec on a dedicated thread,
//!   concurrently with everything else on the shared scheduler, and
//!   answers with one `Campaign` (or `Failed`) line when the last round
//!   settles. Admission control applies to the campaign line itself at
//!   arrival; its per-round sub-jobs then enter the queue directly
//!   (each round keeps at most one window-set in flight).
//!
//! * a request line longer than [`MAX_LINE_BYTES`], or one that is not
//!   UTF-8, is answered with a `Failed` line for its synthesized
//!   `line-N` id; the reader skips to the next newline and the
//!   connection keeps serving.
//!
//! A connection's jobs keep running after the client stops sending;
//! the server half-closes only after every job and campaign submitted
//! on that connection has been answered: the writer exits once the
//! reader (at end of input), every job's completion hook and every
//! campaign thread have dropped their ends of the channel. A failed
//! write means the peer is gone: the writer stops, later lines are
//! dropped, and the jobs keep running. Combined with a journal
//! ([`SchedulerConfig::with_journal`]), a crashed server replays
//! unfinished jobs on restart — deterministic seeds make the replayed
//! responses bit-identical, they just can no longer be delivered to the
//! original (dead) connection.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::campaign;
use crate::job::FinalizeHook;
use crate::jsonl::{self, JsonlSummary, RequestLine, ResponseLine};
use crate::line::read_bounded_line;
pub use crate::line::MAX_LINE_BYTES;
use crate::scheduler::{lock, Scheduler, SchedulerConfig};
use crate::JobHandle;

/// Configuration of a [`TcpServer`].
#[derive(Debug, Clone, Default)]
pub struct TcpServerConfig {
    /// The scheduler every connection shares (journal included).
    pub scheduler: SchedulerConfig,
    /// Admission-control limit: submissions arriving while
    /// `Scheduler::open_jobs()` is at or above this are answered with a
    /// `Rejected` line instead of entering the queue. The check and the
    /// submit are serialized across connections, so this is a hard
    /// limit, not a high-water mark. `None` = accept everything.
    pub max_open_jobs: Option<usize>,
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    scheduler: Scheduler,
    max_open_jobs: Option<usize>,
    /// Connection threads, joined at shutdown.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// One clone per live connection socket, keyed by connection id;
    /// shutdown half-closes their read sides so a reader blocked on an
    /// idle client unblocks. Each handler removes its own entry on exit
    /// — a lingering clone would hold the fd open (the peer would never
    /// see EOF) and leak one fd per connection. Ordered map so shutdown
    /// half-closes in connection-id order, not hash order.
    socks: Mutex<BTreeMap<u64, TcpStream>>,
    /// Every id ever submitted on ANY connection. Ids key the journal
    /// (and the `recover` subcommand's output lines), so uniqueness is
    /// server-wide, not per-connection; the same lock also serializes
    /// the admission check against the submit, making `max_open_jobs` a
    /// hard limit rather than a per-connection high-water mark.
    submitted: Mutex<HashSet<String>>,
}

/// A running TCP front-end: an accept loop plus a reader and a writer
/// thread per connection, all sharing one [`Scheduler`].
///
/// ```no_run
/// use fecim_serve::{TcpServer, TcpServerConfig};
///
/// let server = TcpServer::bind("127.0.0.1:0", TcpServerConfig::default())?;
/// println!("listening on {}", server.local_addr());
/// // ... connect clients, speak the JSONL protocol ...
/// server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    recovered: usize,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .field("recovered", &self.recovered)
            .finish()
    }
}

impl TcpServer {
    /// Bind `addr` and start accepting connections.
    ///
    /// If the scheduler config names a journal that already exists, the
    /// crashed run's unfinished jobs are recovered *before* the first
    /// connection is accepted (staged on a paused scheduler so replayed
    /// cancellations settle deterministically); their responses are
    /// recomputed bit-identically and journaled, but — the original
    /// connections being gone — not delivered anywhere.
    ///
    /// # Errors
    ///
    /// Binding/listening errors, journal-open errors, and a corrupt
    /// journal (as [`std::io::ErrorKind::InvalidData`]).
    pub fn bind(addr: impl ToSocketAddrs, config: TcpServerConfig) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let recover_from = config
            .scheduler
            .journal
            .clone()
            .filter(|path| path.exists());
        let mut scheduler_config = config.scheduler;
        let resume_after_recover = !scheduler_config.paused && recover_from.is_some();
        if recover_from.is_some() {
            scheduler_config.paused = true;
        }
        let scheduler = Scheduler::try_with_config(scheduler_config)?;
        let recovered = match recover_from {
            Some(path) => scheduler
                .recover(&path)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
                .len(),
            None => 0,
        };
        if resume_after_recover {
            scheduler.resume();
        }
        let shared = Arc::new(Shared {
            scheduler,
            max_open_jobs: config.max_open_jobs,
            conns: Mutex::new(Vec::new()),
            socks: Mutex::new(BTreeMap::new()),
            submitted: Mutex::new(HashSet::new()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fecim-serve-accept".into())
                .spawn(move || accept_loop(listener, shared, stop))?
        };
        Ok(TcpServer {
            addr: local,
            stop,
            accept: Some(accept),
            shared,
            recovered,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs replayed from the journal at startup.
    pub fn recovered_jobs(&self) -> usize {
        self.recovered
    }

    /// Open jobs on the shared scheduler right now.
    pub fn open_jobs(&self) -> usize {
        self.shared.scheduler.open_jobs()
    }

    /// Stop accepting, half-close every connection's read side, wait
    /// for the jobs already submitted to finish and their responses to
    /// be delivered, then drain the scheduler. Request lines still in
    /// flight on the wire when shutdown begins may go unanswered — but
    /// an idle client that keeps its connection open can never stall
    /// shutdown.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop has exited, so the socket list is final.
        // Half-close each read side: readers blocked on clients that
        // never half-closed see EOF and wait for their writers, which
        // still deliver every in-flight job's response over the
        // (untouched) write sides.
        for sock in lock(&self.shared.socks).values() {
            let _ = sock.shutdown(Shutdown::Read);
        }
        loop {
            // Connection threads may still be registering; drain until
            // the list stays empty.
            let conns: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.shared.conns));
            if conns.is_empty() {
                break;
            }
            for conn in conns {
                let _ = conn.join();
            }
        }
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.scheduler.join(),
            Err(_) => unreachable!("all server threads joined before teardown"),
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        next_conn += 1;
        let conn_id = next_conn;
        // Registered before the handler spawns, so shutdown (which runs
        // only after this loop exits) always sees every live socket.
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.socks).insert(conn_id, clone);
        }
        let shared_for_conn = Arc::clone(&shared);
        let conn = std::thread::Builder::new()
            .name("fecim-serve-conn".into())
            .spawn(move || handle_connection(stream, &shared_for_conn, conn_id))
            // audit:allow(panic-path): thread spawn fails only on OS resource exhaustion; the accept loop has no error channel to the peer, and limping on with a silently dropped connection is worse than aborting
            .expect("spawn connection thread");
        lock(&shared.conns).push(conn);
    }
}

/// The connection's writer, which owns the socket's write side: block
/// for the next line, serialize it and every line already queued behind
/// it, and send the batch with one `write_all`. Returns once every
/// sender is gone, or when a write fails: the peer is gone, which is not
/// the server's problem — jobs keep running (and, with a journal, stay
/// replayable), and dropping `lines` makes later sends fail quietly.
fn write_batches<W: Write>(mut out: W, lines: Receiver<ResponseLine>) {
    let mut batch = Vec::new();
    while let Ok(first) = lines.recv() {
        batch.clear();
        for line in std::iter::once(first).chain(lines.try_iter()) {
            // audit:allow(panic-path): ResponseLine is plain structs/enums with string keys throughout, so serialization is infallible by construction
            let json = serde_json::to_string(&line).expect("response lines serialize");
            batch.extend_from_slice(json.as_bytes());
            batch.push(b'\n');
        }
        if out.write_all(&batch).and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

/// Server-wide duplicate and admission check of a `Submit` or
/// `Campaign` line. A duplicate id on a DIFFERENT connection is as much
/// a duplicate as one on this connection (ids key the journal). A
/// refused line is answered through `tx` and yields `None`; otherwise
/// the `submitted` guard comes back, and the caller submits and records
/// the id before releasing it, which makes `max_open_jobs` a hard limit
/// — N racing connections cannot each pass the check and overshoot.
fn admit<'a>(
    shared: &'a Shared,
    id: &str,
    tx: &Sender<ResponseLine>,
) -> Option<MutexGuard<'a, HashSet<String>>> {
    let submitted = lock(&shared.submitted);
    let refusal = if submitted.contains(id) {
        ResponseLine::Failed {
            error: format!("duplicate submission id `{id}`"),
            id: id.to_string(),
        }
    } else {
        let Some(limit) = shared.max_open_jobs else {
            return Some(submitted);
        };
        let open_jobs = shared.scheduler.open_jobs();
        if open_jobs < limit {
            return Some(submitted);
        }
        // Backpressure: the id never enters the queue (or the
        // registries — the client may retry it).
        ResponseLine::Rejected {
            id: id.to_string(),
            open_jobs,
            limit,
        }
    };
    drop(submitted);
    let _ = tx.send(refusal);
    None
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, conn_id: u64) {
    serve_connection(stream, shared);
    // Drop the shutdown registry's clone as well, so the last fd closes
    // here and the peer sees EOF now, not at server shutdown.
    lock(&shared.socks).remove(&conn_id);
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Every batch is one write; without this, Nagle would hold it until
    // the client's next packet ACKs the previous one.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<ResponseLine>();
    let Ok(writer) = std::thread::Builder::new()
        .name("fecim-serve-writer".into())
        .spawn(move || write_batches(stream, rx))
    else {
        return;
    };
    // A send fails only once the writer has stopped on a dead peer.
    let send = |line: ResponseLine| {
        let _ = tx.send(line);
    };
    // Handles for ids this connection submitted, kept for the
    // connection's lifetime so queries keep working after a job
    // finishes. Duplicate detection is server-wide (`Shared::submitted`);
    // `Cancel`/`Status`/`Progress` remain scoped to the submitting
    // connection, which is the only place the handle lives.
    let mut registry: HashMap<String, JobHandle> = HashMap::new();
    let mut campaigns: Vec<JoinHandle<()>> = Vec::new();
    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    let mut line_no = 0usize;
    while let Ok(Some(fits)) = read_bounded_line(&mut reader, &mut buf, MAX_LINE_BYTES) {
        line_no += 1;
        // Streaming cannot abort the whole stream on one bad line
        // (peers' jobs are already running): synthesize an id and keep
        // serving.
        let fail = |error: String| {
            send(ResponseLine::Failed {
                id: format!("line-{line_no}"),
                error,
            });
        };
        if !fits {
            fail(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
            continue;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            fail("request line is not valid UTF-8".into());
            continue;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let parsed: RequestLine = match serde_json::from_str(trimmed) {
            Ok(parsed) => parsed,
            Err(e) => {
                fail(format!("unparsable request line: {e}"));
                continue;
            }
        };
        match parsed {
            RequestLine::Submit {
                id,
                request,
                options,
            } => {
                let Some(mut submitted) = admit(shared, &id, &tx) else {
                    continue;
                };
                // The terminal line is queued the moment the job
                // settles — completion order, not submission order.
                let tx = tx.clone();
                let line_id = id.clone();
                let on_finalize: FinalizeHook = Box::new(move |outcome| {
                    let mut tally = JsonlSummary::default();
                    let _ = tx.send(jsonl::terminal_line(line_id, outcome.clone(), &mut tally));
                });
                let handle =
                    shared
                        .scheduler
                        .submit_hooked(Some(&id), request, options, Some(on_finalize));
                submitted.insert(id.clone());
                drop(submitted);
                registry.insert(id, handle);
            }
            // The id is burned even though campaigns have no handle
            // (they cannot be cancelled or queried).
            RequestLine::Campaign { id, spec, options } => {
                let Some(mut submitted) = admit(shared, &id, &tx) else {
                    continue;
                };
                submitted.insert(id.clone());
                drop(submitted);
                let tx = tx.clone();
                let shared = Arc::clone(shared);
                campaigns.push(
                    std::thread::Builder::new()
                        .name("fecim-serve-campaign".into())
                        .spawn(move || {
                            let response =
                                match campaign::run_campaign(&shared.scheduler, &spec, &options) {
                                    Ok(outcome) => ResponseLine::Campaign { id, outcome },
                                    Err(e) => ResponseLine::Failed {
                                        id,
                                        error: e.to_string(),
                                    },
                                };
                            let _ = tx.send(response);
                        })
                        // audit:allow(panic-path): thread spawn fails only on OS resource exhaustion; the id is already burned in `submitted`, so limping on would silently swallow the campaign's response
                        .expect("spawn campaign thread"),
                );
            }
            RequestLine::Cancel { id } => match registry.get(&id) {
                // The job's terminal line (Cancelled, or Completed if
                // the cancel lost the race) is the response.
                Some(handle) => {
                    handle.cancel();
                }
                None => send(ResponseLine::Failed {
                    error: format!("cancel for unknown id `{id}`"),
                    id,
                }),
            },
            RequestLine::Status { id } => send(match registry.get(&id) {
                Some(handle) => ResponseLine::Status {
                    id,
                    status: handle.status(),
                },
                None => ResponseLine::Failed {
                    error: format!("status for unknown id `{id}`"),
                    id,
                },
            }),
            RequestLine::Progress { id } => send(match registry.get(&id) {
                Some(handle) => ResponseLine::Progress {
                    id,
                    progress: handle.progress(),
                },
                None => ResponseLine::Failed {
                    error: format!("progress for unknown id `{id}`"),
                    id,
                },
            }),
        }
    }
    // Client closed its write side (or the connection died). The writer
    // delivers what is still in flight and exits once the last sender —
    // ours, a pending job's hook or a campaign thread's — is gone; the
    // socket closes with it.
    drop(tx);
    let _ = writer.join();
    for campaign in campaigns {
        let _ = campaign.join();
    }
}

/// Drive a server as a client: send every request line of `input`,
/// half-close the write side, and copy response lines to `output` until
/// the server closes the connection (which it does once every job
/// submitted on it has been answered). Returns the number of response
/// lines received.
///
/// # Errors
///
/// Connection and i/o errors; response *content* is not validated
/// (pipe the output through [`check_responses_against`] for that).
///
/// [`check_responses_against`]: crate::check_responses_against
pub fn drive(
    addr: impl ToSocketAddrs,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<usize> {
    let requests: Vec<String> = input.lines().collect::<Result<_, _>>()?;
    let stream = TcpStream::connect(addr)?;
    let mut write_half = BufWriter::new(stream.try_clone()?);
    // Writer thread + reader loop, so a server streaming large
    // responses early can never deadlock against an unread send buffer.
    let sender = std::thread::spawn(move || -> std::io::Result<()> {
        for request in requests {
            writeln!(write_half, "{request}")?;
        }
        write_half.flush()?;
        write_half.get_ref().shutdown(Shutdown::Write)
    });
    let mut received = 0usize;
    for line in BufReader::new(stream).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(output, "{line}")?;
        received += 1;
    }
    sender
        .join()
        .map_err(|_| std::io::Error::other("request sender thread panicked"))??;
    Ok(received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobStatus;

    /// Records the bytes of every `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.writes.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn lines_queued_before_the_writer_runs_leave_in_one_write() {
        let lines: Vec<ResponseLine> = ["a", "b", "c"]
            .into_iter()
            .map(|id| ResponseLine::Status {
                id: id.into(),
                status: JobStatus::Queued,
            })
            .collect();
        let (tx, rx) = mpsc::channel();
        for line in &lines {
            tx.send(line.clone()).unwrap();
        }
        drop(tx);
        let mut out = CountingWriter::default();
        write_batches(&mut out, rx);
        let expected: String = lines
            .iter()
            .map(|line| serde_json::to_string(line).unwrap() + "\n")
            .collect();
        assert_eq!(out.writes.len(), 1, "one write for the whole batch");
        assert_eq!(String::from_utf8(out.writes[0].clone()).unwrap(), expected);
    }
}
