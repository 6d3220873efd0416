//! # fecim-serve
//!
//! The next-generation execution API of the fecim workspace: a
//! [`Scheduler`] that queues many [`SolveRequest`](fecim::SolveRequest)s,
//! runs them on a worker pool at trial granularity, and keeps shared
//! [`BatchedTiledCrossbar`](fecim_crossbar::BatchedTiledCrossbar) grids
//! saturated by admitting queued jobs into freed stripe slots as
//! replicas finish — the software half of the paper's array-parallelism
//! co-design, applied to heterogeneous traffic.
//!
//! Where [`Session::run`](fecim::Session::run) is a blocking one-shot
//! call, [`Scheduler::submit`] returns a [`JobHandle`] immediately:
//!
//! * [`JobHandle::status`] / [`JobHandle::progress`] — lifecycle and
//!   trials-completed / best-energy-so-far observation;
//! * [`JobHandle::cancel`] — stop between trials, keeping what finished;
//! * [`JobHandle::wait`] — block for the final
//!   [`SolveResponse`](fecim::SolveResponse).
//!
//! ## Determinism
//!
//! Trials derive all randomness from `base_seed + trial`, so with any
//! fixed worker count, scheduled Ideal-fidelity results are
//! **bit-identical** to `Session::run` of the same requests — queueing,
//! priorities and live-grid placement change *when and where* a trial
//! runs, never *what it computes*. (The one scheduler-visible
//! difference: responses report live-grid placement through
//! [`Scheduler::grid_stats`] instead of per-chunk
//! [`BatchGridSummary`](fecim::BatchGridSummary)s, whose chunk shapes
//! are a `Session`-only concept.) In
//! [`Fidelity::DeviceAccurate`](fecim_crossbar::Fidelity) mode,
//! variation seeds follow grid slots, so placement *does* matter — as
//! it would on real silicon.
//!
//! ## Campaigns
//!
//! [`run_campaign`] layers multi-round orchestration on top of the
//! queue: warm-started whole-problem refinement, or qbsolv-style
//! windowed decomposition ([`CampaignSpec::with_decompose`]) that
//! solves beyond-grid-capacity QUBOs as concurrent clamped sub-problems
//! stitched between rounds — deterministic at any worker count.
//!
//! ## Transports
//!
//! The `fecim-serve` binary speaks the [`jsonl`] protocol over two
//! byte streams with identical semantics:
//!
//! * **Batch** — `fecim-serve serve --stdin-jsonl`: the whole stream is
//!   staged on a paused scheduler, responses come back in submission
//!   order ([`run_jsonl`]).
//! * **Streaming TCP** — `fecim-serve serve --listen ADDR`: a
//!   [`TcpServer`] with a reader and a writer thread per connection
//!   executes jobs as they arrive
//!   and emits responses as jobs finish (tagged by id, not submission
//!   order), answers `Status`/`Progress` queries live, and pushes back
//!   with `Rejected` lines once `open_jobs` reaches a configurable hard
//!   limit.
//!
//! ## Durability
//!
//! [`SchedulerConfig::with_journal`] appends every job transition to a
//! JSONL journal; [`Scheduler::recover`] replays a crashed run's
//! unfinished jobs bit-identically (see [`journal`]). Deadlines are
//! *enforced* at trial granularity: a job whose `deadline_ms` elapses
//! finalizes as [`JobStatus::DeadlineExceeded`] with partial results.

// `missing_docs` (and `deny(unsafe_code)`) come from `[workspace.lints]`.
#![warn(missing_debug_implementations)]

pub mod campaign;
mod grid;
mod job;
pub mod journal;
pub mod jsonl;
mod line;
mod scheduler;
pub mod tcp;

pub use campaign::{
    run_campaign, CampaignError, CampaignOutcome, CampaignSpec, DecomposePlan, RoundReport,
    ScheduleVariant,
};
pub use grid::LiveGridStats;
pub use job::{JobHandle, JobProgress, JobStatus, SchedulerError, SubmitOptions};
pub use journal::{compact_records, read_journal, JournalError, JournalRecord, RecoveredJob};
pub use jsonl::{
    check_responses, check_responses_against, run_jsonl, terminal_line, JsonlError, JsonlSummary,
    RequestLine, ResponseLine,
};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use tcp::{drive, TcpServer, TcpServerConfig};
