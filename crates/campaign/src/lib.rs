//! Fault-injection campaigns: parallel exploration of a target's fault
//! space with pluggable, feedback-driven search strategies.
//!
//! The paper's workflow — profile the library, analyze call sites, generate
//! scenarios, run, triage — is a *loop over a fault space*: hundreds of
//! `(call site, library function, error case)` points per target. This
//! crate turns that loop into a subsystem:
//!
//! * [`space`] — enumerate the fault space from a [`FaultProfile`] and the
//!   target binary, and annotate it with analyzer classifications and
//!   baseline reachability;
//! * [`strategy`] — schedule what to explore, batch by batch:
//!   [`Exhaustive`], seed-deterministic [`RandomSample`], and
//!   [`InjectionGuided`] (prune unreached call sites, explore
//!   analyzer-flagged unchecked sites first — the paper's accuracy insight
//!   as a search policy);
//! * [`adaptive`] — [`CoverageAdaptive`], the guided ordering made
//!   reactive: between batches it escalates fault points near observed
//!   crash signatures and deprioritizes points whose caller neighborhood
//!   keeps passing;
//! * [`history`] — the [`CampaignHistory`] feedback channel strategies read
//!   between batches;
//! * [`engine`] — expand each batch into work units with **canonical ids**
//!   (stable positions in the space × workload expansion) and drain them on
//!   a parallel worker pool, under one of two [`ExecBackend`]s: a fresh VM
//!   per unit, or **snapshot-fork**, the default — the workload prefix up
//!   to the first injectable library call runs once per `(target,
//!   workload)` pair and every unit forks that one root snapshot, with
//!   identical results either way;
//! * [`mod@triage`] — deduplicate failures into crash signatures, so the report
//!   lists bugs, not runs;
//! * [`state`] — persist completed units as JSON and resume interrupted
//!   campaigns; state is tagged `fingerprint@plan-hash%start..end`, so
//!   re-annotating, re-profiling, editing a workload suite, or changing
//!   the run's point range invalidates a checkpoint instead of
//!   misapplying it;
//! * [`builder`] — the setters of a [`Campaign`], one run: strategy,
//!   backend, jobs, seed, lease, event sink, and per-batch checkpointing
//!   in one chain;
//! * [`lease`] — the one partition type: a [`Lease`] confines a run to a
//!   contiguous fault-point range (the whole space by default; `--shard
//!   i/n` is [`Lease::shard`]), its range is part of the checkpoint tag,
//!   and [`CampaignReport::merge_leases`] recombines [`LeaseOutcome`]s
//!   that tile the space into a report record- and triage-identical to
//!   the single-lease run;
//! * [`control`] — the supervisor control plane: typed
//!   [`ControlMessage`]s granting leases, with the same total JSONL wire
//!   codec as events;
//! * [`events`] — typed [`CampaignEvent`]s streamed through an
//!   [`EventSink`] while the campaign runs, for progress bars, bench
//!   harnesses, and cross-machine supervisors; every event has a total
//!   JSON wire format, and [`JsonlSink`] streams it line-by-line to disk
//!   for out-of-process tails (the `campaign_status` bin);
//! * [`standard`] — a ready-made [`Executor`] for the stock `*-lite`
//!   evaluation targets; each of its snapshot sessions is one root
//!   snapshot paused at the workload's first injectable call.
//!
//! ```
//! use lfi_campaign::{Campaign, CoverageAdaptive, StandardExecutor};
//! use lfi_targets::standard_controller;
//!
//! let executor = StandardExecutor::new(&["git-lite"]);
//! let profile = standard_controller().profile_libraries();
//! let mut space = executor.fault_space(&["git-lite"], &profile);
//! space.retain(|p| p.function == "opendir");
//! executor.annotate_baseline_reachability(&mut space, 7);
//!
//! let campaign = Campaign::builder(space, &executor)
//!     .strategy(CoverageAdaptive::default())
//!     .jobs(2)
//!     .build();
//! let outcome = campaign.run_to_completion();
//! assert!(outcome.report.triage.distinct_crashes() > 0); // the git-readdir-null bug
//! ```

pub mod adaptive;
pub mod builder;
pub mod control;
pub mod engine;
pub mod events;
pub mod history;
pub mod lease;
pub mod space;
pub mod standard;
pub mod state;
pub mod strategy;
pub mod triage;

pub use adaptive::CoverageAdaptive;
pub use control::ControlMessage;
pub use engine::{
    derive_seed, Campaign, CrashInfo, ExecBackend, Execution, Executor, InjectedSite, OutcomeKind,
    ParseBackendError, PrefetchKey, RunRecord, Session, WorkUnit, DEFAULT_HEARTBEAT_INTERVAL,
};
pub use events::{CampaignEvent, EventLog, EventSink, JsonlSink};
pub use history::CampaignHistory;
pub use lease::{parse_shard, Lease, LeaseError, LeaseMergeError, LeaseOutcome};
pub use space::{FaultPoint, FaultSpace, PointAnnotations, PruneStats};
pub use standard::{default_test_suite, run_target, StandardExecutor, STOCK_TARGETS};
pub use state::CampaignState;
pub use strategy::{Exhaustive, InjectionGuided, RandomSample, Strategy};
pub use triage::{triage, CampaignReport, CrashSignature, SignatureBucket, Triage};

// Re-exported so downstream code can name profile types without an extra
// dependency edge.
pub use lfi_profiler::FaultProfile;
pub use lfi_telemetry::{MetricsSnapshot, Telemetry};
