//! Distributed campaign supervision: elastic workers, a live event
//! transport, and lease-grained load balancing.
//!
//! `lfi_campaign` can split a campaign into `--shard i/n` point ranges
//! run by separate processes, but those shards are static: one fixed
//! contiguous range each, no rebalancing, and a dead shard means a
//! manual re-run. This crate adds the missing control plane on top of
//! the campaign crate's [`Lease`](lfi_campaign::Lease)s and wire
//! formats:
//!
//! * [`plan`] — [`SpaceSpec`], the portable fault-space description
//!   supervisor and workers must agree on (plan-hash handshake). The
//!   supervisor builds the annotated space once, while its workers start,
//!   and ships its annotations to every worker, so that no worker
//!   analyzes the space or re-runs the no-fault suite;
//! * [`protocol`] — [`WorkerMessage`], the worker→supervisor half of
//!   the JSONL pipe protocol (the supervisor→worker half is
//!   [`ControlMessage`](lfi_campaign::ControlMessage), and campaign
//!   events ride the same pipe);
//! * [`worker`] — [`run_worker`], the lease-serving loop behind the
//!   `campaign_worker` bin;
//! * [`supervisor`] — [`run_supervised`], the scheduler behind the
//!   `campaign_supervisor` bin: an IO-free core (the private `leasing`
//!   module) owns the leases, the workers under ids that are never reused
//!   and the deadline of every worker that owes a line; a shell around it
//!   spawns, moves lines, kills and reaps, then merges the leases.
//!
//! The recovery guarantee, asserted end-to-end in this crate's tests:
//! SIGKILL a worker mid-lease and the merged report is byte-identical
//! to the unsharded run (for history-independent strategies), with
//! re-execution bounded by the units of the lease the dead worker held.

mod leasing;
pub mod plan;
pub mod protocol;
pub mod supervisor;
pub mod worker;

pub use plan::{parse_strategy, SpaceSpec, TABLE1_BFT_FUNCTIONS, TABLE1_TARGETS};
pub use protocol::WorkerMessage;
pub use supervisor::{run_supervised, sibling_worker_bin, SupervisedOutcome, SupervisorOptions};
pub use worker::{run_worker, WorkerConfig};
