//! Distributed campaign supervision: elastic workers, a live event
//! transport, and lease-grained work stealing.
//!
//! `lfi_campaign` can split a campaign into `--shard i/n` point ranges
//! run by separate processes, but those shards are static: one fixed
//! contiguous range each, no rebalancing, and a dead shard means a
//! manual re-run. This crate adds the missing control plane on top of
//! the campaign crate's [`Lease`](lfi_campaign::Lease)s and wire
//! formats:
//!
//! * [`plan`] — [`SpaceSpec`], the portable fault-space description
//!   supervisor and workers must agree on (plan-hash handshake);
//! * [`protocol`] — [`WorkerMessage`], the worker→supervisor half of
//!   the JSONL pipe protocol (the supervisor→worker half is
//!   [`ControlMessage`](lfi_campaign::ControlMessage), and campaign
//!   events ride the same pipe);
//! * [`worker`] — [`run_worker`], the lease-serving loop behind the
//!   `campaign_worker` bin;
//! * [`supervisor`] — [`run_supervised`], the scheduler behind the
//!   `campaign_supervisor` bin: unit-range leases, two-deep per-worker
//!   pipelines, work stealing via revocation, heartbeat-monitored
//!   workers with checkpoint-resuming restarts, first-seen crash
//!   signature broadcast, and the final lease merge.
//!
//! The recovery guarantee, asserted end-to-end in this crate's tests:
//! SIGKILL a worker mid-lease and the merged report is byte-identical
//! to the unsharded run (for history-independent strategies), with
//! re-execution bounded by the units of the leases that were in flight
//! on the dead worker.

pub mod plan;
pub mod protocol;
pub mod supervisor;
pub mod worker;

pub use plan::{parse_strategy, SpaceSpec, TABLE1_BFT_FUNCTIONS, TABLE1_TARGETS};
pub use protocol::WorkerMessage;
pub use supervisor::{run_supervised, sibling_worker_bin, SupervisedOutcome, SupervisorOptions};
pub use worker::{run_worker, WorkerConfig};
