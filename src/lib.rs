//! # LFI — library-level fault injection with high-precision triggers
//!
//! This is the facade crate of a from-scratch reproduction of
//! *"An Extensible Technique for High-Precision Testing of Recovery Code"*
//! (Marinescu, Banabic, Candea — USENIX ATC 2010). It re-exports the whole
//! tool chain:
//!
//! * [`core`](lfi_core) — triggers, the XML scenario language, the
//!   interposition/injection runtime and the test controller (the paper's
//!   contribution);
//! * [`profiler`](lfi_profiler) — library fault profiles (error returns and
//!   errno side effects inferred from binaries);
//! * [`analyzer`](lfi_analyzer) — call-site analysis (Algorithm 1) and
//!   recovery-block identification;
//! * [`campaign`](lfi_campaign) — parallel fault-space exploration: enumerate
//!   every (call site × error case) fault point, schedule it batch-by-batch
//!   with pluggable strategies (including the adaptive coverage-feedback
//!   scheduler) on a worker pool, triage crashes into signatures, resume
//!   interrupted sweeps from JSON state tagged with the full plan identity,
//!   split one campaign into point-range leases across processes/machines
//!   with byte-identical mergeable results, and stream typed progress
//!   events while it runs;
//! * [`supervisor`](lfi_supervisor) — the distributed control plane on top of
//!   the campaign layer: spawn elastic worker processes, lease them unit
//!   ranges, monitor heartbeats, migrate leases off dead or hung workers
//!   (restarting them from per-lease checkpoints), steal queued leases for
//!   idle workers, and broadcast first-seen crash signatures so every
//!   worker's adaptive strategy learns globally;
//! * the substrate: [`arch`](lfi_arch), [`obj`](lfi_obj), [`asm`](lfi_asm),
//!   [`cc`](lfi_cc), [`vm`](lfi_vm), [`libc`](lfi_libc);
//! * [`targets`](lfi_targets) — the BIND/MySQL/Git/PBFT/Apache analogues with
//!   the paper's seeded bugs and workloads;
//! * [`telemetry`](lfi_telemetry) — the lock-light metrics registry, span
//!   timing, and serializable [`MetricsSnapshot`](lfi_telemetry::MetricsSnapshot)s
//!   behind campaign observability.
//!
//! ## Quick start
//!
//! ```
//! use lfi::prelude::*;
//!
//! // The system under test: a program with an unchecked library call.
//! let exe = lfi::cc::Compiler::new("demo", lfi::obj::ModuleKind::Executable)
//!     .needs("libc")
//!     .add_source(
//!         "demo.c",
//!         r#"
//!         int main() {
//!             int p = malloc(64);
//!             *p = 42;              // no NULL check
//!             return 0;
//!         }
//!         "#,
//!     )
//!     .compile()
//!     .unwrap();
//!
//! // The LFI workflow: profile the library, find unchecked call sites,
//! // generate a scenario, and run the test.
//! let mut controller = Controller::new();
//! controller.add_library(lfi::libc::build());
//! let scenario = controller.generate_scenario(&exe, false);
//! let report = controller
//!     .run_test(&exe, &scenario, &mut RunToCompletion, &TestConfig::default())
//!     .unwrap();
//! assert!(report.outcome.is_crash());
//! ```

pub use lfi_analyzer as analyzer;
pub use lfi_arch as arch;
pub use lfi_asm as asm;
pub use lfi_campaign as campaign;
pub use lfi_cc as cc;
pub use lfi_core as core;
pub use lfi_libc as libc;
pub use lfi_obj as obj;
pub use lfi_profiler as profiler;
pub use lfi_supervisor as supervisor;
pub use lfi_targets as targets;
pub use lfi_telemetry as telemetry;
pub use lfi_vm as vm;

/// The most commonly used items, for `use lfi::prelude::*`.
pub mod prelude {
    pub use lfi_analyzer::{analyze_program, AnalysisConfig, CallSiteClass};
    // The `Strategy` trait itself stays at `lfi::campaign::Strategy`: its
    // name collides with `proptest::prelude::Strategy` under glob imports.
    pub use lfi_campaign::{
        Campaign, CampaignBuilder, CampaignDriver, CampaignEvent, CampaignHistory, CampaignState,
        CoverageAdaptive, EventLog, EventSink, ExecBackend, Exhaustive, FaultPoint, FaultSpace,
        InjectionGuided, Lease, LeaseOutcome, RandomSample, StandardExecutor,
    };
    pub use lfi_core::{
        Controller, FrameSpec, FunctionAssoc, InjectionEngine, RunToCompletion, Scenario,
        TestConfig, TestOutcome, Trigger, TriggerCtx, TriggerDecl, TriggerRegistry, Workload,
    };
    pub use lfi_profiler::{profile_library, FaultProfile};
    pub use lfi_supervisor::{
        run_supervised, SpaceSpec, SupervisedOutcome, SupervisorOptions, WorkerMessage,
    };
    pub use lfi_vm::{HookAction, Machine, MachineSnapshot, NetHandle, RunExit};
}
