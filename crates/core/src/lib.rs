//! LFI core: high-precision library-level fault injection.
//!
//! This crate is the reproduction of the paper's primary contribution — the
//! extended LFI tool chain:
//!
//! * [`triggers`] — the pluggable [`Trigger`] interface,
//!   the registry used to instantiate trigger classes by name, the six stock
//!   trigger families of §3.2 (call stack, program state, call count,
//!   singleton, random, distributed) and several argument-inspecting helpers.
//! * [`scenario`] — the XML fault-injection language of §4: trigger
//!   declarations, function associations (conjunction within an association,
//!   disjunction across associations), parametrization, and automatic
//!   scenario generation from call-site analysis reports.
//! * [`runtime`] — the injection engine that interposes on library calls,
//!   evaluates trigger compositions with short-circuiting and lazy
//!   initialization, injects error return values and errno side effects, and
//!   keeps a structured injection log.
//! * [`controller`] — test orchestration: library profiling, call-site
//!   analysis, scenario generation, workload execution, crash monitoring and
//!   reporting.
//! * [`xml`] — the small XML parser backing the scenario language.
//!
//! The substrate (ISA, object format, VM, compiler, simulated libc) lives in
//! the sibling crates; `lfi-core` only depends on their public interfaces,
//! mirroring how the original LFI sits on top of the dynamic linker and the
//! target binaries without modifying either.

pub mod controller;
pub mod runtime;
pub mod scenario;
pub mod triggers;
pub mod xml;

pub use controller::{
    Controller, ControllerError, RunToCompletion, SessionPrep, TestConfig, TestOutcome, TestReport,
    Workload,
};
pub use runtime::{InjectionEngine, InjectionLog, InjectionRecord, PauseAtCall};
pub use scenario::{FrameSpec, FunctionAssoc, Scenario, ScenarioError, TriggerDecl};
pub use triggers::{
    ArgTrigger, CallCountTrigger, CallStackTrigger, CallerFunctionTrigger, DistributedController,
    DistributedPolicy, DistributedTrigger, FdKindTrigger, ProgramStateTrigger, ProximityTrigger,
    RandomTrigger, SingletonTrigger, Trigger, TriggerBuildError, TriggerCtx, TriggerRegistry,
    WithMutexTrigger,
};
pub use xml::{parse_xml, parse_xml_fragments, XmlError, XmlNode};
