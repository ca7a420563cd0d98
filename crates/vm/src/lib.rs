//! Execution substrate for the LFI reproduction.
//!
//! This crate is the analogue of "a Linux process" in the paper: it loads
//! executables and shared libraries produced by `lfi-cc`/`lfi-asm`, resolves
//! imported symbols with a preload-aware search order (the LD_PRELOAD
//! mechanism LFI uses for interposition), executes the program on a small
//! register machine with green threads, TLS (`errno`), mutexes, an in-memory
//! filesystem and a datagram network, and reports crashes, aborts and
//! coverage back to the test controller.
//!
//! The LFI runtime (in `lfi-core`) plugs into the VM through the
//! [`HookHandler`] trait: any imported function can be intercepted at symbol
//! resolution time, exactly like a shim library interposed with LD_PRELOAD.

#![forbid(unsafe_code)]

pub mod coverage;
pub mod fs;
pub mod loader;
pub mod machine;
pub mod mem;
pub mod net;
mod op;
mod sys;

pub use coverage::Coverage;
pub use fs::{FsError, SimFs};
pub use loader::{Image, LoadError, LoadedModule, Loader, Resolution};
pub use machine::{
    CallContext, ExecStats, Fault, FaultKind, Frame, HookAction, HookHandler, Machine,
    MachineSnapshot, NoHooks, ProcessConfig, RunExit,
};
pub use mem::{MemError, Memory, PAGE_SIZE};
pub use net::{Datagram, NetHandle, SimNet};
