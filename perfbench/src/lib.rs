//! End-to-end and per-layer benchmark of the LFI campaign stack.
//!
//! [`workloads`] holds the four workloads and their output checks,
//! [`trace`] the timing decorator and event recorder the traced run
//! measures through, and [`layers`] the traced run itself. The binary in
//! `main.rs` runs one workload and prints its metrics as a table and as
//! one JSON line; see `README.md` beside this crate.

pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;
