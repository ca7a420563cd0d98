//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (§7). Each `table*`/`figure*` function runs the corresponding
//! experiment end to end and returns a result structure whose `Display`
//! implementation prints the same rows the paper reports, alongside the
//! paper's own numbers for comparison. The binaries in `src/bin/` are thin
//! wrappers; `run_all` regenerates everything in one go (and is what
//! `EXPERIMENTS.md` is produced from).

pub mod campaign;
pub mod experiments;
pub mod support;

pub use campaign::{
    match_known_bugs, table1_campaign, table1_fault_space, table1_merge, HuntOptions,
    Table1Campaign,
};
pub use experiments::{
    analyzer_efficiency, dos_study, figure3_pbft_slowdown, random_injection_sweep, table1_bugs,
    table2_precision, table3_coverage, table4_accuracy, table5_apache_overhead,
    table6_mysql_overhead,
};
