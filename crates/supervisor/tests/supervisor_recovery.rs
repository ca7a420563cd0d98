//! The supervised-campaign fault-tolerance differential, end to end
//! with real worker processes: SIGKILL a worker mid-lease and the
//! merged report must still be **byte-identical** to the unsharded
//! in-process run — no lost units, no duplicate records, and
//! re-execution bounded by the lease the dead worker held.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use lfi_campaign::{Campaign, Exhaustive, StandardExecutor};
use lfi_supervisor::supervisor::{run_supervised, SupervisedOutcome, SupervisorOptions};
use lfi_supervisor::SpaceSpec;

/// The Table 1 git-lite slice (same space as the campaign crate's shard
/// differential): opendir (readdir-null crash), setenv (silent data
/// loss), readlink (checked site).
fn git_spec() -> SpaceSpec {
    SpaceSpec {
        targets: vec!["git-lite".to_string()],
        retain: vec![(
            "git-lite".to_string(),
            vec![
                "opendir".to_string(),
                "setenv".to_string(),
                "readlink".to_string(),
            ],
        )],
        baseline_seed: 7,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lfi_supervisor_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_killed_worker_does_not_change_the_merged_report() {
    // The ground truth: the same spec, unsharded, in-process.
    let spec = git_spec();
    let executor = StandardExecutor::new(&spec.target_names());
    let space = spec.build(&executor);
    assert!(!space.is_empty());
    let unsharded = Campaign::builder(space, &executor)
        .strategy(Exhaustive)
        .jobs(2)
        .seed(7)
        .build()
        .run_to_completion();
    assert!(
        unsharded.report.triage.distinct_crashes() > 0,
        "the git-lite slice must produce crashes for the broadcast path to exercise"
    );

    // The supervised run: two workers, small leases, and the chaos hook
    // SIGKILLs one busy worker after three units.
    let state_dir = scratch_dir("recovery");
    let mut options = SupervisorOptions::new(spec, &state_dir);
    options.workers = 2;
    options.jobs = 1;
    options.lease_points = 2;
    options.seed = 7;
    options.chaos_kill_after_units = Some(3);
    options.worker_bin = PathBuf::from(env!("CARGO_BIN_EXE_campaign_worker"));
    let outcome = run_supervised(&options).unwrap_or_else(|err| panic!("supervised run: {err}"));

    // The recovery happened: the chaos kill cost at least one restart
    // and expired the one lease the victim held. A worker holds at most
    // one lease, so each death reclaims at most one.
    assert!(
        outcome.worker_restarts >= 1,
        "the chaos hook must have killed (and the supervisor restarted) a worker"
    );
    assert!(outcome.leases_expired >= 1, "the dead worker held a lease");
    assert!(
        outcome.leases_expired <= outcome.worker_restarts,
        "{} leases expired over {} restarts: a worker held more than one lease",
        outcome.leases_expired,
        outcome.worker_restarts
    );
    assert!(
        outcome.killed_in_flight_units > 0,
        "the killed worker held a lease"
    );

    // The differential: records and triage byte-for-byte, nothing lost.
    assert_eq!(
        outcome.report.records, unsharded.report.records,
        "merged records differ from the unsharded run"
    );
    assert_eq!(
        outcome.report.triage, unsharded.report.triage,
        "merged triage differs from the unsharded run"
    );
    assert_eq!(
        outcome.report.records.len(),
        outcome.total_units,
        "exhaustive coverage lost units"
    );

    // Fault tolerance is not free re-execution: duplicated work is
    // bounded by the units of the lease the victim held.
    assert!(
        outcome.re_executed_units <= outcome.killed_in_flight_units,
        "re-executed {} units but dead workers held only {}",
        outcome.re_executed_units,
        outcome.killed_in_flight_units
    );

    // The live view agrees with the ground truth.
    assert_eq!(
        outcome.distinct_signatures,
        unsharded.report.triage.distinct_crashes(),
        "live first-seen signatures diverge from the merged triage"
    );

    let _ = fs::remove_dir_all(&state_dir);
}

#[test]
fn a_clean_supervised_run_matches_the_unsharded_report_too() {
    // No chaos: the plain distributed path (one lease per worker, the
    // next granted as each finishes) must also merge back exactly.
    let spec = git_spec();
    let executor = StandardExecutor::new(&spec.target_names());
    let space = spec.build(&executor);
    let unsharded = Campaign::builder(space, &executor)
        .strategy(Exhaustive)
        .jobs(2)
        .seed(7)
        .build()
        .run_to_completion();

    let state_dir = scratch_dir("clean");
    let mut options = SupervisorOptions::new(spec, &state_dir);
    options.workers = 2;
    options.jobs = 1;
    options.lease_points = 3;
    options.seed = 7;
    options.worker_bin = PathBuf::from(env!("CARGO_BIN_EXE_campaign_worker"));
    let outcome = run_supervised(&options).unwrap_or_else(|err| panic!("supervised run: {err}"));

    assert_eq!(outcome.report.records, unsharded.report.records);
    assert_eq!(outcome.report.triage, unsharded.report.triage);
    assert_eq!(outcome.worker_restarts, 0);
    // Without a death every range is granted exactly once.
    assert_eq!(
        outcome.leases_issued as usize,
        outcome.total_points.div_ceil(options.lease_points)
    );
    assert_eq!(outcome.leases_expired, 0);
    assert_eq!(
        outcome.re_executed_units, 0,
        "nothing died, nothing re-runs"
    );
    assert_eq!(outcome.killed_in_flight_units, 0);

    let _ = fs::remove_dir_all(&state_dir);
}

/// Run a supervised campaign on a helper thread, so a supervisor that
/// never grants the last lease fails the test instead of hanging it.
fn run_bounded(options: SupervisorOptions) -> Result<SupervisedOutcome, String> {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _ = tx.send(run_supervised(&options));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the supervised run stalled");
    runner.join().expect("supervisor thread");
    outcome
}

#[test]
fn an_idle_survivor_takes_the_lease_of_a_dead_sibling() {
    // One lease over the whole space, so the second worker sits idle
    // until the chaos kill hands the lease back. With no restart budget
    // only the survivor can finish it.
    let spec = git_spec();
    let executor = StandardExecutor::new(&spec.target_names());
    let space = spec.build(&executor);
    let points = space.len();
    let unsharded = Campaign::builder(space, &executor)
        .strategy(Exhaustive)
        .jobs(2)
        .seed(7)
        .build()
        .run_to_completion();

    let state_dir = scratch_dir("survivor");
    let mut options = SupervisorOptions::new(spec, &state_dir);
    options.workers = 2;
    options.jobs = 1;
    options.lease_points = points;
    options.seed = 7;
    options.max_restarts = 0;
    options.chaos_kill_after_units = Some(3);
    options.worker_bin = PathBuf::from(env!("CARGO_BIN_EXE_campaign_worker"));
    let outcome = run_bounded(options).unwrap_or_else(|err| panic!("supervised run: {err}"));

    assert_eq!(outcome.worker_restarts, 0);
    assert_eq!(outcome.leases_expired, 1, "the victim held the one lease");
    assert_eq!(outcome.report.records, unsharded.report.records);
    assert_eq!(outcome.report.triage, unsharded.report.triage);

    let _ = fs::remove_dir_all(&state_dir);
}

/// The child processes of the calling thread. Tests run on threads of
/// one process, and each thread sees only the children it spawned.
fn children_of_this_thread() -> String {
    fs::read_to_string("/proc/thread-self/children").expect("read /proc/thread-self/children")
}

#[test]
fn silent_lease_holders_are_declared_hung() {
    // What this covers: under a zero heartbeat timeout a worker owes its
    // `Hello` as soon as its annotations are sent, so the supervisor
    // declares each worker hung at once, in practice before it greets; with
    // no restart budget every worker dies, and the run fails only after
    // reaping them. A worker that dies before `Hello` is never granted a
    // lease, so the expiry of a silent lease holder is checked only by the
    // supervisor core's property test
    // (`random_interleavings_keep_every_invariant` in `leasing`).
    assert_eq!(children_of_this_thread().trim(), "");
    let state_dir = scratch_dir("hung");
    let mut options = SupervisorOptions::new(git_spec(), &state_dir);
    options.workers = 2;
    options.jobs = 1;
    options.seed = 7;
    options.heartbeat_timeout = Duration::ZERO;
    options.max_restarts = 0;
    options.worker_bin = PathBuf::from(env!("CARGO_BIN_EXE_campaign_worker"));
    let err = run_supervised(&options).expect_err("every lease holder hangs");

    assert!(
        err.contains("every worker is dead"),
        "unexpected error: {err}"
    );
    assert_eq!(
        children_of_this_thread().trim(),
        "",
        "a worker outlived the run"
    );

    let _ = fs::remove_dir_all(&state_dir);
}

#[test]
fn a_worker_that_never_says_hello_is_declared_hung() {
    // A worker that reads its stdin and never answers owes its `Hello`
    // from the moment its annotations are sent; without that deadline the
    // supervisor waited for it forever, whatever the heartbeat timeout.
    let dir = scratch_dir("silent");
    let script = dir.join("silent.sh");
    // A child shell writes the script: a file this process held open for
    // writing could be inherited by a sibling test's spawn and make the
    // exec fail with "text file busy".
    let written = Command::new("sh")
        .arg("-c")
        .arg("printf '#!/bin/sh\\nwhile read -r line; do :; done\\n' > \"$0\" && chmod 755 \"$0\"")
        .arg(&script)
        .status()
        .expect("run sh");
    assert!(written.success());
    let mut options = SupervisorOptions::new(git_spec(), dir.join("state"));
    options.workers = 1;
    options.max_restarts = 0;
    options.heartbeat_timeout = Duration::from_millis(200);
    options.worker_bin = script;

    // The run and the child check share one thread: each thread sees only
    // the children it spawned.
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        assert_eq!(children_of_this_thread().trim(), "");
        let result = run_supervised(&options).map(|_| ());
        let _ = tx.send((result, children_of_this_thread()));
    });
    let (result, children) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the supervisor waited forever for a silent worker");
    runner.join().expect("supervisor thread");
    let err = result.expect_err("the silent worker hangs");
    assert!(
        err.contains("every worker is dead"),
        "unexpected error: {err}"
    );
    assert_eq!(children.trim(), "", "a worker outlived the run");

    let _ = fs::remove_dir_all(&dir);
}
