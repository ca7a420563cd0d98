//! The worker's `--reached` flag end to end, with real worker processes:
//! a worker given the supervisor's baseline reachability skips the
//! baseline runs yet greets with the plan hash of a worker that builds
//! the whole space itself, and a malformed value is an error exit, never
//! a panic or a `Hello`.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use lfi_campaign::{Campaign, StandardExecutor};
use lfi_supervisor::plan::encode_reached;
use lfi_supervisor::{SpaceSpec, WorkerMessage};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lfi_worker_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn worker(state_dir: &PathBuf, extra: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_campaign_worker"));
    command
        .args(["--preset", "table1", "--state-dir"])
        .arg(state_dir)
        .args(extra);
    command
}

/// Start a worker, read its first line as the `Hello`, and let it exit
/// (closing its stdin shuts it down). Returns the plan hash it announced.
fn hello_plan(state_dir: &PathBuf, extra: &[&str]) -> String {
    let mut child = worker(state_dir, extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn campaign_worker");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success());
    match WorkerMessage::from_json_line(first.trim()) {
        Ok(WorkerMessage::Hello { plan, .. }) => plan,
        other => panic!("expected a hello, got {other:?} from {first:?}"),
    }
}

#[test]
fn a_worker_given_the_supervisors_reachability_greets_with_the_same_plan() {
    // What the supervisor does: build the annotated space, encode it.
    let spec = SpaceSpec::table1();
    let executor = StandardExecutor::new(&spec.target_names());
    let space = spec.build(&executor);
    let reached = encode_reached(&space);
    assert_eq!(reached.len(), space.len());
    assert!(reached.contains('-'), "bft-lite points stay unannotated");
    assert!(reached.contains('1') && reached.contains('0'));
    let expected = format!(
        "{:016x}",
        Campaign::builder(space, &executor)
            .seed(7)
            .build()
            .campaign()
            .plan_hash()
    );

    let state_dir = scratch_dir("hello");
    let given = hello_plan(&state_dir, &["--reached", &reached]);
    let built = hello_plan(&state_dir, &[]);
    fs::remove_dir_all(&state_dir).ok();
    assert_eq!(given, built);
    assert_eq!(given, expected);
}

#[test]
fn a_worker_rejects_malformed_reachability_without_panicking() {
    let spec = SpaceSpec::table1();
    let points = spec
        .enumerate(&StandardExecutor::new(&spec.target_names()))
        .len();
    let state_dir = scratch_dir("malformed");
    for (reached, complaint) in [
        ("1".repeat(points - 1), format!("for a space of {points}")),
        (
            format!("{}x", "1".repeat(points - 1)),
            "unknown char 'x'".to_string(),
        ),
    ] {
        let output = worker(&state_dir, &["--reached", &reached])
            .stdin(Stdio::null())
            .output()
            .expect("run campaign_worker");
        let stderr = String::from_utf8_lossy(&output.stderr);
        // Exit code 1 is the worker's error exit; a panic exits with 101.
        assert_eq!(output.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(&complaint), "{stderr}");
        assert!(output.stdout.is_empty(), "no hello after an error");
    }
    fs::remove_dir_all(&state_dir).ok();
}
