//! The worker's start-up path end to end, with real worker processes: a
//! worker started with `--annotations-on-stdin` takes the supervisor's
//! annotations instead of analyzing the space and running the baseline,
//! yet greets with the plan hash of a worker that builds the whole space
//! itself; annotations that do not fit, or a stdin that closes before
//! they arrive, are an error exit, never a panic or a `Hello`; and a
//! supervisor whose space build fails reaps the workers it already
//! started.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use lfi_campaign::{Campaign, StandardExecutor};
use lfi_supervisor::{run_supervised, SpaceSpec, SupervisorOptions, WorkerMessage};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lfi_worker_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn worker(state_dir: &Path, extra: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_campaign_worker"));
    command
        .args(["--preset", "table1", "--state-dir"])
        .arg(state_dir)
        .args(extra);
    command
}

/// Start a worker, feed it `stdin_line` (if any), read its first line as
/// the `Hello`, and let it exit (closing its stdin shuts it down).
/// Returns the plan hash it announced.
fn hello_plan(state_dir: &Path, extra: &[&str], stdin_line: Option<&str>) -> String {
    let mut child = worker(state_dir, extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn campaign_worker");
    let mut stdin = child.stdin.take().unwrap();
    if let Some(line) = stdin_line {
        writeln!(stdin, "{line}").unwrap();
    }
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    drop(stdin);
    assert!(child.wait().unwrap().success());
    match WorkerMessage::from_json_line(first.trim()) {
        Ok(WorkerMessage::Hello { plan, .. }) => plan,
        other => panic!("expected a hello, got {other:?} from {first:?}"),
    }
}

/// Run a worker that waits for its annotations, feeding it `stdin_text`
/// and then EOF.
fn annotated_worker_output(state_dir: &Path, stdin_text: &str) -> Output {
    let mut child = worker(state_dir, &["--annotations-on-stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn campaign_worker");
    // The worker may exit before reading everything; a broken pipe here
    // is part of what is tested, not a test failure.
    let _ = child.stdin.take().unwrap().write_all(stdin_text.as_bytes());
    child.wait_with_output().expect("run campaign_worker")
}

/// An error exit before the handshake: code 1 (a panic exits with 101),
/// the complaint on stderr, nothing on stdout.
fn assert_error_exit_without_hello(output: &Output, complaint: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(complaint), "{complaint:?} not in {stderr}");
    assert!(output.stdout.is_empty(), "no hello after an error");
}

#[test]
fn a_worker_given_the_annotations_on_stdin_greets_with_the_same_plan() {
    // What the supervisor does: build the annotated space and its
    // annotations message.
    let spec = SpaceSpec::table1();
    let executor = StandardExecutor::new(&spec.target_names());
    let (space, annotations) = spec.build_with_annotations(&executor);
    let expected = format!(
        "{:016x}",
        Campaign::builder(space, &executor)
            .seed(7)
            .build()
            .plan_hash()
    );

    let state_dir = scratch_dir("hello");
    let given = hello_plan(
        &state_dir,
        &["--annotations-on-stdin"],
        Some(&annotations.to_json_line()),
    );
    let built = hello_plan(&state_dir, &[], None);
    fs::remove_dir_all(&state_dir).ok();
    assert_eq!(given, built);
    assert_eq!(given, expected);
}

#[test]
fn a_worker_rejects_malformed_annotations_without_panicking() {
    let spec = SpaceSpec::table1();
    let points = spec
        .enumerate_bare(&StandardExecutor::new(&spec.target_names()))
        .len();
    let message = |tokens: &str| {
        format!(
            r#"{{"control":"annotations","sites":84,"demoted":42,"low_confidence":0,"points":"{tokens}"}}"#
        ) + "\n"
    };
    let unannotated = "-0-0-";
    let state_dir = scratch_dir("malformed");
    for (stdin_text, complaint) in [
        (
            message(&unannotated.repeat(points - 1)),
            format!("for a space of {points} fault points"),
        ),
        (
            message(&format!("{}-", unannotated.repeat(points))),
            "not a whole number of 5-char tokens".to_string(),
        ),
        (
            message(&format!("{}x0-0-", unannotated.repeat(points - 1))),
            "unknown token `x0-0-`".to_string(),
        ),
        (
            r#"{"control":"shutdown"}"#.to_string() + "\n",
            "expected the space's annotations first".to_string(),
        ),
    ] {
        let output = annotated_worker_output(&state_dir, &stdin_text);
        assert_error_exit_without_hello(&output, &complaint);
    }
    fs::remove_dir_all(&state_dir).ok();
}

#[test]
fn a_worker_whose_stdin_closes_before_its_annotations_exits_cleanly() {
    let state_dir = scratch_dir("eof");
    let output = annotated_worker_output(&state_dir, "");
    assert_error_exit_without_hello(&output, "stdin closed before the supervisor's annotations");
    fs::remove_dir_all(&state_dir).ok();
}

/// The child processes of the calling thread. Tests run on threads of
/// one process, and each thread sees only the children it spawned.
fn children_of_this_thread() -> String {
    fs::read_to_string("/proc/thread-self/children").expect("read /proc/thread-self/children")
}

#[test]
fn a_failed_space_build_reaps_the_workers_it_started() {
    assert_eq!(children_of_this_thread().trim(), "");
    let spec = SpaceSpec {
        targets: vec!["git-lite".to_string()],
        retain: vec![("git-lite".to_string(), vec!["no_such_function".to_string()])],
        ..SpaceSpec::new()
    };
    let state_dir = scratch_dir("empty");
    let mut options = SupervisorOptions::new(spec, &state_dir);
    options.worker_bin = PathBuf::from(env!("CARGO_BIN_EXE_campaign_worker"));
    let err = run_supervised(&options).expect_err("an empty space cannot be leased");
    assert!(err.contains("empty"), "{err}");
    assert_eq!(
        children_of_this_thread().trim(),
        "",
        "every worker the supervisor spawned is reaped"
    );
    fs::remove_dir_all(&state_dir).ok();
}
