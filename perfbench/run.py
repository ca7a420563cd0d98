#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload hunt --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

`--workload` is one of hunt, sweep, supervised_sweep, triggers, or `all`
(each workload with the same other flags, one table row each). The
binary and the `campaign_worker` it supervises are built in release mode
into `$CARGO_TARGET_DIR` (default `perfbench/target`). The last line of
standard output is the workload's JSON result.

The binary, and every process it starts, runs with glibc's mmap threshold
fixed at its default 128 KiB. Left dynamic, glibc raises the threshold
after a large block is freed, later large blocks come from per-thread
arenas, and the fragmentation that follows made the hunt's peak resident
set swing between 44 and 65 MB from run to run (39-42 MB fixed), with no
measurable change to the sweep's speed.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["hunt", "sweep", "supervised_sweep", "triggers"]
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(128 * 1024))


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    base = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for selection in (["-p", "lfi_perfbench"], ["-p", "lfi_supervisor", "--bin", "campaign_worker"]):
        if subprocess.run(base + selection, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")


def workload_of(argv):
    if "--workload" in argv:
        index = argv.index("--workload")
        if index + 1 < len(argv):
            return argv[index + 1]
    return None


def run_all(binary, argv, work_dir):
    """Run every workload with the caller's other flags; one table, then
    one JSON object keyed by workload."""
    index = argv.index("--workload")
    rows = {}
    header = None
    for workload in WORKLOADS:
        args = argv[:index + 1] + [workload] + argv[index + 2:]
        out = subprocess.run([binary, "--work-dir", work_dir] + args, env=RUN_ENV, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"perfbench: {workload} failed")
        table = lines[:-1]
        if table and table[0] == header:
            table = table[1:]
        elif table:
            header = table[0]
        print("\n".join(table))
        rows[workload] = json.loads(lines[-1])
    print(json.dumps(rows))


def main():
    argv = sys.argv[1:]
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build(target_dir)
    binary = os.path.join(target_dir, "release", "lfi_perfbench")
    work_dir = os.path.join(target_dir, "perfbench-work")
    if workload_of(argv) == "all":
        run_all(binary, argv, work_dir)
        return
    sys.exit(subprocess.run([binary, "--work-dir", work_dir] + argv, env=RUN_ENV).returncode)


if __name__ == "__main__":
    main()
