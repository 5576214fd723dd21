#!/usr/bin/env python3
"""Build and run the RegLess fixed-work benchmark.

    python3 perfbench/run.py --workload <sim_cold|sweep_warm|serve_hits> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `regless` (the server `serve_hits`
starts) and the benchmark binary with cargo, offline, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload. The
binary's last stdout line is the result JSON; its stderr (the sweep
engine's per-op log) goes to perfbench/out/<workload>-seed<n>-trace<t>.log.
"""

import argparse
import os
import shlex
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUILD_BUDGET_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env):
    """Build both binaries; their output goes to stderr, never stdout."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "regless"],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except (OSError, subprocess.TimeoutExpired) as e:
            return f"{shlex.join(cmd)}: {e}"
        if done.returncode != 0:
            return f"{shlex.join(cmd)} exited with {done.returncode}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sim_cold", "sweep_warm", "serve_hits"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        return fail(f"{ROOT} holds no repository sources (Cargo.toml, crates/)")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    err = build(env)
    if err:
        return fail(f"build failed: {err}")

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = shlex.join(["python3", os.path.relpath(__file__, ROOT)] + sys.argv[1:])
    cmd = [
        os.path.join(target, "release", "regless-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--regless-bin", os.path.join(target, "release", "regless"),
        "--git-sha", git_sha(),
        "--command", command,
    ]
    log_path = os.path.join(OUT, f"{tag}.log")
    with open(log_path, "w") as log:
        # A session of its own, so a timeout stops the server child too.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stderr=log,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
    if code != 0:
        with open(log_path) as log:
            tail = log.readlines()[-20:]
        sys.stderr.write("".join(tail))
        reason = "timed out" if code is None else f"exited with {code}"
        return fail(f"{args.workload} {reason}; log: {log_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
