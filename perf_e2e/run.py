#!/usr/bin/env python3
"""Build the shipped code from source and run one benchmark workload.

    python3 perf_e2e/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `pressio` binary (the daemon the
serve workloads drive) and the benchmark harness in `perf_e2e/harness`, both
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the harness in a
scratch directory under `.bench_run/` that is removed afterwards. Build logs
go to standard error; the harness's report goes to standard output, whose
last line is the JSON result. Exits non-zero, without a result line, when
the build or the run fails or a metric named in BENCHMARK.json is missing.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HARNESS = os.path.join("perf_e2e", "harness", "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perf_e2e: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "pressio-cli", "--bin", "pressio"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", HARNESS],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def probe(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stop_group(proc):
    """Kill whatever is left of the harness's process group (a daemon whose
    harness died) and wait until the group is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    if not os.path.isfile("Cargo.toml") or not os.path.isfile(HARNESS):
        fail("run from the repository root: the sources to build are missing")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; expected one of {sorted(names)}")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)

    work = os.path.join(".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env["PERF_E2E_L3_BYTES"] = probe(["getconf", "LEVEL3_CACHE_SIZE"])
    env["PERF_E2E_FS"] = probe(["stat", "-f", "-c", "%T", work])
    harness = os.path.join(target, "release", "pressio-perf-e2e")
    cmd = [
        harness,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--pressio-bin", os.path.join(target, "release", "pressio"),
        "--work-dir", work,
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        if lines[-1].startswith('{"correct": false'):
            print("\n".join(lines))  # the report names each wrong output
        else:
            sys.stderr.write(out)
        fail(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(out)
        fail(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(got) ^ set(want))}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
