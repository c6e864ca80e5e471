#!/usr/bin/env python3
"""Build and run the dReDBox benchmark for one workload.

    python3 perfbench/run.py --workload <fed64|fed16|rack|datapath> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The script builds the `perfbench`
crate in release mode (into $CARGO_TARGET_DIR, default `.bench_build`),
runs it, checks that the metrics it printed are exactly the ones
BENCHMARK.json declares for the mode (`end_to_end` with --trace 0,
`per_layer` with --trace 1), writes a results file with provenance to
`<target>/perfbench/<workload>-seed<n>-trace<t>.json`, and prints the
benchmark's JSON result as the last line of standard output. It exits
non-zero, without a result line, when the build or a check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "rust-toolchain.toml", "crates", "vendor", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    return {
        "seed": seed,
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unavailable",
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout", 2)
    with open(bench_file, encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    mode = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in bench[mode]]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 2)
    if build.returncode != 0:
        fail("build failed", 2)

    out_dir = os.path.join(target, "perfbench")
    exe = os.path.join(target, "release", "dredbox-perfbench")
    argv = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran longer than {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"the benchmark printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
        details = next(json.loads(l[len("details "):]) for l in lines if l.startswith("details "))
    except (ValueError, StopIteration) as e:
        fail(f"unreadable benchmark output: {e}")

    emitted = list(result["metrics"])
    missing = [n for n in declared if n not in result["metrics"]]
    extra = [n for n in emitted if n not in declared]
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json {mode}: missing {missing}, undeclared {extra}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "run_seconds": seconds,
        "provenance": provenance(args.seed),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "details": details,
        "log": lines[:-1],
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(record["provenance"]))
    print(f"results written to {os.path.relpath(path, ROOT)}")
    print(lines[-1])
    if run.returncode != 0:
        sys.exit(run.returncode)


if __name__ == "__main__":
    main()
