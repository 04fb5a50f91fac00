#!/usr/bin/env python3
"""Builds and runs the rstlab benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into .bench_build/perfbench (RelWithDebInfo), then
run once; its report goes to stdout and the last stdout line is one JSON
object holding `correct`, `attempted`, `failed` and the metrics that
BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1). Exits non-zero if the build fails, a declared
metric is missing, or any output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; True on success."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    compiled = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return compiled.returncode == 0


def git_sha():
    # Only ask git when the checkout itself is a repository, so that git
    # never searches the directories above it.
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            log("build failed")
            return 1
        return subprocess.run([str(BUILD / "perfbench_test")]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no rstlab sources under {ROOT}; nothing to measure")
        return 1
    declared = declared_metrics(args.trace)
    if not build("perfbench"):
        log("build failed")
        return 1

    work_dir = BUILD.parent / "perfbench-work" / str(os.getpid())
    spans_dir = BUILD.parent / "perfbench-spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    command = [
        str(BUILD / "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", str(work_dir),
        "--git-sha", git_sha()]
    if args.trace:
        command += ["--spans",
                    str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    # Anything that falls back to the temp directory stays in the checkout.
    env = dict(os.environ, TMPDIR=str(work_dir))
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(result.stderr)
    lines = result.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        measured = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"run printed no result (exit code {result.returncode})")
        return 1

    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in measured["metrics"]:
            log(f"declared metric {name} was not measured")
            return 1
        value = measured["metrics"][name]
        if value["unit"] != metric["unit"]:
            log(f"metric {name} measured in {value['unit']}, "
                f"declared in {metric['unit']}")
            return 1
        metrics[name] = value
    print(json.dumps({"correct": measured["correct"],
                      "attempted": measured["attempted"],
                      "failed": measured["failed"],
                      "metrics": metrics}), flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
