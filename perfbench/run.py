#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_trained --seed 42 \
        --seconds 25 --trace 0 [--size full|self]

Run it from the repository root. On first use it builds perfbench/ (its own
CMake package, which compiles the leakdet sources under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. It then runs the benchmark binary, passes its progress output through
on stderr, and prints the binary's result as the last line of stdout: one
JSON object with the keys correct, attempted, failed and metrics.

Exit status: the binary's (0 = every output check passed, 1 = a check
failed), or 1 if the build fails or the binary prints no result.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One run must end within 180 s; the binary's own share of that.
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (out_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(out_dir), "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = out_dir / "e2e_bench"
    return binary if binary.exists() else None


def fixed_layout_prefix():
    """`setarch <arch> -R`, which runs the binary with address-space layout
    randomization off, when this host allows it. With ASLR on, identical
    runs of one build differ by up to 1.5x in training time, as each
    process lands on a different memory layout; with it off they agree
    within a few percent."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_trained", "retrain_steady",
                                 "live_loop"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--size", choices=["full", "self"], default="full")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = fixed_layout_prefix() + [
               str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--size", args.size,
               "--work-dir", str(out_dir.parent / "perfbench-work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
