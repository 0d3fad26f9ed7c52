#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 10 --trace 0

Run from the repository root. Configures and builds perfbench (an
optimised CMake build of the benchmark binary plus the library sources
under src/) into .bench_build/perfbench, runs one workload, and passes the
binary's output through. The last stdout line is the result object; build output
and diagnostics go to stderr. Exits non-zero, printing no result, when the
build fails or the result does not match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("fig1", "leaf_sweep", "serve_open", "fig1_ft")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under ./src; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def revision():
    """The git revision, or a hash of the library and benchmark sources
    when the tree is not a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha1:" + h.hexdigest()


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK, "--revision", revision()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(60.0, 4 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("perfbench timed out")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"perfbench exited with code {proc.returncode}")
    check_result(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
