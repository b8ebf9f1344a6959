#!/usr/bin/env python3
"""End-to-end VDCE benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  Builds perfbench/ (its own CMake
project over the tree's src/ libraries) into .bench_build/, runs one
workload, and prints the program's lines followed by a machine record
and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; the result line is checked against those
declarations (names and units) before it is printed.  Exits non-zero,
printing no result, when the tree cannot be built or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no VDCE sources next to perfbench/ (src/ missing)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            raise RuntimeError("build step failed: " + " ".join(step))
    return out


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, traced):
    """Parses the result line and checks it against BENCHMARK.json."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys differ from the contract")
    declared = declared_metrics(traced)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(printed) & set(declared)
                       if printed[n] != declared[n])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "undeclared %s, unit mismatch %s"
                         % (missing, extra, units))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    return result


def source_identity():
    """Commit when the tree is a git checkout, and a digest of the
    sources either way (a benchmark checkout is not a repository)."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": commit, "source_sha1": digest.hexdigest()}


def stop_group(proc):
    """Kills what is left of the program's process group (the program
    stops its site daemons itself when it exits normally) and waits
    until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args):
    out = build(["vdce_perfbench"])
    cmd = [os.path.join(out, "vdce_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # Own process group: whatever the program starts (the site daemons)
    # is stopped with it, even if it dies without cleaning up.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        raise RuntimeError("benchmark exited with code %d" % proc.returncode)
    result = check_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print("source " + json.dumps(source_identity()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def stop_on_sigterm(signum, frame):
    # Unwinds through run()'s finally, which kills the program's group.
    raise RuntimeError("stopped by signal %d" % signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (RuntimeError, ValueError, OSError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
