#!/usr/bin/env python3
"""End-to-end benchmark of the miniGiraffe mapper (batch and serve paths).

Run from the root of a source tree:

    python3 e2ebench/run.py --workload batch-hprc --seed 7 --seconds 20 --trace 0

Builds the harness (e2ebench/CMakeLists.txt, which compiles ../src) into
.bench_build/, generates the workload's inputs from --seed in a separate
process, then runs the measuring process.  Prints a provenance line and,
as the last line of stdout, one JSON object with exactly the keys
correct / attempted / failed / metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Metric names and
units come from BENCHMARK.json; the harness prints bare name -> value
pairs, a layer the workload lacks reads 0, and a name BENCHMARK.json
does not list (or a missing end-to-end metric) is an error.

Exit status: 0 when every output check passed, 1 when a check failed
(the result line is still printed, with "correct": false), 2 when the
harness could not build or run (no result line).

Test-only option: --reads N (tiny read sets).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_JOBS = "3"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def run_quiet(cmd, log_path, timeout):
    """Run cmd with output to log_path; on failure echo the log's tail."""
    with open(log_path, "w") as out:
        try:
            code = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=out,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            code = -1
    if code != 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        fail(f"{' '.join(cmd[:3])} failed (exit {code}):\n{tail}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree at " + ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "e2ebench-build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator,
                  build_log, 300)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
              build_log, 850)
    if not os.access(BINARY, os.X_OK):
        fail("build produced no binary")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest():
    """sha256 over the sources the benchmark compiles and runs."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            h.update(file_digest(path).encode())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def input_dir(binary_digest, reads):
    """Inputs are keyed by the binary that generated them; stale sets
    from earlier builds are removed.  Relative to ROOT so the daemon's
    socket path stays short."""
    base = os.path.join(".bench_build", "e2ebench-inputs")
    key = binary_digest[:16] + (f"-r{reads}" if reads else "")
    full_base = os.path.join(ROOT, base)
    if os.path.isdir(full_base):
        for entry in os.listdir(full_base):
            if not entry.startswith(binary_digest[:16]):
                shutil.rmtree(os.path.join(full_base, entry),
                              ignore_errors=True)
    os.makedirs(os.path.join(full_base, key), exist_ok=True)
    return os.path.join(base, key)


def with_units(values, trace):
    """The harness's name -> value pairs as {name: {value, unit}}, in
    BENCHMARK.json order."""
    kind = "per_layer" if trace else "end_to_end"
    with open(SPEC_PATH) as f:
        specs = json.load(f)[kind]
    unknown = set(values) - {spec["name"] for spec in specs}
    if unknown:
        fail(f"harness printed metrics BENCHMARK.json does not list as "
             f"{kind}: {sorted(unknown)}")
    metrics = {}
    for spec in specs:
        if spec["name"] not in values and kind == "end_to_end":
            fail(f"harness did not print end-to-end metric {spec['name']}")
        metrics[spec["name"]] = {"value": values.get(spec["name"], 0),
                                 "unit": spec["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch-hprc", "serve-yeast",
                                 "serve-human-swap"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reads", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    binary_digest = file_digest(BINARY)
    data = input_dir(binary_digest, args.reads)
    gen_log = os.path.join(BUILD_ROOT, "e2ebench-gen.log")
    run_quiet([BINARY, "gen", "--workload", args.workload,
               "--seed", str(args.seed), "--dir", data,
               "--reads", str(args.reads)], gen_log, 300)

    cmd = [BINARY, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--dir", data,
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=3 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("measuring run timed out")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"measuring run failed (exit {proc.returncode})")
    try:
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        fail("measuring run printed no parseable result")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("result line is malformed: " + lines[-1])
    result["metrics"] = with_units(result["metrics"], args.trace)

    provenance["commit"] = commit()
    provenance["source_sha256"] = source_digest()
    provenance["binary_sha256"] = binary_digest
    provenance["command"] = " ".join(sys.argv)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    with open(os.path.join(BUILD_ROOT, "e2ebench-results.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": provenance, "result": result},
                           sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
