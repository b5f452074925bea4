#!/usr/bin/env python3
"""Build plan9net with the benchmark options and run one perfbench workload.

    python3 perfbench/run.py --workload rpc-small --seed 1 --seconds 10 --trace 0

The library is built by the repository's own CMake with
-DCMAKE_BUILD_TYPE=Release -DPLAN9NET_LOCKCHECK=OFF -DPLAN9NET_HOTCHECK=OFF
into .bench_build/ at the repository root; perfbench/CMakeLists.txt then
builds the two benchmark binaries against it.  Every build product and
span file stays under .bench_build/.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the plain binary once more for reference, then the traced binary, and
prints the per-layer metrics, bench.trace_overhead_pct among them.  The
last line of standard output is the result object; build output and the
human-readable summary come before it.  See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "plan9net")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
LIB_OPTIONS = {
    "CMAKE_BUILD_TYPE": "Release",
    "PLAN9NET_LOCKCHECK": "OFF",
    "PLAN9NET_HOTCHECK": "OFF",
}
SETUPS = 30          # world set-ups per end-to-end run; setup_s is their median
RUN_BUDGET_S = 170   # all measuring child runs together; a run must end in 180 s
# The measured process runs on one CPU with one malloc arena (README.md,
# "Steadiness").  On one CPU each handoff between the program's threads is a
# context switch, not the wakeup of another vCPU of a shared host, whose
# cost varies from run to run; with one arena the resident set does not
# depend on which arena each thread happened to pick.
CPU = max(os.sched_getaffinity(0))
CHILD_ENV = dict(os.environ, MALLOC_ARENA_MAX="1")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sh(cmd):
    # Build chatter goes to stderr so the result stays the last stdout line.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"command failed ({r.returncode}): {' '.join(cmd)}")


def cache_values(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def build():
    """Builds the library and both binaries; returns the build record."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} beside perfbench/: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", LIB_BUILD] +
           [f"-D{k}={v}" for k, v in LIB_OPTIONS.items()])
    sh(["cmake", "--build", LIB_BUILD, "--target", "plan9net", "-j", jobs])
    lib = os.path.join(LIB_BUILD, "src", "libplan9net.a")
    if not os.path.exists(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", BENCH_BUILD, "-DCMAKE_BUILD_TYPE=Release",
            f"-DPLAN9NET_ROOT={ROOT}", f"-DPLAN9NET_LIB={lib}"])
    sh(["cmake", "--build", BENCH_BUILD, "-j", jobs])

    cache = cache_values(LIB_BUILD)
    record = {k: cache.get(k, "") for k in LIB_OPTIONS}
    for k, want in LIB_OPTIONS.items():
        if record[k] != want:
            fail(f"library built with {k}={record[k]}, benchmark needs {want}")
    record["CMAKE_CXX_COMPILER"] = cache.get("CMAKE_CXX_COMPILER", "")
    return record


def run_binary(name, args, timeout):
    exe = os.path.join(BENCH_BUILD, name)
    try:
        r = subprocess.run([exe] + args, capture_output=True, text=True,
                           timeout=timeout, env=CHILD_ENV,
                           preexec_fn=lambda: os.sched_setaffinity(0, {CPU}))
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {timeout} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{name} exited with {r.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["rpc-small", "bulk-8k", "dial-churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    record = build()

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        wanted = spec["end_to_end"]
        out = run_binary("p9bench", common + ["--seconds", str(args.seconds),
                                              "--setups", str(SETUPS)], RUN_BUDGET_S)
    else:
        # Half the time untraced for reference, half traced.
        wanted = spec["per_layer"]
        half = ["--seconds", str(args.seconds / 2), "--setups", "1"]
        plain = run_binary("p9bench", common + half, RUN_BUDGET_S / 2)
        spans = os.path.join(BUILD, "spans", f"{args.workload}-{args.seed}.tsv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        out = run_binary("p9bench_traced", common + half + ["--spans", spans],
                         RUN_BUDGET_S / 2)
        untraced = plain["metrics"]["ops_per_s"]["value"]
        traced = out["metrics"]["ops_per_s"]["value"]
        out["metrics"]["bench.trace_overhead_pct"] = {
            "value": (untraced - traced) / untraced * 100.0, "unit": "%"}
        out["correct"] = out["correct"] and plain["correct"]
        print(f"spans written to {os.path.relpath(spans, ROOT)}")

    record["compiler_version"] = out["compiler"]
    record["ndebug"] = out["ndebug"]
    record["cpu"] = CPU
    record["MALLOC_ARENA_MAX"] = CHILD_ENV["MALLOC_ARENA_MAX"]
    print("build " + json.dumps(record, sort_keys=True))

    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None:
            fail(f"the benchmark did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
        print(f"  {m['name']:<26} {got['value']:>16.4f} {got['unit']}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"  {'fail_ratio':<26} {failed / attempted:>16.6f} ({failed} of {attempted})")
    print(json.dumps({"correct": out["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
