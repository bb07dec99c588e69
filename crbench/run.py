#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the crbench binary (and the library it links) from source into
.bench_build/crbench, runs one workload and prints its report; the last
stdout line is the JSON result.

  python3 crbench/run.py --workload campaign|defense-grid|serve-mixed \
      --seed N --seconds S --trace 0|1 [--tiny] [--plant-fault]
  python3 crbench/run.py --self-test

--self-test runs a tiny pass of every workload through this same command
and checks that every metric in BENCHMARK.json is printed with its unit,
that a planted wrong answer shows up as a failed operation, and that a
different seed changes the generated inputs but not the metric names.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "crbench")
EXE = os.path.join(BUILD, "crbench")
WORKLOADS = ("campaign", "defense-grid", "serve-mixed")
RUN_TIMEOUT_S = 170


def die(message):
    print("crbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to crbench/; "
            "run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                die("configure failed")
        step = ["cmake", "--build", BUILD, "--parallel", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            die("build failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args, extra=()):
    """Runs the crbench binary; returns (stdout text, parsed result or None)."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build",
            "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("crbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.stdout, result


def expected_metrics(spec, trace):
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def check_result(spec, trace, result):
    want = expected_metrics(spec, trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "wrong unit %s" % (missing, extra, wrong)
    return None


def digest_lines(text):
    lines = text.splitlines()
    start = lines.index("-- digest (deterministic outputs) --") + 1
    end = lines.index("-- metrics --")
    return lines[start:end]


def self_test():
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        base = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                  trace=0)
        for trace in (0, 1):
            base.trace = trace
            text, result = run_once(base, ["--tiny"])
            why = check_result(spec, trace, result)
            if why:
                problems.append("%s trace=%d: %s" % (workload, trace, why))
            if result["failed"] != 0:
                problems.append("%s trace=%d: unexpected failures" %
                                (workload, trace))
        base.trace = 0
        text1, r1 = run_once(base, ["--tiny"])
        _, planted = run_once(base, ["--tiny", "--plant-fault"])
        if planted["failed"] == 0 or planted["correct"]:
            problems.append("%s: planted wrong answer not caught" % workload)
        other = argparse.Namespace(workload=workload, seed=2, seconds=2,
                                   trace=0)
        text2, r2 = run_once(other, ["--tiny"])
        if sorted(r1["metrics"]) != sorted(r2["metrics"]):
            problems.append("%s: metric names depend on the seed" % workload)
        if digest_lines(text1) == digest_lines(text2):
            problems.append("%s: seed 2 generated the same inputs as seed 1"
                            % workload)
        print("self-test %-13s planted failures caught: %d; seed digests "
              "differ: %s" % (workload, planted["failed"],
                              digest_lines(text1) != digest_lines(text2)))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-fault", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        return self_test()
    if args.workload is None:
        die("--workload is required")
    extra = (["--tiny"] if args.tiny else []) + \
            (["--plant-fault"] if args.plant_fault else [])
    text, result = run_once(args, extra)
    if result is None:
        die("crbench printed no result")
    why = check_result(load_spec(), args.trace, result)
    if why:
        die(why)
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
