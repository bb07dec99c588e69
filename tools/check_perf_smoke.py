#!/usr/bin/env python3
"""Gate the perf-smoke CI job on the checked-in micro-benchmark baseline.

Reads the newline-delimited records that the --bench-json reporter appends
(`{"name":...,"wall_ms":...,"items_per_s":...}` per run) and compares them
against the checked-in baseline (bench/baselines/perf_smoke.json):

  * every baselined benchmark must be present in the measured file;
  * measured items_per_s must not fall more than max_regression_fraction
    below the baseline value;
  * every entry of min_ratios ({"name", "numerator", "denominator",
    "floor"}) must hold: measured items_per_s of numerator over denominator
    at least floor -- the machine-independent guards. The blocks-vs-interp
    gate (BM_CpuThroughput/2 over BM_CpuThroughput/1 >= 2.5x) lives here.

Ratio gates are skipped (not failed) when either side is absent from the
measured file, so partial bench runs can still be checked against the
benchmarks they did produce.

Exit status 0 on pass, 1 on any violation. Stdlib only.
"""

import argparse
import json
import sys


def load_measured(path):
    """Last record wins when a benchmark appears more than once."""
    measured = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            measured[record["name"]] = float(record["items_per_s"])
    return measured


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-json", required=True,
                        help="measured results (one JSON record per line)")
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline JSON")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    measured = load_measured(args.bench_json)

    max_drop = float(baseline.get("max_regression_fraction", 0.20))
    failures = []

    for name, expect in baseline["benchmarks"].items():
        if name not in measured:
            failures.append(f"{name}: missing from {args.bench_json}")
            continue
        floor = float(expect["items_per_s"]) * (1.0 - max_drop)
        got = measured[name]
        verdict = "ok" if got >= floor else "REGRESSED"
        print(f"{name}: {got:.1f} items/s "
              f"(baseline {expect['items_per_s']:.1f}, floor {floor:.1f}) "
              f"{verdict}")
        if got < floor:
            failures.append(
                f"{name}: {got:.1f} items/s is below the regression floor "
                f"{floor:.1f} ({max_drop:.0%} under baseline "
                f"{expect['items_per_s']:.1f})")

    for gate in baseline.get("min_ratios", []):
        num = measured.get(gate["numerator"])
        den = measured.get(gate["denominator"])
        floor = float(gate["floor"])
        if num is None or den is None:
            print(f"{gate['name']} throughput ratio: skipped "
                  f"(missing {gate['numerator'] if num is None else gate['denominator']})")
            continue
        ratio = num / den if den > 0.0 else float("inf")
        verdict = "ok" if ratio >= floor else "REGRESSED"
        print(f"{gate['name']} throughput ratio: {ratio:.2f}x "
              f"(floor {floor:.2f}x) {verdict}")
        if ratio < floor:
            failures.append(
                f"{gate['name']}: {gate['numerator']} is only {ratio:.2f}x "
                f"{gate['denominator']} (floor {floor:.2f}x)")

    if failures:
        print("\nperf-smoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
