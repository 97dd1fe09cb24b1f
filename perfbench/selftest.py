#!/usr/bin/env python3
"""Self-test of the benchmark: a short, count-bound run of every workload.

Usage: python3 perfbench/selftest.py [--workload NAME ...]

For each workload it makes two untraced runs with the same seed and one
traced run, and asserts that:
  - every run exits 0 with correct=true and failed=0;
  - the result carries exactly the end-to-end (or per-layer) metrics named in
    BENCHMARK.json, each with its unit, and the end-to-end values are
    positive;
  - the two same-seed runs give the same decision digest and
    oracle_fraction.
It also asserts that compare.py refuses results whose provenance differs.
Exits 0 when everything holds.
"""

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

SEED = 7


def check_result(spec, workload, trace, code, lines, errors):
    """Returns (provenance, result) after checking one run's output."""
    where = f"{workload} trace={trace}"
    provenance, result = run.parse_output(lines)
    if result is None:
        errors.append(f"{where}: no result (exit {code})")
        return None, None
    if code != 0:
        errors.append(f"{where}: exit {code}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')} "
                          f"!= {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{where}: {m['name']} = {value}, must be > 0")
    return provenance, result


def check_compare_refuses(errors):
    doc = {"provenance": {"workload": "warm_hits", "nproc": 4,
                          "compiler": "GNU 12.2.0", "git_sha": "a", "seed": 1},
           "result": {"metrics": {}}}
    same_but_sha = json.loads(json.dumps(doc))
    same_but_sha["provenance"].update(git_sha="b", seed=2)
    other_host = json.loads(json.dumps(doc))
    other_host["provenance"]["nproc"] = 8
    if compare.provenance_mismatch([doc, same_but_sha]) is not None:
        errors.append("compare: refused results differing only in sha/seed")
    if compare.provenance_mismatch([doc, other_host]) != ("nproc", 4, 8):
        errors.append("compare: accepted results from different hosts")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="*", default=list(run.WORKLOADS))
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    errors = []
    check_compare_refuses(errors)
    runner = run.build()
    if runner is None:
        print("selftest: build failed", file=sys.stderr)
        return 1
    for workload in args.workload:
        seen = []
        for trace in (0, 0, 1):
            code, lines = run.run_once(runner, workload, SEED, 1, trace,
                                       short=True)
            provenance, result = check_result(spec, workload, trace, code,
                                              lines, errors)
            if trace == 0 and result is not None:
                seen.append((provenance["digest"],
                             result["metrics"]["oracle_fraction"]["value"]))
        if len(seen) == 2 and seen[0] != seen[1]:
            errors.append(f"{workload}: same-seed runs differ: {seen}")
        print(f"selftest: {workload} done", flush=True)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("FAILED" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
