#!/usr/bin/env python3
"""Compare two sets of perfbench results, metric by metric.

Usage (files written by `perfbench/run.py --out`):

    python3 perfbench/compare.py --base parent-*.json --new change-*.json

For every metric it prints both medians, the change as a share of the base
median, the base set's quartile spread, and the verdict against the bound in
BENCHMARK.json: `worse` when the new median is worse than the base median by
more than the bound, `unresolved` when the base spread is wider than the
bound, `ok` otherwise. Refuses (exit 2) to compare results whose provenance
differs in anything but git sha, seed and digest; exits 1 when a bounded
metric is worse, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Provenance fields that may differ between the two sides: the commits
# being compared, the seeds and what those commits decided.
FREE_FIELDS = {"git_sha", "seed", "digest", "failed_frac", "source_digest"}


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    if "provenance" not in doc or "result" not in doc:
        raise ValueError(f"{path}: not a perfbench result file")
    return doc


def fixed_provenance(doc):
    return {k: v for k, v in doc["provenance"].items() if k not in FREE_FIELDS}


def provenance_mismatch(docs):
    """The first pair of differing provenance fields, or None."""
    ref = fixed_provenance(docs[0])
    for doc in docs[1:]:
        other = fixed_provenance(doc)
        for key in sorted(set(ref) | set(other)):
            if ref.get(key) != other.get(key):
                return key, ref.get(key), other.get(key)
    return None


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def compare(base_docs, new_docs, spec):
    """Rows of (metric, unit, base median, new median, change, spread,
    bound, verdict); change > 0 means worse."""
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    names = base_docs[0]["result"]["metrics"].keys()
    for name in names:
        base = [d["result"]["metrics"][name]["value"] for d in base_docs]
        new = [d["result"]["metrics"][name]["value"] for d in new_docs]
        b, n = statistics.median(base), statistics.median(new)
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        change = sign * (n - b) / abs(b) if b else 0.0
        s = spread(base)
        bound = bounds.get(name)
        if bound is None:
            verdict = "-"
        elif s > bound:
            verdict = "unresolved"
        elif change > bound:
            verdict = "worse"
        else:
            verdict = "ok"
        rows.append((name, base_docs[0]["result"]["metrics"][name]["unit"],
                     b, n, change, s, bound, verdict))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--spec",
                    default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args()

    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]
    mismatch = provenance_mismatch(base + new)
    if mismatch is not None:
        key, a, b = mismatch
        print(f"refusing to compare: provenance '{key}' differs "
              f"({a!r} vs {b!r})", file=sys.stderr)
        return 2
    with open(args.spec) as fh:
        spec = json.load(fh)

    worse = False
    print(f"{'metric':34s} {'base':>14s} {'new':>14s} {'worse by':>9s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for name, unit, b, n, change, s, bound, verdict in compare(base, new, spec):
        worse |= verdict == "worse"
        bound_s = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:34s} {b:14.6g} {n:14.6g} {change:+9.3f} {s:7.3f} "
              f"{bound_s:>6s}  {verdict} ({unit})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
