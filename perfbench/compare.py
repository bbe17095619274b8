#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as run.py appends them (one JSON object per
line). For every workload and metric present in both, it prints the medians,
the base's quartile spread as a share of its median, and the change against
the metric's bound in BENCHMARK.json. It refuses (exit 2) to compare results
whose builds differ in build type, compiler or flags: numbers from a Debug
and a Release build, or from different -march settings, are not comparable.
"""

import json
import statistics
import sys
from pathlib import Path

# Provenance fields that must match before two results are comparable.
BUILD_KEYS = ("build_type", "compiler", "cxx_flags", "crypto_kernel_flags",
              "march_native")


def load(path):
    records = [json.loads(line) for line in Path(path).read_text().splitlines()
               if line.strip()]
    if not records:
        sys.exit(f"compare: {path} holds no results")
    return records


def build_of(records, path):
    builds = {tuple(r["provenance"].get(k) for k in BUILD_KEYS)
              for r in records}
    if len(builds) != 1:
        sys.exit(f"compare: {path} mixes builds: {sorted(builds)}")
    return builds.pop()


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    b_build, n_build = build_of(base, argv[1]), build_of(new, argv[2])
    if b_build != n_build:
        for key, b, n in zip(BUILD_KEYS, b_build, n_build):
            if b != n:
                print(f"compare: {key} differs: {b!r} vs {n!r}",
                      file=sys.stderr)
        print("compare: refusing to compare results of different builds",
              file=sys.stderr)
        return 2

    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    # Traced and untraced runs report different metrics: compare like with
    # like.
    groups = sorted({(r["workload"], r["trace"]) for r in base} &
                    {(r["workload"], r["trace"]) for r in new})
    print(f"{'workload':<18} {'metric':<36} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for w, trace in groups:
        b_runs = [r["result"]["metrics"] for r in base
                  if (r["workload"], r["trace"]) == (w, trace)]
        n_runs = [r["result"]["metrics"] for r in new
                  if (r["workload"], r["trace"]) == (w, trace)]
        label = f"{w}{' traced' if trace else ''}"
        for name in sorted(set(b_runs[0]) & set(n_runs[0])):
            b = [m[name]["value"] for m in b_runs if name in m]
            n = [m[name]["value"] for m in n_runs if name in m]
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm if bm else float("nan")
            info = metrics.get(name, {})
            bound = info.get("bound")
            verdict = ""
            if bound is not None and bm:
                worse = -change if info["better"] == "higher" else change
                verdict = "WORSE" if worse > bound else "ok"
                if spread(b) > bound:
                    verdict = "unresolved (spread above bound)"
            print(f"{label:<18} {name:<36} {bm:>12.6g} {nm:>12.6g} "
                  f"{change:>+8.2%} {spread(b):>7.2%} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
