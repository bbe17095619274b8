#!/usr/bin/env python3
"""Diff two bench metrics snapshots and flag regressions.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--threshold 0.10]
                           [--no-fail] [--all] [--require GAUGE=MIN ...]
                           [--require-max GAUGE=MAX ...]

Each file is either one bench's MetricsSnapshot (the JSON a single bench
writes via FBS_METRICS_OUT) or a combined {bench_name: snapshot} map like
the checked-in BENCH_seed.json. Only gauges are compared: counters depend
on iteration counts and latencies carry their own quantile structure.

A gauge's "good" direction is inferred from its name: throughput-ish
suffixes (kBps, kbps, per_sec) are better when larger; cost-ish suffixes
(us, ns, seconds, misses, us_per_pkt) are better when smaller. Gauges with
an unrecognized direction are reported but never flagged. A change worse
than --threshold (default 10%) in the bad direction is a regression and
makes the exit status 1 unless --no-fail is given.

--require GAUGE=MIN asserts an absolute floor on a gauge in CURRENT
(matched against the flattened "bench:gauge" name), independent of the
baseline and of --no-fail: a missing gauge or a value below MIN always
fails. This is how acceptance gates (e.g. the parallel wall-speedup gate)
are enforced in CI rather than merely diffed. --require-max GAUGE=MAX is
the same check as a ceiling, for cost-like gauges such as the routed-open
time ratio.
"""

import argparse
import json
import sys

HIGHER_BETTER = ("kbps", "kBps", "Bps", "per_sec", "throughput", "hits",
                 "speedup", "gate", "load_factor")
LOWER_BETTER = ("us_per_pkt", "_us", ".us", "_ns", ".ns", "seconds",
                "misses", "miss_rate", "evictions", "cost", "cascades",
                "touched", "pressure")


def direction(name: str):
    """+1 if larger is better, -1 if smaller is better, 0 if unknown."""
    # Judge only the gauge name: a combined map prefixes "bench_name:", and
    # a bench called e.g. fig8_throughput must not drag its cost gauges
    # (us_per_pkt) into the higher-is-better bucket.
    lowered = name.split(":", 1)[-1].lower()
    # Cost-ish names win ties: "cpu_us_per_pkt" contains no throughput
    # suffix, but a name carrying both (e.g. "misses_per_sec") is a cost.
    for suffix in LOWER_BETTER:
        if suffix.lower() in lowered:
            return -1
    for suffix in HIGHER_BETTER:
        if suffix.lower() in lowered:
            return +1
    return 0


def flatten_gauges(doc):
    """{metric_name: value} from a snapshot or a {bench: snapshot} map."""
    out = {}
    if "gauges" in doc and isinstance(doc["gauges"], dict):
        return dict(doc["gauges"])
    for bench, snap in doc.items():
        if isinstance(snap, dict) and isinstance(snap.get("gauges"), dict):
            for name, value in snap["gauges"].items():
                out[f"{bench}:{name}"] = value
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative change that counts as a regression "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--no-fail", action="store_true",
                        help="report regressions but exit 0")
    parser.add_argument("--all", action="store_true",
                        help="print every common gauge, not just notable ones")
    parser.add_argument("--require", action="append", default=[],
                        metavar="GAUGE=MIN",
                        help="assert current GAUGE >= MIN (repeatable); "
                             "failure exits 1 even with --no-fail")
    parser.add_argument("--require-max", action="append", default=[],
                        metavar="GAUGE=MAX",
                        help="assert current GAUGE <= MAX (repeatable); "
                             "failure exits 1 even with --no-fail")
    args = parser.parse_args()

    def parse_bounds(specs, flag):
        bounds = []
        for spec in specs:
            name, sep, bound = spec.rpartition("=")
            if not sep:
                parser.error(f"{flag} needs GAUGE=VALUE, got {spec!r}")
            try:
                bounds.append((name, float(bound)))
            except ValueError:
                parser.error(f"{flag} bound must be a number, got {bound!r}")
        return bounds

    requirements = parse_bounds(args.require, "--require")
    ceilings = parse_bounds(args.require_max, "--require-max")

    with open(args.baseline) as f:
        base = flatten_gauges(json.load(f))
    with open(args.current) as f:
        cur = flatten_gauges(json.load(f))

    common = sorted(set(base) & set(cur))
    if not common:
        print("bench_compare: no common gauges between the two snapshots",
              file=sys.stderr)
        return 2

    regressions, improvements = [], []
    width = max(len(n) for n in common)
    for name in common:
        b, c = base[name], cur[name]
        if b == 0:
            continue
        rel = (c - b) / abs(b)
        sign = direction(name)
        regressed = sign != 0 and rel * sign < -args.threshold
        improved = sign != 0 and rel * sign > args.threshold
        if regressed:
            regressions.append(name)
        elif improved:
            improvements.append((name, rel * sign))
        if args.all or regressed or improved:
            tag = "REGRESSION" if regressed else ("improved" if improved
                                                  else "")
            print(f"{name:<{width}}  {b:14.3f} -> {c:14.3f}  "
                  f"{rel:+8.1%}  {tag}")

    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    if only_base:
        print(f"\n{len(only_base)} gauge(s) only in baseline "
              f"(first: {only_base[0]})")
    if only_cur:
        print(f"{len(only_cur)} gauge(s) only in current "
              f"(first: {only_cur[0]})")

    print(f"\n{len(common)} gauges compared: "
          f"{len(improvements)} improved >{args.threshold:.0%}, "
          f"{len(regressions)} regressed >{args.threshold:.0%}")

    gate_failed = False
    for name, floor in requirements:
        value = cur.get(name)
        if value is None:
            print(f"REQUIREMENT FAILED: {name} missing from current snapshot")
            gate_failed = True
        elif value < floor:
            print(f"REQUIREMENT FAILED: {name} = {value:.3f} < {floor:.3f}")
            gate_failed = True
        else:
            print(f"requirement ok: {name} = {value:.3f} >= {floor:.3f}")
    for name, ceiling in ceilings:
        value = cur.get(name)
        if value is None:
            print(f"REQUIREMENT FAILED: {name} missing from current snapshot")
            gate_failed = True
        elif value > ceiling:
            print(f"REQUIREMENT FAILED: {name} = {value:.3f} > {ceiling:.3f}")
            gate_failed = True
        else:
            print(f"requirement ok: {name} = {value:.3f} <= {ceiling:.3f}")

    if regressions:
        print("regressions:")
        for name in regressions:
            print(f"  {name}")
        if not args.no_fail:
            return 1
    return 1 if gate_failed else 0


if __name__ == "__main__":
    sys.exit(main())
