#!/usr/bin/env python3
"""Summarises and compares benchmark results written by perfbench/run.py.

    python3 perfbench/compare.py [--trace 0|1] SET_A [SET_B]

A set is a directory of result files (default location:
.bench_build/perfbench-results) or a list of files joined with commas.

With one set, prints for every workload and metric the median, the
quartiles and the spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles), against the
metric's bound in BENCHMARK.json. It also checks that runs with the same
seed saw the same inputs (dataset, schedule and loss digests).

With two sets (A = baseline, B = candidate), prints each median change
against the bound and exits 1 when any end-to-end metric got worse by more
than its bound.

Results are only compared when their environment fingerprints match: every
result of one set must share one fingerprint, and the two sets must agree on
nproc, build profile and rustc version. Otherwise the script refuses, with
exit code 2.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_set(spec, trace):
    if os.path.isdir(spec):
        files = sorted(glob.glob(os.path.join(spec, "*.json")))
    else:
        files = [f for f in spec.split(",") if f]
    records = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("trace") == trace:
            records.append(r)
    return records


def fingerprints(records):
    return {json.dumps(r.get("fingerprint"), sort_keys=True) for r in records}


def refuse(msg):
    print(f"compare: refusing to compare: {msg}", file=sys.stderr)
    sys.exit(2)


def by_metric(records):
    out = {}
    for r in records:
        for name, m in r.get("measured", r["result"]["metrics"]).items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return statistics.median(values), float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def check_digests(records):
    seen, ok = {}, True
    for r in records:
        key = (r["workload"], r["seed"])
        digests = r.get("digests", {})
        if key in seen and seen[key] != digests:
            print(f"digest mismatch for {key}: {seen[key]} vs {digests}")
            ok = False
        seen.setdefault(key, digests)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("sets", nargs="+")
    args = ap.parse_args()
    with open(args.bench) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sets = [load_set(s, args.trace) for s in args.sets[:2]]
    for s, recs in zip(args.sets, sets):
        if not recs:
            refuse(f"no trace-{args.trace} results in {s}")
        if len(fingerprints(recs)) != 1:
            refuse(f"{s} mixes environment fingerprints: {sorted(fingerprints(recs))}")
    if len(sets) == 2:
        env = lambda rs: {k: v for k, v in rs[0]["fingerprint"].items() if k != "revision"}
        if env(sets[0]) != env(sets[1]):
            refuse(f"environments differ: {env(sets[0])} vs {env(sets[1])}")

    ok = all(check_digests(recs) for recs in sets)
    if len(sets) == 1:
        print(f"{'workload':<12} {'metric':<22} {'n':>3} {'median':>14} {'spread':>8} "
              f"{'bound':>6}  within bound/3")
        for workload, ms in sorted(by_metric(sets[0]).items()):
            for name, values in ms.items():
                med, sp = spread(values)
                bound = metrics.get(name, {}).get("bound")
                mark = "" if bound is None else ("yes" if sp < bound / 3 else "NO")
                print(f"{workload:<12} {name:<22} {len(values):>3} {med:>14.6g} {sp:>8.4f} "
                      f"{bound if bound is not None else '-':>6}  {mark}")
        return 0 if ok else 1

    regressed = False
    a, b = by_metric(sets[0]), by_metric(sets[1])
    print(f"{'workload':<12} {'metric':<22} {'median A':>14} {'median B':>14} {'change':>8} "
          f"{'bound':>6}")
    for workload in sorted(set(a) & set(b)):
        for name in a[workload]:
            if name not in b[workload]:
                continue
            ma, mb = statistics.median(a[workload][name]), statistics.median(b[workload][name])
            change = (mb - ma) / ma if ma else float("nan")
            m = metrics.get(name, {})
            worse = change if m.get("better") == "lower" else -change
            flag = ""
            if "bound" in m and worse > m["bound"]:
                flag, regressed = "  REGRESSED", True
            print(f"{workload:<12} {name:<22} {ma:>14.6g} {mb:>14.6g} {change:>+8.2%} "
                  f"{m.get('bound', '-'):>6}{flag}")
    return 1 if regressed or not ok else 0


if __name__ == "__main__":
    sys.exit(main())
