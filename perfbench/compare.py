#!/usr/bin/env python3
"""Compare benchmark run records (the JSON files the benchmark writes to
.bench_out/ by default).

  compare.py diff BASE.json CAND.json
      Metric by metric, the candidate's value against the base's. Refuses
      (exit 2) when the two records' host metadata differ: figures from
      different hosts, core counts, worker counts or compilers are not
      comparable. For records of the same seed it also checks that the
      exact counters and answer digests are equal.

  compare.py spread RECORD.json...
      For records of one workload (normally one per seed), each metric's
      median, quartiles and spread (Q3 - Q1) / median, with quartiles as
      Python's statistics.quantiles(values, n=4) gives them. Refuses
      records whose host metadata differ. With BENCHMARK.json in the
      current directory, each spread is set against the metric's bound.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def metrics(record):
    return {k: v["value"] for k, v in record["result"]["metrics"].items()}


def same_host(records, paths):
    base = records[0]["host"]
    for record, path in zip(records[1:], paths[1:]):
        if record["host"] != base:
            print(f"refusing to compare: host metadata of {path} differs from {paths[0]}", file=sys.stderr)
            for key in sorted(set(base) | set(record["host"])):
                if base.get(key) != record["host"].get(key):
                    print(f"  {key}: {base.get(key)!r} vs {record['host'].get(key)!r}", file=sys.stderr)
            return False
    return True


def diff(base_path, cand_path):
    base, cand = load(base_path), load(cand_path)
    if not same_host([base, cand], [base_path, cand_path]):
        return 2
    status = 0
    b, c = metrics(base), metrics(cand)
    print(f"{'metric':<44} {'base':>14} {'candidate':>14} {'ratio':>8}")
    for name in b:
        if name in c:
            ratio = c[name] / b[name] if b[name] else float("nan")
            print(f"{name:<44} {b[name]:>14.4f} {c[name]:>14.4f} {ratio:>8.4f}")
    if base["run"]["seed"] == cand["run"]["seed"] and base["run"]["workload"] == cand["run"]["workload"]:
        for kind in ("counters", "digests"):
            for key in sorted(set(base[kind]) | set(cand[kind])):
                if base[kind].get(key) != cand[kind].get(key):
                    print(f"{kind[:-1]} {key} differs: {base[kind].get(key)} vs {cand[kind].get(key)}")
                    status = 1
    return status


def spread(paths):
    records = [load(p) for p in paths]
    if not same_host(records, paths):
        return 2
    bounds = {}
    try:
        bench = load("BENCHMARK.json")
        bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    except (OSError, ValueError, KeyError):
        pass
    names = list(metrics(records[0]))
    print(f"{len(records)} records; spread = (Q3 - Q1) / median")
    print(f"{'metric':<44} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [metrics(r)[name] for r in records if name in metrics(r)]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        s = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or s <= bound / 3 else (" > bound/3" if s <= bound else " > BOUND")
        print(f"{name:<44} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {s:>8.4f} {bound if bound is not None else '':>6}{flag}")
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "diff":
        return diff(argv[2], argv[3])
    if len(argv) >= 3 and argv[1] == "spread":
        return spread(argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
