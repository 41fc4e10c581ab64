#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files or directories holding "RESULT {...}" lines,
as perfbench/run.py prints them on stdout.  Untraced runs only.  For
every workload and every end-to-end metric the script prints each side's
median and quartiles over all its runs and a verdict against the metric's
bound in the repository's BENCHMARK.json (rules in stats.verdict):
better, worse, same, or unresolved when the run-to-run spread is wider
than the bound.  Runs are paired by seed, in order within a seed, for the
win count.  It also says whether the outputs (final weights and history,
or the decision stream) are identical for the seed-matched pairs, and
warns when the two sets were measured on different hosts.  Exits 1 when
any verdict is "worse".
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)

import stats  # noqa: E402

HOST_KEYS = ("nproc", "cpu_model", "kernel_isa", "compiler", "build_type", "fl_parallel_threads")


def load(path):
    """Untraced run records under `path`, grouped by workload."""
    files = []
    if os.path.isdir(path):
        for directory, _, names in os.walk(path):
            files.extend(os.path.join(directory, name) for name in sorted(names))
    else:
        files.append(path)
    runs = {}
    for name in files:
        with open(name, errors="replace") as handle:
            for line in handle:
                if not line.startswith("RESULT "):
                    continue
                record = json.loads(line[len("RESULT "):])
                if record.get("trace") == 0:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def paired(parent, change):
    """(parent run, change run) pairs: for every seed both sides ran, the
    runs of that seed in the order they were read, so repeats of a seed
    pair up one by one; by position when the sides share no seed.  Runs
    without a partner take part in medians and spreads, not in pairs."""
    by_seed_p, by_seed_c = {}, {}
    for record in parent:
        by_seed_p.setdefault(record["seed"], []).append(record)
    for record in change:
        by_seed_c.setdefault(record["seed"], []).append(record)
    common = sorted(set(by_seed_p) & set(by_seed_c))
    if not common:
        return list(zip(parent, change))
    return [pair for seed in common for pair in zip(by_seed_p[seed], by_seed_c[seed])]


def metric_verdict(parent, change, pairs, metric):
    """stats.verdict of one end-to-end metric over every run of each side,
    with the win count taken over `pairs`."""
    name = metric["name"]

    def value(record):
        return record["metrics"][name]["value"]

    return stats.verdict([value(r) for r in parent], [value(r) for r in change],
                         metric["better"], metric["bound"],
                         [(value(p), value(c)) for p, c in pairs])


def describe(values):
    q1, q2, q3 = stats.quartiles(values)
    return "%.6g [%.6g, %.6g]" % (q2, q1, q3)


def hosts(runs):
    return {tuple((k, r["host"].get(k)) for k in HOST_KEYS)
            for records in runs.values() for r in records}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(BENCHMARK) as spec_file:
        spec = json.load(spec_file)
    parent_runs, change_runs = load(args.parent), load(args.change)

    host_sets = hosts(parent_runs) | hosts(change_runs)
    if len(host_sets) > 1:
        print("WARNING: the runs come from %d different hosts; the comparison "
              "is not valid" % len(host_sets))
        for host in sorted(host_sets):
            print("  host " + json.dumps(dict(host), sort_keys=True))

    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not parent or not change:
            print("%s: missing from %s" % (workload, "parent" if not parent else "change"))
            continue
        pairs = paired(parent, change)
        seed_pairs = [(p, c) for p, c in pairs if p["seed"] == c["seed"]]
        same_output = sum(p["digest"] == c["digest"] for p, c in seed_pairs)
        print("%s: %d parent runs, %d change runs, %d pairs; outputs identical "
              "for %d of %d seed-matched pairs"
              % (workload, len(parent), len(change), len(pairs), same_output,
                 len(seed_pairs)))
        print("  %-14s %-38s %-38s %8s  %s" % ("metric", "parent median [q1, q3]",
                                               "change median [q1, q3]", "delta", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = [r["metrics"][name]["value"] for r in parent]
            c_values = [r["metrics"][name]["value"] for r in change]
            result = metric_verdict(parent, change, pairs, metric)
            any_worse = any_worse or result == "worse"
            p_median = stats.median(p_values)
            delta = ((stats.median(c_values) - p_median) / abs(p_median)
                     if p_median else float("nan"))
            print("  %-14s %-38s %-38s %+7.1f%%  %s (bound %g%%, %s)"
                  % (name, describe(p_values), describe(c_values), 100 * delta,
                     result, 100 * metric["bound"], metric["unit"]))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
