#!/usr/bin/env python3
"""Row-by-row diff of two micro-benchmark JSON files, standard library only.

Usage:
    python3 tools/bench_diff.py OLD.json NEW.json

Reads two files written by the bench binaries (bench/bench_json.h, e.g.
BENCH_micro_kernels.json), matches their rows by "name", and prints:

  * the rows only NEW has ("added") and only OLD has ("removed");
  * the rows whose ns_per_op moved by more than 10 % of OLD's value
    ("slower" or "faster"), largest move first;
  * both "host" blocks when they differ, since rows are only comparable
    like for like.

It only reports; the exit status is 0 whatever moved, and 2 when a file
cannot be read or is not a benchmark file.
"""

import json
import sys

THRESHOLD = 0.10


def load(path):
    """(host, {name: ns_per_op}) of one benchmark JSON file."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    rows = {}
    for row in data["benchmarks"]:
        name = row["name"]
        if name in rows:
            raise ValueError(f"{path}: row {name!r} appears twice")
        rows[name] = float(row["ns_per_op"])
    return data.get("host"), rows


def diff(old, new, threshold=THRESHOLD):
    """(added, removed, moved) between two {name: ns_per_op} maps.

    `moved` holds (name, old_ns, new_ns, relative change) for every shared
    row whose change exceeds `threshold`, largest |change| first.  A row
    that was 0 ns/op and is no longer counts as an infinite move.
    """
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    moved = []
    for name in sorted(set(old) & set(new)):
        before, after = old[name], new[name]
        if before == after:
            continue
        change = (after - before) / before if before > 0 else float("inf")
        if abs(change) > threshold:
            moved.append((name, before, after, change))
    moved.sort(key=lambda m: -abs(m[3]))
    return added, removed, moved


def report(old_path, new_path):
    """The diff of two files as printable lines."""
    old_host, old = load(old_path)
    new_host, new = load(new_path)
    added, removed, moved = diff(old, new)
    lines = []
    if old_host != new_host:
        lines.append(f"host old: {json.dumps(old_host, sort_keys=True)}")
        lines.append(f"host new: {json.dumps(new_host, sort_keys=True)}")
    for name in added:
        lines.append(f"added    {name}  {new[name]:.6g} ns/op")
    for name in removed:
        lines.append(f"removed  {name}  {old[name]:.6g} ns/op")
    for name, before, after, change in moved:
        kind = "slower" if change > 0 else "faster"
        lines.append(f"{kind:<8} {name}  {before:.6g} -> {after:.6g} ns/op "
                     f"({change * 100:+.1f} %)")
    shared = len(set(old) & set(new))
    lines.append(f"{shared} shared rows, {len(moved)} moved more than "
                 f"{THRESHOLD * 100:.0f} %; {len(added)} added, "
                 f"{len(removed)} removed")
    return lines


def main(argv):
    if len(argv) != 3:
        print("usage: python3 tools/bench_diff.py OLD.json NEW.json",
              file=sys.stderr)
        return 2
    try:
        lines = report(argv[1], argv[2])
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_diff: {e!r}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
