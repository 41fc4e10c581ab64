#!/usr/bin/env python3
"""Per-file line coverage from a gcc --coverage build, standard library only.

Usage:
    python3 tools/gcov_report.py BUILD_DIR PATTERN [PATTERN ...]

Runs `gcov --json-format --stdout` on every .gcda file under BUILD_DIR
(so run the tests first), merges the line counts of each source file
across all translation units that compiled it (a header's inline code is
covered wherever it ran), and prints one row per source file whose path
relative to the repository root matches a PATTERN (fnmatch syntax, e.g.
'src/svc/*') and has instrumented lines, plus a total row.

It only reports; there is no threshold.  It exits non-zero when BUILD_DIR
holds no .gcda files or no source file matches, so a build without
coverage data cannot pass for a report.
"""

import fnmatch
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gcov_documents(gcda):
    """The JSON documents gcov prints for one .gcda file."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "-o", os.path.dirname(gcda), gcda],
        cwd=os.path.dirname(gcda), capture_output=True, text=True, check=True,
    ).stdout
    decoder = json.JSONDecoder()
    at = 0
    while True:
        while at < len(out) and out[at].isspace():
            at += 1
        if at >= len(out):
            return
        doc, at = decoder.raw_decode(out, at)
        yield doc


def merge_lines(build_dir):
    """{source path relative to ROOT: {line number: executed?}}."""
    lines = {}
    found = False
    for dirpath, _, names in os.walk(build_dir):
        for name in sorted(names):
            if not name.endswith(".gcda"):
                continue
            found = True
            for doc in gcov_documents(os.path.join(dirpath, name)):
                cwd = doc.get("current_working_directory", dirpath)
                for entry in doc.get("files", []):
                    path = os.path.normpath(os.path.join(cwd, entry["file"]))
                    merged = lines.setdefault(os.path.relpath(path, ROOT), {})
                    for line in entry.get("lines", []):
                        number = line["line_number"]
                        merged[number] = merged.get(number, False) or line["count"] > 0
    if not found:
        sys.exit("gcov_report: no .gcda files under %s (run the tests of a "
                 "--coverage build first)" % build_dir)
    return lines


def main(argv):
    if len(argv) < 3:
        sys.exit("usage: gcov_report.py BUILD_DIR PATTERN [PATTERN ...]")
    build_dir, patterns = argv[1], argv[2:]
    lines = merge_lines(build_dir)
    rows = sorted(path for path, covered in lines.items()
                  if covered and any(fnmatch.fnmatch(path, p) for p in patterns))
    if not rows:
        sys.exit("gcov_report: no covered source matches %s" % " ".join(patterns))
    width = max(len(path) for path in rows)
    print("%-*s %8s %8s %8s" % (width, "file", "hit", "lines", "cover"))
    hit_total = line_total = 0
    for path in rows:
        hit = sum(lines[path].values())
        total = len(lines[path])
        hit_total += hit
        line_total += total
        print("%-*s %8d %8d %7.1f%%" % (width, path, hit, total, 100.0 * hit / total))
    print("%-*s %8d %8d %7.1f%%" % (width, "TOTAL", hit_total, line_total,
                                    100.0 * hit_total / line_total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
