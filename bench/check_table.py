#!/usr/bin/env python3
"""Compare a paper-table printout against its checked-in expected output.

Usage: check_table.py <expected.txt> <actual.txt>

Both files are the stdout of a table bench (e.g. `table1_main seismic`).
Every line must match, except that the "Online opt (s)" column of each
text table is dropped before comparing: it is process CPU time, the one
column that varies run to run. Cells are compared with their padding
stripped, so a CPU-time value of a different width does not shift the rest
of the row. Exits 1 and prints each differing line otherwise.
"""

import sys

IGNORED_COLUMN = "Online opt (s)"


def normalized(path):
    lines = []
    ignored = None  # index of the ignored column in the current table
    with open(path) as f:
        for line in f.read().splitlines():
            if not line.startswith("|"):
                ignored = None
                lines.append(line)
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if IGNORED_COLUMN in cells:
                ignored = cells.index(IGNORED_COLUMN)
            if ignored is not None and ignored < len(cells):
                del cells[ignored]
            lines.append(" | ".join(cells))
    return lines


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    expected, actual = normalized(argv[1]), normalized(argv[2])
    failures = 0
    for i in range(max(len(expected), len(actual))):
        want = expected[i] if i < len(expected) else "<missing>"
        got = actual[i] if i < len(actual) else "<missing>"
        if want != got:
            failures += 1
            print(f"line {i + 1}:\n  expected: {want}\n  actual:   {got}")
    if failures:
        print(f"{argv[2]}: {failures} line(s) differ from {argv[1]}")
        return 1
    print(f"{argv[2]}: matches {argv[1]} (every column but {IGNORED_COLUMN!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
