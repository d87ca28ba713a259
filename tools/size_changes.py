#!/usr/bin/env python3
"""Size the changed numbers between two versions of one reclab output file.

usage: tools/size_changes.py OLD NEW

For a CSV, each column whose values differ gets one line: its largest
absolute change and its largest relative change, each with the data row
(1 = the first after the header) where it occurs and, when the file has
columns n and N_n, that row's L * 2**-52 with L = N_n + n, the exact DP's
word length: the size of its rounding.  For the stdout of ``reclab theta``
or ``reclab pa``, lines "name value", each changed number gets one line
with its absolute and relative change.  A changed header, row count, text
cell or line that is not a number gets one line saying so.  Nothing is
printed when the files agree.  tools/compare_outputs.sh runs this on each
differing CSV and theta/pa stdout.
"""

import csv
import math
import sys


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _change(old, new):
    """(|new - old|, relative to |old|), or None if either is not a number."""
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return None
    d = abs(b - a)
    return d, d / abs(a) if a else (math.inf if d else 0.0)


def _csv_lines(old_path, new_path):
    with open(old_path, newline="") as fh:
        old = list(csv.reader(fh))
    with open(new_path, newline="") as fh:
        new = list(csv.reader(fh))
    if not old or not new or old[0] != new[0]:
        return ["header differs"]
    header = old[0]
    out = [] if len(old) == len(new) else [f"{len(old) - 1} vs {len(new) - 1} rows"]

    def at(row):
        if {"n", "N_n"} <= set(header):
            cells = dict(zip(header, old[row]))
            length = _number(cells["N_n"]) + _number(cells["n"])
            return f"row {row} (L*2^-52 {length * 2.0 ** -52:.3g})"
        return f"row {row}"

    for c, column in enumerate(header):
        changes, text = [], []
        for row, (a, b) in enumerate(zip(old[1:], new[1:]), start=1):
            size = _change(a[c], b[c]) if a[c] != b[c] else 0
            if size is None:
                text.append(row)
            elif size:
                changes.append((size, row))
        if changes:
            (d, _), row_d = max(changes, key=lambda x: x[0][0])
            (_, r), row_r = max(changes, key=lambda x: x[0][1])
            out.append(f"{column}: |d| {d:.3g} at {at(row_d)}, rel {r:.3g} at {at(row_r)}")
        if text:
            out.append(f"{column}: text differs at row {text[0]}")
    return out


def _stdout_lines(old_path, new_path):
    with open(old_path) as fh:
        old = fh.read().splitlines()
    with open(new_path) as fh:
        new = fh.read().splitlines()
    out = [] if len(old) == len(new) else [f"{len(old)} vs {len(new)} lines"]
    for k, (a, b) in enumerate(zip(old, new), start=1):
        if a == b:
            continue
        (key_a, _, value_a), (key_b, _, value_b) = a.partition(" "), b.partition(" ")
        size = _change(value_a, value_b) if key_a == key_b else None
        if size is None:
            out.append(f"line {k}: text differs")
        else:
            out.append(f"{key_a}: |d| {size[0]:.3g}, rel {size[1]:.3g}")
    return out


def main(argv):
    old_path, new_path = argv
    lines = (_csv_lines if new_path.endswith(".csv") else _stdout_lines)(old_path, new_path)
    for line in lines:
        print(f"size: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
