"""Compare two acceptance-artifact directories value by value.

For a change that moves rounding on purpose: write the artifacts of checks
1-7 and 9 on both commits with scripts/acceptance_artifacts.py, then run

    python scripts/artifact_diff.py /tmp/before /tmp/after

Every .json, .jsonl and .csv file is parsed and walked in parallel with its
twin.  For each file that differs the script prints how many floats changed
and the largest absolute and relative change among them, then lists the
changed strings (run hashes) separately.  Booleans (verdicts) and integers
must not change, and neither may the structure (files, keys, lengths,
types).  Other files are compared byte for byte and reported as strings.

Exit status: 0 when only floats and strings differ, 1 when any boolean,
integer or structure differs.

Usage: python scripts/artifact_diff.py A B
"""

import argparse
import csv
import json
from pathlib import Path


def _cell(text):
    """A CSV cell as the value it spells: bool, int, float or str."""
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines() if line]
    if path.suffix == ".csv":
        with path.open(newline="") as handle:
            return [[_cell(c) for c in row] for row in csv.reader(handle)]
    return path.read_bytes().hex()


class FileDiff:
    def __init__(self):
        self.floats = 0
        self.changed = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.strings = []  # (where, a, b)
        self.breaks = []   # (where, a, b): booleans, integers, structure

    def walk(self, a, b, where):
        if type(a) is not type(b):
            self.breaks.append((where, a, b))
        elif isinstance(a, dict):
            if list(a) != list(b):
                self.breaks.append((where, sorted(a), sorted(b)))
                return
            for key in a:
                self.walk(a[key], b[key], f"{where}.{key}")
        elif isinstance(a, list):
            if len(a) != len(b):
                self.breaks.append((where, f"{len(a)} items", f"{len(b)} items"))
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.walk(x, y, f"{where}[{i}]")
        elif isinstance(a, float):
            self.floats += 1
            if a != b and not (a != a and b != b):  # NaN == NaN here
                self.changed += 1
                gap = abs(a - b)
                self.max_abs = max(self.max_abs, gap)
                self.max_rel = max(self.max_rel, gap / max(abs(a), abs(b)))
        elif isinstance(a, str):
            if a != b:
                self.strings.append((where, a, b))
        elif a != b:  # bool, int, None
            self.breaks.append((where, a, b))


def _short(value):
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="artifact directory of the parent")
    parser.add_argument("b", type=Path, help="artifact directory of the change")
    args = parser.parse_args()
    names_a = {p.relative_to(args.a) for p in args.a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(args.b) for p in args.b.rglob("*") if p.is_file()}
    broken = False
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {args.a if name in names_a else args.b}")
        broken = True
    for name in sorted(names_a & names_b):
        if (args.a / name).read_bytes() == (args.b / name).read_bytes():
            continue
        diff = FileDiff()
        diff.walk(load(args.a / name), load(args.b / name), "$")
        print(f"{name}: {diff.changed} of {diff.floats} floats changed, "
              f"max abs {diff.max_abs:.3g}, max rel {diff.max_rel:.3g}; "
              f"{len(diff.strings)} strings changed")
        for where, a, b in diff.strings:
            print(f"  string {where}: {_short(a)} -> {_short(b)}")
        for where, a, b in diff.breaks:
            print(f"  DIFFERS {where}: {_short(a)} -> {_short(b)}")
        broken = broken or bool(diff.breaks)
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
