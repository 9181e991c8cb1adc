"""Compare two directories written by make_goldens.py, value by value.

    python tests/golden/compare.py PARENT_DIR CHANGE_DIR

Every file is read as lines of text. Each line is split into numbers and the
text between them, and the two sides must agree on that split. Text must
match exactly, which covers solver statuses and column headers; so must two
integer literals (ids, iteration and stage counts), the line count of every
file, every ``exit_code`` and the set of files. A number written with a
fraction or an exponent may drift: its relative drift is
|a - b| / max(|a|, |b|).

The script prints one line per file whose bytes differ, with the largest
relative drift among its numbers, then a summary. It exits 1 if anything
other than numeric drift differs, naming each fault, and 0 otherwise. The
file name keeps pytest from collecting it.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(
    r"(?<![\w.])([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|nan|inf))(?![\w.])"
)
INTEGER = re.compile(r"[-+]?\d+")


def _cell_drift(a: str, b: str) -> float | None:
    """Relative drift of two number tokens, or None if they may not differ."""
    if a == b:
        return 0.0
    if INTEGER.fullmatch(a) and INTEGER.fullmatch(b):
        return None
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return abs(x - y) / max(abs(x), abs(y))


def compare_file(before: Path, after: Path) -> tuple[float, str | None]:
    """(largest relative drift, fault or None) of one file pair."""
    lines_a = before.read_text().splitlines()
    lines_b = after.read_text().splitlines()
    if before.name == "exit_code" and lines_a != lines_b:
        return 0.0, f"exit code {' '.join(lines_a)} -> {' '.join(lines_b)}"
    if len(lines_a) != len(lines_b):
        return 0.0, f"{len(lines_a)} lines -> {len(lines_b)}"
    drift = 0.0
    for row, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if la == lb:
            continue
        parts_a, parts_b = NUMBER.split(la), NUMBER.split(lb)
        if len(parts_a) != len(parts_b):
            return drift, f"line {row}: {la!r} -> {lb!r}"
        for k, (a, b) in enumerate(zip(parts_a, parts_b)):
            # re.split puts the captured numbers at the odd positions.
            cell = _cell_drift(a, b) if k % 2 else (0.0 if a == b else None)
            if cell is None:
                return drift, f"line {row}: {a!r} -> {b!r}"
            drift = max(drift, cell)
    return drift, None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root_a, root_b = Path(args[0]), Path(args[1])
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    faults = [f"{rel}: only in {root_a}" for rel in sorted(files_a - files_b)]
    faults += [f"{rel}: only in {root_b}" for rel in sorted(files_b - files_a)]
    common = sorted(files_a & files_b)
    moved = []
    for rel in common:
        before, after = root_a / rel, root_b / rel
        if before.read_bytes() == after.read_bytes():
            continue
        drift, fault = compare_file(before, after)
        if fault is not None:
            faults.append(f"{rel}: {fault}")
        else:
            moved.append((rel, drift))
            print(f"moved {rel}  largest relative drift {drift:.3g}")
    top = max(moved, key=lambda item: item[1], default=None)
    summary = f"{len(common)} files compared, {len(moved)} moved"
    if top is not None:
        summary += f", largest relative drift {top[1]:.3g} in {top[0]}"
    print(summary)
    for fault in faults:
        print(f"FAULT {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
