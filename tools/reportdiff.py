"""Name every field that moved between two report JSONs.

    python3 tools/reportdiff.py A B

A and B are two reports of the same kind: a ``projdiff run`` report, the
``acceptance.json`` of ``projdiff verify-all --out``, or a perfbench
result.  Both are walked together.  Float fields are grouped by their path
with list indices dropped (``probes[].difference.sines[]``); a list item
that is an object with a string ``name``, such as an acceptance clause, is
addressed by that name instead (``clauses[8-projection-identity]``).  For
every path where some float moved, the largest absolute move |a - b| and
the largest relative move |a - b| / max(|a|, |b|) are printed, with the
number of fields that moved, the largest absolute move first.  NaN equals
NaN, so a field that is NaN in both reports has not moved.

Every other difference is a change: of a boolean, an integer, a string or
null, of a key set or a list length, of a value's type, or a float that is
NaN or infinite in one report only.  Each is printed, and then the exit
status is 1; it is 0 when only floats moved, or nothing.  There is no
tolerance: a float that moved by one bit is listed.
"""

import argparse
import json
import math
import sys


def _walk(a, b, path, moves, changes):
    """Compare a and b at ``path``: float moves into ``moves`` (path ->
    [count, largest abs, largest rel]), other differences into ``changes``."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            changes.append(f"{path or '.'}: keys only in A {sorted(a.keys() - b.keys())}, "
                           f"only in B {sorted(b.keys() - a.keys())}")
        for key in sorted(a.keys() & b.keys()):
            _walk(a[key], b[key], f"{path}.{key}" if path else key, moves, changes)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            changes.append(f"{path}: length {len(a)} -> {len(b)}")
        for x, y in zip(a, b):
            name = x.get("name") if isinstance(x, dict) and isinstance(y, dict) else None
            item = f"[{name}]" if isinstance(name, str) and name == y.get("name") else "[]"
            _walk(x, y, path + item, moves, changes)
    elif type(a) is float and type(b) is float:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        if not (math.isfinite(a) and math.isfinite(b)):
            changes.append(f"{path}: {a!r} -> {b!r}")
            return
        move = abs(a - b)
        entry = moves.setdefault(path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], move)
        entry[2] = max(entry[2], move / max(abs(a), abs(b)))
    elif type(a) is not type(b) or a != b:
        changes.append(f"{path}: {a!r} -> {b!r}")


def diff(a, b):
    """(moves, changes) of two parsed reports: see the module docstring."""
    moves, changes = {}, []
    _walk(a, b, "", moves, changes)
    return moves, changes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="the first report JSON")
    parser.add_argument("b", help="the second report JSON")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.a, args.b):
        with open(path) as fh:
            reports.append(json.load(fh))
    moves, changes = diff(*reports)
    for path, (count, move, rel) in sorted(moves.items(), key=lambda kv: (-kv[1][1], kv[0])):
        print(f"moved   {path}: abs {move:.3g}, rel {rel:.3g} ({count} field{'s' * (count > 1)})")
    for change in changes:
        print(f"CHANGED {change}")
    print(f"{sum(c for c, _, _ in moves.values())} float fields moved in {len(moves)} paths; "
          f"{len(changes)} other changes")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
