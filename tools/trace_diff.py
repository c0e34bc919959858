"""Compare two trace.json files: floats within a tolerance, all else equal.

The check for a change that moves exact traces in their last bits:

    python tools/trace_diff.py OLD NEW            # tolerance 1e-10
    python tools/trace_diff.py OLD NEW --tol 1e-12

Every field that is not a float (generator sequences, statuses, accounting,
the config echo, keys and list lengths) must be equal; each one that is not
is printed with its JSON path.  Floats may move by at most the tolerance.
The last line gives the number of moved floats and the largest move with its
path.  Exits 1 when a non-float field differs or a float moves by more than
the tolerance, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def compare(old, new, path: str = "$"):
    """Yield ``(path, old, new, move)`` for every leaf that differs; ``move``
    is the absolute change of a float leaf and None for any other leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            yield path, sorted(old), sorted(new), None
            return
        for key in old:
            yield from compare(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}.length", len(old), len(new), None
            return
        for i, (a, b) in enumerate(zip(old, new)):
            yield from compare(a, b, f"{path}[{i}]")
    elif type(old) is float and type(new) is float:
        if old != new and not (math.isnan(old) and math.isnan(new)):
            move = abs(old - new)
            yield path, old, new, math.inf if math.isnan(move) else move
    elif type(old) is not type(new) or old != new:
        yield path, old, new, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="largest allowed move of a float (default 1e-10)")
    args = parser.parse_args(argv)
    traces = []
    for name in (args.old, args.new):
        with open(name, encoding="utf-8") as fh:
            traces.append(json.load(fh))
    changed = 0
    moved: list[tuple[float, str]] = []
    for path, old, new, move in compare(*traces):
        if move is None:
            changed += 1
            print(f"differs at {path}: {old!r} -> {new!r}")
        else:
            moved.append((move, path))
    largest, where = max(moved, default=(0.0, None), key=lambda item: item[0])
    if where is None:
        print(f"{changed} non-float fields differ; no float moved")
    else:
        print(f"{changed} non-float fields differ; {len(moved)} floats moved, "
              f"largest {largest:.3g} at {where} (tolerance {args.tol:g})")
    return 1 if changed or largest > args.tol else 0


if __name__ == "__main__":
    sys.exit(main())
