"""Compare two trace.json files: floats within a tolerance, all else equal.

The check for a change that moves exact traces in their last bits:

    python tools/trace_diff.py OLD NEW            # tolerance 1e-10
    python tools/trace_diff.py OLD NEW --tol 1e-12
    python tools/trace_diff.py OLD_DIR NEW_DIR    # every run of two --save dirs

Every field that is not a float (generator sequences, statuses, accounting,
the config echo, keys and list lengths) must be equal; each one that is not
is printed with its JSON path.  Floats may move by at most the tolerance.
The last line gives the number of moved floats and the largest move with its
path.  Exits 1 when a non-float field differs or a float moves by more than
the tolerance, 0 otherwise.

Given two directories, as written by ``tools/reference_traces.py --save``,
it compares each ``<name>.json`` with its namesake and prints one line per
run, ``<name>: <summary>``, then a count of the runs that fail.  A file on
one side only fails too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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


def check(old_path: str, new_path: str, tol: float) -> tuple[bool, list[str], str]:
    """Whether two trace files pass, the differing non-float fields and the
    summary line."""
    traces = []
    for name in (old_path, new_path):
        with open(name, encoding="utf-8") as fh:
            traces.append(json.load(fh))
    differs: list[str] = []
    moved: list[tuple[float, str]] = []
    for path, old, new, move in compare(*traces):
        if move is None:
            differs.append(f"differs at {path}: {old!r} -> {new!r}")
        else:
            moved.append((move, path))
    largest, where = max(moved, default=(0.0, None), key=lambda item: item[0])
    if where is None:
        summary = f"{len(differs)} non-float fields differ; no float moved"
    else:
        summary = (f"{len(differs)} non-float fields differ; {len(moved)} floats moved, "
                   f"largest {largest:.3g} at {where} (tolerance {tol:g})")
    return not differs and largest <= tol, differs, summary


def check_dirs(old_dir: str, new_dir: str, tol: float) -> int:
    """One line per run of two saved directories; the number that fail."""
    names = [{f for f in os.listdir(d) if f.endswith(".json")} for d in (old_dir, new_dir)]
    failed = 0
    for name in sorted(names[0] | names[1]):
        run = name[:-len(".json")]
        if name not in names[1]:
            ok, summary = False, f"only in {old_dir}"
        elif name not in names[0]:
            ok, summary = False, f"only in {new_dir}"
        else:
            ok, _, summary = check(os.path.join(old_dir, name), os.path.join(new_dir, name), tol)
        failed += not ok
        print(f"{run}: {summary}{'' if ok else '  FAILS'}")
    total = len(names[0] | names[1])
    print(f"{failed} of {total} runs fail" if failed else f"all {total} runs pass")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="largest allowed move of a float (default 1e-10)")
    args = parser.parse_args(argv)
    if os.path.isdir(args.old) or os.path.isdir(args.new):
        if not (os.path.isdir(args.old) and os.path.isdir(args.new)):
            parser.error("OLD and NEW must both be files or both be directories")
        return 1 if check_dirs(args.old, args.new, args.tol) else 0
    ok, differs, summary = check(args.old, args.new, args.tol)
    for line in differs:
        print(line)
    print(summary)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
