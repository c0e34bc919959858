"""``tools/trace_diff.py``: floats may move within the tolerance, nothing
else may change."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACE = {
    "ansatz": {"steps": [[3, 0.25], [1, -1.5]]},
    "iterations": [
        {"generator": 3, "status": "accepted", "screening": [{"gid": 3, "value": -1.0}]},
        {"generator": 1, "status": "accepted", "screening": [{"gid": 1, "value": -2.0}]},
    ],
    "accounting": {"circuits": 10, "shots": 0},
}


def trace_diff(tmp_path, old, new, *args):
    paths = []
    for name, trace in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    result = subprocess.run(
        [sys.executable, "tools/trace_diff.py", *paths, *args],
        cwd=REPO, capture_output=True, text=True, timeout=60,
    )
    return result.returncode, result.stdout.splitlines()


def moved(path, value):
    """``TRACE`` with ``value`` at the key path ``path``."""
    trace = json.loads(json.dumps(TRACE))
    node = trace
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return trace


def test_identical_traces_pass(tmp_path):
    code, out = trace_diff(tmp_path, TRACE, TRACE)
    assert code == 0
    assert out == ["0 non-float fields differ; no float moved"]


def test_floats_within_the_tolerance_pass_and_the_largest_move_is_named(tmp_path):
    new = moved(["iterations", 1, "screening", 0, "value"], -2.0 + 3e-13)
    new["ansatz"]["steps"][0][1] = 0.25 + 1e-14
    code, out = trace_diff(tmp_path, TRACE, new)
    assert code == 0
    assert out[-1].startswith("0 non-float fields differ; 2 floats moved, largest 3e-13 at "
                              "$.iterations[1].screening[0].value")
    # The same moves fail a tighter tolerance.
    code, _ = trace_diff(tmp_path, TRACE, new, "--tol", "1e-13")
    assert code == 1


def test_a_changed_generator_id_fails(tmp_path):
    code, out = trace_diff(tmp_path, TRACE, moved(["iterations", 1, "generator"], 2))
    assert code == 1
    assert out[0] == "differs at $.iterations[1].generator: 1 -> 2"


def test_a_float_beyond_the_tolerance_or_a_changed_structure_fails(tmp_path):
    for new in (
        moved(["iterations", 0, "screening", 0, "value"], -1.0 + 1e-9),
        moved(["iterations", 0, "status"], "stopped"),
        moved(["accounting", "circuits"], 10.0),
        moved(["iterations", 0, "screening"], []),
        moved(["accounting", "extra"], 0),
        moved(["iterations", 0, "screening", 0, "value"], float("nan")),
    ):
        code, _ = trace_diff(tmp_path, TRACE, new)
        assert code == 1, new
