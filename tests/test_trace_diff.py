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


def run_tool(*args):
    result = subprocess.run(
        [sys.executable, "tools/trace_diff.py", *map(str, args)],
        cwd=REPO, capture_output=True, text=True, timeout=60,
    )
    return result.returncode, result.stdout.splitlines()


def trace_diff(tmp_path, old, new, *args):
    paths = []
    for name, trace in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    return run_tool(*paths, *args)


def save_runs(directory, runs):
    """``runs`` as ``directory/<name>.json``, as ``reference_traces.py --save``
    writes them."""
    directory.mkdir()
    for name, trace in runs.items():
        (directory / f"{name}.json").write_text(json.dumps(trace), encoding="utf-8")
    return directory


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


def test_two_directories_give_one_line_per_run(tmp_path):
    old = save_runs(tmp_path / "old", {"a": TRACE, "b": TRACE})
    new = save_runs(tmp_path / "new", {
        "a": TRACE, "b": moved(["iterations", 1, "screening", 0, "value"], -2.0 + 3e-13),
    })
    code, out = run_tool(old, new)
    assert code == 0
    assert out == [
        "a: 0 non-float fields differ; no float moved",
        "b: 0 non-float fields differ; 1 floats moved, largest 3e-13 at "
        "$.iterations[1].screening[0].value (tolerance 1e-10)",
        "all 2 runs pass",
    ]
    code, out = run_tool(old, new, "--tol", "1e-13")
    assert code == 1
    assert out[1].endswith("FAILS") and out[-1] == "1 of 2 runs fail"


def test_a_failing_run_or_a_file_on_one_side_fails_the_directories(tmp_path):
    old = save_runs(tmp_path / "old", {"a": TRACE, "b": TRACE, "gone": TRACE})
    new = save_runs(tmp_path / "new", {
        "a": TRACE, "b": moved(["iterations", 1, "generator"], 2), "added": TRACE,
    })
    code, out = run_tool(old, new)
    assert code == 1
    assert out == [
        "a: 0 non-float fields differ; no float moved",
        f"added: only in {new}  FAILS",
        "b: 1 non-float fields differ; no float moved  FAILS",
        f"gone: only in {old}  FAILS",
        "3 of 4 runs fail",
    ]
    # A directory against a file is a usage error.
    code, _ = run_tool(old, new / "a.json")
    assert code == 2
