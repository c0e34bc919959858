"""Recompute the trace.json digests of the reference runs.

A refactor that claims to keep behaviour must keep these bytes.  The runs are
the four bundled configs plus their ``stop.*``, ``driver.*`` and
``backend.mode`` variants, and the benchmark's ``ising-plan``,
``qeb-sampled`` and ``overlap-cu`` inputs at seeds 1 and 2, plus the
``qeb-sampled`` seed-1 input planned, sampled and exact; each goes
through ``ggavqe.cli.main`` into a temporary directory, with BLAS held to
one thread unless the environment sets its thread count.

    python tools/reference_traces.py                 # print "name sha256"
    python tools/reference_traces.py --check tools/reference_traces.txt
    python tools/reference_traces.py --save DIR      # also keep DIR/<name>.json

``--check`` exits 1 when any digest differs from the listed one.  ``--save``
writes each run's ``trace.json`` as ``DIR/<name>.json``, so traces saved from
two commits compare run by run with ``tools/trace_diff.py``:

    python tools/trace_diff.py OLD NEW

A benchmark-input run, named ``<workload>-seed<seed>``, writes its inputs
with ``perfbench/workloads.py`` into a temporary working directory, at the
path ``perfbench/out/inputs/<workload>-seed<seed>`` that ``perfbench/run.py``
uses from the repo root.  Its config echoes those paths, so its digest is
that of ``ggavqe run perfbench/out/inputs/<workload>-seed<seed>/run.cfg``
from the repo root; nothing under the repo's ``perfbench/`` is written.  A
run with ``--set`` overrides appends ``+<key>=<value>`` per override to that
name, e.g. ``qeb-sampled-seed1+use_plan=on``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ISING = "configs/ising_n6.cfg"
SAMPLED = "configs/ising_n6_sampled.cfg"
CHAIN = "configs/chain_n5.cfg"
OVERLAP = "configs/overlap_hf_toy.cfg"
QEB_TARGET = "configs/qeb_hf_target.ansatz"

# (name, config, --set overrides)
RUNS = (
    ("chain_n5", CHAIN, ()),
    ("ising_n6", ISING, ()),
    ("ising_n6_sampled", SAMPLED, ()),
    ("overlap_hf_toy", OVERLAP, ()),
    ("ising_n6+adapt", ISING, ("driver.kind=adapt",)),
    ("ising_n6+gga2d", ISING, ("driver.kind=gga2d",)),
    ("ising_n6_sampled+adapt", SAMPLED, ("driver.kind=adapt",)),
    ("ising_n6_sampled+gga2d", SAMPLED, ("driver.kind=gga2d",)),
    ("ising_n6+gradient_epsilon=0.5", ISING, ("stop.gradient_epsilon=0.5",)),
    ("ising_n6+min_energy_decrease=0.05", ISING, ("stop.min_energy_decrease=0.05",)),
    ("ising_n6+adapt+min_energy_decrease=0.01", ISING,
     ("driver.kind=adapt", "stop.min_energy_decrease=0.01")),
    ("ising_n6+adapt+gradient_epsilon=0.3", ISING,
     ("driver.kind=adapt", "stop.gradient_epsilon=0.3")),
    ("ising_n6+gga2d+min_energy_decrease=0.05", ISING,
     ("driver.kind=gga2d", "stop.min_energy_decrease=0.05")),
    ("ising_n6+use_plan=off", ISING, ("driver.use_plan=off",)),
    ("ising_n6_sampled+use_plan=off", SAMPLED, ("driver.use_plan=off",)),
    ("chain_n5+adapt", CHAIN, ("driver.kind=adapt",)),
    ("chain_n5+hw+gga2d", CHAIN, ("pool.name=qubit_hardware_efficient", "driver.kind=gga2d")),
    ("chain_n5+sampled", CHAIN, ("backend.mode=sampled",)),
    ("chain_n5+sampled+use_plan=off", CHAIN, ("backend.mode=sampled", "driver.use_plan=off")),
    ("chain_n5+qeb+sampled", CHAIN,
     ("pool.name=qeb", "backend.mode=sampled", "driver.use_plan=off", "stop.max_operators=3")),
    ("chain_n5+qeb+plan", CHAIN,
     ("pool.name=qeb", "initial.kind=hartree-fock:2", "driver.use_plan=on", "stop.max_operators=3")),
    ("chain_n5+qeb+plan+sampled", CHAIN,
     ("pool.name=qeb", "initial.kind=hartree-fock:2", "driver.use_plan=on", "stop.max_operators=3",
      "backend.mode=sampled")),
    ("overlap_hf_toy+min_overlap_gain=0.02", OVERLAP, ("driver.min_overlap_gain=0.02",)),
) + tuple(
    (f"chain_n5+qeb+overlap+compute_uncompute+{mode}", CHAIN,
     ("driver.kind=overlap", "pool.name=qeb", "initial.kind=hartree-fock:2",
      f"driver.target_ansatz={QEB_TARGET}", "driver.overlap_method=compute_uncompute",
      "stop.max_operators=4", f"backend.mode={mode}"))
    for mode in ("exact", "sampled")
) + tuple(
    (f"overlap_hf_toy+{method}+{mode}", OVERLAP,
     (f"driver.overlap_method={method}", f"backend.mode={mode}"))
    for method in ("compute_uncompute", "swap_test")
    for mode in ("exact", "sampled")
)

# (workload, seed, --set overrides) of the benchmark-input runs.  The
# planned QEB runs screen the benchmark molecule through its 264-group plan.
BENCHMARK_INPUTS = tuple(
    (workload, seed, ())
    for workload in ("ising-plan", "qeb-sampled", "overlap-cu")
    for seed in (1, 2)
) + (
    ("qeb-sampled", 1, ("driver.use_plan=on",)),
    ("qeb-sampled", 1, ("driver.use_plan=on", "backend.mode=exact")),
)


def _input_name(workload: str, seed: int, overrides: tuple[str, ...]) -> str:
    """``<workload>-seed<seed>``, then ``+<key>=<value>`` per override,
    without the key's section."""
    return f"{workload}-seed{seed}" + "".join(
        "+" + item.split(".", 1)[1] for item in overrides
    )


NAMES = tuple(name for name, _, _ in RUNS) + tuple(
    _input_name(*run) for run in BENCHMARK_INPUTS
)


def _workloads():
    """``perfbench/workloads.py`` as a module, imported without writing its
    bytecode next to it."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@contextlib.contextmanager
def _working_directory(path: str):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def digests(save: str | None = None) -> list[tuple[str, str]]:
    """Each run's name and trace digest; with ``save``, each trace is also
    written to ``save/<name>.json``."""
    from ggavqe.cli import main

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        bench = os.path.join(tmp, "bench")
        os.makedirs(bench)
        with _working_directory(bench):
            wl = _workloads()
            inputs = [
                (_input_name(w, s, overrides),
                 wl.write_inputs(wl.WORKLOADS[w], s, f"perfbench/out/inputs/{w}-seed{s}"),
                 overrides)
                for w, s, overrides in BENCHMARK_INPUTS
            ]
        runs = [(run, ROOT) for run in RUNS] + [(run, bench) for run in inputs]
        for (name, config, overrides), cwd in runs:
            directory = os.path.join(tmp, "traces", name)
            argv = ["run", config, "--output", directory]
            for item in overrides:
                argv += ["--set", item]
            with _working_directory(cwd), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{name}: ggavqe run exited with {code}")
            with open(os.path.join(directory, "trace.json"), "rb") as fh:
                data = fh.read()
            if save is not None:
                with open(os.path.join(save, f"{name}.json"), "wb") as fh:
                    fh.write(data)
            out.append((name, hashlib.sha256(data).hexdigest()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with a saved 'name sha256' list")
    parser.add_argument("--save", metavar="DIR",
                        help="also write each run's trace.json as DIR/<name>.json")
    args = parser.parse_args(argv)
    save = None
    if args.save:
        save = os.path.abspath(args.save)
        os.makedirs(save, exist_ok=True)
    # BLAS reads its thread count once, when numpy is first imported.  One
    # thread unless the environment sets a count: the digests must not
    # depend on it, and CI checks them under two threads as well.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, "1")
    expected = None
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            expected = dict(line.split() for line in fh if line.strip())
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    differ = 0
    for name, digest in digests(save):
        mark = ""
        if expected is not None and expected.get(name) != digest:
            differ += 1
            mark = f"  DIFFERS (listed {expected.get(name)})"
        print(f"{name} {digest}{mark}")
    if expected is not None:
        missing = sorted(set(expected) - set(NAMES))
        for name in missing:
            print(f"{name} not run  DIFFERS (listed {expected[name]})")
        differ += len(missing)
        print(f"{differ} of {len(NAMES)} differ" if differ else f"all {len(NAMES)} match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
