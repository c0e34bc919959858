"""ggavqe benchmark: one client runs one solve at a time, in this process.

Run from the checkout root:

    python3 perfbench/run.py --workload ising-plan --seed 1 --seconds 40 --trace 0

The inputs are generated from ``--seed`` under ``perfbench/out/inputs/`` and
loaded through ``ggavqe.config.load_run_config``; the driver dispatch of
``ggavqe run`` (``ggavqe.cli._execute``) solves them.  Every solve's output is
checked.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fixed calibration loop, timed at the start and the end of every run, records
the host's speed next to the figures.  Per-run details go to
``perfbench/out/results/`` and the spans of the last traced solve to
``perfbench/out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("ising-plan", "ising-scan", "qeb-sampled", "overlap-cu")

MIN_SOLVES = 3
MIN_TRACED_SOLVES = 2
# Extra set-ups between solves, spread over the run so that a slow spell of
# the machine cannot hold every set-up sample.
SETUP_SECONDS_PER_SOLVE = 0.1
SETUP_MAX_REPS = 20
CALIBRATION_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    """Interpreter, library and machine facts that a measurement depends on."""
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind, size = (_read(os.path.join(base, entry, f))
                             for f in ("level", "type", "size"))
        if size:
            caches[f"L{level}-{kind}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
        "caches_per_core": caches,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "driver_threads": 1,
        "loop": "closed, one client, one solve at a time",
    }


def calibrate() -> dict:
    """Median milliseconds of two fixed loops that do not use the program.

    One is a numpy pass over a 2 MiB state, one is pure Python, like set-up.
    Taken at the start and the end of a run, they show whether the host ran
    slow then, which a change of the program cannot explain.
    """
    import numpy as np

    psi = np.random.default_rng(0).normal(size=1 << 17) + 0j
    numpy_ms, python_ms = [], []
    for _ in range(CALIBRATION_REPS):
        t0 = perf_counter()
        for _ in range(10):
            psi = np.exp(1j * psi.real) * psi
        numpy_ms.append(1e3 * (perf_counter() - t0))
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        python_ms.append(1e3 * (perf_counter() - t0))
    return {"numpy_ms": median(numpy_ms), "python_ms": median(python_ms)}


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """One run of one workload: the timed, checked solves and their metrics."""

    def __init__(self, workload, cfg_path, expected, gconfig, execute, wl):
        self.workload = workload
        self.cfg_path = cfg_path
        self.expected = expected
        self.gconfig = gconfig
        self.execute = execute
        self.wl = wl
        self.setup_samples: list[float] = []
        self.results: list[dict] = []

    def setup(self):
        t0 = perf_counter()
        rc = self.gconfig.load_run_config(self.cfg_path)
        self.setup_samples.append(perf_counter() - t0)
        return rc

    def solve(self) -> dict:
        """One set-up plus one solve, timed and checked; a crash is a failure."""
        try:
            rc = self.setup()
            t0 = perf_counter()
            trace = self.execute(rc)
            solve_s = perf_counter() - t0
        except Exception:  # recorded as a failed attempt; the run goes on
            result = {"solve_s": None, "trace": None, "digest": None,
                      "failures": [traceback.format_exc(limit=3)]}
        else:
            failures = self.wl.check_run(self.workload, trace, self.expected)
            digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
            if self.results and digest != self.results[0]["digest"]:
                failures.append("trace differs from the first solve of this run")
            result = {"solve_s": solve_s, "trace": trace, "digest": digest,
                      "failures": failures}
        self.results.append(result)
        return result

    def first_trace(self):
        return next((r["trace"] for r in self.results if r["trace"] is not None), None)

    def solve_times(self, results=None) -> list[float]:
        chosen = self.results if results is None else results
        return [r["solve_s"] for r in chosen if r["solve_s"] is not None]

    def landscapes(self) -> tuple[int, int]:
        """Screening iterations of one solve and the landscapes they screened."""
        trace = self.first_trace()
        if trace is None:
            return 0, 0
        iterations = len(trace.iterations) + ("stopping_screening" in trace.extras)
        return iterations, self.wl.pool_size(self.workload) * iterations

    def run_untraced(self, deadline: float) -> dict:
        while len(self.results) < MIN_SOLVES or perf_counter() < deadline:
            last = self.setup_samples[-1] if self.setup_samples else SETUP_SECONDS_PER_SOLVE
            for _ in range(max(1, min(SETUP_MAX_REPS, int(SETUP_SECONDS_PER_SOLVE / last)))):
                self.setup()
            self.solve()
        trace = self.first_trace()
        # A run reports its fastest set-up and solve.  The host slows by up to
        # 2x in spells that can outlast a run; any sample taken outside such
        # a spell gives the unloaded speed (see NOTES.md, "Noise").
        solve_s = min(self.solve_times(), default=0.0)
        _, landscapes = self.landscapes()
        return {
            "setup_s": (min(self.setup_samples, default=0.0), "s"),
            "solve_s": (solve_s, "s"),
            "landscapes_per_s": (landscapes / solve_s if solve_s else 0.0, "1/s"),
            "circuits": (trace.accounting["circuits"] if trace else 0, "count"),
            "objective_gap": (
                self.wl.objective_gap(self.workload, trace, self.expected) if trace else 0.0,
                "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    def run_traced(self, halfway: float, deadline: float, spans):
        """Untraced solves until ``halfway``, then traced ones until ``deadline``."""
        while len(self.results) < MIN_TRACED_SOLVES or perf_counter() < halfway:
            self.solve()
        untraced = list(self.results)
        recorder = spans.Recorder()
        cycles = []
        with spans.patched(recorder):
            while len(cycles) < MIN_TRACED_SOLVES or perf_counter() < deadline:
                recorder.clear()
                result = self.solve()
                cycle = recorder.summary()
                cycles.append(cycle)
                if result["trace"] is not None:
                    self._check_coverage(cycle, result)
        traced = self.results[len(untraced):]
        layer = {key: median([c[key] for c in cycles]) for key in cycles[0]}
        trace = self.first_trace()
        circuits = trace.accounting["circuits"] if trace else 0
        iterations, landscapes = self.landscapes()
        samples = layer["landscape.samples"]
        units = {"calls": "count", "s": "s", "self_s": "s", "bytes_computed": "B"}
        metrics = {key: (value, units.get(key.rsplit(".", 1)[1], "count"))
                   for key, value in layer.items()}
        untraced_s = median(self.solve_times(untraced))
        traced_s = median(self.solve_times(traced))
        metrics.update({
            "drivers.iterations": (iterations, "count"),
            "drivers.landscapes": (landscapes, "count"),
            "drivers.select_ratio": (
                self.workload.steps / landscapes if landscapes else 0.0, "ratio"),
            "simulator.exp_per_sample": (
                layer["simulator.apply_exp_generator.calls"] / samples if samples else 0.0,
                "ratio"),
            "measurement.circuits": (circuits, "count"),
            "measurement.shots": (trace.accounting["shots"] if trace else 0, "count"),
            "measurement.rotations_per_circuit": (
                layer["simulator.apply_one_qubit_gate.calls"] / circuits if circuits else 0.0,
                "ratio"),
            "tracing.overhead_s": (traced_s - untraced_s, "s"),
            "tracing.spans": (len(recorder.spans), "count"),
        })
        self_times = {k[: -len(".self_s")]: v for k, v in layer.items() if k.endswith(".self_s")}
        dominant = max(self_times, key=self_times.get)
        total = sum(self_times.values())
        notes = {
            "untraced_solve_s": untraced_s,
            "traced_solve_s": traced_s,
            "dominant_self_time": dominant,
            "dominant_self_share": self_times[dominant] / total if total else 0.0,
        }
        return metrics, notes, recorder

    def _check_coverage(self, cycle: dict, result: dict) -> None:
        """The traced calls must account for every circuit the trace reports.

        This fails if a module calls a kernel through a name the tracer did
        not replace.
        """
        counts = {
            "ising-plan": [cycle["measurement.measure_strings.calls"] * self.wl.PLAN_CIRCUITS],
            "ising-scan": [cycle["measurement.expectation.calls"]],
            "qeb-sampled": [
                cycle["measurement.measure_strings.groups"],
                cycle["measurement.expectation.calls"] * self.expected.auto_groups,
            ],
            "overlap-cu": [cycle["measurement.estimate_probability.calls"]],
        }[self.workload.name]
        circuits = result["trace"].accounting["circuits"]
        for counted in counts:
            if counted != circuits:
                result["failures"].append(
                    f"traced calls account for {counted} circuits, the trace reports {circuits}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ggavqe", "__init__.py")):
        print(f"error: no ggavqe sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import ggavqe
    import ggavqe.cli as gcli
    import ggavqe.config as gconfig

    import spans
    import workloads as wl

    if os.path.dirname(os.path.abspath(ggavqe.__file__)) != os.path.join(SRC, "ggavqe"):
        print(f"error: imported ggavqe from {ggavqe.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    inputs = os.path.join(OUT, "inputs", f"{workload.name}-seed{args.seed}")
    cfg_path = wl.write_inputs(workload, args.seed, inputs)
    expected = wl.expected_outputs(workload, gconfig.load_run_config(cfg_path))
    bench = Bench(workload, cfg_path, expected, gconfig, gcli._execute, wl)

    calibration = {"start": calibrate()}
    start = perf_counter()
    if args.trace == 0:
        metrics = bench.run_untraced(start + args.seconds)
        trace = bench.first_trace()
        notes = {
            "solve_median_s": median(bench.solve_times()),
            "setup_median_s": median(bench.setup_samples),
            "shots": trace.accounting["shots"] if trace else None,
            "fail_rate": sum(1 for r in bench.results if r["failures"]) / len(bench.results),
            "solves": len(bench.results),
            "setup_samples": len(bench.setup_samples),
        }
    else:
        metrics, notes, recorder = bench.run_traced(
            start + args.seconds / 2.0, start + args.seconds, spans)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        recorder.write_csv(os.path.join(OUT, "spans", f"{workload.name}-seed{args.seed}.csv"))
    wall = perf_counter() - start
    calibration["end"] = calibrate()
    for when, loops in calibration.items():
        for loop, ms in loops.items():
            notes[f"calib_{when}_{loop}"] = ms

    failed = sum(1 for r in bench.results if r["failures"])
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name}: {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in notes.items():
        print(f"  ({name} = {value:.6g})" if isinstance(value, float) else f"  ({name} = {value})")
    for i, r in enumerate(bench.results):
        for message in r["failures"]:
            print(f"  FAIL solve {i}: {message}")
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "wall_s": wall, "env": env, "notes": notes,
            "solve_s_samples": bench.solve_times(), "setup_s_samples": bench.setup_samples,
            "failures": [r["failures"] for r in bench.results], "metrics": as_json,
        }, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.results),
                      "failed": failed, "metrics": as_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
