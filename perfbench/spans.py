"""Span and count recording around the public names of the ggavqe modules.

Tracing replaces a function in every ``ggavqe`` module namespace that holds
it (modules import kernels by name, so patching only the defining module
would miss those call sites), and replaces methods on their class.  Each call
records one span: name, start, end and parent.  Spans stay in memory; the
caller aggregates them per cycle and writes them out when the run ends.

The recorder keeps a single call stack, so it assumes one thread
(``driver.threads = 1``).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  "Class.method" attributes patch the class.
TRACED = (
    ("config", "load_run_config", "config.load_run_config"),
    ("hamiltonians", "build_ising", "hamiltonians.build_ising"),
    ("hamiltonians", "map_molecular_hamiltonian", "hamiltonians.map_molecular_hamiltonian"),
    ("pools", "qeb_pool", "pools.qeb_pool"),
    ("pauli", "commutator", "pauli.commutator"),
    ("pauli", "conjugate_by", "pauli.conjugate_by"),
    ("simulator", "apply_pauli_sum", "simulator.apply_pauli_sum"),
    ("simulator", "expectation", "simulator.expectation"),
    ("simulator", "apply_one_qubit_gate", "simulator.apply_one_qubit_gate"),
    ("simulator", "apply_exp_generator", "simulator.apply_exp_generator"),
    ("simulator", "replay", "simulator.replay"),
    ("measurement", "ExpectationBackend.measure_strings", "measurement.measure_strings"),
    ("measurement", "ExpectationBackend.expectation", "measurement.expectation"),
    ("measurement", "ExpectationBackend.estimate_probability", "measurement.estimate_probability"),
    ("measurement", "greedy_qubitwise_plan", "measurement.greedy_qubitwise_plan"),
    ("measurement", "overlap_compute_uncompute", "measurement.overlap_compute_uncompute"),
    ("landscape", "coefficient_observables", "landscape.coefficient_observables"),
    ("landscape", "reconstruct", "landscape.reconstruct"),
    ("landscape", "reconstruct_from_samples", "landscape.reconstruct_from_samples"),
    ("landscape", "minimize", "landscape.minimize"),
    ("landscape", "maximize", "landscape.maximize"),
    ("drivers", "gga_vqe", "drivers"),
    ("drivers", "overlap_gga_vqe", "drivers"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))

# Bytes one term pass of apply_pauli_sum touches per amplitude: read psi,
# read and write the output (complex128).  Computed from sizes, not measured.
PAULI_PASS_BYTES_PER_AMPLITUDE = 48


def _count_pauli_sum(counts, args, kwargs):
    state, h = args[0], args[1]
    counts["simulator.apply_pauli_sum.term_passes"] += len(h)
    counts["simulator.apply_pauli_sum.bytes_computed"] += (
        len(h) * state.amplitudes.size * PAULI_PASS_BYTES_PER_AMPLITUDE
    )
    return args, kwargs


def _count_replay(counts, args, kwargs):
    counts["simulator.replay.steps"] += len(args[0].steps)
    return args, kwargs


def _count_groups(counts, args, kwargs):
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    counts["measurement.measure_strings.groups"] += len(plan.groups)
    return args, kwargs


def _count_samples(counts, args, kwargs):
    """Wrap the sample callable so that every landscape sample adds one."""
    generator, sample, *rest = args

    def counted(*a, **k):
        counts["landscape.samples"] += 1
        return sample(*a, **k)

    return (generator, counted, *rest), kwargs


# A counter runs before its call and returns the arguments to call with.
COUNTERS = {
    "simulator.apply_pauli_sum": _count_pauli_sum,
    "simulator.replay": _count_replay,
    "measurement.measure_strings": _count_groups,
    "landscape.reconstruct_from_samples": _count_samples,
}
COUNTER_NAMES = (
    "simulator.apply_pauli_sum.term_passes",
    "simulator.apply_pauli_sum.bytes_computed",
    "simulator.replay.steps",
    "measurement.measure_strings.groups",
    "landscape.samples",
)


class Recorder:
    """In-memory spans ``[name, start, end, parent]`` plus named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(index)
            if count is not None:
                args, kwargs = count(self.counts, args, kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span[1], span[2] = start, end

        return traced

    def summary(self) -> dict[str, float]:
        """calls, inclusive seconds and self seconds per span name, plus counts.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, so that is their summed duration.
        """
        child_time = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        for name in COUNTER_NAMES:
            out[name] = self.counts[name]
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


@contextmanager
def patched(recorder: Recorder):
    """Swap every traced name for its recording wrapper; restore on exit."""
    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if key == "ggavqe" or key.startswith("ggavqe.")]
    try:
        for module_name, attr, span_name in TRACED:
            home = sys.modules[f"ggavqe.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, recorder.wrap(span_name, original))
                continue
            original = getattr(home, attr)
            wrapper = recorder.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
