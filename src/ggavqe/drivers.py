"""The adaptive drivers: one greedy loop behind four entry points.

Each iteration screens the pool by reconstructing every generator's 1-D
landscape against the current state, checks the stop rule, and lets a step
rule append operators; the state is carried forward, never replayed.  The
loop takes an objective, the energy <H> (minimized) or the fidelity with a
target state (maximized: |target><target| in place of H), and a step rule:
the best single generator at its analytic optimum (``gga_vqe``,
``overlap_gga_vqe``), the top two jointly optimized on a 2-D landscape
(``gga_vqe_2d``), or the largest gradient followed by Rotoselect-style
coordinate sweeps over every angle (``adapt_vqe``, the only rule that
revisits an angle).  Every driver is gradient-free in the quantum-evaluation
sense: all angles come from analytic landscapes.

Screening shares the theta = 0 value across the pool, so one iteration over
M generators costs 2M+1 evaluations (involutory pools), 4M+1 (tripotent
pools), the plan's group count with a measurement plan (five for the
transverse-field Ising chain), and at most 9M with the 2-D pair step.

Every driver returns a :class:`RunTrace` that echoes its configuration,
records the full per-generator screening table of each iteration, snapshots
the backend accounting, and carries the final ansatz; replaying that ansatz
on the exact simulator reproduces the recorded exact objective.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import landscape as ls
from .landscape import LandscapeModel
from .measurement import (
    CTX_ENERGY, CTX_OVERLAP, CTX_PAIR, CTX_PLAN, CTX_SCREEN, CTX_SWEEP,
    ExpectationBackend,
    overlap_compute_uncompute, overlap_swap_test, screening_plan, value_from_strings,
)
from .pauli import PauliSum
from .pools import Pool
from .records import IterationRecord, RunTrace, ScreeningTable, StopRule
from .simulator import (
    Ansatz, InitialState, StateVector, apply_exp_generator,
    expectation as exact_expectation, fidelity, replay, wrap_angle,
)

POOL_EXHAUSTED_TOLERANCE = 1e-12
SELECTION_TIE_TOLERANCE = 1e-12
DEFAULT_MIN_OVERLAP_GAIN = 1e-4
SWEEP_IMPROVEMENT_TOLERANCE = 1e-10
DEFAULT_SWEEP_CAP = 50

OVERLAP_METHODS = ("exact", "compute_uncompute", "swap_test")


def check_stop(kind: str, stop: StopRule) -> None:
    """Reject stop criteria that the driver ``kind`` cannot honour."""
    if kind == "gga2d" and stop.max_operators is not None and stop.max_operators % 2:
        raise ValueError("the 2-D driver appends operators in pairs: max_operators must be even")
    if kind == "overlap" and stop.min_energy_decrease is not None:
        raise ValueError(
            "the overlap driver has no energy to decrease: "
            "use driver.min_overlap_gain, not min_energy_decrease"
        )


class _EnergyObjective:
    """<H>, minimized.

    With ``use_plan``, the coefficient observables of every generator are
    assembled symbolically once, grouped into one screening plan, and
    evaluated from the plan's measured strings, so one iteration costs
    exactly the plan's group count.  Without a plan, each generator is
    sampled at its pinned nodes with the theta = 0 expectation shared.
    """

    mode = "energy"
    gain_key = "drop"
    sign = 1.0  # selection minimizes sign * value
    exhausted_below = POOL_EXHAUSTED_TOLERANCE
    optimum = staticmethod(ls.minimize)

    def __init__(self, h: PauliSum, pool: Pool, backend: ExpectationBackend,
                 use_plan: bool):
        if len(pool) == 0:
            raise ValueError("empty operator pool")
        if not h.is_hermitian():
            raise ValueError("the energy drivers need a hermitian Hamiltonian")
        self.h = h
        self.n_qubits = h.n_qubits
        self.pool = pool
        self.backend = backend
        self.plan = None
        if use_plan:
            self._observables = [ls.coefficient_observables(h, gen) for gen in pool]
            self.plan = screening_plan(
                self.n_qubits, [op for obs in self._observables for op in obs.values()]
            )

    def screen(self, state: StateVector, iteration: int) -> tuple[float, list[LandscapeModel]]:
        if self.plan is not None:
            values = self.backend.measure_strings(state, self.plan, context=(CTX_PLAN, iteration))
            models = [
                ls.model_from_observables(
                    gen, {name: value_from_strings(op, values) for name, op in obs.items()}
                )
                for gen, obs in zip(self.pool, self._observables)
            ]
            return value_from_strings(self.h, values), models
        e0 = self.backend.expectation(state, self.h, context=(CTX_ENERGY, iteration))
        return e0, [
            ls.reconstruct(
                self.backend, self.h, gen, state,
                shared_e0=e0, context=(CTX_SCREEN, iteration, gen.gid),
            )
            for gen in self.pool
        ]

    @staticmethod
    def gain(e0: float, value: float) -> float:
        return e0 - value

    def exact(self, state: StateVector) -> float:
        return exact_expectation(state, self.h)


class _OverlapObjective:
    """|<target|state>|^2, maximized; each landscape sample is one overlap
    evaluation through the chosen method, on the carried state."""

    mode = "overlap"
    gain_key = "gain"
    sign = -1.0
    exhausted_below = None
    optimum = staticmethod(ls.maximize)

    def __init__(self, target: Ansatz | StateVector, pool: Pool,
                 backend: ExpectationBackend, method: str):
        if method not in OVERLAP_METHODS:
            raise ValueError(f"unknown overlap method {method!r}")
        if len(pool) == 0:
            raise ValueError("empty operator pool")
        self.n_qubits = pool.n_qubits
        if isinstance(target, StateVector):
            target = Ansatz(self.n_qubits, InitialState("custom", vector=target.amplitudes))
        if target.n_qubits != self.n_qubits:
            raise ValueError("target register size does not match the pool")
        self.pool = pool
        self.backend = backend
        self.method = method
        self.target_state = replay(target, pool.by_id())

    def fidelity_of(self, state: StateVector, context: tuple[int, ...]) -> float:
        if self.method == "swap_test":
            return overlap_swap_test(self.backend, self.target_state, state, context=context)
        # "exact" reads F as compute-uncompute does: one circuit sampling F.
        return overlap_compute_uncompute(self.backend, self.target_state, state, context=context)

    def screen(self, state: StateVector, iteration: int) -> tuple[float, list[LandscapeModel]]:
        f0 = self.fidelity_of(state, (CTX_OVERLAP, iteration, 0, 0))

        def landscape(gen) -> LandscapeModel:
            def sample(node: float, tag: int) -> float:
                return self.fidelity_of(
                    apply_exp_generator(state, gen, node / gen.angle_scale),
                    (CTX_OVERLAP, iteration, gen.gid + 1, tag),
                )

            return ls.reconstruct_from_samples(gen, sample, f0)

        return f0, [landscape(gen) for gen in self.pool]

    @staticmethod
    def gain(f0: float, value: float) -> float:
        return value - f0

    def exact(self, state: StateVector) -> float:
        return fidelity(self.target_state, state)


class _Step(NamedTuple):
    """The extended ansatz, its state and predicted objective; ``stop_after``
    ends the run once this iteration is recorded."""

    ansatz: Ansatz
    state: StateVector
    value: float
    stop_after: str | None = None


def _greedy_loop(objective: _EnergyObjective | _OverlapObjective, pool: Pool,
                 initial: InitialState | StateVector, backend: ExpectationBackend,
                 stop: StopRule, rule: Callable, config: dict,
                 report_gradient: bool = False) -> RunTrace:
    """Screen the pool, check the stop rule, let ``rule`` append; repeat.

    ``rule(iteration, ansatz, state, e0, optima, gradients)`` returns a
    :class:`_Step`, or the status to stop with before appending anything.
    """
    if isinstance(initial, StateVector):
        initial = InitialState("custom", vector=initial.amplitudes)
    n = objective.n_qubits
    trace = RunTrace(mode=objective.mode, n_qubits=n, pool_name=pool.name,
                     backend=backend.describe(), stop=asdict(stop), config=config)
    ansatz = Ansatz(n, initial)
    state = initial.prepare(n)
    ids, labels = tuple(gen.gid for gen in pool), tuple(gen.label for gen in pool)
    status = "max_operators"
    iteration = 0
    while stop.max_operators is None or len(ansatz.steps) < stop.max_operators:
        iteration += 1
        e0, models = objective.screen(state, iteration)
        optima = [objective.optimum(m) for m in models]
        gradients = [abs(m.derivative_at_zero) for m in models]
        angles, values = np.array(optima).T
        screening = ScreeningTable(ids, labels, {
            **({"gradient": gradients} if report_gradient else {}),
            "angle": angles, "value": values, objective.gain_key: objective.gain(e0, values),
        })
        if stop.gradient_epsilon is not None and max(gradients) < stop.gradient_epsilon:
            step = "gradient_below_epsilon"
        else:
            step = rule(iteration, ansatz, state, e0, optima, gradients)
        if isinstance(step, str):
            status = step
            trace.extras["stopping_screening"] = screening
            break
        added = step.ansatz.steps[len(ansatz.steps):]
        ansatz, state = step.ansatz, step.state
        trace.iterations.append(IterationRecord(
            iteration=iteration,
            e0=e0,
            selected_ids=[gid for gid, _ in added],
            selected_labels=[pool[gid].label for gid, _ in added],
            angles=[theta for _, theta in added],
            predicted_value=step.value,
            screening=screening,
            accounting=backend.accounting.snapshot(),
        ))
        if step.stop_after is not None:
            status = step.stop_after
            break
    trace.status = status
    trace.ansatz = ansatz
    trace.accounting = backend.accounting.snapshot()
    trace.exact_objective = objective.exact(state)
    trace.final_objective = (
        trace.iterations[-1].predicted_value if trace.iterations else trace.exact_objective
    )
    return trace


def _select_minimum(entries: list[tuple[int, float]]) -> int:
    """Index of the smallest value; ties within 1e-12 go to the smaller id."""
    best = min(v for _, v in entries)
    tied = [gid for gid, v in entries if v <= best + SELECTION_TIE_TOLERANCE]
    return min(tied)


def _gain_status(objective, gain: float, min_gain: float | None) -> str | None:
    """The stop status when the best predicted gain is too small, else None."""
    if objective.exhausted_below is not None and gain < objective.exhausted_below:
        return "pool_exhausted"
    if min_gain is not None and gain < min_gain:
        return "converged"
    return None


def _best_single(objective, pool: Pool, min_gain: float | None) -> Callable:
    """Append the generator with the best analytic optimum, at that angle."""

    def step(iteration, ansatz, state, e0, optima, gradients):
        gid = _select_minimum([(g.gid, objective.sign * v) for g, (_, v) in zip(pool, optima)])
        theta, value = optima[gid]
        status = _gain_status(objective, objective.gain(e0, value), min_gain)
        if status is not None:
            return status
        ansatz = ansatz.extended(gid, wrap_angle(theta))
        return _Step(ansatz, apply_exp_generator(state, pool[gid], ansatz.steps[-1][1]), value)

    return step


def gga_vqe(
    h: PauliSum,
    pool: Pool,
    initial: InitialState | StateVector,
    backend: ExpectationBackend,
    stop: StopRule,
    use_plan: bool = False,
    config: dict | None = None,
) -> RunTrace:
    """Greedy gradient-free adaptive VQE.

    Each iteration reconstructs every generator's landscape, appends the
    exponential of the generator whose analytic minimum is lowest (angle
    included, never reoptimized), and stops on the rule or when no generator
    can lower the energy.  With ``use_plan`` every iteration is screened
    through one measurement plan synthesised from the pool's coefficient
    observables.
    """
    objective = _EnergyObjective(h, pool, backend, use_plan)
    rule = _best_single(objective, pool, stop.min_energy_decrease)
    return _greedy_loop(objective, pool, initial, backend, stop, rule, dict(config or {}))


def adapt_vqe(
    h: PauliSum,
    pool: Pool,
    initial: InitialState | StateVector,
    backend: ExpectationBackend,
    stop: StopRule,
    use_plan: bool = False,
    sweep_cap: int = DEFAULT_SWEEP_CAP,
    config: dict | None = None,
) -> RunTrace:
    """Baseline adaptive driver: gradient selection, global reoptimization.

    The generator with the largest |dL/dtheta at 0| is appended, then all
    angles are reoptimized by backward-and-forward analytic coordinate
    sweeps until a sweep improves the energy by less than 1e-10 (or the
    sweep cap is hit).  ``min_energy_decrease`` compares the energies of
    consecutive iterations.  With ``use_plan`` the screening and every sweep
    evaluation go through the screening plan.
    """
    objective = _EnergyObjective(h, pool, backend, use_plan)
    generators = pool.by_id()
    previous_energy = None

    def sweeps(ansatz: Ansatz, iteration: int) -> tuple[Ansatz, float]:
        """Coordinate-descent reoptimization of every angle via 1-D landscapes."""

        def energy_of(a: Ansatz, tag: tuple[int, ...]) -> float:
            return backend.expectation(
                replay(a, generators), h, plan=objective.plan,
                context=(CTX_SWEEP, iteration) + tag,
            )

        current = energy_of(ansatz, (0, 0, 0))
        for sweep in range(1, sweep_cap + 1):
            positions = list(range(len(ansatz.steps)))
            for order, k in enumerate(reversed(positions) if sweep % 2 else positions):
                gen = generators[ansatz.steps[k][0]]

                def sample(node: float, tag: int, k=k, gen=gen, order=order) -> float:
                    return energy_of(
                        ansatz.with_angle(k, node / gen.angle_scale), (sweep, order + 1, tag)
                    )

                model = ls.reconstruct_from_samples(gen, sample, sample(0.0, 0))
                ansatz = ansatz.with_angle(k, ls.minimize(model)[0])
            new_energy = energy_of(ansatz, (sweep, 0, 9))
            if current - new_energy < SWEEP_IMPROVEMENT_TOLERANCE:
                return ansatz, min(current, new_energy)
            current = new_energy
        return ansatz, current

    def step(iteration, ansatz, state, e0, optima, gradients):
        nonlocal previous_energy
        if max(gradients) <= 0.0 and e0 - min(v for _, v in optima) < POOL_EXHAUSTED_TOLERANCE:
            return "pool_exhausted"
        gid = _select_minimum([(gen.gid, -grad) for gen, grad in zip(pool, gradients)])
        ansatz, energy = sweeps(ansatz.extended(gid, wrap_angle(optima[gid][0])), iteration)
        converged = (
            stop.min_energy_decrease is not None
            and previous_energy is not None
            and previous_energy - energy < stop.min_energy_decrease
        )
        previous_energy = energy
        return _Step(ansatz, replay(ansatz, generators), energy, "converged" if converged else None)

    return _greedy_loop(objective, pool, initial, backend, stop, step, dict(config or {}),
                        report_gradient=True)


def overlap_gga_vqe(
    target: Ansatz | StateVector,
    pool: Pool,
    initial: InitialState | StateVector,
    overlap_method: str,
    backend: ExpectationBackend,
    stop: StopRule,
    min_overlap_gain: float = DEFAULT_MIN_OVERLAP_GAIN,
    config: dict | None = None,
) -> RunTrace:
    """Greedy overlap maximization toward a target state.

    The ``gga_vqe`` loop with the effective Hamiltonian |target><target| and
    maximization instead of minimization: every landscape sample is one
    overlap evaluation through the chosen method (compute-uncompute, swap
    test, or the exact simulator), earlier angles stay frozen, and the run
    stops once no generator's predicted gain reaches ``min_overlap_gain``.
    """
    check_stop("overlap", stop)
    objective = _OverlapObjective(target, pool, backend, overlap_method)
    rule = _best_single(objective, pool, min_overlap_gain)
    config = dict(config or {}, overlap_method=overlap_method, min_overlap_gain=min_overlap_gain)
    return _greedy_loop(objective, pool, initial, backend, stop, rule, config)


def gga_vqe_2d(
    h: PauliSum,
    pool: Pool,
    initial: InitialState | StateVector,
    backend: ExpectationBackend,
    stop: StopRule,
    config: dict | None = None,
) -> RunTrace:
    """Two operators per iteration: rank by 1-D drops, jointly optimize.

    The top two generators (by predicted 1-D drop) are reconstructed as a
    2-D landscape, the pair angle is optimized jointly, and both operators
    are appended in ranked order.  ``max_operators`` must be even.
    """
    if len(pool) < 2:
        raise ValueError("the 2-D driver needs a pool of at least 2 generators")
    check_stop("gga2d", stop)
    objective = _EnergyObjective(h, pool, backend, False)
    if any(gen.kind != "involutory" for gen in pool):
        raise ValueError("the 2-D driver requires an involutory pool")

    def step(iteration, ansatz, state, e0, optima, gradients):
        ranked = sorted(range(len(pool)), key=lambda gid: (optima[gid][1], gid))
        status = _gain_status(objective, e0 - optima[ranked[0]][1], stop.min_energy_decrease)
        if status is not None:
            return status
        gen1, gen2 = pool[ranked[0]], pool[ranked[1]]
        model = ls.reconstruct_2d(
            backend, h, gen1, gen2, state, shared_e0=e0, context=(CTX_PAIR, iteration)
        )
        theta1, theta2, value = ls.minimize_2d(model)
        ansatz = ansatz.extended(gen1.gid, wrap_angle(theta1))
        ansatz = ansatz.extended(gen2.gid, wrap_angle(theta2))
        state = apply_exp_generator(state, gen1, ansatz.steps[-2][1])
        state = apply_exp_generator(state, gen2, ansatz.steps[-1][1])
        return _Step(ansatz, state, value)

    return _greedy_loop(objective, pool, initial, backend, stop, step,
                        dict(config or {}, dimensions=2))
