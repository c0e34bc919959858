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
transverse-field Ising chain), and 2M+9 with the 2-D pair step (its 8 pair
samples); a sampled evaluation costs one circuit per group of H's greedy
qubit-wise plan.  After a frozen append, exact planned screening reads
again only the plan strings that fail to commute with the appended body;
it still charges the plan's group count.
Overlap screening builds no node state and no generator image: with
a = <target|state>, c = <target|B|state> and d = <target|B^2|state>, read
from string values, a node at angle t has
<target|node> = a cos t - i c sin t (involutory B) or
a + (cos t - 1) d - i c sin t (tripotent B), and each sample is still one
overlap circuit.

Every driver returns a :class:`RunTrace` that echoes its configuration,
records the full per-generator screening table of each iteration, snapshots
the backend accounting, and carries the final ansatz; replaying that ansatz
reproduces the recorded exact objective bit for bit.  For the energy drivers
that objective is ``ExpectationBackend.exact_value``, in either backend mode
and charging nothing: <H> read from the string values of H's greedy plan, as
unplanned exact screening reads each node's <H>.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import landscape as ls
from .landscape import LandscapeModel
from .measurement import (
    CTX_ENERGY, CTX_OVERLAP, CTX_PAIR, CTX_PLAN, CTX_SCREEN, CTX_SWEEP,
    ExpectationBackend, _exact_string_values, _transition_values,
    overlap_compute_uncompute, overlap_swap_test, screening_plan,
)
from .pauli import PauliSum, commutes
from .pools import Pool
from .records import IterationRecord, RunTrace, ScreeningTable, StopRule
from .simulator import (
    TRIPOTENT, Ansatz, Generator, InitialState, StateVector, apply_exp_generator, check_norm,
    exp_combination, fidelity, gram_norm, inner_product, replay, wrap_angle,
)

POOL_EXHAUSTED_TOLERANCE = 1e-12
SELECTION_TIE_TOLERANCE = 1e-12
DEFAULT_MIN_OVERLAP_GAIN = 1e-4
SWEEP_IMPROVEMENT_TOLERANCE = 1e-10
DEFAULT_SWEEP_CAP = 50

OVERLAP_METHODS = ("compute_uncompute", "swap_test")


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
    compiled into one linear map from the plan's measured strings to <H>
    and every model coefficient, so one iteration costs exactly the plan's
    group count.  Without a plan, each generator is sampled at its pinned
    nodes with the theta = 0 expectation shared.

    Exact planned screening is incremental.  The objective keeps the string
    values of the state it last screened; when the loop reports that
    generators were appended onto that state with their angles frozen, a
    string P that commutes with every term of every appended body keeps its
    value, since exp(i t B) P exp(-i t B) = P, and only the other (stale)
    members are read again.  The stale positions of each generator are
    cached by id, as the plan is fixed.  The first screen, screens after a
    step that rebuilt the state (``adapt``), sampled screens and unplanned
    screens read every member; every planned screen still charges the
    plan's group count.
    """

    mode = "energy"
    gain_key = "drop"
    sign = 1.0  # selection minimizes sign * value
    exhausted_below = POOL_EXHAUSTED_TOLERANCE
    # Looked up per call, so a wrapped ``ls.minimize`` is the one that runs.
    optimum = staticmethod(lambda model: ls.minimize(model))

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
            observables = [ls.coefficient_observables(h, gen) for gen in pool]
            self.plan = screening_plan(
                self.n_qubits, [op for obs in observables for op in obs.values()]
            )
            # Row 0 is <H>; then each generator's other coefficients, in order.
            self._keys = [[key for key in obs if key != "h"] for obs in observables]
            self._values_of = self.plan.linear_map(
                [h] + [obs[key] for obs, keys in zip(observables, self._keys) for key in keys]
            )
        self._strings = None  # the plan values of the last screened state (exact mode)
        self._stale_of: dict[int, np.ndarray] = {}

    def _stale(self, gen: Generator) -> np.ndarray:
        """Positions of the plan members that fail to commute with some term
        of ``gen``'s body, cached by generator id."""
        if gen.gid not in self._stale_of:
            terms = gen.body.strings()
            self._stale_of[gen.gid] = np.array([
                i for i, ps in enumerate(self.plan.index)
                if not all(commutes(ps, term) for term in terms)
            ], dtype=np.intp)
        return self._stale_of[gen.gid]

    def screen(self, state: StateVector, iteration: int,
               appended: list[Generator] | None = None) -> tuple[float, list[LandscapeModel]]:
        """e0 and every generator's landscape on ``state``.  ``appended``
        lists the generators applied, angles frozen, to the state screened
        last to give ``state``; None when that is not so."""
        if self.plan is not None:
            reuse = {}
            if appended is not None and self._strings is not None:
                stale = np.unique(np.concatenate([self._stale(gen) for gen in appended]))
                reuse = {"previous": self._strings, "stale": stale}
            strings = self.backend.measure_strings(
                state, self.plan, context=(CTX_PLAN, iteration), **reuse
            )
            if self.backend.is_exact:
                self._strings = strings
            values = iter(self._values_of(strings).tolist())
            e0 = next(values)
            return e0, [
                LandscapeModel(gen.kind, gen.angle_scale, e0, **{key: next(values) for key in keys})
                for gen, keys in zip(self.pool, self._keys)
            ]
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
        """The noiseless <H> of the final state, in either backend mode,
        charging nothing: read from string values, as exact screening is."""
        return self.backend.exact_value(state, self.h)


class _OverlapObjective:
    """|<target|state>|^2, maximized; each landscape sample is one overlap
    circuit through the chosen method, on the carried state.

    A sample's fidelity and node norm come from string values, not from a
    node state or generator image.  With G = -iB, the overlaps
    <target|G^k state> = (-i)^k <target|B^k|state> (k <= 1, or 2 when B is
    tripotent) feed the closed form of ``exp(-i t B)``; the Gram entries
    <G^j state|G^k state> = i^(j-k) <B^(j+k)> give the norm, checked as
    ``apply_exp_generator`` checks it, and as the powers of B are built
    symbolically, a misclassified body still fails that check.
    """

    mode = "overlap"
    gain_key = "gain"
    sign = -1.0
    exhausted_below = None
    optimum = staticmethod(lambda model: ls.maximize(model))  # per call, as above

    def __init__(self, target: Ansatz | StateVector, pool: Pool,
                 backend: ExpectationBackend, method: str):
        if method not in OVERLAP_METHODS:
            raise ValueError(f"unknown overlap method {method!r}")
        if len(pool) == 0:
            raise ValueError("empty operator pool")
        self.n_qubits = pool.n_qubits
        if target.n_qubits != self.n_qubits:
            raise ValueError("target register size does not match the pool")
        self.pool = pool
        self.backend = backend
        self.method = method
        self.target_state = (
            target if isinstance(target, StateVector) else replay(target, pool.by_id())
        )
        # Per generator, B^1 .. B^(2m) for its m = 1 or 2 images G^k state.
        powers = [[gen.body] for gen in pool]
        for gen, ops in zip(pool, powers):
            for _ in range(3 if gen.kind == TRIPOTENT else 1):
                ops.append(ops[-1] @ gen.body)
        moments = [op for ops in powers for op in ops]
        self._plan = screening_plan(self.n_qubits, moments)
        self._moments_of = self._plan.linear_map(moments)
        self._overlaps_of = self._plan.linear_map(
            [op for ops in powers for op in ops[:len(ops) // 2]]  # B^1 .. B^m
        )

    def fidelity_of(self, f: float, context: tuple[int, ...]) -> float:
        """One circuit of the chosen method on a state of fidelity ``f``."""
        if self.method == "swap_test":
            return overlap_swap_test(self.backend, f, context=context)
        return overlap_compute_uncompute(self.backend, f, context=context)

    def landscape_inputs(self, state: StateVector) -> tuple[complex, list[tuple]]:
        """a = <target|state> and, per generator, its overlaps (a, c[, d])
        and the Gram matrix of its images, read from string values; the
        identity term of a power reads a in an overlap, <state|state> in a
        Gram entry, so a state off the unit sphere still fails the check."""
        a = inner_product(self.target_state, state)
        norm2 = inner_product(state, state).real
        values = _transition_values(self.target_state, state, self._plan)
        overlaps = iter((self._overlaps_of(values.real, a.real)
                         + 1j * self._overlaps_of(values.imag, a.imag)).tolist())
        moments = iter(self._moments_of(_exact_string_values(state, self._plan), norm2).tolist())
        inputs = []
        for gen in self.pool:
            m = 2 if gen.kind == TRIPOTENT else 1
            power = [norm2] + [next(moments) for _ in range(2 * m)]
            inputs.append((
                (a,) + tuple((-1j) ** k * next(overlaps) for k in range(1, m + 1)),
                np.array([[1j ** ((j - k) % 4) * power[j + k] for k in range(m + 1)]
                          for j in range(m + 1)]),
            ))
        return a, inputs

    def screen(self, state: StateVector, iteration: int,
               appended: list[Generator] | None = None) -> tuple[float, list[LandscapeModel]]:
        a, inputs = self.landscape_inputs(state)
        f0 = self.fidelity_of(abs(a) ** 2, (CTX_OVERLAP, iteration, 0, 0))
        state_norm = state.norm()

        def landscape(gen, overlaps, gram) -> LandscapeModel:
            def sample(node: float, tag: int) -> float:
                t = gen.angle_scale * (node / gen.angle_scale)  # as apply_exp_generator
                check_norm(gen, state_norm, gram_norm(gen.kind, t, gram))
                return self.fidelity_of(
                    abs(exp_combination(gen.kind, t, overlaps)) ** 2,
                    (CTX_OVERLAP, iteration, gen.gid + 1, tag),
                )

            return ls.reconstruct_from_samples(gen, sample, f0)

        return f0, [landscape(gen, *gen_inputs) for gen, gen_inputs in zip(self.pool, inputs)]

    @staticmethod
    def gain(f0: float, value: float) -> float:
        return value - f0

    def exact(self, state: StateVector) -> float:
        return fidelity(self.target_state, state)


class _Step(NamedTuple):
    """The extended ansatz, its state and predicted objective; ``stop_after``
    ends the run once this iteration is recorded.  ``frozen`` says the state
    is the screened one with the new steps applied and every earlier angle
    kept; a step that reoptimizes earlier angles sets it False."""

    ansatz: Ansatz
    state: StateVector
    value: float
    stop_after: str | None = None
    frozen: bool = True


def _greedy_loop(objective: _EnergyObjective | _OverlapObjective, pool: Pool,
                 initial: InitialState | StateVector, backend: ExpectationBackend,
                 stop: StopRule, rule: Callable, config: dict,
                 report_gradient: bool = False) -> RunTrace:
    """Screen the pool, check the stop rule, let ``rule`` append; repeat.

    ``rule(iteration, ansatz, state, e0, optima, gradients)`` returns a
    :class:`_Step`, or the status to stop with before appending anything.
    After a ``frozen`` step the next screen is told the appended generators.
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
    appended = None  # the generators applied, angles frozen, since the last screen
    while stop.max_operators is None or len(ansatz.steps) < stop.max_operators:
        iteration += 1
        e0, models = objective.screen(state, iteration, appended)
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
        appended = [pool[gid] for gid, _ in added] if step.frozen else None
        trace.iterations.append(IterationRecord(
            iteration=iteration,
            e0=e0,
            selected_ids=[gid for gid, _ in added],
            selected_labels=[pool[gid].label for gid, _ in added],
            angles=[theta for _, theta in added],
            predicted_value=step.value,
            screening=screening,
            accounting=asdict(backend.accounting),
        ))
        if step.stop_after is not None:
            status = step.stop_after
            break
    trace.status = status
    trace.ansatz = ansatz
    trace.accounting = asdict(backend.accounting)
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
        return _Step(ansatz, replay(ansatz, generators), energy,
                     "converged" if converged else None, frozen=False)

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
    overlap circuit through the chosen method (compute-uncompute or swap
    test), earlier angles stay frozen, and the run
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

    The top two generators (by predicted 1-D drop, each picked by the
    selection tie rule of ``gga_vqe``: optima within 1e-12 go to the smaller
    id) are reconstructed as a 2-D landscape, the pair angle is optimized
    jointly, and both operators are appended in ranked order.
    ``max_operators`` must be even.
    """
    if len(pool) < 2:
        raise ValueError("the 2-D driver needs a pool of at least 2 generators")
    check_stop("gga2d", stop)
    objective = _EnergyObjective(h, pool, backend, False)
    if any(gen.kind != "involutory" for gen in pool):
        raise ValueError("the 2-D driver requires an involutory pool")

    def step(iteration, ansatz, state, e0, optima, gradients):
        # Landscapes equal up to rounding rank by id, not by their last bits.
        entries = [(gen.gid, value) for gen, (_, value) in zip(pool, optima)]
        first = _select_minimum(entries)
        second = _select_minimum([entry for entry in entries if entry[0] != first])
        status = _gain_status(objective, e0 - optima[first][1], stop.min_energy_decrease)
        if status is not None:
            return status
        gen1, gen2 = pool[first], pool[second]
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
