"""Expectation backends, commuting-group measurement plans, and overlap
estimation.

Measurement convention (pinned): on hardware and in sampled mode a string is
estimated in the computational basis after rotating each of its qubits, with
H for an X letter and S-dagger followed by H for a Y letter; Z letters need no
rotation.  A plan group is a per-qubit basis assignment plus the member
strings measurable under it, so a group costs one circuit regardless of how
many members it carries.  Exact mode skips the rotations and reads every
member string's expectation straight from the amplitudes, but charges the
same one circuit per group.

Accounting counts one circuit-equivalent per (group, state) evaluation; an
unplanned exact expectation counts as a single evaluation and an unplanned
sampled expectation builds a deterministic greedy qubit-wise grouping and
counts its groups.  This makes the five-circuit Ising claim and the 2M+1 /
4M+1 screening totals machine-checkable from the run trace.

Sampled mode is deterministic given the seed: every evaluation derives its
own RNG stream from the seed plus the caller-supplied context tuple (purpose,
iteration, generator, ...), so the order of evaluations cannot change the
draws.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, PauliSum, qubitwise_commutes
from .simulator import (
    StateVector,
    apply_one_qubit_gate,
    fidelity,
    expectation as exact_expectation,
)

DEFAULT_SHOTS = 2500

_H_GATE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_SDG_GATE = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=np.complex128)

# Context tags for RNG substreams.
CTX_ENERGY = 0
CTX_SCREEN = 1
CTX_PLAN = 2
CTX_OVERLAP = 3
CTX_SWEEP = 4
CTX_PAIR = 5


@dataclass(frozen=True)
class MeasurementGroup:
    """Strings measurable together under one per-qubit basis assignment."""

    basis: tuple[tuple[int, str], ...]  # (qubit, letter) for rotated qubits
    members: tuple[PauliString, ...]

    def basis_map(self) -> dict[int, str]:
        return dict(self.basis)


@dataclass(frozen=True)
class MeasurementPlan:
    n_qubits: int
    groups: tuple[MeasurementGroup, ...]

    def strings(self) -> set[PauliString]:
        out: set[PauliString] = set()
        for group in self.groups:
            out.update(group.members)
        return out

    def uncovered(self, h: PauliSum) -> list[str]:
        """Labels of the non-identity strings of ``h`` that no group measures."""
        have = self.strings()
        return [ps.label() for ps in h.strings() if not ps.is_identity() and ps not in have]

    def validate(self) -> None:
        seen: set[PauliString] = set()
        for group in self.groups:
            basis = group.basis_map()
            for ps in group.members:
                if ps in seen:
                    raise ValueError(f"string {ps.label()} appears in two groups")
                seen.add(ps)
                for q in range(ps.n_qubits):
                    letter = ps.letter(q)
                    if letter != "I" and basis.get(q) != letter:
                        raise ValueError(
                            f"string {ps.label()} incompatible with group basis"
                        )
            for i, a in enumerate(group.members):
                for b in group.members[i + 1:]:
                    if not qubitwise_commutes(a, b):
                        raise ValueError(
                            f"{a.label()} and {b.label()} do not qubit-wise commute"
                        )


def group_from_members(n_qubits: int, members: list[PauliString]) -> MeasurementGroup:
    basis: dict[int, str] = {}
    for ps in members:
        for q in range(n_qubits):
            letter = ps.letter(q)
            if letter == "I":
                continue
            if basis.setdefault(q, letter) != letter:
                raise ValueError("members do not share a measurement basis")
    return MeasurementGroup(tuple(sorted(basis.items())), tuple(members))


def _first_fit(n_qubits: int, strings: list[PauliString]) -> MeasurementPlan:
    """Put each string, in the given order, into the first group whose
    members it all qubit-wise commutes with, opening a group when none fits."""
    groups: list[list[PauliString]] = []
    for ps in strings:
        for group in groups:
            if all(qubitwise_commutes(ps, member) for member in group):
                group.append(ps)
                break
        else:
            groups.append([ps])
    return MeasurementPlan(
        n_qubits, tuple(group_from_members(n_qubits, g) for g in groups)
    )


def greedy_qubitwise_plan(h: PauliSum) -> MeasurementPlan:
    """Deterministic first-fit grouping of a sum's strings (canonical order)."""
    return _first_fit(h.n_qubits, [ps for ps in h.strings() if not ps.is_identity()])


def screening_plan(n_qubits: int, observables: Iterable[PauliSum]) -> MeasurementPlan:
    """One group cover of every non-identity string of ``observables``.

    Strings are grouped first-fit in sorted insertion order: descending
    popcount of the X mask, then canonical order (Crawford et al.,
    arXiv:1908.06942).  Over the minimal pool this order gives the circuit
    counts the method claims, five groups for the transverse-field Ising
    chain and nine (eight at three qubits) for general spin chains, which
    the tests check as properties; canonical order gives ten for chains.
    """
    strings = {ps for op in observables for ps in op.strings() if not ps.is_identity()}
    plan = _first_fit(
        n_qubits, sorted(strings, key=lambda ps: (-ps.x.bit_count(), ps.sort_key()))
    )
    plan.validate()
    return plan


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass
class Accounting:
    circuits: int = 0
    shots: int = 0
    clamp_warnings: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "circuits": self.circuits,
            "shots": self.shots,
            "clamp_warnings": self.clamp_warnings,
        }


class ExpectationBackend:
    """Exact or shot-sampled evaluation of expectations and probabilities.

    Exact mode is deterministic; sampled mode is deterministic given the
    seed, and every sampled call must carry a non-empty context.  Accounting
    is monotone.
    """

    def __init__(self, mode: str = "exact", shots: int = DEFAULT_SHOTS, seed: int = 0):
        if mode not in ("exact", "sampled"):
            raise ValueError(f"unknown backend mode {mode!r}")
        if mode == "sampled" and shots <= 0:
            raise ValueError("sampled mode needs a positive shot count")
        self.mode = mode
        self.shots = shots
        self.seed = seed
        self.accounting = Accounting()
        self._auto_plans: dict[tuple, MeasurementPlan] = {}

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def describe(self) -> dict:
        out = {"mode": self.mode}
        if self.mode == "sampled":
            out["shots"] = self.shots
            out["seed"] = self.seed
        return out

    # -- internals ---------------------------------------------------------

    def _rng(self, context: tuple[int, ...], *tags: int) -> np.random.Generator:
        if not context:
            raise ValueError("a sampled evaluation needs a non-empty context")
        key = tuple(int(c) & 0xFFFFFFFF for c in context + tags)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def _count(self, circuits: int, shots: int = 0) -> None:
        self.accounting.circuits += circuits
        self.accounting.shots += shots

    def _auto_plan(self, h: PauliSum) -> MeasurementPlan:
        key = h.cache_key()
        plan = self._auto_plans.get(key)
        if plan is None:
            plan = greedy_qubitwise_plan(h)
            self._auto_plans[key] = plan
        return plan

    # -- expectations ------------------------------------------------------

    def expectation(
        self,
        state: StateVector,
        h: PauliSum,
        plan: MeasurementPlan | None = None,
        context: tuple[int, ...] = (),
    ) -> float:
        """<state| h |state>, through the plan when one is given."""
        if plan is None and self.is_exact:
            self._count(1)
            return exact_expectation(state, h)
        if not h.is_hermitian():
            raise ValueError("expectation requires a hermitian Pauli sum")
        if plan is None:
            plan = self._auto_plan(h)
        missing = plan.uncovered(h)
        if missing:
            raise ValueError(f"plan does not cover {missing}")
        return value_from_strings(h, self.measure_strings(state, plan, context=context))

    def measure_strings(
        self,
        state: StateVector,
        plan: MeasurementPlan,
        context: tuple[int, ...] = (),
    ) -> dict[PauliString, float]:
        """Estimate every member string of the plan on one state.

        Costs ``len(plan.groups)`` circuit-equivalents (times ``shots``
        samples each in sampled mode).  Exact mode computes the values
        without rotating the state.
        """
        if self.is_exact:
            self._count(len(plan.groups))
            return _exact_string_values(state, plan)
        values: dict[PauliString, float] = {}
        outcomes = np.arange(1 << state.n_qubits)
        for gidx, group in enumerate(plan.groups):
            rotated = state
            for q, letter in group.basis:
                if letter == "X":
                    rotated = apply_one_qubit_gate(rotated, _H_GATE, q)
                elif letter == "Y":
                    rotated = apply_one_qubit_gate(rotated, _SDG_GATE, q)
                    rotated = apply_one_qubit_gate(rotated, _H_GATE, q)
            probs = np.abs(rotated.amplitudes) ** 2
            rng = self._rng(context, gidx)
            counts = rng.multinomial(self.shots, probs / probs.sum())
            for ps in group.members:
                # Integer parity sums: no BLAS dot, so no thread-dependent bits.
                odd = int(np.dot(counts, np.bitwise_count(outcomes & ps.support) & 1))
                values[ps] = (self.shots - 2 * odd) / self.shots
        self._count(len(plan.groups), self.shots * len(plan.groups))
        return values

    def estimate_probability(self, p: float, context: tuple[int, ...] = ()) -> float:
        """One circuit whose outcome frequency estimates probability ``p``."""
        p = min(max(p, 0.0), 1.0)
        if self.is_exact:
            self._count(1)
            return p
        rng = self._rng(context)
        hits = rng.binomial(self.shots, p)
        self._count(1, self.shots)
        return hits / float(self.shots)

    def note_clamp(self) -> None:
        self.accounting.clamp_warnings += 1


def _exact_string_values(
    state: StateVector, plan: MeasurementPlan
) -> dict[PauliString, float]:
    """<P> for every member string of the plan, read from the amplitudes.

    For P = i^{n_y} X^x Z^z, <P> = Re[i^{n_y} sum_i conj(psi[i ^ x]) s_z(i) psi[i]]
    with s_z(i) = (-1)^popcount(z & i).  Members sharing an X mask share one
    product w = conj(flip(psi, x)) * psi; a member's signed sum is w summed
    over the axes off its Z support, then differenced along each Z axis.
    """
    n = state.n_qubits
    psi = state.amplitudes.reshape((2,) * n)
    values: dict[PauliString, float] = dict.fromkeys(
        ps for group in plan.groups for ps in group.members
    )
    by_x: dict[int, list[PauliString]] = {}
    for ps in values:
        by_x.setdefault(ps.x, []).append(ps)
    # Axis n-1-q of the (2,)*n tensor is qubit q (as in apply_pauli_sum).
    for x, members in by_x.items():
        w = np.conj(np.flip(psi, tuple(n - 1 - q for q in range(n) if x >> q & 1)))
        w *= psi
        for ps in members:
            off = tuple(n - 1 - q for q in range(n) if not ps.z >> q & 1)
            total = w.sum(axis=off)
            while total.ndim:
                total = total[0] - total[1]
            values[ps] = float(((1j) ** (ps.n_y % 4) * total).real)
        del w  # freed before the next mask allocates its product
    return values


def value_from_strings(h: PauliSum, values: dict[PauliString, float]) -> float:
    """<h> from the measured expectations of its non-identity strings."""
    total = 0.0
    for ps, coeff in h:
        total += coeff.real * (1.0 if ps.is_identity() else values[ps])
    return total


# ---------------------------------------------------------------------------
# Overlap estimation
# ---------------------------------------------------------------------------


def overlap_compute_uncompute(
    backend: ExpectationBackend,
    target: StateVector,
    state: StateVector,
    context: tuple[int, ...] = (),
) -> float:
    """|<target|state>|^2 as the all-zeros probability of the
    compute-uncompute circuit.

    The circuit prepares ``state`` and then the inverse of the target's
    preparation; it reads all zeros with probability exactly
    F = |<target|state>|^2, so one circuit samples F itself.
    """
    return backend.estimate_probability(fidelity(target, state), context=context)


def overlap_swap_test(
    backend: ExpectationBackend,
    target: StateVector,
    state: StateVector,
    context: tuple[int, ...] = (),
) -> float:
    """|<target|state>|^2 via the ancilla SWAP test.

    The ancilla of the (2N+1)-qubit SWAP-test circuit reads 0 with
    probability (1 + F)/2, so one circuit samples that probability and
    returns 2 p(0) - 1; sampled estimates are clamped to [0, 1] with a
    warning counted on the backend.
    """
    p_zero = (1.0 + fidelity(target, state)) / 2.0
    p_est = backend.estimate_probability(p_zero, context=context)
    overlap = 2.0 * p_est - 1.0
    if overlap < 0.0 or overlap > 1.0:
        if not backend.is_exact:
            backend.note_clamp()
        overlap = min(max(overlap, 0.0), 1.0)
    return overlap
