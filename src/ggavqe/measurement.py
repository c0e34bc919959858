"""Expectation backends, commuting-group measurement plans, and overlap
estimation.

Measurement convention (pinned): on hardware and in sampled mode a string is
estimated in the computational basis after rotating each of its qubits, with
H for an X letter and S-dagger followed by H for a Y letter; Z letters need no
rotation.  A plan group is one basis word, the union of its members'
letters, plus the member strings measurable under it, so a group costs one
circuit regardless of how many members it carries.  Exact mode skips the
rotations and reads every member string's expectation straight from the
amplitudes, or only the stale members of an earlier read of the plan, but
charges the same one circuit per group.

Accounting counts one circuit-equivalent per (group, state) evaluation; an
unplanned exact expectation counts as a single evaluation, read from the
string values of the observable's own plan (its ``screening_plan``), and an
unplanned sampled expectation measures that plan and counts its groups.  The
noiseless energies a run reports besides (``exact_value``) are read the
same way and charge nothing.  This makes the five-circuit Ising claim and
the 2M+1 / 4M+1 screening totals machine-checkable from the run trace.

Sampled mode is deterministic given the seed: every evaluation derives its
own RNG stream from the seed plus the caller-supplied context tuple (purpose,
iteration, generator, ...), so the order of evaluations cannot change the
draws.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString, PauliSum, qubitwise_commutes
from .simulator import StateVector

DEFAULT_SHOTS = 2500

# The entry of H: 1/sqrt(2), rounded as in [[1, 1], [1, -1]] / sqrt(2), not sqrt(1/2).
_H_ENTRY = 1.0 / np.sqrt(2.0)

# Sampled mode rotates a plan's groups in blocks, one copy of the state per
# group.  A block holds at most this many amplitudes and at least one group,
# so from 16 qubits up each group is rotated alone on a single copy.
_BLOCK_AMPLITUDES = 1 << 16

# Context tags of the RNG streams.
CTX_ENERGY = 0
CTX_SCREEN = 1
CTX_PLAN = 2
CTX_OVERLAP = 3
CTX_SWEEP = 4
CTX_PAIR = 5


@dataclass(frozen=True)
class MeasurementGroup:
    """Strings measured by one circuit; ``basis`` is the union of their letters."""

    basis: PauliString
    members: tuple[PauliString, ...]


@dataclass(frozen=True)
class MeasurementPlan:
    n_qubits: int
    groups: tuple[MeasurementGroup, ...]
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def index(self) -> dict[PauliString, int]:
        """Each member string's position, in group order: the order of the
        values ``measure_strings`` returns."""
        members = (ps for group in self.groups for ps in group.members)
        return {ps: i for i, ps in enumerate(members)}

    def strings(self) -> set[PauliString]:
        return set(self.index)

    def sampled_blocks(self, per_block: int) -> list[tuple]:
        """Per block of ``per_block`` groups, built once: its group count, its
        words' ``_gate_rows``, each member's support and group in the block."""
        if per_block not in self._blocks:
            starts = range(0, len(self.groups), per_block)
            self._blocks[per_block] = [(
                len(block),
                _gate_rows([group.basis for group in block], self.n_qubits),
                np.array([ps.support for group in block for ps in group.members], dtype=np.int64),
                np.repeat(np.arange(len(block)), [len(group.members) for group in block]),
            ) for block in (self.groups[start:start + per_block] for start in starts)]
        return self._blocks[per_block]

    def linear_map(self, ops: list[PauliSum]) -> Callable[[np.ndarray], np.ndarray]:
        """The map from the plan's string values to ``[<op> for op in ops]``.

        One (row, column, weight) triplet per term, in each op's term order;
        the identity reads an extra last column that holds ``identity`` (1.0
        unless the map is called with another value).  ``np.bincount`` adds
        each row's products in input order, so a row has the bits of the
        running sum ``total += coeff.real * value`` over the op's terms.
        """
        index = self.index
        missing = [ps.label() for op in ops for ps in op.strings()
                   if not ps.is_identity() and ps not in index]
        if missing:
            raise ValueError(f"plan does not cover {list(dict.fromkeys(missing))}")
        rows = np.repeat(np.arange(len(ops)), [len(op) for op in ops])
        cols = np.array([index.get(ps, -1) for op in ops for ps in op.strings()], dtype=int)
        weights = np.array([coeff.real for op in ops for _, coeff in op], dtype=float)
        return lambda values, identity=1.0: np.bincount(
            rows, weights * np.append(values, identity)[cols], len(ops)
        )

    def validate(self) -> None:
        """Each string in one group, as a sub-word of that group's word."""
        seen: set[PauliString] = set()
        for group in self.groups:
            word = group.basis
            for ps in group.members:
                if ps in seen:
                    raise ValueError(f"string {ps.label()} appears in two groups")
                seen.add(ps)
                if word.x & ps.support != ps.x or word.z & ps.support != ps.z:
                    raise ValueError(
                        f"string {ps.label()} incompatible with group basis {word.label()}"
                    )


def _first_fit(n_qubits: int, strings: list[PauliString]) -> MeasurementPlan:
    """Put each string, in the given order, into the first group whose word
    (the union of its members' letters) it qubit-wise commutes with, which is
    to say with every member, opening a group when none fits."""
    words: list[PauliString] = []
    groups: list[list[PauliString]] = []
    for ps in strings:
        for i, word in enumerate(words):
            if qubitwise_commutes(ps, word):
                words[i] = PauliString(n_qubits, word.x | ps.x, word.z | ps.z)
                groups[i].append(ps)
                break
        else:
            words.append(ps)
            groups.append([ps])
    return MeasurementPlan(
        n_qubits, tuple(MeasurementGroup(w, tuple(g)) for w, g in zip(words, groups))
    )


def greedy_qubitwise_plan(h: PauliSum) -> MeasurementPlan:
    """The plan of one observable: its own screening plan."""
    return screening_plan(h.n_qubits, [h])


def screening_plan(n_qubits: int, observables: Iterable[PauliSum]) -> MeasurementPlan:
    """One group cover of every non-identity string of ``observables``.

    Strings are grouped first-fit in sorted insertion order: descending
    popcount of the X mask, then canonical order (Crawford et al.,
    arXiv:1908.06942).  Over the minimal pool this order gives the circuit
    counts the method claims, five groups for the transverse-field Ising
    chain and nine (eight at three qubits) for general spin chains, which
    the tests check as properties.
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
        self._auto_plans: dict[PauliSum, tuple[MeasurementPlan, Callable]] = {}

    @property
    def seed(self) -> int:
        return self._seed

    @seed.setter
    def seed(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = seed

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

    def _rng(self, context: tuple[int, ...]) -> np.random.Generator:
        key = _spawn_key(context)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def _count(self, circuits: int, shots: int = 0) -> None:
        self.accounting.circuits += circuits
        self.accounting.shots += shots

    def _auto_plan(self, h: PauliSum) -> tuple[MeasurementPlan, Callable]:
        """``greedy_qubitwise_plan(h)`` and its map to <h>, built on first use."""
        if h not in self._auto_plans:
            plan = greedy_qubitwise_plan(h)
            self._auto_plans[h] = plan, plan.linear_map([h])
        return self._auto_plans[h]

    # -- expectations ------------------------------------------------------

    def expectation(
        self,
        state: StateVector,
        h: PauliSum,
        plan: MeasurementPlan | None = None,
        context: tuple[int, ...] = (),
    ) -> float:
        """<state| h |state>, through the plan when one is given.

        Unplanned, an exact evaluation charges one circuit and reads
        ``exact_value``; a sampled one measures h's own plan.
        """
        if plan is None and self.is_exact:
            self._count(1)
            return self.exact_value(state, h)
        if not h.is_hermitian():
            raise ValueError("expectation requires a hermitian Pauli sum")
        plan, value_of = self._auto_plan(h) if plan is None else (plan, plan.linear_map([h]))
        return float(value_of(self.measure_strings(state, plan, context=context))[0])

    def exact_value(self, state: StateVector, h: PauliSum) -> float:
        """The exact <state| h |state>, charging nothing to the accounting.

        Read from the string values of h's own plan
        (``_exact_string_values``) through the plan's linear map, both cached
        per observable; H|state> is never built.  The value is real by
        construction, since each product w_i is summed with its partner
        conj(w_i), so there is no imaginary residue to check; hermiticity is
        checked on every call.  The identity term reads 1: the library's
        states are normalized (``apply_exp_generator`` checks the norm).
        """
        if not h.is_hermitian():
            raise ValueError("expectation requires a hermitian Pauli sum")
        if h.n_qubits != state.n_qubits:
            raise ValueError(f"size mismatch: {h.n_qubits} vs {state.n_qubits} qubits")
        plan, value_of = self._auto_plan(h)
        return float(value_of(_exact_string_values(state, plan))[0])

    def measure_strings(
        self,
        state: StateVector,
        plan: MeasurementPlan,
        context: tuple[int, ...] = (),
        previous: np.ndarray | None = None,
        stale: np.ndarray | None = None,
    ) -> np.ndarray:
        """Estimate every member string of the plan on one state, in the
        order of ``plan.index``.

        Costs ``len(plan.groups)`` circuit-equivalents (times ``shots``
        samples each in sampled mode).  Exact mode computes the values
        without rotating the state; sampled mode draws the groups in plan
        order from the one stream of ``context``.

        Exact mode may reuse the values of an earlier state: given
        ``previous`` (in ``plan.index`` order) and the positions ``stale``,
        only the stale members are read from ``state`` and the rest are
        copied.  The caller vouches that the others kept their value; the
        charge is unchanged.  Sampled mode measures every group, as the
        hardware does, and refuses the reuse.
        """
        if plan.n_qubits != state.n_qubits:
            raise ValueError(f"size mismatch: {plan.n_qubits} vs {state.n_qubits} qubits")
        if (previous is None) != (stale is None):
            raise ValueError("reusing values needs both previous and stale")
        if previous is not None and not self.is_exact:
            raise ValueError("sampled mode measures every group: it cannot reuse values")
        if self.is_exact:
            self._count(len(plan.groups))
            if previous is None:
                return _exact_string_values(state, plan)
            values = previous.copy()
            values[stale] = _exact_string_values(state, plan, stale)
            return values
        rng = self._rng(context)
        values: list[float] = []
        per_block = max(1, _BLOCK_AMPLITUDES >> state.n_qubits)
        for size, gates, supports, rows in plan.sampled_blocks(per_block):
            probs = np.abs(_rotate(state, size, gates)) ** 2
            probs /= probs.sum(axis=1, keepdims=True)
            # numpy draws the rows in order from the one stream, so the
            # counts do not depend on the block size.
            counts = rng.multinomial(self.shots, probs)
            # Integer parity sums over the outcomes drawn in any group of the
            # block: no BLAS dot, so no thread-dependent bits.  Member rows are
            # taken after the column selection, so no (members, 2^n) temporary.
            cols = np.flatnonzero(counts.any(axis=0))
            parity = np.bitwise_count(supports[:, None] & cols) & 1
            odd = np.einsum("mc,mc->m", counts[:, cols][rows], parity)
            del probs, counts  # freed before the next block is rotated
            values += ((self.shots - 2 * odd) / self.shots).tolist()
        self._count(len(plan.groups), self.shots * len(plan.groups))
        return np.array(values)

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


def _spawn_key(context: tuple[int, ...]) -> tuple[int, ...]:
    """The context as 32-bit spawn-key words; a sampled call needs one."""
    if not context:
        raise ValueError("a sampled evaluation needs a non-empty context")
    return tuple(int(c) & 0xFFFFFFFF for c in context)


def rotate_to_bases(state: StateVector, words: list[PauliString]) -> np.ndarray:
    """``state`` rotated into each word's measurement basis, one row per word.

    Row ``i`` is ``state`` after, for each qubit in ascending order where
    ``words[i]`` has X, ``S^dagger`` then ``H`` where the word also has Z, or
    ``H`` alone.  All rows needing a gate on one qubit take it in one
    vectorised step, in place and without a gate matrix:

    - ``S^dagger`` multiplies the amplitudes where the qubit reads 1 by -i.
      The complex gate gives ``1 a0 + 0 a1 = a0`` and ``(-i) a1 =
      (Im a1, -Re a1)``: the same values.
    - ``H`` is the butterfly ``(c a0 + c a1, c a0 - c a1)`` with the real
      scalar ``c = 1/sqrt(2)``.  Each product ``(+-c + 0j) a`` of the
      complex gate equals ``+-c a``.

    So every row equals the sequence of ``apply_one_qubit_gate`` calls with
    those gates up to the sign of a zero, which ``|.|^2`` does not see.
    """
    return _rotate(state, len(words), _gate_rows(words, state.n_qubits))


def _gate_rows(words: list[PauliString], n_qubits: int) -> list[tuple]:
    """Per qubit, the rows of ``words`` that take ``S^dagger`` there and
    the rows that take ``H``, as ``_rows_with`` gives them."""
    xs = np.array([w.x for w in words], dtype=np.int64)
    ys = xs & np.array([w.z for w in words], dtype=np.int64)
    return [(_rows_with(ys, q), _rows_with(xs, q)) for q in range(n_qubits)]


def _rotate(state: StateVector, n_rows: int, gates: list[tuple]) -> np.ndarray:
    """``rotate_to_bases`` with the words' ``_gate_rows`` given."""
    stack = np.empty((n_rows, state.amplitudes.size), dtype=np.complex128)
    stack[:] = state.amplitudes
    for q, (s_rows, rows) in enumerate(gates):
        # Axis 2 of this view is bit ``q`` of the amplitude index.
        view = stack.reshape(n_rows, -1, 2, 1 << q)
        if s_rows is not None:
            view[s_rows, :, 1] *= -1j
        if rows is None:
            continue
        block = view[rows]  # a view of every row, else a copy to write back
        block *= _H_ENTRY
        a0, a1 = block[:, :, 0], block[:, :, 1]
        difference = a0 - a1
        a0 += a1
        a1[...] = difference
        if not isinstance(rows, slice):
            view[rows] = block
    return stack


def _rows_with(masks: np.ndarray, q: int) -> np.ndarray | slice | None:
    """The rows whose mask has bit ``q``: every row as a slice, so that
    indexing by it gives a view; None when there are none."""
    rows = np.flatnonzero(masks >> q & 1)
    if rows.size == masks.size:
        return slice(None)
    return rows if rows.size else None


def _exact_string_values(
    state: StateVector, plan: MeasurementPlan, members: Iterable[int] | None = None
) -> np.ndarray:
    """<P> for every member string of the plan, in its order, read from the
    amplitudes; with ``members``, for the members at those positions only,
    in that order.

    For P = i^{n_y} X^x Z^z, <P> = Re[i^{n_y} sum_i conj(psi[i ^ x]) s_z(i) psi[i]]
    with s_z(i) = (-1)^popcount(z & i).  Members are bucketed by X mask.

    - x = 0: the sum is over s_z(i) |psi[i]|^2.
    - x != 0: with t the highest qubit of x, w_i = conj(psi[i ^ x]) psi[i]
      is formed only where bit t of i is 0; the other half is
      w_{i ^ x} = conj(w_i), and s_z(i ^ x) = (-1)^{n_y} s_z(i) since
      n_y = popcount(x & z).  The sum is therefore 2 sum_half s_z Re w for
      even n_y and 2i sum_half s_z Im w for odd n_y, and bit t drops out of
      s_z on the half.  Only the parities the bucket needs are built, as
      real arrays: Re w = ar br + ai bi, Im w = ar bi - ai br.
    - A real state (float64 amplitudes) has Im w = 0, so odd-n_y members
      read 0, Re w is the one product a b per X mask, and the x = 0 sum is
      over psi^2: the values of the complex formulas, bit for bit.

    Each (mask, parity) array is summed once per maximal Z support of its
    members, down to a (2,)*k marginal; a member whose support lies inside
    it is that marginal summed over the other axes, then differenced along
    each of its own.  Every reduction is numpy's elementwise arithmetic and
    ``np.sum``, never BLAS, so the bits do not depend on the thread count.
    """
    n = state.n_qubits
    amps = state.amplitudes
    real = not np.iscomplexobj(amps)
    strings = [ps for group in plan.groups for ps in group.members]
    if members is not None:
        strings = [strings[i] for i in members]
    values = np.empty(len(strings))
    by_x: dict[int, list[int]] = {}
    for i, ps in enumerate(strings):
        by_x.setdefault(ps.x, []).append(i)
    # Two real buffers, 2^n and 2^(n-1) doubles, serve every mask.
    full, half = np.empty(1 << n), np.empty(1 << (n - 1))
    for x, members in by_x.items():
        if x == 0:
            np.multiply(amps.real, amps.real, out=full)
            if not real:
                for part in (slice(None, half.size), slice(half.size, None)):
                    full[part] += np.multiply(amps.imag[part], amps.imag[part], out=half)
            _read_marginals(full, half, range(n), [(i, strings[i].z, 1.0) for i in members], values)
            continue
        # Axis n-1-q of the (2,)*n tensor is qubit q (as in apply_pauli_sum);
        # on a half, the axes of the qubits below t move up by one.
        t = x.bit_length() - 1
        psi = amps.reshape(-1, 2, 1 << t)
        shape = (2,) * (n - 1)
        b = psi[:, 0].reshape(shape)
        a = np.flip(psi[:, 1].reshape(shape), tuple(n - 2 - q for q in range(t) if x >> q & 1))
        w, other = full[:half.size].reshape(shape), half.reshape(shape)
        parities: dict[int, list[tuple[int, int, float]]] = {}
        for i in members:
            n_y = strings[i].n_y
            factor = -2.0 if (n_y + n_y % 2) % 4 else 2.0  # 2 Re(i^(n_y + n_y % 2))
            parities.setdefault(n_y % 2, []).append((i, strings[i].z, factor))
        for odd, part in parities.items():
            if real and odd:
                values[[i for i, _, _ in part]] = 0.0
                continue
            if real:
                np.multiply(a, b, out=w)
            elif odd:
                np.multiply(a.real, b.imag, out=w)
                w -= np.multiply(a.imag, b.real, out=other)
            else:
                np.multiply(a.real, b.real, out=w)
                w += np.multiply(a.imag, b.imag, out=other)
            _read_marginals(w, other, [q for q in range(n) if q != t], part, values)
    return values


def _transition_values(bra: StateVector, ket: StateVector, plan: MeasurementPlan) -> np.ndarray:
    """<bra|P|ket> for every member string of the plan, in its order.

    For P = i^{n_y} X^x Z^z, <bra|P|ket> = i^{n_y} sum_i s_z(i) w_i with
    w_i = conj(bra[i ^ x]) ket[i], formed once per X mask over the whole
    state as real arrays: a b when both states are real, else Re w and Im w.
    ``_read_marginals`` reduces each per Z support, never by BLAS.
    """
    n = ket.n_qubits
    real = not (np.iscomplexobj(bra.amplitudes) or np.iscomplexobj(ket.amplitudes))
    bra_amps, b = (np.asarray(s.amplitudes, float if real else complex).reshape((2,) * n)
                   for s in (bra, ket))
    strings = [ps for group in plan.groups for ps in group.members]
    values = np.zeros((len(strings), 2))  # (Re, Im) of each member
    by_x: dict[int, list[int]] = {}
    for i, ps in enumerate(strings):
        by_x.setdefault(ps.x, []).append(i)
    w, other = np.empty(b.shape), np.empty(b.shape[1:])
    for x, members in by_x.items():
        # Axis n-1-q is qubit q (as in apply_pauli_sum): a[i] = bra[i ^ x].
        a = np.flip(bra_amps, tuple(n - 1 - q for q in range(n) if x >> q & 1))
        for part in (0,) if real else (0, 1):  # Re w, then Im w
            if real:
                np.multiply(a, b, out=w)
            else:
                np.multiply(a.real, b.imag if part else b.real, out=w)
                for h in (0, 1):  # a half at a time, through ``other``
                    half = w[h, ...]  # a view, also at n = 1
                    np.multiply(a.imag[h], b.real[h] if part else b.imag[h], out=other)
                    (np.subtract if part else np.add)(half, other, out=half)
            # i^j times a real sum lands in part j % 2, negated for j >= 2.
            phases = [(i, (strings[i].n_y + part) % 4) for i in members]
            routed = [(2 * i + j % 2, strings[i].z, 1.0 - 2.0 * (j >= 2)) for i, j in phases]
            _read_marginals(w, other, range(n), routed, values.reshape(-1))
    return values.view(np.complex128)[:, 0]


def _read_marginals(
    arr: np.ndarray,
    scratch: np.ndarray,
    qubits: Iterable[int],
    members: list[tuple[int, int, float]],
    values: np.ndarray,
) -> None:
    """``values[i] = factor * sum_j s_z(j) arr[j]`` for every ``(i, z,
    factor)``, with one reduction of ``arr`` per maximal Z support.

    ``arr`` is contiguous over ``qubits``, highest qubit first; Z bits off
    them are ignored.  ``scratch`` holds half as many doubles as ``arr``.
    """
    qubits = sorted(qubits, reverse=True)
    on = sum(1 << q for q in qubits)
    members = [(i, z & on, factor) for i, z, factor in members]
    maximal: list[int] = []
    for z in sorted({z for _, z, _ in members}, key=lambda z: (-z.bit_count(), z)):
        if not any(z & ~m == 0 for m in maximal):
            maximal.append(z)
    flat, scratch = arr.reshape(-1), scratch.reshape(-1)
    marginals = {
        m: _marginal(flat, tuple(k for k, q in enumerate(qubits) if m >> q & 1), scratch)
        for m in maximal
    }
    for i, z, factor in members:
        m = next(m for m in maximal if z & ~m == 0)
        kept = [q for q in qubits if m >> q & 1]
        axes = tuple(k for k, q in enumerate(kept) if not z >> q & 1)
        total = marginals[m].sum(axis=axes) if axes else marginals[m]
        while total.ndim:
            total = total[0] - total[1]
        values[i] = factor * total


# A marginal whose kept axes leave at least this many trailing axes is one
# ``np.sum``: numpy then adds contiguous runs of 2^k doubles.  Closer to the
# end, it adds runs of a few doubles, and halving the array is faster, except
# on arrays of at most _ONE_SUM_DOUBLES, where the calls of the halving cost
# more than the strided sum.
_TRAILING_AXES = 6
_ONE_SUM_DOUBLES = 1 << 12


def _marginal(
    arr: np.ndarray, kept: tuple[int, ...], scratch: np.ndarray | None
) -> np.ndarray:
    """The contiguous ``(2,)*m`` tensor ``arr`` summed over every axis but
    ``kept`` (ascending).

    Leading axes are halved away, ``arr[:h] + arr[h:]`` into ``scratch`` once
    and in place after that; a leading kept axis splits the work into its
    two contiguous halves.  ``scratch`` is None when ``arr`` may be
    overwritten.
    """
    m = arr.size.bit_length() - 1
    if not kept or arr.size <= _ONE_SUM_DOUBLES or m - 1 - kept[-1] >= _TRAILING_AXES:
        return arr.reshape((2,) * m).sum(axis=tuple(k for k in range(m) if k not in kept))
    h = arr.size // 2
    rest = tuple(k - 1 for k in kept)
    if kept[0] == 0:
        halves = (arr[:h], None), (arr[h:], None)
        if scratch is not None:
            halves = (arr[:h], scratch[:h // 2]), (arr[h:], scratch[h // 2:h])
        return np.stack([_marginal(half, rest[1:], s) for half, s in halves])
    folded = np.add(arr[:h], arr[h:], out=arr[:h] if scratch is None else scratch[:h])
    return _marginal(folded, rest, None)


# ---------------------------------------------------------------------------
# Overlap estimation
# ---------------------------------------------------------------------------


def overlap_compute_uncompute(
    backend: ExpectationBackend,
    fidelity: float,
    context: tuple[int, ...] = (),
) -> float:
    """F = |<target|state>|^2 as the all-zeros probability of the
    compute-uncompute circuit.

    The circuit prepares ``state`` and then the inverse of the target's
    preparation; it reads all zeros with probability exactly F, so one
    circuit samples F itself.
    """
    return backend.estimate_probability(fidelity, context=context)


def overlap_swap_test(
    backend: ExpectationBackend,
    fidelity: float,
    context: tuple[int, ...] = (),
) -> float:
    """F = |<target|state>|^2 via the ancilla SWAP test.

    The ancilla of the (2N+1)-qubit SWAP-test circuit reads 0 with
    probability (1 + F)/2, so one circuit samples that probability and
    returns 2 p(0) - 1; sampled estimates are clamped to [0, 1] with a
    warning counted on the backend.
    """
    p_est = backend.estimate_probability((1.0 + fidelity) / 2.0, context=context)
    overlap = 2.0 * p_est - 1.0
    if overlap < 0.0 or overlap > 1.0:
        if not backend.is_exact:
            backend.note_clamp()
        overlap = min(max(overlap, 0.0), 1.0)
    return overlap
