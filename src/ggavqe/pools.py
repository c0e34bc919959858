"""Operator pools: qubit-excitation-based (QEB), qubit hardware-efficient,
and the minimal hardware-efficient pool, with machine-verified algebraic
classes.

Every generator is checked at construction: involutory bodies must satisfy
B @ B == I and tripotent bodies B @ B @ B == B, symbolically, in one
term-table pass per pool.  Scalar
prefactors of the hardware-efficient generators (1/2 for singles, 1/8 for
doubles) are absorbed into ``Generator.angle_scale`` so the stored body is a
bare Pauli string with an exact involution; QEB bodies keep their printed
coefficients, which already square and cube correctly.

Enumeration order is deterministic: generator ids are assigned 0..M-1 in the
documented order for a given register size, so id <-> label maps
are reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .pauli import PauliString, PauliSum, TermTable, parse_term
from .simulator import INVOLUTORY, TRIPOTENT, Generator, InvariantError

QEB = "qeb"
QUBIT_HARDWARE_EFFICIENT = "qubit_hardware_efficient"
MINIMAL_HARDWARE_EFFICIENT = "minimal_hardware_efficient"
CUSTOM = "custom"

# The eight 1/8-weighted words of a double excitation, as (letters, sign) with
# letters listed for qubits (r, s, p, q).
_DOUBLE_WORDS = (
    ("XYXX", +1.0), ("YXXX", +1.0), ("YYYX", +1.0), ("YYXY", +1.0),
    ("XXYX", -1.0), ("XXXY", -1.0), ("YXYY", -1.0), ("XYYY", -1.0),
)

# Hardware-efficient doubles keep one representative per rotation-equivalence
# class; the retained words (r, s, p, q) are pinned here and in docs/pools.md.
_HW_DOUBLE_WORDS = ("XYXX", "YYYX", "XXYX")


@dataclass(frozen=True)
class Pool:
    """An ordered, immutable collection of generators."""

    name: str
    n_qubits: int
    generators: tuple[Generator, ...]

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, gid: int) -> Generator:
        return self.generators[gid]

    def by_id(self) -> dict[int, Generator]:
        return {g.gid: g for g in self.generators}

    def describe(self) -> str:
        lines = [f"pool {self.name}: {len(self)} generators on {self.n_qubits} qubits"]
        for g in self.generators:
            lines.append(
                f"{g.gid:4d}  {g.label:<28} {g.kind:<10} scale={g.angle_scale:g} "
                f"terms={len(g.body)}"
            )
        return "\n".join(lines)


def classify_bodies(n_qubits: int, entries: list[tuple[str, PauliSum]]) -> list[str]:
    """Prove B^2 = I, or else B^3 = B, for every ``(label, body)`` at once:
    one table product, and one more for the bodies that are no involution.
    Raises naming the first generator that is empty, not hermitian, or in
    neither class."""
    labels = [label for label, _ in entries]

    def reject(flags, problem: str) -> None:
        bad = np.flatnonzero(flags)
        if bad.size:
            raise ValueError(f"generator {labels[bad[0]]!r} {problem}")

    body = TermTable.stack(n_qubits, [b for _, b in entries])
    m = body.n_owners
    reject(np.bincount(body.owner, minlength=m) == 0, "has no terms")
    reject([not b.is_hermitian() for _, b in entries], "is not hermitian")
    square = body @ body
    zeros = np.zeros((len(body.x), m), dtype=np.int64)
    identity = TermTable(n_qubits, m, np.arange(m), zeros, zeros, np.ones(m), np.zeros(m))
    involutory = square.equal_owners(identity)
    tripotent = np.zeros(m, dtype=bool)
    rest = np.flatnonzero(~involutory)
    if rest.size:
        cubed = body.take(rest)
        tripotent[rest] = (square.take(rest) @ cubed).equal_owners(cubed)
    reject(~(involutory | tripotent), "is neither involutory nor tripotent")
    return [INVOLUTORY if flag else TRIPOTENT for flag in involutory]


def _single_excitation_body(n: int, p: int, q: int) -> PauliSum:
    """(X_q Y_p - Y_q X_p) / 2, the antisymmetric single-qubit excitation."""
    return PauliSum(
        n,
        [
            (PauliString.from_ops(n, [(q, "X"), (p, "Y")]), 0.5),
            (PauliString.from_ops(n, [(q, "Y"), (p, "X")]), -0.5),
        ],
        drop_tolerance=0.0,
    )


def _double_excitation_body(n: int, p: int, q: int, r: int, s: int) -> PauliSum:
    terms = []
    for word, sign in _DOUBLE_WORDS:
        ops = list(zip((r, s, p, q), word))
        terms.append((PauliString.from_ops(n, ops), 0.125 * sign))
    return PauliSum(n, terms, drop_tolerance=0.0)


def _disjoint_pair_tuples(n: int) -> list[tuple[int, int, int, int]]:
    """4-tuples (p, q, r, s) with p < q, r < s, (p, q) < (r, s), pairs disjoint."""
    pairs = list(combinations(range(n), 2))
    out = []
    for i, (p, q) in enumerate(pairs):
        for r, s in pairs[i + 1:]:
            if len({p, q, r, s}) == 4:
                out.append((p, q, r, s))
    return out


def qeb_pool(n_qubits: int) -> Pool:
    """Qubit-excitation pool: tripotent singles A_pq and doubles A_pqrs.

    Singles run over p < q; doubles over disjoint ordered pairs.
    """
    if n_qubits < 2:
        raise ValueError("QEB pool needs at least 2 qubits")
    entries = [(f"A({p},{q})", _single_excitation_body(n_qubits, p, q), 1.0)
               for p, q in combinations(range(n_qubits), 2)]
    entries += [(f"A({p},{q},{r},{s})", _double_excitation_body(n_qubits, p, q, r, s), 1.0)
                for p, q, r, s in _disjoint_pair_tuples(n_qubits)]
    return _verified_pool(QEB, n_qubits, entries, TRIPOTENT)


def qubit_hardware_efficient_pool(n_qubits: int) -> Pool:
    """Modified excitation pool of bare Pauli words, all involutory.

    Singles are X_q Y_p over ordered pairs p != q with the 1/2 prefactor in
    the angle scale; doubles keep the three pinned rotation-class
    representatives per disjoint pair tuple with the 1/8 prefactor in the
    angle scale.
    """
    if n_qubits < 2:
        raise ValueError("hardware-efficient pool needs at least 2 qubits")
    n = n_qubits
    entries = [(f"X{q} Y{p}", PauliSum.from_label_terms(n, [(1.0, f"X{q} Y{p}")]), 0.5)
               for p in range(n) for q in range(n) if p != q]
    # dict.fromkeys: identical double words recur across pair tuples.
    entries += [(ps.label(), PauliSum(n, [(ps, 1.0)]), 0.125) for ps in dict.fromkeys(
        PauliString.from_ops(n, list(zip((r, s, p, q), word)))
        for p, q, r, s in _disjoint_pair_tuples(n) for word in _HW_DOUBLE_WORDS)]
    return _verified_pool(QUBIT_HARDWARE_EFFICIENT, n, entries, INVOLUTORY)


def minimal_hardware_efficient_pool(n_qubits: int) -> Pool:
    """{Y_p} then {Z_p Y_{p+1}} for p = 0..N-2: exactly 2N-2 involutory bodies."""
    if n_qubits < 2:
        raise ValueError("minimal pool needs at least 2 qubits")
    n = n_qubits
    labels = [f"Y{p}" for p in range(n - 1)] + [f"Z{p} Y{p + 1}" for p in range(n - 1)]
    entries = [(label, PauliSum.from_label_terms(n, [(1.0, label)]), 1.0) for label in labels]
    return _verified_pool(MINIMAL_HARDWARE_EFFICIENT, n, entries, INVOLUTORY)


def custom_pool(
    n_qubits: int,
    bodies: Iterable[tuple[str, PauliSum, float]],
    name: str = CUSTOM,
) -> Pool:
    """Pool from ``(label, body, angle_scale)`` entries; classes are verified."""
    entries = list(bodies)
    kinds = classify_bodies(n_qubits, [(label, body) for label, body, _ in entries])
    generators = tuple(
        Generator(gid, label, body, kind, scale)
        for gid, ((label, body, scale), kind) in enumerate(zip(entries, kinds))
    )
    return Pool(name, n_qubits, generators)


def pairwise_single_pool(
    n_qubits: int, index_pairs: Iterable[tuple[int, int]], letters: str = "XX"
) -> Pool:
    """Involutory two-letter pool over explicit qubit pairs.

    ``letters`` gives the word placed on ``(p2, p1)`` for each pair
    ``(p1, p2)``; the 1/2 single-excitation prefactor goes to the angle
    scale.  Used for overlap runs restricted to a pinned pair set.
    """
    bodies = []
    for p1, p2 in index_pairs:
        ps = PauliString.from_ops(n_qubits, [(p2, letters[0]), (p1, letters[1])])
        bodies.append((ps.label(), PauliSum(n_qubits, [(ps, 1.0)]), 0.5))
    return custom_pool(n_qubits, bodies, name="pairwise_single")


def load_custom_pool(path: str, n_qubits: int) -> Pool:
    """Read labeled generators from a text file.

    Format: ``[label]`` section headers, each followed by Pauli-sum term
    lines in the repo text format; an optional ``scale <value>`` line inside
    a section sets the angle scale.  Errors name the file and its line, or
    the generator.
    """
    sections: list[tuple[str, list[float], list[tuple[PauliString, complex]]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                sections.append((line[1:-1].strip(), [], []))
                continue
            word, *values = line.split()
            try:
                if not sections:
                    raise ValueError(f"{'scale' if word == 'scale' else 'term'} before any [label]")
                label, scales, terms = sections[-1]
                if word == "scale":
                    if scales or len(values) != 1 or not math.isfinite(float(values[0])):
                        raise ValueError(f"a section takes one scale of one finite value, got {line!r}")
                    scales.append(float(values[0]))
                else:
                    coeff, ops = parse_term(line)
                    terms.append((PauliString.from_ops(n_qubits, ops), coeff))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    bodies = [(label, PauliSum(n_qubits, terms), scales[0] if scales else 1.0)
              for label, scales, terms in sections]
    try:
        return custom_pool(n_qubits, bodies)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _verified_pool(name: str, n_qubits: int, entries: list[tuple[str, PauliSum, float]],
                   kind: str) -> Pool:
    """The pool of ``entries``, every generator proved of class ``kind``."""
    pool = custom_pool(n_qubits, entries, name)
    for g in pool:
        if g.kind != kind:
            raise InvariantError(f"generator {g.label} misclassified as {kind}")
    return pool
