"""Operator pools: qubit-excitation-based (QEB), qubit hardware-efficient,
and the minimal hardware-efficient pool, with machine-verified algebraic
classes.

Every generator is checked at construction: involutory bodies must satisfy
B @ B == I and tripotent bodies B @ B @ B == B, symbolically.  Scalar
prefactors of the hardware-efficient generators (1/2 for singles, 1/8 for
doubles) are absorbed into ``Generator.angle_scale`` so the stored body is a
bare Pauli string with an exact involution; QEB bodies keep their printed
coefficients, which already square and cube correctly.

Enumeration order is deterministic: generator ids are assigned 0..M-1 in the
documented order for a given register size, so id <-> label maps
are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .pauli import PauliString, PauliSum, identity_sum, loads
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


def classify_body(body: PauliSum) -> str:
    """Prove B^2 = I or B^3 = B symbolically; raise if neither holds."""
    if not body.is_hermitian():
        raise ValueError("generator body must be hermitian")
    b2 = body @ body
    if b2 == identity_sum(body.n_qubits):
        return INVOLUTORY
    if b2 @ body == body:
        return TRIPOTENT
    raise ValueError("generator is neither involutory nor tripotent")


def make_generator(
    gid: int, label: str, body: PauliSum, angle_scale: float = 1.0
) -> Generator:
    return Generator(gid, label, body, classify_body(body), angle_scale)


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
    generators: list[Generator] = []
    for p, q in combinations(range(n_qubits), 2):
        gid = len(generators)
        generators.append(
            Generator(
                gid, f"A({p},{q})", _single_excitation_body(n_qubits, p, q), TRIPOTENT
            )
        )
    if n_qubits >= 4:
        for p, q, r, s in _disjoint_pair_tuples(n_qubits):
            gid = len(generators)
            generators.append(
                Generator(
                    gid,
                    f"A({p},{q},{r},{s})",
                    _double_excitation_body(n_qubits, p, q, r, s),
                    TRIPOTENT,
                )
            )
    _verify_classes(generators)
    return Pool(QEB, n_qubits, tuple(generators))


def qubit_hardware_efficient_pool(n_qubits: int) -> Pool:
    """Modified excitation pool of bare Pauli words, all involutory.

    Singles are X_q Y_p over ordered pairs p != q with the 1/2 prefactor in
    the angle scale; doubles keep the three pinned rotation-class
    representatives per disjoint pair tuple with the 1/8 prefactor in the
    angle scale.
    """
    if n_qubits < 2:
        raise ValueError("hardware-efficient pool needs at least 2 qubits")
    generators: list[Generator] = []
    for p in range(n_qubits):
        for q in range(n_qubits):
            if p == q:
                continue
            body = PauliSum(
                n_qubits,
                [(PauliString.from_ops(n_qubits, [(q, "X"), (p, "Y")]), 1.0)],
            )
            generators.append(
                Generator(len(generators), f"X{q} Y{p}", body, INVOLUTORY, 0.5)
            )
    if n_qubits >= 4:
        seen: set[PauliString] = set()
        for p, q, r, s in _disjoint_pair_tuples(n_qubits):
            for word in _HW_DOUBLE_WORDS:
                ps = PauliString.from_ops(n_qubits, list(zip((r, s, p, q), word)))
                if ps in seen:  # identical words recur across pair tuples
                    continue
                seen.add(ps)
                body = PauliSum(n_qubits, [(ps, 1.0)])
                generators.append(
                    Generator(len(generators), ps.label(), body, INVOLUTORY, 0.125)
                )
    _verify_classes(generators)
    return Pool(QUBIT_HARDWARE_EFFICIENT, n_qubits, tuple(generators))


def minimal_hardware_efficient_pool(n_qubits: int) -> Pool:
    """{Y_p} then {Z_p Y_{p+1}} for p = 0..N-2: exactly 2N-2 involutory bodies."""
    if n_qubits < 2:
        raise ValueError("minimal pool needs at least 2 qubits")
    n = n_qubits
    generators: list[Generator] = []
    for p in range(n - 1):
        body = PauliSum(n, [(PauliString.from_ops(n, [(p, "Y")]), 1.0)])
        generators.append(Generator(len(generators), f"Y{p}", body, INVOLUTORY))
    for p in range(n - 1):
        body = PauliSum(
            n, [(PauliString.from_ops(n, [(p, "Z"), (p + 1, "Y")]), 1.0)]
        )
        generators.append(Generator(len(generators), f"Z{p} Y{p+1}", body, INVOLUTORY))
    _verify_classes(generators)
    return Pool(MINIMAL_HARDWARE_EFFICIENT, n, tuple(generators))


def custom_pool(
    n_qubits: int,
    bodies: Iterable[tuple[str, PauliSum, float]],
    name: str = CUSTOM,
) -> Pool:
    """Pool from ``(label, body, angle_scale)`` entries; classes are verified."""
    generators = tuple(
        make_generator(gid, label, body, scale)
        for gid, (label, body, scale) in enumerate(bodies)
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
    a section sets the angle scale.
    """
    sections: list[tuple[str, float, list[str]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                sections.append((line[1:-1].strip(), 1.0, []))
            elif line.startswith("scale "):
                if not sections:
                    raise ValueError(f"{path}: line {lineno}: scale before any [label]")
                label, _, body_lines = sections[-1]
                sections[-1] = (label, float(line.split()[1]), body_lines)
            else:
                if not sections:
                    raise ValueError(f"{path}: line {lineno}: term before any [label]")
                sections[-1][2].append(line)
    bodies = []
    for label, scale, lines in sections:
        body = loads("\n".join(lines), n_qubits=n_qubits)
        bodies.append((label, body, scale))
    return custom_pool(n_qubits, bodies)


def _verify_classes(generators: list[Generator]) -> None:
    for g in generators:
        if classify_body(g.body) != g.kind:
            raise InvariantError(f"generator {g.label} misclassified as {g.kind}")
