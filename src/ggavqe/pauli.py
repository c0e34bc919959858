"""Exact symbolic algebra of Pauli strings and complex-weighted Pauli sums.

A Pauli string is a phase-free word over {I, X, Y, Z} on ``n_qubits`` qubits,
stored as a pair of bitmasks: bit ``q`` of ``x`` is set when the letter on
qubit ``q`` is X or Y, and bit ``q`` of ``z`` when it is Z or Y.  All phases
produced by operator products are returned separately (they are always one of
``+1, +i, -1, -i``) and otherwise live in the coefficients of a
:class:`PauliSum`.

Internally a string is identified with ``i**ny * W(x, z)`` where ``ny`` is the
number of Y letters and ``W(x, z) = prod_q X_q**x_q Z_q**z_q`` acts on a basis
state ``|i>`` as ``(-1)**popcount(z & i) |i ^ x>``.  This makes products O(1)
in the number of qubits and equality a plain mask comparison.

The on-disk text format for a Pauli sum is one term per line::

    <real> [<imag>] <LETTER><index> <LETTER><index> ...

e.g. ``0.5 X0`` or ``0.2 Z0 Z1``; the identity term is written ``<coeff> I``.
Tokens are whitespace separated and ``#`` starts a comment line.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Iterator

DEFAULT_DROP_TOLERANCE = 1e-14
HERMITICITY_TOLERANCE = 1e-12

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_LETTERS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


class PauliString:
    """A phase-free Pauli word on ``n_qubits`` qubits.

    Instances are immutable and hashable; two strings are equal iff their
    masks (and sizes) are equal.
    """

    __slots__ = ("n_qubits", "x", "z")

    def __init__(self, n_qubits: int, x: int = 0, z: int = 0):
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        full = (1 << n_qubits) - 1
        if x & ~full or z & ~full:
            raise ValueError(f"mask exceeds {n_qubits} qubits: x={x:#x} z={z:#x}")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_ops(cls, n_qubits: int, ops: Iterable[tuple[int, str]]) -> "PauliString":
        """Build from ``(qubit, letter)`` pairs; unlisted qubits are identity."""
        x = z = 0
        for qubit, letter in ops:
            if not 0 <= qubit < n_qubits:
                raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
            try:
                xb, zb = _LETTERS[letter.upper()]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            if (x >> qubit) & 1 or (z >> qubit) & 1:
                raise ValueError(f"qubit {qubit} listed twice")
            x |= xb << qubit
            z |= zb << qubit
        return cls(n_qubits, x, z)

    @classmethod
    def from_label(cls, n_qubits: int, label: str) -> "PauliString":
        """Parse a token label such as ``"X0 Z3"`` (``"I"`` for identity)."""
        tokens = label.split()
        if tokens == ["I"] or not tokens:
            return cls.identity(n_qubits)
        ops = []
        for tok in tokens:
            letter, idx = tok[0], tok[1:]
            if not idx.isdigit():
                raise ValueError(f"malformed Pauli token {tok!r}")
            ops.append((int(idx), letter))
        return cls.from_ops(n_qubits, ops)

    def letter(self, qubit: int) -> str:
        xb = (self.x >> qubit) & 1
        zb = (self.z >> qubit) & 1
        return "IXZY"[xb + 2 * zb]

    @property
    def support(self) -> int:
        """Bitmask of qubits carrying a non-identity letter."""
        return self.x | self.z

    @property
    def n_y(self) -> int:
        return (self.x & self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def label(self) -> str:
        if self.is_identity():
            return "I"
        return " ".join(
            f"{self.letter(q)}{q}" for q in range(self.n_qubits) if (self.support >> q) & 1
        )

    def sort_key(self) -> tuple[int, int]:
        """Canonical term order: lexicographic on (z-mask, x-mask)."""
        return (self.z, self.x)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n_qubits == other.n_qubits
            and self.x == other.x
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.x, self.z))

    def __repr__(self) -> str:
        return f"PauliString({self.n_qubits}, {self.label()!r})"


def multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Operator product of two strings: returns ``(phase, product)``.

    ``phase * product`` equals ``a @ b`` exactly; the phase is one of
    ``+1, +i, -1, -i``.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    x = a.x ^ b.x
    z = a.z ^ b.z
    out = PauliString(a.n_qubits, x, z)
    # i**(ny_a + ny_b - ny_ab) from the Y bookkeeping, (-1)**|z_a & x_b| from
    # commuting the Z part of `a` past the X part of `b`.
    k = (a.n_y + b.n_y - out.n_y) % 4
    if (a.z & b.x).bit_count() & 1:
        k = (k + 2) % 4
    return _PHASES[k], out


def commutes(a: PauliString, b: PauliString) -> bool:
    """Whether two strings commute (symplectic criterion)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    return ((a.z & b.x).bit_count() + (a.x & b.z).bit_count()) % 2 == 0


def qubitwise_commutes(a: PauliString, b: PauliString) -> bool:
    """Whether the letters agree or include identity on every qubit.

    Qubit-wise commuting strings are simultaneously measurable after one
    local basis change.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    both = a.support & b.support
    return (a.x & both) == (b.x & both) and (a.z & both) == (b.z & both)


class PauliSum:
    """A complex-weighted combination of Pauli strings on a fixed register.

    Terms are kept simplified: like strings merged and coefficients below the
    drop tolerance removed.  Instances are treated as immutable; all
    arithmetic returns new sums.
    """

    __slots__ = ("n_qubits", "_terms", "_hash", "_hermitian")

    def __init__(
        self,
        n_qubits: int,
        terms: Iterable[tuple[PauliString, complex]] = (),
        drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
    ):
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        merged: dict[PauliString, complex] = {}
        for ps, coeff in terms:
            if ps.n_qubits != n_qubits:
                raise ValueError(
                    f"term on {ps.n_qubits} qubits in a {n_qubits}-qubit sum"
                )
            c = merged.get(ps, 0j) + complex(coeff)
            if c == 0:
                merged.pop(ps, None)
            else:
                merged[ps] = c
        cleaned = {ps: c for ps, c in merged.items() if abs(c) >= drop_tolerance}
        # abs(nan) >= tol is false: a NaN coefficient would vanish unseen.
        if len(cleaned) < len(merged) and any(cmath.isnan(c) for c in merged.values()):
            raise ValueError("Pauli sum coefficient is not a number")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(
            self, "_terms", dict(sorted(cleaned.items(), key=lambda t: t[0].sort_key()))
        )
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_hermitian", None)

    def __setattr__(self, name, value):
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    @classmethod
    def from_label_terms(
        cls, n_qubits: int, terms: Iterable[tuple[complex, str]]
    ) -> "PauliSum":
        """Build from ``(coefficient, label)`` pairs, e.g. ``(0.5, "X0")``."""
        return cls(
            n_qubits,
            ((PauliString.from_label(n_qubits, lab), c) for c, lab in terms),
        )

    def strings(self) -> list[PauliString]:
        return list(self._terms.keys())

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[PauliString, complex]]:
        """Terms in canonical (z-mask, x-mask) order."""
        return iter(self._terms.items())

    def is_hermitian(self) -> bool:
        """Computed once, as the hash is."""
        if self._hermitian is None:
            hermitian = all(abs(c.imag) <= HERMITICITY_TOLERANCE for c in self._terms.values())
            object.__setattr__(self, "_hermitian", hermitian)
        return self._hermitian

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_size(other)
        return PauliSum(self.n_qubits, list(self) + list(other))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        self._check_size(other)
        return PauliSum(
            self.n_qubits, list(self) + [(ps, -c) for ps, c in other]
        )

    def __neg__(self) -> "PauliSum":
        return PauliSum(self.n_qubits, ((ps, -c) for ps, c in self))

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(self.n_qubits, ((ps, c * scalar) for ps, c in self))

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product of two sums."""
        self._check_size(other)
        out: list[tuple[PauliString, complex]] = []
        for pa, ca in self:
            for pb, cb in other:
                phase, prod = multiply(pa, pb)
                out.append((prod, ca * cb * phase))
        return PauliSum(self.n_qubits, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliSum)
            and self.n_qubits == other.n_qubits
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        """Computed once: the terms are fixed and already in canonical order."""
        if self._hash is None:
            key = (self.n_qubits,) + tuple((ps.z, ps.x, c) for ps, c in self._terms.items())
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self) -> str:
        if not self._terms:
            return f"PauliSum({self.n_qubits}, 0)"
        body = " + ".join(f"({c:g})*{ps.label()}" for ps, c in list(self)[:6])
        if len(self) > 6:
            body += f" + ... [{len(self)} terms]"
        return f"PauliSum({self.n_qubits}, {body})"

    def _check_size(self, other: "PauliSum") -> None:
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"size mismatch: {self.n_qubits} vs {other.n_qubits} qubits"
            )


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``[a, b] = a@b - b@a``, simplified.

    Pairs of strings that commute are skipped; for anticommuting pairs
    ``pa pb - pb pa = 2 pa pb``.
    """
    a._check_size(b)
    out: list[tuple[PauliString, complex]] = []
    for pa, ca in a:
        for pb, cb in b:
            if commutes(pa, pb):
                continue
            phase, prod = multiply(pa, pb)
            out.append((prod, 2.0 * ca * cb * phase))
    return PauliSum(a.n_qubits, out)


def conjugate_by(h: PauliSum, b: PauliSum) -> PauliSum:
    """Sandwich product ``b @ h @ b``, simplified."""
    return (b @ h) @ b


def identity_sum(n_qubits: int) -> PauliSum:
    return PauliSum(n_qubits, [(PauliString.identity(n_qubits), 1.0)])


# ---------------------------------------------------------------------------
# Text serialization (the repo-wide on-disk Hamiltonian format)
# ---------------------------------------------------------------------------


def dumps(h: PauliSum) -> str:
    """Serialize a sum in the one-term-per-line text format."""
    lines = [f"# pauli sum on {h.n_qubits} qubits"]
    for ps, c in h:
        coeff = f"{c.real:.17g}"
        if c.imag != 0.0:
            coeff += f" {c.imag:.17g}"
        lines.append(f"{coeff} {ps.label()}")
    return "\n".join(lines) + "\n"


def loads(text: str, n_qubits: int | None = None) -> PauliSum:
    """Parse the text format.

    The register size is inferred from the largest qubit index unless
    ``n_qubits`` is given.  Raises ``ValueError`` with the offending line
    number on malformed input.
    """
    parsed: list[tuple[int, complex, list[tuple[int, str]]]] = []
    max_qubit = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        floats: list[float] = []
        while tokens and len(floats) < 2:
            try:
                floats.append(float(tokens[0]))
            except ValueError:
                break
            tokens.pop(0)
        if not floats:
            raise ValueError(f"line {lineno}: expected a coefficient, got {raw!r}")
        coeff = complex(floats[0], floats[1] if len(floats) > 1 else 0.0)
        if not cmath.isfinite(coeff):
            raise ValueError(f"line {lineno}: coefficient is not finite, got {raw!r}")
        ops: list[tuple[int, str]] = []
        if tokens != ["I"]:
            for tok in tokens:
                if len(tok) < 2 or tok[0].upper() not in "IXYZ" or not tok[1:].isdigit():
                    raise ValueError(f"line {lineno}: malformed Pauli token {tok!r}")
                qubit = int(tok[1:])
                ops.append((qubit, tok[0].upper()))
                max_qubit = max(max_qubit, qubit)
        parsed.append((lineno, coeff, ops))
    if n_qubits is None:
        n_qubits = max(max_qubit + 1, 1)
    terms = []
    for lineno, coeff, ops in parsed:
        try:
            terms.append((PauliString.from_ops(n_qubits, ops), coeff))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return PauliSum(n_qubits, terms)
