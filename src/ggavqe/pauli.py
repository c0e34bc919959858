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
in the number of qubits and equality a plain mask comparison.  A
:class:`TermTable` holds the terms of many sums as arrays and forms their
products in one vectorised pass; ``PauliSum`` products and commutators are
its one-owner case.

The on-disk text format for a Pauli sum is one term per line::

    <real> [<imag>] <LETTER><index> <LETTER><index> ...

e.g. ``0.5 X0`` or ``0.2 Z0 Z1``; the identity term is written ``<coeff> I``.
Tokens are whitespace separated and ``#`` starts a comment line.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Iterator

import numpy as np

DEFAULT_DROP_TOLERANCE = 1e-14
HERMITICITY_TOLERANCE = 1e-12

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
        return cls.from_ops(n_qubits, _parse_ops(label.split()))

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
        """Operator product of two sums: the one-owner table product."""
        self._check_size(other)
        n = self.n_qubits
        return (TermTable.stack(n, [self]) @ TermTable.stack(n, [other])).sums()[0]

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
    """``[a, b] = a@b - b@a``, simplified: the one-owner table commutator,
    ``2 pa pb`` over the anticommuting string pairs."""
    a._check_size(b)
    n = a.n_qubits
    return TermTable.stack(n, [a]).commutator(TermTable.stack(n, [b])).sums()[0]


def conjugate_by(h: PauliSum, b: PauliSum) -> PauliSum:
    """Sandwich product ``b @ h @ b``, simplified."""
    return (b @ h) @ b


def identity_sum(n_qubits: int) -> PauliSum:
    return PauliSum(n_qubits, [(PauliString.identity(n_qubits), 1.0)])


# ---------------------------------------------------------------------------
# Term tables: many sums at once, as arrays
# ---------------------------------------------------------------------------

# A table product forms the term pairs of a chunk of owners at a time: at
# most this many pairs, or one owner's.
_PAIR_CHUNK = 1 << 14
# Masks are int64 words of this many bits, low word first: a register of
# any width fits, and every word stays non-negative.
_WORD = 63
_FIELDS = ("owner", "x", "z", "re", "im")
_PHASE_RE, _PHASE_IM = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0])


def _cmul(ar, ai, br, bi):
    """A complex product as CPython forms it, in real arithmetic: numpy's
    complex multiply can differ in the last bit."""
    return ar * br - ai * bi, ar * bi + ai * br


def _words(n_qubits: int, masks: list[int]) -> np.ndarray:
    """Masks as a (words, terms) array."""
    full = (1 << _WORD) - 1
    return np.array([[(m >> shift) & full for m in masks]
                     for shift in range(0, n_qubits, _WORD)], dtype=np.int64)


def _masks(words: np.ndarray) -> list[int]:
    """The masks of a (words, terms) array."""
    return [sum(w << k * _WORD for k, w in enumerate(term)) for term in zip(*words.tolist())]


def _bits(column: np.ndarray) -> int:
    return int(column.max(initial=0)).bit_length()


def _sort_key(columns: list[np.ndarray], widths: list[int]) -> np.ndarray:
    """One int64 per term, in the order of its non-negative int64 columns
    (most significant first, column ``i`` below ``2**widths[i]``), packed
    side by side; where a column does not fit beside the key so far in 63
    bits, both are replaced by their ranks."""
    key, used = columns[0], widths[0]
    for column, bits in zip(columns[1:], widths[1:]):
        if used + bits > 63:
            key, column = (np.unique(a, return_inverse=True)[1] for a in (key, column))
            used, bits = _bits(key), _bits(column)
        key, used = key << bits | column, used + bits
    return key


class TermTable:
    """The terms of ``n_owners`` Pauli sums at once: an int64 array
    ``owner``, int64 (words, terms) arrays ``x`` and ``z`` of the masks in
    ``_WORD``-bit words, and float arrays ``re``, ``im``; sorted by
    (owner, z, x).

    This is the library's one Pauli product; ``PauliSum``'s ``@`` and
    ``commutator`` are its one-owner case.  Owner by owner, a product lists
    the term pairs of the scalar pair loop (left terms outer, right inner,
    each in canonical order), forms each coefficient by ``_cmul``, and
    ``merged`` sums like terms by ``np.bincount`` in that order, as the
    ``PauliSum`` dict merge does, with the same drop tolerance and NaN check.
    An operand with one owner is shared by every owner of the other.
    """

    __slots__ = ("n_qubits", "n_owners") + _FIELDS

    def __init__(self, n_qubits: int, n_owners: int, owner, x, z, re, im):
        self.n_qubits, self.n_owners = n_qubits, int(n_owners)
        self.owner, self.x, self.z, self.re, self.im = owner, x, z, re, im

    @classmethod
    def stack(cls, n_qubits: int, sums: list[PauliSum]) -> "TermTable":
        """Sum ``i`` of ``sums`` as owner ``i``."""
        if any(s.n_qubits != n_qubits for s in sums):
            raise ValueError(f"size mismatch: a sum not on {n_qubits} qubits")
        strings = [ps for s in sums for ps in s.strings()]
        owner = np.repeat(np.arange(len(sums), dtype=np.int64), [len(s) for s in sums])
        coeffs = np.array([c for s in sums for _, c in s], dtype=complex)
        return cls(n_qubits, len(sums), owner, _words(n_qubits, [ps.x for ps in strings]),
                   _words(n_qubits, [ps.z for ps in strings]), coeffs.real, coeffs.imag)

    @classmethod
    def merged(cls, n_qubits: int, n_owners: int, owner, x, z, re, im) -> "TermTable":
        """The table of the terms given, like terms summed in input order."""
        words = [min(_WORD, n_qubits - k) for k in range(0, n_qubits, _WORD)][::-1]
        key = _sort_key([owner, *z[::-1], *x[::-1]], [_bits(owner), *words, *words])
        keys, inverse = np.unique(key, return_inverse=True)
        at = np.empty(keys.size, dtype=np.int64)
        at[inverse] = np.arange(inverse.size)  # a term of each key
        re, im = (np.bincount(inverse, part, keys.size) for part in (re, im))
        keep = np.hypot(re, im) >= DEFAULT_DROP_TOLERANCE
        owner = owner[at]
        # As in PauliSum: NaN raises in a sum that drops a term (an exact zero is no drop).
        nan = np.isnan(re) | np.isnan(im)
        if nan.any() and np.isin(owner[nan], owner[~keep & ((re != 0) | (im != 0))]).any():
            raise ValueError("Pauli sum coefficient is not a number")
        at = at[keep]
        return cls(n_qubits, n_owners, owner[keep], x.take(at, 1), z.take(at, 1), re[keep],
                   im[keep])

    @classmethod
    def concat(cls, tables: list["TermTable"]) -> "TermTable":
        """The owners of each table in turn, numbered on."""
        offsets = np.cumsum([0] + [t.n_owners for t in tables])
        return cls(tables[0].n_qubits, offsets[-1],
                   np.concatenate([t.owner + k for t, k in zip(tables, offsets)]),
                   *(np.concatenate([getattr(t, f) for t in tables], axis=-1)
                     for f in _FIELDS[1:]))

    def sums(self) -> list[PauliSum]:
        """Owner ``i`` as sum ``i``."""
        terms = [[] for _ in range(self.n_owners)]
        for o, x, z, re, im in zip(self.owner.tolist(), _masks(self.x), _masks(self.z),
                                   self.re.tolist(), self.im.tolist()):
            terms[o].append((PauliString(self.n_qubits, x, z), complex(re, im)))
        return [PauliSum(self.n_qubits, t) for t in terms]

    def equal_owners(self, other: "TermTable") -> np.ndarray:
        """Per owner, whether both tables hold the same terms, as ``PauliSum``'s
        ``==`` compares them."""
        equal = (np.bincount(self.owner, minlength=self.n_owners)
                 == np.bincount(other.owner, minlength=self.n_owners))
        mine, theirs = equal[self.owner], equal[other.owner]
        differ = (self.re[mine] != other.re[theirs]) | (self.im[mine] != other.im[theirs])
        for a, b in ((self.x, other.x), (self.z, other.z)):
            differ |= (a.compress(mine, 1) != b.compress(theirs, 1)).any(axis=0)
        equal[self.owner[mine][differ]] = False
        return equal

    def _spans(self, n_owners: int) -> tuple[np.ndarray, np.ndarray]:
        """First term and term count per owner; a shared table's whole range."""
        if self.n_owners == n_owners:
            counts = np.bincount(self.owner, minlength=n_owners)
            return np.cumsum(counts) - counts, counts
        if self.n_owners != 1:
            raise ValueError(f"owner mismatch: {self.n_owners} vs {n_owners}")
        return np.zeros(n_owners, dtype=np.int64), np.full(n_owners, self.owner.size)

    def take(self, owners: list[int]) -> "TermTable":
        """Owner ``owners[k]`` as owner ``k``."""
        owners = np.asarray(owners, dtype=np.int64)
        starts, counts = (a[owners] for a in self._spans(self.n_owners))
        owner = np.repeat(np.arange(owners.size), counts)
        idx = np.arange(owner.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return TermTable(self.n_qubits, owners.size, owner,
                         *(getattr(self, f).take(idx, -1) for f in _FIELDS[1:]))

    def _product(self, other: "TermTable", commutator: bool) -> "TermTable":
        n_owners = other.n_owners if self.n_owners == 1 else self.n_owners
        (sa, na), (sb, nb) = self._spans(n_owners), other._spans(n_owners)
        pairs, bounds, total = na * nb, [0], 0
        for o, count in enumerate(pairs.tolist()):
            if total and total + count > _PAIR_CHUNK:
                bounds.append(o)
                total = 0
            total += count
        parts = []
        for lo, hi in zip(bounds, bounds[1:] + [n_owners]):
            m = pairs[lo:hi]
            owner = np.repeat(np.arange(lo, hi), m)
            p = np.arange(owner.size) - np.repeat(np.cumsum(m) - m, m)
            i, j = sa[owner] + p // nb[owner], sb[owner] + p % nb[owner]
            # Bit counts are uint8, summed over the mask words (the rows); a
            # wrap (mod 256) keeps them mod 4.
            count = np.bitwise_count
            if commutator:  # anticommuting pairs only, coefficient 2 ca cb phase
                odd = sum(count(self.z.take(i, 1) & other.x.take(j, 1))
                          + count(self.x.take(i, 1) & other.z.take(j, 1))) & 1 == 1
                owner, i, j = owner[odd], i[odd], j[odd]
            xi, zi = self.x.take(i, 1), self.z.take(i, 1)
            xj, zj = other.x.take(j, 1), other.z.take(j, 1)
            x, z = xi ^ xj, zi ^ zj
            # Phase i^k with k = ny(left) + ny(right) - ny(product) + 2 flips,
            # a string being i^ny W(x, z) and the flips those of commuting the
            # Z part of the left string past the X part of the right.
            k = sum(count(xi & zi) + count(xj & zj) - count(x & z) + 2 * count(zi & xj)) % 4
            a = _cmul(2.0, 0.0, self.re[i], self.im[i]) if commutator else (self.re[i], self.im[i])
            re, im = _cmul(*_cmul(*a, other.re[j], other.im[j]), _PHASE_RE[k], _PHASE_IM[k])
            parts.append(TermTable.merged(self.n_qubits, n_owners, owner, x, z, re, im))
        # The chunks hold consecutive owners, so in turn they are in order.
        return TermTable(self.n_qubits, n_owners,
                         *(np.concatenate([getattr(t, f) for t in parts], axis=-1)
                           for f in _FIELDS))

    def __matmul__(self, other: "TermTable") -> "TermTable":
        return self._product(other, False)

    def commutator(self, other: "TermTable") -> "TermTable":
        """``[self, other]``: ``2 pa pb`` over the anticommuting pairs."""
        return self._product(other, True)

    def __mul__(self, scalar) -> "TermTable":
        """Every owner times a scalar, or owner ``i`` times ``scalar[i]``."""
        s = np.asarray(scalar, dtype=complex)
        s = s[self.owner] if s.ndim else s
        return TermTable.merged(self.n_qubits, self.n_owners, self.owner, self.x, self.z,
                                *_cmul(self.re, self.im, s.real, s.imag))

    __rmul__ = __mul__

    def __add__(self, other: "TermTable") -> "TermTable":
        """Per owner, ``self``'s terms then ``other``'s, merged."""
        if other.n_owners != self.n_owners:
            raise ValueError(f"owner mismatch: {self.n_owners} vs {other.n_owners}")
        return TermTable.merged(self.n_qubits, self.n_owners, *(
            np.concatenate([getattr(self, f), getattr(other, f)], axis=-1) for f in _FIELDS))

    def __sub__(self, other: "TermTable") -> "TermTable":
        return self + TermTable(self.n_qubits, other.n_owners, other.owner, other.x, other.z,
                                -other.re, -other.im)


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


def parse_term(line: str) -> tuple[complex, list[tuple[int, str]]]:
    """One term line of the text format, comment stripped, as
    ``(coefficient, [(qubit, letter), ...])``."""
    tokens = line.split()
    floats: list[float] = []
    while tokens and len(floats) < 2:
        try:
            floats.append(float(tokens[0]))
        except ValueError:
            break
        tokens.pop(0)
    if not floats:
        raise ValueError(f"expected a coefficient, got {line!r}")
    coeff = complex(floats[0], floats[1] if len(floats) > 1 else 0.0)
    if not cmath.isfinite(coeff):
        raise ValueError(f"coefficient is not finite, got {line!r}")
    return coeff, _parse_ops(tokens)


def _parse_ops(tokens: list[str]) -> list[tuple[int, str]]:
    """``(qubit, letter)`` pairs of tokens such as ``X0``; a lone ``I`` is none."""
    if tokens == ["I"]:
        return []
    ops = []
    for tok in tokens:
        letter, index = tok[:1].upper(), tok[1:]
        if letter not in _LETTERS or not index.isdigit():
            raise ValueError(f"malformed Pauli token {tok!r}")
        ops.append((int(index), letter))
    return ops


def loads(text: str, n_qubits: int | None = None) -> PauliSum:
    """Parse the text format.

    The register size is inferred from the largest qubit index unless
    ``n_qubits`` is given.  Raises ``ValueError`` with the offending line
    number on malformed input.
    """
    parsed: list[tuple[int, complex, list[tuple[int, str]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                parsed.append((lineno, *parse_term(line)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if n_qubits is None:
        n_qubits = max([q + 1 for _, _, ops in parsed for q, _ in ops] + [1])
    terms = []
    for lineno, coeff, ops in parsed:
        try:
            terms.append((PauliString.from_ops(n_qubits, ops), coeff))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return PauliSum(n_qubits, terms)
