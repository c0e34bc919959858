"""Hamiltonian construction: transverse-field Ising chains, general spin
chains, and Jordan-Wigner mapped molecular Hamiltonians, plus the text-file
loaders for both Pauli sums and fermionic integrals.

The integral file format is one entry per line::

    norb <n_spin_orbitals>
    nelec <n_electrons>
    PQ <p> <q> <value>
    PQRS <p> <q> <r> <s> <value>

where the PQ table feeds ``h_pq a_p^ a_q`` and the PQRS table feeds
``h_pqrs a_p^ a_q^ a_r a_s`` verbatim (no notation conversion is applied).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import pauli
from .pauli import PauliString, PauliSum
from .simulator import StateVector, occupation_basis_state


@dataclass(frozen=True)
class IsingSpec:
    """Open-boundary transverse-field Ising chain: h sum X_p + J sum Z_p Z_{p+1}."""

    n_qubits: int
    h: float
    j: float

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("Ising chain needs at least 2 qubits")


@dataclass(frozen=True)
class GeneralSpinChainSpec:
    """Spin chain with per-site fields (x, z) and per-bond couplings (x, y, z)."""

    n_qubits: int
    hx: tuple[float, ...]
    hz: tuple[float, ...]
    jx: tuple[float, ...]
    jy: tuple[float, ...]
    jz: tuple[float, ...]

    def __post_init__(self):
        n = self.n_qubits
        if n < 2:
            raise ValueError("spin chain needs at least 2 qubits")
        for name in ("hx", "hz"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have length {n}")
        for name in ("jx", "jy", "jz"):
            if len(getattr(self, name)) != n - 1:
                raise ValueError(f"{name} must have length {n - 1}")

    @classmethod
    def uniform(
        cls, n_qubits: int, hx: float = 0.0, hz: float = 0.0,
        jx: float = 0.0, jy: float = 0.0, jz: float = 0.0,
    ) -> "GeneralSpinChainSpec":
        return cls(
            n_qubits,
            (hx,) * n_qubits, (hz,) * n_qubits,
            (jx,) * (n_qubits - 1), (jy,) * (n_qubits - 1), (jz,) * (n_qubits - 1),
        )


@dataclass(frozen=True)
class FermionIntegrals:
    """One- and two-body integrals for a second-quantized Hamiltonian."""

    n_spin_orbitals: int
    n_electrons: int
    one_body: dict[tuple[int, int], float] = field(default_factory=dict)
    two_body: dict[tuple[int, int, int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_spin_orbitals
        for p, q in self.one_body:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"one-body index ({p},{q}) out of range")
        for p, q, r, s in self.two_body:
            if not all(0 <= k < n for k in (p, q, r, s)):
                raise ValueError(f"two-body index ({p},{q},{r},{s}) out of range")
        if not 0 <= self.n_electrons <= n:
            raise ValueError(f"n_electrons {self.n_electrons} out of range")


def build_ising(spec: IsingSpec) -> PauliSum:
    """Exactly 2N-1 terms: h on every X_p plus J on every Z_p Z_{p+1} bond."""
    n = spec.n_qubits
    terms = [(PauliString.from_ops(n, [(p, "X")]), spec.h) for p in range(n)]
    terms += [
        (PauliString.from_ops(n, [(p, "Z"), (p + 1, "Z")]), spec.j)
        for p in range(n - 1)
    ]
    return PauliSum(n, terms, drop_tolerance=0.0)


def build_general_chain(spec: GeneralSpinChainSpec) -> PauliSum:
    n = spec.n_qubits
    terms: list[tuple[PauliString, complex]] = []
    for k in range(n):
        terms.append((PauliString.from_ops(n, [(k, "X")]), spec.hx[k]))
        terms.append((PauliString.from_ops(n, [(k, "Z")]), spec.hz[k]))
    for k in range(n - 1):
        for letter, coeffs in (("X", spec.jx), ("Y", spec.jy), ("Z", spec.jz)):
            terms.append(
                (PauliString.from_ops(n, [(k, letter), (k + 1, letter)]), coeffs[k])
            )
    return PauliSum(n, terms)


def jordan_wigner(index: int, dagger: bool, n_qubits: int) -> PauliSum:
    """Jordan-Wigner image of a_p (or a_p^ when ``dagger``): Z string then (X +- iY)/2."""
    if not 0 <= index < n_qubits:
        raise ValueError(f"orbital index {index} out of range for {n_qubits} qubits")
    zs = [(i, "Z") for i in range(index)]
    sign = -0.5j if dagger else 0.5j
    return PauliSum(
        n_qubits,
        [
            (PauliString.from_ops(n_qubits, zs + [(index, "X")]), 0.5),
            (PauliString.from_ops(n_qubits, zs + [(index, "Y")]), sign),
        ],
        drop_tolerance=0.0,
    )


def map_molecular_hamiltonian(ints: FermionIntegrals) -> PauliSum:
    """H = sum h_pq a_p^ a_q + sum h_pqrs a_p^ a_q^ a_r a_s under Jordan-Wigner.

    Raises if the mapped operator is not hermitian, which signals integrals
    without the required index symmetry.
    """
    n = ints.n_spin_orbitals
    create = [jordan_wigner(p, True, n) for p in range(n)]
    annihilate = [jordan_wigner(p, False, n) for p in range(n)]
    products = [
        value * (create[p] @ annihilate[q])
        for (p, q), value in sorted(ints.one_body.items()) if value != 0.0
    ] + [
        value * (create[p] @ create[q] @ annihilate[r] @ annihilate[s])
        for (p, q, r, s), value in sorted(ints.two_body.items()) if value != 0.0
    ]
    total = PauliSum(n, [term for product in products for term in product])
    if not total.is_hermitian():
        raise ValueError(
            "mapped Hamiltonian is not hermitian; check integral symmetry"
        )
    # Exact arithmetic leaves float dust on the imaginary parts only.
    return PauliSum(n, ((ps, complex(c.real, 0.0)) for ps, c in total))


def hartree_fock_state(n_electrons: int, n_qubits: int) -> StateVector:
    """|1...10...0> with the first ``n_electrons`` qubits occupied."""
    return occupation_basis_state(hartree_fock_occupations(n_electrons, n_qubits))


def hartree_fock_occupations(n_electrons: int, n_qubits: int) -> str:
    """Occupation label of the Hartree-Fock state (qubit 0 first)."""
    if not 0 <= n_electrons <= n_qubits:
        raise ValueError(
            f"n_electrons {n_electrons} invalid for {n_qubits} spin-orbitals"
        )
    return "1" * n_electrons + "0" * (n_qubits - n_electrons)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def load_pauli_sum(path: str | os.PathLike, n_qubits: int | None = None) -> PauliSum:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return pauli.loads(text, n_qubits=n_qubits)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_pauli_sum(h: PauliSum, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pauli.dumps(h))


def load_integrals(path: str | os.PathLike) -> FermionIntegrals:
    """Parse the integral text format; errors carry the line number."""
    norb = None
    nelec = 0
    one_body: dict[tuple[int, int], float] = {}
    two_body: dict[tuple[int, int, int, int], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            tag = tokens[0].lower()
            try:
                if tag == "norb":
                    norb = int(tokens[1])
                elif tag == "nelec":
                    nelec = int(tokens[1])
                elif tag == "pq":
                    p, q = int(tokens[1]), int(tokens[2])
                    one_body[(p, q)] = one_body.get((p, q), 0.0) + float(tokens[3])
                elif tag == "pqrs":
                    key = tuple(int(t) for t in tokens[1:5])
                    two_body[key] = two_body.get(key, 0.0) + float(tokens[5])
                else:
                    raise ValueError(f"unknown record {tokens[0]!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if norb is None:
        raise ValueError(f"{path}: missing 'norb' header")
    try:
        return FermionIntegrals(norb, nelec, one_body, two_body)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
