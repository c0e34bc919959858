"""Dense state-vector simulation of Pauli sums and exponentiated generators.

Index convention (pinned by tests): qubit ``q`` is bit ``q`` of the amplitude
index, i.e. qubit 0 is the least significant bit.  Occupation-style labels
such as ``"1100"`` are read with qubit 0 as the *first* character, matching
the occupied-first ordering of reference states like ``|1...10...0>``.

Exponentials of pool generators are applied through the closed forms

    exp(-i t B) = cos(t) I - i sin(t) B              for involutory B (B^2 = I)
    exp(-i t B) = I + (cos(t) - 1) B^2 - i sin(t) B  for tripotent B (B^3 = B)

by repeated Pauli-sum application; the generator matrix is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum

DENSE_DIAGONALIZATION_LIMIT = 12
MAX_SIMULATOR_QUBITS = 24
NORM_TOLERANCE = 1e-10

INVOLUTORY = "involutory"
TRIPOTENT = "tripotent"


class InvariantError(RuntimeError):
    """A runtime check of the simulation's own invariants failed (a bug or a
    misclassified generator, not bad input)."""


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """``sum(conj(a) * b)`` by numpy's own reduction.

    BLAS ``vdot``/``dot`` split long vectors over threads, so their bits
    depend on the BLAS thread count; this keeps exact results reproducible.
    """
    return np.sum(np.conj(a) * b)


def z_signs(mask: int, n_qubits: int) -> np.ndarray:
    """``(-1)**popcount(mask & i)`` for every amplitude index ``i``, as float64.

    The sign a Z part with bitmask ``mask`` puts on basis state ``|i>``; with
    ``mask = x | z`` it is also the computational-basis outcome sign of a
    string measured after its basis rotation.
    """
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n_qubits) & mask) & 1)


class StateVector:
    """2**n complex amplitudes; value-semantic and internally read-only."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, amplitudes: np.ndarray, copy: bool = True):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size & (amps.size - 1) or amps.size == 1:
            raise ValueError(f"amplitude vector length {amps.size} is not 2**n, n>=1")
        if copy:
            amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", amps.size.bit_length() - 1)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def basis_state(n_qubits: int, index: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, copy=False)


def occupation_index(occupations: str) -> int:
    """Amplitude index of an occupation label (qubit 0 = first character)."""
    if not all(ch in "01" for ch in occupations):
        raise ValueError(f"occupation string must be over 0/1, got {occupations!r}")
    return sum(1 << q for q, ch in enumerate(occupations) if ch == "1")


def occupation_basis_state(occupations: str) -> StateVector:
    return basis_state(len(occupations), occupation_index(occupations))


def uniform_minus_state(n_qubits: int) -> StateVector:
    """|->^n, the ground state of the non-interacting term sum_p X_p."""
    signs = z_signs((1 << n_qubits) - 1, n_qubits)
    amps = signs.astype(np.complex128) / np.sqrt(1 << n_qubits)
    return StateVector(amps, copy=False)


def apply_pauli_sum(state: StateVector, h: PauliSum) -> StateVector:
    """Return ``h |state>`` (not normalized in general)."""
    if h.n_qubits != state.n_qubits:
        raise ValueError(f"size mismatch: {h.n_qubits} vs {state.n_qubits} qubits")
    n = state.n_qubits
    out = np.zeros_like(state.amplitudes)
    # Axis n-1-q of the (2,)*n tensor is qubit q; reversing the axes of the
    # X bits maps index i to i ^ x, so each term adds into a flip view.
    tensor = out.reshape((2,) * n)
    for ps, coeff in h:
        phase = coeff * (1j) ** (ps.n_y % 4)
        term = (phase * z_signs(ps.z, n)) * state.amplitudes
        flipped = np.flip(tensor, tuple(n - 1 - q for q in range(n) if ps.x >> q & 1))
        flipped += term.reshape(tensor.shape)
    return StateVector(out, copy=False)


def apply_one_qubit_gate(state: StateVector, gate: np.ndarray, qubit: int) -> StateVector:
    """Apply a 2x2 gate on one qubit (used for measurement basis changes)."""
    # Axis 1 of this view is bit ``qubit`` of the amplitude index.  The two
    # slices are combined elementwise, not by a BLAS matmul, whose bits
    # depend on the BLAS thread count.
    arr = state.amplitudes.reshape(-1, 2, 1 << qubit)
    a0, a1 = arr[:, 0], arr[:, 1]
    out = np.empty_like(arr)
    out[:, 0] = gate[0, 0] * a0 + gate[0, 1] * a1
    out[:, 1] = gate[1, 0] * a0 + gate[1, 1] * a1
    return StateVector(out.reshape(-1), copy=False)


def expectation(state: StateVector, h: PauliSum) -> float:
    """``<state| h |state>`` for hermitian ``h``."""
    if not h.is_hermitian():
        raise ValueError("expectation requires a hermitian Pauli sum")
    value = _vdot(state.amplitudes, apply_pauli_sum(state, h).amplitudes)
    if abs(value.imag) > NORM_TOLERANCE:
        raise InvariantError(f"imaginary residue {value.imag:g} in expectation")
    return float(value.real)


def inner_product(a: StateVector, b: StateVector) -> complex:
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    return complex(_vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(inner_product(a, b)) ** 2


def to_dense_matrix(h: PauliSum, limit: int = DENSE_DIAGONALIZATION_LIMIT) -> np.ndarray:
    """Dense matrix of a Pauli sum (small registers only)."""
    n = h.n_qubits
    if n > limit:
        raise ValueError(f"{n} qubits exceeds the dense limit ({limit})")
    idx = np.arange(1 << n)
    mat = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for ps, coeff in h:
        phase = coeff * (1j) ** (ps.n_y % 4)
        mat[idx ^ ps.x, idx] += phase * z_signs(ps.z, n)
    return mat


def exact_ground_state(
    h: PauliSum, dense_limit: int = DENSE_DIAGONALIZATION_LIMIT
) -> tuple[float, StateVector]:
    """Lowest eigenvalue and eigenvector of the dense hermitian matrix of h.

    The eigenvector phase is fixed (largest-magnitude amplitude real and
    positive) so repeated calls are bit-identical.
    """
    if h.n_qubits > dense_limit:
        raise ValueError(f"{h.n_qubits} qubits exceeds the dense limit ({dense_limit})")
    if not h.is_hermitian():
        raise ValueError("exact_ground_state requires a hermitian Pauli sum")
    eigvals, eigvecs = np.linalg.eigh(to_dense_matrix(h, limit=dense_limit))
    vec = eigvecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (abs(vec[pivot]) / vec[pivot])
    return float(eigvals[0]), StateVector(vec)


# ---------------------------------------------------------------------------
# Generators and ansatz replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    """A pool element: hermitian Pauli sum plus its algebraic class.

    ``angle_scale`` absorbs any scalar prefactor of the printed generator so
    that ``body`` itself satisfies B^2 = I or B^3 = B exactly; the unitary
    applied for a step angle t is exp(-i * angle_scale * t * body).
    """

    gid: int
    label: str
    body: PauliSum
    kind: str  # INVOLUTORY or TRIPOTENT
    angle_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (INVOLUTORY, TRIPOTENT):
            raise ValueError(f"unknown algebraic class {self.kind!r}")


def apply_exp_generator(state: StateVector, gen: Generator, theta: float) -> StateVector:
    """Apply ``exp(-i * theta * angle_scale * body)`` via the closed form."""
    if gen.body.n_qubits != state.n_qubits:
        raise ValueError(
            f"size mismatch: {gen.body.n_qubits} vs {state.n_qubits} qubits"
        )
    t = gen.angle_scale * theta
    psi = state.amplitudes
    b_psi = apply_pauli_sum(state, gen.body).amplitudes
    if gen.kind == INVOLUTORY:
        out = np.cos(t) * psi - 1j * np.sin(t) * b_psi
    else:
        b2_psi = apply_pauli_sum(StateVector(b_psi, copy=False), gen.body).amplitudes
        out = psi + (np.cos(t) - 1.0) * b2_psi - 1j * np.sin(t) * b_psi
    result = StateVector(out, copy=False)
    if abs(state.norm() - 1.0) < 1e-9 and abs(result.norm() - 1.0) > NORM_TOLERANCE:
        raise InvariantError(
            f"norm drifted to {result.norm():.12g}; generator {gen.label} misclassified?"
        )
    return result


# ---------------------------------------------------------------------------
# Ansatz
# ---------------------------------------------------------------------------

_WRAP = 2.0 * np.pi


def wrap_angle(theta: float) -> float:
    """Map an angle into [-pi, pi)."""
    return float((theta + np.pi) % _WRAP - np.pi)


@dataclass(frozen=True)
class InitialState:
    """Named state preparation: computational basis string, |->^n, or custom."""

    kind: str  # "basis" | "uniform-minus" | "custom"
    occupations: str | None = None
    vector: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "basis":
            if self.occupations is None:
                raise ValueError("basis initial state needs an occupation string")
        elif self.kind == "custom":
            if self.vector is None:
                raise ValueError("custom initial state needs an amplitude vector")
        elif self.kind != "uniform-minus":
            raise ValueError(f"unknown initial state kind {self.kind!r}")

    def prepare(self, n_qubits: int) -> StateVector:
        if self.kind == "basis":
            if len(self.occupations) != n_qubits:
                raise ValueError(
                    f"occupation string {self.occupations!r} is not {n_qubits} qubits"
                )
            return occupation_basis_state(self.occupations)
        if self.kind == "uniform-minus":
            return uniform_minus_state(n_qubits)
        state = StateVector(self.vector)
        if state.n_qubits != n_qubits:
            raise ValueError(f"custom vector is {state.n_qubits} qubits, need {n_qubits}")
        return state

    def describe(self) -> str:
        if self.kind == "basis":
            return f"basis:{self.occupations}"
        if self.kind == "uniform-minus":
            return "uniform-minus"
        return "custom"


@dataclass(frozen=True)
class Ansatz:
    """Ordered product of exponentiated pool generators on an initial state.

    Steps are ``(generator_id, angle)`` stored verbatim; replaying the steps
    on the initial state is deterministic bit-for-bit.  Drivers append
    canonical angles in [-pi, pi); angles are never wrapped here because a
    2*pi shift changes the unitary of a generator with a fractional angle
    scale.
    """

    n_qubits: int
    initial: InitialState
    steps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "steps",
            tuple((int(g), float(t)) for g, t in self.steps),
        )

    def extended(self, gid: int, theta: float) -> "Ansatz":
        return Ansatz(self.n_qubits, self.initial, self.steps + ((gid, theta),))

    def with_angle(self, position: int, theta: float) -> "Ansatz":
        steps = list(self.steps)
        steps[position] = (steps[position][0], float(theta))
        return Ansatz(self.n_qubits, self.initial, tuple(steps))


def replay(ansatz: Ansatz, generators_by_id: dict[int, Generator]) -> StateVector:
    """Apply the ansatz steps in order to its initial state."""
    state = ansatz.initial.prepare(ansatz.n_qubits)
    for gid, theta in ansatz.steps:
        state = apply_exp_generator(state, generators_by_id[gid], theta)
    return state


def ansatz_to_text(ansatz: Ansatz, pool_name: str = "custom") -> str:
    """Serialize an ansatz (named preparations only) for replay elsewhere."""
    if ansatz.initial.kind == "custom":
        raise ValueError("custom initial vectors have no text form")
    lines = [
        "# ansatz v1",
        f"n_qubits {ansatz.n_qubits}",
        f"pool {pool_name}",
        f"initial {ansatz.initial.describe()}",
    ]
    for gid, theta in ansatz.steps:
        lines.append(f"step {gid} {theta:.17g}")
    return "\n".join(lines) + "\n"


def ansatz_from_text(text: str) -> tuple[Ansatz, str]:
    """Parse the ansatz text format; returns ``(ansatz, pool_name)``."""
    n_qubits = None
    pool_name = "custom"
    initial: InitialState | None = None
    steps: list[tuple[int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "n_qubits":
                n_qubits = int(tokens[1])
            elif tokens[0] == "pool":
                pool_name = tokens[1]
            elif tokens[0] == "initial":
                initial = parse_initial_state(tokens[1])
            elif tokens[0] == "step":
                steps.append((int(tokens[1]), float(tokens[2])))
            else:
                raise ValueError(f"unknown directive {tokens[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n_qubits is None or initial is None:
        raise ValueError("ansatz text must declare n_qubits and initial")
    return Ansatz(n_qubits, initial, tuple(steps)), pool_name


def parse_initial_state(spec: str) -> InitialState:
    """Parse ``basis:<bits>`` or ``uniform-minus`` descriptors."""
    if spec == "uniform-minus":
        return InitialState("uniform-minus")
    if spec.startswith("basis:"):
        return InitialState("basis", occupations=spec.split(":", 1)[1])
    raise ValueError(f"unknown initial state spec {spec!r}")
