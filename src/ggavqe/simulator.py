"""Dense state-vector simulation of Pauli sums and exponentiated generators.

Index convention (pinned by tests): qubit ``q`` is bit ``q`` of the amplitude
index, i.e. qubit 0 is the least significant bit.  Occupation-style labels
such as ``"1100"`` are read with qubit 0 as the *first* character, matching
the occupied-first ordering of reference states like ``|1...10...0>``.

A state is stored as float64 amplitudes when it is known to be real and as
complex128 otherwise.  Basis states and |->^n are real; a custom vector
keeps the dtype it is given.  Every kernel serves both dtypes: only the
output dtype and the phase bookkeeping differ, and a real state stays real
exactly as long as every operator applied to it is real.

Exponentials of pool generators are applied through the closed forms, in
G = -iB,

    exp(-i t B) = cos(t) I + sin(t) G                 for involutory B (B^2 = I)
    exp(-i t B) = I + (1 - cos(t)) G^2 + sin(t) G     for tripotent B (B^3 = B)

by repeated Pauli-sum application; the generator matrix is never formed.
``exp_combination`` is the one home of these forms: it combines the images
``(psi, G psi[, G^2 psi])`` of ``generator_images``, or the overlaps
``<tau|G^k psi>`` of a fixed bra with them, which gives an overlap with a
rotated state without building that state or, from string values, the images.
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


def _vdot(a: np.ndarray, b: np.ndarray) -> np.inexact:
    """``sum(conj(a) * b)`` by numpy's own reduction, real on real vectors.

    BLAS ``vdot``/``dot`` split long vectors over threads, so their bits
    depend on the BLAS thread count; this keeps exact results reproducible.
    """
    return np.sum(a.conj() * b)


def z_signs(mask: int, n_qubits: int) -> np.ndarray:
    """``(-1)**popcount(mask & i)`` for every amplitude index ``i``, as float64.

    The sign a Z part with bitmask ``mask`` puts on basis state ``|i>``; with
    ``mask = x | z`` it is also the computational-basis outcome sign of a
    string measured after its basis rotation.
    """
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n_qubits) & mask) & 1)


class StateVector:
    """2**n amplitudes, float64 for a state known to be real and complex128
    otherwise (the dtype of the vector given); value-semantic and internally
    read-only."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, amplitudes: np.ndarray, copy: bool = True):
        amps = np.asarray(amplitudes)
        amps = amps.astype(np.complex128 if np.iscomplexobj(amps) else np.float64, copy=copy)
        if amps.ndim != 1 or amps.size & (amps.size - 1) or amps.size == 1:
            raise ValueError(f"amplitude vector length {amps.size} is not 2**n, n>=1")
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
    amps = np.zeros(1 << n_qubits)
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
    amps = signs / np.sqrt(1 << n_qubits)
    return StateVector(amps, copy=False)


def apply_pauli_sum(state: StateVector, h: PauliSum, i_power: int = 0) -> StateVector:
    """Return ``1j**i_power * h |state>`` (not normalized in general).

    The factor folds into each term's phase ``coeff * 1j**(n_y + i_power)``.
    The result is real when the state is real and every phase is real: with
    ``i_power = 3`` (G = -iB), when every term of h has an odd number of Y
    letters and a real coefficient.
    """
    if h.n_qubits != state.n_qubits:
        raise ValueError(f"size mismatch: {h.n_qubits} vs {state.n_qubits} qubits")
    n = state.n_qubits
    phases = [coeff * (1j) ** ((ps.n_y + i_power) % 4) for ps, coeff in h]
    real = not np.iscomplexobj(state.amplitudes) and not any(p.imag for p in phases)
    out = np.zeros(state.amplitudes.shape, np.float64 if real else np.complex128)
    term = np.empty_like(out)
    # Axis n-1-q of the (2,)*n tensor is qubit q; reversing the axes of the
    # X bits maps index i to i ^ x, so each term adds into a flip view.
    tensor = out.reshape((2,) * n)
    for (ps, _), phase in zip(h, phases):
        # Each Z letter negates the half where its qubit reads 1: exact, so
        # the term has the bits of (phase * z_signs(z)) * amplitudes.  The
        # phase goes on the left; on the right numpy rounds differently.
        np.copyto(term, state.amplitudes)
        for q in range(n):
            if ps.z >> q & 1:
                ones = term.reshape(-1, 2, 1 << q)[:, 1]
                np.negative(ones, out=ones)
        np.multiply(phase.real if real else phase, term, out=term)
        flipped = np.flip(tensor, tuple(n - 1 - q for q in range(n) if ps.x >> q & 1))
        flipped += term.reshape(tensor.shape)
    return StateVector(out, copy=False)


def apply_one_qubit_gate(state: StateVector, gate: np.ndarray, qubit: int) -> StateVector:
    """A 2x2 gate on one qubit, applied into a new state.

    Combined elementwise, not by a BLAS matmul, whose bits depend on the
    BLAS thread count.
    """
    # Axis 1 of this view is bit ``qubit`` of the amplitude index.
    arr = state.amplitudes.reshape(-1, 2, 1 << qubit)
    a0, a1 = arr[:, 0], arr[:, 1]
    out = np.empty(arr.shape, np.result_type(gate, arr))
    out[:, 0] = gate[0, 0] * a0 + gate[0, 1] * a1
    out[:, 1] = gate[1, 0] * a0 + gate[1, 1] * a1
    return StateVector(out.reshape(-1), copy=False)


def expectation(state: StateVector, h: PauliSum) -> float:
    """``<state| h |state>`` for hermitian ``h``, as ``<state|(h|state>)``.

    The reference the tests compare the library's exact energies against:
    those come from string values, through ``ExpectationBackend.exact_value``,
    and build no ``h|state>``.  The imaginary part of this inner product is
    a rounding residue, checked against ``NORM_TOLERANCE``.
    """
    if not h.is_hermitian():
        raise ValueError("expectation requires a hermitian Pauli sum")
    value = _vdot(state.amplitudes, apply_pauli_sum(state, h).amplitudes)
    if abs(value.imag) > NORM_TOLERANCE:
        raise InvariantError(f"imaginary residue {value.imag:g} in expectation")
    return float(value.real)


def inner_product(a: StateVector, b: StateVector) -> complex | float:
    """``<a|b>``, a float when both states are real."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    return _vdot(a.amplitudes, b.amplitudes).item()


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(inner_product(a, b)) ** 2


def to_dense_matrix(h: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum (small registers only)."""
    n = h.n_qubits
    if n > DENSE_DIAGONALIZATION_LIMIT:
        raise ValueError(f"{n} qubits exceeds the dense limit ({DENSE_DIAGONALIZATION_LIMIT})")
    idx = np.arange(1 << n)
    mat = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for ps, coeff in h:
        phase = coeff * (1j) ** (ps.n_y % 4)
        mat[idx ^ ps.x, idx] += phase * z_signs(ps.z, n)
    return mat


def exact_ground_state(h: PauliSum) -> tuple[float, StateVector]:
    """Lowest eigenvalue and eigenvector of the dense hermitian matrix of h.

    The eigenvector phase is fixed (largest-magnitude amplitude real and
    positive) so repeated calls are bit-identical.
    """
    if not h.is_hermitian():
        raise ValueError("exact_ground_state requires a hermitian Pauli sum")
    eigvals, eigvecs = np.linalg.eigh(to_dense_matrix(h))
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


def generator_images(state: StateVector, gen: Generator) -> tuple[StateVector, ...]:
    """``psi`` and ``G psi``, and ``G^2 psi`` for a tripotent body, with
    G = -iB: the images that the closed form combines.  They are real when
    the state is real and G is: every body term has an odd number of Y
    letters and a real coefficient."""
    g_psi = apply_pauli_sum(state, gen.body, 3)
    if gen.kind == INVOLUTORY:
        return state, g_psi
    return state, g_psi, apply_pauli_sum(g_psi, gen.body, 3)


def exp_combination(kind: str, t: float, images):
    """The closed form of ``exp(-i t B)`` on the images ``(x, Gx[, G^2 x])``
    of G = -iB.

    Linear in the images, so it serves amplitude vectors and their inner
    products with one bra alike: on ``(<tau|x>, <tau|Gx>, <tau|G^2 x>)`` it
    gives ``<tau| exp(-i t B) |x>``, where ``<tau|G^k x> = (-i)^k <tau|B^k|x>``.

    With B^2 = I, exp(-i t B) = cos t + sin t G; with B^3 = B, G^2 = -B^2
    turns I + (cos t - 1) B^2 - i sin t B into I + (1 - cos t) G^2 + sin t G.
    On complex images every product has the bits of the form in B: G x is
    -i B x exactly, since ``apply_pauli_sum`` folds the -i into each term's
    phase, left of the term, and a factor of +-i only swaps and negates
    components.  G is real for the paper's pools (odd Y counts, real
    coefficients), so a real state stays real under them.
    """
    if kind == INVOLUTORY:
        x, gx = images
        return np.cos(t) * x + np.sin(t) * gx
    x, gx, g2x = images
    return x + (1.0 - np.cos(t)) * g2x + np.sin(t) * gx


def gram_norm(kind: str, t: float, gram: np.ndarray) -> float:
    """``||exp(-i t B) x||`` from the Gram matrix ``<image_j|image_k>`` of
    the images ``G^j x``, which is ``i^(j-k) <x|B^(j+k)|x>``."""
    # Entry j is <image_j| exp(-i t B) x>; combining their conjugates gives
    # the conjugate of <exp(-i t B) x| exp(-i t B) x>, which is real.
    projections = exp_combination(kind, t, tuple(gram.T))
    squared = exp_combination(kind, t, tuple(np.conj(projections))).real
    return float(np.sqrt(max(squared, 0.0)))


def check_norm(gen: Generator, state_norm: float, node_norm: float) -> None:
    """A unit state must stay a unit state under ``exp(-i t B)``."""
    # Not ``> NORM_TOLERANCE``: a NaN norm must fail the check too.
    if abs(state_norm - 1.0) < 1e-9 and not abs(node_norm - 1.0) <= NORM_TOLERANCE:
        raise InvariantError(
            f"norm drifted to {node_norm:.12g}; generator {gen.label} misclassified?"
        )


def apply_exp_generator(state: StateVector, gen: Generator, theta: float) -> StateVector:
    """Apply ``exp(-i * theta * angle_scale * body)`` via the closed form.

    A real state stays real through a generator with a real exponential;
    any other generator upcasts it to complex once.
    """
    t = gen.angle_scale * theta
    images = [image.amplitudes for image in generator_images(state, gen)]
    result = StateVector(exp_combination(gen.kind, t, images), copy=False)
    check_norm(gen, state.norm(), result.norm())
    return result


# ---------------------------------------------------------------------------
# Ansatz
# ---------------------------------------------------------------------------

_WRAP = 2.0 * np.pi


def wrap_angle(theta: float) -> float:
    """Map an angle into [-pi, pi)."""
    wrapped = float((theta + np.pi) % _WRAP - np.pi)
    # A tiny negative remainder rounds up to a whole turn, which lands on pi.
    return wrapped if wrapped < np.pi else -np.pi


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
                gid, theta = int(tokens[1]), float(tokens[2])
                if not np.isfinite(theta):
                    raise ValueError(f"angle is not finite, got {raw!r}")
                steps.append((gid, theta))
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
