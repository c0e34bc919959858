"""Independent dense-matrix oracles for the test suite.

Everything here is built from letter lists with explicit Kronecker products
and eigendecompositions, deliberately avoiding the package's bitmask
arithmetic, closed-form exponentials, and grouped measurement paths.
Qubit 0 is the least significant bit, so an operator on qubit q sits at
position n-1-q in the Kronecker chain.

The overlap oracles at the end are the exception: they replay ansatz steps
through the package's simulator, as an explicit circuit would run them.
"""

import numpy as np

PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_string(n_qubits, ops):
    """Dense matrix of a Pauli word given as (qubit, letter) pairs."""
    letters = ["I"] * n_qubits
    for qubit, letter in ops:
        letters[qubit] = letter
    mat = np.array([[1.0 + 0.0j]])
    for q in reversed(range(n_qubits)):
        mat = np.kron(mat, PAULI_2X2[letters[q]])
    return mat


def dense_string_from_label(n_qubits, label):
    if label.strip() == "I":
        return dense_string(n_qubits, [])
    ops = []
    for token in label.split():
        ops.append((int(token[1:]), token[0]))
    return dense_string(n_qubits, ops)


def dense_sum(h):
    """Dense matrix of a PauliSum, via labels only (no mask arithmetic)."""
    mat = np.zeros((2**h.n_qubits, 2**h.n_qubits), dtype=complex)
    for ps, coeff in h:
        mat += coeff * dense_string_from_label(h.n_qubits, ps.label())
    return mat


def dense_expm_hermitian(mat, factor):
    """exp(factor * mat) for hermitian mat, by eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(mat)
    return (eigvecs * np.exp(factor * eigvals)) @ eigvecs.conj().T


def conjugated_expectation(h_mat, b_mat, state, theta):
    """<state| exp(i theta B) H exp(-i theta B) |state> by dense algebra."""
    u = dense_expm_hermitian(b_mat, -1j * theta)
    rotated = u @ state
    return float(np.real(np.vdot(rotated, h_mat @ rotated)))


def landscape_scan(h_mat, b_mat, state, thetas):
    """Exact landscape values at many angles, vectorized over the spectrum."""
    eigvals, eigvecs = np.linalg.eigh(b_mat)
    coeffs = eigvecs.conj().T @ state
    h_eig = eigvecs.conj().T @ h_mat @ eigvecs
    phases = np.exp(-1j * np.outer(thetas, eigvals)) * coeffs  # (T, dim)
    return np.real(np.einsum("ti,ij,tj->t", phases.conj(), h_eig, phases))


def random_state(n_qubits, rng):
    vec = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return vec / np.linalg.norm(vec)


def random_real_state(n_qubits, rng):
    vec = rng.normal(size=2**n_qubits).astype(complex)
    return vec / np.linalg.norm(vec)


def random_pauli_sum(n_qubits, n_terms, rng, hermitian=True, seed_letters="IXYZ"):
    """Random Pauli sum built through the package's public constructors."""
    from ggavqe import PauliString, PauliSum

    terms = []
    for _ in range(n_terms):
        ops = []
        for q in range(n_qubits):
            letter = seed_letters[rng.integers(len(seed_letters))]
            if letter != "I":
                ops.append((q, letter))
        coeff = rng.normal()
        if not hermitian:
            coeff = coeff + 1j * rng.normal()
        terms.append((PauliString.from_ops(n_qubits, ops), coeff))
    return PauliSum(n_qubits, terms)


def random_pauli_string(n_qubits, rng):
    from ggavqe import PauliString

    ops = []
    for q in range(n_qubits):
        letter = "IXYZ"[rng.integers(4)]
        if letter != "I":
            ops.append((q, letter))
    return PauliString.from_ops(n_qubits, ops)


def swap_test_p0(phi, psi):
    """Ancilla-zero probability of the explicit SWAP-test circuit.

    Builds the (2n+1)-qubit register |0> (x) |phi> (x) |psi>, applies H on
    the ancilla, the n controlled swaps and H again, and sums |amplitude|^2
    over the ancilla-zero block.
    """
    n = int(np.log2(phi.size))
    # Ancilla is the top qubit: full index = anc*2^(2n) + i_phi*2^n + i_psi.
    joint = np.kron(phi, psi)
    block0 = joint / np.sqrt(2.0)  # after H: (|0> + |1>)/sqrt(2) tensor joint
    # The controlled swaps exchange the two registers in the anc=1 block.
    block1_swapped = joint.reshape(1 << n, 1 << n).T.reshape(joint.size) / np.sqrt(2.0)
    out0 = (block0 + block1_swapped) / np.sqrt(2.0)  # final H on the ancilla
    return float(np.vdot(out0, out0).real)


def overlap_exact(ansatz_a, ansatz_b, generators_by_id):
    """|<a|b>|^2 straight from the two replayed state vectors."""
    from ggavqe.simulator import inner_product, replay

    a = replay(ansatz_a, generators_by_id)
    b = replay(ansatz_b, generators_by_id)
    return abs(inner_product(a, b)) ** 2


def inverse_steps(ansatz):
    """Steps realizing the adjoint circuit: reversed order, negated angles."""
    return tuple((gid, -theta) for gid, theta in reversed(ansatz.steps))


def compute_uncompute_p0(target_ansatz, state, generators_by_id):
    """All-zeros probability of the explicit compute-uncompute circuit.

    Replays the inverse of ``target_ansatz`` on ``state`` step by step and
    projects on the target's initial state, which the inverse maps back to.
    """
    from ggavqe.simulator import apply_exp_generator, inner_product

    for gid, theta in inverse_steps(target_ansatz):
        state = apply_exp_generator(state, generators_by_id[gid], theta)
    reference = target_ansatz.initial.prepare(target_ansatz.n_qubits)
    return abs(inner_product(reference, state)) ** 2
