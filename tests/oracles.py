"""Independent dense-matrix oracles for the test suite.

Everything here is built from letter lists with explicit Kronecker products
and eigendecompositions, deliberately avoiding the package's bitmask
arithmetic, closed-form exponentials, and grouped measurement paths.
Qubit 0 is the least significant bit, so an operator on qubit q sits at
position n-1-q in the Kronecker chain.

``dense_run`` replays a whole greedy run (``gga``, ``overlap``, ``gga2d``)
on dense matrices, from landscape scans in the eigenbases of the bodies.

The grouping oracles read strings one letter at a time and never touch
their masks.  ``coefficient_observables`` is the scalar reference of the
pool-wide table pass: one generator at a time through ``PauliSum``
products, whose bits the table must keep.  The sampled-measurement and overlap oracles are
the exception: they run gates and ansatz steps through the package's
simulator, one at a time, as an explicit circuit would run them.  So is
``pauli_sum_by_sign_vectors``, which keeps the masked sign-vector
arithmetic that ``apply_pauli_sum`` must reproduce bit for bit.
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


def pauli_sum_by_sign_vectors(amplitudes, h):
    """``h |psi>`` with each term formed as ``(phase * z_signs(z)) * psi``
    from a float sign vector over all 2^n indices, then added into the flip
    view of the X bits: the arithmetic whose bits ``apply_pauli_sum`` keeps."""
    from ggavqe.simulator import z_signs

    n = h.n_qubits
    out = np.zeros_like(amplitudes)
    tensor = out.reshape((2,) * n)
    for ps, coeff in h:
        phase = coeff * (1j) ** (ps.n_y % 4)
        term = (phase * z_signs(ps.z, n)) * amplitudes
        flipped = np.flip(tensor, tuple(n - 1 - q for q in range(n) if ps.x >> q & 1))
        flipped += term.reshape(tensor.shape)
    return out


def coefficient_observables(h, generator):
    """The model-coefficient observables of one generator, keyed as the
    landscape names them, by scalar ``PauliSum`` algebra."""
    from ggavqe.pauli import commutator, conjugate_by
    from ggavqe.simulator import INVOLUTORY

    body = generator.body
    grad_op = 1j * commutator(body, h)
    if generator.kind == INVOLUTORY:
        return {"h": h, "g": grad_op, "b": conjugate_by(h, body)}
    b2 = body @ body
    bhb = conjugate_by(h, body)
    return {
        "h": h,
        "g": grad_op,
        "c0": (b2 @ h) + (h @ b2) - 2.0 * bhb,
        "c1": conjugate_by(h, b2) - bhb,
        "c2": 1j * (body @ commutator(h, body) @ body),
    }


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


def letters_agree(a, b):
    """Qubit-wise commutation read letter by letter: on every qubit the two
    letters are equal or one of them is the identity."""
    return all(
        "I" in (a.letter(q), b.letter(q)) or a.letter(q) == b.letter(q)
        for q in range(a.n_qubits)
    )


def first_fit_groups(strings):
    """Reference first-fit qubit-wise grouping, checked member by member:
    each string, in the given order, joins the first group all of whose
    members it agrees with, or opens a new group.  Returns lists of strings."""
    groups = []
    for ps in strings:
        for group in groups:
            if all(letters_agree(ps, member) for member in group):
                group.append(ps)
                break
        else:
            groups.append([ps])
    return groups


def union_letters(n_qubits, members):
    """Per qubit, the non-identity letter the members carry there ("I" if none)."""
    return [
        next((ps.letter(q) for ps in members if ps.letter(q) != "I"), "I")
        for q in range(n_qubits)
    ]


H_GATE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
SDG_GATE = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=np.complex128)


def rotate_to_basis(state, word):
    """``state`` rotated for measuring ``word``: one ``apply_one_qubit_gate``
    call per gate, qubits ascending, S-dagger then H on a Y letter and H
    alone on an X letter."""
    from ggavqe.simulator import apply_one_qubit_gate

    for q in range(word.n_qubits):
        letter = word.letter(q)
        if letter == "Y":
            state = apply_one_qubit_gate(state, SDG_GATE, q)
        if letter in ("X", "Y"):
            state = apply_one_qubit_gate(state, H_GATE, q)
    return state


def sampled_string_values(state, plan, shots, seed, context):
    """Sampled ``measure_strings``, one group and one qubit at a time.

    Each group's state is rotated gate by gate and its outcome counts are
    drawn, group after group, from the one stream seeded by ``seed`` with
    spawn key ``context``, each word masked to 32 bits; each member's
    odd-parity count is summed over all 2^n outcomes.  The values are listed
    member by member in group order.
    """
    outcomes = np.arange(1 << state.n_qubits)
    key = tuple(int(c) & 0xFFFFFFFF for c in context)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    values = []
    for group in plan.groups:
        probs = np.abs(rotate_to_basis(state, group.basis).amplitudes) ** 2
        counts = rng.multinomial(shots, probs / probs.sum())
        for ps in group.members:
            support = sum(1 << q for q in range(ps.n_qubits) if ps.letter(q) != "I")
            odd = int(np.dot(counts, np.bitwise_count(outcomes & support) & 1))
            values.append((shots - 2 * odd) / shots)
    return values


def running_sum_value(op, plan, values):
    """<op> from a plan's string values (member by member in group order),
    adding ``coeff.real * value`` one term at a time in the op's term order;
    the strings are matched by label."""
    position = {
        ps.label(): i
        for i, ps in enumerate(ps for group in plan.groups for ps in group.members)
    }
    total = 0.0
    for ps, coeff in op:
        total += coeff.real * (1.0 if ps.label() == "I" else values[position[ps.label()]])
    return total


def sampled_probability(p, shots, seed, context):
    """Outcome frequency of one probability-``p`` circuit: a binomial draw of
    ``shots`` from numpy's stream for ``seed`` with spawn key ``context``,
    each word masked to 32 bits."""
    key = tuple(int(c) & 0xFFFFFFFF for c in context)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    return rng.binomial(shots, p) / float(shots)


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


def gram_matrix(vectors):
    """``<u_j|u_k>`` for every pair of amplitude vectors, by ``np.vdot``."""
    return np.array([[np.vdot(u, v) for v in vectors] for u in vectors])


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


def molecular_running_total(ints):
    """Jordan-Wigner map of ``ints`` adding one integral's product at a time
    to a running total, in the package's own Pauli algebra."""
    from ggavqe.hamiltonians import jordan_wigner
    from ggavqe.pauli import PauliSum

    n = ints.n_spin_orbitals
    create = [jordan_wigner(p, True, n) for p in range(n)]
    annihilate = [jordan_wigner(p, False, n) for p in range(n)]
    total = PauliSum.zero(n)
    for (p, q), value in sorted(ints.one_body.items()):
        if value != 0.0:
            total = total + value * (create[p] @ annihilate[q])
    for (p, q, r, s), value in sorted(ints.two_body.items()):
        if value != 0.0:
            total = total + value * (create[p] @ create[q] @ annihilate[r] @ annihilate[s])
    return PauliSum(n, ((ps, complex(c.real, 0.0)) for ps, c in total))


class Ambiguous(Exception):
    """Two choices of a dense run lie too close for rounding to decide."""


TIE = 1e-13  # values closer than this are one value; the tie rules decide
CLOSE = 1e-8  # values between TIE and this apart: rounding decides


# [-pi, pi) up to its largest angle below pi that wraps to itself.
GRID = np.linspace(-np.pi, float(np.nextafter(2 * np.pi, 0) - np.pi), 129)


def _landscape(h_mat, rotations, psi):
    """L(t) = <psi(t)|H|psi(t)> with psi(t) = ... exp(-i t_2 A_2) exp(-i t_1 A_1) psi
    for the eigendecompositions ``rotations`` = [(lam_j, V_j)] of the scaled
    bodies A_j; returns (L, gradient, Hessian, state) at angle points (P, k)."""

    def derivs(points):
        p, basis = {(): np.broadcast_to(psi, (len(points), psi.size))}, np.eye(psi.size)
        for j, (lam, vecs) in enumerate(rotations):
            phase = np.exp(-1j * np.outer(points[:, j], lam))
            p = {key: (val @ (vecs.conj().T @ basis).T) * phase for key, val in p.items()}
            for key, val in list(p.items()):  # d/dt_j multiplies by -i lam_j
                if len(key) < 2:
                    p[key + (j,)] = -1j * lam * val
                if not key:
                    p[(j, j)] = -(lam**2) * val
            basis = vecs
        m = basis.conj().T @ h_mat @ basis
        mp = p[()] @ m.T
        k = len(rotations)
        grad = np.stack([2 * np.sum(p[(j,)].conj() * mp, 1).real for j in range(k)], 1)
        hess = np.stack([np.stack([2 * np.sum(
            p[(min(i, j), max(i, j))].conj() * mp + p[(i,)].conj() * (p[(j,)] @ m.T), 1).real
            for j in range(k)], 1) for i in range(k)], 1)
        return np.sum(p[()].conj() * mp, 1).real, grad, hess, p[()] @ basis.T

    return derivs


def _lowest(derivs, k):
    """The lowest minimum over [-pi, pi)^k as (value, angles, state, unclear):
    scan, then Newton from every scan point no higher than its neighbours.
    Minima within 1e-13 of the lowest go to the smallest sum of |t|, then
    the smaller angles, as the drivers' tie rule does; ``unclear`` when
    rounding may decide: another minimum 1e-13 to 1e-8 above the lowest,
    two tied minima with one sum of |t|, or a lowest minimum on a valley (a
    flat direction) inside the domain."""
    axes = np.meshgrid(*[GRID[::4 ** (k - 1)]] * k, indexing="ij")
    grid = axes[0][(slice(None),) + (0,) * (k - 1)]
    values = derivs(np.stack([a.ravel() for a in axes], 1))[0].reshape(axes[0].shape)
    if np.ptp(values) <= TIE:  # flat: never a gain, any angle a minimum
        value, _, _, state = derivs(np.zeros((1, k)))
        return value[0], (0.0,) * k, state[0], True
    low = np.ones(values.shape, bool)
    for axis in range(k):
        for shift in (1, -1):
            low &= values <= np.roll(values, shift, axis) + TIE
    minima = []
    lo, hi = GRID[0], GRID[-1]
    for index in np.argwhere(low):
        t = grid[index]
        for _ in range(100):  # Newton along curved directions, downhill elsewhere
            _, grad, hess, _ = (v[0] for v in derivs(t[None]))
            curvature, axes_ = np.linalg.eigh(hess)
            along = axes_.T @ grad
            step = axes_ @ np.where(curvature > 1e-9, along / np.maximum(curvature, 1e-9),
                                    np.where(curvature < -1e-9, along, 0.0))
            t, old = np.clip(t - step, lo, hi), t
            if np.max(np.abs(t - old)) < 1e-13:
                break
        value, _, hess, state = derivs(t[None])
        isolated = np.linalg.eigvalsh(hess[0])[0] > 1e-7 or np.any(t == lo) or np.any(t == hi)
        minima.append((value[0], tuple(float(a) for a in t), state[0], isolated))
    best = min(m[0] for m in minima)
    tied = sorted((m for m in minima if m[0] <= best + TIE),
                  key=lambda m: (sum(map(abs, m[1])), m[1]))
    chosen = tied[0]
    unclear = not chosen[3] or any(TIE < m[0] - best <= CLOSE for m in minima) or any(
        sum(map(abs, t)) - sum(map(abs, chosen[1])) < 1e-9
        for _, t, _, _ in tied[1:]
        if max(abs(a - b) for a, b in zip(t, chosen[1])) >= 1e-9
    )  # minima reached from two scan points are one minimum
    return chosen[:3] + (unclear,)


def _gate(rotation, theta):
    lam, vecs = rotation
    return (vecs * np.exp(-1j * theta * lam)) @ vecs.conj().T


def dense_run(h_mat, pool, initial, stop, target=None, min_gain=None, rule="single"):
    """A whole greedy run on dense matrices: the choices the ``gga`` driver
    (``target`` None, <H> minimized), the overlap driver (|<target|psi>|^2
    maximized), the ``gga2d`` driver (``rule="pair"``) or the ``adapt``
    driver (``rule="adapt"``) must make, step by step.

    Each landscape is scanned over [-pi, pi) in the eigenbases of the
    scaled bodies, and each local minimum of the scan is refined by
    Newton's method to 1e-13 (``_lowest``).  A generator's optimum is its
    lowest minimum, and equal optima go to the smallest id.  A pair is the
    best two by that rule, minimized jointly, the first applied first.
    ``adapt`` appends the largest |dL/dtheta| at 0 at its optimum, then
    sweeps every angle to its exact 1-D optimum, last to first, then first
    to last, and so on, until a sweep gains less than 1e-10 (at most 50).
    Stops: max_operators, gradient_epsilon, a best gain below 1e-12
    (energy, but not ``adapt``, whose gradients are never exactly 0 here)
    or below ``min_gain``.
    Raises :class:`Ambiguous` when rounding may decide a choice.
    """
    sign = 1.0 if target is None else -1.0
    if target is not None:
        h_mat = -np.outer(target, np.conj(target))
    eig = [np.linalg.eigh(gen.angle_scale * dense_sum(gen.body)) for gen in pool]
    start, ansatz, steps = np.asarray(initial, dtype=complex), [], []

    def replay(ansatz, upto=None):
        psi = start
        for gid, theta in ansatz[:upto]:
            psi = _gate(eig[gid], theta) @ psi
        return psi

    def energy(ansatz):
        psi = replay(ansatz)
        return float(np.real(np.vdot(psi, h_mat @ psi)))

    status = "max_operators"
    while stop.max_operators is None or len(ansatz) < stop.max_operators:
        psi = replay(ansatz)
        e0 = energy(ansatz)
        landscapes = [_landscape(h_mat, [rotation], psi) for rotation in eig]
        optima = [_lowest(derivs, 1) for derivs in landscapes]
        slopes = [abs(derivs(np.zeros((1, 1)))[1][0, 0]) for derivs in landscapes]
        values = [optimum[0] for optimum in optima]
        keys = [-g for g in slopes] if rule == "adapt" else values
        ranked = []
        for _ in range(2 if rule == "pair" else 1):
            rest = [v for i, v in enumerate(keys) if i not in ranked]
            if any(TIE < v - min(rest) <= CLOSE for v in rest):
                raise Ambiguous("two generators' keys within 1e-8")
            ranked.append(min(i for i, v in enumerate(keys)
                              if i not in ranked and v <= min(rest) + TIE))
        gain = e0 - min(values) if rule == "adapt" else e0 - values[ranked[0]]
        rules = [(stop.gradient_epsilon, max(slopes), "gradient_below_epsilon"),
                 (1e-12 if target is None and rule != "adapt" else None, gain, "pool_exhausted"),
                 (min_gain, gain, "converged")]
        for threshold, measured, name in rules:
            if threshold is not None and abs(measured - threshold) <= CLOSE and measured > 1e-13:
                raise Ambiguous(f"{name}: {measured} at its threshold")
        stopped = [name for threshold, measured, name in rules
                   if threshold is not None and measured < threshold]
        if stopped:
            status = stopped[0]
            break
        if rule == "adapt" and max(slopes) < CLOSE:  # exhausted if exactly 0
            raise Ambiguous("every gradient near 0")
        joint = _lowest(_landscape(h_mat, [eig[i] for i in ranked], psi), 2) if rule == "pair" else None
        value, angles, psi, unclear = joint or optima[ranked[0]]
        if unclear:
            raise Ambiguous(f"generators {ranked}: rounding may pick another minimum")
        ansatz += list(zip(ranked, angles))
        if rule == "adapt":
            current = energy(ansatz)
            for sweep in range(1, 51):
                order = range(len(ansatz))
                for k in reversed(order) if sweep % 2 else order:
                    after = np.eye(start.size)
                    for gid, theta in ansatz[k + 1:]:
                        after = _gate(eig[gid], theta) @ after
                    h_eff = after.conj().T @ h_mat @ after
                    _, (theta,), _, unclear = _lowest(
                        _landscape(h_eff, [eig[ansatz[k][0]]], replay(ansatz, k)), 1)
                    if unclear:
                        raise Ambiguous(f"sweep {sweep}: rounding may pick another angle")
                    ansatz[k] = (ansatz[k][0], theta)
                new = energy(ansatz)
                if abs(current - new - 1e-10) <= 1e-12:
                    raise Ambiguous("a sweep gain at its threshold")
                if current - new < 1e-10:
                    value = min(current, new)
                    break
                current = new
            else:
                value = current
            angles = [ansatz[-1][1]]
        steps.append({"e0": sign * e0, "ids": ranked, "angles": list(angles),
                      "value": sign * value, "screen": [sign * v for v in values]})
    return {"steps": steps, "status": status, "exact": sign * energy(ansatz)}
