"""Property-based differential tests of the state kernels against the dense
oracles in ``oracles.py``: Pauli-sum application, dense matrices, |->^n,
one-qubit gates and exact grouped string measurement, on random inputs of
1-10 qubits; pinned-node landscape reconstruction against a dense scan;
exact planned screening against unplanned exact screening on random chains;
and compute-uncompute against the explicit inverse-replay circuit."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ggavqe import (
    Ansatz,
    ExpectationBackend,
    GeneralSpinChainSpec,
    InitialState,
    PauliString,
    PauliSum,
    build_general_chain,
    minimal_hardware_efficient_pool,
    overlap_compute_uncompute,
    qeb_pool,
    qubit_hardware_efficient_pool,
    reconstruct,
    replay,
)
from ggavqe.drivers import _EnergyObjective
from ggavqe.measurement import greedy_qubitwise_plan
from ggavqe.simulator import (
    StateVector,
    apply_exp_generator,
    apply_one_qubit_gate,
    apply_pauli_sum,
    fidelity,
    to_dense_matrix,
    uniform_minus_state,
)

from oracles import (
    compute_uncompute_p0,
    dense_string_from_label,
    dense_sum,
    landscape_scan,
    random_pauli_sum,
    random_state,
)

# Derandomized so the suite draws the same examples on every run.
CHECKS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
ATOL = 1e-12

coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def strings(draw, n_qubits):
    """A Pauli word as random X/Z bitmasks; bits set in both give Y letters."""
    full = (1 << n_qubits) - 1
    return PauliString(
        n_qubits, draw(st.integers(0, full)), draw(st.integers(0, full))
    )


@st.composite
def sums_and_states(draw, max_qubits=10):
    n = draw(st.integers(1, max_qubits))
    terms = draw(st.lists(st.tuples(strings(n), coefficients), min_size=1, max_size=6))
    h = PauliSum(n, terms)
    seed = draw(st.integers(0, 2**32 - 1))
    return h, random_state(n, np.random.default_rng(seed))


@given(sums_and_states())
@CHECKS
def test_apply_pauli_sum_matches_dense(case):
    h, psi = case
    out = apply_pauli_sum(StateVector(psi), h).amplitudes
    np.testing.assert_allclose(out, dense_sum(h) @ psi, rtol=0, atol=ATOL)


@given(sums_and_states())
@CHECKS
def test_to_dense_matrix_matches_dense(case):
    h, _ = case
    np.testing.assert_allclose(to_dense_matrix(h), dense_sum(h), rtol=0, atol=ATOL)


@given(st.integers(1, 10))
@CHECKS
def test_uniform_minus_is_kron_of_minus_states(n):
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    expected = np.array([1.0 + 0.0j])
    for _ in range(n):
        expected = np.kron(expected, minus)
    np.testing.assert_allclose(uniform_minus_state(n).amplitudes, expected, rtol=0, atol=ATOL)


@given(sums_and_states())
@CHECKS
def test_exact_measure_strings_match_dense_expectations(case):
    h, psi = case
    # The sum's strings, grouped qubit-wise, are measured after basis rotation.
    plan = greedy_qubitwise_plan(PauliSum(h.n_qubits, [(ps, 1.0) for ps in h.strings()]))
    values = ExpectationBackend("exact").measure_strings(StateVector(psi), plan)
    assert set(values) == {ps for ps in h.strings() if not ps.is_identity()}
    for ps, value in values.items():
        dense = dense_string_from_label(h.n_qubits, ps.label())
        assert abs(value - np.vdot(psi, dense @ psi).real) <= ATOL


@given(st.integers(1, 10), st.data())
@CHECKS
def test_one_qubit_gate_matches_dense(n, data):
    qubit = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gate = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    psi = random_state(n, rng)
    # Qubit q sits at Kronecker position n-1-q (qubit 0 least significant).
    dense = np.kron(np.kron(np.eye(1 << (n - 1 - qubit)), gate), np.eye(1 << qubit))
    out = apply_one_qubit_gate(StateVector(psi), gate, qubit).amplitudes
    np.testing.assert_allclose(out, dense @ psi, rtol=0, atol=ATOL)


POOLS = (minimal_hardware_efficient_pool, qubit_hardware_efficient_pool, qeb_pool)


@given(st.integers(2, 5), st.sampled_from(POOLS), st.data())
@CHECKS
def test_pinned_node_reconstruction_matches_dense_scan(n, make_pool, data):
    """The exact pinned-node model equals the landscape over the whole
    circle, for involutory and tripotent (QEB) generators alike."""
    pool = make_pool(n)
    gen = pool[data.draw(st.integers(0, len(pool) - 1))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = random_pauli_sum(n, 2 * n + 2, rng)
    psi = random_state(n, rng)
    model = reconstruct(ExpectationBackend("exact"), h, gen, StateVector(psi))
    thetas = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    direct = landscape_scan(dense_sum(h), gen.angle_scale * dense_sum(gen.body), psi, thetas)
    np.testing.assert_allclose(model.evaluate(thetas), direct, rtol=0, atol=1e-9)



COUPLINGS = ("hx", "hz", "jx", "jy", "jz")
couplings = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def chains_and_states(draw, ising):
    """A chain with random per-site/per-bond couplings, any of them absent
    (an Ising chain carries only hx and jz), and a state reached from |->^n
    by a few random pool steps."""
    n = draw(st.integers(3, 8))
    allowed = ("hx", "jz") if ising else COUPLINGS
    present = draw(st.sets(st.sampled_from(allowed), min_size=1))
    values = {
        name: tuple(
            draw(couplings) if name in present else 0.0
            for _ in range(n if name.startswith("h") else n - 1)
        )
        for name in COUPLINGS
    }
    h = build_general_chain(GeneralSpinChainSpec(n, **values))
    pool = minimal_hardware_efficient_pool(n)
    state = uniform_minus_state(n)
    for _ in range(draw(st.integers(0, 3))):
        gen = pool[draw(st.integers(0, len(pool) - 1))]
        state = apply_exp_generator(state, gen, draw(st.floats(-np.pi, np.pi)))
    return h, pool, state


def _assert_planned_screening_matches_unplanned(case):
    h, pool, state = case
    backend = ExpectationBackend("exact")
    e0_plan, planned = _EnergyObjective(h, pool, backend, True).screen(state, 1)
    e0, unplanned = _EnergyObjective(h, pool, backend, False).screen(state, 1)
    assert abs(e0_plan - e0) <= ATOL
    for a, b in zip(planned, unplanned, strict=True):
        assert a.kind == b.kind
        for name in ("e0", "g", "b"):
            assert abs(getattr(a, name) - getattr(b, name)) <= ATOL, name


@given(chains_and_states(ising=True))
@CHECKS
def test_exact_ising_plan_screening_matches_unplanned(case):
    _assert_planned_screening_matches_unplanned(case)


@given(chains_and_states(ising=False))
@CHECKS
def test_exact_general_chain_plan_screening_matches_unplanned(case):
    _assert_planned_screening_matches_unplanned(case)


@st.composite
def targets_and_states(draw):
    """A target ansatz of 0-6 random steps of a minimal or QEB pool on a
    basis, |->^n or custom initial state, and a state that shares a prefix
    of those steps and then departs by up to two random steps."""
    n = draw(st.integers(2, 8))
    pool = draw(st.sampled_from((minimal_hardware_efficient_pool, qeb_pool)))(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("basis", "uniform-minus", "custom")))
    occupations = "".join(draw(st.sampled_from("01")) for _ in range(n))
    initial = InitialState(
        kind,
        occupations=occupations if kind == "basis" else None,
        vector=random_state(n, rng) if kind == "custom" else None,
    )

    def random_steps(count):
        return tuple(
            (int(rng.integers(len(pool))), float(rng.uniform(-np.pi, np.pi)))
            for _ in range(count)
        )

    steps = random_steps(draw(st.integers(0, 6)))
    shared = steps[: draw(st.integers(0, len(steps)))]
    gens = pool.by_id()
    state = replay(Ansatz(n, initial, shared + random_steps(draw(st.integers(0, 2)))), gens)
    return Ansatz(n, initial, steps), state, gens


@given(targets_and_states())
@CHECKS
def test_compute_uncompute_matches_inverse_replay(case):
    target, state, gens = case
    p0 = compute_uncompute_p0(target, state, gens)
    estimate = overlap_compute_uncompute(ExpectationBackend("exact"), replay(target, gens), state)
    assert abs(estimate - p0) <= ATOL


@given(targets_and_states(), st.integers(1, 5000), st.integers(0, 2**32 - 1))
@CHECKS
def test_sampled_compute_uncompute_draws_from_the_fidelity(case, shots, seed):
    """Bit for bit the draw of one probability circuit at the fidelity."""
    target, state, gens = case
    target_state = replay(target, gens)
    context = (3, 1, 2, 0)
    backend = ExpectationBackend("sampled", shots=shots, seed=seed)
    reference = ExpectationBackend("sampled", shots=shots, seed=seed)
    assert overlap_compute_uncompute(backend, target_state, state, context=context) == (
        reference.estimate_probability(fidelity(target_state, state), context=context)
    )
    assert backend.accounting == reference.accounting
