"""Property-based differential tests of the state kernels against the dense
oracles in ``oracles.py``: Pauli-sum application, dense matrices, |->^n and
exact grouped string measurement, on random inputs of 1-10 qubits."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ggavqe import ExpectationBackend, PauliString, PauliSum
from ggavqe.measurement import greedy_qubitwise_plan
from ggavqe.simulator import (
    StateVector,
    apply_pauli_sum,
    to_dense_matrix,
    uniform_minus_state,
)

from oracles import dense_string_from_label, dense_sum, random_state

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

