"""Whole runs against the dense oracle ``oracles.dense_run``: the ``gga``
driver (plan on and off), the overlap driver (both methods) and the 2-D
``gga2d`` driver, exact mode, on random problems of 2-6 qubits with real or
complex H, targets and start vectors.  Each run must pick the generator
sequence the dense run picks and stop with its status, and every e0, angle,
predicted value, screened optimum and final objective must agree within
1e-9.  Examples where rounding may decide a choice (``oracles.Ambiguous``)
are skipped, not loosened."""

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from ggavqe import (
    ExpectationBackend,
    InitialState,
    StopRule,
    adapt_vqe,
    gga_vqe,
    gga_vqe_2d,
    minimal_hardware_efficient_pool,
    overlap_gga_vqe,
    qeb_pool,
    qubit_hardware_efficient_pool,
)
from ggavqe.drivers import OVERLAP_METHODS
from ggavqe.pauli import PauliString, PauliSum
from ggavqe.simulator import StateVector

from oracles import Ambiguous, dense_run, dense_sum, random_pauli_sum, random_state

RUNS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
TOL = 1e-9

# Each pool with the largest register it is drawn on.
POOLS = ((minimal_hardware_efficient_pool, 6), (qubit_hardware_efficient_pool, 4), (qeb_pool, 4))


def random_vector(n, rng, real):
    """A random unit vector, float64 when ``real``."""
    vec = random_state(n, rng)
    return vec.real / np.linalg.norm(vec.real) if real else vec


@st.composite
def problems(draw, pools=POOLS, starts=("basis", "uniform-minus", "real", "complex")):
    """A pool, a random hermitian H (real: even-Y strings only), a start
    (a basis state, |->^n, or a random real or complex vector), its dense
    vector, and a random real or complex unit target."""
    make_pool, top = draw(st.sampled_from(pools))
    n = draw(st.integers(2, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_pauli_sum(n, draw(st.integers(3, 10)), rng)
    if draw(st.booleans()):
        even = [(ps, c) for ps, c in h if ps.n_y % 2 == 0]
        h = PauliSum(n, even + [(PauliString.from_label(n, "Z0"), rng.normal())])
    start = draw(st.sampled_from(starts))
    if start == "basis":
        initial = InitialState("basis", occupations="".join(draw(st.sampled_from("01")) for _ in range(n)))
    elif start == "uniform-minus":
        initial = InitialState(start)
    else:
        initial = StateVector(random_vector(n, rng, start == "real"))
    psi0 = initial.amplitudes if start in ("real", "complex") else initial.prepare(n).amplitudes
    return make_pool(n), h, initial, psi0, random_vector(n, rng, draw(st.booleans()))


def _assert_same_run(trace, expected):
    assert trace.status == expected["status"]
    assert [rec.selected_ids for rec in trace.iterations] == [s["ids"] for s in expected["steps"]]
    for rec, step in zip(trace.iterations, expected["steps"]):
        assert abs(rec.e0 - step["e0"]) <= TOL
        np.testing.assert_allclose(rec.angles, step["angles"], rtol=0, atol=TOL)
        assert abs(rec.predicted_value - step["value"]) <= TOL
        screened = rec.screening.columns[rec.screening.names.index("value")]
        np.testing.assert_allclose(screened, step["screen"], rtol=0, atol=TOL)
    assert abs(trace.exact_objective - expected["exact"]) <= TOL


@given(problems(), st.integers(1, 6), st.booleans())
@RUNS
def test_gga_makes_the_dense_run_choices(case, steps, use_plan):
    pool, h, initial, psi0, _ = case
    stop = StopRule(max_operators=steps)
    try:
        expected = dense_run(dense_sum(h), pool, psi0, stop)
    except Ambiguous:
        reject()
    trace = gga_vqe(h, pool, initial, ExpectationBackend("exact"), stop, use_plan=use_plan)
    _assert_same_run(trace, expected)


@given(problems(), st.integers(1, 6), st.sampled_from(OVERLAP_METHODS))
@RUNS
def test_overlap_makes_the_dense_run_choices(case, steps, method):
    pool, _, initial, psi0, target = case
    stop = StopRule(max_operators=steps)
    try:
        expected = dense_run(None, pool, psi0, stop, target=target, min_gain=1e-4)
    except Ambiguous:
        reject()
    trace = overlap_gga_vqe(StateVector(target), pool, initial, method,
                            ExpectationBackend("exact"), stop, min_overlap_gain=1e-4)
    _assert_same_run(trace, expected)


@given(problems(pools=((minimal_hardware_efficient_pool, 4), (qubit_hardware_efficient_pool, 3)),
                starts=("real", "complex")),
       st.sampled_from((2, 4, 6)))
@settings(RUNS, max_examples=30)
def test_gga2d_makes_the_dense_run_choices(case, operators):
    """Involutory pools only, as the 2-D driver requires; random starts,
    since a basis state puts many joint optima at t = +-pi/2, where
    rounding picks the sign."""
    pool, h, initial, psi0, _ = case
    stop = StopRule(max_operators=operators)
    try:
        expected = dense_run(dense_sum(h), pool, psi0, stop, rule="pair")
    except Ambiguous:
        reject()
    trace = gga_vqe_2d(h, pool, initial, ExpectationBackend("exact"), stop)
    _assert_same_run(trace, expected)


@given(problems(pools=((minimal_hardware_efficient_pool, 4), (qubit_hardware_efficient_pool, 3),
                       (qeb_pool, 4))),
       st.integers(1, 4), st.booleans())
@settings(RUNS, max_examples=30)
def test_adapt_makes_the_dense_run_choices(case, steps, use_plan):
    pool, h, initial, psi0, _ = case
    stop = StopRule(max_operators=steps)
    try:
        expected = dense_run(dense_sum(h), pool, psi0, stop, rule="adapt")
    except Ambiguous:
        reject()
    trace = adapt_vqe(h, pool, initial, ExpectationBackend("exact"), stop, use_plan=use_plan)
    _assert_same_run(trace, expected)
