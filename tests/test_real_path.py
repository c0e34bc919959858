"""The float64 path against the complex128 path, bit for bit.

On random real problems of 1-8 qubits (a real H of strings with an even
number of Y letters; bodies with an odd number and real coefficients: single
strings at any angle scale, and the QEB excitations with their 1/2 and 1/8
coefficients) a real state and the same state stored as complex128 give
equal string values, equal appends of both algebraic classes and equal whole
``gga`` runs.  Values compare with ``==``, under which -0.0 equals 0.0.  A
complex body, or a complex vector, never gives a float64 state."""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from ggavqe import (
    ExpectationBackend,
    PauliString,
    PauliSum,
    StopRule,
    gga_vqe,
    minimal_hardware_efficient_pool,
    replay,
)
from ggavqe.config import load_run_config
from ggavqe.measurement import _exact_string_values, screening_plan
from ggavqe.pools import Pool, _double_excitation_body, _single_excitation_body, custom_pool
from ggavqe.simulator import StateVector, apply_exp_generator, uniform_minus_state

from oracles import random_state

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def strings_of_parity(draw, n, odd):
    """A random Pauli word whose number of Y letters is odd or even."""
    full = (1 << n) - 1
    ps = PauliString(n, draw(st.integers(0, full)), draw(st.integers(0, full)))
    if ps.n_y % 2 != odd:  # one Y more or less: a Y turns into X, another letter into Y
        bit = 1 << draw(st.integers(0, n - 1))
        ps = PauliString(n, ps.x | bit, ps.z ^ bit if ps.x & ps.z & bit else ps.z | bit)
    return ps


@st.composite
def real_bodies(draw, n):
    """An involutory odd-Y string at a random angle scale, or a QEB single
    (1/2 coefficients) or double (1/8) excitation, as a generator."""
    kinds = ["string"] + ["single"] * (n >= 2) + ["double"] * (n >= 4)
    kind = draw(st.sampled_from(kinds))
    if kind == "string":
        body = PauliSum(n, [(draw(strings_of_parity(n, True)), draw(st.sampled_from((1.0, -1.0))))])
        return custom_pool(n, [("P", body, draw(st.floats(0.1, 2.0)))])[0]
    qubits = draw(st.permutations(range(n)))
    if kind == "single":
        return custom_pool(n, [("A", _single_excitation_body(n, *sorted(qubits[:2])), 1.0)])[0]
    p, q, r, s = qubits[:4]
    body = _double_excitation_body(n, *sorted((p, q)), *sorted((r, s)))
    return custom_pool(n, [("A", body, 1.0)])[0]


@st.composite
def real_problems(draw, max_qubits=8):
    """A real H, 1-5 real generators and a random real unit state."""
    n = draw(st.integers(1, max_qubits))
    coefficients = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)
    terms = draw(st.lists(st.tuples(strings_of_parity(n, False), coefficients),
                          min_size=1, max_size=8))
    gens = draw(st.lists(real_bodies(n), min_size=1, max_size=5))
    pool = Pool("real", n, tuple(dataclasses.replace(g, gid=i) for i, g in enumerate(gens)))
    psi = random_state(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).real
    return PauliSum(n, terms), pool, psi / np.linalg.norm(psi)


def _both(psi):
    """The real state and the same amplitudes stored as complex128."""
    real, cplx = StateVector(psi), StateVector(psi.astype(np.complex128))
    assert real.amplitudes.dtype == np.float64 and cplx.amplitudes.dtype == np.complex128
    return real, cplx


@given(real_problems(), st.data())
@PROPERTIES
def test_real_string_values_equal_the_complex_ones(case, data):
    """Strings of both parities; odd-Y strings read 0 on a real state."""
    h, pool, psi = case
    n = h.n_qubits
    odd = data.draw(st.lists(strings_of_parity(n, True), max_size=6))
    plan = screening_plan(n, [h, PauliSum(n, [(ps, 1.0) for ps in odd])])
    real, cplx = _both(psi)
    values = _exact_string_values(real, plan)
    assert np.array_equal(values, _exact_string_values(cplx, plan))
    assert all(values[plan.index[ps]] == 0.0 for ps in odd)


@given(real_problems(), st.floats(-np.pi, np.pi))
@PROPERTIES
def test_real_appends_equal_the_complex_ones(case, theta):
    """Every generator of the pool, involutory and tripotent alike."""
    _, pool, psi = case
    real, cplx = _both(psi)
    for gen in pool:
        out, ref = apply_exp_generator(real, gen, theta), apply_exp_generator(cplx, gen, theta)
        assert out.amplitudes.dtype == np.float64
        assert np.array_equal(out.amplitudes, ref.amplitudes.real)
        assert not ref.amplitudes.imag.any()


@given(real_problems(max_qubits=6), st.integers(1, 4), st.booleans())
@settings(PROPERTIES, max_examples=30)
def test_real_gga_runs_equal_the_complex_ones(case, steps, use_plan):
    h, pool, psi = case
    real, cplx = _both(psi)
    traces = [
        gga_vqe(h, pool, start, ExpectationBackend("exact"), StopRule(max_operators=steps),
                use_plan=use_plan)
        for start in (real, cplx)
    ]
    assert json.loads(traces[0].to_json()) == json.loads(traces[1].to_json())
    assert replay(traces[0].ansatz, pool.by_id()).amplitudes.dtype == np.float64


@given(st.integers(2, 8), st.sampled_from(("X", "Z", "XX", "YY", "XZ")), st.floats(-np.pi, np.pi))
@PROPERTIES
def test_complex_bodies_and_vectors_never_give_a_real_state(n, word, theta):
    """A body with an even number of Y letters upcasts a real state; a
    complex vector stays complex though its imaginary parts are zero."""
    ps = PauliString.from_ops(n, list(enumerate(word)))
    gen = custom_pool(n, [(word, PauliSum(n, [(ps, 1.0)]), 1.0)])[0]
    assert apply_exp_generator(uniform_minus_state(n), gen, theta).amplitudes.dtype == np.complex128
    cplx = StateVector(uniform_minus_state(n).amplitudes.astype(np.complex128))
    for real_gen in minimal_hardware_efficient_pool(n):
        assert apply_exp_generator(cplx, real_gen, theta).amplitudes.dtype == np.complex128


def test_the_overlap_toy_stays_complex():
    """Its pairwise XX bodies have no Y letter: target and run are complex."""
    config = load_run_config("configs/overlap_hf_toy.cfg")
    target = replay(config.overlap_target, config.pool.by_id())
    assert target.amplitudes.dtype == np.complex128
