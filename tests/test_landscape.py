"""Landscape reconstruction and minimization tests.

Dense Kronecker/eigendecomposition oracles provide the direct landscape
scans; everything reconstructed must match them pointwise.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ggavqe import (
    ExpectationBackend,
    IsingSpec,
    PauliSum,
    build_ising,
    minimal_hardware_efficient_pool,
    qeb_pool,
    qubit_hardware_efficient_pool,
    reconstruct,
    reconstruct_2d,
    uniform_minus_state,
)
from ggavqe.config import load_run_config
from ggavqe.landscape import (
    LandscapeModel,
    LandscapeModel2D,
    maximize,
    minimize,
    minimize_2d,
    reconstruct_from_samples,
)
from ggavqe.pools import make_generator
from ggavqe.simulator import INVOLUTORY, TRIPOTENT, StateVector, basis_state

from oracles import (
    dense_expm_hermitian,
    dense_sum,
    landscape_scan,
    random_pauli_sum,
    random_state,
)


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Both ends of [-pi, pi): the upper one is the largest angle below pi that
# wrap_angle keeps there.
EDGES = (-np.pi, float(np.nextafter(2.0 * np.pi, 0.0) - np.pi))
# A dense scan of the domain, up to its upper edge.
EDGE_SCAN = np.linspace(-np.pi, np.pi - 1e-12, 100_001)


def assert_global_minimum(model, theta, value):
    assert -np.pi <= theta < np.pi
    assert value <= np.min(model.evaluate(EDGE_SCAN)) + 1e-12
    if theta not in EDGES:
        assert abs(model.derivative(theta)) < 1e-9


# (1, cos 2t, sin 2t) from (cos^2, sin cos, sin^2)(t).
FROM_BASIS = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])
# Blocks of k in L = (1, u) k (1, v)^T = a + p.u + q.v + u^T M v, with
# u = (cos 2t1, sin 2t1) and v = (cos 2t2, sin 2t2).
BLOCKS = {"p": np.s_[1:, 0], "q": np.s_[0, 1:], "M": np.s_[1:, 1:]}
SCAN_2D = np.linspace(-np.pi, np.pi - 1e-12, 401)


def surface(k, s1=1.0, s2=1.0):
    coeffs = FROM_BASIS.T @ k @ FROM_BASIS
    return LandscapeModel2D(s1, s2, tuple(map(tuple, coeffs.tolist())))


def surface_gradient(model, theta1, theta2):
    """Both partial derivatives of a 2-D model at (theta1, theta2)."""

    def basis(scale, theta, slope):
        t = scale * theta
        if slope:
            return scale * np.array([-np.sin(2 * t), np.cos(2 * t), np.sin(2 * t)])
        return np.array([np.cos(t) ** 2, np.sin(t) * np.cos(t), np.sin(t) ** 2])

    coeffs = np.asarray(model.coeffs)
    s1, s2 = model.angle_scale_1, model.angle_scale_2
    return (
        basis(s1, theta1, True) @ coeffs @ basis(s2, theta2, False),
        basis(s1, theta1, False) @ coeffs @ basis(s2, theta2, True),
    )


def assert_global_minimum_2d(model, theta1, theta2, value, scan=SCAN_2D):
    assert -np.pi <= theta1 < np.pi and -np.pi <= theta2 < np.pi
    assert value <= np.min(model.evaluate(scan[:, None], scan[None, :])) + 1e-12
    assert model.evaluate(theta1, theta2) == value
    for theta, slope in zip((theta1, theta2), surface_gradient(model, theta1, theta2)):
        if theta not in EDGES:
            assert abs(slope) < 1e-9


def exact_backend():
    return ExpectationBackend("exact")


def gen_from_label(n, label, scale=1.0):
    return make_generator(0, label, PauliSum.from_label_terms(n, [(1.0, label)]), scale)


class TestReconstruct1D:
    def test_z_landscape_of_y_rotation(self):
        # Hand computation: Y0 Z0 Y0 = -Z0, [Y0, Z0] gradient vanishes on |0>,
        # so L(theta) = cos(2 theta).
        h = PauliSum.from_label_terms(1, [(1.0, "Z0")])
        gen = gen_from_label(1, "Y0")
        model = reconstruct(exact_backend(), h, gen, basis_state(1, 0))
        assert model.e0 == pytest.approx(1.0, abs=1e-12)
        assert model.g == pytest.approx(0.0, abs=1e-12)
        assert model.b == pytest.approx(-1.0, abs=1e-12)
        thetas = np.linspace(-np.pi, np.pi, 64)
        assert np.allclose(model.evaluate(thetas), np.cos(2 * thetas), atol=1e-12)

    def test_commuting_generator_gives_constant(self):
        h = PauliSum.from_label_terms(2, [(0.7, "Z0 Z1")])
        gen = gen_from_label(2, "Z0")
        state = StateVector(random_state(2, np.random.default_rng(2)))
        model = reconstruct(exact_backend(), h, gen, state)
        thetas = np.linspace(-np.pi, np.pi, 32)
        assert np.allclose(model.evaluate(thetas), model.e0, atol=1e-12)

    def test_ising_first_iteration_zy_landscape(self):
        h = build_ising(IsingSpec(2, 0.5, 0.2))
        gen = gen_from_label(2, "Z0 Y1")
        state = uniform_minus_state(2)
        model = reconstruct(exact_backend(), h, gen, state)
        assert abs(model.g) > 1e-3  # nonzero sin(2 theta) component
        thetas = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
        scan = landscape_scan(
            dense_sum(h), dense_sum(gen.body), state.amplitudes, thetas
        )
        assert np.max(np.abs(model.evaluate(thetas) - scan)) < 1e-10

    def test_shared_e0_saves_a_sample(self):
        h = PauliSum.from_label_terms(1, [(1.0, "Z0")])
        gen = gen_from_label(1, "Y0")
        backend = exact_backend()
        reconstruct(backend, h, gen, basis_state(1, 0), shared_e0=1.0)
        assert backend.accounting.circuits == 2  # only the two node samples

    @pytest.mark.parametrize(
        "pool_factory",
        [minimal_hardware_efficient_pool, qubit_hardware_efficient_pool, qeb_pool],
    )
    def test_every_pool_generator_matches_dense_scan(self, pool_factory):
        rng = np.random.default_rng(105)
        n = 4
        pool = pool_factory(n)
        h = random_pauli_sum(n, 8, rng)
        hd = dense_sum(h)
        vec = random_state(n, rng)
        state = StateVector(vec)
        thetas = np.linspace(-np.pi, np.pi, 128, endpoint=False)
        backend = exact_backend()
        for gen in pool:
            model = reconstruct(backend, h, gen, state)
            scan = landscape_scan(
                hd, gen.angle_scale * dense_sum(gen.body), vec, thetas
            )
            assert np.max(np.abs(model.evaluate(thetas) - scan)) < 1e-9


class TestEvaluate:
    def test_theta_zero_returns_e0(self):
        model = LandscapeModel(INVOLUTORY, 1.0, e0=0.42, g=0.3, b=-1.1)
        assert model.evaluate(0.0) == pytest.approx(0.42, abs=1e-15)
        tri = LandscapeModel(TRIPOTENT, 1.0, e0=-0.5, g=0.2, c0=0.1, c1=0.2, c2=0.3)
        assert tri.evaluate(0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_involutory_half_pi_returns_b(self):
        model = LandscapeModel(INVOLUTORY, 1.0, e0=0.42, g=0.3, b=-1.1)
        assert model.evaluate(np.pi / 2) == pytest.approx(-1.1, abs=1e-12)

    def test_tripotent_pi_combination(self):
        tri = LandscapeModel(TRIPOTENT, 1.0, e0=-0.5, g=0.2, c0=0.1, c1=0.2, c2=0.3)
        assert tri.evaluate(np.pi) == pytest.approx(-0.5 - 2 * 0.1 + 4 * 0.2, abs=1e-12)

    def test_periodicity(self):
        inv = LandscapeModel(INVOLUTORY, 1.0, e0=0.4, g=0.0, b=-0.2)
        tri = LandscapeModel(TRIPOTENT, 1.0, e0=0.4, g=0.3, c0=0.1, c1=-0.2, c2=0.5)
        thetas = np.linspace(-np.pi, np.pi, 40)
        assert np.allclose(inv.evaluate(thetas), inv.evaluate(thetas + np.pi))
        assert np.allclose(tri.evaluate(thetas), tri.evaluate(thetas + 2 * np.pi))


class TestMinimize:
    def test_cos_two_theta(self):
        model = LandscapeModel(INVOLUTORY, 1.0, e0=1.0, g=0.0, b=-1.0)
        theta, value = minimize(model)
        assert abs(theta) == pytest.approx(np.pi / 2, abs=1e-12)
        assert value == pytest.approx(-1.0, abs=1e-15)

    def test_constant_model_tie_breaks_to_zero(self):
        model = LandscapeModel(INVOLUTORY, 1.0, e0=0.7, g=0.0, b=0.7)
        assert minimize(model) == (0.0, 0.7)
        tri = LandscapeModel(TRIPOTENT, 1.0, e0=0.7, g=0.0)
        theta, value = minimize(tri)
        assert theta == 0.0 and value == pytest.approx(0.7)

    def test_ising_model_against_brute_scan(self):
        h = build_ising(IsingSpec(2, 0.5, 0.2))
        gen = gen_from_label(2, "Z0 Y1")
        state = uniform_minus_state(2)
        model = reconstruct(exact_backend(), h, gen, state)
        theta, value = minimize(model)
        thetas = np.linspace(-np.pi, np.pi, 1_000_000, endpoint=False)
        values = model.evaluate(thetas)
        k = int(np.argmin(values))
        assert value <= values[k] + 1e-12
        assert min(abs(theta - thetas[k]), 2 * np.pi - abs(theta - thetas[k])) < 1e-5
        # stationarity at machine precision
        assert abs(model.derivative(theta)) < 1e-9

    def test_tripotent_minimum_matches_brute_scan(self):
        rng = np.random.default_rng(107)
        n = 4
        pool = qeb_pool(n)
        h = random_pauli_sum(n, 6, rng)
        state = StateVector(random_state(n, rng))
        backend = exact_backend()
        for gen in list(pool)[:8]:
            model = reconstruct(backend, h, gen, state)
            theta, value = minimize(model)
            thetas = np.linspace(-np.pi, np.pi, 200_001)
            assert value <= np.min(model.evaluate(thetas)) + 1e-10
            assert abs(model.derivative(theta)) < 1e-9 or abs(abs(theta) - np.pi) < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([INVOLUTORY, TRIPOTENT]),
        st.sampled_from([0.125, 0.25, 0.3, 0.5, 1.0, 2.0]),
        st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
    )
    def test_restricted_window_small_scale(self, kind, scale, coeffs):
        # Scales below one period (1/2 involutory, 1 tripotent) leave part of
        # the landscape unreachable in [-pi, pi); the minimum may then sit at
        # either edge of the domain, the upper one included.
        e0, g, c0, c1, c2 = coeffs
        if kind == INVOLUTORY:
            model = LandscapeModel(kind, scale, e0, g, b=c0)
        else:
            model = LandscapeModel(kind, scale, e0, g, c0=c0, c1=c1, c2=c2)
        theta, value = minimize(model)
        assert_global_minimum(model, theta, value)

    @pytest.mark.parametrize("weight", [1e-10, 1e-12, 1e-14, 1e-20, 1e-303])
    def test_tripotent_weak_second_harmonic(self, weight):
        # c1, c2 far below c0, g put two quartic roots near 0 and infinity;
        # the stationary angles must stay exact all the same.
        rng = np.random.default_rng(113)
        for _ in range(10):
            e0, g, c0, c1, c2 = rng.normal(size=5)
            for scale in (0.3, 1.0, 2.0):
                model = LandscapeModel(
                    TRIPOTENT, scale, e0, g, c0=c0, c1=weight * c1, c2=weight * c2
                )
                assert_global_minimum(model, *minimize(model))

    def test_chain_doubles_reach_the_upper_edge(self):
        # The 1/8-scale doubles of the hardware-efficient pool on the
        # 5-qubit chain: on random states many minima sit at a domain edge.
        config = load_run_config(
            os.path.join(REPO, "configs", "chain_n5.cfg"),
            ["pool.name=qubit_hardware_efficient"],
        )
        rng = np.random.default_rng(0)
        backend = exact_backend()
        for _ in range(5):
            state = StateVector(random_state(5, rng))
            for gen in config.pool:
                model = reconstruct(backend, config.hamiltonian, gen, state)
                assert_global_minimum(model, *minimize(model))

    def test_maximize_is_negated_minimize(self):
        model = LandscapeModel(INVOLUTORY, 1.0, e0=0.2, g=0.5, b=-0.4)
        theta_max, vmax = maximize(model)
        thetas = np.linspace(-np.pi, np.pi, 100_000)
        assert vmax >= np.max(model.evaluate(thetas)) - 1e-12
        assert model.evaluate(theta_max) == pytest.approx(vmax, abs=1e-12)

    def test_post_check_no_smaller_neighbour(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            model = LandscapeModel(
                INVOLUTORY, 1.0, e0=rng.normal(), g=rng.normal(), b=rng.normal()
            )
            theta, value = minimize(model)
            probes = theta + np.linspace(-1e-6, 1e-6, 101)
            assert value <= np.min(model.evaluate(probes)) + 1e-15


class TestReconstruct2D:
    def test_commuting_pair_constant_surface(self):
        h = PauliSum.from_label_terms(2, [(0.9, "Z0 Z1")])
        g1 = gen_from_label(2, "Z0")
        g2 = gen_from_label(2, "Z1")
        state = StateVector(random_state(2, np.random.default_rng(3)))
        model = reconstruct_2d(exact_backend(), h, g1, g2, state)
        grid = np.linspace(-np.pi, np.pi, 17)
        surface = model.evaluate(grid[:, None], grid[None, :])
        assert np.allclose(surface, surface[0, 0], atol=1e-12)

    def test_slices_match_1d_models(self):
        rng = np.random.default_rng(111)
        n = 3
        h = random_pauli_sum(n, 6, rng)
        pool = minimal_hardware_efficient_pool(n)
        state = StateVector(random_state(n, rng))
        g1, g2 = pool[0], pool[3]
        model2 = reconstruct_2d(exact_backend(), h, g1, g2, state)
        m1 = reconstruct(exact_backend(), h, g1, state)
        m2 = reconstruct(exact_backend(), h, g2, state)
        thetas = np.linspace(-np.pi, np.pi, 64)
        assert np.allclose(model2.evaluate(thetas, 0.0), m1.evaluate(thetas), atol=1e-10)
        assert np.allclose(model2.evaluate(0.0, thetas), m2.evaluate(thetas), atol=1e-10)

    def test_random_pairs_match_dense_scan(self):
        rng = np.random.default_rng(113)
        n = 4
        pool = minimal_hardware_efficient_pool(n)
        backend = exact_backend()
        for _ in range(4):
            h = random_pauli_sum(n, 7, rng)
            hd = dense_sum(h)
            vec = random_state(n, rng)
            ids = rng.choice(len(pool), size=2, replace=False)
            g1, g2 = pool[int(ids[0])], pool[int(ids[1])]
            model = reconstruct_2d(backend, h, g1, g2, StateVector(vec))
            grid = np.linspace(-np.pi, np.pi, 64, endpoint=False)
            u1 = [dense_expm_hermitian(dense_sum(g1.body), -1j * t) for t in grid]
            u2 = [dense_expm_hermitian(dense_sum(g2.body), -1j * t) for t in grid]
            worst = 0.0
            for i, t1 in enumerate(grid):
                base = u1[i] @ vec
                for j, t2 in enumerate(grid):
                    rot = u2[j] @ base
                    exact = float(np.real(np.vdot(rot, hd @ rot)))
                    worst = max(worst, abs(model.evaluate(t1, t2) - exact))
            assert worst < 1e-9

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_model_interpolates_its_nine_samples(self, mode):
        rng = np.random.default_rng(117)
        h = random_pauli_sum(4, 6, rng)
        pool = qubit_hardware_efficient_pool(4)
        state = StateVector(random_state(4, rng))
        backend = ExpectationBackend(mode, shots=500, seed=5)
        samples = {}
        measure = backend.expectation

        def recording(rotated, h, context=()):
            samples[context[-1]] = measure(rotated, h, context=context)
            return samples[context[-1]]

        backend.expectation = recording
        g1, g2 = pool[1], pool[-1]
        model = reconstruct_2d(backend, h, g1, g2, state, context=(7,))
        q = np.pi / 4
        nodes = [(0, 0), (q, 0), (-q, 0), (0, q), (0, -q), (q, q), (q, -q), (-q, q), (-q, -q)]
        assert sorted(samples) == list(range(9))
        for tag, (t1, t2) in enumerate(nodes):
            value = model.evaluate(t1 / g1.angle_scale, t2 / g2.angle_scale)
            assert value == pytest.approx(samples[tag], abs=1e-12)

    def test_rejects_tripotent_generators(self):
        pool = qeb_pool(4)
        h = random_pauli_sum(4, 4, np.random.default_rng(5))
        state = basis_state(4, 3)
        with pytest.raises(ValueError):
            reconstruct_2d(exact_backend(), h, pool[0], pool[1], state)


class TestMinimize2D:
    def test_constant_surface(self):
        model = LandscapeModel2D(1.0, 1.0, ((0.5, 0.0, 0.5), (0.0, 0.0, 0.0), (0.5, 0.0, 0.5)))
        t1, t2, value = minimize_2d(model)
        assert (t1, t2) == (0.0, 0.0)
        assert value == pytest.approx(0.5)

    def test_separable_surface(self):
        # H = Z0 + Z1 with Y rotations on each qubit from |00>:
        # L = cos(2 t1) + cos(2 t2), separable by construction.
        h = PauliSum.from_label_terms(2, [(1.0, "Z0"), (1.0, "Z1")])
        g1 = gen_from_label(2, "Y0")
        g2 = gen_from_label(2, "Y1")
        model = reconstruct_2d(exact_backend(), h, g1, g2, basis_state(2, 0))
        t1, t2, value = minimize_2d(model)
        assert value == pytest.approx(-2.0, abs=1e-10)
        assert abs(t1) == pytest.approx(np.pi / 2, abs=1e-8)
        assert abs(t2) == pytest.approx(np.pi / 2, abs=1e-8)
        # Componentwise: L(t1, t2) = L1(t1) + L2(t2) - e0 for this instance.
        m1 = reconstruct(exact_backend(), h, g1, basis_state(2, 0))
        m2 = reconstruct(exact_backend(), h, g2, basis_state(2, 0))
        assert minimize(m1)[1] + minimize(m2)[1] - m1.e0 == pytest.approx(
            value, abs=1e-10
        )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # Two cases hypothesis found: a t1 candidate whose best t2 is an edge
    # tying with that edge's own minimum; a flat t2 slice (h22 = 0).
    @example(0.125, 0.125, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0], None, 0.0)
    @example(2.0, 0.125, [0.0] * 6 + [2.0, 0.0, 3.65829424301207e-75], None, 0.0)
    @given(
        st.sampled_from([0.125, 0.25, 0.3, 0.5, 1.0, 2.0]),
        st.sampled_from([0.125, 0.25, 0.3, 0.5, 1.0, 2.0]),
        st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
        st.sampled_from([None, "p", "q", "M"]),
        st.one_of(st.just(0.0), st.integers(1, 300).map(lambda k: 10.0 ** -k)),
    )
    def test_random_surface_beats_brute_grid(self, s1, s2, values, block, factor):
        # One block of the surface may be zeroed or scaled down.
        k = np.array(values).reshape(3, 3)
        if block is not None:
            k[BLOCKS[block]] *= factor
        model = surface(k, s1, s2)
        assert_global_minimum_2d(model, *minimize_2d(model))

    def test_valley_keeps_the_tie_rule(self):
        # L = cos(2 t1 + 2 t2 - delta) has a valley of equal minima; the
        # answer is a candidate (t1 from 0 or +-pi/2), not a point along it.
        for delta in np.linspace(-3.0, 3.0, 13):
            k = np.zeros((3, 3))
            k[1:, 1:] = [[np.cos(delta), np.sin(delta)], [np.sin(delta), -np.cos(delta)]]
            theta1, theta2, value = minimize_2d(surface(k))
            assert theta1 in (0.0, -np.pi / 2, np.pi / 2)
            assert value == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("structure", ["q=M=0", "p=q=0", "M=0", "p=0", "rank-1 M", "rotation M"])
    def test_degenerate_surfaces(self, structure):
        # Shared or vanishing terms double the roots of F, or remove them.
        rng = np.random.default_rng(121)
        for _ in range(20):
            k = rng.normal(size=(3, 3))
            if structure == "rank-1 M":
                k[BLOCKS["M"]] = np.outer(rng.normal(size=2), rng.normal(size=2))
            elif structure == "rotation M":
                c, s = np.cos(rng.uniform(-3, 3)), np.sin(rng.uniform(-3, 3))
                k[BLOCKS["M"]] = rng.normal() * np.array([[c, -s], [s, c]])
            else:
                for name in structure[:-2].split("="):
                    k[BLOCKS[name]] = 0.0
            model = surface(k, *rng.choice([0.125, 0.25, 0.5, 1.0, 2.0], size=2))
            assert_global_minimum_2d(model, *minimize_2d(model))

    def test_chain_valley_takes_the_first_angle_at_zero(self):
        # The first pair of the hardware-efficient chain run: every split
        # of t1 + t2 between the two angles is a minimum.
        config = load_run_config(
            os.path.join(REPO, "configs", "chain_n5.cfg"),
            ["pool.name=qubit_hardware_efficient"],
        )
        state = uniform_minus_state(5)
        model = reconstruct_2d(
            exact_backend(), config.hamiltonian, config.pool[8], config.pool[9], state
        )
        theta1, theta2, value = minimize_2d(model)
        assert theta1 == 0.0 and theta2 == pytest.approx(0.2782996590051, abs=1e-12)
        assert_global_minimum_2d(model, theta1, theta2, value)

    def test_chain_pairs_reach_the_edges(self):
        # Random pairs of the hardware-efficient pool on the 5-qubit chain,
        # whose 1/2- and 1/8-scale members leave part of each angle's
        # period out of reach: minima often sit on a domain edge.
        config = load_run_config(
            os.path.join(REPO, "configs", "chain_n5.cfg"),
            ["pool.name=qubit_hardware_efficient"],
        )
        pool = config.pool
        rng = np.random.default_rng(0)
        backend = exact_backend()
        scan = np.linspace(-np.pi, np.pi - 1e-12, 801)
        for _ in range(5):
            state = StateVector(random_state(5, rng))
            for _ in range(20):
                i, j = rng.choice(len(pool), size=2, replace=False)
                model = reconstruct_2d(
                    backend, config.hamiltonian, pool[int(i)], pool[int(j)], state
                )
                assert_global_minimum_2d(model, *minimize_2d(model), scan=scan)


class TestShotNoise:
    def test_coefficients_converge_at_sqrt_shots_rate(self):
        h = build_ising(IsingSpec(3, 0.5, 0.2))
        gen = gen_from_label(3, "Z0 Y1")
        state = uniform_minus_state(3)
        exact_model = reconstruct(exact_backend(), h, gen, state)
        shot_levels = [400, 1600, 6400]
        rms = []
        for shots in shot_levels:
            errors = []
            for rep in range(50):
                backend = ExpectationBackend("sampled", shots=shots, seed=1000 + rep)
                model = reconstruct(
                    backend, h, gen, state, context=(9, rep)
                )
                errors.append(
                    (model.g - exact_model.g) ** 2 + (model.b - exact_model.b) ** 2
                )
            rms.append(float(np.sqrt(np.mean(errors))))
        # Quadrupling the shots should halve the RMS error; allow a 3-sigma
        # band around the ideal factor of 2 for the 50-repetition estimate.
        for a, b in zip(rms, rms[1:]):
            assert 1.3 < a / b < 3.1, rms

    def test_sampled_reconstruction_deterministic(self):
        h = build_ising(IsingSpec(3, 0.5, 0.2))
        gen = gen_from_label(3, "Y1")
        state = uniform_minus_state(3)
        models = []
        for _ in range(2):
            backend = ExpectationBackend("sampled", shots=500, seed=42)
            models.append(reconstruct(backend, h, gen, state, context=(1, 2)))
        assert models[0] == models[1]


class TestReconstructFromSamples:
    def test_tripotent_solver_reproduces_samples(self):
        rng = np.random.default_rng(119)
        pool = qeb_pool(4)
        gen = pool[7]
        h = random_pauli_sum(4, 5, rng)
        vec = random_state(4, rng)
        hd, bd = dense_sum(h), dense_sum(gen.body)

        def sample(node, _tag):
            u = dense_expm_hermitian(bd, -1j * node)
            rot = u @ vec
            return float(np.real(np.vdot(rot, hd @ rot)))

        e0 = float(np.real(np.vdot(vec, hd @ vec)))
        model = reconstruct_from_samples(gen, sample, e0)
        for node in (np.pi / 2, -np.pi / 2, np.pi / 4, -np.pi / 4, 0.0):
            assert model.evaluate(node) == pytest.approx(sample(node, 0), abs=1e-10)
