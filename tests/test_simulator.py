"""State-vector simulator tests against dense matrix-vector oracles."""

import gc
import tracemalloc

import numpy as np
import pytest

from ggavqe import (
    Ansatz,
    Generator,
    InitialState,
    IsingSpec,
    PauliSum,
    apply_exp_generator,
    apply_pauli_sum,
    build_ising,
    exact_ground_state,
    expectation,
    fidelity,
    inner_product,
    replay,
    uniform_minus_state,
)
from ggavqe.simulator import (
    INVOLUTORY,
    InvariantError,
    StateVector,
    ansatz_from_text,
    ansatz_to_text,
    basis_state,
    occupation_basis_state,
    wrap_angle,
)
from ggavqe.pools import custom_pool, minimal_hardware_efficient_pool, qeb_pool

from oracles import (
    dense_expm_hermitian,
    dense_sum,
    random_pauli_sum,
    random_state,
)


def ising(n, h, j):
    terms = [(h, f"X{p}") for p in range(n)]
    terms += [(j, f"Z{p} Z{p+1}") for p in range(n - 1)]
    return PauliSum.from_label_terms(n, terms)


class TestApplyPauli:
    def test_x0_flips_the_low_bit(self):
        n = 4
        out = apply_pauli_sum(basis_state(n, 0), PauliSum.from_label_terms(n, [(1.0, "X0")]))
        assert np.allclose(out.amplitudes, basis_state(n, 1).amplitudes)

    def test_z0_signs_occupied_qubit(self):
        n = 4
        out = apply_pauli_sum(basis_state(n, 1), PauliSum.from_label_terms(n, [(1.0, "Z0")]))
        assert np.allclose(out.amplitudes, -basis_state(n, 1).amplitudes)

    def test_small_sum_matches_matrix_vector(self):
        h = PauliSum.from_label_terms(2, [(0.5, "X0"), (0.2, "Z0 Z1")])
        out = apply_pauli_sum(basis_state(2, 0), h)
        expected = np.zeros(4, dtype=complex)
        expected[0] = 0.2
        expected[1] = 0.5
        assert np.allclose(out.amplitudes, expected)

    def test_random_sums_match_dense(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            h = random_pauli_sum(n, 5, rng, hermitian=False)
            vec = random_state(n, rng)
            out = apply_pauli_sum(StateVector(vec), h)
            assert np.allclose(out.amplitudes, dense_sum(h) @ vec, atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_pauli_sum(basis_state(2, 0), PauliSum.from_label_terms(3, [(1.0, "X0")]))

    def test_peak_memory(self):
        # Peak of one call on the n = 16 Ising Hamiltonian, in state
        # vectors, by tracemalloc: 3.63 with a float sign vector per term,
        # 2.25 with sign flips in one reused term buffer.
        n = 16
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        state = StateVector(random_state(n, np.random.default_rng(7)))
        apply_pauli_sum(state, h)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            apply_pauli_sum(state, h)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (16 << n), peak / (16 << n)

    def test_peak_memory_on_a_real_state(self):
        # As above on float64 amplitudes, in complex state vectors: 1.13,
        # a real output and term buffer plus numpy's buffers for the flips.
        n = 16
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        state = StateVector(random_state(n, np.random.default_rng(7)).real)
        assert apply_pauli_sum(state, h).amplitudes.dtype == np.float64
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            apply_pauli_sum(state, h)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * (16 << n), peak / (16 << n)


class TestExpGenerator:
    def test_y_rotation_on_zero(self):
        gen = custom_pool(1, [("Y0", PauliSum.from_label_terms(1, [(1.0, "Y0")]), 1.0)])[0]
        theta = 0.37
        out = apply_exp_generator(basis_state(1, 0), gen, theta)
        assert np.allclose(
            out.amplitudes, [np.cos(theta), np.sin(theta)], atol=1e-12
        )

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(37)
        pool = qeb_pool(4)
        vec = random_state(4, rng)
        for gen in pool:
            out = apply_exp_generator(StateVector(vec), gen, 0.0)
            assert np.allclose(out.amplitudes, vec)

    def test_double_excitation_transfers_occupation(self):
        # exp(-i pi/2 A(0,1,2,3)) moves |1100> (qubits 0,1 occupied) onto
        # |0011>; frozen from the dense matrix-exponential oracle, which also
        # fixes the resulting phase to exactly +1.
        pool = qeb_pool(4)
        doubles = [g for g in pool if g.label == "A(0,1,2,3)"]
        assert len(doubles) == 1
        gen = doubles[0]
        start = occupation_basis_state("1100")
        out = apply_exp_generator(start, gen, np.pi / 2.0)
        oracle = dense_expm_hermitian(dense_sum(gen.body), -1j * np.pi / 2.0)
        assert np.allclose(out.amplitudes, oracle @ start.amplitudes, atol=1e-12)
        assert np.allclose(out.amplitudes, occupation_basis_state("0011").amplitudes)
        # The generator itself maps |1100> to i|0011>.
        action = apply_pauli_sum(start, gen.body)
        assert np.allclose(action.amplitudes, 1j * occupation_basis_state("0011").amplitudes)

    def test_inverse_composition(self):
        rng = np.random.default_rng(41)
        pools = [minimal_hardware_efficient_pool(4), qeb_pool(4)]
        for pool in pools:
            for gen in list(pool)[:6]:
                vec = random_state(4, rng)
                theta = float(rng.uniform(-np.pi, np.pi))
                out = apply_exp_generator(
                    apply_exp_generator(StateVector(vec), gen, theta), gen, -theta
                )
                assert np.max(np.abs(out.amplitudes - vec)) < 1e-10

    def test_closed_form_equals_dense_exponential(self):
        rng = np.random.default_rng(43)
        thetas = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        for pool in (minimal_hardware_efficient_pool(4), qeb_pool(4)):
            for gen in pool:
                body = dense_sum(gen.body)
                for theta in thetas:
                    oracle = dense_expm_hermitian(body, -1j * gen.angle_scale * theta)
                    columns = []
                    for k in range(16):
                        col = apply_exp_generator(basis_state(4, k), gen, float(theta))
                        columns.append(col.amplitudes)
                    closed = np.array(columns).T
                    assert np.linalg.norm(closed - oracle, ord=2) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(47)
        gen = custom_pool(2, [("Z0 Y1", PauliSum.from_label_terms(2, [(1.0, "Z0 Y1")]), 1.0)])[0]
        vec = random_state(2, rng)
        out = apply_exp_generator(StateVector(vec), gen, 1.234)
        assert abs(out.norm() - 1.0) < 1e-10


class TestExpectation:
    def test_z_on_zero_state(self):
        n = 3
        h = PauliSum.from_label_terms(n, [(1.0, "Z0")])
        assert expectation(basis_state(n, 0), h) == pytest.approx(1.0)

    def test_transverse_field_on_minus(self):
        h = PauliSum.from_label_terms(2, [(1.0, "X0"), (1.0, "X1")])
        assert expectation(uniform_minus_state(2), h) == pytest.approx(-2.0)

    def test_two_qubit_ising_ground_energy(self):
        # Dense diagonalization oracle; equals -sqrt(4 h^2 + J^2) here.
        h, j = 0.5, 0.2
        ham = ising(2, h, j)
        eigvals = np.linalg.eigvalsh(dense_sum(ham))
        assert eigvals[0] == pytest.approx(-np.sqrt(4 * h * h + j * j), abs=1e-12)
        energy, state = exact_ground_state(ham)
        assert energy == pytest.approx(eigvals[0], abs=1e-12)
        assert energy == pytest.approx(-1.019803902718557, abs=1e-9)
        assert expectation(state, ham) == pytest.approx(energy, abs=1e-10)

    def test_rejects_non_hermitian(self):
        h = PauliSum.from_label_terms(1, [(1j, "X0")])
        with pytest.raises(ValueError):
            expectation(basis_state(1, 0), h)

    def test_real_on_random_states(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            h = random_pauli_sum(n, 6, rng)
            value = expectation(StateVector(random_state(n, rng)), h)
            assert isinstance(value, float)


class TestInnerProduct:
    def test_self_inner_product(self):
        rng = np.random.default_rng(59)
        vec = random_state(3, rng)
        assert inner_product(StateVector(vec), StateVector(vec)) == pytest.approx(1.0)

    def test_orthogonal_and_plus(self):
        assert inner_product(basis_state(1, 0), basis_state(1, 1)) == 0
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert inner_product(plus, basis_state(1, 0)) == pytest.approx(1 / np.sqrt(2))


class TestExactGroundState:
    def test_z_and_x_single_qubit(self):
        energy, state = exact_ground_state(PauliSum.from_label_terms(1, [(1.0, "Z0")]))
        assert energy == pytest.approx(-1.0)
        assert abs(state.amplitudes[1]) == pytest.approx(1.0)
        energy, state = exact_ground_state(PauliSum.from_label_terms(1, [(1.0, "X0")]))
        assert energy == pytest.approx(-1.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert fidelity(state, StateVector(minus)) == pytest.approx(1.0)

    def test_variational_bound(self):
        rng = np.random.default_rng(61)
        h = random_pauli_sum(4, 8, rng)
        e0, _ = exact_ground_state(h)
        for _ in range(100):
            value = expectation(StateVector(random_state(4, rng)), h)
            assert value >= e0 - 1e-10

    def test_size_limit(self):
        h = PauliSum.from_label_terms(13, [(1.0, "Z0")])
        with pytest.raises(ValueError):
            exact_ground_state(h)

    def test_deterministic_eigenvector(self):
        rng = np.random.default_rng(67)
        h = random_pauli_sum(3, 6, rng)
        _, a = exact_ground_state(h)
        _, b = exact_ground_state(h)
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestInitialStatesAndAnsatz:
    def test_occupation_convention(self):
        # "1100": qubits 0 and 1 occupied -> amplitude index 0b0011 = 3.
        state = occupation_basis_state("1100")
        assert state.amplitudes[3] == 1.0

    def test_uniform_minus_amplitudes(self):
        state = uniform_minus_state(2)
        assert np.allclose(state.amplitudes, np.array([1, -1, -1, 1]) / 2.0)

    def test_angles_stored_verbatim_and_wrap_helper(self):
        # Raw sampling angles pass through untouched (wrapping a 2*pi shift
        # would change the unitary of an angle-scaled generator); drivers
        # canonicalize the angles they append via wrap_angle.
        ansatz = Ansatz(2, InitialState("uniform-minus"), ((0, 3.5 * np.pi),))
        assert ansatz.steps[0][1] == pytest.approx(3.5 * np.pi)
        assert wrap_angle(np.pi) == -np.pi
        assert -np.pi <= wrap_angle(3.5 * np.pi) < np.pi
        # Just below -pi the remainder rounds up to a whole turn.
        assert wrap_angle(np.nextafter(-np.pi, -4.0)) == -np.pi

    def test_replay_deterministic(self):
        pool = minimal_hardware_efficient_pool(3)
        ansatz = Ansatz(
            3, InitialState("uniform-minus"), ((0, 0.3), (3, -1.2), (1, 2.2))
        )
        a = replay(ansatz, pool.by_id())
        b = replay(ansatz, pool.by_id())
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_text_round_trip(self):
        ansatz = Ansatz(
            4,
            InitialState("basis", occupations="1100"),
            ((2, 0.25), (5, -np.pi / 3.0)),
        )
        text = ansatz_to_text(ansatz, pool_name="minimal_hardware_efficient")
        parsed, pool_name = ansatz_from_text(text)
        assert pool_name == "minimal_hardware_efficient"
        assert parsed == ansatz

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_rejected_with_its_line(self, angle):
        text = f"n_qubits 2\ninitial uniform-minus\nstep 0 0.5\nstep 1 {angle}\n"
        with pytest.raises(ValueError, match="line 4: angle is not finite"):
            ansatz_from_text(text)

    def test_custom_vector_has_no_text_form(self):
        state = uniform_minus_state(2)
        ansatz = Ansatz(2, InitialState("custom", vector=state.amplitudes))
        with pytest.raises(ValueError):
            ansatz_to_text(ansatz)


class TestGeneratorValidation:
    def test_unknown_class_rejected(self):
        body = PauliSum.from_label_terms(1, [(1.0, "Y0")])
        with pytest.raises(ValueError):
            Generator(0, "Y0", body, "projective")

    def test_misclassified_generator_fails_norm_check(self):
        # A tripotent body applied through the involutory closed form does
        # not preserve the norm of a generic state.
        body = qeb_pool(3)[0].body
        gen = Generator(0, "single", body, INVOLUTORY)
        state = StateVector(random_state(3, np.random.default_rng(5)))
        with pytest.raises(InvariantError, match="norm drifted"):
            apply_exp_generator(state, gen, 0.7)

    def test_misclassified_generator_fails_norm_check_over_several_angles(self):
        # Each state is checked as it is yielded: theta = 0 keeps the norm.
        gen = Generator(0, "single", qeb_pool(3)[0].body, INVOLUTORY)
        state = StateVector(random_state(3, np.random.default_rng(5)))
        rotated = apply_exp_generator(state, gen, [0.0, 0.7])
        assert np.array_equal(next(rotated).amplitudes, state.amplitudes)
        with pytest.raises(InvariantError, match="norm drifted"):
            next(rotated)

    def test_nan_angle_fails_norm_check(self):
        # A NaN norm is not within the tolerance: the check fails closed.
        gen = minimal_hardware_efficient_pool(3)[0]
        state = StateVector(random_state(3, np.random.default_rng(5)))
        with pytest.raises(InvariantError, match="norm drifted"):
            apply_exp_generator(state, gen, float("nan"))
