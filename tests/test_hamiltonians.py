"""Hamiltonian construction and file-format tests."""

import numpy as np
import pytest

from ggavqe import (
    FermionIntegrals,
    GeneralSpinChainSpec,
    IsingSpec,
    PauliSum,
    anticommutator,
    build_general_chain,
    build_ising,
    expectation,
    hartree_fock_state,
    jordan_wigner,
    load_pauli_sum,
    map_molecular_hamiltonian,
)
from ggavqe.hamiltonians import load_integrals, save_pauli_sum
from ggavqe.pauli import identity_sum
from ggavqe.simulator import occupation_basis_state

from oracles import random_pauli_sum


class TestBuildIsing:
    def test_paper_instance(self):
        h = build_ising(IsingSpec(2, 0.5, 0.2))
        assert h == PauliSum.from_label_terms(
            2, [(0.5, "X0"), (0.5, "X1"), (0.2, "Z0 Z1")]
        )

    def test_pure_coupling(self):
        assert build_ising(IsingSpec(2, 0.0, 1.0)) == PauliSum.from_label_terms(
            2, [(1.0, "Z0 Z1")]
        )

    def test_pure_field(self):
        assert build_ising(IsingSpec(3, 1.0, 0.0)) == PauliSum.from_label_terms(
            3, [(1.0, "X0"), (1.0, "X1"), (1.0, "X2")]
        )

    def test_nan_field_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            build_ising(IsingSpec(6, float("nan"), 0.2))

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_term_count_and_hermiticity(self, n):
        h = build_ising(IsingSpec(n, 0.37, -0.81))
        assert len(h) == 2 * n - 1
        assert h.is_hermitian()


class TestGeneralChain:
    def test_reduces_to_ising(self):
        n, h, j = 5, 0.5, 0.2
        spec = GeneralSpinChainSpec.uniform(n, hx=h, jz=j)
        assert build_general_chain(spec) == build_ising(IsingSpec(n, h, j))

    def test_single_yy_bond(self):
        spec = GeneralSpinChainSpec(2, (0.0, 0.0), (0.0, 0.0), (0.0,), (1.0,), (0.0,))
        assert build_general_chain(spec) == PauliSum.from_label_terms(2, [(1.0, "Y0 Y1")])

    def test_random_spec_shape(self):
        rng = np.random.default_rng(71)
        n = 4
        spec = GeneralSpinChainSpec(
            n,
            tuple(rng.normal(size=n)),
            tuple(rng.normal(size=n)),
            tuple(rng.normal(size=n - 1)),
            tuple(rng.normal(size=n - 1)),
            tuple(rng.normal(size=n - 1)),
        )
        h = build_general_chain(spec)
        assert h.is_hermitian()
        assert len(h) <= 5 * n - 3

    def test_length_validation(self):
        with pytest.raises(ValueError):
            GeneralSpinChainSpec(3, (1.0,), (0.0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))


class TestJordanWigner:
    def test_a0(self):
        assert jordan_wigner(0, False, 2) == PauliSum.from_label_terms(
            2, [(0.5, "X0"), (0.5j, "Y0")]
        )

    def test_a1_carries_z_string(self):
        assert jordan_wigner(1, False, 2) == PauliSum.from_label_terms(
            2, [(0.5, "Z0 X1"), (0.5j, "Z0 Y1")]
        )

    def test_canonical_anticommutators(self):
        n = 6
        for p in range(n):
            for q in range(n):
                a_p = jordan_wigner(p, False, n)
                adag_q = jordan_wigner(q, True, n)
                mixed = anticommutator(a_p, adag_q)
                if p == q:
                    assert mixed == identity_sum(n)
                else:
                    assert len(mixed) == 0
                assert len(anticommutator(a_p, jordan_wigner(q, False, n))) == 0

    def test_index_range(self):
        with pytest.raises(ValueError):
            jordan_wigner(4, False, 4)


class TestMolecularMapping:
    def test_single_orbital_number_operator(self):
        ints = FermionIntegrals(1, 1, one_body={(0, 0): 0.75})
        h = map_molecular_hamiltonian(ints)
        assert h == PauliSum.from_label_terms(1, [(0.375, "I"), (-0.375, "Z0")])

    def test_empty_integrals(self):
        h = map_molecular_hamiltonian(FermionIntegrals(2, 0))
        assert len(h) == 0

    def test_two_orbital_random_symmetric(self):
        rng = np.random.default_rng(73)
        one = {}
        for p in range(2):
            for q in range(2):
                one[(p, q)] = one.get((q, p), rng.normal())
        # Hermiticity needs h_pqrs = h_srqp for the operator ordering used.
        v = rng.normal()
        two = {(0, 1, 1, 0): v, (0, 1, 0, 1): -0.5 * v, (1, 0, 1, 0): -0.5 * v}
        two[(0, 1, 1, 0)] = v
        two[(1, 0, 0, 1)] = two[(0, 1, 1, 0)]
        ints = FermionIntegrals(2, 1, one, two)
        h = map_molecular_hamiltonian(ints)
        assert h.is_hermitian()
        assert expectation(occupation_basis_state("10"), h) == pytest.approx(
            one[(0, 0)], abs=1e-12
        )

    def test_asymmetric_integrals_rejected(self):
        ints = FermionIntegrals(2, 1, one_body={(0, 1): 1.0})
        with pytest.raises(ValueError, match="hermitian"):
            map_molecular_hamiltonian(ints)


class TestHartreeFock:
    def test_eight_in_ten(self):
        state = hartree_fock_state(8, 10)
        assert state.amplitudes[0b0011111111] == 1.0

    def test_empty(self):
        state = hartree_fock_state(0, 3)
        assert state.amplitudes[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            hartree_fock_state(4, 3)


class TestFileIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(79)
        h = random_pauli_sum(4, 7, rng, hermitian=False)
        path = tmp_path / "ham.txt"
        save_pauli_sum(h, path)
        assert load_pauli_sum(path, n_qubits=4) == h

    def test_ising_file(self, tmp_path):
        path = tmp_path / "ising.txt"
        path.write_text("# two qubits\n0.5 X0\n0.5 X1\n0.2 Z0 Z1\n")
        assert load_pauli_sum(path) == build_ising(IsingSpec(2, 0.5, 0.2))

    def test_parse_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 X0\nnot-a-term\n")
        with pytest.raises(ValueError, match="line 2"):
            load_pauli_sum(path)

    def test_integral_file(self, tmp_path):
        path = tmp_path / "ints.txt"
        path.write_text(
            "norb 2\nnelec 1\nPQ 0 0 -1.25\nPQ 1 1 -0.5\nPQRS 0 1 1 0 0.674\n"
        )
        ints = load_integrals(path)
        assert ints.n_spin_orbitals == 2
        assert ints.n_electrons == 1
        assert ints.one_body[(0, 0)] == -1.25
        assert ints.two_body[(0, 1, 1, 0)] == 0.674

    def test_integral_error_line(self, tmp_path):
        path = tmp_path / "ints.txt"
        path.write_text("norb 2\nPQ 0 zero 1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_integrals(path)
