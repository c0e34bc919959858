"""Tests for the Pauli string / sum algebra, anchored by dense-matrix oracles."""

import numpy as np
import pytest

from ggavqe import (
    PauliString,
    PauliSum,
    anticommutator,
    commutator,
    conjugate_by,
    multiply,
    qubitwise_commutes,
)
from ggavqe.pauli import dumps, loads, identity_sum

from oracles import (
    dense_string,
    dense_string_from_label,
    dense_sum,
    random_pauli_string,
    random_pauli_sum,
)


def ps(n, label):
    return PauliString.from_label(n, label)


class TestMultiply:
    def test_x_squared_is_identity(self):
        phase, prod = multiply(ps(1, "X0"), ps(1, "X0"))
        assert phase == 1 and prod.is_identity()

    def test_xy_gives_iz(self):
        phase, prod = multiply(ps(1, "X0"), ps(1, "Y0"))
        assert phase == 1j and prod == ps(1, "Z0")

    def test_zz_times_x_dense_verified(self):
        # Frozen from the 4x4 dense oracle: (Z0 Z1)(X0) = +i * (Y0 Z1).
        phase, prod = multiply(ps(2, "Z0 Z1"), ps(2, "X0"))
        assert phase == 1j and prod == ps(2, "Y0 Z1")
        lhs = dense_string(2, [(0, "Z"), (1, "Z")]) @ dense_string(2, [(0, "X")])
        assert np.allclose(lhs, phase * dense_string_from_label(2, prod.label()))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(ps(1, "X0"), ps(2, "X0"))

    def test_random_products_match_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = random_pauli_string(n, rng)
            b = random_pauli_string(n, rng)
            phase, prod = multiply(a, b)
            lhs = dense_string_from_label(n, a.label()) @ dense_string_from_label(
                n, b.label()
            )
            assert np.allclose(lhs, phase * dense_string_from_label(n, prod.label()))


class TestQubitwiseCommutes:
    def test_examples(self):
        assert qubitwise_commutes(ps(2, "X0 Z1"), ps(2, "X0"))
        assert not qubitwise_commutes(ps(1, "X0"), ps(1, "Z0"))
        # Per-qubit letter check by hand: supports only overlap on qubit 2,
        # where both carry Z.
        assert qubitwise_commutes(ps(5, "Z0 X1 Z2"), ps(5, "Z2 X3 Z4"))

    def test_commute_but_not_qubitwise(self):
        assert not qubitwise_commutes(ps(2, "X0 Y1"), ps(2, "Y0 X1"))


def ising_sum(n, h, j):
    terms = [(h, f"X{p}") for p in range(n)]
    terms += [(j, f"Z{p} Z{p+1}") for p in range(n - 1)]
    return PauliSum.from_label_terms(n, [(c, lab) for c, lab in terms])


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(3)
        a = random_pauli_sum(4, 6, rng)
        assert len(commutator(a, a)) == 0

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_y_with_ising(self, p):
        n, h, j = 6, 0.5, 0.2
        ham = ising_sum(n, h, j)
        b = PauliSum.from_label_terms(n, [(1.0, f"Y{p}")])
        expected_terms = [(-2j * h, f"Z{p}"), (2j * j, f"X{p} Z{p+1}")]
        if p > 0:
            expected_terms.append((2j * j, f"Z{p-1} X{p}"))
        expected = PauliSum.from_label_terms(n, expected_terms)
        assert commutator(b, ham) == expected

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_zy_with_ising(self, p):
        n, h, j = 6, 0.5, 0.2
        ham = ising_sum(n, h, j)
        b = PauliSum.from_label_terms(n, [(1.0, f"Z{p} Y{p+1}")])
        expected_terms = [
            (2j * h, f"Y{p} Y{p+1}"),
            (-2j * h, f"Z{p} Z{p+1}"),
            (2j * j, f"X{p+1}"),
        ]
        if p < n - 2:
            expected_terms.append((2j * j, f"Z{p} X{p+1} Z{p+2}"))
        expected = PauliSum.from_label_terms(n, expected_terms)
        assert commutator(b, ham) == expected

    def test_antisymmetry_and_bilinearity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = random_pauli_sum(n, 4, rng, hermitian=False)
            b = random_pauli_sum(n, 4, rng, hermitian=False)
            c = random_pauli_sum(n, 3, rng, hermitian=False)
            assert commutator(a, b) == -1.0 * commutator(b, a)
            lhs = commutator(a + c, b)
            rhs = commutator(a, b) + commutator(c, b)
            assert np.allclose(dense_sum(lhs), dense_sum(rhs))
            assert anticommutator(a, b) == anticommutator(b, a)

    def test_matches_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = random_pauli_sum(n, 4, rng)
            b = random_pauli_sum(n, 4, rng)
            da, db = dense_sum(a), dense_sum(b)
            assert np.allclose(dense_sum(commutator(a, b)), da @ db - db @ da)
            assert np.allclose(dense_sum(anticommutator(a, b)), da @ db + db @ da)


class TestConjugateBy:
    def test_identity_conjugation(self):
        rng = np.random.default_rng(5)
        h = random_pauli_sum(3, 5, rng)
        assert conjugate_by(h, identity_sum(3)) == h

    @pytest.mark.parametrize("p", [0, 3])
    def test_y_conjugates_ising(self, p):
        n, h, j = 5, 0.7, 0.3
        ham = ising_sum(n, h, j)
        b = PauliSum.from_label_terms(n, [(1.0, f"Y{p}")])
        corrections = [(-2.0 * h, f"X{p}"), (-2.0 * j, f"Z{p} Z{p+1}")]
        if p > 0:
            corrections.append((-2.0 * j, f"Z{p-1} Z{p}"))
        expected = ham + PauliSum.from_label_terms(n, corrections)
        assert conjugate_by(ham, b) == expected

    def test_zz_conjugates_transverse_field(self):
        n, p = 4, 1
        field = PauliSum.from_label_terms(n, [(1.0, f"X{q}") for q in range(n)])
        b = PauliSum.from_label_terms(n, [(1.0, f"Z{p} Z{p+1}")])
        expected = field + PauliSum.from_label_terms(
            n, [(-2.0, f"X{p}"), (-2.0, f"X{p+1}")]
        )
        assert conjugate_by(field, b) == expected

    def test_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            h = random_pauli_sum(n, 5, rng)
            b = random_pauli_sum(n, 2, rng)
            db = dense_sum(b)
            assert np.allclose(
                dense_sum(conjugate_by(h, b)), db @ dense_sum(h) @ db
            )


# ---------------------------------------------------------------------------
# The minimal-pool commutator/conjugation tables for general spin chains.
#
# The expected entries below were derived by hand from the Pauli commutation
# relations and cross-checked, term by term, against a dense Kronecker
# oracle; boundary sites drop the out-of-range terms.
# ---------------------------------------------------------------------------

N_TABLE = 6
H_SITE = (1.1, 1.3, 1.7, 1.9, 2.3, 2.9)
J_BOND = (3.1, 3.7, 4.1, 4.3, 4.7)


def site_sum(letter):
    return PauliSum.from_label_terms(
        N_TABLE, [(H_SITE[k], f"{letter}{k}") for k in range(N_TABLE)]
    )


def bond_sum(letter):
    return PauliSum.from_label_terms(
        N_TABLE,
        [(J_BOND[k], f"{letter}{k} {letter}{k+1}") for k in range(N_TABLE - 1)],
    )


def y_gen(i):
    return PauliSum.from_label_terms(N_TABLE, [(1.0, f"Y{i}")])


def zy_gen(i):
    return PauliSum.from_label_terms(N_TABLE, [(1.0, f"Z{i} Y{i+1}")])


def terms_sum(terms):
    return PauliSum.from_label_terms(N_TABLE, terms)


def _magnetic_entries(i):
    """The 12 magnetic-field entries at pool index i (with boundary deltas)."""
    h = H_SITE
    delta = []  # (hamiltonian, operation, expected)
    hx, hy, hz = site_sum("X"), site_sum("Y"), site_sum("Z")
    delta.append((hx, "comm_y", terms_sum([(-2j * h[i], f"Z{i}")])))
    delta.append((hx, "conj_y", hx + terms_sum([(-2.0 * h[i], f"X{i}")])))
    delta.append(
        (
            hx,
            "comm_zy",
            terms_sum(
                [(2j * h[i], f"Y{i} Y{i+1}"), (-2j * h[i + 1], f"Z{i} Z{i+1}")]
            ),
        )
    )
    delta.append(
        (
            hx,
            "conj_zy",
            hx
            + terms_sum([(-2.0 * h[i], f"X{i}"), (-2.0 * h[i + 1], f"X{i+1}")]),
        )
    )
    delta.append((hy, "comm_y", PauliSum.zero(N_TABLE)))
    delta.append((hy, "conj_y", hy))
    delta.append((hy, "comm_zy", terms_sum([(-2j * h[i], f"X{i} Y{i+1}")])))
    delta.append((hy, "conj_zy", hy + terms_sum([(-2.0 * h[i], f"Y{i}")])))
    delta.append((hz, "comm_y", terms_sum([(2j * h[i], f"X{i}")])))
    delta.append((hz, "conj_y", hz + terms_sum([(-2.0 * h[i], f"Z{i}")])))
    delta.append((hz, "comm_zy", terms_sum([(2j * h[i + 1], f"Z{i} X{i+1}")])))
    delta.append((hz, "conj_zy", hz + terms_sum([(-2.0 * h[i + 1], f"Z{i+1}")])))
    return delta


def _coupling_entries(i):
    """The 12 coupling entries at pool index i (with boundary deltas)."""
    J = J_BOND
    n = N_TABLE
    jx, jy, jz = bond_sum("X"), bond_sum("Y"), bond_sum("Z")
    delta = []
    t = [(-2j * J[i], f"Z{i} X{i+1}")]
    if i > 0:
        t.append((-2j * J[i - 1], f"X{i-1} Z{i}"))
    delta.append((jx, "comm_y", terms_sum(t)))
    t = [(-2.0 * J[i], f"X{i} X{i+1}")]
    if i > 0:
        t.append((-2.0 * J[i - 1], f"X{i-1} X{i}"))
    delta.append((jx, "conj_y", jx + terms_sum(t)))
    t = []
    if i > 0:
        t.append((2j * J[i - 1], f"X{i-1} Y{i} Y{i+1}"))
    if i + 1 < n - 1:
        t.append((-2j * J[i + 1], f"Z{i} Z{i+1} X{i+2}"))
    delta.append((jx, "comm_zy", terms_sum(t)))
    t = []
    if i > 0:
        t.append((-2.0 * J[i - 1], f"X{i-1} X{i}"))
    if i + 1 < n - 1:
        t.append((-2.0 * J[i + 1], f"X{i+1} X{i+2}"))
    delta.append((jx, "conj_zy", jx + terms_sum(t)))

    delta.append((jy, "comm_y", PauliSum.zero(n)))
    delta.append((jy, "conj_y", jy))
    t = [(-2j * J[i], f"X{i}")]
    if i > 0:
        t.append((-2j * J[i - 1], f"Y{i-1} X{i} Y{i+1}"))
    delta.append((jy, "comm_zy", terms_sum(t)))
    t = [(-2.0 * J[i], f"Y{i} Y{i+1}")]
    if i > 0:
        t.append((-2.0 * J[i - 1], f"Y{i-1} Y{i}"))
    delta.append((jy, "conj_zy", jy + terms_sum(t)))

    t = [(2j * J[i], f"X{i} Z{i+1}")]
    if i > 0:
        t.append((2j * J[i - 1], f"Z{i-1} X{i}"))
    delta.append((jz, "comm_y", terms_sum(t)))
    t = [(-2.0 * J[i], f"Z{i} Z{i+1}")]
    if i > 0:
        t.append((-2.0 * J[i - 1], f"Z{i-1} Z{i}"))
    delta.append((jz, "conj_y", jz + terms_sum(t)))
    t = [(2j * J[i], f"X{i+1}")]
    if i + 1 < n - 1:
        t.append((2j * J[i + 1], f"Z{i} X{i+1} Z{i+2}"))
    delta.append((jz, "comm_zy", terms_sum(t)))
    t = [(-2.0 * J[i], f"Z{i} Z{i+1}")]
    if i + 1 < n - 1:
        t.append((-2.0 * J[i + 1], f"Z{i+1} Z{i+2}"))
    delta.append((jz, "conj_zy", jz + terms_sum(t)))
    return delta


def _apply_operation(ham, op, i):
    if op == "comm_y":
        return commutator(y_gen(i), ham)
    if op == "conj_y":
        return conjugate_by(ham, y_gen(i))
    if op == "comm_zy":
        return commutator(zy_gen(i), ham)
    return conjugate_by(ham, zy_gen(i))


class TestMinimalPoolTables:
    @pytest.mark.parametrize("i", [0, 2, N_TABLE - 2])
    def test_magnetic_field_entries(self, i):
        for ham, op, expected in _magnetic_entries(i):
            result = _apply_operation(ham, op, i)
            assert result == expected, f"{op} on {ham!r} at i={i}"

    @pytest.mark.parametrize("i", [0, 2, N_TABLE - 2])
    def test_coupling_entries(self, i):
        for ham, op, expected in _coupling_entries(i):
            result = _apply_operation(ham, op, i)
            assert result == expected, f"{op} on {ham!r} at i={i}"

    @pytest.mark.parametrize("i", [0, 2, N_TABLE - 2])
    def test_entries_against_dense_oracle(self, i):
        for ham, op, expected in _magnetic_entries(i) + _coupling_entries(i):
            dense_expected = dense_sum(expected)
            hd = dense_sum(ham)
            if op == "comm_y":
                bd = dense_string(N_TABLE, [(i, "Y")])
                dense_result = bd @ hd - hd @ bd
            elif op == "conj_y":
                bd = dense_string(N_TABLE, [(i, "Y")])
                dense_result = bd @ hd @ bd
            elif op == "comm_zy":
                bd = dense_string(N_TABLE, [(i, "Z"), (i + 1, "Y")])
                dense_result = bd @ hd - hd @ bd
            else:
                bd = dense_string(N_TABLE, [(i, "Z"), (i + 1, "Y")])
                dense_result = bd @ hd @ bd
            assert np.allclose(dense_expected, dense_result, atol=1e-12)


class TestPauliSumBasics:
    def test_simplify_merges_and_drops(self):
        n = 2
        x0 = ps(n, "X0")
        h = PauliSum(n, [(x0, 0.5), (x0, 0.5), (ps(n, "Z0"), 1e-16)])
        assert h.terms() == [(x0, 1.0 + 0j)]

    def test_simplify_is_order_independent(self):
        rng = np.random.default_rng(23)
        terms = [(random_pauli_string(3, rng), complex(rng.normal(), rng.normal()))
                 for _ in range(12)]
        forward = PauliSum(3, terms)
        backward = PauliSum(3, list(reversed(terms)))
        assert forward == backward
        assert [p.label() for p, _ in forward] == [p.label() for p, _ in backward]

    def test_canonical_order_is_z_then_x_mask(self):
        h = PauliSum.from_label_terms(2, [(1.0, "X0"), (2.0, "Z0"), (3.0, "Y0")])
        keys = [p.sort_key() for p, _ in h]
        assert keys == sorted(keys)

    def test_hermiticity_detection(self):
        assert PauliSum.from_label_terms(2, [(0.5, "X0"), (0.2, "Z0 Z1")]).is_hermitian()
        assert not PauliSum.from_label_terms(2, [(0.5j, "X0")]).is_hermitian()

    @pytest.mark.parametrize("coeff", [complex(float("nan"), 0.0), complex(0.5, float("nan"))])
    def test_nan_coefficient_rejected(self, coeff):
        # abs(nan) >= tol is false, so the drop rule would lose the term.
        with pytest.raises(ValueError, match="not a number"):
            PauliSum(2, [(ps(2, "X0"), 1.0), (ps(2, "Z1"), coeff)])
        with pytest.raises(ValueError, match="not a number"):
            PauliSum(2, [(ps(2, "Z1"), coeff)], drop_tolerance=0.0)

    def test_mixed_size_terms_rejected(self):
        with pytest.raises(ValueError):
            PauliSum(2, [(ps(3, "X0"), 1.0)])

    def test_equality_on_masks_only(self):
        assert ps(3, "X0 Z2") == PauliString(3, x=0b001, z=0b100)


class TestTextFormat:
    def test_example_file_round_trip(self):
        text = "# transverse field pair\n0.5 X0\n0.2 Z0 Z1\n"
        h = loads(text)
        assert h == PauliSum.from_label_terms(2, [(0.5, "X0"), (0.2, "Z0 Z1")])
        assert loads(dumps(h)) == h

    def test_identity_and_complex_terms(self):
        h = PauliSum.from_label_terms(
            2, [(1.5, "I"), (0.25, "Y0 Y1"), (-0.125 + 0.5j, "X0 Z1")]
        )
        assert loads(dumps(h)) == h

    def test_random_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            h = random_pauli_sum(n, int(rng.integers(1, 8)), rng, hermitian=False)
            assert loads(dumps(h), n_qubits=n) == h

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            loads("0.5 X0\noops\n")

    def test_malformed_token(self):
        with pytest.raises(ValueError, match="line 1"):
            loads("0.5 Q3\n")

    @pytest.mark.parametrize(
        "text, line",
        [("nan X0 Z1\n1.0 Z0", 1), ("inf X0\n1.0 Z0", 1), ("1.0 Z0\n0.5 -inf X1", 2)],
    )
    def test_non_finite_coefficient_rejected(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}: coefficient is not finite"):
            loads(text)
