"""Operator pool construction and algebraic-class tests."""

import numpy as np
import pytest

from ggavqe import (
    PauliString,
    PauliSum,
    minimal_hardware_efficient_pool,
    pairwise_single_pool,
    qeb_pool,
    qubit_hardware_efficient_pool,
)
from ggavqe.pauli import identity_sum
from ggavqe.pools import _verify_classes, classify_body, custom_pool, load_custom_pool
from ggavqe.simulator import (
    INVOLUTORY,
    TRIPOTENT,
    Generator,
    InvariantError,
)

from oracles import dense_sum


class TestQebPool:
    def test_double_excitation_expansion(self):
        pool = qeb_pool(4)
        gen = next(g for g in pool if g.label == "A(0,1,2,3)")
        # Eight words with coefficients +-1/8 on (r,s,p,q) = (2,3,0,1).
        words = [
            ((2, "X"), (3, "Y"), (0, "X"), (1, "X"), +0.125),
            ((2, "Y"), (3, "X"), (0, "X"), (1, "X"), +0.125),
            ((2, "Y"), (3, "Y"), (0, "Y"), (1, "X"), +0.125),
            ((2, "Y"), (3, "Y"), (0, "X"), (1, "Y"), +0.125),
            ((2, "X"), (3, "X"), (0, "Y"), (1, "X"), -0.125),
            ((2, "X"), (3, "X"), (0, "X"), (1, "Y"), -0.125),
            ((2, "Y"), (3, "X"), (0, "Y"), (1, "Y"), -0.125),
            ((2, "X"), (3, "Y"), (0, "Y"), (1, "Y"), -0.125),
        ]
        expected = PauliSum(
            4,
            [
                (PauliString.from_ops(4, [w[0], w[1], w[2], w[3]]), w[4])
                for w in words
            ],
        )
        assert gen.body == expected

    def test_single_is_tripotent_symbolically(self):
        pool = qeb_pool(3)
        for gen in pool:
            assert gen.kind == TRIPOTENT
            cubed = (gen.body @ gen.body) @ gen.body
            assert cubed == gen.body

    def test_enumeration_count_n4(self):
        pool = qeb_pool(4)
        singles = [g for g in pool if g.label.count(",") == 1]
        doubles = [g for g in pool if g.label.count(",") == 3]
        assert len(singles) == 6 and len(doubles) == 3
        assert len(pool) == 9

    def test_doubles_annihilate_other_basis_states(self):
        pool = qeb_pool(4)
        gen = next(g for g in pool if g.label == "A(0,1,2,3)")
        mat = dense_sum(gen.body)
        live = {0b0011, 0b1100}  # |1100> and |0011> in occupation order
        for idx in range(16):
            column = mat[:, idx]
            if idx in live:
                assert np.linalg.norm(column) == pytest.approx(1.0)
            else:
                assert np.linalg.norm(column) == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_enumeration(self):
        a = qeb_pool(5)
        b = qeb_pool(5)
        assert [g.label for g in a] == [g.label for g in b]
        assert [g.gid for g in a] == list(range(len(a)))


class TestQubitHardwareEfficientPool:
    def test_single_body_is_bare_string(self):
        pool = qubit_hardware_efficient_pool(2)
        assert [g.label for g in pool] == ["X1 Y0", "X0 Y1"]
        for gen in pool:
            assert gen.angle_scale == 0.5
            assert len(gen.body) == 1

    def test_every_generator_squares_to_identity(self):
        pool = qubit_hardware_efficient_pool(4)
        for gen in pool:
            assert gen.kind == INVOLUTORY
            assert gen.body @ gen.body == identity_sum(4)

    def test_double_representatives_deduplicated(self):
        pool = qubit_hardware_efficient_pool(4)
        doubles = [g for g in pool if g.angle_scale == 0.125]
        # Three pinned representatives per disjoint pair tuple, with exact
        # repeats across tuples dropped: 9 enumerated, 6 distinct at n=4.
        assert len(doubles) == 6
        assert len(pool) == 12 + 6
        labels = [g.label for g in doubles]
        assert len(set(labels)) == len(labels)


class TestMinimalPool:
    def test_count_25_qubits(self):
        assert len(minimal_hardware_efficient_pool(25)) == 48

    def test_two_qubits(self):
        pool = minimal_hardware_efficient_pool(2)
        assert [g.label for g in pool] == ["Y0", "Z0 Y1"]

    def test_order_and_classes(self):
        pool = minimal_hardware_efficient_pool(5)
        assert [g.label for g in pool] == [
            "Y0", "Y1", "Y2", "Y3",
            "Z0 Y1", "Z1 Y2", "Z2 Y3", "Z3 Y4",
        ]
        for gen in pool:
            assert gen.kind == INVOLUTORY
            assert gen.angle_scale == 1.0


class TestClassification:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_class_check(self, n):
        pools = [minimal_hardware_efficient_pool(n), qubit_hardware_efficient_pool(n)]
        if n >= 2:
            pools.append(qeb_pool(n))
        eye = np.eye(2**n)
        for pool in pools:
            for gen in pool:
                mat = dense_sum(gen.body)
                if gen.kind == INVOLUTORY:
                    assert np.max(np.abs(mat @ mat - eye)) < 1e-12
                else:
                    assert np.max(np.abs(mat @ mat @ mat - mat)) < 1e-12

    def test_unclassifiable_body_rejected(self):
        body = PauliSum.from_label_terms(2, [(0.3, "X0"), (0.7, "Z1")])
        with pytest.raises(ValueError):
            classify_body(body)

    def test_misclassified_generator_raises_invariant_error(self):
        body = qeb_pool(3)[0].body
        with pytest.raises(InvariantError, match="misclassified"):
            _verify_classes([Generator(0, "single", body, INVOLUTORY)])

    def test_custom_pool_classifies(self):
        body = PauliSum.from_label_terms(2, [(1.0, "X0 X1")])
        pool = custom_pool(2, [("XX", body, 0.5)])
        assert pool[0].kind == INVOLUTORY


class TestPairwisePool:
    def test_bodies_and_scale(self):
        pool = pairwise_single_pool(10, [(4, 0), (5, 0)])
        assert len(pool) == 2
        assert pool[0].body == PauliSum.from_label_terms(10, [(1.0, "X0 X4")])
        assert pool[0].angle_scale == 0.5


class TestCustomPoolFile:
    def test_load(self, tmp_path):
        path = tmp_path / "pool.txt"
        path.write_text(
            "[swap-like]\nscale 0.5\n1.0 X0 Y1\n\n[pair]\n0.5 X1 Y0\n-0.5 Y1 X0\n"
        )
        pool = load_custom_pool(path, 2)
        assert [g.label for g in pool] == ["swap-like", "pair"]
        assert pool[0].angle_scale == 0.5
        assert pool[0].kind == INVOLUTORY
        assert pool[1].kind == TRIPOTENT

    def test_describe_lists_every_generator(self):
        pool = minimal_hardware_efficient_pool(3)
        text = pool.describe()
        assert "Y0" in text and "Z1 Y2" in text and "involutory" in text
