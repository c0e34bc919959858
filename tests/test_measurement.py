"""Backend, measurement-plan, and overlap-estimator tests."""

import gc
import importlib.util
import os
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from ggavqe import (
    Ansatz,
    ExpectationBackend,
    GeneralSpinChainSpec,
    InitialState,
    IsingSpec,
    PauliString,
    PauliSum,
    build_general_chain,
    build_ising,
    expectation,
    inner_product,
    map_molecular_hamiltonian,
    minimal_hardware_efficient_pool,
    overlap_compute_uncompute,
    overlap_swap_test,
    qubitwise_commutes,
    replay,
    screening_plan,
)
from ggavqe import measurement
from ggavqe.config import load_run_config
from ggavqe.hamiltonians import load_integrals
from ggavqe.landscape import coefficient_observables
from ggavqe.measurement import MeasurementGroup, MeasurementPlan, greedy_qubitwise_plan
from ggavqe.simulator import (
    StateVector,
    basis_state,
    fidelity,
    uniform_minus_state,
)

from oracles import compute_uncompute_p0, overlap_exact, random_pauli_sum, random_state

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def needed_screening_strings(h, pool):
    need = set()
    for ps in h.strings():
        if not ps.is_identity():
            need.add(ps)
    for gen in pool:
        for op in coefficient_observables(h, gen).values():
            need.update(ps for ps in op.strings() if not ps.is_identity())
    return need


def pool_plan(h, pool):
    """The screening plan of a whole pool, as the energy drivers build it."""
    return screening_plan(
        h.n_qubits, [op for gen in pool for op in coefficient_observables(h, gen).values()]
    )


def ising_plan(n):
    return pool_plan(build_ising(IsingSpec(n, 0.5, 0.2)), minimal_hardware_efficient_pool(n))


def random_chain(n, rng):
    return build_general_chain(GeneralSpinChainSpec(
        n,
        tuple(rng.normal(size=n)),
        tuple(rng.normal(size=n)),
        tuple(rng.normal(size=n - 1)),
        tuple(rng.normal(size=n - 1)),
        tuple(rng.normal(size=n - 1)),
    ))


def assert_pairwise_qubitwise_commute(plan):
    for group in plan.groups:
        for i, a in enumerate(group.members):
            for b in group.members[i + 1:]:
                assert qubitwise_commutes(a, b)


class TestIsingPlan:
    @pytest.mark.parametrize("n", range(3, 25))
    def test_exactly_five_groups(self, n):
        assert len(ising_plan(n).groups) == 5

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_covers_screening_observables_exactly(self, n):
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        assert ising_plan(n).strings() == needed_screening_strings(h, pool)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_groups_pairwise_qubitwise_commute(self, n):
        plan = ising_plan(n)
        plan.validate()
        assert_pairwise_qubitwise_commute(plan)

    def test_minimum_size(self):
        # ``use_plan = auto`` plans chains of three or more qubits only.
        cfg = os.path.join(REPO, "configs", "ising_n6.cfg")
        assert load_run_config(cfg, ["problem.n_qubits=3"]).use_plan
        assert not load_run_config(cfg, ["problem.n_qubits=2"]).use_plan


class TestGeneralChainPlan:
    @pytest.mark.parametrize("n", range(3, 25))
    def test_at_most_ten_groups_and_exact_coverage(self, n):
        h = random_chain(n, np.random.default_rng(n))
        pool = minimal_hardware_efficient_pool(n)
        plan = pool_plan(h, pool)
        assert len(plan.groups) <= (8 if n == 3 else 9)
        assert plan.strings() == needed_screening_strings(h, pool)
        plan.validate()

    def test_pure_transverse_field_degenerates(self):
        zeros = (0.0,) * 5
        h = build_general_chain(GeneralSpinChainSpec(6, (0.7,) * 6, (0.0,) * 6, zeros, zeros, zeros))
        pool = minimal_hardware_efficient_pool(6)
        plan = pool_plan(h, pool)
        assert len(plan.groups) <= 3
        assert plan.strings() == needed_screening_strings(h, pool)

    def test_pairwise_commutation(self):
        assert_pairwise_qubitwise_commute(
            pool_plan(random_chain(7, np.random.default_rng(7)), minimal_hardware_efficient_pool(7))
        )


class TestValidate:
    @pytest.mark.parametrize("label", ["Y0", "X0", "X2", "Z0 Z1", "Z0 Y1"])
    def test_rejects_a_member_that_disagrees_with_its_word(self, label):
        word = PauliString.from_label(3, "Z0 X1")
        member = PauliString.from_label(3, label)
        plan = MeasurementPlan(3, (MeasurementGroup(word, (member,)),))
        with pytest.raises(ValueError, match="incompatible with group basis"):
            plan.validate()

    def test_rejects_a_string_listed_in_two_groups(self):
        z0 = PauliString.from_label(2, "Z0")
        plan = MeasurementPlan(2, (
            MeasurementGroup(z0, (z0,)),
            MeasurementGroup(PauliString.from_label(2, "Z0 X1"), (z0,)),
        ))
        with pytest.raises(ValueError, match="appears in two groups"):
            plan.validate()


class TestGreedyPlan:
    def test_is_the_screening_plan_of_the_observable(self):
        # One grouping rule: an observable's own plan is its screening plan,
        # group for group, words and members in order.
        rng = np.random.default_rng(157)
        sums = [build_ising(IsingSpec(6, 0.5, 0.2)), random_chain(5, rng)]
        sums += [random_pauli_sum(n, 12, rng) for n in (1, 2, 4, 7)]
        for h in sums:
            assert greedy_qubitwise_plan(h).groups == screening_plan(h.n_qubits, [h]).groups

    def test_benchmark_molecule_auto_groups(self, tmp_path, monkeypatch):
        # The unplanned sampled price of the benchmark's QEB molecule: 35
        # groups per expectation, so 35 * (4 * 60 + 1) = 8435 circuits.
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", os.path.join(REPO, "perfbench", "workloads.py")
        )
        wl = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, wl)
        spec.loader.exec_module(wl)
        for seed in (1, 2):
            path = tmp_path / f"integrals-{seed}.txt"
            path.write_text(wl.molecule_integrals_text(seed))
            h = map_molecular_hamiltonian(load_integrals(path))
            assert len(greedy_qubitwise_plan(h).groups) == 35


class TestMeasureExpectation:
    def test_exact_z_on_one(self):
        backend = ExpectationBackend("exact")
        h = PauliSum.from_label_terms(1, [(1.0, "Z0")])
        assert backend.expectation(basis_state(1, 1), h) == pytest.approx(-1.0)

    def test_grouped_exact_matches_ungrouped(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            h = random_pauli_sum(n, 8, rng)
            state = StateVector(random_state(n, rng))
            plan = greedy_qubitwise_plan(h)
            backend = ExpectationBackend("exact")
            grouped = backend.expectation(state, h, plan=plan)
            assert grouped == pytest.approx(expectation(state, h), abs=1e-12)

    def test_ising_plan_exact_matches_ungrouped(self):
        n = 6
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        state = StateVector(random_state(n, np.random.default_rng(13)))
        backend = ExpectationBackend("exact")
        plan = ising_plan(n)
        assert backend.expectation(state, h, plan=plan) == pytest.approx(
            expectation(state, h), abs=1e-12
        )

    def test_sampled_eigenstate_has_zero_variance(self):
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        h = PauliSum.from_label_terms(1, [(1.0, "X0")])
        backend = ExpectationBackend("sampled", shots=10**6, seed=5)
        assert backend.expectation(plus, h, context=(1,)) == pytest.approx(1.0)

    def test_sampled_zero_mean_within_three_sigma(self):
        h = PauliSum.from_label_terms(1, [(1.0, "X0")])
        backend = ExpectationBackend("sampled", shots=10**6, seed=7)
        value = backend.expectation(basis_state(1, 0), h, context=(2,))
        assert abs(value) < 0.003

    def test_sampled_deterministic_given_seed(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        state = StateVector(random_state(n, np.random.default_rng(17)))
        values = []
        for _ in range(2):
            backend = ExpectationBackend("sampled", shots=2500, seed=123)
            values.append(backend.expectation(state, h, context=(3, 4)))
        assert values[0] == values[1]

    def test_sampled_estimator_unbiased(self):
        rng = np.random.default_rng(223)
        n = 4
        h = random_pauli_sum(n, 5, rng)
        state = StateVector(random_state(n, rng))
        exact = expectation(state, h)
        shots = 600
        estimates = []
        for seed in range(200):
            backend = ExpectationBackend("sampled", shots=shots, seed=seed)
            estimates.append(backend.expectation(state, h, context=(5,)))
        estimates = np.array(estimates)
        # Crude per-sample sigma bound: sum of |coeff| over non-identity terms.
        sigma_bound = sum(abs(c) for p, c in h if not p.is_identity()) / np.sqrt(shots)
        assert abs(estimates.mean() - exact) < 3.0 * sigma_bound / np.sqrt(200)

    def test_sampled_call_without_context_raises(self):
        h = PauliSum.from_label_terms(1, [(1.0, "X0")])
        backend = ExpectationBackend("sampled", shots=100, seed=1)
        with pytest.raises(ValueError, match="context"):
            backend.expectation(basis_state(1, 0), h)
        with pytest.raises(ValueError, match="context"):
            backend.estimate_probability(0.5)
        assert backend.accounting.circuits == 0

    def test_plan_coverage_gap_raises(self):
        h = PauliSum.from_label_terms(2, [(1.0, "X0 X1")])
        plan = greedy_qubitwise_plan(PauliSum.from_label_terms(2, [(1.0, "Z0")]))
        backend = ExpectationBackend("exact")
        with pytest.raises(ValueError, match="cover"):
            backend.expectation(basis_state(2, 0), h, plan=plan)

    def test_auto_plan_coverage_checked_once(self, monkeypatch):
        checks = []
        linear_map = MeasurementPlan.linear_map
        monkeypatch.setattr(
            MeasurementPlan, "linear_map",
            lambda plan, ops: checks.append(ops) or linear_map(plan, ops),
        )
        h = build_ising(IsingSpec(4, 0.5, 0.2))
        state = StateVector(random_state(4, np.random.default_rng(29)))
        backend = ExpectationBackend("sampled", shots=100, seed=1)
        for ctx in range(3):
            backend.expectation(state, h, context=(ctx,))
        assert len(checks) == 1
        # A caller's plan is checked on every call.
        plan = greedy_qubitwise_plan(h)
        for ctx in range(2):
            backend.expectation(state, h, plan=plan, context=(ctx,))
        assert len(checks) == 3

    def test_negative_seed_rejected(self):
        for mode in ("exact", "sampled"):
            with pytest.raises(ValueError, match="seed"):
                ExpectationBackend(mode, seed=-1)

    def test_sampled_measurement_peak_memory(self):
        # Peak of one sampled measure_strings at n = 16 over the Ising
        # screening plan (5 groups), in state vectors of 16 * 2^n bytes, by
        # tracemalloc: 4.63 rotating gate by gate into fresh states, 13.0
        # with all five groups stacked at once, 2.7 in bounded blocks.
        n = 16
        plan = ising_plan(n)
        state = StateVector(random_state(n, np.random.default_rng(31)))
        backend = ExpectationBackend("sampled", shots=2000, seed=3)
        backend.measure_strings(state, plan, context=(1,))  # warm the caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backend.measure_strings(state, plan, context=(1,))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(plan.groups) == 5
        assert peak <= 5 * (16 << n), peak / (16 << n)

    def test_exact_measurement_peak_memory(self):
        # Peak of one exact measure_strings at n = 16 over the Ising
        # screening plan, in state vectors, by tracemalloc: 1.15 with one
        # complex product per X mask, 0.90 with real half-products in two
        # buffers reused for every mask.
        n = 16
        plan = ising_plan(n)
        state = StateVector(random_state(n, np.random.default_rng(31)))
        backend = ExpectationBackend("exact")
        backend.measure_strings(state, plan)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backend.measure_strings(state, plan)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16 << n, peak / (16 << n)

    def test_exact_value_peak_memory(self):
        # Peak of one exact <H> of the n = 16 Ising chain, in state vectors,
        # by tracemalloc: 2.25 building H|psi> for simulator.expectation,
        # 0.89 from string values on half the state.
        n = 16
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        state = StateVector(random_state(n, np.random.default_rng(31)))
        backend = ExpectationBackend("exact")
        backend.exact_value(state, h)  # warm the plan cache
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backend.exact_value(state, h)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16 << n, peak / (16 << n)

    def test_exact_measurement_peak_memory_on_a_real_state(self):
        # As above on float64 amplitudes, in complex state vectors: 0.895.
        # The two scratch buffers keep their size; the complex parts go.
        n = 16
        plan = ising_plan(n)
        state = StateVector(random_state(n, np.random.default_rng(31)).real)
        backend = ExpectationBackend("exact")
        assert peak_bytes(lambda: backend.measure_strings(state, plan)) <= 0.9 * (16 << n)

    def test_exact_value_peak_memory_on_a_real_state(self):
        # As above on float64 amplitudes, in complex state vectors: 0.885.
        n = 16
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        state = StateVector(random_state(n, np.random.default_rng(31)).real)
        backend = ExpectationBackend("exact")
        assert peak_bytes(lambda: backend.exact_value(state, h)) <= 0.9 * (16 << n)


def peak_bytes(call) -> int:
    """Peak traced allocation of ``call()``, run once first to warm caches."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestAccounting:
    def test_monotone_and_counts_groups(self):
        n = 6
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        plan = ising_plan(n)
        state = StateVector(random_state(n, np.random.default_rng(19)))
        backend = ExpectationBackend("sampled", shots=100, seed=2)
        backend.measure_strings(state, plan, context=(1,))
        assert backend.accounting.circuits == 5
        assert backend.accounting.shots == 500
        backend.measure_strings(state, plan, context=(2,))
        assert backend.accounting.circuits == 10

    def test_exact_plan_reads_strings_without_rotations(self, monkeypatch):
        def no_rotation(*args):
            raise AssertionError("exact measurement rotated the state")

        monkeypatch.setattr(measurement, "rotate_to_bases", no_rotation)
        n = 6
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        plan = ising_plan(n)
        state = StateVector(random_state(n, np.random.default_rng(23)))
        backend = ExpectationBackend("exact")
        backend.measure_strings(state, plan)
        assert backend.accounting.circuits == len(plan.groups)
        assert backend.accounting.shots == 0
        assert backend.expectation(state, h, plan=plan) == pytest.approx(
            expectation(state, h), abs=1e-12
        )
        assert backend.accounting.circuits == 2 * len(plan.groups)
        assert backend.accounting.shots == 0

    def test_unplanned_exact_counts_one(self):
        # One circuit and no shots per unplanned exact expectation; the
        # uncharged exact_value gives the same bits in either mode.
        rng = np.random.default_rng(43)
        h = random_pauli_sum(4, 6, rng)
        state = StateVector(random_state(4, rng))
        backend = ExpectationBackend("exact")
        value = backend.expectation(state, h)
        assert asdict(backend.accounting) == {"circuits": 1, "shots": 0, "clamp_warnings": 0}
        assert backend.expectation(state, h) == value
        assert asdict(backend.accounting) == {"circuits": 2, "shots": 0, "clamp_warnings": 0}
        for mode in ("exact", "sampled"):
            other = ExpectationBackend(mode, shots=100)
            assert other.exact_value(state, h) == value
            assert asdict(other.accounting) == {"circuits": 0, "shots": 0, "clamp_warnings": 0}

    def test_exact_value_rejects_a_non_hermitian_sum_or_another_register(self):
        rng = np.random.default_rng(47)
        state = StateVector(random_state(3, rng))
        backend = ExpectationBackend("exact")
        with pytest.raises(ValueError, match="hermitian"):
            backend.exact_value(state, PauliSum.from_label_terms(3, [(1j, "Z0")]))
        with pytest.raises(ValueError, match="hermitian"):
            backend.expectation(state, PauliSum.from_label_terms(3, [(1j, "Z0")]))
        with pytest.raises(ValueError, match="size mismatch"):
            backend.exact_value(state, PauliSum.from_label_terms(4, [(1.0, "Z3")]))

    def test_auto_plans_are_shared_by_equal_sums_only(self):
        backend = ExpectationBackend("exact")
        terms = [(1.0, "Z0"), (0.5, "X1 X2"), (-0.25, "Y0 Y2")]
        plan = backend._auto_plan(PauliSum.from_label_terms(3, terms))[0]
        reordered = PauliSum.from_label_terms(3, terms[::-1])
        assert backend._auto_plan(reordered)[0] is plan
        others = (
            PauliSum.from_label_terms(3, [(1.0, "Z0"), (0.5, "X1 X2"), (-0.5, "Y0 Y2")]),
            PauliSum.from_label_terms(4, terms),
        )
        for other in others:
            assert backend._auto_plan(other)[0] is not plan

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_plans_for_another_register_are_rejected(self, mode):
        backend = ExpectationBackend(mode, shots=100, seed=3)
        for plan_qubits, n in ((3, 4), (5, 3)):
            h = PauliSum.from_label_terms(plan_qubits, [(1.0, "Z0"), (0.5, "X1 X2")])
            plan = greedy_qubitwise_plan(h)
            state = uniform_minus_state(n)
            with pytest.raises(ValueError, match="size mismatch"):
                backend.measure_strings(state, plan, context=(1,))
            with pytest.raises(ValueError, match="size mismatch"):
                backend.expectation(state, h, plan=plan, context=(1,))
            if mode == "sampled":
                with pytest.raises(ValueError, match="size mismatch"):
                    backend.expectation(state, h, context=(1,))
        assert backend.accounting.circuits == 0


class TestOverlapEstimators:
    def _random_pair(self, n, rng, steps=3):
        pool = minimal_hardware_efficient_pool(n)
        gens = pool.by_id()

        def rand_ansatz():
            steps_list = tuple(
                (int(rng.integers(len(pool))), float(rng.uniform(-np.pi, np.pi)))
                for _ in range(steps)
            )
            return Ansatz(n, InitialState("uniform-minus"), steps_list)

        return pool, gens, rand_ansatz(), rand_ansatz()

    def test_identical_ansatz_unity(self):
        rng = np.random.default_rng(29)
        pool, gens, a, _ = self._random_pair(3, rng)
        backend = ExpectationBackend("exact")
        f = fidelity(replay(a, gens), replay(a, gens))
        same = overlap_compute_uncompute(backend, f)
        assert same == pytest.approx(1.0)
        assert overlap_swap_test(backend, f) == pytest.approx(1.0)

    def test_orthogonal_preparations(self):
        n = 2
        gens = minimal_hardware_efficient_pool(n).by_id()
        a = Ansatz(n, InitialState("basis", occupations="10"))
        b = Ansatz(n, InitialState("basis", occupations="01"))
        backend = ExpectationBackend("exact")
        f = fidelity(replay(a, gens), replay(b, gens))
        orthogonal = overlap_compute_uncompute(backend, f)
        assert orthogonal == pytest.approx(0.0)
        assert overlap_swap_test(backend, f) == pytest.approx(0.0)

    def test_matches_inner_product_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            pool, gens, a, b = self._random_pair(n, rng)
            expected = abs(inner_product(replay(a, gens), replay(b, gens))) ** 2
            backend = ExpectationBackend("exact")
            cu = overlap_compute_uncompute(backend, fidelity(replay(a, gens), replay(b, gens)))
            sw = overlap_swap_test(backend, fidelity(replay(a, gens), replay(b, gens)))
            assert cu == pytest.approx(expected, abs=1e-12)
            assert sw == pytest.approx(expected, abs=1e-12)
            assert overlap_exact(a, b, gens) == pytest.approx(expected, abs=1e-12)

    def test_swap_test_probability_relation(self):
        rng = np.random.default_rng(37)
        n = 3
        pool, gens, a, b = self._random_pair(n, rng)
        fid = overlap_exact(a, b, gens)
        # p(0) = (1 + F)/2 pins F = 2 p(0) - 1, the value the estimator returns.
        backend = ExpectationBackend("exact")
        f = fidelity(replay(a, gens), replay(b, gens))
        assert overlap_swap_test(backend, f) == pytest.approx(
            2.0 * ((1.0 + fid) / 2.0) - 1.0, abs=1e-12
        )

    def test_sampled_within_binomial_three_sigma(self):
        rng = np.random.default_rng(41)
        n = 3
        pool, gens, a, b = self._random_pair(n, rng)
        fid = overlap_exact(a, b, gens)
        shots = 4000
        backend = ExpectationBackend("sampled", shots=shots, seed=11)
        f = fidelity(replay(a, gens), replay(b, gens))
        cu = overlap_compute_uncompute(backend, f, context=(1,))
        sigma = np.sqrt(fid * (1 - fid) / shots)
        assert abs(cu - fid) < 3.5 * sigma + 1e-9
        sw = overlap_swap_test(backend, f, context=(2,))
        p0 = (1 + fid) / 2
        sigma_sw = 2.0 * np.sqrt(p0 * (1 - p0) / shots)
        assert abs(sw - fid) < 3.5 * sigma_sw + 1e-9

    def test_sampled_swap_clamps_and_warns(self):
        n = 2
        gens = minimal_hardware_efficient_pool(n).by_id()
        a = Ansatz(n, InitialState("basis", occupations="10"))
        b = Ansatz(n, InitialState("basis", occupations="01"))
        backend = ExpectationBackend("sampled", shots=51, seed=3)
        values = [
            overlap_swap_test(backend, fidelity(replay(a, gens), replay(b, gens)), context=(k,))
            for k in range(40)
        ]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert backend.accounting.clamp_warnings > 0

    def test_swap_test_on_thirteen_qubits(self):
        # Its (2n+1)-qubit register would be 27 qubits; the estimator needs
        # only the fidelity.
        rng = np.random.default_rng(47)
        a, b = (StateVector(random_state(13, rng)) for _ in range(2))
        backend = ExpectationBackend("exact")
        f = fidelity(a, b)
        assert overlap_swap_test(backend, f) == pytest.approx(f, abs=1e-12)
        assert backend.accounting.circuits == 1

    def test_compute_uncompute_with_custom_initial(self):
        n = 3
        gens = minimal_hardware_efficient_pool(n).by_id()
        rng = np.random.default_rng(43)
        vec = random_state(n, rng)
        target = Ansatz(n, InitialState("custom", vector=vec))
        b = Ansatz(n, InitialState("uniform-minus"), ((0, 0.3),))
        backend = ExpectationBackend("exact")
        expected = abs(inner_product(StateVector(vec), replay(b, gens))) ** 2
        assert overlap_compute_uncompute(
            backend, fidelity(replay(target, gens), replay(b, gens))
        ) == pytest.approx(expected, abs=1e-12)
        assert compute_uncompute_p0(target, replay(b, gens), gens) == pytest.approx(
            expected, abs=1e-12
        )
