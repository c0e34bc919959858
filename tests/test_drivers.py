"""Adaptive driver tests: selection, convergence, accounting, determinism."""

import gc
import tracemalloc

import numpy as np
import pytest

from ggavqe import (
    Ansatz,
    ExpectationBackend,
    InitialState,
    IsingSpec,
    PauliSum,
    StopRule,
    adapt_vqe,
    build_ising,
    exact_ground_state,
    expectation,
    fidelity,
    gga_vqe,
    gga_vqe_2d,
    minimal_hardware_efficient_pool,
    overlap_gga_vqe,
    pairwise_single_pool,
    qeb_pool,
    replay,
)
from ggavqe import Pool, apply_exp_generator, drivers, inner_product, measurement, simulator
from ggavqe import landscape as ls
from ggavqe.hamiltonians import hartree_fock_occupations
from ggavqe.measurement import greedy_qubitwise_plan
from ggavqe.pools import custom_pool
from ggavqe.simulator import (
    INVOLUTORY, Generator, InvariantError, to_dense_matrix, uniform_minus_state,
)

from oracles import (
    dense_expm_hermitian,
    dense_sum,
    overlap_exact,
    random_pauli_sum,
    random_state,
)


def exact_backend():
    return ExpectationBackend("exact")


def circuits_per_iteration(trace):
    deltas, prev = [], 0
    for rec in trace.iterations:
        deltas.append(rec.accounting["circuits"] - prev)
        prev = rec.accounting["circuits"]
    return deltas


class TestGgaVqe:
    def test_ising_n4_reaches_high_fidelity(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), exact_backend(),
            StopRule(max_operators=2 * n - 2),
        )
        assert len(trace.ansatz.steps) <= 2 * n - 2
        _, ground = exact_ground_state(h)
        assert fidelity(replay(trace.ansatz, pool.by_id()), ground) >= 0.98

    def test_already_ground_stops_immediately(self):
        h = PauliSum.from_label_terms(1, [(-1.0, "Z0")])
        pool = custom_pool(1, [("Y0", PauliSum.from_label_terms(1, [(1.0, "Y0")]), 1.0)])
        trace = gga_vqe(
            h, pool, InitialState("basis", occupations="0"), exact_backend(),
            StopRule(max_operators=5),
        )
        assert len(trace.iterations) == 0
        assert trace.status == "pool_exhausted"
        assert trace.extras["stopping_screening"][0]["drop"] == pytest.approx(0.0, abs=1e-12)

    def test_single_flip_lands_exactly(self):
        h = PauliSum.from_label_terms(1, [(1.0, "Z0")])
        pool = custom_pool(1, [("Y0", PauliSum.from_label_terms(1, [(1.0, "Y0")]), 1.0)])
        trace = gga_vqe(
            h, pool, InitialState("basis", occupations="0"), exact_backend(),
            StopRule(max_operators=5),
        )
        assert len(trace.iterations) == 1
        assert abs(trace.iterations[0].angles[0]) == pytest.approx(np.pi / 2, abs=1e-12)
        assert trace.exact_objective == pytest.approx(-1.0, abs=1e-12)

    def test_energy_monotone_non_increasing(self):
        rng = np.random.default_rng(301)
        for _ in range(3):
            n = 3
            h = random_pauli_sum(n, 6, rng)
            pool = minimal_hardware_efficient_pool(n)
            trace = gga_vqe(
                h, pool, InitialState("uniform-minus"), exact_backend(),
                StopRule(max_operators=6),
            )
            series = trace.energies()
            assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    def test_selection_is_brute_force_optimal(self):
        # The chosen generator must achieve the pool's lowest scanned minimum.
        rng = np.random.default_rng(303)
        n = 4
        h = random_pauli_sum(n, 6, rng)
        pool = minimal_hardware_efficient_pool(n)
        state = InitialState("uniform-minus")
        trace = gga_vqe(h, pool, state, exact_backend(), StopRule(max_operators=1))
        vec = state.prepare(n).amplitudes
        hd = dense_sum(h)
        thetas = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
        best_scanned = []
        for gen in pool:
            bd = gen.angle_scale * dense_sum(gen.body)
            values = [
                float(np.real(np.vdot(u @ vec, hd @ (u @ vec))))
                for u in (dense_expm_hermitian(bd, -1j * t) for t in thetas)
            ]
            best_scanned.append(min(values))
        chosen = trace.iterations[0].selected_ids[0]
        assert best_scanned[chosen] <= min(best_scanned) + 1e-9

    def test_replay_reproduces_recorded_energy(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), exact_backend(),
            StopRule(max_operators=4),
        )
        replayed = expectation(replay(trace.ansatz, pool.by_id()), h)
        assert replayed == pytest.approx(trace.exact_objective, abs=1e-10)
        assert replayed == pytest.approx(trace.iterations[-1].predicted_value, abs=1e-10)

    def test_trace_json_deterministic(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        texts = []
        for _ in range(2):
            backend = ExpectationBackend("sampled", shots=500, seed=77)
            trace = gga_vqe(
                h, pool, InitialState("uniform-minus"), backend,
                StopRule(max_operators=4), use_plan=True,
            )
            texts.append(trace.to_json())
        assert texts[0] == texts[1]

    def test_min_energy_decrease_stop(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), exact_backend(),
            StopRule(max_operators=50, min_energy_decrease=0.05),
        )
        assert trace.status == "converged"
        assert len(trace.iterations) < 50


class TestAccountingInvariants:
    def test_involutory_pool_2m_plus_1(self):
        # Single-group Hamiltonian so each evaluation is one circuit.
        h = PauliSum.from_label_terms(3, [(0.7, "Z0 Z1"), (0.3, "Z1 Z2")])
        pool = minimal_hardware_efficient_pool(3)
        backend = ExpectationBackend("sampled", shots=64, seed=1)
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), backend, StopRule(max_operators=3)
        )
        m = len(pool)
        assert circuits_per_iteration(trace) == [2 * m + 1] * len(trace.iterations)

    def test_tripotent_pool_4m_plus_1(self):
        h = PauliSum.from_label_terms(
            4, [(0.5, "Z0 Z1"), (0.25, "Z2 Z3"), (0.125, "Z1 Z2")]
        )
        pool = qeb_pool(4)
        backend = ExpectationBackend("sampled", shots=64, seed=2)
        trace = gga_vqe(
            h, pool, InitialState("basis", occupations="1100"), backend,
            StopRule(max_operators=2),
        )
        m = len(pool)
        assert len(trace.iterations) >= 1
        assert circuits_per_iteration(trace) == [4 * m + 1] * len(trace.iterations)

    def test_ising_plan_exactly_five(self):
        n = 8
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        backend = ExpectationBackend("sampled", shots=2500, seed=3)
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), backend,
            StopRule(max_operators=5), use_plan=True,
        )
        assert circuits_per_iteration(trace) == [5] * len(trace.iterations)

    def test_2d_screening_within_9m(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        backend = ExpectationBackend("sampled", shots=64, seed=4)
        trace = gga_vqe_2d(
            h, pool, InitialState("uniform-minus"), backend, StopRule(max_operators=4)
        )
        # 2M+1 screening evaluations and 8 pair samples, g groups each.
        m, g = len(pool), len(greedy_qubitwise_plan(h).groups)
        assert circuits_per_iteration(trace) == [(2 * m + 9) * g] * len(trace.iterations)


class TestAdaptVqe:
    def test_single_generator_pool_matches_gga(self):
        # One involutory generator with a non-vanishing gradient: both
        # drivers must land on the same angle and energy after one step.
        h = PauliSum.from_label_terms(1, [(0.8, "Z0"), (0.6, "X0")])
        pool = custom_pool(1, [("Y0", PauliSum.from_label_terms(1, [(1.0, "Y0")]), 1.0)])
        stop = StopRule(max_operators=1)
        init = InitialState("basis", occupations="0")
        a = adapt_vqe(h, pool, init, exact_backend(), stop)
        g = gga_vqe(h, pool, init, exact_backend(), stop)
        assert a.iterations[0].selected_ids == g.iterations[0].selected_ids
        assert a.exact_objective == pytest.approx(g.exact_objective, abs=1e-10)

    def test_gradient_heuristic_can_mislead(self):
        # Frozen instance (found by scripted search over random 3-qubit
        # Hamiltonians): the gradient criterion picks Y1 (|dL/dt|=1 at 0)
        # even though Z1 Y2 reaches a far lower minimum with zero gradient.
        h = PauliSum.from_label_terms(
            3,
            [(1.3, "X0 X1"), (0.5, "Z0 X1"), (1.2, "Z2"), (1.0, "Z1 Z2")],
        )
        pool = custom_pool(
            3,
            [
                ("Y1", PauliSum.from_label_terms(3, [(1.0, "Y1")]), 1.0),
                ("Z1 Y2", PauliSum.from_label_terms(3, [(1.0, "Z1 Y2")]), 1.0),
            ],
        )
        init = InitialState("basis", occupations="100")
        stop = StopRule(max_operators=1)
        adapt_trace = adapt_vqe(h, pool, init, exact_backend(), stop)
        gga_trace = gga_vqe(h, pool, init, exact_backend(), stop)
        assert adapt_trace.iterations[0].selected_labels == ["Y1"]
        assert gga_trace.iterations[0].selected_labels == ["Z1 Y2"]
        assert gga_trace.exact_objective <= adapt_trace.exact_objective + 1e-10

    def test_ising_adapt_comparable_to_gga(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        stop = StopRule(max_operators=2 * n - 2)
        adapt_trace = adapt_vqe(
            h, pool, InitialState("uniform-minus"), exact_backend(), stop
        )
        gga_trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), exact_backend(), stop
        )
        assert adapt_trace.exact_objective <= gga_trace.exact_objective + 1e-6

    def test_gradient_epsilon_stop(self):
        n = 3
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        trace = adapt_vqe(
            h, pool, InitialState("uniform-minus"), exact_backend(),
            StopRule(max_operators=40, gradient_epsilon=1e-6),
        )
        assert trace.status == "gradient_below_epsilon"
        grads = [s["gradient"] for s in trace.extras["stopping_screening"]]
        assert max(grads) < 1e-6

    def test_sweeps_do_not_raise_energy(self):
        rng = np.random.default_rng(311)
        h = random_pauli_sum(3, 6, rng)
        pool = minimal_hardware_efficient_pool(3)
        trace = adapt_vqe(
            h, pool, InitialState("uniform-minus"), exact_backend(),
            StopRule(max_operators=4),
        )
        series = [rec.predicted_value for rec in trace.iterations]
        assert all(a >= b - 1e-9 for a, b in zip(series, series[1:]))


class TestMolecularEndToEnd:
    def _toy_hamiltonian(self):
        # Two low and two high spin-orbitals with weak hybridization,
        # density-density repulsion that pins the global ground state in the
        # two-electron sector, and a pair-hopping term.
        from ggavqe import FermionIntegrals, map_molecular_hamiltonian

        one = {(0, 0): -2.0, (1, 1): -2.0, (2, 2): -0.8, (3, 3): -0.8,
               (0, 2): -0.15, (2, 0): -0.15, (1, 3): -0.15, (3, 1): -0.15}
        repulsion, pair_hop = 1.0, 0.35
        two = {}
        for p in range(4):
            for q in range(4):
                if p != q:
                    two[(p, q, q, p)] = repulsion / 2.0
        for key in ((0, 1, 3, 2), (2, 3, 1, 0), (1, 0, 2, 3), (3, 2, 0, 1)):
            two[key] = two.get(key, 0.0) + pair_hop
        return map_molecular_hamiltonian(FermionIntegrals(4, 2, one, two))

    def test_qeb_from_hartree_fock_reaches_ground_state(self):
        h = self._toy_hamiltonian()
        hf = InitialState("basis", occupations=hartree_fock_occupations(2, 4))
        e_hf = expectation(hf.prepare(4), h)
        e0, ground = exact_ground_state(h)
        pool = qeb_pool(4)
        trace = gga_vqe(
            h, pool, hf, exact_backend(), StopRule(max_operators=8)
        )
        assert trace.exact_objective < e_hf - 0.2
        assert trace.exact_objective == pytest.approx(e0, abs=2e-4)
        assert fidelity(replay(trace.ansatz, pool.by_id()), ground) >= 0.999

    def test_particle_number_preserved(self):
        # QEB generators conserve occupation: the run stays in the
        # two-electron sector of the register.
        h = self._toy_hamiltonian()
        hf = InitialState("basis", occupations=hartree_fock_occupations(2, 4))
        pool = qeb_pool(4)
        trace = gga_vqe(h, pool, hf, exact_backend(), StopRule(max_operators=6))
        state = replay(trace.ansatz, pool.by_id())
        weights = np.abs(state.amplitudes) ** 2
        electron_count = np.array([bin(i).count("1") for i in range(16)])
        assert weights[electron_count != 2].sum() < 1e-20


class TestGeneralChainPlanPath:
    def test_plan_screening_matches_planless_on_exact_backend(self):
        from ggavqe import GeneralSpinChainSpec, build_general_chain

        rng = np.random.default_rng(521)
        n = 5
        spec = GeneralSpinChainSpec(
            n,
            tuple(rng.normal(size=n)), tuple(rng.normal(size=n)),
            tuple(rng.normal(size=n - 1)), tuple(rng.normal(size=n - 1)),
            tuple(rng.normal(size=n - 1)),
        )
        h = build_general_chain(spec)
        pool = minimal_hardware_efficient_pool(n)
        init = InitialState("uniform-minus")
        stop = StopRule(max_operators=4)
        planned = gga_vqe(h, pool, init, exact_backend(), stop, use_plan=True)
        planless = gga_vqe(h, pool, init, exact_backend(), stop)
        assert [r.selected_ids for r in planned.iterations] == [
            r.selected_ids for r in planless.iterations
        ]
        assert planned.exact_objective == pytest.approx(
            planless.exact_objective, abs=1e-10
        )
        deltas, prev = [], 0
        for rec in planned.iterations:
            deltas.append(rec.accounting["circuits"] - prev)
            prev = rec.accounting["circuits"]
        assert deltas == [9] * len(planned.iterations)


class TestIncrementalScreening:
    """Exact planned screening after a frozen append reads again only the
    plan members that fail to commute with the appended body; every other
    path reads every member, and every planned screen charges the plan's
    group count."""

    N = 6

    def ising(self):
        return build_ising(IsingSpec(self.N, 0.5, 0.2)), minimal_hardware_efficient_pool(self.N)

    @staticmethod
    def spy_reads(monkeypatch):
        """``(plan, members)`` of every ``_exact_string_values`` call."""
        calls = []
        original = measurement._exact_string_values

        def spy(state, plan, members=None):
            calls.append((plan, None if members is None else list(members)))
            return original(state, plan, members)

        monkeypatch.setattr(measurement, "_exact_string_values", spy)
        return calls

    @staticmethod
    def spy_measure(monkeypatch):
        """The keyword arguments of every ``measure_strings`` call."""
        calls = []
        original = ExpectationBackend.measure_strings

        def spy(self, state, plan, **kwargs):
            calls.append(kwargs)
            return original(self, state, plan, **kwargs)

        monkeypatch.setattr(ExpectationBackend, "measure_strings", spy)
        return calls

    def test_gga_rereads_only_the_members_that_fail_to_commute(self, monkeypatch):
        h, pool = self.ising()
        calls = self.spy_reads(monkeypatch)
        trace = gga_vqe(h, pool, InitialState("uniform-minus"), exact_backend(),
                        StopRule(max_operators=3), use_plan=True)
        plan = calls[0][0]
        screens = [members for p, members in calls if p is plan]
        assert len(screens) == 3 and screens[0] is None
        strings = [to_dense_matrix(PauliSum(self.N, [(ps, 1.0)])) for ps in plan.index]
        for rec, members in zip(trace.iterations, screens[1:]):
            body = to_dense_matrix(pool[rec.selected_ids[0]].body)
            assert members == [
                i for i, m in enumerate(strings) if not np.allclose(m @ body, body @ m)
            ]
            assert 0 < len(members) < len(strings)
        assert circuits_per_iteration(trace) == [len(plan.groups)] * 3

    def test_adapt_reads_every_member(self, monkeypatch):
        h, pool = self.ising()
        calls = self.spy_reads(monkeypatch)
        adapt_vqe(h, pool, InitialState("uniform-minus"), exact_backend(),
                  StopRule(max_operators=3), use_plan=True)
        plan = calls[0][0]
        assert sum(p is plan for p, _ in calls) > 3
        assert all(members is None for p, members in calls if p is plan)

    def test_sampled_screens_measure_every_group(self, monkeypatch):
        h, pool = self.ising()
        calls = self.spy_measure(monkeypatch)
        trace = gga_vqe(h, pool, InitialState("uniform-minus"),
                        ExpectationBackend("sampled", shots=200, seed=3),
                        StopRule(max_operators=3), use_plan=True)
        assert len(calls) == 3
        assert all("previous" not in kwargs for kwargs in calls)
        assert circuits_per_iteration(trace) == [5] * 3  # the Ising plan's groups

    def test_measure_strings_refuses_reuse_when_sampled(self):
        h, _ = self.ising()
        plan = greedy_qubitwise_plan(h)
        state = uniform_minus_state(self.N)
        previous, stale = np.zeros(len(plan.index)), np.array([0])
        backend = ExpectationBackend("sampled", shots=100, seed=1)
        with pytest.raises(ValueError, match="sampled mode"):
            backend.measure_strings(state, plan, context=(1,), previous=previous, stale=stale)
        with pytest.raises(ValueError, match="both previous and stale"):
            exact_backend().measure_strings(state, plan, previous=previous)
        assert backend.accounting.circuits == 0


HF_PAIRS = [(4, 0), (8, 0), (5, 1), (9, 1), (5, 0), (7, 0), (7, 1)]


def hf_overlap_setup(theta_t=0.813):
    n = 10
    pool = pairwise_single_pool(n, HF_PAIRS)
    hf = InitialState("basis", occupations=hartree_fock_occupations(8, 10))
    target_id = HF_PAIRS.index((5, 0))
    target = Ansatz(n, hf, ((target_id, theta_t),))
    return pool, hf, target, target_id


class TestOptimumPerScreening:
    """The drivers look the landscape optimiser up when they call it, so a
    wrapped ``landscape.minimize`` (``maximize`` for overlap) sees one call
    per screened generator."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(ls, name)

        def counted(model):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(ls, name, counted)
        return calls

    @staticmethod
    def screenings(trace):
        return len(trace.iterations) + ("stopping_screening" in trace.extras)

    @pytest.mark.parametrize("use_plan", [False, True])
    def test_energy_minimize_once_per_generator(self, monkeypatch, use_plan):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        calls = self.count_calls(monkeypatch, "minimize")
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), exact_backend(),
            StopRule(max_operators=3), use_plan=use_plan,
        )
        assert self.screenings(trace) == 3
        assert len(calls) == len(pool) * self.screenings(trace)

    def test_overlap_maximize_once_per_generator(self, monkeypatch):
        pool, hf, target, _ = hf_overlap_setup()
        calls = self.count_calls(monkeypatch, "maximize")
        trace = overlap_gga_vqe(
            target, pool, hf, "compute_uncompute", exact_backend(),
            StopRule(max_operators=5),
        )
        assert self.screenings(trace) == 2  # one step, then the stopping screen
        assert len(calls) == len(pool) * self.screenings(trace)


class TestOverlapGgaVqe:
    def test_target_equal_initial_stops_at_zero_iterations(self):
        pool, hf, _, _ = hf_overlap_setup()
        trace = overlap_gga_vqe(
            Ansatz(10, hf), pool, hf, "compute_uncompute", exact_backend(),
            StopRule(max_operators=5),
        )
        assert len(trace.iterations) == 0
        assert trace.status == "converged"
        assert trace.exact_objective == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ["compute_uncompute", "swap_test"])
    def test_hf_toy_converges_in_one_iteration(self, method):
        pool, hf, target, target_id = hf_overlap_setup()
        trace = overlap_gga_vqe(
            target, pool, hf, method, exact_backend(), StopRule(max_operators=5)
        )
        assert len(trace.iterations) == 1
        assert trace.iterations[0].selected_ids == [target_id]
        assert trace.exact_objective >= 0.99
        # The screening table singles out the (5, 0) pair.
        gains = {s["id"]: s["gain"] for s in trace.iterations[0].screening}
        assert gains[target_id] > 0.1
        assert all(g <= 1e-10 for gid, g in gains.items() if gid != target_id)
        # Iteration-2 screening: nothing can improve the overlap further.
        stopping = trace.extras["stopping_screening"]
        assert all(s["gain"] < 1e-4 for s in stopping)

    def test_methods_agree_exactly_in_exact_mode(self):
        pool, hf, target, _ = hf_overlap_setup()
        finals = []
        for method in ("compute_uncompute", "swap_test"):
            trace = overlap_gga_vqe(
                target, pool, hf, method, exact_backend(), StopRule(max_operators=5)
            )
            finals.append((trace.iterations[0].angles[0], trace.exact_objective))
        for angle, fid in finals[1:]:
            assert angle == pytest.approx(finals[0][0], abs=1e-12)
            assert fid == pytest.approx(finals[0][1], abs=1e-12)

    @pytest.mark.parametrize("method", ["compute_uncompute", "swap_test"])
    def test_sampled_mode_still_finds_the_pair(self, method):
        pool, hf, target, target_id = hf_overlap_setup()
        backend = ExpectationBackend("sampled", shots=2500, seed=21)
        trace = overlap_gga_vqe(
            target, pool, hf, method, backend, StopRule(max_operators=5)
        )
        assert trace.iterations[0].selected_ids == [target_id]
        assert trace.exact_objective >= 0.99

    def test_overlap_non_decreasing_and_recovers_pool_target(self):
        n = 4
        pool = minimal_hardware_efficient_pool(n)
        init = InitialState("uniform-minus")
        target = Ansatz(n, init, ((1, 0.7), (5, -1.1), (2, 0.4)))
        trace = overlap_gga_vqe(
            target, pool, init, "compute_uncompute", exact_backend(), StopRule(max_operators=8)
        )
        series = [rec.e0 for rec in trace.iterations]
        series += [trace.iterations[-1].predicted_value]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
        assert trace.exact_objective == pytest.approx(1.0, abs=1e-9)

    def test_fractional_scale_generators_screen_correctly(self):
        # Regression: screening extends the ansatz by raw angles up to
        # node/scale (2*pi for scale 1/8); those must replay verbatim, not
        # wrapped back into [-pi, pi), or the landscape samples collapse.
        from ggavqe import qubit_hardware_efficient_pool

        n = 4
        full = qubit_hardware_efficient_pool(n)
        doubles = [g for g in full if g.angle_scale == 0.125][:4]
        pool = custom_pool(
            n, [(g.label, g.body, g.angle_scale) for g in doubles]
        )
        init = InitialState("basis", occupations="1100")
        target = Ansatz(n, init, ((2, 0.6),))
        trace = overlap_gga_vqe(
            target, pool, init, "compute_uncompute", exact_backend(),
            StopRule(max_operators=4),
        )
        # All gains collapse to zero if the 2*pi sampling angle gets wrapped;
        # reaching the target in one step is the regression signal.
        assert len(trace.iterations) == 1
        assert trace.exact_objective == pytest.approx(1.0, abs=1e-9)
        gens = pool.by_id()
        sampled = overlap_exact(
            target, Ansatz(n, init, ((2, 2.0 * np.pi),)), gens
        )
        direct = abs(
            inner_product(
                replay(target, gens),
                apply_exp_generator(init.prepare(n), gens[2], 2.0 * np.pi),
            )
        ) ** 2
        assert sampled == pytest.approx(direct, abs=1e-12)

    def test_overlap_accepts_state_vector_target(self):
        n = 3
        pool = minimal_hardware_efficient_pool(n)
        init = InitialState("uniform-minus")
        gens = pool.by_id()
        target_state = replay(Ansatz(n, init, ((0, 0.9),)), gens)
        trace = overlap_gga_vqe(
            target_state, pool, init, "compute_uncompute", exact_backend(),
            StopRule(max_operators=4),
        )
        assert trace.exact_objective == pytest.approx(1.0, abs=1e-9)

    def test_overlap_rejects_a_state_vector_target_of_another_size(self):
        pool = minimal_hardware_efficient_pool(3)
        with pytest.raises(ValueError):
            overlap_gga_vqe(
                uniform_minus_state(4), pool, InitialState("uniform-minus"),
                "compute_uncompute", exact_backend(), StopRule(max_operators=1),
            )

    def test_stop_before_first_append_reports_exact_objective(self):
        pool, hf, target, _ = hf_overlap_setup()
        for stop, gain in ((StopRule(max_operators=0), 1e-4), (StopRule(max_operators=5), 2.0)):
            trace = overlap_gga_vqe(
                target, pool, hf, "compute_uncompute", exact_backend(), stop, min_overlap_gain=gain
            )
            assert trace.iterations == []
            assert trace.final_objective == trace.exact_objective
            assert trace.exact_objective == pytest.approx(
                abs(inner_product(replay(target, pool.by_id()), hf.prepare(10))) ** 2
            )

    def test_gradient_epsilon_stop(self):
        pool, hf, target, _ = hf_overlap_setup()
        trace = overlap_gga_vqe(
            target, pool, hf, "compute_uncompute", exact_backend(),
            StopRule(max_operators=5, gradient_epsilon=10.0),
        )
        assert trace.status == "gradient_below_epsilon"
        assert trace.iterations == []

    def test_rejects_min_energy_decrease(self):
        pool, hf, target, _ = hf_overlap_setup()
        with pytest.raises(ValueError, match="min_overlap_gain"):
            overlap_gga_vqe(
                target, pool, hf, "compute_uncompute", exact_backend(),
                StopRule(max_operators=5, min_energy_decrease=0.01),
            )


class TestOverlapFromStringValues:
    """Overlap screening reads F and the node norms from string values: no
    Pauli-sum application, no generator image, no node state, and the norm
    check still runs on every node."""

    def test_misclassified_body_raises_during_screening(self):
        n = 3
        body = qeb_pool(n)[0].body  # tripotent, declared involutory
        pool = Pool("custom", n, (Generator(0, "single", body, INVOLUTORY),))
        target = Ansatz(n, InitialState("basis", occupations="100"))
        objective = drivers._OverlapObjective(target, pool, exact_backend(), "compute_uncompute")
        with pytest.raises(InvariantError, match="misclassified"):
            objective.screen(uniform_minus_state(n), 1)

    @pytest.mark.parametrize("make_pool, per_generator", [
        (minimal_hardware_efficient_pool, 1), (qeb_pool, 2),
    ], ids=["involutory", "tripotent"])
    def test_screening_applies_no_pauli_sum(self, monkeypatch, make_pool, per_generator):
        n = 4
        pool = make_pool(n)
        init = InitialState("basis", occupations="1100")
        target = Ansatz(n, init, ((1, 0.7), (len(pool) - 1, -0.4), (2, 0.3)))
        counts = {"apply_pauli_sum": 0, "apply_exp_generator": 0, "generator_images": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in counts:
            counted(simulator, name)
        monkeypatch.setattr(drivers, "apply_exp_generator", simulator.apply_exp_generator)
        trace = overlap_gga_vqe(
            target, pool, init, "compute_uncompute", exact_backend(),
            StopRule(max_operators=2), min_overlap_gain=0.0,
        )
        screenings = len(trace.iterations) + ("stopping_screening" in trace.extras)
        assert screenings == 2
        # Exponentials only replay the target and append the chosen steps,
        # and every Pauli-sum application is one of theirs.
        exponentials = len(target.steps) + len(trace.ansatz.steps)
        assert counts["apply_exp_generator"] == counts["generator_images"] == exponentials
        assert counts["apply_pauli_sum"] == per_generator * exponentials

    # Peak traced memory of one screen of the minimal pool at 16 qubits,
    # over the state's own size: 1.65 (real) and 1.00 (complex) here, 2.28
    # and 2.27 with one image per generator.
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_one_screen_at_16_qubits_stays_within_two_states(self, real):
        n = 16
        rng = np.random.default_rng(5)
        vectors = [random_state(n, rng) for _ in range(2)]
        if real:
            vectors = [v.real / np.linalg.norm(v.real) for v in vectors]
        target, state = (simulator.StateVector(v) for v in vectors)
        pool = minimal_hardware_efficient_pool(n)
        objective = drivers._OverlapObjective(target, pool, exact_backend(), "compute_uncompute")
        objective.screen(state, 1)  # warm the caches
        gc.collect()
        tracemalloc.start()
        try:
            objective.screen(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * state.amplitudes.nbytes, peak


def overlap_adapt_oracle(target, pool, initial, max_ops, sweeps=30):
    """Gradient-criterion overlap maximizer with full reoptimization.

    Exact-backend oracle for cross-checking the greedy frozen-core driver:
    selects by |dF/dtheta at 0| and reoptimizes every angle by coordinate
    sweeps after each append.
    """
    from ggavqe.landscape import maximize as ls_maximize
    from ggavqe.landscape import reconstruct_from_samples

    gens = pool.by_id()
    ansatz = Ansatz(pool.n_qubits, initial)

    def fid(a):
        return overlap_exact(target, a, gens)

    for _ in range(max_ops):
        f0 = fid(ansatz)
        best = None
        for gen in pool:
            def sample(node, _tag, gen=gen):
                return fid(ansatz.extended(gen.gid, node / gen.angle_scale))

            model = reconstruct_from_samples(gen, sample, f0)
            grad = abs(model.derivative_at_zero)
            if best is None or grad > best[0] + 1e-12:
                best = (grad, gen.gid)
        if best[0] < 1e-7:
            break
        ansatz = ansatz.extended(best[1], 0.0)
        current = fid(ansatz)
        for _ in range(sweeps):
            for k in range(len(ansatz.steps)):
                gen = gens[ansatz.steps[k][0]]

                def sample(node, _tag, k=k, gen=gen):
                    return fid(ansatz.with_angle(k, node / gen.angle_scale))

                model = reconstruct_from_samples(gen, sample, sample(0.0, 0))
                theta, _ = ls_maximize(model)
                ansatz = ansatz.with_angle(k, theta)
            new = fid(ansatz)
            if new - current < 1e-12:
                break
            current = new
    return ansatz, fid(ansatz)


class TestOverlapAdaptOracle:
    def test_oracle_matches_greedy_on_hf_toy(self):
        pool, hf, target, target_id = hf_overlap_setup()
        ansatz, fid = overlap_adapt_oracle(target, pool, hf, max_ops=3)
        assert [gid for gid, _ in ansatz.steps[:1]] == [target_id]
        assert fid == pytest.approx(1.0, abs=1e-9)
        trace = overlap_gga_vqe(
            target, pool, hf, "compute_uncompute", exact_backend(), StopRule(max_operators=3)
        )
        assert trace.exact_objective == pytest.approx(fid, abs=1e-9)

    def test_oracle_and_greedy_both_recover_pool_target(self):
        n = 4
        pool = minimal_hardware_efficient_pool(n)
        init = InitialState("uniform-minus")
        target = Ansatz(n, init, ((1, 0.7), (5, -1.1), (2, 0.4)))
        _, oracle_fid = overlap_adapt_oracle(target, pool, init, max_ops=6)
        trace = overlap_gga_vqe(
            target, pool, init, "compute_uncompute", exact_backend(), StopRule(max_operators=6)
        )
        assert oracle_fid == pytest.approx(1.0, abs=1e-9)
        assert trace.exact_objective == pytest.approx(1.0, abs=1e-9)


class TestGgaVqe2D:
    def test_disjoint_commuting_pair_matches_sequential(self):
        h = PauliSum.from_label_terms(2, [(1.0, "Z0"), (1.0, "Z1")])
        pool = custom_pool(
            2,
            [
                ("Y0", PauliSum.from_label_terms(2, [(1.0, "Y0")]), 1.0),
                ("Y1", PauliSum.from_label_terms(2, [(1.0, "Y1")]), 1.0),
            ],
        )
        init = InitialState("basis", occupations="00")
        trace2 = gga_vqe_2d(h, pool, init, exact_backend(), StopRule(max_operators=2))
        trace1 = gga_vqe(h, pool, init, exact_backend(), StopRule(max_operators=2))
        assert trace2.iterations[0].predicted_value == pytest.approx(
            trace1.iterations[-1].predicted_value, abs=1e-10
        )
        assert trace2.exact_objective == pytest.approx(-2.0, abs=1e-10)

    def test_pair_ranks_optima_within_the_tie_tolerance_by_id(self, monkeypatch):
        # Three equal landscapes whose optima differ only by rounding-sized
        # amounts, lower for higher ids: the pair is the two lowest ids, as
        # the single-generator selection would pick, not the last bits.
        h = PauliSum.from_label_terms(3, [(1.0, "Z0"), (1.0, "Z1"), (1.0, "Z2")])
        pool = custom_pool(3, [
            (f"Y{q}", PauliSum.from_label_terms(3, [(1.0, f"Y{q}")]), 1.0) for q in range(3)
        ])
        minimize, calls = ls.minimize, []

        def shifted(model):
            theta, value = minimize(model)
            calls.append(None)
            return theta, value - 1e-14 * ((len(calls) - 1) % 3)

        monkeypatch.setattr(ls, "minimize", shifted)
        trace = gga_vqe_2d(h, pool, InitialState("basis", occupations="000"),
                           exact_backend(), StopRule(max_operators=2))
        assert trace.iterations[0].selected_ids == [0, 1]

    def test_ising_pairwise_at_least_as_good_as_sequential(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        init = InitialState("uniform-minus")
        trace2 = gga_vqe_2d(h, pool, init, exact_backend(), StopRule(max_operators=6))
        trace1 = gga_vqe(h, pool, init, exact_backend(), StopRule(max_operators=6))
        seq = [r.predicted_value for r in trace1.iterations]
        for k, rec in enumerate(trace2.iterations):
            ops_done = 2 * (k + 1)
            if ops_done - 1 < len(seq):
                assert rec.predicted_value <= seq[ops_done - 1] + 1e-10

    def test_requires_involutory_pool(self):
        h = PauliSum.from_label_terms(4, [(1.0, "Z0 Z1")])
        with pytest.raises(ValueError, match="involutory"):
            gga_vqe_2d(
                h, qeb_pool(4), InitialState("basis", occupations="1100"),
                exact_backend(), StopRule(max_operators=2),
            )

    def test_pool_of_two_required(self):
        h = PauliSum.from_label_terms(2, [(1.0, "Z0")])
        pool = custom_pool(2, [("Y0", PauliSum.from_label_terms(2, [(1.0, "Y0")]), 1.0)])
        with pytest.raises(ValueError, match="at least 2"):
            gga_vqe_2d(
                h, pool, InitialState("basis", occupations="00"),
                exact_backend(), StopRule(max_operators=2),
            )

    def test_gradient_epsilon_stop(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        trace = gga_vqe_2d(
            h, minimal_hardware_efficient_pool(n), InitialState("uniform-minus"),
            exact_backend(), StopRule(max_operators=4, gradient_epsilon=10.0),
        )
        assert trace.status == "gradient_below_epsilon"
        assert trace.iterations == []

    def test_odd_max_operators_rejected(self):
        n = 4
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        with pytest.raises(ValueError, match="even"):
            gga_vqe_2d(
                h, minimal_hardware_efficient_pool(n), InitialState("uniform-minus"),
                exact_backend(), StopRule(max_operators=3),
            )


class TestStopRule:
    def test_needs_a_criterion(self):
        with pytest.raises(ValueError):
            StopRule()

    def test_max_operators_zero_runs_nothing(self):
        h = PauliSum.from_label_terms(1, [(1.0, "Z0")])
        pool = custom_pool(1, [("Y0", PauliSum.from_label_terms(1, [(1.0, "Y0")]), 1.0)])
        trace = gga_vqe(
            h, pool, InitialState("basis", occupations="0"), exact_backend(),
            StopRule(max_operators=0),
        )
        assert len(trace.iterations) == 0
        assert trace.status == "max_operators"
