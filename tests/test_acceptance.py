"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances and runtime budgets are pinned in the assertions.
"""

import json
import time

import numpy as np
import pytest

from ggavqe import (
    Ansatz,
    ExpectationBackend,
    GeneralSpinChainSpec,
    InitialState,
    IsingSpec,
    PauliSum,
    StopRule,
    build_general_chain,
    build_ising,
    exact_ground_state,
    expectation,
    fidelity,
    gga_vqe,
    gga_vqe_2d,
    inner_product,
    minimal_hardware_efficient_pool,
    overlap_compute_uncompute,
    overlap_gga_vqe,
    overlap_swap_test,
    pairwise_single_pool,
    qeb_pool,
    qubit_hardware_efficient_pool,
    qubitwise_commutes,
    reconstruct,
    reconstruct_2d,
    replay,
    screening_plan,
)
from ggavqe.hamiltonians import hartree_fock_occupations
from ggavqe.landscape import coefficient_observables
from ggavqe.measurement import greedy_qubitwise_plan
from ggavqe.pauli import identity_sum
from ggavqe.simulator import INVOLUTORY, TRIPOTENT, StateVector, occupation_basis_state

from oracles import coefficient_observables as oracle_observables
from oracles import (
    compute_uncompute_p0,
    dense_sum,
    landscape_scan,
    overlap_exact,
    random_pauli_sum,
    random_state,
    swap_test_p0,
)
from test_pauli import (
    N_TABLE,
    _apply_operation,
    _coupling_entries,
    _magnetic_entries,
)


def report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.1f}s)")


def all_pools(n):
    pools = [minimal_hardware_efficient_pool(n), qubit_hardware_efficient_pool(n)]
    pools.append(qeb_pool(n))
    return pools


def test_criterion_01_landscape_theorem_equivalence():
    """Reconstructed landscapes match direct conjugated expectations."""
    started = time.time()
    rng = np.random.default_rng(10_001)
    backend = ExpectationBackend("exact")
    thetas = np.linspace(-np.pi, np.pi, 128, endpoint=False)
    worst = 0.0
    sizes = [2, 3, 4, 5, 6] * 4  # 20 instances
    for n in sizes:
        h = random_pauli_sum(n, 2 * n + 2, rng)
        hd = dense_sum(h)
        vec = random_state(n, rng)
        state = StateVector(vec)
        for pool in all_pools(n):
            for gen in pool:
                model = reconstruct(backend, h, gen, state)
                direct = landscape_scan(
                    hd, gen.angle_scale * dense_sum(gen.body), vec, thetas
                )
                worst = max(worst, float(np.max(np.abs(model.evaluate(thetas) - direct))))
    assert worst < 1e-9, f"max landscape error {worst:g}"
    report(1, "landscape theorem equivalence", started, 60.0)


def test_criterion_02_algebraic_classes():
    """B^2 = I and B^3 = B proved symbolically and on dense matrices."""
    started = time.time()
    for n in (2, 3, 4):
        eye = np.eye(2**n)
        for pool in (minimal_hardware_efficient_pool(n), qubit_hardware_efficient_pool(n)):
            for gen in pool:
                assert gen.kind == INVOLUTORY
                assert gen.body @ gen.body == identity_sum(n)
                mat = dense_sum(gen.body)
                assert np.max(np.abs(mat @ mat - eye)) < 1e-12
        for gen in qeb_pool(n):
            assert gen.kind == TRIPOTENT
            assert (gen.body @ gen.body) @ gen.body == gen.body
            mat = dense_sum(gen.body)
            assert np.max(np.abs(mat @ mat @ mat - mat)) < 1e-12
    # Invariant-subspace action of the doubles: i-phase swap of the
    # |1100> / |0011> occupation pair, zero elsewhere.
    gen = next(g for g in qeb_pool(4) if g.label == "A(0,1,2,3)")
    mat = dense_sum(gen.body)
    src = occupation_basis_state("1100").amplitudes
    dst = occupation_basis_state("0011").amplitudes
    assert np.allclose(mat @ src, 1j * dst, atol=1e-12)
    assert np.allclose(mat @ dst, -1j * src, atol=1e-12)
    for idx in range(16):
        if idx in (3, 12):  # the two live occupation indices
            continue
        basis = np.zeros(16)
        basis[idx] = 1.0
        assert np.max(np.abs(mat @ basis)) < 1e-12
    report(2, "algebraic-class proofs by machine", started, 10.0)


def test_criterion_03_minimal_pool_tables():
    """All 24 commutator/conjugation table entries, including chain ends."""
    started = time.time()
    count = 0
    for i in (0, 2, N_TABLE - 2):
        for ham, op, expected in _magnetic_entries(i) + _coupling_entries(i):
            assert _apply_operation(ham, op, i) == expected
            count += 1
    assert count == 72  # 24 entries at three pool indices
    report(3, "minimal-pool commutator tables", started, 5.0)


def _screening_strings(h, pool):
    """The strings to screen, from the scalar oracle one generator at a time."""
    need = set()
    for ps in h.strings():
        if not ps.is_identity():
            need.add(ps)
    for gen in pool:
        for op in oracle_observables(h, gen).values():
            need.update(ps for ps in op.strings() if not ps.is_identity())
    return need


def _screening_plan(h, pool):
    return screening_plan(h.n_qubits, coefficient_observables(h, pool)[0])


def test_criterion_04_five_circuit_claim():
    """The synthesised plan covers the screening set in five Ising groups
    (<= 10 general-chain groups)."""
    started = time.time()
    rng = np.random.default_rng(10_004)
    for n in (4, 8, 12):
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        plan = _screening_plan(h, pool)
        assert len(plan.groups) == 5
        plan.validate()
        assert plan.strings() == _screening_strings(h, pool)
        for group in plan.groups:
            for i, a in enumerate(group.members):
                for b in group.members[i + 1:]:
                    assert qubitwise_commutes(a, b)
        state = StateVector(random_state(n, rng))
        backend = ExpectationBackend("exact")
        grouped = backend.expectation(state, h, plan=plan)
        assert abs(grouped - expectation(state, h)) < 1e-12

        spec = GeneralSpinChainSpec(
            n,
            tuple(rng.normal(size=n)), tuple(rng.normal(size=n)),
            tuple(rng.normal(size=n - 1)), tuple(rng.normal(size=n - 1)),
            tuple(rng.normal(size=n - 1)),
        )
        hg = build_general_chain(spec)
        plan_g = _screening_plan(hg, pool)
        assert len(plan_g.groups) <= 10
        plan_g.validate()
        assert plan_g.strings() == _screening_strings(hg, pool)
        grouped_g = backend.expectation(state, hg, plan=plan_g)
        assert abs(grouped_g - expectation(state, hg)) < 1e-12
    report(4, "Ising five-circuit claim", started, 60.0)


def test_criterion_05_gga_convergence():
    """Fidelity >= 0.98 within 2N-2 iterations; monotone energies."""
    started = time.time()
    for n in (4, 6, 8, 10):
        h = build_ising(IsingSpec(n, 0.5, 0.2))
        pool = minimal_hardware_efficient_pool(n)
        backend = ExpectationBackend("exact")
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), backend,
            StopRule(max_operators=2 * n - 2),
        )
        assert len(trace.ansatz.steps) <= 2 * n - 2
        _, ground = exact_ground_state(h)
        fid = fidelity(replay(trace.ansatz, pool.by_id()), ground)
        assert fid >= 0.98, f"N={n}: fidelity {fid:.4f}"
        series = trace.energies()
        assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
    report(5, "GGA-VQE convergence (N=4..10)", started, 120.0)


def test_criterion_06_shot_noise_robustness():
    """N=6 Ising, 2500 shots per group: hybrid fidelity >= 0.95 in 8/10 seeds."""
    started = time.time()
    n = 6
    h = build_ising(IsingSpec(n, 0.5, 0.2))
    pool = minimal_hardware_efficient_pool(n)
    _, ground = exact_ground_state(h)
    passing = 0
    for seed in range(10):
        backend = ExpectationBackend("sampled", shots=2500, seed=seed)
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), backend,
            StopRule(max_operators=2 * n - 2), use_plan=True,
        )
        hybrid = fidelity(replay(trace.ansatz, pool.by_id()), ground)
        if hybrid >= 0.95:
            passing += 1
    assert passing >= 8, f"only {passing}/10 seeds reached fidelity 0.95"
    report(6, "shot-noise robustness (8/10 seeds)", started, 300.0)


def _circuit_deltas(trace):
    deltas, prev = [], 0
    for rec in trace.iterations:
        deltas.append(rec.accounting["circuits"] - prev)
        prev = rec.accounting["circuits"]
    return deltas


def test_criterion_07_measurement_accounting():
    """2M+1 involutory, 4M+1 tripotent, 5 with the Ising plan, (2M+9)g for d=2."""
    started = time.time()
    single_group_h3 = PauliSum.from_label_terms(
        3, [(0.7, "Z0 Z1"), (0.3, "Z1 Z2")]
    )
    pool = minimal_hardware_efficient_pool(3)
    backend = ExpectationBackend("sampled", shots=64, seed=1)
    trace = gga_vqe(
        single_group_h3, pool, InitialState("uniform-minus"), backend,
        StopRule(max_operators=3),
    )
    m = len(pool)
    assert _circuit_deltas(trace) == [2 * m + 1] * len(trace.iterations)

    single_group_h4 = PauliSum.from_label_terms(
        4, [(0.5, "Z0 Z1"), (0.25, "Z2 Z3"), (0.125, "Z1 Z2")]
    )
    tri_pool = qeb_pool(4)
    backend = ExpectationBackend("sampled", shots=64, seed=2)
    trace = gga_vqe(
        single_group_h4, tri_pool, InitialState("basis", occupations="1100"),
        backend, StopRule(max_operators=2),
    )
    m = len(tri_pool)
    assert len(trace.iterations) >= 1
    assert _circuit_deltas(trace) == [4 * m + 1] * len(trace.iterations)

    n = 8
    h = build_ising(IsingSpec(n, 0.5, 0.2))
    pool = minimal_hardware_efficient_pool(n)
    backend = ExpectationBackend("sampled", shots=2500, seed=3)
    trace = gga_vqe(
        h, pool, InitialState("uniform-minus"), backend,
        StopRule(max_operators=6), use_plan=True,
    )
    assert _circuit_deltas(trace) == [5] * len(trace.iterations)

    n = 4
    h = build_ising(IsingSpec(n, 0.5, 0.2))
    pool = minimal_hardware_efficient_pool(n)
    backend = ExpectationBackend("sampled", shots=64, seed=4)
    trace = gga_vqe_2d(
        h, pool, InitialState("uniform-minus"), backend, StopRule(max_operators=4)
    )
    # 2M+1 screening evaluations and 8 pair samples, g groups each.
    m, g = len(pool), len(greedy_qubitwise_plan(h).groups)
    deltas = _circuit_deltas(trace)
    assert deltas and deltas == [(2 * m + 9) * g] * len(deltas)
    report(7, "measurement accounting", started, 60.0)


HF_PAIRS = [(4, 0), (8, 0), (5, 1), (9, 1), (5, 0), (7, 0), (7, 1)]


def test_criterion_08_overlap_mode():
    """10-qubit toy: one iteration to fidelity >= 0.99 with all methods."""
    started = time.time()
    n = 10
    pool = pairwise_single_pool(n, HF_PAIRS)
    hf = InitialState("basis", occupations=hartree_fock_occupations(8, 10))
    target_id = HF_PAIRS.index((5, 0))
    target = Ansatz(n, hf, ((target_id, 0.813),))
    exact_angles = []
    for method in ("compute_uncompute", "swap_test"):
        backend = ExpectationBackend("exact")
        trace = overlap_gga_vqe(
            target, pool, hf, method, backend, StopRule(max_operators=5)
        )
        assert len(trace.iterations) == 1
        assert trace.iterations[0].selected_ids == [target_id]
        assert trace.exact_objective >= 0.99
        gains = {s["id"]: s["gain"] for s in trace.iterations[0].screening}
        assert all(g <= 1e-10 for gid, g in gains.items() if gid != target_id)
        assert all(s["gain"] < 1e-4 for s in trace.extras["stopping_screening"])
        exact_angles.append((trace.iterations[0].angles[0], trace.exact_objective))
    for angle, fid in exact_angles[1:]:
        assert angle == pytest.approx(exact_angles[0][0], abs=1e-12)
        assert fid == pytest.approx(exact_angles[0][1], abs=1e-12)
    # Sampled mode: the selection still lands on (5, 0) and the predicted
    # fidelity sits within a 3-sigma propagation bound of the exact value.
    shots = 2500
    sigma_bound = 3.5 / np.sqrt(shots)
    for method, seed in (("compute_uncompute", 21), ("swap_test", 22)):
        backend = ExpectationBackend("sampled", shots=shots, seed=seed)
        trace = overlap_gga_vqe(
            target, pool, hf, method, backend, StopRule(max_operators=5)
        )
        assert trace.iterations[0].selected_ids == [target_id]
        assert trace.exact_objective >= 0.99
        predicted = trace.iterations[0].predicted_value
        realized = overlap_exact(
            target,
            Ansatz(n, hf, tuple(trace.ansatz.steps[:1])),
            pool.by_id(),
        )
        assert abs(predicted - realized) < 3.0 * sigma_bound
    report(8, "overlap mode (HF-style toy)", started, 120.0)


def test_criterion_09_overlap_estimator_identities():
    """Compute-uncompute == SWAP test == |<a|b>|^2 on 50 random pairs, and
    compute-uncompute == the explicit inverse-replay circuit."""
    started = time.time()
    rng = np.random.default_rng(10_009)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        pool = minimal_hardware_efficient_pool(n)
        gens = pool.by_id()

        def rand_ansatz():
            return Ansatz(
                n,
                InitialState("uniform-minus"),
                tuple(
                    (int(rng.integers(len(pool))), float(rng.uniform(-np.pi, np.pi)))
                    for _ in range(int(rng.integers(1, 5)))
                ),
            )

        a, b = rand_ansatz(), rand_ansatz()
        truth = abs(inner_product(replay(a, gens), replay(b, gens))) ** 2
        backend = ExpectationBackend("exact")
        cu = overlap_compute_uncompute(backend, fidelity(replay(a, gens), replay(b, gens)))
        sw = overlap_swap_test(backend, fidelity(replay(a, gens), replay(b, gens)))
        assert abs(cu - truth) < 1e-12
        assert abs(cu - compute_uncompute_p0(a, replay(b, gens), gens)) < 1e-12
        assert abs(sw - truth) < 1e-12
        # The explicit (2n+1)-qubit circuit: the value is 2 p(0) - 1.
        p0 = swap_test_p0(replay(a, gens).amplitudes, replay(b, gens).amplitudes)
        assert abs(sw - (2.0 * p0 - 1.0)) < 1e-12
    report(9, "overlap estimator identities", started, 60.0)


def test_criterion_10_two_dimensional_landscape():
    """Grid-sampled 2-D reconstruction matches 64x64 dense scans to 1e-9."""
    started = time.time()
    rng = np.random.default_rng(10_010)
    backend = ExpectationBackend("exact")
    from oracles import dense_expm_hermitian

    for trial in range(4):
        n = int(rng.integers(2, 5))
        pool = minimal_hardware_efficient_pool(n)
        h = random_pauli_sum(n, 2 * n + 1, rng)
        hd = dense_sum(h)
        vec = random_state(n, rng)
        ids = rng.choice(len(pool), size=2, replace=False)
        g1, g2 = pool[int(ids[0])], pool[int(ids[1])]
        model = reconstruct_2d(backend, h, g1, g2, StateVector(vec))
        grid = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        u1s = [dense_expm_hermitian(dense_sum(g1.body), -1j * t) for t in grid]
        u2s = [dense_expm_hermitian(dense_sum(g2.body), -1j * t) for t in grid]
        worst = 0.0
        for i, t1 in enumerate(grid):
            base = u1s[i] @ vec
            inner = np.array([u2 @ base for u2 in u2s])
            exact = np.real(np.einsum("ti,ij,tj->t", inner.conj(), hd, inner))
            worst = max(worst, float(np.max(np.abs(model.evaluate(t1, grid) - exact))))
        assert worst < 1e-9, f"trial {trial}: {worst:g}"
        # Slices reproduce the 1-D models.
        m1 = reconstruct(backend, h, g1, StateVector(vec))
        m2 = reconstruct(backend, h, g2, StateVector(vec))
        thetas = np.linspace(-np.pi, np.pi, 64)
        assert np.max(np.abs(model.evaluate(thetas, 0.0) - m1.evaluate(thetas))) < 1e-10
        assert np.max(np.abs(model.evaluate(0.0, thetas) - m2.evaluate(thetas))) < 1e-10
    report(10, "two-dimensional landscape", started, 60.0)


def test_criterion_11_determinism():
    """Identical config + seed produce byte-identical trace JSON."""
    started = time.time()
    n = 6
    h = build_ising(IsingSpec(n, 0.5, 0.2))
    pool = minimal_hardware_efficient_pool(n)
    texts = []
    for _ in range(2):
        backend = ExpectationBackend("sampled", shots=2500, seed=7)
        trace = gga_vqe(
            h, pool, InitialState("uniform-minus"), backend,
            StopRule(max_operators=8), use_plan=True,
            config={"backend.seed": "7", "backend.shots": "2500"},
        )
        texts.append(trace.to_json())
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    assert payload["iterations"]
    report(11, "determinism (byte-identical traces)", started, 60.0)
