"""Tests of the benchmark's own parts: references, inputs, checks and tracing.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from ggavqe import cli as gcli  # noqa: E402
from ggavqe import config as gconfig  # noqa: E402
from ggavqe import drivers as gdrivers  # noqa: E402
from ggavqe import landscape as ls  # noqa: E402
from ggavqe.hamiltonians import IsingSpec, build_ising, load_integrals  # noqa: E402
from ggavqe.pools import qeb_pool  # noqa: E402
from ggavqe.simulator import ansatz_from_text, to_dense_matrix  # noqa: E402


@pytest.mark.parametrize(
    "n, h, j", [(2, 0.5, 0.2), (4, 0.5, 0.2), (7, 0.5, 0.2), (10, 0.5, 0.2),
                (12, 0.5, 0.2), (3, 0.3, 1.1), (8, 0.3, 1.1)],
)
def test_free_fermion_energy_matches_dense_diagonalization(n, h, j):
    # The chain's matrix is real, so the real symmetric solver gives E0.
    matrix = to_dense_matrix(build_ising(IsingSpec(n, h, j)))
    assert not matrix.imag.any()
    dense = np.linalg.eigvalsh(matrix.real)[0]
    assert wl.free_fermion_ground_energy(n, h, j) == pytest.approx(dense, abs=1e-12)


def test_free_fermion_energy_at_eighteen_sites():
    assert wl.free_fermion_ground_energy(18, 0.5, 0.2) == pytest.approx(-9.343110, abs=1e-6)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_byte_identical_per_seed(name):
    w = wl.WORKLOADS[name]
    assert wl.input_files(w, 3, "d") == wl.input_files(w, 3, "d")
    assert wl.input_files(w, 3, "d") != wl.input_files(w, 4, "d")


def test_integrals_have_the_required_symmetry(tmp_path):
    path = tmp_path / "integrals.txt"
    path.write_text(wl.molecule_integrals_text(5))
    ints = load_integrals(path)
    assert ints.n_spin_orbitals == 6 and ints.n_electrons == 2
    for (p, q), value in ints.one_body.items():
        assert ints.one_body[(q, p)] == value
    for (p, q, r, s), value in ints.two_body.items():
        assert ints.two_body[(s, r, q, p)] == value


def test_target_ansatz_names_the_run_pool():
    ansatz, pool_name = ansatz_from_text(wl.target_ansatz_text(5, 14))
    assert pool_name == "minimal_hardware_efficient"
    assert ansatz.n_qubits == 14 and len(ansatz.steps) == wl.OVERLAP_TARGET_STEPS
    assert all(0 <= gid < 26 for gid, _ in ansatz.steps)


SMALL = wl.Workload("ising-scan", "small copy for tests", 5, 2, "gga", False)


def _small_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return gcli._execute(gconfig.load_run_config(wl.write_inputs(SMALL, 1, "inputs")))


def _expected(trace, circuits):
    return wl.Expected(
        circuits=circuits,
        shots_per_circuit=0,
        reference_objective=wl.free_fermion_ground_energy(5, wl.ISING_H, wl.ISING_J),
        selected_ids=[gid for rec in trace.iterations for gid in rec.selected_ids],
    )


def test_checks_pass_a_correct_run_and_flag_a_corrupted_expectation(tmp_path, monkeypatch):
    trace = _small_run(tmp_path, monkeypatch)
    right = wl.expected_circuits(SMALL)
    assert right == (2 * 8 + 1) * 2
    assert wl.check_run(SMALL, trace, _expected(trace, right)) == []
    failures = wl.check_run(SMALL, trace, _expected(trace, right + 1))
    assert len(failures) == 1 and "circuits" in failures[0]
    wrong_sequence = wl.Expected(right, 0, _expected(trace, right).reference_objective, [0, 0])
    assert any("reference" in f for f in wl.check_run(SMALL, trace, wrong_sequence))


def test_tracing_catches_every_call_site_and_restores_it(tmp_path, monkeypatch):
    original = gdrivers.apply_exp_generator
    recorder = spans.Recorder()
    with spans.patched(recorder):
        assert gdrivers.apply_exp_generator is not original
        trace = _small_run(tmp_path, monkeypatch)
    assert gdrivers.apply_exp_generator is original
    summary = recorder.summary()
    # The exact unplanned backend prices one circuit per expectation call.
    assert summary["measurement.expectation.calls"] == trace.accounting["circuits"]
    assert summary["landscape.samples"] == 2 * 8 * 2
    assert summary["drivers.calls"] == 1
    # H has 2n-1 = 9 terms; each minimal-pool generator body has one.
    expectations = summary["simulator.expectation.calls"]
    exponentials = summary["simulator.apply_exp_generator.calls"]
    assert summary["simulator.apply_pauli_sum.calls"] == expectations + exponentials
    assert summary["simulator.apply_pauli_sum.term_passes"] == 9 * expectations + exponentials


def test_self_time_subtracts_child_spans():
    recorder = spans.Recorder()
    recorder.spans = [
        ["drivers", 0.0, 10.0, -1],
        ["landscape.reconstruct", 1.0, 4.0, 0],
        ["simulator.apply_pauli_sum", 1.5, 3.5, 1],
        ["landscape.minimize", 5.0, 6.0, 0],
    ]
    summary = recorder.summary()
    assert summary["drivers.s"] == 10.0
    assert summary["drivers.self_s"] == 6.0
    assert summary["landscape.reconstruct.self_s"] == 1.0
    assert summary["simulator.apply_pauli_sum.self_s"] == 2.0
    assert np.isclose(sum(v for k, v in summary.items() if k.endswith(".self_s")), 10.0)


def test_landscape_samples_count_the_sample_calls():
    recorder = spans.Recorder()
    reconstruct = recorder.wrap("landscape.reconstruct_from_samples", ls.reconstruct_from_samples)
    nodes = []

    def sample(node, tag):
        nodes.append(node)
        return float(np.cos(node))

    generator = qeb_pool(4)[0]
    assert generator.kind == ls.TRIPOTENT
    reconstruct(generator, sample, 1.0)
    assert len(nodes) == 4
    assert recorder.summary()["landscape.samples"] == 4
