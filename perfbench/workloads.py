"""Workload definitions: seeded input files, reference values and output checks.

Each workload is a closed loop of one client running one solve at a time.
The inputs of a run are generated from its seed and written as files; the
program sees only those files, loaded through ``ggavqe.config.load_run_config``
exactly as ``ggavqe run`` loads them.

Why these workloads, and which layer metric should move which
end-to-end metric, is written up in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import comb

import numpy as np
from ggavqe.measurement import greedy_qubitwise_plan
from ggavqe.simulator import exact_ground_state

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

ISING_H = 0.5
ISING_J = 0.2
PLAN_CIRCUITS = 5  # the paper's five-circuit claim for the Ising chain
SHOTS = 2000
EXACT_OBJECTIVE_TOLERANCE = 1e-8
VARIATIONAL_SLACK = 1e-9

# The sampled workloads draw their instance around a fixed centre, so that a
# seed changes every input byte but not the character (or the attainable
# objective) of the problem.  These seeds pick the centres.
MOLECULE_CENTRE_SEED = 20230629
TARGET_CENTRE_SEED = 17159
MOLECULE_JITTER = 0.01  # relative perturbation of every integral
TARGET_ANGLE_JITTER = 0.01  # radians, per target step


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_qubits: int
    steps: int
    driver: str  # "gga" | "overlap"
    sampled: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ising-plan",
            "Ising n=17 through the five-circuit plan, exact backend: "
            "basis rotations on a 2 MiB state (apply_one_qubit_gate)",
            17, 2, "gga", False,
        ),
        Workload(
            "ising-scan",
            "Ising n=14 without a plan, exact backend: pinned-node screening, "
            "(2M+1) Pauli-sum expectations per iteration (apply_pauli_sum)",
            14, 3, "gga", False,
        ),
        Workload(
            "qeb-sampled",
            "seeded 6-spin-orbital molecule, QEB pool, 2000 shots, no plan: "
            "per-call cost of measure_strings, its rotations and sampling, on 1 KiB",
            6, 1, "gga", True,
        ),
        Workload(
            "overlap-cu",
            "overlap mode n=14 by compute-uncompute, 2000 shots: every "
            "landscape sample replays the whole ansatz through apply_exp_generator",
            14, 6, "overlap", True,
        ),
    )
}

OVERLAP_TARGET_STEPS = 8
MOLECULE_ELECTRONS = 2


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _half_filled(n: int) -> str:
    return "1" * (n // 2) + "0" * (n - n // 2)


def molecule_integrals_text(seed: int) -> str:
    """Integral file of the seeded molecule-like Hamiltonian of ``qeb-sampled``.

    Its size is the workload's qubit count, one spin orbital per qubit.
    Spatial integrals carry the 8-fold symmetry of real orbitals, which
    gives h_pq = h_qp and h_pqrs = h_srqp on spin orbitals (interleaved
    alpha/beta), so the Jordan-Wigner image is hermitian.
    """
    centre = np.random.default_rng(MOLECULE_CENTRE_SEED)
    jitter = np.random.default_rng([seed, 1])
    k = WORKLOADS["qeb-sampled"].n_qubits // 2
    h = centre.normal(scale=0.1, size=(k, k)) + np.diag(np.linspace(-1.5, 0.5, k))
    g = centre.normal(scale=0.05, size=(k,) * 4) + 0.5 * np.einsum(
        "ij,kl->ijkl", np.eye(k), np.ones((k, k))
    )
    h = h * (1.0 + MOLECULE_JITTER * jitter.normal(size=h.shape))
    g = g * (1.0 + MOLECULE_JITTER * jitter.normal(size=g.shape))
    h = (h + h.T) / 2.0
    # (ij|kl) = (ji|kl) = (ij|lk) = (kl|ij)
    g = (g + g.transpose(1, 0, 2, 3)) / 2.0
    g = (g + g.transpose(0, 1, 3, 2)) / 2.0
    g = (g + g.transpose(2, 3, 0, 1)) / 2.0
    n = 2 * k
    lines = [f"norb {n}", f"nelec {MOLECULE_ELECTRONS}"]
    for p in range(n):
        for q in range(n):
            if p % 2 == q % 2:
                lines.append(f"pq {p} {q} {float(h[p // 2, q // 2]):.17g}")
    # a_p^ a_q^ a_r a_s carries (ps|qr)/2 when p,s and q,r share a spin.
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    if p == q or r == s or p % 2 != s % 2 or q % 2 != r % 2:
                        continue
                    value = 0.5 * g[p // 2, s // 2, q // 2, r // 2]
                    lines.append(f"pqrs {p} {q} {r} {s} {float(value):.17g}")
    return "\n".join(lines) + "\n"


def target_ansatz_text(seed: int, n: int) -> str:
    """A seeded target in the ``ansatz v1`` format for the minimal pool."""
    centre = np.random.default_rng(TARGET_CENTRE_SEED)
    jitter = np.random.default_rng([seed, 2])
    pool_size = 2 * n - 2
    lines = [
        "# ansatz v1",
        f"n_qubits {n}",
        "pool minimal_hardware_efficient",
        f"initial basis:{_half_filled(n)}",
    ]
    for _ in range(OVERLAP_TARGET_STEPS):
        gid = int(centre.integers(pool_size))
        angle = float(centre.choice([-1.0, 1.0]) * centre.uniform(0.3, 0.9))
        angle += float(jitter.uniform(-TARGET_ANGLE_JITTER, TARGET_ANGLE_JITTER))
        lines.append(f"step {gid} {angle:.17g}")
    return "\n".join(lines) + "\n"


def input_files(workload: Workload, seed: int, directory: str) -> dict[str, str]:
    """File name -> text of every input of one run; ``run.cfg`` is the config.

    Paths inside the config are relative to the checkout root, which is the
    working directory of a run.
    """
    w = workload
    files: dict[str, str] = {}
    backend = (
        f"mode = sampled\nshots = {SHOTS}\nseed = {seed}\n"
        if w.sampled else f"mode = exact\nseed = {seed}\n"
    )
    if w.name == "qeb-sampled":
        files["integrals.txt"] = molecule_integrals_text(seed)
        problem = f"kind = molecule\nintegrals = {directory}/integrals.txt\n"
        pool = "qeb"
        initial = f"hartree-fock:{MOLECULE_ELECTRONS}"
        driver = "kind = gga\nuse_plan = off\nthreads = 1\n"
    else:
        problem = (
            f"kind = ising\nn_qubits = {w.n_qubits}\nh = {ISING_H}\nj = {ISING_J}\n"
        )
        pool = "minimal_hardware_efficient"
        if w.name == "overlap-cu":
            files["target.ansatz"] = target_ansatz_text(seed, w.n_qubits)
            initial = f"basis:{_half_filled(w.n_qubits)}"
            driver = (
                "kind = overlap\noverlap_method = compute_uncompute\n"
                f"target_ansatz = {directory}/target.ansatz\n"
            )
        else:
            initial = "uniform-minus"
            plan = "on" if w.name == "ising-plan" else "off"
            driver = f"kind = gga\nuse_plan = {plan}\nthreads = 1\n"
    files["run.cfg"] = (
        f"# {w.name} workload, seed {seed}\n"
        f"[problem]\n{problem}\n[pool]\nname = {pool}\n\n"
        f"[initial]\nkind = {initial}\n\n[driver]\n{driver}\n"
        f"[stop]\nmax_operators = {w.steps}\n\n[backend]\n{backend}"
    )
    return files


def write_inputs(workload: Workload, seed: int, directory: str) -> str:
    """Write the inputs under ``directory`` (relative to the cwd); return the config path."""
    os.makedirs(directory, exist_ok=True)
    for name, text in input_files(workload, seed, directory).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return os.path.join(directory, "run.cfg")


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------


def free_fermion_ground_energy(n: int, h: float, j: float) -> float:
    """Ground energy of the open chain h sum X_p + j sum Z_p Z_{p+1}.

    The chain is quadratic in Majorana operators (a_i, b_i) with couplings
    -2h on a_i b_i and -2j on b_i a_{i+1}; E0 is minus half the sum of the
    positive eigenvalues of iA.
    """
    a = np.zeros((2 * n, 2 * n))
    for i in range(n):
        a[2 * i, 2 * i + 1] = -2.0 * h
    for i in range(n - 1):
        a[2 * i + 1, 2 * i + 2] = -2.0 * j
    eigenvalues = np.linalg.eigvalsh(1j * (a - a.T))
    return float(-0.5 * eigenvalues[eigenvalues > 0].sum())


def pool_size(workload: Workload) -> int:
    """Pool sizes from the pool definitions: 2N-2 minimal, C(N,2)+3C(N,4) QEB."""
    n = workload.n_qubits
    if workload.name == "qeb-sampled":
        return comb(n, 2) + 3 * comb(n, 4)
    return 2 * n - 2


def expected_circuits(workload: Workload, auto_groups: int = 0) -> int:
    """The modelled hardware cost of one run.

    ``auto_groups`` is the greedy qubit-wise group count of the molecular
    Hamiltonian, which prices one unplanned sampled expectation.
    """
    m, steps = pool_size(workload), workload.steps
    if workload.name == "ising-plan":
        return PLAN_CIRCUITS * steps
    if workload.name == "qeb-sampled":
        return auto_groups * (4 * m + 1) * steps
    return (2 * m + 1) * steps


def load_reference_sequences() -> dict[str, list[int]]:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)["selected_ids"]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """What a correct run of one workload at one seed must report."""

    circuits: int
    shots_per_circuit: int  # 0 in exact mode
    reference_objective: float  # ground energy, or 1.0 for fidelity
    selected_ids: list[int] | None  # exact-backend workloads only
    auto_groups: int = 0  # circuits of one unplanned sampled expectation


def expected_outputs(workload: Workload, rc) -> Expected:
    """What a correct solve of the loaded config ``rc`` must report."""
    groups = 0
    if workload.name == "qeb-sampled":
        reference, _ = exact_ground_state(rc.hamiltonian)
        groups = len(greedy_qubitwise_plan(rc.hamiltonian).groups)
    elif workload.driver == "overlap":
        reference = 1.0
    else:
        reference = free_fermion_ground_energy(workload.n_qubits, ISING_H, ISING_J)
    return Expected(
        circuits=expected_circuits(workload, groups),
        shots_per_circuit=SHOTS if workload.sampled else 0,
        reference_objective=reference,
        selected_ids=None if workload.sampled else load_reference_sequences()[workload.name],
        auto_groups=groups,
    )


def objective_gap(workload: Workload, trace, expected: Expected) -> float:
    if workload.driver == "overlap":
        return 1.0 - trace.exact_objective
    return trace.exact_objective - expected.reference_objective


def check_run(workload: Workload, trace, expected: Expected) -> list[str]:
    """Every way this run's output is wrong, as messages; empty when correct."""
    failures = []
    acct = trace.accounting
    if trace.status != "max_operators" or len(trace.ansatz.steps) != workload.steps:
        failures.append(
            f"status {trace.status!r} after {len(trace.ansatz.steps)} steps, "
            f"expected 'max_operators' after {workload.steps}"
        )
    if acct["circuits"] != expected.circuits:
        failures.append(f"circuits {acct['circuits']} != modelled {expected.circuits}")
    if acct["shots"] != acct["circuits"] * expected.shots_per_circuit:
        failures.append(
            f"shots {acct['shots']} != circuits x {expected.shots_per_circuit}"
        )
    if not workload.sampled:
        drift = abs(trace.final_objective - trace.exact_objective)
        if not drift <= EXACT_OBJECTIVE_TOLERANCE:
            failures.append(f"final vs exact objective differ by {drift:.3g}")
    if expected.selected_ids is not None:
        got = [gid for rec in trace.iterations for gid in rec.selected_ids]
        if got != expected.selected_ids:
            failures.append(f"selected {got} != reference {expected.selected_ids}")
    # No state lies below the ground energy; a fidelity lies in [0, 1].
    gap = objective_gap(workload, trace, expected)
    upper = 1.0 + VARIATIONAL_SLACK if workload.driver == "overlap" else np.inf
    if not -VARIATIONAL_SLACK <= gap <= upper:
        failures.append(f"objective gap {gap!r} is outside its physical range")
    return failures
