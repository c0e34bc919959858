"""End-to-end CLI tests built on the bundled example configurations."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ggavqe
from ggavqe import cli, pools
from ggavqe.cli import main
from ggavqe.config import echo_to_config_text, load_run_config
from ggavqe.drivers import OVERLAP_METHODS
from ggavqe.landscape import coefficient_observables
from ggavqe.measurement import ExpectationBackend, screening_plan
from ggavqe.simulator import (
    INVOLUTORY, Ansatz, InvariantError, fidelity, parse_initial_state, replay,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ISING_CFG = os.path.join(REPO, "configs", "ising_n6.cfg")
SAMPLED_CFG = os.path.join(REPO, "configs", "ising_n6_sampled.cfg")
OVERLAP_CFG = os.path.join(REPO, "configs", "overlap_hf_toy.cfg")
CHAIN_CFG = os.path.join(REPO, "configs", "chain_n5.cfg")


# A one-qubit Pauli file as the problem, at the register size it implies.
ONE_QUBIT_FILE = [
    "problem.kind=pauli_file", "problem.path={one_qubit}", "problem.n_qubits=",
    "initial.kind=basis:0",
]


def circuits_per_iteration(trace):
    deltas, prev = [], 0
    for rec in trace["iterations"]:
        deltas.append(rec["accounting"]["circuits"] - prev)
        prev = rec["accounting"]["circuits"]
    return deltas


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    # The bundled configs reference sibling files by relative path.
    monkeypatch.chdir(REPO)


class TestRun:
    def test_bundled_ising_example(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", ISING_CFG, "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "fidelity vs exact ground state" in printed
        trace = json.loads((out / "trace.json").read_text())
        assert trace["status"] == "max_operators"
        energies = [trace["iterations"][0]["e0"]] + [
            rec["predicted_value"] for rec in trace["iterations"]
        ]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))
        assert trace["extras"]["fidelity_vs_ground_state"] >= 0.98
        assert (out / "convergence.csv").read_text().startswith("iteration,")
        assert (out / "ansatz.txt").read_text().startswith("# ansatz v1")

    def test_invalid_pool_name_exits_2(self, tmp_path, capsys):
        code = main(
            ["run", ISING_CFG, "--output", str(tmp_path), "--set", "pool.name=nope"]
        )
        assert code == 2
        assert "pool.name" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2

    def test_sampled_run_is_reproducible(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run", SAMPLED_CFG, "--shots", "2500", "--seed", "7"]
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert (out_a / "trace.json").read_bytes() == (out_b / "trace.json").read_bytes()

    @staticmethod
    def traces_under_blas_threads(tmp_path, config, overrides):
        """trace.json bytes of one run in fresh processes with 1 and 2 BLAS threads."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(ggavqe.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        traces = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            args = [sys.executable, "-m", "ggavqe.cli", "run", config, "--output", str(out)]
            for item in overrides:
                args += ["--set", item]
            subprocess.run(args, cwd=REPO, env=env, check=True, capture_output=True)
            traces.append((out / "trace.json").read_bytes())
        return traces

    def test_exact_trace_independent_of_blas_threads(self, tmp_path):
        # At 14 qubits a BLAS dot product gives different bits with 1 and 2
        # threads; an exact trace must not depend on that.
        traces = self.traces_under_blas_threads(
            tmp_path, ISING_CFG, ["problem.n_qubits=14", "stop.max_operators=2"]
        )
        assert traces[0] == traces[1]

    def test_sampled_trace_independent_of_blas_threads(self, tmp_path):
        # At 14 qubits a BLAS matmul rotation or parity dot product gives
        # different bits with 1 and 2 threads; the sampled path uses neither.
        traces = self.traces_under_blas_threads(
            tmp_path, SAMPLED_CFG, ["problem.n_qubits=14", "stop.max_operators=1"]
        )
        assert traces[0] == traces[1]

    @pytest.mark.parametrize(
        "config, loaded", [(ISING_CFG, False), (SAMPLED_CFG, True)], ids=["exact", "sampled"]
    )
    def test_only_sampled_runs_load_numpy_random(self, tmp_path, config, loaded):
        # numpy loads numpy.random on first use, at about 5.8 MiB of RSS; an
        # exact run draws nothing and must not pay for it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(ggavqe.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys\n"
            "from ggavqe.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        args = [sys.executable, "-c", probe, "run", config, "--output", str(tmp_path)]
        result = subprocess.run(args, cwd=REPO, env=dict(os.environ, PYTHONPATH=path),
                                check=True, capture_output=True, text=True)
        assert result.stdout.splitlines()[-1] == str(loaded)

    def test_invariant_error_exits_1(self, tmp_path, capsys, monkeypatch):
        def broken(config):
            raise InvariantError("norm drifted to 1.5; generator Y0 misclassified?")

        monkeypatch.setattr(cli, "_execute", broken)
        assert main(["run", ISING_CFG, "--output", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: norm drifted to 1.5; generator Y0 misclassified?\n"

    def test_misclassified_generator_in_overlap_screening_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # A tripotent QEB single declared involutory: the Gram norm of its
        # first screened node drifts, so screening raises before any append.
        monkeypatch.setattr(pools, "classify_body", lambda body: INVOLUTORY)
        pool_file = tmp_path / "pool.txt"
        pool_file.write_text("[single]\n0.5 Y0 X1\n-0.5 X0 Y1\n")
        target = tmp_path / "target.ansatz"
        target.write_text("# ansatz v1\nn_qubits 3\npool custom\ninitial basis:100\n")
        args = ["run", CHAIN_CFG, "--output", str(tmp_path / "out")]
        for item in (
            "problem.n_qubits=3", "pool.name=custom", f"pool.file={pool_file}",
            "initial.kind=uniform-minus", "driver.kind=overlap",
            f"driver.target_ansatz={target}",
        ):
            args += ["--set", item]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: norm drifted to ") and "single misclassified?" in err

    def test_config_echo_closure(self, tmp_path):
        out_a = tmp_path / "a"
        assert main(["run", SAMPLED_CFG, "--output", str(out_a)]) == 0
        trace = json.loads((out_a / "trace.json").read_text())
        rebuilt = tmp_path / "rebuilt.cfg"
        rebuilt.write_text(echo_to_config_text(trace["config"]))
        out_b = tmp_path / "b"
        assert main(["run", str(rebuilt), "--output", str(out_b)]) == 0
        assert (out_a / "trace.json").read_bytes() == (out_b / "trace.json").read_bytes()

    def test_overlap_toy_run(self, tmp_path, capsys):
        out = tmp_path / "overlap"
        assert main(["run", OVERLAP_CFG, "--output", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace["mode"] == "overlap"
        assert trace["status"] == "converged"
        assert trace["exact_objective"] == pytest.approx(1.0, abs=1e-9)
        assert len(trace["iterations"]) == 1

    @pytest.mark.parametrize(
        "override", ["stop.max_operators=0", "driver.min_overlap_gain=2"]
    )
    def test_overlap_stop_before_first_append(self, tmp_path, capsys, override):
        out = tmp_path / "overlap"
        assert main(["run", OVERLAP_CFG, "--output", str(out), "--set", override]) == 0
        printed = capsys.readouterr().out
        final = next(line for line in printed.splitlines() if line.startswith("final overlap:"))
        trace = json.loads((out / "trace.json").read_text())
        assert trace["iterations"] == []
        assert float(final.split(":", 1)[1]) == pytest.approx(trace["exact_objective"])

    @pytest.mark.parametrize(
        "config, overrides, message",
        [
            (ISING_CFG, ["driver.kind=gga2d", "stop.max_operators=3"], "even"),
            (OVERLAP_CFG, ["stop.min_energy_decrease=0.01"], "min_overlap_gain"),
        ],
        ids=["gga2d-odd-cap", "overlap-min-energy-decrease"],
    )
    def test_unhonoured_stop_criterion_exits_2(self, tmp_path, capsys, config, overrides, message):
        args = ["run", config, "--output", str(tmp_path)]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, overrides, message",
        [
            (ISING_CFG, ["problem.n_qubits=40"], "simulator limit"),
            (OVERLAP_CFG, ["initial.kind=hartree-fock:x"], "initial.kind"),
            (OVERLAP_CFG, ["pool.pairs=a:b"], "pool.pairs"),
            (OVERLAP_CFG, ["driver.overlap_method=bogus"], "driver.overlap_method"),
            (ISING_CFG, ["driver.kind=gga2d", "driver.use_plan=on"], "use_plan=on is not"),
            (ISING_CFG, ["driver.kind=overlap", "driver.use_plan=on"], "use_plan=on is not"),
            (SAMPLED_CFG, ["backend.shots=0"], "backend.shots"),
            (SAMPLED_CFG, ["backend.shots=-5"], "backend.shots"),
            # A negative seed used to exit 1 at the first sampled draw.
            (SAMPLED_CFG, ["backend.seed=-1"], "backend.seed"),
            # Non-finite numbers used to run another experiment, exit 0.
            (ISING_CFG, ["problem.h=nan"], "problem.h"),
            (ISING_CFG, ["problem.j=inf"], "problem.j"),
            (CHAIN_CFG, ["problem.hx=1,nan,0,0,0"], "problem.hx"),
            (ISING_CFG, ["stop.gradient_epsilon=nan"], "stop.gradient_epsilon"),
            (OVERLAP_CFG, ["driver.min_overlap_gain=nan"], "driver.min_overlap_gain"),
            # Builders refusing fewer than two qubits used to exit 1.
            (ISING_CFG, ["problem.n_qubits=1"], "problem.n_qubits"),
            (CHAIN_CFG, ["problem.n_qubits=1"], "problem.n_qubits"),
            (ISING_CFG, ONE_QUBIT_FILE + ["pool.name=qeb"], "pool.name"),
            (ISING_CFG, ONE_QUBIT_FILE + ["pool.name=minimal_hardware_efficient"], "pool.name"),
            (ISING_CFG, ["problem.h=abc"], "problem.h"),
            (ISING_CFG, ["problem.n_qubits=2.5"], "problem.n_qubits"),
            (ISING_CFG, ["backend.mode=bogus"], "backend.mode"),
            (ISING_CFG, ["initial.kind=basis:01"], "initial.kind"),
            # No `exact` method: it would repeat compute_uncompute's F sample.
            (OVERLAP_CFG, ["driver.overlap_method=exact"], "driver.overlap_method"),
            # A negative sweep cap used to run adapt with no sweeps, exit 0.
            (ISING_CFG, ["driver.kind=adapt", "driver.sweep_cap=-3"], "driver.sweep_cap"),
            # Negative thresholds used to disable their criterion, exit 0.
            (ISING_CFG, ["stop.gradient_epsilon=-1"], "stop.gradient_epsilon"),
            (ISING_CFG, ["stop.min_energy_decrease=-5"], "stop.min_energy_decrease"),
            (OVERLAP_CFG, ["driver.min_overlap_gain=-1"], "driver.min_overlap_gain"),
        ],
        ids=[
            "qubits-over-limit", "hartree-fock-not-int", "pairs-not-int",
            "unknown-overlap-method", "gga2d-plan-on", "overlap-plan-on",
            "sampled-shots-zero", "sampled-shots-negative", "sampled-seed-negative",
            "ising-h-nan", "ising-j-inf", "chain-hx-item-nan", "gradient-epsilon-nan",
            "min-overlap-gain-nan", "ising-one-qubit", "chain-one-qubit",
            "one-qubit-file-qeb", "one-qubit-file-minimal",
            "h-not-a-number", "qubits-not-int", "unknown-backend-mode", "basis-too-short",
            "retired-exact-overlap-method", "sweep-cap-negative",
            "gradient-epsilon-negative", "min-energy-decrease-negative",
            "min-overlap-gain-negative",
        ],
    )
    def test_invalid_config_exits_2(self, tmp_path, capsys, config, overrides, message):
        (tmp_path / "one.txt").write_text("0.5 X0\n0.3 Z0\n")
        args = ["run", config, "--output", str(tmp_path)]
        for item in overrides:
            args += ["--set", item.format(one_qubit=tmp_path / "one.txt")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("step", ["999 0.5", "-1 0.5", "1 nan", "1 inf"],
                             ids=["id-past-pool", "id-negative", "angle-nan", "angle-inf"])
    @pytest.mark.parametrize("key", ["--ansatz", "driver.target_ansatz"])
    def test_bad_ansatz_step_exits_2(self, tmp_path, capsys, key, step):
        # Ids off the pool used to end in a KeyError traceback, exit 1; a
        # non-finite angle gave a NaN energy, exit 0, or an overlap run's
        # "min() arg is an empty sequence".
        path = tmp_path / "bad.ansatz"
        with open(os.path.join(REPO, "configs", "hf_toy_target.ansatz"), encoding="utf-8") as fh:
            path.write_text(fh.read() + f"step {step}\n")
        if key == "--ansatz":
            argv = ["ground-truth", OVERLAP_CFG, "--ansatz", str(path)]
        else:
            argv = ["run", OVERLAP_CFG, "--output", str(tmp_path / "out"),
                    "--set", f"{key}={path}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:") and err.count("\n") == 1

    def test_general_chain_run_with_auto_plan(self, tmp_path):
        out = tmp_path / "chain"
        assert main(["run", CHAIN_CFG, "--output", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        energies = [trace["iterations"][0]["e0"]] + [
            rec["predicted_value"] for rec in trace["iterations"]
        ]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))
        # auto plan engaged: nine circuits per iteration
        assert circuits_per_iteration(trace) == [9] * len(trace["iterations"])

    @pytest.mark.parametrize(
        "overrides",
        [
            ["pool.name=qubit_hardware_efficient", "initial.kind=basis:000000"],
            ["problem.kind=pauli_file", "problem.path={pauli}", "pool.name=qeb",
             "initial.kind=hartree-fock:2"],
        ],
        ids=["non-minimal-pool", "pauli-file-qeb"],
    )
    def test_plan_on_for_any_problem_and_pool(self, tmp_path, overrides):
        pauli = tmp_path / "h.txt"
        pauli.write_text("0.3 X0 X1\n0.2 Y1 Y2\n0.5 Z0 Z2\n-0.4 Z3\n0.1 X2 Z3\n0.25 Z0 Z1 Z2 Z3\n")
        overrides = [item.format(pauli=pauli) for item in overrides]
        overrides += ["driver.use_plan=on", "stop.max_operators=2"]
        config = load_run_config(ISING_CFG, overrides)
        assert config.use_plan
        h = config.hamiltonian
        groups = len(screening_plan(h.n_qubits, coefficient_observables(h, config.pool)[0]).groups)
        args = ["run", ISING_CFG, "--output", str(tmp_path / "out")]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 0
        trace = json.loads((tmp_path / "out" / "trace.json").read_text())
        assert trace["iterations"]
        assert circuits_per_iteration(trace) == [groups] * len(trace["iterations"])

    def test_sampled_landscape_from_five_circuits(self, tmp_path):
        # With the Ising plan, a sampled landscape dump reads generator 7's
        # coefficient strings once, through that generator's own plan (four
        # groups, so four noisy circuits); the curve should track the exact
        # landscape to within shot-noise scale.
        out = tmp_path / "noisy.csv"
        code = main(
            [
                "landscape", ISING_CFG, "--generator", "7", "--points", "32",
                "--backend", "sampled", "--shots", "4000", "--seed", "3",
                "--output", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        worst = max(
            abs(float(r.split(",")[1]) - float(r.split(",")[2])) for r in rows
        )
        assert 0.0 < worst < 0.25

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GGAVQE_OUTPUT_DIR", str(tmp_path / "env-out"))
        config = load_run_config(
            ISING_CFG, ["output.directory="]
        )
        # Explicit empty override falls back to the environment default.
        assert config.output_dir in ("", str(tmp_path / "env-out"))
        config = load_run_config(ISING_CFG, [])
        assert config.output_dir == "out/ising_n6"  # file value wins over env


@st.composite
def overlap_runs(draw):
    """``--set`` overrides of a run on the chain config with any driver and
    backend mode.  Overlap runs take a minimal (involutory) or QEB
    (tripotent) pool, any method and a random target ansatz text of that
    pool; ``gga2d`` runs a minimal or hardware-efficient pool; ``gga`` and
    ``adapt`` a minimal or QEB one."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("gga", "adapt", "gga2d", "overlap")))
    second = "qubit_hardware_efficient" if kind == "gga2d" else "qeb"
    pool = draw(st.sampled_from(("minimal_hardware_efficient", second)))
    cap = draw(st.integers(0, 3))
    overrides = [
        f"problem.n_qubits={n}", f"pool.name={pool}", f"driver.kind={kind}",
        f"backend.mode={draw(st.sampled_from(('exact', 'sampled')))}",
        f"backend.shots={draw(st.integers(1, 3000))}",
        f"backend.seed={draw(st.integers(0, 2**32 - 1))}",
        f"stop.max_operators={cap - cap % 2 if kind == 'gga2d' else cap}",
    ]
    if kind != "overlap":
        return None, overrides
    size = len(pools.minimal_hardware_efficient_pool(n) if pool != "qeb" else pools.qeb_pool(n))
    angles = st.floats(-np.pi, np.pi, allow_nan=False)
    steps = draw(st.lists(st.tuples(st.integers(0, size - 1), angles), max_size=3))
    bits = "".join(draw(st.sampled_from("01")) for _ in range(n))
    initial = draw(st.sampled_from(("uniform-minus", f"basis:{bits}")))
    target = "".join(
        [f"# ansatz v1\nn_qubits {n}\npool {pool}\ninitial {initial}\n"]
        + [f"step {gid} {theta!r}\n" for gid, theta in steps]
    )
    overrides += [
        f"initial.kind={initial}",
        f"driver.overlap_method={draw(st.sampled_from(OVERLAP_METHODS))}",
    ]
    return target, overrides


@given(overlap_runs())
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_overlap_trace_replays_to_its_exact_objective(case):
    """A trace's ansatz, replayed on the pool of its config echo, gives the
    recorded exact objective bit for bit: the energy on the echoed
    Hamiltonian (the library's exact <H>, from string values), or the
    fidelity with the echoed overlap target."""
    target, overrides = case
    with tempfile.TemporaryDirectory() as tmp:
        if target is not None:
            target_path = os.path.join(tmp, "target.ansatz")
            with open(target_path, "w", encoding="utf-8") as fh:
                fh.write(target)
            overrides = overrides + [f"driver.target_ansatz={target_path}"]
        args = ["run", CHAIN_CFG, "--output", os.path.join(tmp, "out")]
        for item in overrides:
            args += ["--set", item]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args) == 0
        with open(os.path.join(tmp, "out", "trace.json"), encoding="utf-8") as fh:
            trace = json.load(fh)
        rebuilt = os.path.join(tmp, "rebuilt.cfg")
        with open(rebuilt, "w", encoding="utf-8") as fh:
            fh.write(echo_to_config_text(trace["config"]))
        config = load_run_config(rebuilt)
    recorded = trace["ansatz"]
    ansatz = Ansatz(
        recorded["n_qubits"], parse_initial_state(recorded["initial"]),
        tuple(recorded["steps"]),
    )
    generators = config.pool.by_id()
    state = replay(ansatz, generators)
    if target is None:
        energy = ExpectationBackend().exact_value(state, config.hamiltonian)
        assert energy == trace["exact_objective"]
    else:
        assert fidelity(replay(config.overlap_target, generators), state) == trace["exact_objective"]


class TestLandscape:
    def test_reconstructed_matches_exact_column(self, tmp_path):
        out = tmp_path / "landscape.csv"
        code = main(
            [
                "landscape", ISING_CFG, "--generator", "7",
                "--points", "64", "--output", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 64
        for row in rows:
            _, recon, exact = (float(x) for x in row.split(","))
            assert recon == pytest.approx(exact, abs=1e-9)

    def test_planned_landscape_is_one_measurement(self, tmp_path, monkeypatch):
        # As planned screening does: one measure_strings call on the
        # unrotated state, no per-node expectations; the exact column comes
        # from the backend's uncharged exact_value, not from expectation.
        plans, expectations = [], []
        measure_strings = ExpectationBackend.measure_strings
        backend_expectation = ExpectationBackend.expectation

        def counted_measure(self, state, plan, *args, **kwargs):
            plans.append(plan)
            return measure_strings(self, state, plan, *args, **kwargs)

        def counted_expectation(self, *args, **kwargs):
            expectations.append(args)
            return backend_expectation(self, *args, **kwargs)

        monkeypatch.setattr(ExpectationBackend, "measure_strings", counted_measure)
        monkeypatch.setattr(ExpectationBackend, "expectation", counted_expectation)
        code = main(
            [
                "landscape", ISING_CFG, "--generator", "7", "--points", "16",
                "--backend", "sampled", "--shots", "4000", "--seed", "3",
                "--output", str(tmp_path / "noisy.csv"),
            ]
        )
        assert code == 0
        assert len(plans) == 1 and len(plans[0].groups) == 4
        assert expectations == []

    def test_generator_out_of_range(self, capsys):
        assert main(["landscape", ISING_CFG, "--generator", "99"]) == 2

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_exit_2(self, capsys, points):
        # -1 used to exit 1 with numpy's message about the sample count.
        assert main(["landscape", ISING_CFG, "--generator", "0", "--points", points]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--points" in err


class TestGroundTruth:
    def test_energy_and_fidelity(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", ISING_CFG, "--output", str(out)]) == 0
        capsys.readouterr()
        code = main(
            ["ground-truth", ISING_CFG, "--ansatz", str(out / "ansatz.txt")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ground_state_energy"] == pytest.approx(-3.1006073665, abs=1e-9)
        assert payload["ansatz_fidelity"] >= 0.98
        # The same exact <H> as the run's final objective, bit for bit.
        trace = json.loads((out / "trace.json").read_text())
        assert payload["ansatz_energy"] == trace["exact_objective"]

    @pytest.mark.parametrize("content", [None, "not an ansatz\n"], ids=["missing", "malformed"])
    def test_unreadable_ansatz_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "ansatz.txt"
        if content is not None:
            path.write_text(content)
        assert main(["ground-truth", ISING_CFG, "--ansatz", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --ansatz") and err.count("\n") == 1


class TestPoolAndHam:
    def test_pool_describe(self, capsys):
        assert main(["pool", "describe", ISING_CFG]) == 0
        text = capsys.readouterr().out
        assert "10 generators" in text and "Z4 Y5" in text

    @pytest.mark.parametrize(
        "argv",
        [["ham", "build", ISING_CFG], ["landscape", ISING_CFG, "--generator", "7"]],
        ids=["ham-build", "landscape"],
    )
    def test_output_file_is_not_an_output_directory(self, tmp_path, monkeypatch, argv):
        # Only run's --output names a directory; elsewhere it is a file.
        overrides = []

        def recording(path, items=None):
            overrides.extend(items or [])
            return load_run_config(path, items)

        monkeypatch.setattr(cli, "load_run_config", recording)
        assert main(argv + ["--output", str(tmp_path / "out.txt")]) == 0
        assert (tmp_path / "out.txt").exists()
        assert not [item for item in overrides if item.startswith("output.")]

    def test_ham_build_round_trip(self, tmp_path, capsys):
        out = tmp_path / "ham.txt"
        assert main(["ham", "build", ISING_CFG, "--output", str(out)]) == 0
        from ggavqe import IsingSpec, build_ising, load_pauli_sum

        assert load_pauli_sum(out) == build_ising(IsingSpec(6, 0.5, 0.2))

    def test_ham_jw(self, tmp_path, capsys):
        ints = tmp_path / "ints.txt"
        ints.write_text("norb 1\nnelec 1\nPQ 0 0 0.75\n")
        assert main(["ham", "jw", str(ints)]) == 0
        text = capsys.readouterr().out
        assert "0.375 I" in text and "-0.375 Z0" in text

    def test_ham_jw_bad_file(self, tmp_path, capsys):
        ints = tmp_path / "ints.txt"
        ints.write_text("norb 1\nPQ 0 0 zero\n")
        assert main(["ham", "jw", str(ints)]) == 2
