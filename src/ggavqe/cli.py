"""Command-line entry point.

Subcommands: ``run``, ``landscape``, ``ground-truth``, ``pool describe``,
``ham build``, ``ham jw``.  Exit codes: 0 success, 1 runtime failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import hamiltonians as hams
from .config import ConfigError, RunConfig, load_run_config, read_ansatz, reading
from .drivers import _EnergyObjective, adapt_vqe, gga_vqe, gga_vqe_2d, overlap_gga_vqe
from .pauli import dumps as pauli_dumps
from .pools import Pool
from .records import RunTrace
from .simulator import (
    DENSE_DIAGONALIZATION_LIMIT,
    InvariantError,
    ansatz_to_text,
    apply_exp_generator,
    exact_ground_state,
    fidelity,
    replay,
)


def _common_overrides(args) -> list[str]:
    overrides = list(args.set or [])
    if getattr(args, "backend", None):
        overrides.append(f"backend.mode={args.backend}")
    if getattr(args, "shots", None) is not None:
        overrides.append(f"backend.shots={args.shots}")
    if getattr(args, "seed", None) is not None:
        overrides.append(f"backend.seed={args.seed}")
    if getattr(args, "output_dir", None):
        overrides.append(f"output.directory={args.output_dir}")
    return overrides


def _load(args) -> RunConfig:
    return load_run_config(args.config, _common_overrides(args))


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _execute(config: RunConfig) -> RunTrace:
    if config.driver == "gga":
        return gga_vqe(
            config.hamiltonian, config.pool, config.initial, config.backend,
            config.stop, use_plan=config.use_plan, config=config.echo,
        )
    if config.driver == "adapt":
        return adapt_vqe(
            config.hamiltonian, config.pool, config.initial, config.backend,
            config.stop, use_plan=config.use_plan, sweep_cap=config.sweep_cap,
            config=config.echo,
        )
    if config.driver == "gga2d":
        return gga_vqe_2d(
            config.hamiltonian, config.pool, config.initial, config.backend,
            config.stop, config=config.echo,
        )
    return overlap_gga_vqe(
        config.overlap_target, config.pool, config.initial,
        config.overlap_method, config.backend, config.stop,
        min_overlap_gain=config.min_overlap_gain, config=config.echo,
    )


def cmd_run(args) -> int:
    config = _load(args)
    trace = _execute(config)
    if (
        trace.mode == "energy"
        and config.hamiltonian.n_qubits <= DENSE_DIAGONALIZATION_LIMIT
    ):
        energy, ground = exact_ground_state(config.hamiltonian)
        final_state = replay(trace.ansatz, config.pool.by_id())
        trace.extras["ground_state_energy"] = energy
        trace.extras["fidelity_vs_ground_state"] = fidelity(final_state, ground)
    os.makedirs(config.output_dir, exist_ok=True)
    trace_path = os.path.join(config.output_dir, "trace.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(trace.to_json())
    with open(os.path.join(config.output_dir, "convergence.csv"), "w", encoding="utf-8") as fh:
        fh.write(trace.convergence_csv())
    if trace.ansatz.initial.kind != "custom":
        with open(os.path.join(config.output_dir, "ansatz.txt"), "w", encoding="utf-8") as fh:
            fh.write(ansatz_to_text(trace.ansatz, pool_name=config.pool.name))
    label = "energy" if trace.mode == "energy" else "overlap"
    print(f"status: {trace.status} after {len(trace.iterations)} iterations")
    print(f"final {label}: {trace.final_objective:.12g}")
    print(f"exact replay {label}: {trace.exact_objective:.12g}")
    if "fidelity_vs_ground_state" in trace.extras:
        print(f"fidelity vs exact ground state: {trace.extras['fidelity_vs_ground_state']:.12g}")
    print(f"trace: {trace_path}")
    return 0


def cmd_landscape(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    config = _load(args)
    pool = config.pool
    if not 0 <= args.generator < len(pool):
        raise ConfigError(
            f"generator id {args.generator} outside pool of size {len(pool)}"
        )
    gen = pool[args.generator]
    state = config.initial.prepare(pool.n_qubits)
    # The drivers' first screening, over a pool of this one generator.
    objective = _EnergyObjective(
        config.hamiltonian, Pool(pool.name, pool.n_qubits, (gen,)), config.backend,
        config.use_plan,
    )
    _, (model,) = objective.screen(state, 0)
    thetas = np.linspace(-np.pi, np.pi, args.points, endpoint=False)
    lines = ["theta,reconstructed,exact"]
    for theta in thetas:
        exact_model_value = config.backend.exact_value(
            apply_exp_generator(state, gen, float(theta)), config.hamiltonian
        )
        lines.append(
            f"{theta:.12g},{model.evaluate(float(theta)):.17g},{exact_model_value:.17g}"
        )
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def cmd_ground_truth(args) -> int:
    config = _load(args)
    if config.hamiltonian.n_qubits > DENSE_DIAGONALIZATION_LIMIT:
        raise ConfigError(
            f"ground truth needs n_qubits <= {DENSE_DIAGONALIZATION_LIMIT}"
        )
    energy, ground = exact_ground_state(config.hamiltonian)
    out = {"n_qubits": config.hamiltonian.n_qubits, "ground_state_energy": energy}
    if args.ansatz:
        state = replay(read_ansatz(args.ansatz, config.pool, "--ansatz"), config.pool.by_id())
        out["ansatz_fidelity"] = fidelity(state, ground)
        out["ansatz_energy"] = config.backend.exact_value(state, config.hamiltonian)
    print(json.dumps(out, indent=2))
    return 0


def cmd_pool_describe(args) -> int:
    config = _load(args)
    print(config.pool.describe())
    return 0


def cmd_ham_build(args) -> int:
    _write_text(pauli_dumps(_load(args).hamiltonian), args.output)
    return 0


def cmd_ham_jw(args) -> int:
    with reading("integrals"):
        mapped = hams.map_molecular_hamiltonian(hams.load_integrals(args.integrals))
    _write_text(pauli_dumps(mapped), args.output)
    return 0


def _add_config_options(parser, with_backend_flags=False):
    parser.add_argument("config", help="path to the INI run configuration")
    parser.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE",
        help="override a config field (repeatable)",
    )
    if with_backend_flags:
        parser.add_argument("--backend", choices=["exact", "sampled"])
        parser.add_argument("--shots", type=int)
        parser.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggavqe",
        description="Greedy gradient-free adaptive VQE on a state-vector simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an adaptive run, write trace + CSV")
    _add_config_options(p_run, with_backend_flags=True)
    p_run.add_argument("--output", dest="output_dir", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_land = sub.add_parser(
        "landscape", help="dump (theta, reconstructed, exact) landscape CSV"
    )
    _add_config_options(p_land, with_backend_flags=True)
    p_land.add_argument("--generator", type=int, required=True)
    p_land.add_argument("--points", type=int, default=256)
    p_land.add_argument("--output", help="CSV output file (stdout if omitted)")
    p_land.set_defaults(func=cmd_landscape)

    p_truth = sub.add_parser(
        "ground-truth", help="exact diagonalization energy (and ansatz fidelity)"
    )
    _add_config_options(p_truth)
    p_truth.add_argument("--ansatz", help="ansatz text file to score")
    p_truth.set_defaults(func=cmd_ground_truth)

    p_pool = sub.add_parser("pool", help="operator-pool utilities")
    pool_sub = p_pool.add_subparsers(dest="pool_command", required=True)
    p_desc = pool_sub.add_parser("describe", help="list generators of the pool")
    _add_config_options(p_desc)
    p_desc.set_defaults(func=cmd_pool_describe)

    p_ham = sub.add_parser("ham", help="Hamiltonian utilities")
    ham_sub = p_ham.add_subparsers(dest="ham_command", required=True)
    p_build = ham_sub.add_parser("build", help="write the problem Hamiltonian")
    _add_config_options(p_build)
    p_build.add_argument("--output")
    p_build.set_defaults(func=cmd_ham_build)
    p_jw = ham_sub.add_parser("jw", help="Jordan-Wigner map an integral file")
    p_jw.add_argument("integrals", help="path to the integral text file")
    p_jw.add_argument("--output")
    p_jw.set_defaults(func=cmd_ham_jw)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
