"""Run configuration: flat INI-style files with section.key overrides.

Every value is a string in the file and may be overridden on the command
line with ``--set section.key=value``.  The resolved configuration is echoed
verbatim into the run trace (minus the [output] section, which does not
affect the computation), so a trace can be re-run bit-identically from its
own echo.  Numbers must be finite; every unreadable value or input file and
every build a library refuses is a :class:`ConfigError` naming its key.
"""

from __future__ import annotations

import configparser
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import hamiltonians as hams
from . import pools as pool_lib
from .drivers import DEFAULT_MIN_OVERLAP_GAIN, DEFAULT_SWEEP_CAP, OVERLAP_METHODS, check_stop
from .measurement import DEFAULT_SHOTS, ExpectationBackend
from .pauli import PauliSum
from .records import StopRule
from .simulator import (
    MAX_SIMULATOR_QUBITS, Ansatz, InitialState, ansatz_from_text, parse_initial_state,
)

OUTPUT_DIR_ENV = "GGAVQE_OUTPUT_DIR"
_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """Validated run setup plus the flattened echo used for replays."""

    hamiltonian: PauliSum
    pool: pool_lib.Pool
    initial: InitialState
    driver: str
    backend: ExpectationBackend
    stop: StopRule
    use_plan: bool
    sweep_cap: int
    overlap_method: str
    overlap_target: Ansatz | None
    min_overlap_gain: float
    output_dir: str
    echo: dict[str, str] = field(default_factory=dict)


def _parse_file(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value.strip()
    return flat


def _apply_overrides(flat: dict[str, str], overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, value = item.split("=", 1)
        flat[key.strip()] = value.strip()


@contextmanager
def reading(key: str):
    """Report a library ``ValueError`` or ``OSError`` raised inside the block
    as a :class:`ConfigError` that names ``key``."""
    try:
        yield
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _get(flat: dict[str, str], key: str, default: str | None = None) -> str:
    value = flat.get(key, default)
    if value is None:
        raise ConfigError(f"missing required config field {key!r}")
    return value


def _number(flat: dict[str, str], key: str, cast=float, default=_REQUIRED):
    """``flat[key]`` read by ``cast`` and checked finite; ``default`` when
    the field is empty or absent (required when no default is given)."""
    raw = flat.get(key, "")
    if raw == "":
        if default is _REQUIRED:
            raise ConfigError(f"missing required config field {key!r}")
        return default
    with reading(key):
        value = cast(raw)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _non_negative(flat: dict[str, str], key: str, cast, default):
    """``_number`` that also refuses a negative value: a negative threshold
    or cap would silently disable what it bounds."""
    value = _number(flat, key, cast, default)
    if value is not None and value < 0:
        raise ConfigError(f"{key} must be non-negative, got {value}")
    return value


def _float_list(flat, key, count):
    raw = flat.get(key, "")
    if raw == "":
        return (0.0,) * count
    values = tuple(_number({key: part}, key) for part in raw.replace(",", " ").split())
    if len(values) == 1:
        return values * count
    if len(values) != count:
        raise ConfigError(f"field {key!r} needs 1 or {count} values, got {len(values)}")
    return values


def build_problem(flat: dict[str, str]) -> tuple[PauliSum, str]:
    kind = _get(flat, "problem.kind")
    if kind == "ising":
        n = _number(flat, "problem.n_qubits", int)
        with reading("problem.n_qubits"):
            spec = hams.IsingSpec(n, _number(flat, "problem.h"), _number(flat, "problem.j"))
            return hams.build_ising(spec), kind
    if kind == "general_chain":
        n = _number(flat, "problem.n_qubits", int)
        with reading("problem.n_qubits"):
            spec = hams.GeneralSpinChainSpec(
                n,
                _float_list(flat, "problem.hx", n),
                _float_list(flat, "problem.hz", n),
                _float_list(flat, "problem.jx", n - 1),
                _float_list(flat, "problem.jy", n - 1),
                _float_list(flat, "problem.jz", n - 1),
            )
            return hams.build_general_chain(spec), kind
    if kind == "pauli_file":
        path = _get(flat, "problem.path")
        n = _number(flat, "problem.n_qubits", int, None)
        with reading("problem.path"):
            return hams.load_pauli_sum(path, n_qubits=n), kind
    if kind == "molecule":
        path = _get(flat, "problem.integrals")
        with reading("problem.integrals"):
            return hams.map_molecular_hamiltonian(hams.load_integrals(path)), kind
    raise ConfigError(f"problem.kind must be one of ising, general_chain, "
                      f"pauli_file, molecule; got {kind!r}")


def build_pool(flat: dict[str, str], n_qubits: int) -> pool_lib.Pool:
    name = _get(flat, "pool.name")
    with reading("pool.name"):
        if name == pool_lib.QEB:
            return pool_lib.qeb_pool(n_qubits)
        if name == pool_lib.QUBIT_HARDWARE_EFFICIENT:
            return pool_lib.qubit_hardware_efficient_pool(n_qubits)
        if name == pool_lib.MINIMAL_HARDWARE_EFFICIENT:
            return pool_lib.minimal_hardware_efficient_pool(n_qubits)
    if name == "pairwise_single":
        raw = _get(flat, "pool.pairs")
        letters = flat.get("pool.letters", "XX")
        if len(letters) != 2:
            raise ConfigError(f"pool.letters must be two Pauli letters, got {letters!r}")
        with reading("pool.pairs"):
            pairs = [tuple(map(int, chunk.split(":"))) for chunk in raw.replace(",", " ").split()]
            return pool_lib.pairwise_single_pool(n_qubits, pairs, letters=letters)
    if name == pool_lib.CUSTOM:
        path = _get(flat, "pool.file")
        with reading("pool.file"):
            return pool_lib.load_custom_pool(path, n_qubits)
    raise ConfigError(
        "pool.name must be one of qeb, qubit_hardware_efficient, "
        f"minimal_hardware_efficient, pairwise_single, custom; got {name!r}"
    )


def build_initial(flat: dict[str, str], n_qubits: int) -> InitialState:
    spec = _get(flat, "initial.kind", "uniform-minus")
    with reading("initial.kind"):
        if spec.startswith("hartree-fock:"):
            nelec = int(spec.split(":", 1)[1])
            spec = "basis:" + hams.hartree_fock_occupations(nelec, n_qubits)
        initial = parse_initial_state(spec)
    bits = initial.occupations
    if bits is not None and (len(bits) != n_qubits or any(c not in "01" for c in bits)):
        raise ConfigError(f"initial.kind basis string must be {n_qubits} bits")
    return initial


def read_ansatz(path: str, pool: pool_lib.Pool, key: str) -> Ansatz:
    """The ansatz saved at ``path``, checked against ``pool``; errors name ``key``."""
    with reading(key), open(path, "r", encoding="utf-8") as fh:
        ansatz, pool_name = ansatz_from_text(fh.read())
    if pool_name != pool.name:
        raise ConfigError(f"{key} was built with pool {pool_name!r}, config uses {pool.name!r}")
    if ansatz.n_qubits != pool.n_qubits:
        raise ConfigError(f"{key} register size mismatch")
    unknown = sorted({gid for gid, _ in ansatz.steps} - pool.by_id().keys())
    if unknown:
        raise ConfigError(f"{key}: generator ids {unknown} are not in pool {pool.name!r}")
    return ansatz


def _resolve_plan(flat, problem_kind, n_qubits, pool, driver) -> bool:
    """Whether to screen through a synthesised plan; ``auto`` plans spin
    chains of three or more qubits with the minimal pool."""
    mode = flat.get("driver.use_plan", "auto")
    if mode not in ("auto", "on", "off"):
        raise ConfigError(f"driver.use_plan must be auto, on, or off; got {mode!r}")
    if mode == "on" and driver in ("gga2d", "overlap"):
        raise ConfigError(f"driver.use_plan=on is not supported by driver.kind={driver}")
    if mode == "auto":
        return (
            problem_kind in ("ising", "general_chain")
            and pool.name == pool_lib.MINIMAL_HARDWARE_EFFICIENT
            and n_qubits >= 3
        )
    return mode == "on"


def load_run_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    flat = _parse_file(path)
    _apply_overrides(flat, overrides or [])

    hamiltonian, problem_kind = build_problem(flat)
    n_qubits = hamiltonian.n_qubits
    if n_qubits > MAX_SIMULATOR_QUBITS:
        raise ConfigError(
            f"{n_qubits} qubits exceeds the simulator limit ({MAX_SIMULATOR_QUBITS})"
        )
    pool = build_pool(flat, n_qubits)
    initial = build_initial(flat, n_qubits)

    driver = _get(flat, "driver.kind", "gga")
    if driver not in ("gga", "adapt", "overlap", "gga2d"):
        raise ConfigError(
            f"driver.kind must be gga, adapt, overlap, or gga2d; got {driver!r}"
        )

    mode = _get(flat, "backend.mode", "exact")
    if mode not in ("exact", "sampled"):
        raise ConfigError(f"backend.mode must be exact or sampled, got {mode!r}")
    shots = _number(flat, "backend.shots", int, DEFAULT_SHOTS)
    seed = _number(flat, "backend.seed", int, 0)
    with reading("backend.shots"):
        backend = ExpectationBackend(mode, shots=shots)
    with reading("backend.seed"):
        backend.seed = seed

    with reading("stop"):
        stop = StopRule(
            max_operators=_number(flat, "stop.max_operators", int, None),
            gradient_epsilon=_non_negative(flat, "stop.gradient_epsilon", float, None),
            min_energy_decrease=_non_negative(flat, "stop.min_energy_decrease", float, None),
        )
        check_stop(driver, stop)

    use_plan = _resolve_plan(flat, problem_kind, n_qubits, pool, driver)
    sweep_cap = _non_negative(flat, "driver.sweep_cap", int, DEFAULT_SWEEP_CAP)

    overlap_method = flat.get("driver.overlap_method", "compute_uncompute")
    if overlap_method not in OVERLAP_METHODS:
        raise ConfigError(
            f"driver.overlap_method must be one of {', '.join(OVERLAP_METHODS)}; "
            f"got {overlap_method!r}"
        )
    overlap_target = None
    if driver == "overlap":
        key = "driver.target_ansatz"
        overlap_target = read_ansatz(_get(flat, key), pool, key)

    output_dir = flat.get(
        "output.directory", os.environ.get(OUTPUT_DIR_ENV, "ggavqe-out")
    )

    echo = {k: v for k, v in sorted(flat.items()) if not k.startswith("output.")}
    return RunConfig(
        hamiltonian=hamiltonian,
        pool=pool,
        initial=initial,
        driver=driver,
        backend=backend,
        stop=stop,
        use_plan=use_plan,
        sweep_cap=sweep_cap,
        overlap_method=overlap_method,
        overlap_target=overlap_target,
        min_overlap_gain=_non_negative(
            flat, "driver.min_overlap_gain", float, DEFAULT_MIN_OVERLAP_GAIN
        ),
        output_dir=output_dir,
        echo=echo,
    )


def echo_to_config_text(echo: dict[str, str]) -> str:
    """Render an echoed configuration back into the INI file format.

    Keys without a section (``overlap_method``, ``min_overlap_gain``,
    ``dimensions``) are the driver's notes on the values it ran with, not
    config keys, and are left out.
    """
    sections: dict[str, list[tuple[str, str]]] = {}
    for key, value in echo.items():
        if "." not in key:
            continue
        section, name = key.split(".", 1)
        sections.setdefault(section, []).append((name, value))
    lines = []
    for section in sorted(sections):
        lines.append(f"[{section}]")
        for name, value in sections[section]:
            lines.append(f"{name} = {value}")
        lines.append("")
    return "\n".join(lines)
