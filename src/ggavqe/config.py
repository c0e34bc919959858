"""Run configuration: flat INI-style files with section.key overrides.

Every value is a string in the file and may be overridden on the command
line with ``--set section.key=value``.  The resolved configuration is echoed
verbatim into the run trace (minus the [output] section, which does not
affect the computation), so a trace can be re-run bit-identically from its
own echo.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from . import hamiltonians as hams
from . import pools as pool_lib
from .drivers import DEFAULT_MIN_OVERLAP_GAIN, DEFAULT_SWEEP_CAP, OVERLAP_METHODS, check_stop
from .measurement import DEFAULT_SHOTS, ExpectationBackend
from .pauli import PauliSum
from .records import StopRule
from .simulator import MAX_SIMULATOR_QUBITS, Ansatz, InitialState, ansatz_from_text

OUTPUT_DIR_ENV = "GGAVQE_OUTPUT_DIR"


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


def _get(flat: dict[str, str], key: str, default: str | None = None) -> str:
    value = flat.get(key, default)
    if value is None:
        raise ConfigError(f"missing required config field {key!r}")
    return value


def _get_float(flat, key, default=None):
    raw = flat.get(key, "")
    if raw == "" or raw is None:
        if default is None:
            raise ConfigError(f"missing required config field {key!r}")
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"field {key!r} must be a number, got {raw!r}") from None


def _get_int(flat, key, default=None):
    raw = flat.get(key, "")
    if raw == "" or raw is None:
        if default is None:
            raise ConfigError(f"missing required config field {key!r}")
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"field {key!r} must be an integer, got {raw!r}") from None


def _optional_float(flat, key):
    raw = flat.get(key, "")
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"field {key!r} must be a number, got {raw!r}") from None


def _optional_int(flat, key):
    raw = flat.get(key, "")
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"field {key!r} must be an integer, got {raw!r}") from None


def _float_list(flat, key, count, default=0.0):
    raw = flat.get(key, "")
    if raw == "":
        return (default,) * count
    parts = [p for p in raw.replace(",", " ").split() if p]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"field {key!r} must list numbers, got {raw!r}") from None
    if len(values) == 1:
        return values * count
    if len(values) != count:
        raise ConfigError(f"field {key!r} needs 1 or {count} values, got {len(values)}")
    return values


def build_problem(flat: dict[str, str]) -> tuple[PauliSum, str]:
    kind = _get(flat, "problem.kind")
    if kind == "ising":
        n = _get_int(flat, "problem.n_qubits")
        spec = hams.IsingSpec(n, _get_float(flat, "problem.h"), _get_float(flat, "problem.j"))
        return hams.build_ising(spec), kind
    if kind == "general_chain":
        n = _get_int(flat, "problem.n_qubits")
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
        n = _optional_int(flat, "problem.n_qubits")
        try:
            return hams.load_pauli_sum(path, n_qubits=n), kind
        except (OSError, ValueError) as exc:
            raise ConfigError(f"problem.path: {exc}") from None
    if kind == "molecule":
        path = _get(flat, "problem.integrals")
        try:
            ints = hams.load_integrals(path)
            return hams.map_molecular_hamiltonian(ints), kind
        except (OSError, ValueError) as exc:
            raise ConfigError(f"problem.integrals: {exc}") from None
    raise ConfigError(f"problem.kind must be one of ising, general_chain, "
                      f"pauli_file, molecule; got {kind!r}")


def build_pool(flat: dict[str, str], n_qubits: int) -> pool_lib.Pool:
    name = _get(flat, "pool.name")
    if name == pool_lib.QEB:
        return pool_lib.qeb_pool(n_qubits)
    if name == pool_lib.QUBIT_HARDWARE_EFFICIENT:
        return pool_lib.qubit_hardware_efficient_pool(n_qubits)
    if name == pool_lib.MINIMAL_HARDWARE_EFFICIENT:
        return pool_lib.minimal_hardware_efficient_pool(n_qubits)
    if name == "pairwise_single":
        raw = _get(flat, "pool.pairs")
        pairs = []
        for chunk in raw.replace(",", " ").split():
            bits = chunk.split(":")
            if len(bits) != 2 or not all(b.isdigit() for b in bits):
                raise ConfigError(
                    f"pool.pairs entries must be p:q with integer qubits, got {chunk!r}"
                )
            pairs.append((int(bits[0]), int(bits[1])))
        letters = flat.get("pool.letters", "XX")
        if len(letters) != 2:
            raise ConfigError(f"pool.letters must be two Pauli letters, got {letters!r}")
        try:
            return pool_lib.pairwise_single_pool(n_qubits, pairs, letters=letters)
        except ValueError as exc:
            raise ConfigError(f"pairwise_single pool: {exc}") from None
    if name == pool_lib.CUSTOM:
        path = _get(flat, "pool.file")
        try:
            return pool_lib.load_custom_pool(path, n_qubits)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"pool.file: {exc}") from None
    raise ConfigError(
        "pool.name must be one of qeb, qubit_hardware_efficient, "
        f"minimal_hardware_efficient, pairwise_single, custom; got {name!r}"
    )


def build_initial(flat: dict[str, str], n_qubits: int) -> InitialState:
    spec = _get(flat, "initial.kind", "uniform-minus")
    if spec == "uniform-minus":
        return InitialState("uniform-minus")
    if spec.startswith("basis:"):
        bits = spec.split(":", 1)[1]
        if len(bits) != n_qubits or any(c not in "01" for c in bits):
            raise ConfigError(f"initial.kind basis string must be {n_qubits} bits")
        return InitialState("basis", occupations=bits)
    if spec.startswith("hartree-fock:"):
        try:
            nelec = int(spec.split(":", 1)[1])
            occupations = hams.hartree_fock_occupations(nelec, n_qubits)
        except ValueError as exc:
            raise ConfigError(f"initial.kind {spec!r}: {exc}") from None
        return InitialState("basis", occupations=occupations)
    raise ConfigError(f"initial.kind not understood: {spec!r}")


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
    shots = _get_int(flat, "backend.shots", DEFAULT_SHOTS)
    if mode == "sampled" and shots <= 0:
        raise ConfigError(f"backend.shots must be positive in sampled mode, got {shots}")
    backend = ExpectationBackend(mode, shots=shots, seed=_get_int(flat, "backend.seed", 0))

    try:
        stop = StopRule(
            max_operators=_optional_int(flat, "stop.max_operators"),
            gradient_epsilon=_optional_float(flat, "stop.gradient_epsilon"),
            min_energy_decrease=_optional_float(flat, "stop.min_energy_decrease"),
        )
        check_stop(driver, stop)
    except ValueError as exc:
        raise ConfigError(f"stop: {exc}") from None

    use_plan = _resolve_plan(flat, problem_kind, n_qubits, pool, driver)

    overlap_method = flat.get("driver.overlap_method", "exact")
    if overlap_method not in OVERLAP_METHODS:
        raise ConfigError(
            f"driver.overlap_method must be one of {', '.join(OVERLAP_METHODS)}; "
            f"got {overlap_method!r}"
        )
    overlap_target = None
    if driver == "overlap":
        target_path = flat.get("driver.target_ansatz", "")
        if not target_path:
            raise ConfigError("driver.target_ansatz is required for the overlap driver")
        try:
            with open(target_path, "r", encoding="utf-8") as fh:
                overlap_target, target_pool = ansatz_from_text(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"driver.target_ansatz: {exc}") from None
        if target_pool != pool.name:
            raise ConfigError(
                f"driver.target_ansatz was built with pool {target_pool!r}, "
                f"config uses {pool.name!r}"
            )
        if overlap_target.n_qubits != n_qubits:
            raise ConfigError("driver.target_ansatz register size mismatch")

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
        sweep_cap=_get_int(flat, "driver.sweep_cap", DEFAULT_SWEEP_CAP),
        overlap_method=overlap_method,
        overlap_target=overlap_target,
        min_overlap_gain=_get_float(
            flat, "driver.min_overlap_gain", DEFAULT_MIN_OVERLAP_GAIN
        ),
        output_dir=output_dir,
        echo=echo,
    )


def echo_to_config_text(echo: dict[str, str]) -> str:
    """Render an echoed configuration back into the INI file format."""
    sections: dict[str, list[tuple[str, str]]] = {}
    for key, value in echo.items():
        section, name = key.split(".", 1)
        sections.setdefault(section, []).append((name, value))
    lines = []
    for section in sorted(sections):
        lines.append(f"[{section}]")
        for name, value in sections[section]:
            lines.append(f"{name} = {value}")
        lines.append("")
    return "\n".join(lines)
