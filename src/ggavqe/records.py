"""Run records: the stop rule a driver honours and the trace it returns.

A :class:`RunTrace` serializes to the deterministic ``trace.json`` described
in ``docs/formats.md``; ``convergence.csv`` is its flat extract.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .simulator import Ansatz


@dataclass(frozen=True)
class StopRule:
    """At least one of the three criteria must be set."""

    max_operators: int | None = None
    gradient_epsilon: float | None = None
    min_energy_decrease: float | None = None

    def __post_init__(self):
        if (
            self.max_operators is None
            and self.gradient_epsilon is None
            and self.min_energy_decrease is None
        ):
            raise ValueError("a stop rule needs at least one criterion")
        if self.max_operators is not None and self.max_operators < 0:
            raise ValueError("max_operators must be non-negative")


@dataclass
class IterationRecord:
    iteration: int
    e0: float
    selected_ids: list[int]
    selected_labels: list[str]
    angles: list[float]
    predicted_value: float
    screening: list[dict]
    accounting: dict


@dataclass
class RunTrace:
    """Full record of one adaptive run; serializes to deterministic JSON."""

    mode: str  # "energy" | "overlap"
    n_qubits: int
    pool_name: str
    backend: dict
    stop: dict
    config: dict
    iterations: list[IterationRecord] = field(default_factory=list)
    status: str = "running"
    final_objective: float | None = None
    exact_objective: float | None = None
    ansatz: Ansatz | None = None
    accounting: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "version": 1,
            "mode": self.mode,
            "n_qubits": self.n_qubits,
            "pool": self.pool_name,
            "backend": self.backend,
            "stop": self.stop,
            "config": self.config,
            "iterations": [asdict(rec) for rec in self.iterations],
            "status": self.status,
            "final_objective": self.final_objective,
            "exact_objective": self.exact_objective,
            "accounting": self.accounting,
        }
        if self.ansatz is not None:
            out["ansatz"] = {
                "n_qubits": self.ansatz.n_qubits,
                "initial": self.ansatz.initial.describe(),
                "steps": [[gid, theta] for gid, theta in self.ansatz.steps],
            }
        if self.extras:
            out["extras"] = self.extras
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def energies(self) -> list[float]:
        """The recorded objective series: initial e0 then one value per step."""
        if not self.iterations:
            return []
        return [self.iterations[0].e0] + [r.predicted_value for r in self.iterations]

    def convergence_csv(self) -> str:
        lines = ["iteration,objective,selected_ids,angles,circuits,shots"]
        for rec in self.iterations:
            ids = ";".join(str(i) for i in rec.selected_ids)
            angles = ";".join(f"{a:.17g}" for a in rec.angles)
            lines.append(
                f"{rec.iteration},{rec.predicted_value:.17g},{ids},{angles},"
                f"{rec.accounting['circuits']},{rec.accounting['shots']}"
            )
        return "\n".join(lines) + "\n"
