"""Analytic landscape reconstruction and minimization.

For a hermitian generator B and state |phi>, the landscape

    L(t) = <phi| exp(+i t B) H exp(-i t B) |phi>

is an elementary trig polynomial whose coefficients are fixed expectation
values:

    involutory (B^2 = I):
        L(t) = cos^2(t) e0 + sin(2t)/2 * g + sin^2(t) * b
        with e0 = <H>, g = <i[B,H]>, b = <BHB>

    tripotent (B^3 = B):
        L(t) = e0 + (cos t - 1) c0 + (1 - cos t)^2 c1
                  + sin t (cos t - 1) c2 + sin t * g
        with c0 = <{H,B^2}> - 2<BHB>, c1 = <B^2HB^2> - <BHB>,
             c2 = <iB[H,B]B>, g = <i[B,H]>

Reconstruction samples L at pinned angles in the *scaled* variable
(t = angle_scale * theta): {+-pi/4} for involutory generators and
{+-pi/4, +-pi/2} for tripotent ones, sharing the theta = 0 value; these nodes
keep the small linear systems well conditioned.  With an exact backend the
recovered model is exact; with a shot-sampled backend its coefficients
converge at the usual 1/sqrt(shots) rate.

Both kinds are short trigonometric polynomials, so ``minimize`` is exact:
its candidates are the closed-form stationary points (one per period for
involutory bodies, the root angles of a quartic for tripotent ones), their
images inside the reachable window, and the domain edges when that window
is shorter than one period.

The two-dimensional surface for an involutory pair (B1 applied first, B2
second) expands into the 9-term basis
{cos^2, sin cos, sin^2}(t1) x {cos^2, sin cos, sin^2}(t2); all nine
coefficients are pinned by samples on the 3x3 angle grid {0, +-pi/4}^2 (the
theta = 0 value shared, 8 fresh evaluations).  Seven point samples cannot
determine the surface: the basis is 9-dimensional and the deficiency is a
genuinely observable function, so the full grid is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli import PauliSum, commutator, conjugate_by
from .simulator import (
    INVOLUTORY,
    TRIPOTENT,
    Generator,
    StateVector,
    apply_exp_generator,
    wrap_angle,
)

VALUE_TIE_TOLERANCE = 1e-12
NEWTON_DERIVATIVE_TOLERANCE = 1e-12
GRID_POINTS_2D = 256
# Largest float that wrap_angle keeps below pi.
_UPPER_EDGE = float(np.nextafter(2.0 * np.pi, 0.0) - np.pi)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LandscapeModel:
    """Reconstructed 1-D landscape for one generator.

    ``evaluate`` applies the angle scale first, so the model is a function of
    the raw step angle theta in [-pi, pi).
    """

    kind: str
    angle_scale: float
    e0: float
    g: float
    b: float = 0.0
    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0

    def evaluate(self, theta):
        t = self.angle_scale * np.asarray(theta, dtype=float)
        if self.kind == INVOLUTORY:
            value = (
                np.cos(t) ** 2 * self.e0
                + 0.5 * np.sin(2.0 * t) * self.g
                + np.sin(t) ** 2 * self.b
            )
        else:
            ct, st = np.cos(t), np.sin(t)
            value = (
                self.e0
                + (ct - 1.0) * self.c0
                + (1.0 - ct) ** 2 * self.c1
                + st * (ct - 1.0) * self.c2
                + st * self.g
            )
        return float(value) if np.isscalar(theta) else value

    def derivative(self, theta):
        s = self.angle_scale
        t = s * np.asarray(theta, dtype=float)
        if self.kind == INVOLUTORY:
            value = s * (
                -np.sin(2.0 * t) * self.e0
                + np.cos(2.0 * t) * self.g
                + np.sin(2.0 * t) * self.b
            )
        else:
            ct, st = np.cos(t), np.sin(t)
            value = s * (
                -st * self.c0
                + 2.0 * (1.0 - ct) * st * self.c1
                + (ct * (ct - 1.0) - st * st) * self.c2
                + ct * self.g
            )
        return float(value) if np.isscalar(theta) else value

    @property
    def derivative_at_zero(self) -> float:
        """dL/dtheta at 0; the gradient used by the ADAPT selection rule."""
        return self.angle_scale * self.g

    def negated(self) -> "LandscapeModel":
        return LandscapeModel(
            self.kind, self.angle_scale, -self.e0, -self.g,
            -self.b, -self.c0, -self.c1, -self.c2,
        )


def reconstruct(
    backend,
    h: PauliSum,
    generator: Generator,
    state: StateVector,
    shared_e0: float | None = None,
    context: tuple[int, ...] = (),
) -> LandscapeModel:
    """Reconstruct the landscape of one generator from backend evaluations.

    ``backend`` must provide ``expectation(state, h, context=...)``;
    ``shared_e0`` supplies the <H> value measured once per outer iteration so
    screening a pool of M involutory (tripotent) generators costs exactly
    2M+1 (4M+1) evaluations.
    """

    def sample(node: float, tag: int) -> float:
        rotated = apply_exp_generator(state, generator, node / generator.angle_scale)
        return backend.expectation(rotated, h, context=context + (tag,))

    if shared_e0 is None:
        shared_e0 = backend.expectation(state, h, context=context + (0,))
    return reconstruct_from_samples(generator, sample, shared_e0)


def reconstruct_from_samples(
    generator: Generator,
    sample: Callable[[float, int], float],
    e0: float,
) -> LandscapeModel:
    """Solve the pinned-node linear system given a sampling callable.

    ``sample(node, tag)`` must return L at scaled angle ``node``; ``tag``
    distinguishes the evaluations for deterministic RNG substreams.
    """
    if generator.kind == INVOLUTORY:
        l_plus = sample(np.pi / 4.0, 1)
        l_minus = sample(-np.pi / 4.0, 2)
        # L(+-pi/4) = (e0 + b)/2 +- g/2
        g = l_plus - l_minus
        b = l_plus + l_minus - e0
        return LandscapeModel(INVOLUTORY, generator.angle_scale, e0, g, b)
    nodes = (np.pi / 2.0, -np.pi / 2.0, np.pi / 4.0, -np.pi / 4.0)
    values = np.array([sample(t, i + 1) for i, t in enumerate(nodes)])
    rows = []
    for t in nodes:
        ct, st = np.cos(t), np.sin(t)
        rows.append([ct - 1.0, (1.0 - ct) ** 2, st * (ct - 1.0), st])
    solution = np.linalg.solve(np.array(rows), values - e0)
    c0, c1, c2, g = (float(v) for v in solution)
    return LandscapeModel(
        TRIPOTENT, generator.angle_scale, e0, g, c0=c0, c1=c1, c2=c2
    )


def coefficient_observables(h: PauliSum, generator: Generator) -> dict[str, PauliSum]:
    """Symbolic operators whose expectations are the model coefficients.

    Used by the grouped-measurement screening path: with string expectations
    in hand, the landscape follows without rotating the state at all.
    """
    body = generator.body
    grad_op = 1j * commutator(body, h)
    if generator.kind == INVOLUTORY:
        return {"h": h, "g": grad_op, "b": conjugate_by(h, body)}
    b2 = body @ body
    bhb = conjugate_by(h, body)
    return {
        "h": h,
        "g": grad_op,
        "c0": (b2 @ h) + (h @ b2) - 2.0 * bhb,
        "c1": conjugate_by(h, b2) - bhb,
        "c2": 1j * (body @ commutator(h, body) @ body),
    }


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def _pick_candidate(
    model: LandscapeModel, candidates: list[float]
) -> tuple[float, float]:
    """Among candidate angles, take the smallest value; near-ties (within
    1e-12) resolve to the smallest |theta|, then the smaller theta."""
    evaluated = [(wrap_angle(t), model.evaluate(wrap_angle(t))) for t in candidates]
    best_value = min(v for _, v in evaluated)
    tied = [t for t, v in evaluated if v <= best_value + VALUE_TIE_TOLERANCE]
    theta = min(tied, key=lambda t: (abs(t), t))
    return theta, model.evaluate(theta)


def minimize(model: LandscapeModel) -> tuple[float, float]:
    """Global minimum of the model over theta in [-pi, pi).

    The candidates are the stationary points of the scaled landscape and
    their periodic images inside the reachable window.  Involutory models
    use the closed form L = alpha + R cos(2t - delta) with alpha = (e0+b)/2,
    R cos(delta) = (e0-b)/2, R sin(delta) = g/2, minimized at
    t = delta/2 + pi/2 (mod pi).  Tripotent models are
    L = C + a1 cos t + b1 sin t + a2 cos 2t + b2 sin 2t, so with z = e^{it}
    z^2 L'(t) is a quartic in z; the angles of its roots hold every
    stationary point, and roots off the unit circle only add harmless
    candidates.  The domain edges join only when the angle scale leaves the
    window shorter than one period; the upper edge is the largest angle
    that ``wrap_angle`` keeps below pi (``nextafter(pi, -pi)`` wraps to -pi).
    """
    s = model.angle_scale
    if model.kind == INVOLUTORY:
        period = np.pi
        amp_cos = 0.5 * (model.e0 - model.b)
        amp_sin = 0.5 * model.g
        if float(np.hypot(amp_cos, amp_sin)) < VALUE_TIE_TOLERANCE:
            return 0.0, model.evaluate(0.0)
        stationary = [0.5 * float(np.arctan2(amp_sin, amp_cos)) + 0.5 * np.pi]
    else:
        period = 2.0 * np.pi
        a1, b1 = model.c0 - 2.0 * model.c1, model.g - model.c2
        d1 = 0.5 * complex(b1, a1)
        d2 = complex(0.5 * model.c2, 0.5 * model.c1)
        if abs(d2) <= _EPS * abs(d1):
            d2 = 0j  # below rounding against d1, and it would overflow np.roots
        z = np.roots([d2, d1, 0.0, d1.conjugate(), d2.conjugate()]).astype(complex)
        # One Newton step restores the unit-circle roots that the companion
        # matrix loses when |d2| << |d1| puts the other pair near 0 and inf.
        value = (((d2 * z + d1) * z * z) + d1.conjugate()) * z + d2.conjugate()
        slope = (4.0 * d2 * z + 3.0 * d1) * z * z + d1.conjugate()
        z = z - np.divide(value, slope, out=np.zeros_like(z), where=slope != 0)
        stationary = [0.0, *(float(t) for t in np.angle(z))]
    window = np.pi * s
    candidates = [
        (t + k * period) / s
        for t in stationary
        for k in range(-3, 4)
        if -window <= t + k * period <= window
    ]
    if 2.0 * np.pi * s < period:
        candidates.extend([-np.pi, _UPPER_EDGE])
    return _pick_candidate(model, candidates)


def maximize(model: LandscapeModel) -> tuple[float, float]:
    theta, value = minimize(model.negated())
    return theta, -value


# ---------------------------------------------------------------------------
# Two-dimensional landscapes (involutory pairs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LandscapeModel2D:
    """Surface for an ordered involutory pair: B1 applied first, B2 second.

    ``coeffs[j, k]`` multiplies f_j(t1) f_k(t2) with the basis
    f_0 = cos^2, f_1 = sin*cos, f_2 = sin^2 in the scaled angles.
    """

    angle_scale_1: float
    angle_scale_2: float
    coeffs: tuple[tuple[float, float, float], ...]

    def _basis(self, scale: float, theta, order: int = 0) -> np.ndarray:
        t = scale * np.asarray(theta, dtype=float)
        if order == 0:
            c, s = np.cos(t), np.sin(t)
            return np.stack([c * c, s * c, s * s], axis=-1)
        c2, s2 = np.cos(2.0 * t), np.sin(2.0 * t)
        if order == 1:
            return scale * np.stack([-s2, c2, s2], axis=-1)
        return scale * scale * np.stack([-2.0 * c2, -2.0 * s2, 2.0 * c2], axis=-1)

    def evaluate(self, theta1, theta2):
        f1 = self._basis(self.angle_scale_1, theta1)
        f2 = self._basis(self.angle_scale_2, theta2)
        value = np.einsum("...j,jk,...k->...", f1, np.asarray(self.coeffs), f2)
        if np.isscalar(theta1) and np.isscalar(theta2):
            return float(value)
        return value

    def evaluate_grid(self, thetas1: np.ndarray, thetas2: np.ndarray) -> np.ndarray:
        f1 = self._basis(self.angle_scale_1, thetas1)
        f2 = self._basis(self.angle_scale_2, thetas2)
        return f1 @ np.asarray(self.coeffs) @ f2.T


def reconstruct_2d(
    backend,
    h: PauliSum,
    gen1: Generator,
    gen2: Generator,
    state: StateVector,
    shared_e0: float | None = None,
    context: tuple[int, ...] = (),
) -> LandscapeModel2D:
    """Pin all nine surface coefficients from the {0, +-pi/4}^2 sample grid.

    The (0,0) sample is <H> and may be shared; the remaining eight
    evaluations rotate the state by both generators.  Single-angle rows
    reproduce the two 1-D models; the diagonal pairs fix the cross terms.
    """
    if gen1.kind != INVOLUTORY or gen2.kind != INVOLUTORY:
        raise ValueError("2-D reconstruction requires involutory generators")

    def sample(node1: float, node2: float, tag: int) -> float:
        rotated = state
        if node1 != 0.0:
            rotated = apply_exp_generator(rotated, gen1, node1 / gen1.angle_scale)
        if node2 != 0.0:
            rotated = apply_exp_generator(rotated, gen2, node2 / gen2.angle_scale)
        return backend.expectation(rotated, h, context=context + (tag,))

    q = np.pi / 4.0
    s00 = (
        shared_e0
        if shared_e0 is not None
        else backend.expectation(state, h, context=context + (0,))
    )
    s_p0 = sample(q, 0.0, 1)
    s_m0 = sample(-q, 0.0, 2)
    s_0p = sample(0.0, q, 3)
    s_0m = sample(0.0, -q, 4)
    s_pp = sample(q, q, 5)
    s_pm = sample(q, -q, 6)
    s_mp = sample(-q, q, 7)
    s_mm = sample(-q, -q, 8)

    n00 = s00
    n10 = s_p0 - s_m0
    n20 = s_p0 + s_m0 - n00
    n01 = s_0p - s_0m
    n02 = s_0p + s_0m - n00
    base = n00 + n02 + n20

    def cross(s_ab: float, a: float, b: float) -> float:
        return 4.0 * s_ab - base - a * n10 - b * n01

    t_pp = cross(s_pp, 1.0, 1.0)
    t_pm = cross(s_pm, 1.0, -1.0)
    t_mp = cross(s_mp, -1.0, 1.0)
    t_mm = cross(s_mm, -1.0, -1.0)
    n11 = 0.25 * (t_pp - t_pm - t_mp + t_mm)
    n12 = 0.25 * (t_pp + t_pm - t_mp - t_mm)
    n21 = 0.25 * (t_pp - t_pm + t_mp - t_mm)
    n22 = 0.25 * (t_pp + t_pm + t_mp + t_mm)
    coeffs = (
        (n00, n01, n02),
        (n10, n11, n12),
        (n20, n21, n22),
    )
    return LandscapeModel2D(gen1.angle_scale, gen2.angle_scale, coeffs)


def minimize_2d(model: LandscapeModel2D) -> tuple[float, float, float]:
    """Global minimum over [-pi, pi)^2: 256x256 grid plus Newton refinement."""
    grid = np.linspace(-np.pi, np.pi, GRID_POINTS_2D, endpoint=False)
    surface = model.evaluate_grid(grid, grid)
    best = float(surface.min())
    near = np.argwhere(surface <= best + max(1e-9, 10.0 * VALUE_TIE_TOLERANCE))
    near = sorted(
        (tuple(ij) for ij in near),
        key=lambda ij: abs(grid[ij[0]]) + abs(grid[ij[1]]),
    )
    candidates: list[tuple[float, float]] = [(0.0, 0.0)]
    for i, j in near[:8]:
        seed = (float(grid[i]), float(grid[j]))
        candidates.append(seed)
        candidates.append(_newton_refine_2d(model, seed))
    evaluated = [
        ((wrap_angle(t1), wrap_angle(t2)), model.evaluate(wrap_angle(t1), wrap_angle(t2)))
        for t1, t2 in candidates
    ]
    best_value = min(v for _, v in evaluated)
    tied = [p for p, v in evaluated if v <= best_value + VALUE_TIE_TOLERANCE]
    theta1, theta2 = min(tied, key=lambda p: (abs(p[0]) + abs(p[1]), p))
    return theta1, theta2, model.evaluate(theta1, theta2)


def _newton_refine_2d(
    model: LandscapeModel2D, seed: tuple[float, float]
) -> tuple[float, float]:
    coeffs = np.asarray(model.coeffs)
    t1, t2 = seed

    def basis(theta, scale, order):
        return model._basis(scale, theta, order)

    for _ in range(50):
        f1 = [basis(t1, model.angle_scale_1, k) for k in range(3)]
        f2 = [basis(t2, model.angle_scale_2, k) for k in range(3)]
        grad = np.array([f1[1] @ coeffs @ f2[0], f1[0] @ coeffs @ f2[1]])
        if np.linalg.norm(grad) < NEWTON_DERIVATIVE_TOLERANCE:
            break
        hess = np.array(
            [
                [f1[2] @ coeffs @ f2[0], f1[1] @ coeffs @ f2[1]],
                [f1[1] @ coeffs @ f2[1], f1[0] @ coeffs @ f2[2]],
            ]
        )
        if hess[0, 0] <= 0.0 or np.linalg.det(hess) <= 0.0:
            break
        step = np.linalg.solve(hess, grad)
        t1, t2 = t1 - step[0], t2 - step[1]
        if np.linalg.norm(step) < 1e-15:
            break
    return float(t1), float(t2)
