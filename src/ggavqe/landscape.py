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
{cos^2, sin cos, sin^2}(t1) x {cos^2, sin cos, sin^2}(t2), pinned by the
3x3 sample grid {0, +-pi/4}^2 (the theta = 0 value shared, 8 fresh
evaluations) through a fixed integer inverse.  ``minimize_2d`` builds on
``minimize``: exact t1 candidates from one degree-8 polynomial, each
finished by the exact 1-D minimum over t2 on its slice, with an angle's
domain edges joining when its window is shorter than one period.  On a
valley of equal minima the tie rule chooses among the candidates only.
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
# Largest float that wrap_angle keeps below pi (nextafter(pi, -pi) wraps to -pi).
_UPPER_EDGE = float(np.nextafter(2.0 * np.pi, 0.0) - np.pi)
_EDGES = (-np.pi, _UPPER_EDGE)
_EPS = float(np.finfo(float).eps)
# Largest Newton step, in 2 t1, that finishes a 2-D candidate.
_NEWTON_STEP = 1e-4


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
    distinguishes the evaluations for deterministic RNG streams.
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


def _pick(evaluate: Callable[..., float], candidates) -> tuple[tuple[float, ...], float]:
    """Among candidate angle tuples, take the smallest value; near-ties
    (within 1e-12) resolve to the smallest sum of |theta|, then the smaller
    tuple."""
    evaluated = [(a, evaluate(*a)) for a in (tuple(map(wrap_angle, c)) for c in candidates)]
    best_value = min(v for _, v in evaluated)
    tied = [a for a, v in evaluated if v <= best_value + VALUE_TIE_TOLERANCE]
    angles = min(tied, key=lambda a: (sum(map(abs, a)), a))
    return angles, evaluate(*angles)


def _window(stationary: list[float], period: float, s: float) -> list[float]:
    """Angles theta of the images t = s theta of the stationary points in
    the reachable window |t| <= pi s, plus both domain edges when that
    window is shorter than one period."""
    window = np.pi * s
    thetas = [
        (t + k * period) / s
        for t in stationary
        for k in range(-3, 4)
        if -window <= t + k * period <= window
    ]
    if 2.0 * np.pi * s < period:
        thetas.extend(_EDGES)
    return thetas


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
    window shorter than one period.
    """
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
    candidates = [(t,) for t in _window(stationary, period, model.angle_scale)]
    (theta,), value = _pick(model.evaluate, candidates)
    return theta, value


def maximize(model: LandscapeModel) -> tuple[float, float]:
    theta, value = minimize(model.negated())
    return theta, -value


# ---------------------------------------------------------------------------
# Two-dimensional landscapes (involutory pairs)
# ---------------------------------------------------------------------------

# (cos^2, sin cos, sin^2)(t) = _D @ (1, cos 2t, sin 2t).
_D = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.5], [0.5, -0.5, 0.0]])
# Inverse of the basis at the nodes (0, +pi/4, -pi/4): (1,0,0), (1,1,1)/2, (1,-1,1)/2.
_G = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])
# Node indices of the eight fresh pair samples, in RNG tag order 1..8.
_PAIR_NODES = ((1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2))


@dataclass(frozen=True)
class LandscapeModel2D:
    """Surface for an ordered involutory pair: B1 applied first, B2 second.

    ``coeffs[j, k]`` multiplies f_j(t1) f_k(t2) with the basis
    f_0 = cos^2, f_1 = sin*cos, f_2 = sin^2 in the scaled angles.
    """

    angle_scale_1: float
    angle_scale_2: float
    coeffs: tuple[tuple[float, float, float], ...]

    def _basis(self, scale: float, theta) -> np.ndarray:
        t = scale * np.asarray(theta, dtype=float)
        c, s = np.cos(t), np.sin(t)
        return np.stack([c * c, s * c, s * s], axis=-1)

    def evaluate(self, theta1, theta2):
        f1 = self._basis(self.angle_scale_1, theta1)
        f2 = self._basis(self.angle_scale_2, theta2)
        value = np.einsum("...j,jk,...k->...", f1, np.asarray(self.coeffs), f2)
        if np.isscalar(theta1) and np.isscalar(theta2):
            return float(value)
        return value


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
    evaluations rotate the state by both generators.  With S the samples
    on the nodes (0, +pi/4, -pi/4) in each angle, the coefficients are
    G S G^T for the fixed integer inverse G of the basis at those nodes.
    """
    if gen1.kind != INVOLUTORY or gen2.kind != INVOLUTORY:
        raise ValueError("2-D reconstruction requires involutory generators")
    if shared_e0 is None:
        shared_e0 = backend.expectation(state, h, context=context + (0,))
    nodes = (0.0, np.pi / 4.0, -np.pi / 4.0)
    samples = np.full((3, 3), float(shared_e0))
    for tag, (i, j) in enumerate(_PAIR_NODES, start=1):
        rotated = state
        for gen, node in ((gen1, nodes[i]), (gen2, nodes[j])):
            if node != 0.0:
                rotated = apply_exp_generator(rotated, gen, node / gen.angle_scale)
        samples[i, j] = backend.expectation(rotated, h, context=context + (tag,))
    coeffs = _G @ samples @ _G.T
    return LandscapeModel2D(
        gen1.angle_scale, gen2.angle_scale, tuple(map(tuple, coeffs.tolist()))
    )


def _circle(phi) -> tuple[np.ndarray, np.ndarray]:
    """Points (cos phi, sin phi) and their tangents (-sin phi, cos phi)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([c, s]), np.stack([-s, c])


def _slice(model: LandscapeModel2D, theta: float, free: int) -> LandscapeModel:
    """The 1-D landscape in angle ``free`` (0 or 1), the other held at theta."""
    scales = (model.angle_scale_1, model.angle_scale_2)
    coeffs = np.asarray(model.coeffs)
    f = model._basis(scales[1 - free], theta)
    e0, g, b = (coeffs @ f if free == 0 else f @ coeffs).tolist()
    return LandscapeModel(INVOLUTORY, scales[free], e0, g, b)


def minimize_2d(model: LandscapeModel2D) -> tuple[float, float, float]:
    """Global minimum over [-pi, pi)^2 from exact candidates.

    In u = (cos 2t1, sin 2t1) and v = (cos 2t2, sin 2t2) the surface is
    a + p.u + q.v + u^T M v.  At an interior minimum v points against
    w = q + M^T u, so dL/dt1 = 0 squares to the degree-4 trigonometric
    polynomial F = (p.u')^2 |w|^2 - (w.M^T u')^2 in 2 t1; the angles of the
    roots of its degree-8 polynomial in z = e^{2i t1} (a 16-point FFT, with
    coefficients at FFT rounding zeroed) hold every interior t1.  Added to
    them are 0, angle(p)/2 and angle(p)/2 + pi/2 (the minima when F
    vanishes, as for q = M = 0), all their images inside the reachable
    window, and the t1 edges when 2 pi s1 < pi.  Each t1 takes its best t2
    from ``minimize`` on the 1-D slice; when 2 pi s2 < pi the two t2 edges
    take their best t1 the same way, and t1 candidates whose best t2 is an
    edge are left to them.  One Newton step on t1, with t2 following on its
    slice, finishes the pick.  On a valley of equal minima the tie rule
    (smallest |theta1| + |theta2|, then the smaller pair) chooses among these
    candidates only, not over the whole valley.
    """
    k = _D.T @ np.asarray(model.coeffs) @ _D
    p, q, m = k[1:, 0], k[0, 1:], k[1:, 1:]
    u, du = _circle(2.0 * np.pi * np.arange(16) / 16.0)
    w, dw = q[:, None] + m.T @ u, m.T @ du
    f = (p @ du) ** 2 * np.sum(w * w, axis=0) - np.sum(w * dw, axis=0) ** 2
    c = np.fft.fft(f)[[4, 3, 2, 1, 0, -1, -2, -3, -4]]
    # Zero what is rounding of F's terms, bounded by |w|^2 (|p|^2 + |M^T u'|^2).
    bound = np.sum(w * w, axis=0) * (p @ p + np.sum(dw * dw, axis=0))
    c[np.abs(c) <= 16.0 * _EPS * bound.max()] = 0.0
    half = 0.5 * float(np.arctan2(p[1], p[0]))
    stationary = [0.0, half, half + 0.5 * np.pi, *(0.5 * np.angle(np.roots(c))).tolist()]
    s1, s2 = model.angle_scale_1, model.angle_scale_2
    edges1, edges2 = 2.0 * np.pi * s1 < np.pi, 2.0 * np.pi * s2 < np.pi
    candidates = []
    for theta1 in _window(stationary, np.pi, s1):
        theta1 = wrap_angle(theta1)
        theta2 = minimize(_slice(model, theta1, 1))[0]
        if not (edges2 and theta2 in _EDGES):
            candidates.append((theta1, theta2))
    if edges2:
        candidates += [(minimize(_slice(model, t, 0))[0], t) for t in _EDGES]
    (theta1, theta2), value = _pick(model.evaluate, candidates)
    # One Newton step on dL/d(2 t1) along the minimum over t2 finishes the
    # pick: F doubles the roots that p.u' and w.M^T u' share (p = 0 or
    # M = 0), and a double root is only good to sqrt(eps).  Larger steps
    # finish no root; on a valley the curvature is rounding.
    (u, du), (v, dv) = _circle(2.0 * s1 * theta1), _circle(2.0 * s2 * theta2)
    g, h11 = (p + m @ v) @ du, -(p + m @ v) @ u
    h22, h12 = -(q + m.T @ u) @ v, du @ m @ dv
    curvature = h11 - h12 * h12 / h22 if h22 > 0.0 else h11
    if curvature > 0.0 and abs(g) <= _NEWTON_STEP * curvature:
        theta1 -= 0.5 * g / curvature / s1
        theta1 = min(max(theta1, -np.pi), _UPPER_EDGE) if edges1 else wrap_angle(theta1)
        theta2 = minimize(_slice(model, theta1, 1))[0]
        value = model.evaluate(theta1, theta2)
    return theta1, theta2, value
