"""Pressure curves, Bowen dimension and the Lyapunov spectrum.

The pressure of the scaled geometric potential is sampled over an s-grid,
projected onto its lower convex hull (Monte Carlo noise may break convexity;
the true curve is convex, so the repair is a projection onto the feasible
class), and consumed through one root solver: the Bowen dimension is the root
of p; the Legendre transform l(beta) = inf_s (beta*s + p(s)) / beta is taken
where p'(s) = -beta (the value is second order in the solve's error), with
p' from `PressureCurve.slope_at`: the slope the curve carries where it gives
one (the exact-spectral route's analytic slope where certified, the
exact-product route's analytic slope), else a central difference of the
evaluator.  Where the curve also carries p'' (the exact-product route), the
Bowen root and the Legendre transform take Newton steps on p' and p''.
Acceptance criterion 7's temperature curve T(q), the root of p(T(q)) =
q * p(0) and the second route to the transform, is the tests' `oracles.py`,
on the same root solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


def _root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float, slope: Optional[Callable] = None) -> float:
    """A sign change of f on [a, b] by Illinois regula falsi (Dowell and
    Jarratt, BIT 11, 1971), given fa = f(a) and a finite fb = f(b).  A
    non-finite value lies on a's side (a summability threshold) and makes the
    step a bisection.  Returns the secant point of the final bracket, or
    without a sign change the end nearer a zero.  Where `slope` gives f' at
    the last iterate (first the end nearer a zero), Newton's step is taken
    if it lands inside the bracket, and returned once within tolerance."""
    if math.isfinite(fa) and fa * fb >= 0.0:
        return float(a if abs(fa) <= abs(fb) else b)
    wa = wb = 1.0  # Illinois: an end left in place twice running has its weight halved
    moved = 0
    x, fx = (a, fa) if math.isfinite(fa) and abs(fa) < abs(fb) else (b, fb)
    while b - a > 1e-9 * (1.0 + abs(a) + abs(b)):
        d = None if slope is None else slope(x)
        newton = x - fx / d if d and math.isfinite(d) else math.nan
        if a < newton < b:
            if abs(newton - x) <= 1e-9 * (1.0 + abs(a) + abs(b)):
                return float(newton)
            x = newton
        else:
            x = b - wb * fb * (b - a) / (wb * fb - wa * fa) if math.isfinite(fa) else 0.5 * (a + b)
            if not a < x < b:
                x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return float(x)
        if math.isfinite(fx) and fx * fb > 0.0:
            b, fb, wb = x, fx, 1.0
            if moved > 0:
                wa *= 0.5
            moved = 1
        else:
            a, fa, wa = x, fx, 1.0
            if moved < 0:
                wb *= 0.5
            moved = -1
    return float(b - fb * (b - a) / (fb - fa) if math.isfinite(fa) else b)


def _slope(p: Callable[[float], float], s: float) -> float:
    """Central difference of p at s, with step 1e-6."""
    return (p(s + 1e-6) - p(s - 1e-6)) / 2e-6


def lower_convex_hull(xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
    """Largest convex minorant of the finite samples, evaluated at the xs."""
    pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y)]
    if len(pts) < 3:
        return np.asarray(ys, dtype=float)
    hull: list[tuple[float, float]] = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    out = np.asarray(ys, dtype=float).copy()
    finite = np.isfinite(out)
    out[finite] = np.interp(np.asarray(xs)[finite], hx, hy)
    return out


@dataclass(frozen=True)
class PressureCurve:
    """Convexity-repaired samples of the scale-to-pressure map."""

    s_grid: np.ndarray
    raw_values: np.ndarray
    values: np.ndarray  # repaired
    s_infinity: float
    exponent_lo: float  # at most -p'(+inf), the least admissible exponent
    exponent_hi: float  # at least -p'(s_infinity), the largest admissible exponent
    evaluator: Callable[[float], float]
    repair_correction: float = 0.0
    slope: Optional[Callable[[float], Optional[float]]] = None  # the route's p'(s); None where uncertified
    curvature: Optional[Callable[[float], Optional[float]]] = None  # the route's p''(s), likewise

    def dimension(self) -> float:
        """`bowen_dimension` of the evaluator; where the curve gives p'',
        with Newton steps on p' inside the grid's sign change from s >= 0."""
        if self.curvature is None:
            return bowen_dimension(self.evaluator, self.s_infinity)
        s, p = self.s_grid, self.raw_values
        cross = np.flatnonzero((s[:-1] >= 0.0) & (p[:-1] > 0.0) & (p[1:] <= 0.0))
        return bowen_dimension(self.evaluator, self.s_infinity, self.slope, s[cross[0] : cross[0] + 2] if cross.size else None)

    def slope_at(self, s: float) -> float:
        """p'(s): the route's slope where it is given (and certified), else a
        central difference of the evaluator."""
        d = None if self.slope is None else self.slope(s)
        return _slope(self.evaluator, s) if d is None else d


def pressure_curve(
    evaluate: Callable[[float], float],
    s_grid: Sequence[float],
    exponent_interval: tuple[float, float],
    s_infinity: float = -math.inf,
) -> PressureCurve:
    """Assemble a curve from a pressure evaluator over a grid, with the
    interval of exponents [exponent_lo, exponent_hi] the caller gives.

    The evaluator returns +inf below the summability threshold; the
    all-infinite grid is rejected.
    """
    s = np.asarray(sorted(s_grid), dtype=float)
    raw = np.array([evaluate(x) for x in s])
    if not np.isfinite(raw).any():
        raise ValueError("pressure is infinite on the whole grid; extend it above the threshold")
    repaired = lower_convex_hull(s, raw)
    finite = np.isfinite(repaired)
    return PressureCurve(
        s_grid=s,
        raw_values=raw,
        values=repaired,
        s_infinity=s_infinity,
        exponent_lo=exponent_interval[0],
        exponent_hi=exponent_interval[1],
        evaluator=evaluate,
        repair_correction=float(np.max(np.abs(repaired[finite] - raw[finite]))),
    )


def bowen_dimension(p: Callable[[float], float], s_infinity: float, slope=None, bracket=None) -> float:
    """Root of the pressure along the scale axis: inf{s >= 0 : p(s) <= 0}.

    Solved against the pressure evaluator p, which is +inf at and below the
    summability threshold s_infinity; returns 0 when the pressure at 0 is
    already nonpositive, and raises ValueError when p stays positive up to
    s = 64.  `slope` gives p' (`_root`); `bracket`, scales 0 <= a < b with
    p(a) > 0 >= p(b), replaces the search."""
    if bracket is not None:
        return _root(p, *bracket, p(bracket[0]), p(bracket[1]), slope)
    p_zero = p(0.0)
    if p_zero <= 0.0:
        return 0.0
    hi, p_hi = 1.0, p(1.0)
    while p_hi > 0.0:
        hi *= 2.0
        if hi > 64.0:
            raise ValueError("no pressure sign change below the bracket cap")
        p_hi = p(hi)
    lo = max(0.0, s_infinity + 1e-12)  # above the threshold, where p = +inf
    return _root(p, lo, hi, p_zero if lo == 0.0 else p(lo), p_hi, slope)


@dataclass(frozen=True)
class SpectrumResult:
    betas: np.ndarray
    values: np.ndarray
    flags: tuple[str, ...]  # "interior" | "endpoint" | "clipped"

    @property
    def max_value(self) -> float:
        ok = [v for v, f in zip(self.values, self.flags) if f == "interior"]
        return max(ok) if ok else float(np.fmax.reduce(self.values))  # np.nanmax's bits, unwarned when all are nan


def _transform_at(curve: PressureCurve, beta: float) -> float:
    """inf over scales of beta*s + p(s), at the root of p'(s) + beta, with
    p' from `curve.slope_at` (analytic where certified, else a central
    difference).

    The bracket is the pair of hull nodes around the best node, grown outward
    until the slope changes sign and clamped just above the summability
    threshold.  Where the curve gives p'', the solve takes Newton steps on
    it from the best node, and the transform is the least value at the
    scales it read (the last iterate's, second order in its step).  The
    hull-node minimum guards the result."""
    finite = np.isfinite(curve.values)
    nodes = curve.s_grid[finite]
    node_vals = beta * nodes + curve.values[finite]
    j = int(np.argmin(node_vals))
    best = float(node_vals[j])
    newton, seen = curve.curvature, []  # with p'': beta*s + p(s) at every scale read

    def f(s):
        if newton:
            seen.append(beta * s + curve.evaluator(s))
        return curve.slope_at(s) + beta

    floor = curve.s_infinity + 1e-12

    def walk(near, f_near, far, f_far, direction):
        # doubling steps of `far` while the root lies beyond it, the passed
        # end becoming `near`; a non-finite slope is kept only at the floor
        step = float(nodes[1] - nodes[0]) if len(nodes) > 1 else 1.0
        while f_far * direction < 0.0 and far > floor and step < 1e7:
            probe = max(far + direction * step, floor)
            f_probe = f(probe)
            if not (math.isfinite(f_probe) or probe == floor):
                break
            near, f_near, far, f_far, step = far, f_far, probe, f_probe, 2.0 * step
        return near, f_near, far, f_far

    lo, hi = float(nodes[max(0, j - 1)]), float(nodes[min(len(nodes) - 1, j + 1)])
    if newton:  # the best node's slope halves the bracket
        lo, hi = (lo, float(nodes[j])) if f(float(nodes[j])) > 0.0 else (float(nodes[j]), hi)
    f_lo, f_hi = f(lo), f(hi)
    hi, f_hi, lo, f_lo = walk(hi, f_hi, lo, f_lo, -1.0)
    lo, f_lo, hi, f_hi = walk(lo, f_lo, hi, f_hi, 1.0)
    s = _root(f, lo, hi, f_lo, f_hi, newton)
    return min(min(seen) if seen else beta * s + curve.evaluator(s), best)


def legendre_spectrum(curve: PressureCurve, beta_grid: Sequence[float]) -> SpectrumResult:
    """Lyapunov spectrum values l(beta) = (1/beta) inf_s {beta s + p(s)}.

    Betas outside the curve's exponent interval are clipped (flag
    "clipped"); betas on an interval edge or within one grid cell of one are
    flagged "endpoint" and their values are limit reports rather than interior
    transform values.  Betas must be positive."""
    betas = np.asarray(sorted(beta_grid), dtype=float)
    if (betas <= 0).any():
        raise ValueError("exponents must be positive")
    lo, hi = curve.exponent_lo, curve.exponent_hi
    cell = float(betas[1] - betas[0]) if len(betas) > 1 else 0.0
    vals = np.empty_like(betas)
    flags = []
    for i, b in enumerate(betas):
        if b < lo or b > hi:
            # outside the admissible interval the level set is empty and the
            # transform is unbounded below; no dimension to report
            flags.append("clipped")
            vals[i] = math.nan
            continue
        if b < lo + cell or b > hi - cell or b in (lo, hi):
            flags.append("endpoint")
        else:
            flags.append("interior")
        vals[i] = _transform_at(curve, b) / b
    return SpectrumResult(betas=betas, values=vals, flags=tuple(flags))
