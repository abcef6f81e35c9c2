"""Brute-force oracles: exact level-set histograms by word enumeration and
box-counting dimension of sampled limit sets.  (Markov against metric local
dimensions, which no command reports, is the tests' `oracles.py`.)

These validate the transform-based spectrum and dimension outputs from the
other direction and deliberately avoid the pressure machinery: exponents come
straight from the instance's ratio tables, dimensions from direct counting.
The per-bin coarse dimension log(count) / (depth * exponent) is the standard
symbolic proxy for the level-set dimension under bounded distortion.  It sits
below the level-set dimension by a finite-depth counting bias of order
log(depth)/depth: on a full two-symbol shift with fixed ratios,
count ~ exp(n H(q)) / sqrt(2 pi n q (1-q)) by Stirling, so the raw value is
low by (1/2) log(2 pi n q (1-q)) / (n chi), 0.05-0.09 at depth 20.  A gate
on the raw value therefore measures this bias, not the spectrum;
`corrected_coarse_dimensions` adds the local-limit term back, and both the
`verify` check and the acceptance test compare that corrected value.  The
raw values stay on the histogram so the bias remains visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .driving import DrivingOrbit
from .gdms import RCGDMS, LimitSetSample
from .shift import prefix_tree


@dataclass(frozen=True)
class LevelHistogram:
    """Exact empirical-exponent histogram over every admissible depth-n word."""

    depth: int
    symbols: tuple[int, ...]  # the alphabet the words were enumerated over
    bin_edges: np.ndarray
    counts: np.ndarray
    bin_exponents: np.ndarray  # mean observed exponent per bin (center if empty)
    coarse_dimensions: np.ndarray  # log(count) / (depth * exponent)
    exponent_min: float
    exponent_max: float

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _exponent_sums(gdms: RCGDMS, orbit: DrivingOrbit, symbols, n: int) -> np.ndarray:
    """Birkhoff sums -log|phi'| of every admissible word, carried down the
    prefix tree one level at a time (lexicographic word order)."""
    symbols = tuple(sorted(symbols))
    columns = [gdms.symbolic.position[e] for e in symbols]
    acc = np.zeros(1)
    for j, (parent, last) in enumerate(prefix_tree(gdms.symbolic, symbols, n)):
        acc = acc[parent]
        acc -= gdms.log_ratios(orbit.state(j))[columns][last]
    return acc


def level_histogram(
    gdms: RCGDMS,
    orbit: DrivingOrbit,
    symbols: Optional[Sequence[int]] = None,
    n: int = 12,
    bins: int = 32,
) -> LevelHistogram:
    """Exact histogram of empirical Lyapunov exponents at word depth n.

    Exponent of a word is -(1/n) times the Birkhoff sum of log derivatives
    along the orbit.  Bin width defaults to the observed exponent range over
    `bins`; per-bin coarse dimensions use the mean observed exponent."""
    symbols = tuple(sorted(symbols if symbols is not None else gdms.symbolic.edges))
    sums = _exponent_sums(gdms, orbit, symbols, n)
    sums /= n
    lo, hi = float(sums.min()), float(sums.max())
    if hi - lo < 1e-15:
        edges = np.array([lo - 1e-12, hi + 1e-12])
    else:
        edges = np.linspace(lo, hi + 1e-12, bins + 1)
    # bin i holds edges[i] <= x < edges[i + 1], the top edge in the last bin
    idx = np.searchsorted(edges[1:-1], sums, side="right")
    counts = np.bincount(idx, minlength=len(edges) - 1)
    mean_exp = np.bincount(idx, weights=sums, minlength=len(edges) - 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    nonzero = counts > 0
    mean_exp[nonzero] = mean_exp[nonzero] / counts[nonzero]
    mean_exp[~nonzero] = centers[~nonzero]
    coarse = np.zeros(len(counts))
    coarse[nonzero] = np.log(counts[nonzero]) / (n * mean_exp[nonzero])
    return LevelHistogram(
        depth=n,
        symbols=symbols,
        bin_edges=edges,
        counts=counts,
        bin_exponents=mean_exp,
        coarse_dimensions=coarse,
        exponent_min=lo,
        exponent_max=hi,
    )


def corrected_coarse_dimensions(hist: LevelHistogram) -> Optional[np.ndarray]:
    """Per-bin coarse dimensions plus the local-limit correction of the
    finite-depth counting bias, (1/2) log(2 pi n q (1-q)) / (n chi).

    Defined for two-symbol histograms with a nondegenerate exponent range
    only (None otherwise): q = (chi - min) / (max - min) places the bin's mean
    exponent chi within the observed range, i.e. the share of the
    faster-contracting symbol.  Bins that are empty or have q outside (0, 1)
    are NaN."""
    lo, hi = hist.exponent_min, hist.exponent_max
    if len(hist.symbols) != 2 or hi <= lo + 1e-12:
        return None
    n = hist.depth
    out = np.full(len(hist.counts), np.nan)
    for j, chi in enumerate(hist.bin_exponents):
        chi = float(chi)
        q = (chi - lo) / (hi - lo)
        if hist.counts[j] == 0 or not (0.0 < q < 1.0):
            continue
        out[j] = hist.coarse_dimensions[j] + 0.5 * math.log(2 * math.pi * n * q * (1 - q)) / (n * chi)
    return out


@dataclass(frozen=True)
class BoxCountEstimate:
    dimension: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    residual: float


def _occupied_boxes(pts: np.ndarray, eps: float) -> int:
    """len(np.unique(np.floor(pts / eps))) for sorted points, each box one
    run of them.  Over few boxes, each box's first point is searched at b * eps
    and checked by floor on either side; else, or if a check fails, one pass."""
    n = len(pts)
    lo, hi = np.floor(pts[[0, -1]] / eps).tolist()
    # timed on 262,144 sorted points (2 vCPUs), the jump wins below n/16 boxes
    # (0.12 against 1.8 ms at n/256) and the pass from n/8 (1.7 against 2.0 ms)
    if hi - lo < n / 16 and max(-lo, hi) < 2.0**53:  # few boxes, exact box indices
        b = lo + np.arange(1, hi - lo + 1)  # every box after the first
        starts = np.searchsorted(pts, b * eps)
        at = np.floor(pts[np.minimum(starts, n - 1)] / eps)
        before = np.floor(pts[starts - 1] / eps)  # starts >= 1 wherever `at` confirms
        if (((starts == n) | (at >= b)) & (before < b)).all():
            return 1 + np.count_nonzero(np.diff(starts, append=n))
    boxes = np.floor(pts / eps)
    return 1 + np.count_nonzero(boxes[1:] != boxes[:-1])


def box_counting(
    points: LimitSetSample | np.ndarray,
    scales: Sequence[float],
) -> BoxCountEstimate:
    """Least-squares box-counting slope of log N(eps) against log(1/eps).

    Needs at least three scales spanning a decade; when a LimitSetSample is
    passed, its truncation radius must sit below the smallest scale so the
    counted boxes are those of the true set."""
    scales = sorted(scales, reverse=True)
    if len(scales) < 3:
        raise ValueError("need at least three scales")
    if scales[0] / scales[-1] < 10.0:
        raise ValueError("scales must span at least a decade")
    if isinstance(points, LimitSetSample):
        if points.radius_bound >= scales[-1]:
            raise ValueError("sample radius bound must sit below the smallest scale")
        pts = points.points
    else:
        pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("empty point set")
    if not (pts[1:] >= pts[:-1]).all():
        pts = np.sort(pts)
    counts = [_occupied_boxes(pts, eps) for eps in scales]
    if max(counts) == 1:
        return BoxCountEstimate(0.0, tuple(scales), tuple(counts), 0.0)
    x = np.log(1.0 / np.array(scales))
    y = np.log(np.array(counts, dtype=float))
    coef = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2)))
    return BoxCountEstimate(float(coef[0]), tuple(scales), tuple(counts), residual)
