"""Brute-force oracles: exact level-set histograms by word enumeration,
box-counting dimension of sampled limit sets, and local-dimension sampling.

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
from .gdms import RCGDMS, LimitSetSample, check_rbsc, code_point, code_words, image_of_word
from .gibbs import CylinderMeasure
from .shift import Word, prefix_tree, word_index

_ENUMERATION_BUDGET = 10_000_000


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

    def bin_of(self, exponent: float) -> int:
        j = int(np.searchsorted(self.bin_edges, exponent, side="right")) - 1
        return min(max(j, 0), len(self.counts) - 1)


def _exponent_sums(gdms: RCGDMS, orbit: DrivingOrbit, symbols, n: int) -> np.ndarray:
    """Birkhoff sums -log|phi'| of every admissible word, carried down the
    prefix tree one level at a time (lexicographic word order)."""
    symbols = tuple(sorted(symbols))
    acc = np.zeros(1)
    for j, (parent, last) in enumerate(prefix_tree(gdms.symbolic, symbols, n, _ENUMERATION_BUDGET)):
        state = orbit.state(j)
        acc = acc[parent] + np.array([-gdms.log_ratio(e, state) for e in symbols])[last]
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
    sums = _exponent_sums(gdms, orbit, symbols, n) / n
    lo, hi = float(sums.min()), float(sums.max())
    if hi - lo < 1e-15:
        edges = np.array([lo - 1e-12, hi + 1e-12])
    else:
        edges = np.linspace(lo, hi + 1e-12, bins + 1)
    counts, _ = np.histogram(sums, bins=edges)
    idx = np.clip(np.searchsorted(edges, sums, side="right") - 1, 0, len(counts) - 1)
    mean_exp = np.zeros(len(counts))
    np.add.at(mean_exp, idx, sums)
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
    counts = []
    for eps in scales:
        boxes = np.unique(np.floor(pts / eps))
        counts.append(len(boxes))
    if max(counts) == 1:
        return BoxCountEstimate(0.0, tuple(scales), tuple(counts), 0.0)
    x = np.log(1.0 / np.array(scales))
    y = np.log(np.array(counts, dtype=float))
    coef = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2)))
    return BoxCountEstimate(float(coef[0]), tuple(scales), tuple(counts), residual)


@dataclass(frozen=True)
class LocalDimensionSample:
    word: Word
    depths: tuple[int, ...]
    markov_ratios: tuple[float, ...]  # cylinder mass against cylinder diameter
    metric_ratios: tuple[float, ...]  # ball mass against radius, matched radii
    gaps: tuple[float, ...]


def local_dimension_samples(
    gdms: RCGDMS,
    orbit: DrivingOrbit,
    measure: CylinderMeasure,
    words: Sequence[Word],
) -> list[LocalDimensionSample]:
    """Markov and metric local-dimension ratios along word prefixes.

    Requires a positive boundary-separation margin so the coding is a
    bijection and balls of cylinder size meet few neighboring cylinders; the
    gap between the two ratios is expected to vanish with depth.  Ball masses
    sum the measure's level arrays, whose order is word_index's."""
    symbols = measure.symbols
    margin = check_rbsc(gdms, symbols)
    if margin <= 0:
        raise ValueError(f"boundary separation margin {margin:.3g} is not positive")
    out = []
    for word in words:
        word = tuple(word)
        x = code_point(gdms, orbit, word)[0]
        depths, markov, metric, gaps = [], [], [], []
        for j in range(1, min(len(word), measure.depth) + 1):
            prefix = word[:j]
            mass = measure.mass(prefix)
            lo_img, hi_img = image_of_word(gdms, orbit, prefix)
            diam = hi_img - lo_img
            if mass <= 0 or diam <= 0:
                continue
            mk = math.log(mass) / math.log(diam)
            center, half = code_words(gdms, orbit, symbols, word_index(gdms.symbolic, symbols, j))
            ball = np.flatnonzero((center + half >= x - diam) & (center - half <= x + diam))
            mt = math.log(sum(measure.levels[j - 1][ball].tolist())) / math.log(diam)
            depths.append(j)
            markov.append(mk)
            metric.append(mt)
            gaps.append(abs(mk - mt))
        out.append(
            LocalDimensionSample(
                word=word,
                depths=tuple(depths),
                markov_ratios=tuple(markov),
                metric_ratios=tuple(metric),
                gaps=tuple(gaps),
            )
        )
    return out
