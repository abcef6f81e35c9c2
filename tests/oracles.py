"""Diagnostics that no command computes, kept beside the tests that check
the package's reached code with them: the partition sums Z, L, Lop and A of
the sandwich chain one depth at a time, the summability flags of a scaled
potential, the defect of the dual relation L* m = lambda m, the masses of
fixed cylinders along a subalphabet ladder, the boundary separation margin,
Markov against metric local dimensions, and acceptance criterion 7's
temperature curve T(q).  Each one reads the package's own kernels."""

import math
from typing import Callable, Sequence

import numpy as np
from words import map_of, masses

from rcgdms.gdms import _code_rows, code_levels
from rcgdms.gibbs import _pulled, _weights, conformal_measures
from rcgdms.spectrum import _root
from rcgdms.thermo import _lane, _sums


def partition_sums(symbols, potential, orbit, anchor, n, position=0, arithmetic="float") -> dict:
    """Z, L, Lop and A at depth n and one orbit position, keyed
    "anchored_sup", "return", "operator" and "all", in the lane's numbers:
    logs on the float lane, the sums themselves on the "fraction" and "mpf"
    lanes."""
    return _sums(_lane(potential, arithmetic), tuple(sorted(symbols)), potential, orbit, anchor, n, position)


def summability(potential, s: float, symbols=None) -> tuple[float, float]:
    """The driving marginal's expectations of the log transfer sup and inf of
    the potential scaled by s, over `symbols` (None: the whole alphabet with
    its tail).  The potential is summable where the first is finite, and
    normally summable where the second is also above -inf."""
    pot = potential.scaled(s)
    hi, lo = pot.transfer_bounds(pot.driving.state_support(), symbols)
    return pot.driving.expected(hi), pot.driving.expected(lo)


def conformality_residual(potential, orbit, measures, log_eigenvalues, position=0) -> float:
    """Max absolute defect of L* m_{k+1} = lambda_k m_k over the cylinders of
    depth below the measures' at orbit position k, on their own word tree."""
    k = position
    m_next, m_here = measures[k + 1], measures[k]
    lam = math.exp(log_eigenvalues[k])
    raw = _pulled(m_here.tree, _weights(potential, m_here.symbols, orbit.state(k), exact=False), m_next.levels)
    return max((float(np.max(np.abs(r - lam * m))) for r, m in zip(raw[:-1], m_here.levels[:-1])), default=0.0)


def ladder_convergence(ladder, potential, orbit, depth, cylinders=None) -> tuple[dict, tuple, tuple]:
    """Along the rungs of a ladder: each cylinder's mass under the rung's
    conformal measure at position 0 ({word: one mass per rung}; by default
    the first two symbols of the first rung), the sup deviation of those
    masses between successive rungs, and the share of the base fiber's
    transfer mass each rung misses."""
    rungs = tuple(tuple(r) for r in ladder)
    cylinders = tuple(tuple(c) for c in cylinders) if cylinders is not None else tuple((e,) for e in sorted(rungs[0])[:2])
    state0 = orbit.state(0)
    per_rung, tails = [], []
    for r in rungs:
        m = masses(conformal_measures(r, potential, orbit, depth=depth)[0][0])
        per_rung.append([m.get(c, 0.0) for c in cylinders])
        log_rung, _ = potential.unit_transfer_bounds(state0, r)
        log_full, _ = potential.unit_transfer_bounds(state0, None)
        tails.append(1.0 if log_full == math.inf else max(0.0, 1.0 - math.exp(log_rung - log_full)))
    by_cylinder = {c: tuple(row[i] for row in per_rung) for i, c in enumerate(cylinders)}
    deviations = tuple(max(abs(m[i + 1] - m[i]) for m in by_cylinder.values()) for i in range(len(rungs) - 1))
    return by_cylinder, deviations, tuple(tails)


def shrinking(deviations: Sequence[float]) -> bool:
    """Whether successive deviations never grow (Cauchy along the ladder)."""
    return all(b <= a + 1e-12 for a, b in zip(deviations, deviations[1:]))


def check_rbsc(gdms, symbols, fiber_samples=None) -> float:
    """Margin of the boundary separation condition over a finite edge set:
    the least distance between a vertex-space boundary and the union of the
    images of the edges leaving that vertex, over the sampled fibers (by
    default the driving's support).  Nonpositive means the condition fails."""
    if fiber_samples is None:
        fiber_samples = gdms.driving.state_support()
    by_vertex: dict = {}
    for e in symbols:
        by_vertex.setdefault(gdms.vertex_of(e)[0], []).append(e)
    margin = math.inf
    for state in fiber_samples:
        for v, edges in by_vertex.items():
            lo, hi = gdms.spaces[v]
            images = []
            for e in edges:
                a, r = map_of(gdms, e, state)
                target_lo, target_hi = gdms.space_of_edge_target(e)
                images.append((a, a + r * (target_hi - target_lo)))
            margin = min(margin, min(img[0] for img in images) - lo, hi - max(img[1] for img in images))
    return margin


def local_dimension_samples(gdms, orbit, measure, words) -> list[tuple]:
    """(word, depths, Markov ratios, metric ratios, gaps) along the prefixes
    of admissible words over the measure's symbols: at each depth j, the log
    of the prefix cylinder's mass against the log of its diameter, and the
    log of the mass of the ball of that diameter around the word's point
    against the same, with their gaps.

    Requires a positive boundary separation margin, so the coding is a
    bijection.  Intervals and balls are read off all words of each prefix
    length, coded at once in word_index's order, the order of the measure's
    levels."""
    symbols = measure.symbols
    margin = check_rbsc(gdms, symbols)
    if margin <= 0:
        raise ValueError(f"boundary separation margin {margin:.3g} is not positive")
    words = [tuple(w) for w in words]
    position = {e: i for i, e in enumerate(symbols)}
    for word in words:
        if not (word and set(word) <= position.keys() and gdms.symbolic.is_admissible(word)):
            raise ValueError(f"{word} is no admissible word over the measure's symbols")
    depth = min(max(map(len, words), default=0), measure.depth)
    coded = [code_levels(gdms, orbit, symbols, j) for j in range(1, depth + 1)]
    points = {}  # the centers of the words longer than the measure, coded once per length
    for n in {len(w) for w in words if len(w) > depth}:
        long = [w for w in words if len(w) == n]
        index = np.array([[position[e] for e in w] for w in long])
        points.update(zip(long, _code_rows(gdms, orbit, symbols, index).tolist()))
    out = []
    for word in words:
        cells = [0]  # the index of each prefix in its level of the measure's word tree
        for child, e in zip(measure.tree.child, word):
            cells.append(child[cells[-1], position[e]].item())
        x = points[word] if word in points else coded[len(word) - 1][0][cells[-1]].item()
        depths, markov, metric = [], [], []
        for j, i in enumerate(cells[1:], 1):
            center, half = coded[j - 1]
            diam = (center[i] + half[i]).item() - (center[i] - half[i]).item()
            mass = measure.levels[j - 1].item(i)
            if mass <= 0 or diam <= 0:
                continue
            ball = np.flatnonzero((center + half >= x - diam) & (center - half <= x + diam))
            depths.append(j)
            markov.append(math.log(mass) / math.log(diam))
            metric.append(math.log(sum(measure.levels[j - 1][ball].tolist())) / math.log(diam))
        gaps = tuple(abs(mk - mt) for mk, mt in zip(markov, metric))
        out.append((word, tuple(depths), tuple(markov), tuple(metric), gaps))
    return out


def solve_t(p: Callable[[float], float], p0: float, q: float) -> float:
    """The t with p(t) = q p(0); the pressure is strictly decreasing."""
    f = lambda t: p(t) - q * p0
    lo, f_lo = -1.0, f(-1.0)
    while f_lo <= 0.0 and lo > -2.0 ** 200:
        lo *= 2.0
        f_lo = f(lo)
    hi, f_hi = 1.0, f(1.0)
    while f_hi >= 0.0 and hi < 2.0 ** 200:
        hi *= 2.0
        f_hi = f(hi)
    return _root(f, lo, hi, f_lo, f_hi)


def tq_analysis(curve, q_grid: Sequence[float], symbol_count: int) -> Callable[[float], float]:
    """The temperature curve q -> T(q), the root of p(T(q)) = q p(0) on the
    curve's evaluator, for a finite symbol set of at least two symbols,
    after checking that T decreases along q_grid (its slope p(0) / p'(T) is
    negative for a nondegenerate finite alphabet)."""
    if symbol_count < 2:
        raise ValueError("temperature analysis needs at least two symbols")
    p0 = curve.evaluator(0.0)
    ts = [solve_t(curve.evaluator, p0, q) for q in sorted(q_grid)]
    if not all(b < a + 1e-9 for a, b in zip(ts, ts[1:])):
        raise ValueError("temperature curve is not decreasing; pressure evaluator suspect")
    return lambda q: solve_t(curve.evaluator, p0, q)


def tq_transform(curve, t_at: Callable[[float], float], alpha: float) -> float:
    """The concave transform inf_q (alpha q + T(q)) over q in [-64, 64], at
    the root of alpha + T'(q) = alpha + p(0) / p'(T(q)), with p' from the
    curve's slope_at."""
    p0 = curve.evaluator(0.0)
    f = lambda q: alpha + p0 / curve.slope_at(t_at(q))
    q = _root(f, -64.0, 64.0, f(-64.0), f(64.0))
    return alpha * q + t_at(q)
