"""Fiberwise conformal measures over finite subalphabets, at cylinder depth.

A chain of probability measures m_0, ..., m_horizon along the orbit satisfies
the dual transfer relation L*_{omega_k} m_{k+1} = lambda_k m_k.  The chain is
built by pulling a terminal uniform-on-cylinders seed backward through the
normalized dual operator; the seed's influence decays from the horizon at a
geometric rate, and the default horizon 2*depth + 10 leaves the monitored
positions effectively converged.  On product systems (full shift,
cylinder-constant potential) the induction reproduces the closed form
mass([tau]) = prod_j w(tau_j, omega_{k+j}) / M(omega_{k+j}).

A measure is one mass array per word length, in `shift.prefix_tree` order.
Every pull-back step reads each word's first symbol and the index of its
suffix w[1:] one level up from a table built once per (system, symbols,
depth), so a step is one gather and one product per level:
(L* m)(w) = w(first) * m(suffix).  Floats and Fractions run the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .driving import DrivingOrbit
from .potentials import FirstSymbolPotential, float_log
from .shift import SymbolicSystem, Word, _incidence, prefix_tree


class _WordTree:
    """The admissible words of length 1..depth over sorted symbols, level by
    level in prefix_tree order.  Per level n: parent and last (prefix_tree's
    arrays), first (position of the first symbol) and suffix (index of w[1:]
    at level n-1; 0, the empty word, at level 1), and child[i, b], the index
    of word i of level n-1 extended by symbol position b (-1: inadmissible).
    successors[a] lists the positions b with (a, b) admissible."""

    def __init__(self, system: SymbolicSystem, symbols: tuple, depth: int):
        levels = []
        for parent, last in prefix_tree(system, symbols, depth):
            if levels:
                _, up_last, up_first, up_suffix, up_child = levels[-1]
                first, suffix, width = up_first[parent], up_child[up_suffix[parent], last], len(up_last)
            else:  # one level up is the empty word alone
                first, suffix, width = last, np.zeros_like(last), 1
            child = np.full((width, len(symbols)), -1, dtype=np.intp)
            child[parent, last] = np.arange(len(last))
            levels.append((parent, last, first, suffix, child))
        self.parent, self.last, self.first, self.suffix, self.child = zip(*levels)
        self.successors = [np.flatnonzero(row).tolist() for row in _incidence(system, symbols)]


@dataclass(frozen=True, eq=False)
class CylinderMeasure:
    """Masses of the admissible words of length <= depth at one orbit
    position, one array per length: levels[n-1] holds the length-n words in
    prefix_tree order (float64, or Fractions in an object array), and all
    positions of a chain share one word tree.  Each level sums to one and
    refines consistently: mass(w) = sum over admissible extensions w+e.
    mass(word) looks one cylinder up."""

    symbols: tuple[int, ...]
    position: int
    levels: tuple[np.ndarray, ...]
    tree: _WordTree = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def mass(self, word: Sequence[int]):
        """Mass of one cylinder; 0.0 for a word outside the tree."""
        if not 0 < len(word) <= self.depth:
            return 0.0
        i = 0
        for child, e in zip(self.tree.child, word):
            if e not in self.symbols:
                return 0.0
            i = child[i, self.symbols.index(e)]
            if i < 0:
                return 0.0
        return self.levels[len(word) - 1].item(i)


def _weights(potential: FirstSymbolPotential, symbols, state, exact: bool) -> np.ndarray:
    """Per-symbol weights exp(value), as Fractions or as float64 (math.exp
    of each log weight)."""
    if exact:
        return potential.exact_weights(state, symbols, "fraction")
    return np.array([math.exp(x) for x in potential.log_weights(state, symbols).tolist()])


def _pulled(tree: _WordTree, weights: np.ndarray, levels: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Unnormalized (L* m)(w) on every level of m: weight of the first symbol
    times the mass of the suffix, the admissible level-1 successors summed
    at level 1."""
    singles = levels[0].tolist()
    inner = np.array([sum(singles[b] for b in row) for row in tree.successors], dtype=levels[0].dtype)
    raw = [weights * inner]
    for n in range(1, len(levels)):
        raw.append(weights[tree.first[n]] * levels[n - 1][tree.suffix[n]])
    return raw


def conformal_measures(
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    depth: int,
    horizon: Optional[int] = None,
    exact: bool = False,
) -> tuple[list[CylinderMeasure], tuple[float, ...]]:
    """Conformal measure chain at orbit positions 0..horizon, by backward
    induction from a uniform seed at the horizon, and the log eigenvalue
    log lambda_k of each step k < horizon.  exact=True computes in
    Fractions, which requires rational weights and an integer potential
    scale.
    """
    symbols = tuple(sorted(symbols))
    if not symbols:
        raise ValueError("symbol set must be nonempty")
    if horizon is None:
        horizon = 2 * depth + 10
    tree = _WordTree(potential.system, symbols, depth)
    count = len(tree.last[-1])
    if count == 0:
        raise ValueError("no admissible words at the requested depth")
    # uniform on the deepest cylinders, aggregated up one level at a time
    levels = [np.full(count, Fraction(1, count) if exact else 1.0 / count, dtype=object if exact else float)]
    for n in range(depth - 1, 0, -1):
        up = np.zeros(len(tree.last[n - 1]), dtype=levels[0].dtype)
        np.add.at(up, tree.parent[n], levels[0])
        levels.insert(0, up)
    chain = [CylinderMeasure(symbols=symbols, position=horizon, levels=tuple(levels), tree=tree)]
    logs = []
    for k in range(horizon - 1, -1, -1):
        raw = _pulled(tree, _weights(potential, symbols, orbit.state(k), exact), chain[-1].levels)
        lam = sum(raw[0].tolist())
        chain.append(CylinderMeasure(symbols=symbols, position=k, levels=tuple(r / lam for r in raw), tree=tree))
        logs.append(float_log(lam))
    return chain[::-1], tuple(logs[::-1])


def conformality_residual(
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    measures: Sequence[CylinderMeasure],
    log_eigenvalues: Sequence[float],
    position: int = 0,
) -> float:
    """Max absolute defect of L* m_{k+1} = lambda_k m_k over depth-(d-1)
    cylinders at the given position, on the measures' own word tree."""
    k = position
    m_next, m_here = measures[k + 1], measures[k]
    lam = math.exp(log_eigenvalues[k])
    weights = _weights(potential, m_here.symbols, orbit.state(k), exact=False)
    raw = _pulled(m_here.tree, weights, m_next.levels)
    return max(
        (float(np.max(np.abs(r - lam * m))) for r, m in zip(raw[:-1], m_here.levels[:-1])),
        default=0.0,
    )


@dataclass(frozen=True)
class LadderConvergence:
    cylinders: tuple[Word, ...]
    rung_masses: dict  # word -> tuple of masses per rung
    max_deviation: tuple[float, ...]  # successive sup deviation across rungs
    tail_fraction: tuple[float, ...]  # untracked alphabet mass per rung, fiber 0
    cauchy: bool


def ladder_convergence(
    ladder: Sequence[tuple[int, ...]],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    depth: int,
    cylinders: Optional[Sequence[Word]] = None,
) -> LadderConvergence:
    """Masses of fixed cylinders under each ladder rung plus Cauchy
    diagnostics.  The tail fraction reports how much transfer mass the rung
    misses at the base fiber; rungs whose deviations stop shrinking are
    flagged non-Cauchy."""
    rungs = tuple(tuple(r) for r in ladder)
    if cylinders is None:
        seeds = sorted(rungs[0])[:2]
        cylinders = tuple((e,) for e in seeds)
    cylinders = tuple(tuple(c) for c in cylinders)
    per_rung = []
    tails = []
    state0 = orbit.state(0)
    for r in rungs:
        measures, _ = conformal_measures(r, potential, orbit, depth=depth)
        per_rung.append({c: measures[0].mass(c) for c in cylinders})
        log_rung, _ = potential.unit_transfer_bounds(state0, r)
        try:
            log_full, _ = potential.unit_transfer_bounds(state0, None)
        except ValueError:
            log_full = None
        if log_full is None:
            tails.append(0.0)
        elif log_full == math.inf:
            tails.append(1.0)
        else:
            tails.append(max(0.0, 1.0 - math.exp(log_rung - log_full)))
    masses = {c: tuple(per_rung[i][c] for i in range(len(rungs))) for c in cylinders}
    deviations = tuple(
        max(abs(masses[c][i + 1] - masses[c][i]) for c in cylinders)
        for i in range(len(rungs) - 1)
    )
    cauchy = all(
        deviations[i + 1] <= deviations[i] + 1e-12 for i in range(len(deviations) - 1)
    )
    return LadderConvergence(
        cylinders=cylinders,
        rung_masses=masses,
        max_deviation=deviations,
        tail_fraction=tuple(tails),
        cauchy=cauchy,
    )
