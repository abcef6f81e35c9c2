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
A cylinder's mass is read off its level (the tests key the levels by word
in `words.masses`); the defect of the dual relation and the masses along a
subalphabet ladder, which no command reports, are the tests' `oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .driving import DrivingOrbit
from .potentials import FirstSymbolPotential, float_log
from .shift import SymbolicSystem, _incidence, prefix_tree


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
    refines consistently: mass(w) = sum over admissible extensions w+e."""

    symbols: tuple[int, ...]
    position: int
    levels: tuple[np.ndarray, ...]
    tree: _WordTree = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.levels)


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
