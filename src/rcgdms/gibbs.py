"""Fiberwise conformal measures over finite subalphabets, at cylinder depth.

A chain of probability measures m_0, ..., m_horizon along the orbit satisfies
the dual transfer relation L*_{omega_k} m_{k+1} = lambda_k m_k.  The chain is
built by pulling a terminal uniform-on-cylinders seed backward through the
normalized dual operator; the seed's influence decays from the horizon at a
geometric rate, and the default horizon 2*depth + 10 leaves the monitored
positions effectively converged.

Product systems (full shift, cylinder-constant potential) have the closed
form mass([tau]) = prod_j w(tau_j, omega_{k+j}) / M(omega_{k+j}), eigenvalue
lambda_k = M(omega_k); the backward induction reproduces it and is kept as an
independent route for residual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .driving import DrivingOrbit
from .potentials import FirstSymbolPotential, float_log
from .shift import SubalphabetLadder, SymbolicSystem, Word, enumerate_words


@dataclass(frozen=True)
class CylinderMeasure:
    """Mass assignment on all admissible words of length <= depth at one
    orbit position.  Masses of each fixed depth sum to one and refine
    consistently: mass(w) = sum over admissible extensions w+e."""

    symbols: tuple[int, ...]
    position: int
    depth: int
    masses: dict

    def mass(self, word: Sequence[int]) -> float:
        return self.masses.get(tuple(word), 0.0)

    def depth_slice(self, d: int) -> dict:
        return {w: m for w, m in self.masses.items() if len(w) == d}


@dataclass(frozen=True)
class EigenvalueSequence:
    """Per-step log eigenvalues of the dual relation and their partial sums."""

    log_values: tuple[float, ...]

    def partial_sum(self, n: int) -> float:
        return math.fsum(self.log_values[:n])


def _uniform_seed(system, symbols, position, depth, number=float):
    words = list(enumerate_words(system, symbols, depth))
    if not words:
        raise ValueError("no admissible words at the requested depth")
    if number is Fraction:
        unit = Fraction(1, len(words))
    else:
        unit = 1.0 / len(words)
    masses = {w: unit for w in words}
    # aggregate shallower cylinders from the deepest level
    for d in range(depth - 1, 0, -1):
        level: dict = {}
        for w, m in masses.items():
            if len(w) == d + 1:
                level[w[:-1]] = level.get(w[:-1], 0 * m) + m
        masses.update(level)
    return CylinderMeasure(symbols=tuple(sorted(symbols)), position=position, depth=depth, masses=masses)


def _pull_back(
    system: SymbolicSystem,
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    state,
    measure: CylinderMeasure,
    exact: bool,
):
    """One dual-operator step: masses of L*m on words of length <= depth,
    then normalization by the eigenvalue lambda = (L*m)(1)."""
    weight = potential.exact_weight_fn("fraction" if exact else "float")
    raw: dict = {}
    depth = measure.depth
    for n in range(1, depth + 1):
        for w in enumerate_words(system, symbols, n):
            wt = weight(state, w[0])
            if n == 1:
                inner = sum(measure.mass((b,)) for b in symbols if system.admissible_pair(w[0], b))
                raw[w] = wt * inner
            else:
                raw[w] = wt * measure.mass(w[1:])
    lam = sum(raw[w] for w in raw if len(w) == 1)
    masses = {w: m / lam for w, m in raw.items()}
    return (
        CylinderMeasure(
            symbols=measure.symbols,
            position=measure.position - 1,
            depth=depth,
            masses=masses,
        ),
        float_log(lam),
    )


def _product_chain(system, symbols, potential, orbit, horizon, depth, exact):
    """Closed-form conformal chain for full shifts with cylinder-constant
    potentials: per-position transfer sums normalize independent weights."""
    symbols = tuple(sorted(symbols))
    states = [orbit.state(k) for k in range(horizon + depth + 1)]
    weight = potential.exact_weight_fn("fraction" if exact else "float")
    norms = [sum(weight(st, e) for e in symbols) for st in states]
    measures = []
    for k in range(horizon + 1):
        masses: dict = {}
        for n in range(1, depth + 1):
            for w in enumerate_words(system, symbols, n):
                m = weight(states[k], w[0]) / norms[k]
                for j in range(1, n):
                    m = m * weight(states[k + j], w[j]) / norms[k + j]
                masses[w] = m
        measures.append(
            CylinderMeasure(symbols=symbols, position=k, depth=depth, masses=masses)
        )
    logs = tuple(float_log(v) for v in norms[:horizon])
    return measures, EigenvalueSequence(log_values=logs)


def conformal_measures(
    system: SymbolicSystem,
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    depth: int,
    horizon: Optional[int] = None,
    method: str = "auto",
    exact: bool = False,
) -> tuple[list[CylinderMeasure], EigenvalueSequence]:
    """Conformal measure chain at orbit positions 0..horizon.

    method "auto" takes the closed form on product systems and the backward
    induction otherwise; "induction" forces the backward route (used to
    cross-check the closed form).  exact=True computes in Fractions, which
    requires rational weights and an integer potential scale.
    """
    symbols = tuple(sorted(symbols))
    if not potential.exact_on_cylinders:
        raise ValueError(
            "conformal chains need a cylinder-constant potential; "
            "declared-bounds potentials only bracket the dual relation"
        )
    if horizon is None:
        horizon = 2 * depth + 10
    full = system.incidence_kind == "full" or all(
        system.admissible_pair(a, b) for a in symbols for b in symbols
    )
    if method == "auto" and full and potential.exact_on_cylinders:
        return _product_chain(system, symbols, potential, orbit, horizon, depth, exact)

    number = Fraction if exact else float
    seed = _uniform_seed(system, symbols, horizon, depth, number=number)
    chain = [seed]
    logs = []
    for k in range(horizon - 1, -1, -1):
        measure, log_lam = _pull_back(
            system, symbols, potential, orbit.state(k), chain[0], exact
        )
        chain.insert(0, measure)
        logs.insert(0, log_lam)
    return chain, EigenvalueSequence(log_values=tuple(logs))


def conformality_residual(
    system: SymbolicSystem,
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    measures: Sequence[CylinderMeasure],
    eigens: EigenvalueSequence,
    position: int = 0,
) -> float:
    """Max absolute defect of L* m_{k+1} = lambda_k m_k over depth-(d-1)
    cylinders at the given position."""
    k = position
    m_next, m_here = measures[k + 1], measures[k]
    lam = math.exp(eigens.log_values[k])
    state = orbit.state(k)
    worst = 0.0
    for n in range(1, m_here.depth):
        for w in enumerate_words(system, tuple(sorted(symbols)), n):
            wt = math.exp(potential.value(state, w[0]))
            if n == 1:
                pulled = wt * math.fsum(
                    m_next.mass((b,))
                    for b in symbols
                    if system.admissible_pair(w[0], b)
                )
            else:
                pulled = wt * m_next.mass(w[1:])
            worst = max(worst, abs(pulled - lam * m_here.mass(w)))
    return worst


@dataclass(frozen=True)
class LadderConvergence:
    cylinders: tuple[Word, ...]
    rung_masses: dict  # word -> tuple of masses per rung
    max_deviation: tuple[float, ...]  # successive sup deviation across rungs
    tail_fraction: tuple[float, ...]  # untracked alphabet mass per rung, fiber 0
    cauchy: bool


def ladder_convergence(
    system: SymbolicSystem,
    ladder: SubalphabetLadder,
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
        measures, _ = conformal_measures(system, r, potential, orbit, depth=depth)
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
