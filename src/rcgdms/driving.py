"""Invertible ergodic base systems supplying two-sided fiber orbits.

Three kinds are supported: deterministic (a single fixed fiber), periodic
(a finite cycle) and bernoulli (two-sided i.i.d. draws over a countable state
set with closed-form weights).  Orbits are seeded and reproducible; negative
indices of a bernoulli orbit come from an independent seeded stream glued at
zero, which is legitimate because the base measure is an i.i.d. product.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

_BLOCK = 1024


@dataclass(frozen=True)
class DrivingSystem:
    kind: str  # "deterministic" | "periodic" | "bernoulli"
    states: tuple
    weights: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in ("deterministic", "periodic", "bernoulli"):
            raise ValueError(f"unknown driving kind {self.kind!r}")
        if not self.states:
            raise ValueError("state space must be nonempty")
        if self.kind == "bernoulli":
            if self.weights is None or len(self.weights) != len(self.states):
                raise ValueError("bernoulli driving needs one weight per state")
            if not all(w >= 0 for w in self.weights):  # NaN fails too
                raise ValueError("weights must be nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12 after tail inclusion")

    def expectation(self, fn: Callable[[object], float]) -> float:
        """Exact expectation of fn(state) under the marginal of the base measure."""
        if self.kind == "deterministic":
            return fn(self.states[0])
        if self.kind == "periodic":
            return math.fsum(fn(s) for s in self.states) / len(self.states)
        total = 0.0
        for s, w in zip(self.states, self.weights):
            if w == 0.0:
                continue
            v = fn(s)
            if v == math.inf:
                return math.inf
            total += w * v
        return total

    def state_support(self) -> tuple:
        """States carrying mass (materialized support for bernoulli)."""
        if self.kind == "bernoulli":
            return tuple(s for s, w in zip(self.states, self.weights) if w > 0)
        return self.states


def deterministic(state) -> DrivingSystem:
    return DrivingSystem(kind="deterministic", states=(state,))


def periodic(cycle: Sequence) -> DrivingSystem:
    if len(cycle) < 1:
        raise ValueError("periodic cycle length must be >= 1")
    return DrivingSystem(kind="periodic", states=tuple(cycle))


def bernoulli(states: Sequence, weights: Sequence[float]) -> DrivingSystem:
    total = math.fsum(weights)
    if total <= 0:
        raise ValueError("weights must have positive mass")
    if abs(total - 1.0) > 1e-12:
        # Tail remainder below materialization is folded in by normalization.
        weights = [w / total for w in weights]
    return DrivingSystem(kind="bernoulli", states=tuple(states), weights=tuple(weights))


class DrivingOrbit:
    """Lazily materialized two-sided state sequence (omega_k), k in Z.

    The same seed always yields the same sequence, and the state at index k
    does not depend on the access order.  Block materialization is
    synchronized so concurrent readers observe a consistent orbit.
    """

    def __init__(self, system: DrivingSystem, seed: int = 0):
        self.system = system
        self.seed = int(seed)
        self._lock = threading.Lock()
        if system.kind == "bernoulli":
            root = np.random.SeedSequence(self.seed)
            fwd, bwd = root.spawn(2)
            self._rng_fwd = np.random.Generator(np.random.PCG64(fwd))
            self._rng_bwd = np.random.Generator(np.random.PCG64(bwd))
            self._cum = np.cumsum(np.asarray(system.weights, dtype=float))
            self._cum[-1] = 1.0
            self._fwd: list = []
            self._bwd: list = []

    def _draw_block(self, rng) -> list:
        u = rng.random(_BLOCK)
        idx = np.searchsorted(self._cum, u, side="right")
        idx = np.minimum(idx, len(self.system.states) - 1)
        return [self.system.states[i] for i in idx]

    def state(self, k: int):
        sys = self.system
        if sys.kind == "deterministic":
            return sys.states[0]
        if sys.kind == "periodic":
            return sys.states[k % len(sys.states)]
        with self._lock:
            if k >= 0:
                while len(self._fwd) <= k:
                    self._fwd.extend(self._draw_block(self._rng_fwd))
                return self._fwd[k]
            j = -1 - k
            while len(self._bwd) <= j:
                self._bwd.extend(self._draw_block(self._rng_bwd))
            return self._bwd[j]

    def states(self, start: int, stop: int) -> list:
        return [self.state(k) for k in range(start, stop)]


def sample_orbit(system: DrivingSystem, seed: int = 0) -> DrivingOrbit:
    """Reproducible orbit realizing a typical point of the base system."""
    return DrivingOrbit(system, seed)


def fiber_state(orbit: DrivingOrbit, k: int):
    """State of the fiber at (possibly negative) index k."""
    return orbit.state(k)


def orbit_family(system: DrivingSystem, count: int = 16, root_seed: int = 0) -> list[DrivingOrbit]:
    """Independent orbits for Monte Carlo averages, seeded from one root."""
    seeds = np.random.SeedSequence(root_seed).generate_state(count)
    return [DrivingOrbit(system, int(s)) for s in seeds]
