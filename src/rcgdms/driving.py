"""Invertible ergodic base systems supplying two-sided fiber orbits.

Two kinds are supported: periodic (a finite cycle; a fixed fiber is the cycle
of length one) and bernoulli (two-sided i.i.d. draws over a countable state
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

_BLOCK = 64  # uniforms per draw: doubles leave the stream in order, so any block size gives the same states


@dataclass(frozen=True)
class DrivingSystem:
    kind: str  # "periodic" | "bernoulli"
    states: tuple
    weights: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in ("periodic", "bernoulli"):
            raise ValueError(f"unknown driving kind {self.kind!r}")
        if not self.states:
            raise ValueError("state space must be nonempty")
        support = self.states
        if self.kind == "bernoulli":
            if self.weights is None or len(self.weights) != len(self.states):
                raise ValueError("bernoulli driving needs one weight per state")
            if not all(w >= 0 for w in self.weights):  # NaN fails too
                raise ValueError("weights must be nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12 after tail inclusion")
            support = tuple(s for s, w in zip(self.states, self.weights) if w > 0)
            # not a field: the weights of the support states, read by expected()
            object.__setattr__(self, "_support_weights", np.array([w for w in self.weights if w > 0], dtype=float))
        object.__setattr__(self, "_support", support)  # not a field: read by state_support()

    def expected(self, values: np.ndarray):
        """expectation() of per-state values listed in the order of
        state_support(), along the last axis: a float for one row, else one
        value per row.  A bernoulli row is summed in state order from 0.0
        (np.cumsum, + 0.0), and +inf anywhere gives +inf; a periodic row
        is expectation's cycle mean."""
        if self.kind == "periodic":
            rows = [self.expectation(dict(zip(self._support, row)).__getitem__) for row in np.atleast_2d(values).tolist()]
            return rows[0] if values.ndim == 1 else np.array(rows)
        with np.errstate(invalid="ignore"):  # -inf + inf, in a row holding +inf
            out = np.cumsum(self._support_weights * values, axis=-1)[..., -1] + 0.0
        if not np.isfinite(out).all():  # where a row holds +inf, whatever else it holds
            out = np.where((values == math.inf).any(axis=-1), math.inf, out)
        return float(out) if values.ndim == 1 else out

    def expectation(self, fn: Callable[[object], float]) -> float:
        """Exact expectation of fn(state) under the marginal of the base
        measure: the cycle mean of a periodic base, else expected's sum."""
        if self.kind == "periodic":
            return math.fsum(fn(s) for s in self.states) / len(self.states)
        return self.expected(np.array([fn(s) for s in self._support], dtype=float))

    def state_support(self) -> tuple:
        """States carrying mass (materialized support for bernoulli), built
        once per instance."""
        return self._support


def deterministic(state) -> DrivingSystem:
    """A fixed fiber: the periodic cycle of length one."""
    return periodic((state,))


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
    does not depend on the access order.  A bernoulli orbit keeps its draws
    as indices into system.states: states k >= 0 come from the generator
    seeded by SeedSequence(seed, spawn_key=(0,)) and states k < 0 from
    spawn_key=(1,), the two children of SeedSequence(seed).spawn(2).  Each
    side's generator is built on first use, so a forward-only reader never
    builds the backward one.  Block materialization is synchronized so
    concurrent readers observe a consistent orbit.
    """

    def __init__(self, system: DrivingSystem, seed: int = 0):
        self.system = system
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._rngs = [None, None]  # forward and backward generators, each built on its first draw
        self._drawn = [np.empty(0, dtype=np.intp)] * 2  # k >= 0 at k, k < 0 at -1 - k
        if system.kind == "bernoulli":
            self._cum = np.cumsum(np.asarray(system.weights, dtype=float))
            self._cum[-1] = 1.0

    def _draws(self, side: int, length: int) -> np.ndarray:
        """At least `length` state indices of one side (0 forward, 1 backward),
        drawn in whole blocks.  A drawn array is replaced, never changed, so a
        long enough one is read without the lock."""
        if len(self._drawn[side]) < length:
            with self._lock:
                drawn = self._drawn[side]
                if len(drawn) < length:
                    if self._rngs[side] is None:
                        child = np.random.SeedSequence(self.seed, spawn_key=(side,))
                        self._rngs[side] = np.random.Generator(np.random.PCG64(child))
                    u = self._rngs[side].random(-((len(drawn) - length) // _BLOCK) * _BLOCK)
                    idx = np.minimum(np.searchsorted(self._cum, u, side="right"), len(self.system.states) - 1)
                    self._drawn[side] = np.concatenate([drawn, idx])
        return self._drawn[side]

    def state(self, k: int):
        sys = self.system
        if sys.kind != "bernoulli":
            return sys.states[k % len(sys.states)]
        return sys.states[self._draws(0, k + 1)[k] if k >= 0 else self._draws(1, -k)[-1 - k]]

    def state_indices(self, start: int, stop: int) -> np.ndarray:
        """Indices into system.states of the states at start, ..., stop - 1."""
        ks = np.arange(start, stop)
        if self.system.kind != "bernoulli":
            return ks % len(self.system.states)
        back, fwd = ks[ks < 0], ks[ks >= 0]
        return np.concatenate([self._draws(1, -start)[-1 - back], self._draws(0, stop)[fwd]])


class OrbitFamily:
    """Independent orbits of one driving system for Monte Carlo averages,
    with the drawn states of positions 0, ..., depth - 1 memoised per depth.

    A family lives as long as its owner keeps it (the Monte Carlo route
    keeps one per potential and reads it at every s, rung and depth), and
    holds no global state.  The memo is idempotent: two readers that race
    build equal arrays, so it needs no lock.
    """

    def __init__(self, system: DrivingSystem, seeds: Sequence[int]):
        self.system = system
        self.orbits = tuple(DrivingOrbit(system, s) for s in seeds)
        self._by_depth: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def state_matrix(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """(used, inverse) of np.unique over the (depth x orbits) matrix of
        state indices at positions 0, ..., depth - 1: the distinct indices
        into system.states, sorted, and per step and orbit the position of
        its state in `used`, so that used[inverse] is the matrix."""
        got = self._by_depth.get(depth)
        if got is None:
            idx = np.array([o.state_indices(0, depth) for o in self.orbits]).T
            used, inverse = np.unique(idx, return_inverse=True)
            got = self._by_depth.setdefault(depth, (used, inverse.reshape(idx.shape)))
        return got


def orbit_family(system: DrivingSystem, count: int = 16, root_seed: int = 0) -> OrbitFamily:
    """Independent orbits for Monte Carlo averages, seeded from one root."""
    return OrbitFamily(system, np.random.SeedSequence(root_seed).generate_state(count))
