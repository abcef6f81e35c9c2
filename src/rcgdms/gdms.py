"""Random conformal graph directed Markov systems over interval spaces.

A system couples a symbolic alphabet with a driving base system and, for each
(edge, fiber state), a contraction of the target vertex space into the source
vertex space.  Similarity systems are exact: the derivative is constant, the
geometric potential is constant on 1-cylinders and all distortion constants
are trivial (K_bd = 1, L = 0).  General conformal maps are admitted only via
user-declared derivative bounds; nothing here differentiates arbitrary maps.

Ratios are handled in log space throughout: deep tail edges of countable
alphabets (e.g. weight 8^-e) underflow double precision long before they stop
mattering analytically.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .driving import DrivingOrbit, DrivingSystem, bernoulli
from .potentials import log_sum_exp
from .shift import GeometricTail, SymbolicSystem, Word, enumerate_words, full_shift


@dataclass(frozen=True)
class RCGDMS:
    """Similarity-or-declared-conformal random GDMS on intervals.

    log_ratio(e, state) is log |phi'_{e,omega}| (constant for similarities);
    offset(e, state) is the left endpoint of the image interval.  For
    non-similarity instances the declared constants (derivative_holder_*)
    bound the geometry; the per-edge min_log_ratio map realizes the
    normality lower bounds.
    """

    symbolic: SymbolicSystem
    driving: DrivingSystem
    spaces: Mapping[object, tuple[float, float]]
    log_ratio: Callable[[int, object], float]
    offset: Callable[[int, object], float]
    contraction: float  # common Lipschitz bound, sup of all ratios
    min_log_ratio: Callable[[int], float]  # per-edge lower bound over fibers
    log_ratio_range: Callable[[int], tuple[float, float]]  # (lo, hi) over fibers
    edge_vertex: Optional[Mapping[int, tuple[object, object]]] = None  # (initial, terminal)
    ratio_fraction: Optional[Callable[[int, object], Fraction]] = None
    tail_log_moment: Optional[Callable[[float, object], float]] = None
    derivative_holder_const: float = 0.0  # L
    derivative_holder_exp: float = 1.0  # alpha_Phi
    name: str = "system"

    def __post_init__(self):
        if not (0.0 < self.contraction < 1.0):
            raise ValueError("contraction bound must lie strictly inside (0, 1)")

    def vertex_of(self, e: int) -> tuple[object, object]:
        if self.edge_vertex is not None:
            return self.edge_vertex[e]
        v = self.symbolic.vertices[0]
        return (v, v)

    def space_of_edge_target(self, e: int) -> tuple[float, float]:
        return self.spaces[self.vertex_of(e)[1]]

    def image_interval(self, e: int, state) -> tuple[float, float]:
        lo, hi = self.space_of_edge_target(e)
        a = self.offset(e, state)
        r = math.exp(self.log_ratio(e, state))
        return (a, a + r * (hi - lo))

    def max_diameter(self) -> float:
        return max(hi - lo for lo, hi in self.spaces.values())


@dataclass(frozen=True)
class LimitSetSample:
    """Depth-n truncation of a fiber limit set: one point per sampled word,
    each within radius_bound of the true coded point."""

    position: int
    depth: int
    words: tuple[Word, ...]
    points: np.ndarray
    radius_bound: float


def code_point(gdms: RCGDMS, orbit: DrivingOrbit, prefix: Sequence[int]) -> tuple[float, float]:
    """Center and half-width of the nested image interval of a word prefix.

    The k-th map of the composition acts at fiber state omega_k; the interval
    contains the coded point of every extension of the prefix, and its width
    is bounded by contraction**n times the space diameter.
    """
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("prefix must be nonempty")
    if not gdms.symbolic.is_admissible(prefix):
        raise ValueError(f"inadmissible prefix {prefix}")
    lo, hi = gdms.space_of_edge_target(prefix[-1])
    for k in range(len(prefix) - 1, -1, -1):
        e = prefix[k]
        state = orbit.state(k)
        a = gdms.offset(e, state)
        r = math.exp(gdms.log_ratio(e, state))
        src_lo, src_hi = gdms.space_of_edge_target(e)
        lo, hi = a + r * (lo - src_lo), a + r * (hi - src_lo)
    return (0.5 * (lo + hi), 0.5 * (hi - lo))


def image_of_word(gdms: RCGDMS, orbit: DrivingOrbit, prefix: Sequence[int]) -> tuple[float, float]:
    """Image interval phi_{tau|n, omega}(X_{t(tau_{n-1})})."""
    center, half = code_point(gdms, orbit, prefix)
    return (center - half, center + half)


def sample_limit_set(
    gdms: RCGDMS,
    orbit: DrivingOrbit,
    depth: int,
    count: Optional[int] = None,
    sampler: str = "exhaustive",
    seed: int = 0,
    symbols: Optional[Sequence[int]] = None,
) -> LimitSetSample:
    """Point cloud approximating the fiber limit set at a given word depth.

    Exhaustive mode enumerates every admissible word; random mode extends
    words one admissible symbol at a time, uniformly, under a dedicated seed.
    """
    symbols = tuple(sorted(symbols if symbols is not None else gdms.symbolic.edges))
    if sampler == "exhaustive":
        words = tuple(enumerate_words(gdms.symbolic, symbols, depth))
    elif sampler == "random-words":
        if count is None:
            raise ValueError("random-words sampling needs a count")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        picked = []
        for _ in range(count):
            w = [symbols[rng.integers(len(symbols))]]
            for _ in range(depth - 1):
                nxt = gdms.symbolic.successors(w[-1], symbols)
                if not nxt:
                    break
                w.append(nxt[rng.integers(len(nxt))])
            if len(w) == depth:
                picked.append(tuple(w))
        words = tuple(picked)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    pts = np.array([code_point(gdms, orbit, w)[0] for w in words], dtype=float)
    bound = gdms.contraction ** depth * gdms.max_diameter()
    return LimitSetSample(position=0, depth=depth, words=words, points=pts, radius_bound=bound)


def check_rbsc(
    gdms: RCGDMS, symbols: Sequence[int], fiber_samples: Optional[Sequence] = None
) -> float:
    """Margin of the boundary separation condition over a finite edge set.

    The margin is the least distance between a vertex-space boundary and the
    union of the finite subsystem's images, minimized over sampled fibers.
    Nonpositive margins mean the condition fails on the samples.
    """
    if fiber_samples is None:
        fiber_samples = gdms.driving.state_support()
    margin = math.inf
    for state in fiber_samples:
        by_vertex: dict = {}
        for e in symbols:
            by_vertex.setdefault(gdms.vertex_of(e)[0], []).append(e)
        for v, edges in by_vertex.items():
            lo, hi = gdms.spaces[v]
            imgs = [gdms.image_interval(e, state) for e in edges]
            margin = min(
                margin,
                min(img[0] for img in imgs) - lo,
                hi - max(img[1] for img in imgs),
            )
    return margin


def similarity_system(
    symbolic: SymbolicSystem,
    driving: DrivingSystem,
    ratios: Mapping[object, Mapping[int, Fraction]],
    offsets: Mapping[object, Mapping[int, float]],
    spaces: Optional[Mapping[object, tuple[float, float]]] = None,
    name: str = "system",
) -> RCGDMS:
    """Finite-alphabet similarity instance from per-state ratio/offset tables.

    Ratios are kept as Fractions so exact-arithmetic paths (sandwich margins,
    Gibbs brackets) stay available.
    """
    spaces = dict(spaces) if spaces else {symbolic.vertices[0]: (0.0, 1.0)}
    ratio_f = {s: {e: Fraction(r) for e, r in tbl.items()} for s, tbl in ratios.items()}
    states = driving.state_support()
    all_vals = [ratio_f[s][e] for s in states for e in symbolic.edges]
    kappa = float(max(all_vals))

    def log_ratio(e, state):
        return math.log(ratio_f[state][e])

    def offset(e, state):
        return float(offsets[state][e])

    def min_log(e):
        return math.log(min(ratio_f[s][e] for s in states))

    def log_range(e):
        vals = [math.log(ratio_f[s][e]) for s in states]
        return (min(vals), max(vals))

    return RCGDMS(
        symbolic=symbolic,
        driving=driving,
        spaces=spaces,
        log_ratio=log_ratio,
        offset=offset,
        contraction=kappa,
        min_log_ratio=min_log,
        log_ratio_range=log_range,
        ratio_fraction=lambda e, s: ratio_f[s][e],
        name=name,
    )


# ---------------------------------------------------------------------------
# Worked countable-alphabet example: block-structured ratio schedule over a
# full shift on the positive integers, driven by a Bernoulli shift whose
# state i unlocks the first i ratio blocks.
# ---------------------------------------------------------------------------

_LOG2 = math.log(2.0)
_LOG8 = math.log(8.0)


def _block_boundaries(max_block: int) -> list[int]:
    # boundaries[l] = sum_{k<=l} 2^(k^2 - 1); block l covers (boundaries[l-1], boundaries[l]]
    out = [0]
    for k in range(1, max_block + 1):
        out.append(out[-1] + 2 ** (k * k - 1))
    return out


def example_weights(count: int = 40) -> tuple[list[int], list[float]]:
    """Closed-form Bernoulli state weights, proportional to
    1 / (2^i * sum_{k<=i} 2^(k^2)); the tail beyond `count` is below double
    precision and is folded in by normalization."""
    raw = []
    for i in range(1, count + 1):
        log_den = i * _LOG2 + log_sum_exp(k * k * _LOG2 for k in range(1, i + 1))
        raw.append(math.exp(-log_den) if log_den < 700 else 0.0)
    total = math.fsum(raw)
    return list(range(1, count + 1)), [w / total for w in raw]


class BlockTailExample:
    """Exact per-state tail moments for the block-structured example.

    For fiber state i, edges within blocks 2..i carry the block ratio
    2^-(l^2+l) and everything past block i decays like 8^-e.  Edges beyond
    the materialized cutoff are summed in closed form, block by block, so
    the per-fiber transfer sums are exact for every state.
    """

    def __init__(self, cutoff: int, max_block: int = 64):
        self.cutoff = cutoff
        self.bounds = _block_boundaries(max_block)

    def block_of(self, e: int) -> int:
        return bisect.bisect_left(self.bounds, e)

    def log_ratio(self, e: int, state: int) -> float:
        l = self.block_of(e)
        if l <= int(state):
            return -(l * l + l) * _LOG2
        return -e * _LOG8

    def log_moment(self, s: float, state: int) -> float:
        """log sum over tail edges e > cutoff of exp(s * log_ratio(e, state));
        +inf when the series diverges (s <= 0)."""
        if s <= 0.0:
            return math.inf
        i = int(state)
        terms = []
        # partially/fully unlocked blocks past the cutoff
        l = self.block_of(self.cutoff + 1)
        while l <= i and l < len(self.bounds) - 1:
            first = max(self.bounds[l - 1], self.cutoff) + 1
            last = self.bounds[l]
            if first <= last:
                terms.append(math.log(last - first + 1) - s * (l * l + l) * _LOG2)
            l += 1
        # geometric remainder past block i (or past the cutoff when i's blocks
        # are all materialized); beyond ~1e15 edges it underflows any double
        start = max(self.bounds[min(i, len(self.bounds) - 1)], self.cutoff) + 1
        log_q = -s * _LOG8
        if start < 1e15:
            terms.append(start * log_q - math.log1p(-math.exp(log_q)))
        return log_sum_exp(terms)

    def ru_moment(self, s: float, tol: float = 1e-18, max_block: int = 400) -> tuple[float, bool]:
        """Essential-sup moment sum over edges: sum_l 2^(l^2-1) * 2^(-s(l^2+l)).

        Returns (value, divergent).  Divergence is flagged when the block
        terms stop decreasing (s < 1 makes them blow up superexponentially).
        """
        total = 0.0
        prev = math.inf
        for l in range(1, max_block + 1):
            log_term = ((l * l - 1) - s * (l * l + l)) * _LOG2
            term = math.exp(log_term) if log_term < 700 else math.inf
            if term > prev or term == math.inf:
                return (math.inf, True)
            total += term
            if term < tol:
                return (total, False)
            prev = term
        return (total, False)


def build_paper_example(cutoff: int = 1024, weight_states: int = 40) -> RCGDMS:
    """Countable-alphabet full-shift instance with the block ratio schedule.

    Edge 1 contracts by 2^-2 in every fiber; block l (2 <= l <= state) holds
    2^(l^2-1) edges of ratio 2^-(l^2+l); every other edge decays like 8^-e.
    Images are packed left to right with uniform gaps from the slack left by
    total mass <= 1/2, which keeps the boundary separation margin positive.
    """
    tail = BlockTailExample(cutoff)
    states, weights = example_weights(weight_states)
    drv = bernoulli(states, weights)
    symbolic = full_shift(range(1, cutoff + 1), tail=GeometricTail(ratio=0.125, start=cutoff + 1))
    edges = symbolic.edges

    offset_cache: dict[int, dict[int, float]] = {}

    def offsets_for(state: int) -> dict[int, float]:
        got = offset_cache.get(state)
        if got is None:
            widths = [math.exp(tail.log_ratio(e, state)) for e in edges]
            total = math.fsum(widths) + math.exp(tail.log_moment(1.0, state))
            gap = (1.0 - total) / (len(edges) + 1)
            got, acc = {}, gap
            for e, w in zip(edges, widths):
                got[e] = acc
                acc += w + gap
            offset_cache[state] = got
        return got

    def min_log(e):
        # the 8^-e branch is active for small states, except at e = 1
        return -2 * _LOG2 if e == 1 else -e * _LOG8

    def log_range(e):
        l = tail.block_of(e)
        return (min_log(e), -(l * l + l) * _LOG2)

    return RCGDMS(
        symbolic=symbolic,
        driving=drv,
        spaces={"v": (0.0, 1.0)},
        log_ratio=tail.log_ratio,
        offset=lambda e, state: offsets_for(int(state))[e],
        contraction=0.25,
        min_log_ratio=min_log,
        log_ratio_range=log_range,
        tail_log_moment=tail.log_moment,
        name="paper-example",
    )
