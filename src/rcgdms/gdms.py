"""Random conformal graph directed Markov systems over interval spaces.

A system couples a symbolic alphabet with a driving base system and, for each
(edge, fiber state), a contraction of the target vertex space into the source
vertex space.  Every map is a similarity: the derivative is constant, the
geometric potential is constant on 1-cylinders and all distortion constants
are trivial (K_bd = 1, L = 0).  A genuinely conformal instance would need
transfer-operator collocation, which is not implemented.

Ratios are handled in log space throughout: deep tail edges of countable
alphabets (e.g. weight 8^-e) underflow double precision long before they stop
mattering analytically.  The edges past the materialized cutoff are the
system's symbolic.tail, whose log_moments(s, states) sums their ratios to
the power s in closed form: a GeometricTail, or for the worked example its
BlockTailExample.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .driving import DrivingOrbit, DrivingSystem, bernoulli
from .potentials import _segment_log_sums, log_sum_exp
from .shift import SymbolicSystem, _incidence, full_shift, geometric_derivatives, suffix_tree, word_index


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only row, float64 unless dtype says otherwise."""
    row = np.array(values, dtype=dtype)
    row.flags.writeable = False
    return row


@dataclass(frozen=True)
class RCGDMS:
    """Random GDMS of similarities on intervals.

    log_ratios(state) is log |phi'_{e,omega}| and offsets(state) the left
    endpoint of the image interval, each a read-only float64 array over
    symbolic.edges (columns in symbolic.position), built once per state.
    ratio_fractions(state), when the ratios are rational, holds them as
    Fractions in a read-only object array over the same columns.
    """

    symbolic: SymbolicSystem
    driving: DrivingSystem
    spaces: Mapping[object, tuple[float, float]]
    log_ratios: Callable[[object], np.ndarray]
    offsets: Callable[[object], np.ndarray]
    contraction: float  # common Lipschitz bound, sup of all ratios
    edge_vertex: Optional[Mapping[int, tuple[object, object]]] = None  # (initial, terminal)
    ratio_fractions: Optional[Callable[[object], np.ndarray]] = None
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

    def map_of(self, e: int, state) -> tuple[float, float]:
        """(offset, ratio) of edge e's map at a fiber state, as Python floats."""
        i = self.symbolic.position[e]
        return self.offsets(state)[i].item(), math.exp(self.log_ratios(state)[i].item())

    def image_interval(self, e: int, state) -> tuple[float, float]:
        lo, hi = self.space_of_edge_target(e)
        a, r = self.map_of(e, state)
        return (a, a + r * (hi - lo))

    def max_diameter(self) -> float:
        return max(hi - lo for lo, hi in self.spaces.values())


@dataclass(frozen=True)
class LimitSetSample:
    """Depth-n truncation of a fiber limit set: one point per sampled word,
    each within radius_bound of the true coded point.  `codes` holds the
    words as rows of symbols, built from `rows()` (positions in `symbols`)
    when first read."""

    depth: int
    points: np.ndarray
    radius_bound: float
    symbols: tuple[int, ...]
    rows: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def codes(self) -> np.ndarray:
        dtype = np.result_type(np.min_scalar_type(self.symbols[0]), np.min_scalar_type(self.symbols[-1]))
        return np.array(self.symbols, dtype=dtype)[self.rows()]


def code_levels(
    gdms: RCGDMS,
    orbit: DrivingOrbit,
    symbols: Sequence[int],
    depth: int,
    levels: Optional[Iterable[tuple[np.ndarray, np.ndarray]]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Center and half-width of the image interval phi_{w, omega}(X) of
    every word w that `levels` builds from its last symbol up, by default
    shift.suffix_tree's: every admissible word of length `depth` over
    `symbols`, in word_index's order, each distinct suffix coded once.  The
    k-th map of the composition acts at fiber state omega_k; the interval
    holds the coded point of every extension of w, and its width is at most
    contraction**depth times the space diameter.

    `levels` yields (first, parent) for positions depth - 1 down to 0, with
    `first` sorted, positions in sorted(symbols), and `parent` indexing the
    level before (at the deepest level, the symbol).  A level's interval is
    the parent's under the symbol's map at that position's fiber state,
    x -> offset + ratio * (x - left end of the map's target space); a
    symbol's words are one contiguous block, updated in place with scalar
    offset and ratio."""
    symbols = tuple(sorted(symbols))
    if levels is None:
        levels = suffix_tree(gdms.symbolic, symbols, depth)
    spaces = np.array([gdms.space_of_edge_target(e) for e in symbols], dtype=float).reshape(-1, 2)
    columns = [gdms.symbolic.position[e] for e in symbols]
    lo, hi = spaces[:, 0], spaces[:, 1]
    k = depth
    for first, parent in levels:
        k -= 1
        state = orbit.state(k)
        offsets = gdms.offsets(state)[columns].tolist()
        ratios = [math.exp(x) for x in gdms.log_ratios(state)[columns].tolist()]
        lo, hi = lo[parent], hi[parent]
        blocks = np.searchsorted(first, np.arange(len(symbols) + 1)).tolist()
        # the last level yielded (position 0) is the largest: free its arrays
        # before the centers are allocated
        del first, parent
        for i, (a, r) in enumerate(zip(offsets, ratios)):
            block = slice(blocks[i], blocks[i + 1])
            for x in (lo[block], hi[block]):
                x -= spaces[i, 0]
                x *= r
                x += a
    center = lo + hi
    center *= 0.5
    hi -= lo
    hi *= 0.5
    return center, hi


def _code_rows(gdms: RCGDMS, orbit: DrivingOrbit, symbols: Sequence[int], index: np.ndarray) -> np.ndarray:
    """code_levels' centers for the rows of `index` (positions in `symbols`),
    one word per row, in row order: each level holds the words in stable
    order of their symbol at that position."""
    levels, rank = [], None
    for k in range(index.shape[1] - 1, -1, -1):
        order = np.argsort(index[:, k], kind="stable")
        first = index[order, k]
        levels.append((first, first if rank is None else rank[order]))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
    return code_levels(gdms, orbit, symbols, index.shape[1], levels)[0][rank]


def sample_limit_set(
    gdms: RCGDMS,
    orbit: DrivingOrbit,
    depth: int,
    count: Optional[int] = None,
    seed: int = 0,
    symbols: Optional[Sequence[int]] = None,
) -> LimitSetSample:
    """Point cloud approximating the fiber limit set at a given word depth.

    With no count, every admissible word is coded, in word_index's order;
    with a count, that many random words, each extended one admissible
    symbol at a time, uniformly, under a dedicated seed (a word that reaches
    a dead end is dropped).
    """
    symbols = tuple(sorted(symbols if symbols is not None else gdms.symbolic.edges))
    bound = gdms.contraction ** depth * gdms.max_diameter()
    if count is None:
        points = code_levels(gdms, orbit, symbols, depth)[0]
        return LimitSetSample(depth, points, bound, symbols, lambda: word_index(gdms.symbolic, symbols, depth))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    successors = [np.flatnonzero(row).tolist() for row in _incidence(gdms.symbolic, symbols)]
    picked = []
    for _ in range(count):
        w = [rng.integers(len(symbols))]  # positions in symbols
        for _ in range(depth - 1):
            nxt = successors[w[-1]]
            if not nxt:
                break
            w.append(nxt[rng.integers(len(nxt))])
        if len(w) == depth:
            picked.append(w)
    index = np.array(picked, dtype=np.intp).reshape(-1, depth)
    return LimitSetSample(depth, _code_rows(gdms, orbit, symbols, index), bound, symbols, lambda: index)


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
    """Similarity instance from per-state ratio/offset tables over the
    materialized edges; a geometric tail (symbolic.tail) carries ratio**e on
    each edge e past them.

    Ratios are kept as Fractions so exact-arithmetic paths (sandwich margins,
    Gibbs brackets) stay available.
    """
    spaces = dict(spaces) if spaces else {symbolic.vertices[0]: (0.0, 1.0)}
    states = driving.state_support()
    fraction_rows = {s: _frozen([Fraction(ratios[s][e]) for e in symbolic.edges], object) for s in states}
    # one float per ratio: math.log of a Fraction and (rounding being monotone) max read the same bits
    float_rows = {s: [float(r) for r in fraction_rows[s].tolist()] for s in states}
    log_rows = {s: _frozen([math.log(r) for r in float_rows[s]]) for s in states}
    offset_rows = {s: _frozen([float(offsets[s][e]) for e in symbolic.edges]) for s in states}
    contraction = max(max(row) for row in float_rows.values())
    tail = symbolic.tail
    return RCGDMS(
        symbolic=symbolic,
        driving=driving,
        spaces=spaces,
        log_ratios=log_rows.__getitem__,
        offsets=offset_rows.__getitem__,
        contraction=contraction if tail is None else max(contraction, tail.ratio**tail.start),
        ratio_fractions=fraction_rows.__getitem__,
        name=name,
    )


# ---------------------------------------------------------------------------
# Worked countable-alphabet example: block-structured ratio schedule over a
# full shift on the positive integers, driven by a Bernoulli shift whose
# state i unlocks the first i ratio blocks.
# ---------------------------------------------------------------------------

_LOG2 = math.log(2.0)
_LOG8 = math.log(8.0)
# Ratio blocks tabulated; block 63 already ends past edge 2^3968.
_MAX_BLOCK = 64


def _block_boundaries() -> list[int]:
    # boundaries[l] = sum_{k<=l} 2^(k^2 - 1); block l covers (boundaries[l-1], boundaries[l]]
    out = [0]
    for k in range(1, _MAX_BLOCK + 1):
        out.append(out[-1] + 2 ** (k * k - 1))
    return out


def example_weights(count: int = 40) -> tuple[list[int], list[float]]:
    """Closed-form Bernoulli state weights, proportional to
    1 / (2^i * sum_{k<=i} 2^(k^2)); the tail beyond `count` is below double
    precision and is folded in by normalization."""
    i = np.arange(1, count + 1)
    # row i: k^2 log 2 for k <= i, padded with -inf
    log_dens = i * _LOG2 + log_sum_exp(np.where(i <= i[:, None], i * i * _LOG2, -np.inf))
    raw = [math.exp(-x) if x < 700 else 0.0 for x in log_dens.tolist()]
    total = math.fsum(raw)
    return list(range(1, count + 1)), [w / total for w in raw]


class BlockTailExample:
    """Tail of the block-structured example, with exact per-state moments.

    Cofinitely regular: the moment is infinite at s = 0 and finite above it.

    For fiber state i, edges within blocks 2..i carry the block ratio
    2^-(l^2+l) and everything past block i decays like 8^-e.  Edges beyond
    the materialized cutoff are summed in closed form, block by block, so
    the per-fiber transfer sums are exact for every state.  Its lanes, the
    block terms past the cutoff and the geometric remainder, are written for
    every state at once from a (state x block) table of log edge counts.
    """

    cofinitely_regular = True

    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self.bounds = _block_boundaries()
        # bounds through the first >= cutoff place every materialized edge
        self._near_bounds = np.array(self.bounds[: self.block_of(cutoff) + 1])
        # blocks reaching past the cutoff, with their edge counts beyond it
        self._blocks = np.arange(self.block_of(cutoff + 1), _MAX_BLOCK)
        self._rates = (self._blocks * self._blocks + self._blocks).astype(float)
        self._log_counts = np.array(
            [math.log(self.bounds[l] - max(self.bounds[l - 1], cutoff)) for l in self._blocks.tolist()]
        )
        self._tables: dict = {}
        self.lanes = len(self._blocks) + 1  # per state: the blocks past the cutoff, then the remainder

    def block_of(self, e: int) -> int:
        return bisect.bisect_left(self.bounds, e)

    def log_ratios(self, edges: np.ndarray) -> Callable[[int], np.ndarray]:
        """log |phi'_e| over an integer array of edges <= cutoff, as a
        function of the fiber state: -(l^2 + l) log 2 on an edge of an
        unlocked block l <= state, else -e log 8.  Both candidate rows are
        computed once; each state's row is one np.where."""
        l = np.searchsorted(self._near_bounds, edges, side="left")
        block, geometric = -(l * l + l) * _LOG2, -edges * _LOG8
        return lambda state: np.where(l <= int(state), block, geometric)

    def _table(self, states: tuple):
        """Per state, the log edge counts of the unlocked blocks past the
        cutoff (-inf for locked ones) and the first edge of the geometric
        remainder (+inf when it is dropped)."""
        got = self._tables.get(states)
        if got is None:
            unlocked = self._blocks <= np.array([int(st) for st in states])[:, None]
            log_counts = np.where(unlocked, self._log_counts, -np.inf)
            first_edges = []
            for st in states:
                start = max(self.bounds[min(int(st), len(self.bounds) - 1)], self.cutoff) + 1
                first_edges.append(float(start) if start < 1e15 else math.inf)
            got = self._tables.setdefault(states, (log_counts, np.array(first_edges)[:, None]))
        return got

    def write_lanes(self, s: float, states: tuple, out: np.ndarray) -> None:
        """Into `out`, one row per state: each block's log count plus s times
        its log ratio (-inf while locked), then the remainder (-inf where
        dropped); +inf throughout when s <= 0."""
        if s <= 0.0:
            out[:] = math.inf
            return
        log_counts, first_edges = self._table(states)
        log_q = -s * _LOG8
        np.subtract(log_counts, s * self._rates * _LOG2, out=out[:, :-1])
        out[:, -1:] = first_edges * log_q - math.log(-math.expm1(log_q))

    def lane_derivatives(self, s: float, states: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The first and second derivative in s of each lane (slope 0 on a
        dropped remainder), as arrays that broadcast against them."""
        first_edges = self._table(states)[1]
        d1, d2 = geometric_derivatives(-_LOG8, s, first_edges)
        slopes, curvatures = np.empty((len(states), self.lanes)), np.zeros(self.lanes)
        slopes[:, :-1], slopes[:, -1:], curvatures[-1] = self._rates * -_LOG2, np.where(first_edges < math.inf, d1, 0.0), d2
        return slopes, curvatures

    def log_moments(self, s: float, states) -> np.ndarray:
        """Per state of the sequence, log sum over the tail edges e > cutoff of
        |phi'_e|**s, in one log-sum-exp; +inf when the series diverges
        (s <= 0)."""
        terms = np.empty((len(states), self.lanes))
        self.write_lanes(s, tuple(states), terms)
        return _segment_log_sums(terms.ravel(), np.arange(0, terms.size, self.lanes), np.full(len(states), self.lanes))

    def ru_moment(self, s: float) -> tuple[float, bool]:
        """Essential-sup moment sum over edges: sum_l 2^(l^2-1) * 2^(-s(l^2+l)),
        over blocks l <= 400 and stopped at the first term below 1e-18.

        Returns (value, divergent).  Divergence is flagged when the block
        terms stop decreasing (s < 1 makes them blow up superexponentially).
        """
        total = 0.0
        prev = math.inf
        for l in range(1, 401):
            log_term = ((l * l - 1) - s * (l * l + l)) * _LOG2
            term = math.exp(log_term) if log_term < 700 else math.inf
            if term > prev or term == math.inf:
                return (math.inf, True)
            total += term
            if term < 1e-18:
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
    symbolic = full_shift(range(1, cutoff + 1), tail=tail)
    edges = symbolic.edges
    rows = tail.log_ratios(np.array(edges))

    @functools.cache
    def log_ratios(state) -> np.ndarray:
        return _frozen(rows(state))

    @functools.cache
    def offsets(state) -> np.ndarray:
        widths = [math.exp(x) for x in log_ratios(state).tolist()]
        total = math.fsum(widths) + math.exp(tail.log_moments(1.0, (state,))[0])
        gap = (1.0 - total) / (len(edges) + 1)
        starts, acc = [], gap
        for w in widths:
            starts.append(acc)
            acc += w + gap
        return _frozen(starts)

    return RCGDMS(
        symbolic=symbolic,
        driving=drv,
        spaces={"v": (0.0, 1.0)},
        log_ratios=log_ratios,
        offsets=offsets,
        contraction=0.25,
        name="paper-example",
    )
