"""Countable-alphabet Markov shift combinatorics.

Edges, incidence (one read-only boolean matrix, sliced by every reader),
admissible words as prefix-tree levels, finite-primitivity witnesses and
ascending finite-subalphabet ladders.  Alphabets may be countably infinite:
edges are materialized up to a declared cutoff, and an optional tail object
stands for the non-materialized remainder.  A tail gives its closed-form
moments, log_moments(s, states), which the potential layer adds to the
transfer sums, and states its own regularity as the class constant
cofinitely_regular.  The product kernel reads a tail's moment as the
`lanes` log terms per state that it declares and writes with write_lanes,
and their derivatives in s from lane_derivatives.

Everything here is immutable after construction and safe to share across
parallel workers; words come level by level in lexicographic order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Word = tuple[int, ...]

# Most words one word-tree level may hold; prefix_tree and suffix_tree read
# it at call time.
WORD_BUDGET = 10_000_000


@dataclass(frozen=True)
class GeometricTail:
    """Geometric tail of the alphabet: edge e >= start carries base weight
    ratio**e, at every fiber state.

    Cofinitely regular: the moment is infinite at s = 0 and finite above it.
    """

    ratio: float
    start: int
    cofinitely_regular = True  # unannotated: class constants, not fields
    lanes = 1

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("tail ratio must lie in (0, 1)")
        if self.start < 1:
            raise ValueError("tail start must be >= 1")

    def log_moments(self, s: float, states: tuple) -> np.ndarray:
        """Per fiber state, log sum_{e >= start} ratio**(e*s)
        = start*s*log(ratio) - log(1 - ratio**s); +inf for s <= 0."""
        if s <= 0.0:
            return np.full(len(states), math.inf)
        log_q = s * math.log(self.ratio)
        if log_q == 0.0:  # underflowed: 1 - ratio**s is s*log(1/ratio) to first order
            return np.full(len(states), -math.log(s) - math.log(-math.log(self.ratio)))
        return np.full(len(states), self.start * log_q - math.log(-math.expm1(log_q)))

    def write_lanes(self, s: float, states: tuple, out: np.ndarray) -> None:
        """Into `out`, one row per state: the log moment."""
        out[:, 0] = self.log_moments(s, states)

    def lane_derivatives(self, s: float, states: tuple) -> tuple[float, float]:
        """The first and second derivative of log_moments in s, every state's."""
        return geometric_derivatives(math.log(self.ratio), s, self.start)


def geometric_derivatives(rate: float, s: float, first):
    """The first and second derivative in s of log sum_{e >= first} q^e =
    first*log_q - log(1 - q), log_q = s*rate < 0: rate*first + u and
    u*(u + rate), u = rate/expm1(-log_q), or its limit -1/s where log_q
    underflows to 0; NaN for s <= 0."""
    if s <= 0.0:
        return math.nan, math.nan
    log_q = s * rate
    u = -1.0 / s if log_q == 0.0 else rate / math.expm1(-log_q)
    return rate * first + u, u * (u + rate)


@dataclass(frozen=True, eq=False)  # an ndarray field has no truth value: systems compare by identity
class SymbolicSystem:
    """Vertex/edge alphabet with a 0/1 incidence structure: `incidence` is
    None for a full shift, else the read-only boolean matrix over `edges`,
    incidence[i, j] whether edges[j] may follow edges[i]."""

    vertices: tuple
    edges: tuple[int, ...]
    incidence: Optional[np.ndarray] = None
    tail: object = None  # GeometricTail or gdms.BlockTailExample, past the edges

    def __post_init__(self):
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("edge indices must be unique")
        if len(self.edges) < 1:
            raise ValueError("alphabet cutoff must be >= 1")
        if self.tail is not None and self.incidence is not None:
            raise ValueError("analytic tails are supported for full shifts only")

    def admissible_pair(self, e1: int, e2: int) -> bool:
        return self.incidence is None or bool(self.incidence[self.position[e1], self.position[e2]])

    def is_admissible(self, word: Sequence[int]) -> bool:
        if self.incidence is None:
            return True
        at = [self.position[e] for e in word]
        return bool(self.incidence[at[:-1], at[1:]].all())

    @functools.cached_property
    def position(self) -> dict[int, int]:
        """Edge -> its column in `edges`, the order of every per-state row."""
        return {e: i for i, e in enumerate(self.edges)}


def full_shift(edges: Iterable[int], tail: object = None) -> SymbolicSystem:
    """Single-vertex system in which every transition is allowed."""
    return SymbolicSystem(vertices=("v",), edges=tuple(edges), tail=tail)


def from_matrix(edges: Iterable[int], rows: Sequence[Sequence[int]]) -> SymbolicSystem:
    """System from an explicit 0/1 matrix indexed by edge position."""
    edges = tuple(edges)
    if len(rows) != len(edges) or any(len(r) != len(edges) for r in rows):
        raise ValueError("incidence matrix shape must match the edge count")
    incidence = np.array(rows, dtype=bool)
    incidence.setflags(write=False)
    return SymbolicSystem(vertices=("v",), edges=edges, incidence=incidence)


def _pairs(system: SymbolicSystem, firsts: Sequence[int], seconds: Sequence[int]) -> np.ndarray:
    """Boolean matrix of the admissible pairs (a, b), a over `firsts` (rows)
    and b over `seconds`, sliced from the system's incidence."""
    if system.incidence is None:
        return np.ones((len(firsts), len(seconds)), dtype=bool)
    at = system.position.__getitem__
    return system.incidence[np.ix_(list(map(at, firsts)), list(map(at, seconds)))]


def _incidence(system: SymbolicSystem, symbols: Sequence[int]) -> np.ndarray:
    """Boolean matrix of admissible pairs over sorted(symbols), row: first symbol."""
    symbols = sorted(symbols)
    return _pairs(system, symbols, symbols)


def _grown(step: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Words per end symbol one level on from this level's `counts`, `step`
    being the incidence toward the growing end; raises before a level of
    more than WORD_BUDGET words is built."""
    counts = step @ counts
    if counts.sum() > WORD_BUDGET:
        raise ValueError("enumeration budget exceeded")
    return counts


def prefix_tree(system: SymbolicSystem, symbols: Sequence[int], n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Admissible words over `symbols`, lexicographic, one level per step for n
    levels: yields (parent, last), parent[i] the index of word i's prefix one
    level up (0 at level 1), last[i] the position of its last symbol in
    sorted(symbols).  A level of more than WORD_BUDGET words raises unbuilt."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    succ = _incidence(system, symbols)
    last = np.arange(len(succ))
    yield np.zeros_like(last), last
    counts = np.ones(len(succ), dtype=np.int64)  # words per last symbol
    for _ in range(n - 1):
        counts = _grown(succ.T, counts)
        parent, last = np.nonzero(succ[last])
        yield parent, last


def suffix_tree(system: SymbolicSystem, symbols: Sequence[int], n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Admissible words over `symbols` of lengths 1 to n, each level built by
    prepending one symbol to the words of the level before: yields (first,
    parent), first[i] the position of word i's first symbol in
    sorted(symbols) and parent[i] the index of its suffix one level down (at
    level 1, the symbol's own position).  Every level is lexicographic, so
    `first` is sorted and the last level is word_index's order.  A level of
    more than WORD_BUDGET words raises unbuilt."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    succ = _incidence(system, symbols)
    first = np.arange(len(succ))
    yield first, first
    counts = np.ones(len(succ), dtype=np.int64)  # words per first symbol
    for _ in range(n - 1):
        counts = _grown(succ, counts)
        first, parent = np.nonzero(succ[:, first])
        yield first, parent


def word_index(system: SymbolicSystem, symbols: Sequence[int], n: int) -> np.ndarray:
    """The admissible words of length n over `symbols`, lexicographic, as rows
    of positions in sorted(symbols) (in the smallest unsigned dtype that
    holds them)."""
    index = np.zeros((1, 0), dtype=np.min_scalar_type(len(symbols)))
    for parent, last in prefix_tree(system, symbols, n):
        index = np.column_stack((index[parent], last.astype(index.dtype)))
    return index


def count_words(system: SymbolicSystem, symbols: Sequence[int], n: int) -> int:
    """Number of admissible words of length n (dynamic count, no enumeration)."""
    steps = _incidence(system, symbols).astype(object)  # Python ints: exact past 2**63
    counts = np.ones(len(steps), dtype=object)
    for _ in range(n - 1):
        counts = steps @ counts
    return int(counts.sum())


@dataclass(frozen=True)
class PrimitivityWitness:
    """Finite connector data: every symbol pair (e, e') is joined by some
    connector word w with e w e' admissible."""

    order: int
    connectors: tuple[Word, ...]

    @property
    def connector_alphabet(self) -> frozenset[int]:
        return frozenset(s for w in self.connectors for s in w)


def _reach_chain(adm: np.ndarray) -> Iterator[list[np.ndarray]]:
    """[reach[0], ..., reach[k]] for k = 0, 1, ..., one list grown in place:
    reach[k][c, b] says some admissible word c ... b has length k + 1."""
    steps = adm.astype(np.int64)
    reach = [np.eye(len(adm), dtype=bool)]
    while True:
        yield reach
        reach.append((steps @ reach[-1]) > 0)


def _signature_reps(symbols: tuple, adm: np.ndarray, reach: list) -> list[Word]:
    """Lexicographically first admissible word of length n = len(reach) per
    (first, last) signature, in signature order, from the sorted symbols'
    incidence slice `adm` and the list `_reach_chain` yields at k = n - 1.

    Connector coverage of a pair only depends on the connector's first and
    last symbol, so one representative per signature suffices.  No word is
    enumerated: each representative is built greedily, every step taking the
    least successor from which the last symbol is still reachable in the
    steps left, so the cost is polynomial in |symbols| and n.
    """
    reps = []
    for a, b in zip(*np.nonzero(reach[-1])):
        word = [a]
        for k in range(len(reach) - 2, -1, -1):
            word.append(np.flatnonzero(adm[word[-1]] & reach[k][:, b])[0])
        reps.append(tuple(symbols[i] for i in word))
    return reps


def find_primitivity(
    system: SymbolicSystem,
    symbols: Sequence[int],
    max_order: int,
    max_exhaustive: int = 3,
) -> Optional[PrimitivityWitness]:
    """Minimal-order finite-primitivity witness with a minimal connector set.

    Exhaustive search over connector-set cardinalities up to `max_exhaustive`
    (skipping a size, or a set's first members, when the most pairs one
    representative covers cannot make up the rest), then greedy set cover
    (all shipped instances need a single connector).
    Returns None when no witness of order <= max_order exists.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    symbols = tuple(sorted(symbols))
    if system.incidence is None:
        return PrimitivityWitness(order=1, connectors=((symbols[0],),))
    adm = _incidence(system, symbols)
    steps = adm.astype(np.int64)
    for order, reach in zip(range(1, max_order + 1), _reach_chain(adm)):
        # pair (e, e') is covered iff some connector a ... b has e a and b e' admissible
        if not (steps @ reach[-1] @ steps).all():
            continue
        # the search below always returns, so representatives are built once
        reps = _signature_reps(symbols, adm, reach)
        before = _pairs(system, symbols, [w[0] for w in reps]).T
        after = _pairs(system, [w[-1] for w in reps], symbols)
        cover = (before[:, :, None] & after[:, None, :]).reshape(len(reps), -1)  # (reps x pairs)
        most = int(cover.sum(axis=1).max())  # the most pairs one representative covers
        for size in range(1, min(len(reps), max_exhaustive) + 1):
            if size * most < cover.shape[1]:
                continue  # no `size` representatives cover every pair
            # itertools order: every head of size - 1, then each later last member
            for head in itertools.combinations(range(len(reps)), size - 1):
                start = head[-1] + 1 if head else 0
                covered = cover[list(head)].any(axis=0)
                if cover.shape[1] - np.count_nonzero(covered) > most:
                    continue  # no one more representative covers the rest
                hit = np.flatnonzero((cover[start:] | covered).all(axis=1))
                if hit.size:
                    combo = (*head, start + int(hit[0]))
                    return PrimitivityWitness(order=order, connectors=tuple(reps[i] for i in combo))
        # Greedy fallback: largest marginal coverage, lexicographic ties.
        chosen: list[Word] = []
        remaining = np.ones(cover.shape[1], dtype=bool)
        while remaining.any():
            gains = (cover & remaining).sum(axis=1)
            best = min(np.flatnonzero(gains == gains.max()).tolist(), key=reps.__getitem__)
            chosen.append(reps[best])
            remaining &= ~cover[best]
        return PrimitivityWitness(order=order, connectors=tuple(sorted(chosen)))
    return None


def verify_primitivity(
    system: SymbolicSystem, symbols: Sequence[int], witness: PrimitivityWitness
) -> bool:
    """Exhaustive pair re-check of a witness, one boolean product of incidence
    slices (connector letters outside the symbols read the whole matrix)."""
    into = _pairs(system, symbols, [w[0] for w in witness.connectors])
    out = _pairs(system, [w[-1] for w in witness.connectors], symbols)
    return bool((into @ out).all())


def build_ladder(
    system: SymbolicSystem,
    rung_sizes: Sequence[int],
    witness: Optional[PrimitivityWitness] = None,
) -> tuple[tuple[int, ...], ...]:
    """Ascending finite subalphabets F_1 c F_2 c ..., one sorted tuple per
    rung: the connector alphabet, filled with the lowest-index unused
    symbols.  Raises when a rung exceeds the materialized cutoff."""
    if list(rung_sizes) != sorted(set(rung_sizes)):
        raise ValueError("rung sizes must be strictly increasing")
    ordered = sorted(system.edges)
    connectors = witness.connector_alphabet if witness is not None else frozenset()
    base = sorted(connectors)
    rest = [e for e in ordered if e not in connectors]
    rungs = []
    for size in rung_sizes:
        if size > len(ordered):
            raise ValueError(f"rung size {size} exceeds the materialized cutoff {len(ordered)}")
        if size < len(base):
            raise ValueError("first rung cannot be smaller than the connector alphabet")
        rungs.append(tuple(sorted(base + rest[: size - len(base)])))
    return tuple(rungs)
