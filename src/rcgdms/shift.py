"""Countable-alphabet Markov shift combinatorics.

Edges, incidence, admissible words, cylinders, finite-primitivity witnesses
and ascending finite-subalphabet ladders.  Alphabets may be countably
infinite: edges are materialized up to a declared cutoff, and an optional
analytic tail descriptor marks the non-materialized remainder (closed-form
tail sums are consumed at the potential layer).

Everything here is immutable after construction and safe to share across
parallel workers; word enumeration is streamed in lexicographic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

Word = tuple[int, ...]


@dataclass(frozen=True)
class GeometricTail:
    """Closed-form descriptor for the non-materialized part of the alphabet.

    Tail edge e >= start carries base weight ratio**e.  Instances with a more
    structured tail override the moment hooks on the map system; this
    descriptor then only marks the alphabet as infinite and fixes the first
    tail index.
    """

    ratio: float
    start: int

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("tail ratio must lie in (0, 1)")
        if self.start < 1:
            raise ValueError("tail start must be >= 1")


@dataclass(frozen=True)
class SymbolicSystem:
    """Vertex/edge alphabet with a 0/1 incidence structure.

    incidence_kind is one of
      "full"   -- every transition allowed,
      "matrix" -- explicit successor sets.
    """

    vertices: tuple
    edges: tuple[int, ...]
    incidence_kind: str = "full"
    successors_map: Optional[Mapping[int, frozenset[int]]] = None
    tail: Optional[GeometricTail] = None

    def __post_init__(self):
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("edge indices must be unique")
        if len(self.edges) < 1:
            raise ValueError("alphabet cutoff must be >= 1")
        if self.incidence_kind == "matrix":
            if self.successors_map is None:
                raise ValueError("matrix incidence needs explicit successor sets")
        elif self.incidence_kind != "full":
            raise ValueError(f"unknown incidence kind {self.incidence_kind!r}")
        if self.tail is not None and self.incidence_kind != "full":
            raise ValueError("analytic tails are supported for full shifts only")

    def admissible_pair(self, e1: int, e2: int) -> bool:
        if self.incidence_kind == "full":
            return True
        return e2 in self.successors_map.get(e1, frozenset())

    def successors(self, e: int, symbols: Sequence[int]) -> tuple[int, ...]:
        return tuple(b for b in symbols if self.admissible_pair(e, b))

    def is_admissible(self, word: Sequence[int]) -> bool:
        return all(self.admissible_pair(a, b) for a, b in zip(word, word[1:]))

    @property
    def has_tail(self) -> bool:
        return self.tail is not None


def full_shift(edges: Iterable[int], tail: Optional[GeometricTail] = None) -> SymbolicSystem:
    """Single-vertex system in which every transition is allowed."""
    return SymbolicSystem(vertices=("v",), edges=tuple(edges), incidence_kind="full", tail=tail)


def from_matrix(edges: Iterable[int], rows: Sequence[Sequence[int]]) -> SymbolicSystem:
    """System from an explicit 0/1 matrix indexed by edge position."""
    edges = tuple(edges)
    if len(rows) != len(edges) or any(len(r) != len(edges) for r in rows):
        raise ValueError("incidence matrix shape must match the edge count")
    succ = {
        e1: frozenset(e2 for j, e2 in enumerate(edges) if rows[i][j])
        for i, e1 in enumerate(edges)
    }
    return SymbolicSystem(
        vertices=("v",), edges=edges, incidence_kind="matrix", successors_map=succ
    )


def enumerate_words(
    system: SymbolicSystem,
    symbols: Sequence[int],
    n: int,
    first: Optional[int] = None,
    terminal_to: Optional[int] = None,
) -> Iterator[Word]:
    """Stream the admissible words of length n over `symbols`, lexicographically.

    `first` pins the initial symbol; `terminal_to=e` keeps only words whose
    last symbol may be followed by e.  An empty stream is a valid outcome (the
    corresponding partition sums are zero).
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    symbols = tuple(sorted(symbols))
    if not symbols:
        raise ValueError("symbol set must be nonempty")
    succ = {e: system.successors(e, symbols) for e in symbols}
    starts = (first,) if first is not None else symbols

    def extend(prefix: list[int]) -> Iterator[Word]:
        if len(prefix) == n:
            if terminal_to is None or system.admissible_pair(prefix[-1], terminal_to):
                yield tuple(prefix)
            return
        for b in succ[prefix[-1]]:
            prefix.append(b)
            yield from extend(prefix)
            prefix.pop()

    for e in starts:
        if e not in succ:
            continue
        yield from extend([e])


def count_words(system: SymbolicSystem, symbols: Sequence[int], n: int) -> int:
    """Number of admissible words of length n (dynamic count, no enumeration)."""
    symbols = tuple(sorted(symbols))
    counts = {e: 1 for e in symbols}
    for _ in range(n - 1):
        counts = {
            e: sum(counts[b] for b in system.successors(e, symbols)) for e in symbols
        }
    return sum(counts.values())


def cylinder_contains(word: Sequence[int], prefix: Sequence[int]) -> bool:
    """True iff `word` extends (or equals) `prefix` symbolwise."""
    if len(prefix) > len(word):
        return False
    return tuple(word[: len(prefix)]) == tuple(prefix)


@dataclass(frozen=True)
class PrimitivityWitness:
    """Finite connector data: every symbol pair (e, e') is joined by some
    connector word w with e w e' admissible."""

    order: int
    connectors: tuple[Word, ...]

    @property
    def connector_alphabet(self) -> frozenset[int]:
        return frozenset(s for w in self.connectors for s in w)


def _signature_reps(system: SymbolicSystem, symbols: Sequence[int], n: int) -> list[Word]:
    """Lexicographically first admissible word per (first, last) signature.

    Connector coverage of a pair only depends on the connector's first and
    last symbol, so one representative per signature suffices.
    """
    reps: dict[tuple[int, int], Word] = {}
    for w in enumerate_words(system, symbols, n):
        sig = (w[0], w[-1])
        if sig not in reps:
            reps[sig] = w
    return [reps[k] for k in sorted(reps)]


def find_primitivity(
    system: SymbolicSystem,
    symbols: Sequence[int],
    max_order: int,
    max_exhaustive: int = 3,
) -> Optional[PrimitivityWitness]:
    """Minimal-order finite-primitivity witness with a minimal connector set.

    Exhaustive search over connector-set cardinalities up to `max_exhaustive`,
    then greedy set cover (all shipped instances need a single connector).
    Returns None when no witness of order <= max_order exists.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    symbols = tuple(sorted(symbols))
    if system.incidence_kind == "full":
        return PrimitivityWitness(order=1, connectors=((symbols[0],),))
    pairs = [(e1, e2) for e1 in symbols for e2 in symbols]
    for order in range(1, max_order + 1):
        reps = _signature_reps(system, symbols, order)
        cover = {
            w: frozenset(
                p
                for p in pairs
                if system.admissible_pair(p[0], w[0])
                and system.admissible_pair(w[-1], p[1])
            )
            for w in reps
        }
        if set().union(*cover.values(), frozenset()) != set(pairs):
            continue
        needed = set(pairs)
        for size in range(1, min(len(reps), max_exhaustive) + 1):
            for combo in itertools.combinations(reps, size):
                if set().union(*(cover[w] for w in combo)) == needed:
                    return PrimitivityWitness(order=order, connectors=tuple(combo))
        # Greedy fallback: largest marginal coverage, lexicographic ties.
        chosen: list[Word] = []
        remaining = set(needed)
        while remaining:
            best = max(reps, key=lambda w: (len(cover[w] & remaining), tuple(-s for s in w)))
            gained = cover[best] & remaining
            if not gained:
                break
            chosen.append(best)
            remaining -= gained
        if not remaining:
            return PrimitivityWitness(order=order, connectors=tuple(sorted(chosen)))
    return None


def verify_primitivity(
    system: SymbolicSystem, symbols: Sequence[int], witness: PrimitivityWitness
) -> bool:
    """Exhaustive pair re-check of a witness."""
    for e1 in symbols:
        for e2 in symbols:
            if not any(
                system.admissible_pair(e1, w[0]) and system.admissible_pair(w[-1], e2)
                for w in witness.connectors
            ):
                return False
    return True


@dataclass(frozen=True)
class SubalphabetLadder:
    """Ascending finite subalphabets F_1 c F_2 c ... exhausting the
    materialized alphabet; the first rung contains the connector alphabet."""

    rungs: tuple[tuple[int, ...], ...]

    def __iter__(self):
        return iter(self.rungs)

    def __len__(self):
        return len(self.rungs)


def build_ladder(
    system: SymbolicSystem,
    rung_sizes: Sequence[int],
    witness: Optional[PrimitivityWitness] = None,
) -> SubalphabetLadder:
    """Rungs filled with lowest-index unused symbols on top of the connector
    alphabet.  Raises when a rung exceeds the materialized cutoff."""
    if list(rung_sizes) != sorted(set(rung_sizes)):
        raise ValueError("rung sizes must be strictly increasing")
    ordered = sorted(system.edges)
    base = sorted(witness.connector_alphabet) if witness is not None else []
    rungs = []
    for size in rung_sizes:
        if size > len(ordered):
            raise ValueError(f"rung size {size} exceeds the materialized cutoff {len(ordered)}")
        if size < len(base):
            raise ValueError("first rung cannot be smaller than the connector alphabet")
        rung = list(base)
        for e in ordered:
            if len(rung) >= size:
                break
            if e not in rung:
                rung.append(e)
        rungs.append(tuple(sorted(rung)))
    return SubalphabetLadder(rungs=tuple(rungs))
