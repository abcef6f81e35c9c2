"""Brute-force word enumeration: the reference the tests check the package's
word-level paths against (prefix-tree levels, signature representatives,
partition sums, conformal measures) with the pair-by-pair successors it
extends words by, per-symbol readers of the rows the references weigh those
words with, and the one-word-at-a-time references of limit-set coding (one
map at a time, from `map_of`), of the block example's ratios and tail
moments, and of the zero potential.  A measure's masses are read as the
{word: mass} dict of `masses`; the diagnostics built on these readers live
in `oracles.py`."""

import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from rcgdms.potentials import FirstSymbolPotential, log_sum_exp
from rcgdms.shift import SymbolicSystem, Word

LOG2, LOG8 = math.log(2.0), math.log(8.0)


def ratio_of(system, e, state) -> Fraction:
    """A map system's ratio of edge e at a fiber state, from its Fraction row."""
    return system.ratio_fractions(state)[system.symbolic.position[e]]


def value(potential, state, e) -> float:
    """The potential on the 1-cylinder [e] at a fiber state, from its row."""
    return potential.log_weights(state)[potential.system.position[e]].item()


def map_of(gdms, e, state) -> tuple[float, float]:
    """(offset, ratio) of edge e's map at a fiber state, as Python floats."""
    i = gdms.symbolic.position[e]
    return gdms.offsets(state)[i].item(), math.exp(gdms.log_ratios(state)[i].item())


def birkhoff(potential, orbit, k, word) -> float:
    """Birkhoff sum over the cylinder of `word` from orbit position k, added
    symbol by symbol."""
    total = 0.0
    for j, e in enumerate(word):
        total += value(potential, orbit.state(k + j), e)
    return total


def weight_fn(potential, arithmetic):
    """(state, e) -> exp(value): math.exp of the row value ("float"), or the
    exact weight ("fraction", "mpf")."""
    if arithmetic == "float":
        return lambda state, e: math.exp(value(potential, state, e))
    return lambda state, e: potential.exact_weights(state, (e,), arithmetic)[0]


def successors(system: SymbolicSystem, e: int, symbols: Sequence[int]) -> tuple[int, ...]:
    """The symbols b, in the given order, with (e, b) admissible, pair by pair."""
    return tuple(b for b in symbols if system.admissible_pair(e, b))


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
    succ = {e: successors(system, e, symbols) for e in symbols}
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


def code_point(gdms, orbit, prefix: Sequence[int]) -> tuple[float, float]:
    """Center and half-width of the nested image interval of a word prefix,
    one map at a time from the last symbol: the k-th map acts at fiber state
    omega_k.  Raises on an empty or inadmissible prefix."""
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("prefix must be nonempty")
    if not gdms.symbolic.is_admissible(prefix):
        raise ValueError(f"inadmissible prefix {prefix}")
    lo, hi = gdms.space_of_edge_target(prefix[-1])
    for k in range(len(prefix) - 1, -1, -1):
        e = prefix[k]
        a, r = map_of(gdms, e, orbit.state(k))
        src_lo, src_hi = gdms.space_of_edge_target(e)
        lo, hi = a + r * (lo - src_lo), a + r * (hi - src_lo)
    return (0.5 * (lo + hi), 0.5 * (hi - lo))


def block_log_ratio(tail, e: int, state: int) -> float:
    """The block example's log ratio of edge e at a fiber state: its block's
    -(l^2 + l) log 2 when the block is unlocked (l <= state), else -e log 8."""
    l = tail.block_of(e)
    if l <= int(state):
        return -(l * l + l) * LOG2
    return -e * LOG8


def block_log_moment(tail, s: float, state: int) -> float:
    """log sum over the block example's tail edges e > cutoff of
    exp(s * block_log_ratio(e, state)), term by term; +inf when the series
    diverges (s <= 0)."""
    if s <= 0.0:
        return math.inf
    i = int(state)
    terms = []
    # partially/fully unlocked blocks past the cutoff
    l = tail.block_of(tail.cutoff + 1)
    while l <= i and l < len(tail.bounds) - 1:
        first = max(tail.bounds[l - 1], tail.cutoff) + 1
        last = tail.bounds[l]
        if first <= last:
            terms.append(math.log(last - first + 1) - s * (l * l + l) * LOG2)
        l += 1
    # geometric remainder past block i (or past the cutoff when i's blocks
    # are all materialized); beyond ~1e15 edges it underflows any double
    start = max(tail.bounds[min(i, len(tail.bounds) - 1)], tail.cutoff) + 1
    log_q = -s * LOG8
    if start < 1e15:
        terms.append(start * log_q - math.log(-math.expm1(log_q)))
    return float(log_sum_exp(np.array(terms)))


def zero_potential(system: SymbolicSystem) -> FirstSymbolPotential:
    """The potential 0 on every edge, with exact weights 1."""
    zeros = np.zeros(len(system.edges))
    ones = np.full(len(system.edges), Fraction(1), dtype=object)
    return FirstSymbolPotential(system=system, row=lambda state: zeros, exact_row=lambda state: ones)


def masses(measure) -> dict:
    """{word: mass} over every level of a CylinderMeasure, each level's words
    rebuilt from its word tree: the dict the measures rows are checked
    against, and the tests' one way to look a cylinder's mass up (a word
    outside the tree is no key)."""
    out, words = {}, [()]
    for parent, last, level in zip(measure.tree.parent, measure.tree.last, measure.levels):
        words = [words[p] + (measure.symbols[b],) for p, b in zip(parent.tolist(), last.tolist())]
        out.update(zip(words, level.tolist()))
    return out


def codes(sample) -> np.ndarray:
    """A LimitSetSample's words as rows of symbols, in the smallest unsigned
    dtype that holds them: the reference the limitset labels are checked
    against."""
    dtype = np.result_type(np.min_scalar_type(sample.symbols[0]), np.min_scalar_type(sample.symbols[-1]))
    return np.array(sample.symbols, dtype=dtype)[sample.rows()]
