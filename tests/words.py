"""Brute-force word enumeration: the reference the tests check the package's
word-level paths against (prefix-tree levels, signature representatives,
partition sums, conformal measures), and per-symbol readers of the rows the
references weigh those words with."""

import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from rcgdms.shift import SymbolicSystem, Word


def ratio_of(system, e, state) -> Fraction:
    """A map system's ratio of edge e at a fiber state, from its Fraction row."""
    return system.ratio_fractions(state)[system.symbolic.position[e]]


def value(potential, state, e) -> float:
    """The potential on the 1-cylinder [e] at a fiber state, from its row."""
    return potential.log_weights(state)[potential.system.position[e]].item()


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

