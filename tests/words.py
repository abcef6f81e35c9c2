"""Brute-force word enumeration: the reference the tests check the package's
word-level paths against (prefix-tree levels, signature representatives,
partition sums, conformal measures)."""

from typing import Iterator, Optional, Sequence

from rcgdms.shift import SymbolicSystem, Word


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

