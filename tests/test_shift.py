import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from words import enumerate_words

import rcgdms.shift
from rcgdms import instances
from rcgdms.potentials import log_sum_exp
from rcgdms.shift import (
    GeometricTail,
    build_ladder,
    count_words,
    find_primitivity,
    from_matrix,
    full_shift,
    suffix_tree,
    verify_primitivity,
    word_index,
    PrimitivityWitness,
)

GOLDEN_ROWS = [[1, 1], [1, 0]]


def test_full_shift_words_length_two():
    sym = full_shift((0, 1))
    assert list(enumerate_words(sym, (0, 1), 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_golden_mean_words_filtered():
    sym = from_matrix((0, 1), GOLDEN_ROWS)
    words = list(enumerate_words(sym, (0, 1), 2))
    # brute-force oracle: filter all pairs by the matrix
    expected = [
        (a, b) for a in (0, 1) for b in (0, 1) if GOLDEN_ROWS[a][b]
    ]
    assert words == expected == [(0, 0), (0, 1), (1, 0)]


def test_constrained_enumeration():
    sym = from_matrix((0, 1), GOLDEN_ROWS)
    got = list(enumerate_words(sym, (0, 1), 2, first=1, terminal_to=1))
    brute = [
        w
        for w in enumerate_words(sym, (0, 1), 2)
        if w[0] == 1 and GOLDEN_ROWS[w[-1]][1]
    ]
    assert got == brute == [(1, 0)]


COUNTED_ROWS = [
    [[1, 1], [1, 0]],
    [[1, 1], [1, 1]],
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    [[1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1]],
    np.ones((6, 6), dtype=int).tolist(),
]


@pytest.mark.parametrize(
    "rows, n",
    [pytest.param(rows, n, id=f"{n}-rows{i}") for n in (1, 2, 4, 6, 8) for i, rows in enumerate(COUNTED_ROWS)]
    # 5**30 words: past 2**63, where an int64 count wraps
    + [pytest.param(np.ones((5, 5), dtype=int).tolist(), 30, id="30-full5")],
)
def test_word_count_matches_matrix_power(rows, n):
    m = len(rows)
    sym = from_matrix(range(m), rows)
    power = np.linalg.matrix_power(np.array(rows, dtype=object), n - 1).sum()  # Python ints
    assert count_words(sym, range(m), n) == power
    if n <= 8:  # deeper levels are too many words to stream
        assert sum(1 for _ in enumerate_words(sym, range(m), n)) == power


def test_enumerated_words_are_admissible():
    sym = from_matrix((0, 1, 2), [[1, 1, 0], [0, 0, 1], [1, 0, 0]])
    for w in enumerate_words(sym, (0, 1, 2), 5):
        assert sym.is_admissible(w)


def test_primitivity_full_shift():
    sym = full_shift((0, 1))
    w = find_primitivity(sym, (0, 1), 3)
    assert w.order == 1 and w.connectors == ((0,),)
    assert verify_primitivity(sym, (0, 1), w)


def test_primitivity_golden_mean():
    sym = from_matrix((0, 1), GOLDEN_ROWS)
    w = find_primitivity(sym, (0, 1), 3)
    assert w.order == 1 and w.connectors == ((0,),)
    assert verify_primitivity(sym, (0, 1), w)


def test_primitivity_period_two_not_found():
    sym = from_matrix((0, 1), [[0, 1], [1, 0]])
    assert find_primitivity(sym, (0, 1), 4) is None


def signature_reps(system, symbols, n):
    """shift._signature_reps over the sorted symbols' incidence slice and its
    first n reach matrices, as find_primitivity builds them."""
    adm = rcgdms.shift._incidence(system, symbols)
    reach = next(itertools.islice(rcgdms.shift._reach_chain(adm), n - 1, None))
    return rcgdms.shift._signature_reps(symbols, adm, reach)


def ref_signature_reps(system, symbols, n):
    """The lexicographically first enumerated word per (first, last) pair, in
    pair order."""
    reps = {}
    for w in enumerate_words(system, symbols, n):
        reps.setdefault((w[0], w[-1]), w)
    return [reps[k] for k in sorted(reps)]


@st.composite
def incidences(draw):
    """A random 0/1 incidence, primitive or not, on 2-5 random edge labels."""
    k = draw(st.integers(2, 5))
    edges = draw(st.lists(st.integers(0, 30), min_size=k, max_size=k, unique=True))
    return from_matrix(edges, [[draw(st.integers(0, 1)) for _ in edges] for _ in edges])


@settings(max_examples=60, deadline=None)
@given(incidences(), st.integers(1, 4))
def test_signature_reps_and_witness_match_enumeration(sym, order):
    symbols = tuple(sorted(sym.edges))
    assert signature_reps(sym, symbols, order) == ref_signature_reps(sym, symbols, order)
    got = find_primitivity(sym, symbols, max_order=order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rcgdms.shift, "_signature_reps", lambda syms, adm, reach: ref_signature_reps(sym, syms, len(reach)))
        assert got == find_primitivity(sym, symbols, max_order=order)


def ref_find_primitivity(system, rows, max_order, max_exhaustive=3):
    """The cover search on sets of covered (e, e') pairs, one frozenset per
    signature representative, read from the system's input rows (edges
    0..k-1): exhaustive combinations, then greedy."""
    symbols = tuple(range(len(rows)))
    pairs = [(e1, e2) for e1 in symbols for e2 in symbols]
    for order in range(1, max_order + 1):
        reps = signature_reps(system, symbols, order)
        cover = {w: frozenset(p for p in pairs if rows[p[0]][w[0]] and rows[w[-1]][p[1]]) for w in reps}
        if set().union(*cover.values(), frozenset()) != set(pairs):
            continue
        for size in range(1, min(len(reps), max_exhaustive) + 1):
            for combo in itertools.combinations(reps, size):
                if set().union(*(cover[w] for w in combo)) == set(pairs):
                    return PrimitivityWitness(order=order, connectors=tuple(combo))
        chosen, remaining = [], set(pairs)
        while remaining:
            best = max(reps, key=lambda w: (len(cover[w] & remaining), tuple(-s for s in w)))
            chosen.append(best)
            remaining -= cover[best]
        return PrimitivityWitness(order=order, connectors=tuple(sorted(chosen)))
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7), st.floats(0.15, 0.7), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_witness_matches_the_pair_set_search(k, density, seed, max_exhaustive):
    # up to 7 symbols, so the greedy fallback (more than max_exhaustive connectors) is reached too
    rows = (np.random.default_rng(seed).random((k, k)) < density).astype(int).tolist()
    sym = from_matrix(range(k), rows)
    symbols = tuple(range(k))
    want = ref_find_primitivity(sym, rows, 4, max_exhaustive)
    assert find_primitivity(sym, symbols, 4, max_exhaustive) == want


def test_connector_set_sizes_that_cannot_cover_are_skipped(monkeypatch):
    """Each symbol of a 12-cycle may be followed by the next three, so one
    representative covers at most 9 of the 144 pairs and no set of 3 can
    cover them: no combination is tried, and the greedy witness is the one
    the search gives without an exhaustive pass."""
    rows = [[int((j - i) % 12 in (1, 2, 3)) for j in range(12)] for i in range(12)]
    sym = from_matrix(range(12), rows)
    tried = []
    combinations = itertools.combinations
    monkeypatch.setattr(itertools, "combinations", lambda *args: tried.append(args) or combinations(*args))
    got = find_primitivity(sym, tuple(range(12)), max_order=8)
    assert tried == [] and got is not None and verify_primitivity(sym, tuple(range(12)), got)
    assert got == find_primitivity(sym, tuple(range(12)), max_order=8, max_exhaustive=0)


def test_reducible_64_symbols_have_no_witness():
    # no symbol of the second half leads back to the first, at any order
    rows = [[int(i < 32 or j >= 32) for j in range(64)] for i in range(64)]
    assert find_primitivity(from_matrix(range(64), rows), tuple(range(64)), max_order=8) is None


@settings(max_examples=80, deadline=None)
@given(incidences(), st.data(), st.integers(1, 5))
def test_suffix_tree_top_level_is_word_index(sym, data, n):
    """Words rebuilt from the suffix walk's levels, one prepended symbol per
    level, against word_index, row for row; dead ends (a symbol with no
    successor or no predecessor) included."""
    edges = list(sym.edges)
    if data.draw(st.booleans()):
        dead = edges.index(data.draw(st.sampled_from(edges)))
        matrix = sym.incidence.copy()
        matrix[dead] = False  # no successor
        if data.draw(st.booleans()):  # and no predecessor
            matrix[:, dead] = False
        sym = from_matrix(edges, matrix.tolist())
    symbols = tuple(sorted(data.draw(st.sets(st.sampled_from(edges), min_size=1))))
    rows = None
    for first, parent in suffix_tree(sym, symbols, n):
        assert (np.diff(first) >= 0).all()
        rows = first[:, None] if rows is None else np.column_stack((first, rows[parent]))
    want = word_index(sym, symbols, n)
    assert rows.shape == want.shape
    assert rows.tolist() == want.tolist()


def test_primitivity_reverification_catches_bad_witness():
    sym = from_matrix((0, 1), [[0, 1], [1, 0]])
    fake = PrimitivityWitness(order=1, connectors=((0,),))
    assert not verify_primitivity(sym, (0, 1), fake)


def test_ladder_lowest_index_fill():
    sym = full_shift(range(1, 101))
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(sym, (2, 4), witness)
    assert ladder == ((1, 2), (1, 2, 3, 4))
    # connectors past the lowest symbols are kept, and the fill skips them
    witness = PrimitivityWitness(order=2, connectors=((7, 5),))
    assert build_ladder(sym, (2, 4, 6), witness) == ((5, 7), (1, 2, 5, 7), (1, 2, 3, 4, 5, 7))


def test_ladder_single_rung_full_shift():
    sym = full_shift((0, 1))
    ladder = build_ladder(sym, (2,), find_primitivity(sym, (0, 1), 2))
    assert ladder == ((0, 1),)


def test_ladder_cutoff_violation():
    sym = full_shift(range(1, 101))
    with pytest.raises(ValueError, match="cutoff"):
        build_ladder(sym, (5, 200))


def test_ladder_rungs_ascend():
    sym = full_shift(range(1, 101))
    ladder = build_ladder(sym, (3, 9, 27))
    for small, big in zip(ladder, ladder[1:]):
        assert set(small) < set(big)


def test_enumeration_rejects_bad_arguments():
    sym = full_shift((0, 1))
    with pytest.raises(ValueError, match="nonempty"):
        list(enumerate_words(sym, (), 2))
    with pytest.raises(ValueError, match="length"):
        list(enumerate_words(sym, (0, 1), 0))


@settings(max_examples=100, deadline=None)
@given(st.floats(-2.0, 30.0, allow_nan=False), st.sampled_from([0.125, 0.5, 0.9]), st.integers(1, 300))
def test_geometric_tail_moment_is_the_series(s, ratio, start):
    got = GeometricTail(ratio=ratio, start=start).log_moments(s, ("a", "b", "c"))
    if s <= 0.0:
        assert got.tolist() == [math.inf] * 3
        return
    assert got[0] == got[1] == got[2]
    if s >= 0.05:  # the series' terms fall below 1e-17 of the first within 10^4 edges
        edges = np.arange(start, start + 10_000)
        assert got[0] == pytest.approx(log_sum_exp(edges * (s * math.log(ratio))), rel=1e-12, abs=1e-12)


def test_geometric_tail_moment_where_the_log_ratio_underflows():
    # s * log(0.9) rounds to -0.0 at the least subnormal s; the series is
    # 0.9**(7s) / (1 - 0.9**s), taken here in 200-bit arithmetic
    import mpmath

    s = 5e-324
    got = GeometricTail(ratio=0.9, start=7).log_moments(s, (0, 1))
    with mpmath.workprec(200):
        log_q = mpmath.mpf(s) * mpmath.log(mpmath.mpf(0.9))
        want = float(7 * log_q - mpmath.log(-mpmath.expm1(log_q)))
    assert got.tolist() == [pytest.approx(want, rel=1e-15)] * 2


@pytest.mark.parametrize("s", [-1.0, 0.0, 1e-9, 0.3, 1.0, 2.5, 40.0])
def test_pure_tail_hook_keeps_its_bits(s):
    # the closed form pure_tail evaluated in its own closure, 8^-e past cutoff 64
    log_q = -s * math.log(8.0)
    want = math.inf if s <= 0.0 else 65 * log_q - math.log(-math.expm1(log_q))
    assert instances.pure_tail().symbolic.tail.log_moments(s, (0,)).tolist() == [want]
