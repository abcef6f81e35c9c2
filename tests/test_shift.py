import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from words import enumerate_words

import rcgdms.shift
from rcgdms.shift import (
    build_ladder,
    count_words,
    cylinder_contains,
    find_primitivity,
    from_matrix,
    full_shift,
    verify_primitivity,
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


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [1, 0]],
        [[1, 1], [1, 1]],
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [[1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1]],
        np.ones((6, 6), dtype=int).tolist(),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
def test_word_count_matches_matrix_power(rows, n):
    m = len(rows)
    sym = from_matrix(range(m), rows)
    streamed = sum(1 for _ in enumerate_words(sym, range(m), n))
    power = np.linalg.matrix_power(np.array(rows), n - 1).sum()
    assert streamed == power == count_words(sym, range(m), n)


def test_enumerated_words_are_admissible():
    sym = from_matrix((0, 1, 2), [[1, 1, 0], [0, 0, 1], [1, 0, 0]])
    for w in enumerate_words(sym, (0, 1, 2), 5):
        assert sym.is_admissible(w)
        assert cylinder_contains(w, w[:3])


def test_cylinder_contains():
    assert cylinder_contains((0, 1), (0,))
    assert not cylinder_contains((0, 1), (1,))
    assert cylinder_contains((0, 1, 0), (0, 1))
    assert cylinder_contains((0, 1), ())


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
    assert rcgdms.shift._signature_reps(sym, symbols, order) == ref_signature_reps(sym, symbols, order)
    got = find_primitivity(sym, symbols, max_order=order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rcgdms.shift, "_signature_reps", ref_signature_reps)
        assert got == find_primitivity(sym, symbols, max_order=order)


def test_primitivity_reverification_catches_bad_witness():
    sym = from_matrix((0, 1), [[0, 1], [1, 0]])
    fake = PrimitivityWitness(order=1, connectors=((0,),))
    assert not verify_primitivity(sym, (0, 1), fake)


def test_ladder_lowest_index_fill():
    sym = full_shift(range(1, 101))
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(sym, (2, 4), witness)
    assert ladder.rungs == ((1, 2), (1, 2, 3, 4))
    # connectors past the lowest symbols are kept, and the fill skips them
    witness = PrimitivityWitness(order=2, connectors=((7, 5),))
    assert build_ladder(sym, (2, 4, 6), witness).rungs == ((5, 7), (1, 2, 5, 7), (1, 2, 3, 4, 5, 7))


def test_ladder_single_rung_full_shift():
    sym = full_shift((0, 1))
    ladder = build_ladder(sym, (2,), find_primitivity(sym, (0, 1), 2))
    assert ladder.rungs == ((0, 1),)


def test_ladder_cutoff_violation():
    sym = full_shift(range(1, 101))
    with pytest.raises(ValueError, match="cutoff"):
        build_ladder(sym, (5, 200))


def test_ladder_rungs_ascend():
    sym = full_shift(range(1, 101))
    ladder = build_ladder(sym, (3, 9, 27))
    for small, big in zip(ladder.rungs, ladder.rungs[1:]):
        assert set(small) < set(big)


def test_enumeration_rejects_bad_arguments():
    sym = full_shift((0, 1))
    with pytest.raises(ValueError, match="nonempty"):
        list(enumerate_words(sym, (), 2))
    with pytest.raises(ValueError, match="length"):
        list(enumerate_words(sym, (0, 1), 0))
