"""Limit-set coding over the suffix walk and Birkhoff sums over the prefix
tree, against per-word references.

The references code one word at a time with the tests' `code_point` and
enumerate words with the tests' `enumerate_words` or itertools.product, so
they share no code with the array path in `code_levels`, `shift.suffix_tree`,
`word_index` and `shift.prefix_tree`.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import local_dimension_samples
from words import code_point, codes, enumerate_words, masses, ratio_of, successors

import rcgdms.gdms
import rcgdms.shift
from rcgdms.driving import DrivingOrbit, bernoulli, deterministic, periodic
from rcgdms.gdms import code_levels, sample_limit_set, similarity_system
from rcgdms.gibbs import conformal_measures
from rcgdms.oracle import _exponent_sums, level_histogram
from rcgdms.potentials import geometric_potential
from rcgdms.shift import find_primitivity, from_matrix, full_shift, word_index

TOL = 1e-12


@st.composite
def systems(draw):
    """A random similarity system on 2-5 symbols: full or primitive non-full
    incidence, 1-3 fiber states under Bernoulli or periodic driving, random
    ratios below 1, offsets and per-symbol target spaces, plus a random
    nonempty symbol subset."""
    k = draw(st.integers(2, 5))
    symbols = tuple(sorted(draw(st.sets(st.integers(0, 300), min_size=k, max_size=k))))
    if draw(st.booleans()):
        symbolic = full_shift(symbols)
    else:
        # a Hamiltonian cycle with one self-loop is primitive; random extra edges
        rows = [[int(draw(st.booleans())) for _ in symbols] for _ in symbols]
        for i in range(k):
            rows[i][(i + 1) % k] = 1
        rows[0][0] = 1
        symbolic = from_matrix(symbols, rows)
    states = tuple(range(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        driving = bernoulli(states, [1.0] * len(states))
    else:
        driving = periodic(draw(st.lists(st.sampled_from(states), min_size=1, max_size=4)))
    ratio = st.builds(Fraction, st.integers(1, 8), st.sampled_from((9, 10, 17)))
    offset = st.floats(0.0, 1.0, allow_nan=False)
    system = similarity_system(
        symbolic,
        driving,
        {s: {e: draw(ratio) for e in symbols} for s in states},
        {s: {e: draw(offset) for e in symbols} for s in states},
    )
    # each symbol maps into its own target space, so spaces differ per symbol
    ends = st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 3.0))
    spaces = {e: (lo, lo + width) for e, (lo, width) in ((e, draw(ends)) for e in symbols)}
    system = replace(system, spaces=spaces, edge_vertex={e: (e, e) for e in symbols})
    subset = draw(st.sets(st.sampled_from(symbols), min_size=1)) if draw(st.booleans()) else symbols
    orbit = DrivingOrbit(driving, draw(st.integers(0, 5)))
    return system, orbit, tuple(sorted(subset))


@settings(max_examples=60, deadline=None)
@given(systems(), st.integers(1, 5))
def test_exhaustive_sample_matches_per_word_coding(case, depth):
    system, orbit, symbols = case
    sample = sample_limit_set(system, orbit, depth=depth, symbols=symbols)
    words = tuple(enumerate_words(system.symbolic, symbols, depth))
    assert tuple(map(tuple, codes(sample).tolist())) == words
    assert codes(sample).shape == (len(words), depth)
    assert codes(sample).dtype == np.min_scalar_type(max(symbols))
    # bit-for-bit, not approximately
    assert sample.points.tolist() == [code_point(system, orbit, w)[0] for w in words]


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 6), st.integers(0, 40), st.integers(0, 1000))
def test_random_words_match_per_word_coding(case, depth, count, seed):
    system, orbit, symbols = case
    sample = sample_limit_set(system, orbit, depth=depth, count=count, seed=seed, symbols=symbols)
    # the documented protocol: a uniform first symbol, then uniform admissible
    # successors, from a PCG64 stream of the seed; words that die are dropped
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    want = []
    for _ in range(count):
        w = [symbols[rng.integers(len(symbols))]]
        while len(w) < depth:
            nxt = [b for b in symbols if system.symbolic.admissible_pair(w[-1], b)]
            if not nxt:
                break
            w.append(nxt[rng.integers(len(nxt))])
        if len(w) == depth:
            want.append(tuple(w))
    assert tuple(map(tuple, codes(sample).tolist())) == tuple(want)
    assert sample.points.tolist() == [code_point(system, orbit, w)[0] for w in want]


@settings(max_examples=60, deadline=None)
@given(systems(), st.integers(1, 6))
def test_exponent_sums_match_product_enumeration(case, n):
    system, orbit, symbols = case
    want = sorted(
        math.fsum(-math.log(ratio_of(system, e, orbit.state(j))) for j, e in enumerate(w))
        for w in itertools.product(symbols, repeat=n)
        if system.symbolic.is_admissible(w)
    )
    got = np.sort(_exponent_sums(system, orbit, symbols, n))
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=TOL, atol=TOL)


def test_coding_makes_no_per_symbol_map_calls(monkeypatch, paper, golden):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-word coding on the array path")

    # the per-word reference codes through map_of; the array path reads rows
    monkeypatch.setattr("words.map_of", forbidden)
    orbit = DrivingOrbit(paper.driving, 0)
    sample = sample_limit_set(paper, orbit, depth=6, symbols=(1, 2, 3, 4))
    assert sample.points.shape == (4 ** 6,)
    sample = sample_limit_set(paper, orbit, depth=4, count=50, seed=3, symbols=(1, 2, 3, 4))
    assert sample.points.shape == (50,)
    assert level_histogram(golden, DrivingOrbit(golden.driving, 0), (0, 1), n=12).total == 377


def test_exhaustive_sample_builds_codes_only_when_read(monkeypatch, paper):
    def forbidden(*args, **kwargs):
        raise AssertionError("word_index called before the rows are read")

    orbit = DrivingOrbit(paper.driving, 0)
    want = word_index(paper.symbolic, (1, 2, 3, 4), 5)
    monkeypatch.setattr(rcgdms.gdms, "word_index", forbidden)
    sample = sample_limit_set(paper, orbit, depth=5, symbols=(1, 2, 3, 4))
    assert sample.points.shape == (4 ** 5,)
    with pytest.raises(AssertionError, match="word_index"):
        sample.rows()
    monkeypatch.setattr(rcgdms.gdms, "word_index", rcgdms.shift.word_index)
    assert (sample.rows() == want).all()
    assert (codes(sample) == want + 1).all()


def reference_code_words(gdms, orbit, symbols, index):
    """The coding kernel before the suffix walk: every row of `index` coded at
    every level, from maps tabulated per (level, symbol)."""
    spaces = np.array([gdms.space_of_edge_target(e) for e in symbols], dtype=float).reshape(-1, 2)
    columns = [gdms.symbolic.position[e] for e in symbols]
    lo, hi = spaces[index[:, -1]].T
    for k in range(index.shape[1] - 1, -1, -1):
        state, col = orbit.state(k), index[:, k]
        a = gdms.offsets(state)[columns][col]
        r = np.array([math.exp(x) for x in gdms.log_ratios(state)[columns].tolist()])[col]
        lo, hi = a + r * (lo - spaces[col, 0]), a + r * (hi - spaces[col, 0])
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


@settings(max_examples=30, deadline=None)
@given(systems(), st.integers(1, 5))
def test_suffix_coding_matches_the_row_coding_reference(case, depth):
    system, orbit, symbols = case
    got = code_levels(system, orbit, symbols, depth)
    want = reference_code_words(system, orbit, symbols, word_index(system.symbolic, symbols, depth))
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


def per_word_local_dimensions(gdms, orbit, measure, words):
    """local_dimension_samples one word and one prefix at a time: every
    interval from code_point, and each ball over the words of the prefix's
    length in lexicographic order, their masses looked up one by one."""
    out, mass_of = [], masses(measure)
    for word in map(tuple, words):
        x = code_point(gdms, orbit, word)[0]  # raises on an inadmissible word
        depths, markov, metric = [], [], []
        for j in range(1, min(len(word), measure.depth) + 1):
            center, half = code_point(gdms, orbit, word[:j])
            diam = (center + half) - (center - half)
            mass = mass_of[word[:j]]
            if mass <= 0 or diam <= 0:
                continue
            ball = []
            for w in enumerate_words(gdms.symbolic, measure.symbols, j):
                c, h = code_point(gdms, orbit, w)
                if c + h >= x - diam and c - h <= x + diam:
                    ball.append(mass_of[w])
            depths.append(j)
            markov.append(math.log(mass) / math.log(diam))
            metric.append(math.log(sum(ball)) / math.log(diam))
        gaps = tuple(abs(a - b) for a, b in zip(markov, metric))
        out.append((word, tuple(depths), tuple(markov), tuple(metric), gaps))
    return out


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 4), st.data())
def test_local_dimension_samples_match_per_word_coding(case, depth, data):
    system, orbit, symbols = case
    assume(find_primitivity(system.symbolic, symbols, 8) is not None)  # else some lambda_k is 0
    # one wide target space for every symbol keeps each image inside it, so
    # the boundary-separation margin is positive
    system = replace(system, spaces=dict.fromkeys(system.spaces, (-1.0, 20.0)))
    measure = conformal_measures(symbols, geometric_potential(system).scaled(0.7), orbit, depth=depth)[0][0]
    # admissible words, up to two symbols longer than the measure
    words = []
    for length in data.draw(st.lists(st.integers(1, depth + 2), min_size=1, max_size=4)):
        word = [data.draw(st.sampled_from(symbols))]
        while len(word) < length:
            nxt = successors(system.symbolic, word[-1], symbols)
            if not nxt:
                break
            word.append(data.draw(st.sampled_from(nxt)))
        words.append(tuple(word))
    got = local_dimension_samples(system, orbit, measure, words)
    want = per_word_local_dimensions(system, orbit, measure, words)
    assert got == want
    # a word with an inadmissible prefix raises on both paths
    bad = data.draw(st.lists(st.sampled_from(symbols), min_size=2, max_size=depth + 2).map(tuple))
    if not system.symbolic.is_admissible(bad):
        with pytest.raises(ValueError):
            per_word_local_dimensions(system, orbit, measure, [bad])
        with pytest.raises(ValueError):
            local_dimension_samples(system, orbit, measure, [bad])


def test_random_words_on_a_full_shift_check_no_pair(monkeypatch, paper):
    # every successor of a full shift is admissible; the walk asks no pair
    calls = 0
    admissible_pair = rcgdms.shift.SymbolicSystem.admissible_pair

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return admissible_pair(self, a, b)

    monkeypatch.setattr(rcgdms.shift.SymbolicSystem, "admissible_pair", counting)
    orbit = DrivingOrbit(paper.driving, 0)
    sample = sample_limit_set(paper, orbit, depth=3, count=512, seed=5)
    assert codes(sample).shape == (512, 3)
    assert calls == 0


def test_ball_mass_matches_per_word_images():
    """Metric ratios against a test-local ball mass over every word's image, on
    maps that almost tile the interval, so balls meet neighboring cylinders
    (three, of unequal masses, for these words, so the summation order shows)."""
    symbols = (0, 1)
    system = similarity_system(
        full_shift(symbols),
        deterministic(0),
        {0: {0: Fraction(47, 100), 1: Fraction(41, 100)}},
        {0: {0: 0.02, 1: 0.53}},
    )
    zeta = geometric_potential(system).scaled(0.85)
    orbit = DrivingOrbit(system.driving, 0)
    measure = conformal_measures(symbols, zeta, orbit, depth=7)[0][0]
    words = [(0, 1, 1, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0, 1)]
    samples = local_dimension_samples(system, orbit, measure, words)
    mass_of = masses(measure)
    most_hits = 0
    for word, (_, depths, _, metric_ratios, _) in zip(words, samples):
        x = code_point(system, orbit, word)[0]
        want = []
        for j in depths:
            center, half = code_point(system, orbit, word[:j])
            diam = (center + half) - (center - half)
            ball, hits = 0.0, 0
            for w in itertools.product(symbols, repeat=j):
                c, h = code_point(system, orbit, w)
                if c + h >= x - diam and c - h <= x + diam:
                    ball += mass_of[w]
                    hits += 1
            most_hits = max(most_hits, hits)
            want.append(math.log(ball) / math.log(diam))
        assert depths == tuple(range(1, 8))
        assert metric_ratios == tuple(want)
    assert most_hits >= 3


def test_budget_raises_before_the_level_is_built(monkeypatch, paper):
    monkeypatch.setattr(rcgdms.shift, "WORD_BUDGET", 10 ** 5)
    levels = rcgdms.shift.prefix_tree(paper.symbolic, tuple(range(1, 101)), 6)
    assert [len(last) for _, last in itertools.islice(levels, 2)] == [100, 10 ** 4]
    with pytest.raises(ValueError, match="budget"):
        next(levels)


def test_suffix_walk_shares_the_budget(monkeypatch):
    # 8 symbols at depth 6 would grow levels of 8 up to 262,144 words
    monkeypatch.setattr(rcgdms.shift, "WORD_BUDGET", 1000)
    ratios, offsets = {0: dict.fromkeys(range(8), Fraction(1, 9))}, {0: {e: e / 8 for e in range(8)}}
    system = similarity_system(full_shift(range(8)), deterministic(0), ratios, offsets)
    levels = rcgdms.shift.suffix_tree(system.symbolic, tuple(range(8)), 6)
    assert [len(first) for first, _ in itertools.islice(levels, 3)] == [8, 64, 512]
    with pytest.raises(ValueError, match="budget"):
        next(levels)
    with pytest.raises(ValueError, match="budget"):
        sample_limit_set(system, DrivingOrbit(system.driving, 0), 6)
