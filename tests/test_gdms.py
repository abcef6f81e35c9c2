import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from words import block_log_moment, block_log_ratio, code_point, ratio_of

from rcgdms import instances
from rcgdms.driving import DrivingOrbit, periodic
from rcgdms.gdms import (
    BlockTailExample,
    check_rbsc,
    example_weights,
    sample_limit_set,
    similarity_system,
)
from rcgdms.shift import full_shift

LOG2 = math.log(2.0)


def image(gdms, orbit, word):
    """The image interval of a word, from its center and half-width."""
    center, half = code_point(gdms, orbit, word)
    return center - half, center + half


def test_cantor_code_point_fixed_point(cantor):
    orbit = DrivingOrbit(cantor.driving, 0)
    center, half = code_point(cantor, orbit, (0, 0, 0, 0))
    assert center - half == pytest.approx(0.0, abs=1e-15)
    assert center + half == pytest.approx(3.0 ** -4, abs=1e-15)
    assert 2 * half <= cantor.contraction ** 4 * cantor.max_diameter() + 1e-15


def test_cantor_code_point_mixed_word(cantor):
    orbit = DrivingOrbit(cantor.driving, 0)
    lo, hi = image(cantor, orbit, (0, 1, 1, 1))
    assert hi == pytest.approx(1 / 3, abs=1e-15)
    assert lo == pytest.approx(1 / 3 - 3.0 ** -4, abs=1e-15)


def test_period2_image_length(period2):
    orbit = DrivingOrbit(period2.driving, 0)
    lo, hi = image(period2, orbit, (0,))
    assert hi - lo == pytest.approx(0.5)
    # second map in the composition acts at the next fiber
    lo2, hi2 = image(period2, orbit, (0, 0))
    assert hi2 - lo2 == pytest.approx(0.5 * 0.25)


def test_nesting_and_diameter_decay(twoscale):
    orbit = DrivingOrbit(twoscale.driving, 0)
    word = (0, 1, 0, 0, 1)
    for n in range(1, len(word)):
        outer = image(twoscale, orbit, word[:n])
        inner = image(twoscale, orbit, word[: n + 1])
        assert outer[0] - 1e-15 <= inner[0] and inner[1] <= outer[1] + 1e-15
        assert inner[1] - inner[0] <= twoscale.contraction ** (n + 1) + 1e-15


def test_diameter_matches_derivative_product(twoscale):
    # for interval similarities the image diameter is exactly the product of
    # the ratios times the space diameter
    orbit = DrivingOrbit(twoscale.driving, 0)
    word = (1, 0, 1)
    lo, hi = image(twoscale, orbit, word)
    expected = math.exp(
        math.fsum(math.log(ratio_of(twoscale, e, orbit.state(k))) for k, e in enumerate(word))
    )
    assert hi - lo == pytest.approx(expected, rel=1e-12)


def test_inadmissible_prefix_rejected(golden):
    orbit = DrivingOrbit(golden.driving, 0)
    with pytest.raises(ValueError, match="inadmissible"):
        code_point(golden, orbit, (1, 1))


def test_limit_set_depth2_exhaustive(cantor):
    orbit = DrivingOrbit(cantor.driving, 0)
    sample = sample_limit_set(cantor, orbit, depth=2)
    lefts = sorted(p - sample.radius_bound / 2 for p in sample.points)
    starts = [image(cantor, orbit, w)[0] for w in sample.codes.tolist()]
    assert sorted(starts) == pytest.approx([0.0, 2 / 9, 2 / 3, 2 / 3 + 2 / 9])
    assert len(sample.points) == 4
    assert sample.radius_bound == pytest.approx(3.0 ** -2)


def test_limit_set_depth1_count(twoscale):
    orbit = DrivingOrbit(twoscale.driving, 0)
    sample = sample_limit_set(twoscale, orbit, depth=1)
    assert len(sample.points) == 2


def test_random_words_reproducible(paper):
    orbit = DrivingOrbit(paper.driving, 0)
    a = sample_limit_set(paper, orbit, depth=3, count=64, seed=5)
    b = sample_limit_set(paper, orbit, depth=3, count=64, seed=5)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.points, b.points)
    c = sample_limit_set(paper, orbit, depth=3, count=64, seed=6)
    assert not np.array_equal(a.codes, c.codes)


def test_rbsc_margins(cantor, cantor_shrunk):
    assert check_rbsc(cantor, (0, 1)) == pytest.approx(0.0, abs=1e-15)
    assert check_rbsc(cantor_shrunk, (0, 1)) == pytest.approx(0.05, abs=1e-12)


def test_rbsc_single_map_margin():
    from fractions import Fraction

    from rcgdms.driving import DrivingOrbit, deterministic
    from rcgdms.gdms import similarity_system
    from rcgdms.shift import full_shift

    sys1 = similarity_system(
        full_shift((0,)),
        deterministic(0),
        {0: {0: Fraction(1, 2)}},
        {0: {0: 0.2}},
    )
    assert check_rbsc(sys1, (0,)) == pytest.approx(0.2)


def test_rbsc_paper_positive(paper):
    margin = check_rbsc(paper, tuple(range(1, 17)), fiber_samples=(1, 2, 3, 4))
    assert margin > 0


def test_paper_ratio_schedule(paper):
    def ratio(e, state):
        return math.exp(paper.log_ratios(state)[paper.symbolic.position[e]])

    # first edge contracts by 1/4 in every fiber
    assert ratio(1, 1) == pytest.approx(0.25)
    assert ratio(1, 7) == pytest.approx(0.25)
    # unlocked block: state 2 activates block 2 (edges 2..9) at 2^-6
    assert ratio(2, 2) == pytest.approx(2.0 ** -6)
    assert ratio(9, 2) == pytest.approx(2.0 ** -6)
    # locked block decays like 8^-e
    assert ratio(3, 1) == pytest.approx(8.0 ** -3)
    assert ratio(10, 2) == pytest.approx(8.0 ** -10)
    # state 3 unlocks block 3 (edges 10..265) at 2^-12
    assert ratio(10, 3) == pytest.approx(2.0 ** -12)


def test_paper_block_boundaries():
    tail = BlockTailExample(1024)
    assert tail.bounds[:4] == [0, 1, 9, 265]
    assert tail.block_of(1) == 1
    assert tail.block_of(2) == 2
    assert tail.block_of(9) == 2
    assert tail.block_of(10) == 3
    assert tail.block_of(265) == 3
    assert tail.block_of(266) == 4


def test_paper_ru_moment():
    tail = BlockTailExample(1024)
    value, divergent = tail.ru_moment(1.0)
    assert not divergent
    assert value == pytest.approx(0.5, abs=1e-12)
    for s in (0.25, 0.5, 0.75):
        _, divergent = tail.ru_moment(s)
        assert divergent


def test_paper_tail_moment_exactness():
    # at s = 1, full transfer mass per state i is sum of 2^{-l-1} over l <= i
    # plus a vanishing geometric remainder
    tail = BlockTailExample(1024)
    for i in (1, 2, 3, 5, 8):
        materialized = math.fsum(math.exp(block_log_ratio(tail, e, i)) for e in range(1, 1025))
        total = materialized + math.exp(block_log_moment(tail, 1.0, i))
        expected = math.fsum(2.0 ** -(l + 1) for l in range(1, i + 1)) + 8.0 ** -(
            sum(2 ** (k * k - 1) for k in range(1, i + 1)) + 1
        ) / (1 - 0.125)
        assert total == pytest.approx(expected, rel=1e-12)


def test_paper_contraction_and_lower_bounds(paper):
    block = np.array([paper.log_ratios(state) for state in paper.driving.state_support()])

    def log_ratio_range(e):
        column = block[:, paper.symbolic.position[e]]
        return column.min(), column.max()

    assert paper.contraction == 0.25
    assert log_ratio_range(1)[0] == pytest.approx(-2 * LOG2)
    assert log_ratio_range(5)[0] == pytest.approx(-5 * math.log(8.0))
    lo, hi = log_ratio_range(7)
    assert lo == pytest.approx(-7 * math.log(8.0))
    assert hi == pytest.approx(-(2 * 2 + 2) * LOG2)  # block-2 value once unlocked


def test_paper_weights_decay():
    states, weights = example_weights(20)
    assert states[0] == 1
    assert weights[0] > 0.9
    assert all(weights[i + 1] < weights[i] for i in range(10))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from([1, 8, 9, 10, 264, 265, 266, 1024, 2000]), st.integers(1, 2100)),
    st.integers(1, 40),
)
def test_block_rows_match_scalar_log_ratio(cutoff, state):
    tail = BlockTailExample(cutoff)
    want = np.array([block_log_ratio(tail, e, state) for e in range(1, cutoff + 1)])
    assert tail.log_ratios(np.arange(1, cutoff + 1))(state).tobytes() == want.tobytes()


def closed_form_row(name, sysm, state):
    """The scalar log|phi'| of each edge, from the instance's own closed form
    (not from its rows)."""
    edges = sysm.symbolic.edges
    if name == "paper-example":
        tail = BlockTailExample(len(edges))
        return np.array([block_log_ratio(tail, e, state) for e in edges])
    if name == "pure-tail":
        return np.array([-e * math.log(8.0) for e in edges])
    return np.array([math.log(ratio_of(sysm, e, state)) for e in edges])


@st.composite
def unit_fractions(draw):
    """A Fraction whose float lies in (0, 1), with terms up to 2**80, where
    rounding to a double loses digits and distinct ratios can share a float."""
    den = draw(st.integers(2, 2**80))
    r = Fraction(draw(st.integers(1, den - 1)), den)
    assume(float(r) < 1.0)  # a contraction rounding to 1 is refused
    return r


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_similarity_rows_match_scalar_log_ratio(data):
    # the log row and the contraction, bit for bit those of math.log of each
    # Fraction and of the float of the largest Fraction
    edges = sorted(data.draw(st.sets(st.integers(0, 40), min_size=1, max_size=6)))
    states = tuple(range(data.draw(st.integers(1, 3))))
    ratio = st.one_of(st.integers(1, 999).map(lambda k: Fraction(k, 1000)), unit_fractions())
    ratios = {s: {e: data.draw(ratio) for e in edges} for s in states}
    offsets = {s: {e: 0.0 for e in edges} for s in states}
    sysm = similarity_system(full_shift(edges), periodic(states), ratios, offsets)
    for state in states:
        want = np.array([math.log(ratios[state][e]) for e in edges])
        assert sysm.log_ratios(state).tobytes() == want.tobytes()
    assert sysm.contraction == float(max(max(row.values()) for row in ratios.values()))


@pytest.mark.parametrize("cutoff", [1, 8, 500])
def test_pure_tail_rows_match_scalar_log_ratio(cutoff):
    sysm = instances.pure_tail(cutoff)
    assert sysm.log_ratios(0).tobytes() == closed_form_row("pure-tail", sysm, 0).tobytes()


@pytest.mark.parametrize("name", sorted(instances.PRESETS))
def test_preset_rows_match_scalar_log_ratio(name):
    sysm = instances.PRESETS[name]()
    for state in sysm.driving.state_support():
        assert sysm.log_ratios(state).tobytes() == closed_form_row(name, sysm, state).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_similarity_offsets_match_the_offset_table(data):
    edges = sorted(data.draw(st.sets(st.integers(0, 40), min_size=1, max_size=6)))
    states = tuple(range(data.draw(st.integers(1, 3))))
    offset = st.one_of(st.floats(0.0, 1.0), st.integers(0, 5).map(lambda k: Fraction(k, 7)))
    offsets = {s: {e: data.draw(offset) for e in edges} for s in states}
    ratios = {s: dict.fromkeys(edges, Fraction(1, 9)) for s in states}
    sysm = similarity_system(full_shift(edges), periodic(states), ratios, offsets)
    for state in states:
        want = np.array([float(offsets[state][e]) for e in edges])
        assert sysm.offsets(state).tobytes() == want.tobytes()


@pytest.mark.parametrize("cutoff", [1, 8, 500])
def test_pure_tail_offsets_match_the_packing_formula(cutoff):
    sysm = instances.pure_tail(cutoff)
    want = np.array([sum(8.0 ** -k for k in range(1, e)) + e * 1e-3 for e in range(1, cutoff + 1)])
    assert sysm.offsets(0).tobytes() == want.tobytes()


@pytest.mark.parametrize("state", [1, 2, 3, 5, 17, 31])
def test_paper_offsets_match_the_gap_loop(paper, state):
    # images packed left to right with one uniform gap from the slack
    tail = BlockTailExample(1024)
    widths = [math.exp(block_log_ratio(tail, e, state)) for e in range(1, 1025)]
    gap = (1.0 - (math.fsum(widths) + math.exp(tail.log_moments(1.0, (state,))[0]))) / 1025
    want, acc = [], gap
    for w in widths:
        want.append(acc)
        acc += w + gap
    assert paper.offsets(state).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", sorted(instances.PRESETS))
def test_rows_are_read_only(name):
    sysm = instances.PRESETS[name]()
    state = sysm.driving.state_support()[0]
    for row in (sysm.log_ratios(state), sysm.offsets(state)):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.5
    assert sysm.log_ratios(state) is sysm.log_ratios(state)
