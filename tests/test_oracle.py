import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcgdms.oracle as oracle
from rcgdms.driving import DrivingOrbit
from rcgdms.gibbs import conformal_measures
from rcgdms.oracle import (
    box_counting,
    corrected_coarse_dimensions,
    level_histogram,
    local_dimension_samples,
)
from rcgdms.gdms import sample_limit_set
from rcgdms.potentials import geometric_potential

LOG2, LOG3, LOG4 = math.log(2.0), math.log(3.0), math.log(4.0)


def bin_of(hist, exponent):
    """The histogram bin holding an exponent inside its range."""
    return int(np.searchsorted(hist.bin_edges, exponent, side="right")) - 1


# ---------------------------------------------------------------------------
# level histograms
# ---------------------------------------------------------------------------


def test_twoscale_histogram_central_bin(twoscale):
    orbit = DrivingOrbit(twoscale.driving, 0)
    hist = level_histogram(twoscale, orbit, (0, 1), n=20, bins=32)
    assert hist.total == 2 ** 20
    j = bin_of(hist, 1.5 * LOG2)
    # independent combinatorial oracle: words with ten ratio-1/4 symbols
    assert hist.counts[j] == math.comb(20, 10)
    assert hist.bin_exponents[j] == pytest.approx(1.5 * LOG2, abs=1e-9)
    expected = math.log(math.comb(20, 10)) / (20 * 1.5 * LOG2)
    assert hist.coarse_dimensions[j] == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.58318, abs=1e-4)


def test_twoscale_exponent_range(twoscale):
    orbit = DrivingOrbit(twoscale.driving, 0)
    hist = level_histogram(twoscale, orbit, (0, 1), n=14)
    assert hist.exponent_min == pytest.approx(LOG2, abs=1e-12)
    assert hist.exponent_max == pytest.approx(LOG4, abs=1e-12)


def test_uniform_ratio_single_bin(cantor):
    orbit = DrivingOrbit(cantor.driving, 0)
    hist = level_histogram(cantor, orbit, (0, 1), n=10)
    assert (hist.counts > 0).sum() == 1
    j = int(np.argmax(hist.counts))
    assert hist.counts[j] == 2 ** 10
    assert hist.coarse_dimensions[j] == pytest.approx(LOG2 / LOG3, abs=1e-12)


def test_coarse_dimension_depth_trend(twoscale):
    # finite-depth bias shrinks like log(n)/n toward the true value 2/3
    orbit = DrivingOrbit(twoscale.driving, 0)
    values = []
    for n in (10, 16, 22):
        hist = level_histogram(twoscale, orbit, (0, 1), n=n, bins=32)
        j = bin_of(hist, 1.5 * LOG2)
        values.append(hist.coarse_dimensions[j])
    assert values[0] < values[1] < values[2] < 2 / 3


def test_corrected_dimension_central_bin(twoscale):
    # the local-limit term removes the counting bias: the central bin lands on
    # the true level-set dimension 2/3 up to Stirling's O(1/n) remainder
    orbit = DrivingOrbit(twoscale.driving, 0)
    hist = level_histogram(twoscale, orbit, (0, 1), n=20, bins=32)
    corrected = corrected_coarse_dimensions(hist)
    j = bin_of(hist, 1.5 * LOG2)
    assert 2 / 3 - hist.coarse_dimensions[j] > 0.08
    assert corrected[j] == pytest.approx(2 / 3, abs=1e-3)
    # the extreme words (q = 0 and q = 1) sit outside the correction's domain
    assert np.isnan(corrected[0]) and np.isnan(corrected[-1])


def test_corrected_dimension_rules(cantor, paper):
    orbit = DrivingOrbit(cantor.driving, 0)
    # degenerate exponent range: no correction
    assert corrected_coarse_dimensions(level_histogram(cantor, orbit, (0, 1), n=8)) is None
    # more than two symbols: no correction
    orbit = DrivingOrbit(paper.driving, 0)
    assert corrected_coarse_dimensions(level_histogram(paper, orbit, (1, 2, 3), n=4)) is None


def test_histogram_budget_guard(paper):
    orbit = DrivingOrbit(paper.driving, 0)
    with pytest.raises(ValueError, match="budget"):
        level_histogram(paper, orbit, tuple(range(1, 101)), n=6)


def test_histogram_incidence_constrained(golden):
    orbit = DrivingOrbit(golden.driving, 0)
    hist = level_histogram(golden, orbit, (0, 1), n=12)
    from rcgdms.shift import count_words

    assert hist.total == count_words(golden.symbolic, (0, 1), 12)
    # single contraction ratio: every admissible word has the same exponent
    assert (hist.counts > 0).sum() == 1


def ref_bins(sums, edges):
    """Per-bin counts and mean exponents (bin centers where empty) from
    np.histogram and an np.add.at sum over the same searchsorted bins."""
    counts, _ = np.histogram(sums, bins=edges)
    idx = np.clip(np.searchsorted(edges, sums, side="right") - 1, 0, len(counts) - 1)
    means = np.zeros(len(counts))
    np.add.at(means, idx, sums)
    full = counts > 0
    means[full] = means[full] / counts[full]
    means[~full] = 0.5 * (edges[:-1] + edges[1:])[~full]
    return counts, means


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from((1e-3, 0.5, 3e4, 1e5)), st.floats(1e-3, 1e6)),
       st.sampled_from((0.0, 1e-16, 1e-13, 1e-9, 1.0, 3.7, 1e3)), st.integers(1, 40), st.data())
def test_histogram_bins_match_the_histogram_reference(lo, width, bins, data):
    """Counts and bin_exponents equal np.histogram and np.add.at over the
    same bins of positive exponents: values on interior edges, on the top
    edge (hi + 1e-12 rounds to hi past 2**14), and the one-bin degenerate
    range included."""
    hi = lo + width
    grid = np.linspace(lo, hi + 1e-12, bins + 1)
    pool = [x for x in grid.tolist() if lo <= x <= hi] + [lo, hi]
    sums = np.array(data.draw(st.lists(st.one_of(st.sampled_from(pool), st.floats(lo, hi)), max_size=30)) + [lo, hi])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_exponent_sums", lambda gdms, orbit, symbols, n: sums)
        hist = level_histogram(None, None, (0, 1), n=1, bins=bins)
    counts, means = ref_bins(sums, hist.bin_edges)
    assert len(hist.counts) == (1 if hi - lo < 1e-15 else bins)
    assert hist.counts.dtype == counts.dtype and np.array_equal(hist.counts, counts)
    assert hist.bin_exponents.tobytes() == means.tobytes()


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------


def test_box_counting_cantor(cantor):
    orbit = DrivingOrbit(cantor.driving, 0)
    sample = sample_limit_set(cantor, orbit, depth=10)
    scales = [3.0 ** -j for j in range(2, 8)]
    est = box_counting(sample, scales)
    assert 0.58 <= est.dimension <= 0.68
    assert est.residual <= 0.05


def test_box_counting_shrunk_below_root(cantor_shrunk):
    orbit = DrivingOrbit(cantor_shrunk.driving, 0)
    sample = sample_limit_set(cantor_shrunk, orbit, depth=10)
    scales = [0.3 ** j for j in range(2, 8)]
    est = box_counting(sample, scales)
    s_star = LOG2 / math.log(10 / 3)
    assert est.dimension <= s_star + 0.05


def test_box_counting_single_point():
    est = box_counting(np.array([0.37]), [0.1, 0.05, 0.01, 0.005])
    assert est.dimension == 0.0


def test_box_counting_full_interval():
    pts = np.linspace(0, 1, 20001)
    est = box_counting(pts, [0.05, 0.02, 0.01, 0.005, 0.002])
    assert est.dimension == pytest.approx(1.0, abs=0.02)


def test_box_counting_scale_validation(cantor):
    orbit = DrivingOrbit(cantor.driving, 0)
    sample = sample_limit_set(cantor, orbit, depth=4)
    with pytest.raises(ValueError, match="three scales"):
        box_counting(sample, [0.1, 0.01])
    with pytest.raises(ValueError, match="decade"):
        box_counting(sample, [0.1, 0.08, 0.06])
    with pytest.raises(ValueError, match="radius"):
        box_counting(sample, [0.5, 0.1, 0.01])  # depth-4 truncation too coarse
    with pytest.raises(ValueError, match="empty"):
        box_counting(np.array([]), [0.1, 0.05, 0.01])


# ---------------------------------------------------------------------------
# local dimension
# ---------------------------------------------------------------------------


def test_local_dimension_shrunk_cantor(cantor_shrunk):
    s_star = LOG2 / math.log(10 / 3)
    zeta = geometric_potential(cantor_shrunk).scaled(s_star)
    orbit = DrivingOrbit(cantor_shrunk.driving, 0)
    measures, _ = conformal_measures((0, 1), zeta, orbit, depth=10)
    samples = local_dimension_samples(
        cantor_shrunk, orbit, measures[0], [(0, 1, 0, 1, 0, 1, 0, 1, 0, 1)]
    )
    s = samples[0]
    assert abs(s.markov_ratios[-1] - s_star) <= 0.01
    # separation exceeds the matched radius here, so the ball sees exactly its
    # own cylinder and the two routes coincide
    assert s.gaps[-1] <= s.gaps[1] + 1e-15
    assert abs(s.metric_ratios[-1] - s_star) <= 0.12


def test_local_dimension_requires_positive_margin(cantor):
    zeta = geometric_potential(cantor).scaled(LOG2 / LOG3)
    orbit = DrivingOrbit(cantor.driving, 0)
    measures, _ = conformal_measures((0, 1), zeta, orbit, depth=3)
    with pytest.raises(ValueError, match="margin"):
        local_dimension_samples(cantor, orbit, measures[0], [(0, 1, 0)])


def test_local_dimension_near_tiling():
    # maps that almost tile the interval: measure is almost Lebesgue, local
    # dimension near one times the packing exponent
    from fractions import Fraction

    from rcgdms.driving import DrivingOrbit, deterministic
    from rcgdms.gdms import similarity_system
    from rcgdms.shift import full_shift

    system = similarity_system(
        full_shift((0, 1)),
        deterministic(0),
        {0: {0: Fraction(45, 100), 1: Fraction(45, 100)}},
        {0: {0: 0.02, 1: 0.53}},
    )
    s_star = LOG2 / math.log(100 / 45)
    zeta = geometric_potential(system).scaled(s_star)
    orbit = DrivingOrbit(system.driving, 0)
    measures, _ = conformal_measures((0, 1), zeta, orbit, depth=10)
    samples = local_dimension_samples(system, orbit, measures[0], [(0, 1) * 5])
    s = samples[0]
    assert abs(s.markov_ratios[-1] - s_star) <= 0.02
    # balls overlap neighboring cylinders here; the defect shrinks with depth
    assert s.gaps[1] > 0
    assert s.gaps[-1] < s.gaps[1]


def test_local_dimension_depth_one_bracket(cantor_shrunk):
    s = 0.5
    zeta = geometric_potential(cantor_shrunk).scaled(s)
    orbit = DrivingOrbit(cantor_shrunk.driving, 0)
    measures, _ = conformal_measures((0, 1), zeta, orbit, depth=2)
    samples = local_dimension_samples(cantor_shrunk, orbit, measures[0], [(0, 1)])
    ratio = samples[0].markov_ratios[0]
    assert 0.0 < ratio < 2.0
