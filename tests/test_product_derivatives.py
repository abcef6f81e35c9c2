"""p' and p'' of the exact-product route against central differences of p.

`pressure(..., slope=True)` reads the first and second derivative in s off
the kernel's own shifted exponentials (the softmax mean and variance of the
lane slopes, plus the tail's closed forms).  Here they are compared with
central differences of the value alone, on random full shifts under
Bernoulli driving with and without a geometric tail, and on the paper
example; the value that comes with them must keep `pressure`'s bits.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgdms.driving import bernoulli, deterministic
from rcgdms.gdms import build_paper_example
from rcgdms.potentials import FirstSymbolPotential, geometric_potential, s_infinity
from rcgdms.shift import GeometricTail, full_shift
from rcgdms.thermo import pressure

EPS = sys.float_info.epsilon


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def assert_matches_differences(potential, s, h):
    """p' and p'' at s against the central differences of p with step h,
    within their truncation and the rounding of p over the step."""
    p = lambda x: pressure(None, potential.scaled(x)).value
    est = pressure(None, potential.scaled(s), slope=True)
    assert same_bits(est.value, p(s))
    lo, mid, hi = p(s - h), p(s), p(s + h)
    rounding = 8.0 * EPS * max(abs(lo), abs(mid), abs(hi))
    first, second = (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / (h * h)
    assert abs(est.slope - first) <= 1e-5 * (1.0 + abs(first)) + rounding / h, (s, est.slope, first)
    assert abs(est.curvature - second) <= 1e-3 * abs(second) + 1e-5 + 2.0 * rounding / (h * h), (s, est.curvature, second)
    return est


@st.composite
def product_systems(draw):
    """A full shift over 2-8 edges with one row of log ratios per state, 1-3
    Bernoulli states, and no tail or a geometric tail."""
    edges = tuple(range(1, draw(st.integers(2, 8)) + 1))
    states = tuple(range(draw(st.integers(1, 3))))
    rows = {
        state: np.array(draw(st.lists(st.floats(-6.0, -0.05), min_size=len(edges), max_size=len(edges))))
        for state in states
    }
    weights = [draw(st.floats(0.05, 1.0)) for _ in states]
    tail = None
    if draw(st.booleans()):
        tail = GeometricTail(ratio=draw(st.floats(0.05, 0.95)), start=len(edges) + draw(st.integers(1, 4)))
    system = full_shift(edges, tail=tail)
    return FirstSymbolPotential(system=system, row=rows.__getitem__, tail=tail, driving=bernoulli(states, weights))


@settings(max_examples=200, deadline=None)
@given(product_systems(), st.floats(0.05, 6.0), st.booleans())
def test_random_product_derivatives_match_central_differences(potential, s, negative):
    if potential.tail is None and negative:
        s = -s  # a finite alphabet is summable at every scale
    assert_matches_differences(potential, s, 1e-4 * (min(1.0, s) if potential.tail is not None else 1.0))


@settings(max_examples=50, deadline=None)
@given(product_systems(), st.lists(st.floats(0.05, 6.0), min_size=1, max_size=5))
def test_batched_derivatives_keep_the_one_scale_bits(potential, scales):
    states = potential.driving.state_support()
    got = potential.product_sums(np.array(scales), states, None, slope=True)
    assert got.shape == (len(scales), 3, len(states))
    for rows, s in zip(got, scales):
        assert same_bits(rows, potential.product_sums(s, states, None, slope=True))
        assert same_bits(rows[0], potential.product_sums(s, states, None))


@pytest.fixture(scope="module")
def paper_potential():
    return geometric_potential(build_paper_example())


@pytest.mark.parametrize("s", ["threshold", 0.05, 0.38, 1.0, 7.0, 40.0])
def test_paper_derivatives_match_central_differences(paper_potential, s):
    if s == "threshold":
        s = s_infinity(paper_potential) + 1e-6
    est = assert_matches_differences(paper_potential, s, 1e-4 * min(1.0, s))
    assert est.slope < 0.0 and est.curvature >= 0.0


def test_underflowed_geometric_tail_branch():
    """Where s * log(ratio) underflows to 0, the tail's moment is
    -log(s) - log(-log ratio): p' follows -1/s (a relative step resolves it)
    and p'' = 1/s^2 overflows, so no curvature is given."""
    tail = GeometricTail(ratio=1.0 - 1e-16, start=3)
    system = full_shift((1, 2), tail=tail)
    potential = FirstSymbolPotential(
        system=system, row=lambda state: np.array([-1.0, -2.0]), tail=tail, driving=deterministic(0)
    )
    s, h = 1e-308, 1e-311
    assert s * math.log(tail.ratio) == 0.0
    est = pressure(None, potential.scaled(s), slope=True)
    p = lambda x: pressure(None, potential.scaled(x)).value
    assert same_bits(est.value, p(s)) and est.value == pytest.approx(-math.log(s) - math.log(-math.log(tail.ratio)))
    assert est.slope == pytest.approx((p(s + h) - p(s - h)) / (2.0 * h), rel=1e-5)
    assert est.curvature is None


def test_no_derivatives_where_the_value_diverges(paper_potential):
    for s in (-1.0, 0.0):
        est = pressure(None, paper_potential.scaled(s), slope=True)
        assert est.value == math.inf and est.slope is None and est.curvature is None
