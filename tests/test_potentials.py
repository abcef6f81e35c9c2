import math
from dataclasses import replace
from fractions import Fraction

import pytest
from words import birkhoff, value, weight_fn, zero_potential

from rcgdms.driving import DrivingOrbit
from rcgdms.gdms import build_paper_example
from rcgdms.potentials import (
    float_log,
    geometric_potential,
    s_infinity,
    summability,
)
from rcgdms.thermo import _connector_bound, _lane

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def test_cantor_birkhoff_sum_on_cylinder(cantor):
    zeta = geometric_potential(cantor)
    orbit = DrivingOrbit(cantor.driving, 0)
    hi, lo = birkhoff(zeta, orbit, 0, (0, 1)), float_log(exact_product(zeta, orbit, (0, 1)))
    assert hi == pytest.approx(lo, abs=1e-15)
    assert hi == pytest.approx(2 * math.log(1 / 3), abs=1e-14)


def test_period2_symbol_value(period2):
    zeta = geometric_potential(period2)
    assert value(zeta, "a", 0) == pytest.approx(math.log(0.5))
    assert value(zeta, "b", 1) == pytest.approx(math.log(0.25))


def test_paper_symbol_value(paper):
    zeta = geometric_potential(paper)
    assert value(zeta, 2, 1) == pytest.approx(-2 * LOG2)


def test_cantor_transfer_sum(cantor):
    zeta = geometric_potential(cantor)
    hi, lo = zeta.unit_transfer_bounds(0, None)
    assert math.exp(hi) == pytest.approx(2 / 3, abs=1e-14)
    assert hi == lo


def test_paper_per_fiber_transfer_bound(paper):
    zeta = geometric_potential(paper)
    for state in range(1, 41):
        hi, _ = zeta.unit_transfer_bounds(state, None)
        assert math.exp(hi) <= 0.5 + 1e-12


def test_paper_summable_at_half(paper):
    zeta = geometric_potential(paper)
    rep = summability(zeta, s=0.5)
    assert rep.summable and rep.normal_summable
    assert math.isfinite(rep.log_upper_expectation)
    # stable under deeper truncation of the driving weights
    deeper = build_paper_example(weight_states=30)
    rep2 = summability(geometric_potential(deeper), s=0.5)
    assert rep.log_upper_expectation == pytest.approx(rep2.log_upper_expectation, abs=1e-10)


def test_summability_flags_divergence(paper):
    zeta = geometric_potential(paper)
    assert not summability(zeta, s=-0.25).summable
    assert summability(zeta, s=0.25).summable


def test_s_infinity_finite_alphabet(cantor):
    assert s_infinity(geometric_potential(cantor)) == -math.inf


def test_s_infinity_pure_tail(pure_tail):
    got = s_infinity(geometric_potential(pure_tail))
    assert abs(got) <= 1e-6


def test_s_infinity_paper(paper):
    got = s_infinity(geometric_potential(paper))
    assert abs(got) <= 1e-6


def test_transfer_monotone_in_scale(paper):
    zeta = geometric_potential(paper)
    grid = [0.25, 0.5, 1.0, 2.0]
    for state in (1, 2, 3):
        values = [zeta.scaled(s).unit_transfer_bounds(state, None)[0] for s in grid]
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))


def test_restricted_transfer_bounds_golden(golden):
    zeta = geometric_potential(golden)
    hi, lo = zeta.unit_transfer_bounds(0, (0, 1))
    # incoming sums: target 0 sees both symbols, target 1 only symbol 0
    assert math.exp(hi) == pytest.approx(2 / 3)
    assert math.exp(lo) == pytest.approx(1 / 3)


def test_sup_norm_over_connector_alphabet(period2):
    zeta = geometric_potential(period2)
    states = period2.driving.state_support()
    assert _connector_bound(_lane(zeta, "float"), (0,), states) == pytest.approx(math.log(4))
    assert _connector_bound(_lane(zeta.scaled(0.5), "float"), (0, 1), states) == pytest.approx(0.5 * math.log(4))
    assert _connector_bound(_lane(zeta, "fraction"), (0,), states) == 4


def exact_product(potential, orbit, word):
    """The Fraction weight of a cylinder: the product of its symbols' exact
    weights along the orbit."""
    weight = weight_fn(potential, "fraction")
    out = Fraction(1)
    for j, e in enumerate(word):
        out *= weight(orbit.state(j), e)
    return out


def test_first_symbol_potential_has_no_distortion(cantor):
    # constant on 1-cylinders: the Birkhoff sum of every cylinder, read from
    # the float rows, is the log of its exact weight
    zeta = geometric_potential(cantor)
    orbit = DrivingOrbit(cantor.driving, 0)
    for word in ((0,), (0, 1, 1), (1, 0, 1, 0, 0)):
        hi, lo = birkhoff(zeta, orbit, 0, word), float_log(exact_product(zeta, orbit, word))
        assert hi == pytest.approx(lo, abs=1e-14)


def test_scaling_shares_tables(twoscale):
    zeta = geometric_potential(twoscale)
    half = zeta.scaled(0.5)
    assert value(half, 0, 1) == pytest.approx(0.5 * value(zeta, 0, 1))
    assert half.driving is zeta.driving


def test_zero_potential_counts(golden):
    pot = replace(zero_potential(golden.symbolic), driving=golden.driving)
    hi, lo = pot.unit_transfer_bounds(0, (0, 1))
    assert math.exp(hi) == pytest.approx(2.0)
    assert math.exp(lo) == pytest.approx(1.0)
