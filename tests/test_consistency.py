"""Seeded randomized consistency net: independent computation routes must
agree on arbitrary similarity systems, not just the curated instances."""

import math
from fractions import Fraction

import numpy as np
import pytest
from words import ratio_of

from rcgdms.driving import DrivingOrbit, deterministic, periodic
from rcgdms.gdms import sample_limit_set, similarity_system
from rcgdms.oracle import box_counting, level_histogram
from rcgdms.potentials import geometric_potential
from rcgdms.shift import full_shift
from rcgdms.spectrum import bowen_dimension, legendre_spectrum, pressure_curve
from rcgdms.thermo import _product_pressure, _spectral_pressure, check_sandwich, pressure


def _random_system(rng, n_symbols, cycle_len):
    """Full-shift similarity instance with rational ratios packed with gaps."""
    states = tuple(range(cycle_len))
    ratios, offsets = {}, {}
    for st in states:
        nums = rng.integers(5, 60, size=n_symbols)
        scale = Fraction(9, 10) / sum(Fraction(int(v), 100) for v in nums)
        row = [Fraction(int(v), 100) * scale for v in nums]
        row = [Fraction(r.numerator, r.denominator).limit_denominator(10**6) for r in row]
        gap = (1 - sum(row)) / (n_symbols + 1)
        acc = gap
        ratios[st] = {}
        offsets[st] = {}
        for e, r in enumerate(row):
            ratios[st][e] = r
            offsets[st][e] = float(acc)
            acc += r + gap
    driving = deterministic(0) if cycle_len == 1 else periodic(states)
    return similarity_system(full_shift(range(n_symbols)), driving, ratios, offsets)


@pytest.mark.parametrize("seed", [11, 23, 47])
@pytest.mark.parametrize("n_symbols,cycle_len", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_exact_pressure_routes_agree(seed, n_symbols, cycle_len):
    rng = np.random.default_rng(seed)
    system = _random_system(rng, n_symbols, cycle_len)
    zeta = geometric_potential(system)
    symbols = tuple(range(n_symbols))
    for s in (-0.5, 0.0, 0.7, 1.3):
        product = _product_pressure(symbols, zeta, s)
        spectral = _spectral_pressure(symbols, zeta.scaled(s), zeta.driving.states)
        assert product == pytest.approx(spectral.value, abs=1e-10)


@pytest.mark.parametrize("seed", [5, 17])
def test_bowen_root_against_direct_moment_equation(seed):
    # deterministic full shifts: the pressure root solves sum_e r_e^s = 1,
    # solvable independently by bisection on the plain moment sum
    rng = np.random.default_rng(seed)
    system = _random_system(rng, 3, 1)
    zeta = geometric_potential(system)

    def evaluate(s):
        return pressure(None, zeta.scaled(s)).value

    ratios = [float(ratio_of(system, e, 0)) for e in range(3)]
    exponents = (-math.log(max(ratios)), -math.log(min(ratios)))
    curve = pressure_curve(evaluate, np.linspace(-2, 6, 33), exponents)
    s_star = bowen_dimension(curve.evaluator, curve.s_infinity)

    def moment(s):
        return sum(r ** s for r in ratios) - 1.0

    lo, hi = 0.0, 4.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if moment(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert s_star == pytest.approx(0.5 * (lo + hi), abs=1e-8)
    assert abs(curve.evaluator(s_star)) <= 1e-8


@pytest.mark.parametrize("seed", [3, 9, 31])
def test_sandwich_holds_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    system = _random_system(rng, 3, 2)
    zeta = geometric_potential(system)
    orbit = DrivingOrbit(system.driving, 0)
    for s in (0.4, 1.0):
        report = check_sandwich((0, 1, 2), zeta.scaled(s), orbit, 0, 3)
        assert report.worst >= -1e-12, report.inequalities


@pytest.mark.parametrize("seed", [7, 29])
def test_box_counting_bounded_by_root(seed):
    rng = np.random.default_rng(seed)
    system = _random_system(rng, 2, 1)
    zeta = geometric_potential(system)

    def evaluate(s):
        return pressure(None, zeta.scaled(s)).value

    s_star = bowen_dimension(evaluate, -math.inf)
    orbit = DrivingOrbit(system.driving, 0)
    # scale span adapts to the drawn contraction so it covers a decade, and
    # the sample truncation sits below the smallest scale
    span = max(6, math.ceil(math.log(12.0) / -math.log(system.contraction)))
    scales = [system.contraction ** j for j in range(2, 2 + span)]
    sample = sample_limit_set(system, orbit, depth=2 + span + 3)
    est = box_counting(sample, scales)
    assert est.dimension <= s_star + 0.05


def test_twoscale_spectrum_matches_entropy_formula(twoscale):
    # closed-form oracle across the whole admissible interval: the level set
    # at exponent log2*(1+q) has dimension H(q)/beta for digit frequency q
    zeta = geometric_potential(twoscale)

    def evaluate(s):
        return pressure(None, zeta.scaled(s)).value

    curve = pressure_curve(evaluate, np.linspace(-4, 8, 49), (math.log(2), math.log(4)))
    worst = 0.0
    for q in np.linspace(0.02, 0.98, 25):
        beta = math.log(2) * (1 + q)
        entropy = -q * math.log(q) - (1 - q) * math.log(1 - q)
        value = float(legendre_spectrum(curve, [beta]).values[0])
        worst = max(worst, abs(value - entropy / beta))
    assert worst <= 1e-9


def test_period2_degenerate_spectrum(period2):
    # alternating uniform fibers: every word shares one exponent, and the
    # spectrum collapses onto the root value there
    orbit = DrivingOrbit(period2.driving, 0)
    hist = level_histogram(period2, orbit, (0, 1), n=12)
    assert (hist.counts > 0).sum() == 1
    assert hist.exponent_min == pytest.approx(1.5 * math.log(2), abs=1e-12)
    zeta = geometric_potential(period2)

    def evaluate(s):
        return pressure(None, zeta.scaled(s)).value

    curve = pressure_curve(evaluate, np.linspace(-1, 3, 17), (1.5 * math.log(2), 1.5 * math.log(2)))
    value = float(legendre_spectrum(curve, [1.5 * math.log(2)]).values[0])
    assert value == pytest.approx(2 / 3, abs=1e-9)


def test_period2_box_dimension_near_root(period2):
    orbit = DrivingOrbit(period2.driving, 0)
    sample = sample_limit_set(period2, orbit, depth=14)
    est = box_counting(sample, [2.0 ** -j for j in range(3, 10)])
    assert 0.60 <= est.dimension <= 0.75  # alternating scales step unevenly
