import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgdms import cli
from rcgdms.config import load_config
from rcgdms.driving import deterministic, periodic
from rcgdms.gdms import similarity_system
from rcgdms.potentials import geometric_potential, s_infinity
from rcgdms.shift import GeometricTail, from_matrix, full_shift
from rcgdms.spectrum import (
    _transform_at,
    bowen_dimension,
    legendre_spectrum,
    lower_convex_hull,
    pressure_curve,
    tq_analysis,
)
from rcgdms.thermo import pressure

LOG2, LOG3, LOG4, LOG8 = math.log(2.0), math.log(3.0), math.log(4.0), math.log(8.0)
GOLDEN_RATIO_ROOT = math.log2((1 + math.sqrt(5)) / 2)


def _exact_curve(system, s_grid, hull, s_inf=-math.inf):
    zeta = geometric_potential(system)

    def evaluate(s):
        return pressure(None, zeta.scaled(s)).value

    return pressure_curve(evaluate, s_grid, hull, s_infinity=s_inf)


@pytest.fixture(scope="module")
def cantor_curve(cantor):
    return _exact_curve(cantor, np.linspace(-2, 6, 33), (LOG3, LOG3))


@pytest.fixture(scope="module")
def twoscale_curve(twoscale):
    return _exact_curve(twoscale, np.linspace(-4, 8, 49), (LOG2, LOG4))


def test_cantor_curve_affine(cantor_curve):
    s = cantor_curve.s_grid
    assert np.allclose(cantor_curve.values, LOG2 - s * LOG3, atol=1e-12)
    slopes = np.diff(cantor_curve.values) / np.diff(s)
    assert np.allclose(slopes, -LOG3, atol=1e-10)
    assert cantor_curve.repair_correction <= 1e-12


def test_twoscale_curve_values(twoscale_curve):
    assert twoscale_curve.evaluator(0.0) == pytest.approx(LOG2, abs=1e-12)
    assert twoscale_curve.evaluator(1.0) == pytest.approx(math.log(0.75), abs=1e-12)


def test_convex_hull_repair_flattens_noise():
    xs = np.linspace(0, 1, 11)
    ys = xs ** 2
    noisy = ys.copy()
    noisy[5] += 0.1  # convexity-breaking bump
    repaired = lower_convex_hull(xs, noisy)
    second = np.diff(repaired, 2)
    assert (second >= -1e-12).all()
    assert repaired[5] < noisy[5]


def test_bowen_roots(cantor_curve, twoscale_curve, period2):
    assert bowen_dimension(cantor_curve.evaluator, cantor_curve.s_infinity) == pytest.approx(LOG2 / LOG3, abs=1e-6)
    assert bowen_dimension(twoscale_curve.evaluator, twoscale_curve.s_infinity) == pytest.approx(GOLDEN_RATIO_ROOT, abs=1e-6)
    curve = _exact_curve(period2, np.linspace(-1, 3, 17), (1.5 * LOG2, 1.5 * LOG2))
    assert bowen_dimension(curve.evaluator, curve.s_infinity) == pytest.approx(2 / 3, abs=1e-6)


def test_bowen_root_pressure_residual(twoscale_curve):
    s_star = bowen_dimension(twoscale_curve.evaluator, twoscale_curve.s_infinity)
    assert abs(twoscale_curve.evaluator(s_star)) <= 1e-8


def test_bowen_zero_when_pressure_nonpositive(twoscale):
    zeta = geometric_potential(twoscale)

    def shifted(s):
        return pressure(None, zeta.scaled(s)).value - 2.0

    curve = pressure_curve(shifted, np.linspace(0, 4, 9), (LOG2, LOG4))
    assert bowen_dimension(curve.evaluator, curve.s_infinity) == 0.0


def test_paper_pressure_below_minus_log2(paper):
    zeta = geometric_potential(paper)

    def evaluate(s):
        return pressure(None, zeta.scaled(s)).value if s > 0 else math.inf

    curve = pressure_curve(evaluate, np.linspace(0.05, 1.5, 30), (2 * LOG2, math.inf), s_infinity=0.0)
    assert curve.evaluator(1.0) <= -LOG2
    s_star = bowen_dimension(curve.evaluator, curve.s_infinity)
    assert 0.0 < s_star < 1.0


def test_cofinite_regularity_cases(cantor, pure_tail, paper):
    # regularity is the tail's declaration; a finite alphabet has no tail and
    # the threshold -inf
    assert geometric_potential(cantor).tail is None and s_infinity(geometric_potential(cantor)) == -math.inf
    for system in (pure_tail, paper):
        zeta = geometric_potential(system)
        assert zeta.tail.cofinitely_regular
    assert abs(s_infinity(geometric_potential(paper))) <= 1e-6
    # edges 0 and 1 of ratios 1/4 and 1/8, then 8^-e from edge 3: the pressure
    # log(4^-s + 8^-s + q^3 / (1 - q)), q = 8^-s, is +inf at the threshold 0
    tailed = similarity_system(
        full_shift((0, 1), tail=GeometricTail(ratio=0.125, start=3)),
        deterministic(0),
        {0: {0: Fraction(1, 4), 1: Fraction(1, 8)}},
        {0: {0: 0.0, 1: 0.5}},
    )
    zeta = geometric_potential(tailed)
    assert zeta.tail.cofinitely_regular
    assert abs(s_infinity(zeta)) <= 1e-6
    # and p grows like -log s towards it
    assert pressure(None, zeta.scaled(1e-9)).value > pressure(None, zeta.scaled(1e-6)).value + 6.0


def test_legendre_twoscale_interior(twoscale_curve):
    result = legendre_spectrum(twoscale_curve, [1.5 * LOG2])
    assert result.values[0] == pytest.approx(2 / 3, abs=1e-9)


def test_legendre_cantor_degenerate(cantor_curve):
    result = legendre_spectrum(cantor_curve, [LOG3])
    assert result.values[0] == pytest.approx(LOG2 / LOG3, abs=1e-9)


def test_legendre_endpoint_limit(twoscale_curve):
    # at the exact lower endpoint the transform value collapses to zero
    betas = np.linspace(LOG2, LOG4, 33)
    result = legendre_spectrum(twoscale_curve, betas)
    assert result.flags[0] == "endpoint"
    assert result.values[0] <= 1e-6
    assert result.flags[-1] == "endpoint"
    interior = [f == "interior" for f in result.flags]
    assert sum(interior) >= len(betas) - 4


def test_legendre_clipping_flags(twoscale_curve):
    result = legendre_spectrum(twoscale_curve, [0.5 * LOG2, 3 * LOG2])
    assert result.flags == ("clipped", "clipped")
    assert np.isnan(result.values).all()  # empty level sets carry no dimension


def test_legendre_rejects_nonpositive_beta(twoscale_curve):
    with pytest.raises(ValueError):
        legendre_spectrum(twoscale_curve, [-0.1, 0.5])


def test_spectrum_values_decrease_toward_endpoint(twoscale_curve):
    deltas = [0.05, 0.02, 0.01, 0.005, 0.002]
    values = [legendre_spectrum(twoscale_curve, [LOG2 + d]).values[0] for d in deltas]
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
    # independent entropy oracle: frequency q pinned by the exponent
    for d, v in zip(deltas, values):
        q = d / LOG2
        entropy = -q * math.log(q) - (1 - q) * math.log(1 - q)
        assert v == pytest.approx(entropy / (LOG2 + d), abs=1e-6)


def test_max_spectrum_equals_bowen(twoscale_curve):
    s_star = bowen_dimension(twoscale_curve.evaluator, twoscale_curve.s_infinity)
    betas = np.linspace(LOG2 + 1e-4, LOG4 - 1e-4, 401)
    result = legendre_spectrum(twoscale_curve, betas)
    assert result.max_value == pytest.approx(s_star, abs=2e-3)


def test_transform_concave_in_beta(twoscale_curve):
    betas = np.linspace(LOG2 + 0.05, LOG4 - 0.05, 41)
    result = legendre_spectrum(twoscale_curve, betas)
    transform = result.betas * result.values  # inf_s(beta s + p(s)) is concave
    second = np.diff(transform, 2)
    assert (second <= 1e-9).all()


def test_tq_cantor_closed_form(cantor_curve):
    tq = tq_analysis(cantor_curve, np.linspace(-2, 2, 9), symbol_count=2)
    for q in (-1.5, 0.0, 0.5, 1.0, 2.0):
        assert tq.t_at(q) == pytest.approx((1 - q) * LOG2 / LOG3, abs=1e-9)


def test_tq_endpoints(twoscale_curve):
    tq = tq_analysis(twoscale_curve, np.linspace(-2, 2, 9), symbol_count=2)
    assert abs(tq.t_at(1.0)) <= 1e-8
    assert tq.t_at(0.0) == pytest.approx(GOLDEN_RATIO_ROOT, abs=1e-6)


def test_tq_slope_negative(twoscale_curve):
    tq = tq_analysis(twoscale_curve, np.linspace(-2, 2, 17), symbol_count=2)
    h = 1e-5
    for q in (-1.0, 0.0, 1.0):
        slope = (tq.t_at(q + h) - tq.t_at(q - h)) / (2 * h)
        assert slope < 0
        # implicit-function identity: slope == p(0) / p'(T(q))
        t = tq.t_at(q)
        p_slope = (twoscale_curve.evaluator(t + h) - twoscale_curve.evaluator(t - h)) / (2 * h)
        assert slope == pytest.approx(tq.p_zero / p_slope, rel=1e-3)


def test_tq_requires_two_symbols(cantor_curve):
    with pytest.raises(ValueError):
        tq_analysis(cantor_curve, [0.0, 1.0], symbol_count=1)


def test_two_transform_routes_agree(twoscale_curve):
    tq = tq_analysis(twoscale_curve, np.linspace(-2, 2, 9), symbol_count=2)
    betas = np.linspace(LOG2 + 0.08, LOG4 - 0.08, 10)
    direct = legendre_spectrum(twoscale_curve, betas)
    for beta, l_direct in zip(betas, direct.values):
        via_t = tq.transform(tq.p_zero / beta)
        assert via_t == pytest.approx(l_direct, abs=1e-6)


def _moran_root(ratios):
    """Root of sum r^s = 1, by bisection to the float resolution."""
    lo, hi = 0.0, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(r ** mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.05, 0.6, exclude_min=True, exclude_max=True), min_size=2, max_size=4)
    .filter(lambda rs: max(rs) - min(rs) > 1e-3),
    st.floats(-2.0, 4.0),
)
def test_slope_root_matches_similarity_closed_forms(ratios, s):
    """On a full-shift similarity system p(s) = log sum r^s, so beta = -p'(s)
    has the transform value s + p(s)/beta and the Bowen root is Moran's."""
    symbols = tuple(range(len(ratios)))
    system = similarity_system(
        full_shift(symbols),
        deterministic(0),
        {0: {e: Fraction(r) for e, r in zip(symbols, ratios)}},
        {0: {e: e / len(symbols) for e in symbols}},
    )
    logs = [math.log(Fraction(r)) for r in ratios]
    curve = _exact_curve(system, np.linspace(-3, 5, 17), (-max(logs), -min(logs)))
    weights = [math.exp(s * v) for v in logs]
    p = math.log(sum(weights))
    beta = -sum(w * v for w, v in zip(weights, logs)) / sum(weights)
    result = legendre_spectrum(curve, [beta])
    assert result.flags == ("interior",)
    assert abs(result.values[0] - (s + p / beta)) <= 1e-10
    assert abs(bowen_dimension(curve.evaluator, curve.s_infinity) - _moran_root([float(Fraction(r)) for r in ratios])) <= 1e-10


@pytest.mark.parametrize("beta", [2.5, 5.0, 20.0, 200.0])
def test_slope_root_clamped_at_threshold(pure_tail, beta):
    """p(s) = -s log 8 - log(1 - 8^-s) on (0, inf), so p'(s) = -beta at
    x = 8^-s = 1 - log 8/beta.  The minimiser sits at s = 0.86, 0.26, 0.053
    and 0.005: inside the grid, one step left of it, and (beta = 20, 200)
    where the bracket walk is clamped at the summability threshold."""
    curve = _exact_curve(pure_tail, np.linspace(0.5, 3.0, 11), (LOG8, math.inf), s_inf=0.0)
    x = 1.0 - LOG8 / beta
    s = -math.log(x) / LOG8
    want = s + (-s * LOG8 - math.log(1.0 - x)) / beta
    result = legendre_spectrum(curve, [beta])
    assert abs(result.values[0] - want) <= 1e-14


def test_analytic_slope_keeps_the_spectrum():
    """A 3-symbol non-full system under period-3 driving is on the spectral
    route; its analytic slope and the central difference give the same
    interior transform values."""
    symbols = (0, 1, 2)
    ratios = {
        0: (Fraction(1, 2), Fraction(1, 5), Fraction(1, 3)),
        1: (Fraction(1, 4),) * 3,
        2: (Fraction(2, 5), Fraction(1, 7), Fraction(1, 3)),
    }
    system = similarity_system(
        from_matrix(symbols, [[1, 1, 0], [0, 1, 1], [1, 1, 1]]),
        periodic((0, 1, 2)),
        {st: dict(zip(symbols, rs)) for st, rs in ratios.items()},
        {st: {e: e / 3 for e in symbols} for st in ratios},
    )
    zeta = geometric_potential(system)

    def estimate(s, slope=False):
        return pressure(symbols, zeta.scaled(s), slope=slope)

    assert estimate(1.0, slope=True).slope is not None
    # the ratio table's extremes 1/2 and 1/7
    plain = pressure_curve(lambda s: estimate(s).value, np.linspace(-3, 5, 17), (LOG2, math.log(7.0)))
    analytic = replace(plain, slope=lambda s: estimate(s, slope=True).slope)
    # -p' at the grid ends: inside the true exponent interval, where the
    # transform's root is a scale on the grid
    betas = np.linspace(-estimate(5.0, slope=True).slope, -estimate(-3.0, slope=True).slope, 12)
    want, got = legendre_spectrum(plain, betas), legendre_spectrum(analytic, betas)
    assert got.flags == want.flags == ("interior",) * 12
    assert np.allclose(got.values, want.values, rtol=0.0, atol=1e-10)


def test_slope_falls_back_where_the_weights_underflow():
    """On custom-example the spectral route's weights underflow below
    s ~ -1000 (the pressure reads -inf at -1100).  There no slope is
    certified, and a slope root that walks there past the exponent range
    ends on the central difference, as without the analytic slope."""
    run = load_config(Path(__file__).resolve().parents[1] / "configs" / "custom-example.json")
    zeta = run.potential
    est = pressure((0, 1), zeta.scaled(-1100.0), slope=True)
    assert est.method == "exact-spectral" and est.slope is None
    curve = cli._curve(run)
    assert curve.slope is not None
    for beta in (1.3, 1.5):
        assert _transform_at(curve, beta) == _transform_at(replace(curve, slope=None), beta)


def test_rung_monotonicity_P1(paper):
    from rcgdms.shift import PrimitivityWitness, build_ladder
    from rcgdms.thermo import pressure_compact_approx

    zeta = geometric_potential(paper)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64, 256, 1024), witness)
    for s in (0.25, 0.5, 1.0):
        approx = pressure_compact_approx(ladder, zeta.scaled(s))
        values = approx.rung_values
        assert all(values[i + 1] >= values[i] - 1e-9 for i in range(len(values) - 1))


def test_strict_decrease_P3(twoscale_curve, cantor_curve):
    for curve in (twoscale_curve, cantor_curve):
        finite = np.isfinite(curve.values)
        diffs = np.diff(curve.values[finite])
        assert (diffs < 0).all()


def test_smoothness_proxy_P5(twoscale_curve):
    second = np.diff(twoscale_curve.values, 2)
    assert (second >= -1e-9).all()
    # second differences vary continuously across the grid
    assert np.max(np.abs(np.diff(second))) < 0.05


def test_slope_bound_by_contraction(twoscale, twoscale_curve):
    # pressure drops at least as fast as log(contraction) per unit scale
    log_kappa = math.log(twoscale.contraction)
    s, v = twoscale_curve.s_grid, twoscale_curve.values
    slopes = np.diff(v) / np.diff(s)
    assert (slopes <= log_kappa + 1e-12).all()


def test_per_rung_spectra_increase(paper):
    # transform values over ascending finite subalphabets converge upward
    from rcgdms.shift import PrimitivityWitness, build_ladder

    zeta = geometric_potential(paper)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64), witness)
    beta = 3.0
    values = []
    for rung in ladder:
        def ev(s, rung=rung):
            return pressure(rung, zeta.scaled(s)).value

        rows = np.array([zeta.log_weights(st, rung) for st in paper.driving.state_support()])
        curve = pressure_curve(ev, np.linspace(-1.0, 2.5, 29), (-rows.max(), -rows.min()))
        values.append(legendre_spectrum(curve, [beta]).values[0])
    assert all(values[i + 1] >= values[i] - 1e-9 for i in range(len(values) - 1))

    def ev_full(s):
        return pressure(None, zeta.scaled(s)).value if s > 0 else math.inf

    full_curve = pressure_curve(ev_full, np.linspace(0.05, 2.5, 30), (2 * LOG2, math.inf), s_infinity=0.0)
    full_value = legendre_spectrum(full_curve, [beta]).values[0]
    assert values[-1] <= full_value + 1e-9
