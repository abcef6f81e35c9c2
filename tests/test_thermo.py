import math
from dataclasses import replace

import numpy as np
import pytest

from rcgdms.driving import orbit_family, sample_orbit
from rcgdms.gibbs import conformal_measures
from rcgdms.potentials import geometric_potential, zero_potential
from rcgdms.shift import build_ladder, count_words, find_primitivity, from_matrix
from rcgdms.thermo import (
    check_gibbs,
    check_sandwich,
    partition_sums,
    pressure,
    pressure_compact_approx,
)

LOG2, LOG3 = math.log(2.0), math.log(3.0)


def _zero(system):
    return replace(zero_potential(system.symbolic), driving=system.driving)


# ---------------------------------------------------------------------------
# partition sums
# ---------------------------------------------------------------------------


def test_cantor_anchored_sum(cantor):
    zeta = geometric_potential(cantor)
    orbit = sample_orbit(cantor.driving, 0)
    ps = partition_sums(cantor.symbolic, (0, 1), zeta, orbit, 0, 2)
    assert math.exp(ps.log_anchored_sup) == pytest.approx(2 / 9, abs=1e-15)


def test_cantor_operator_iterate(cantor):
    zeta = geometric_potential(cantor)
    orbit = sample_orbit(cantor.driving, 0)
    ps = partition_sums(cantor.symbolic, (0, 1), zeta, orbit, 0, 1)
    assert math.exp(ps.log_operator) == pytest.approx(1 / 3, abs=1e-15)


def test_cantor_counting_sum(cantor):
    orbit = sample_orbit(cantor.driving, 0)
    ps = partition_sums(cantor.symbolic, (0, 1), _zero(cantor), orbit, 0, 3)
    assert math.exp(ps.log_all) == pytest.approx(8.0)


def test_partition_sums_empty_set_is_zero():
    from rcgdms.driving import deterministic
    from rcgdms.shift import PrimitivityWitness

    sym = from_matrix((0, 1), [[0, 1], [1, 0]])  # strictly alternating symbols
    pot = replace(zero_potential(sym), driving=deterministic(0))
    orbit = sample_orbit(pot.driving, 0)
    witness = PrimitivityWitness(order=2, connectors=((0, 1), (1, 0)))
    ps = partition_sums(sym, (0, 1), pot, orbit, 0, 2, witness=witness)
    # the only length-2 word starting at 0, (0,1), admissibly precedes 0 again
    assert math.exp(ps.log_anchored_sup) == pytest.approx(1.0)
    # odd lengths cannot return: the anchored sums vanish
    ps3 = partition_sums(sym, (0, 1), pot, orbit, 0, 3, witness=witness)
    assert ps3.log_anchored_sup == -math.inf


# ---------------------------------------------------------------------------
# sandwich chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", [2, 4])
def test_sandwich_float_path(period2, depth):
    zeta = geometric_potential(period2)
    orbit = sample_orbit(period2.driving, 0)
    report = check_sandwich(period2.symbolic, (0, 1), zeta, orbit, 0, depth)
    assert report.ok, report.inequalities


def test_sandwich_counting_chain(golden):
    orbit = sample_orbit(golden.driving, 0)
    report = check_sandwich(golden.symbolic, (0, 1), _zero(golden), orbit, 0, 4, arithmetic="fraction")
    assert report.ok
    assert report.worst >= 0.0


# ---------------------------------------------------------------------------
# pressure: exact routes
# ---------------------------------------------------------------------------


def test_cantor_pressure_affine(cantor):
    zeta = geometric_potential(cantor)
    for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
        est = pressure(cantor.symbolic, None, zeta.scaled(s))
        assert est.method == "exact-product"
        assert est.value == pytest.approx(LOG2 - s * LOG3, abs=1e-13)


def test_period2_pressure(period2):
    zeta = geometric_potential(period2)
    for s in (0.0, 0.5, 1.0):
        est = pressure(period2.symbolic, None, zeta.scaled(s))
        assert est.value == pytest.approx(LOG2 - 1.5 * s * LOG2, abs=1e-13)


def test_twoscale_pressure(twoscale):
    zeta = geometric_potential(twoscale)
    assert pressure(twoscale.symbolic, None, zeta.scaled(0.0)).value == pytest.approx(LOG2)
    assert pressure(twoscale.symbolic, None, zeta.scaled(1.0)).value == pytest.approx(math.log(0.75))


def test_golden_mean_entropy_spectral_vs_counting(golden):
    pot = _zero(golden)
    est = pressure(golden.symbolic, (0, 1), pot)
    assert est.method == "exact-spectral"
    # independent combinatorial oracle: two-point extrapolation of word counts
    n1, n2 = 16, 20
    v1 = math.log(count_words(golden.symbolic, (0, 1), n1)) / n1
    v2 = math.log(count_words(golden.symbolic, (0, 1), n2)) / n2
    extrapolated = (n2 * v2 - n1 * v1) / (n2 - n1)
    assert est.value == pytest.approx(extrapolated, abs=1e-6)
    assert est.value == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [1, 0]],
        [[1, 1, 1], [1, 1, 0], [1, 0, 0]],
        [[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]],
    ],
)
def test_zero_potential_pressure_is_log_spectral_radius(rows):
    from rcgdms.driving import deterministic

    m = len(rows)
    sym = from_matrix(range(m), rows)
    pot = replace(zero_potential(sym), driving=deterministic(0))
    est = pressure(sym, tuple(range(m)), pot)
    rho = max(abs(np.linalg.eigvals(np.array(rows, dtype=float))))
    assert est.value == pytest.approx(math.log(rho), abs=1e-10)


def test_monte_carlo_route_agrees_with_product(paper):
    zeta = geometric_potential(paper).scaled(1.0)
    symbols = (1, 2)
    exact = pressure(paper.symbolic, symbols, zeta, method="exact-product").value
    orbits = orbit_family(paper.driving, count=24, root_seed=2)
    mc = pressure(
        paper.symbolic, symbols, zeta, orbits=orbits, depths=(6, 8, 10, 12), method="monte-carlo"
    )
    assert mc.method == "monte-carlo"
    tol = max(4 * mc.spread / math.sqrt(len(orbits)), 3e-3)
    assert mc.value == pytest.approx(exact, abs=tol)


# ---------------------------------------------------------------------------
# approximant agreement and compact approximation
# ---------------------------------------------------------------------------


def _approximant_slopes(system, potential, orbit, depths):
    out = {"anchored_sup": [], "return": [], "operator": [], "all": []}
    anchor = min(system.symbolic.edges)
    for n in depths:
        ps = partition_sums(system.symbolic, system.symbolic.edges, potential, orbit, anchor, n)
        out["anchored_sup"].append(ps.log_anchored_sup / n)
        out["return"].append(ps.log_return / n)
        out["operator"].append(ps.log_operator / n)
        out["all"].append(ps.log_all / n)
    return out


def _extrapolate(depths, values):
    x = np.array([1.0 / n for n in depths[-3:]])
    y = np.array(values[-3:])
    return float(np.polyfit(x, y, 1)[1])


@pytest.mark.parametrize("sname,s", [("cantor", 1.0), ("twoscale", 1.0), ("period2", 1.0), ("golden", 0.0)])
def test_approximants_share_one_limit(request, sname, s):
    system = request.getfixturevalue(sname)
    pot = geometric_potential(system).scaled(s) if s else _zero(system)
    orbit = sample_orbit(system.driving, 0)
    # same-parity depths: periodic driving makes the 1/n coefficient
    # parity-dependent, and extrapolation needs it constant
    depths = [4, 6, 8, 10]
    slopes = _approximant_slopes(system, pot, orbit, depths)
    exact = pressure(
        system.symbolic,
        tuple(system.symbolic.edges),
        pot,
    ).value
    for kind, values in slopes.items():
        assert _extrapolate(depths, values) == pytest.approx(exact, abs=1e-3), kind
    # pairwise agreement at finite depth is O(1/n)
    for i, n in enumerate(depths):
        spread = max(slopes[k][i] for k in slopes) - min(slopes[k][i] for k in slopes)
        assert spread <= 8.0 / n


def test_compact_approximation_single_rung_is_exact(cantor):
    zeta = geometric_potential(cantor).scaled(1.0)
    witness = find_primitivity(cantor.symbolic, (0, 1), 2)
    ladder = build_ladder(cantor.symbolic, (2,), witness)
    approx = pressure_compact_approx(cantor.symbolic, ladder, zeta)
    assert approx.rung_values[0] == pytest.approx(LOG2 - LOG3, abs=1e-13)
    assert approx.limit == pytest.approx(LOG2 - LOG3, abs=1e-13)
    assert approx.monotone


def test_compact_approximation_paper_at_one(paper):
    from rcgdms.shift import PrimitivityWitness

    zeta = geometric_potential(paper).scaled(1.0)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64, 256, 1024), witness)
    approx = pressure_compact_approx(paper.symbolic, ladder, zeta)
    assert approx.monotone
    assert all(v <= -LOG2 + 1e-12 for v in approx.rung_values)
    assert approx.anchor is not None and approx.anchor <= -LOG2
    assert approx.limit == approx.anchor


def test_compact_approximation_divergent_below_threshold(paper):
    from rcgdms.shift import PrimitivityWitness

    zeta = geometric_potential(paper).scaled(-0.5)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64), witness)
    approx = pressure_compact_approx(paper.symbolic, ladder, zeta)
    assert approx.limit == math.inf


def test_compact_finite_while_ru_moment_diverges(paper):
    from rcgdms.gdms import BlockTailExample
    from rcgdms.shift import PrimitivityWitness

    zeta = geometric_potential(paper).scaled(0.5)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64, 256), witness)
    approx = pressure_compact_approx(paper.symbolic, ladder, zeta)
    assert math.isfinite(approx.limit)
    _, divergent = BlockTailExample(1024).ru_moment(0.5)
    assert divergent


# ---------------------------------------------------------------------------
# pointwise pressure identity and Gibbs bracket
# ---------------------------------------------------------------------------


def test_pointwise_pressure_identity(period2):
    zeta = geometric_potential(period2).scaled(1.0)
    orbit = sample_orbit(period2.driving, 0)
    _, eigens = conformal_measures(
        period2.symbolic, (0, 1), zeta, orbit, depth=2, horizon=30
    )
    for n in range(1, 31):
        lam_route = eigens.partial_sum(n) / n
        direct = (
            math.fsum(
                zeta.unit_transfer_bounds(orbit.state(i), None)[0] for i in range(n)
            )
            / n
        )
        assert lam_route == pytest.approx(direct, abs=1e-9)
    # at enumerable depth the product identity matches brute-force sums
    for n in range(1, 11):
        ps = partition_sums(period2.symbolic, (0, 1), zeta, orbit, 0, n)
        direct = math.fsum(zeta.unit_transfer_bounds(orbit.state(i), None)[0] for i in range(n))
        assert ps.log_all == pytest.approx(direct, abs=1e-12)


def test_gibbs_bracket_period2(period2):
    zeta = geometric_potential(period2).scaled(1.0)
    orbit = sample_orbit(period2.driving, 0)
    measures, eigens = conformal_measures(period2.symbolic, (0, 1), zeta, orbit, depth=6)
    report = check_gibbs(
        period2.symbolic, (0, 1), zeta, orbit, measures, eigens.log_values, depth=6
    )
    assert report.ok
    assert report.worst_ratio_deviation <= 1e-12  # product measures are exactly Gibbs


def test_gibbs_bracket_zero_potential(twoscale):
    pot = _zero(twoscale)
    orbit = sample_orbit(twoscale.driving, 0)
    measures, eigens = conformal_measures(twoscale.symbolic, (0, 1), pot, orbit, depth=5)
    for d, level in enumerate(measures[0].levels, 1):
        assert level.tolist() == pytest.approx([2.0 ** -d] * 2 ** d)
    report = check_gibbs(
        twoscale.symbolic, (0, 1), pot, orbit, measures, eigens.log_values, depth=5
    )
    assert report.ok
