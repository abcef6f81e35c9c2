import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from words import zero_potential

import rcgdms.thermo as thermo
from rcgdms import driving, instances
from rcgdms.driving import DrivingOrbit, bernoulli, deterministic, orbit_family, periodic
from rcgdms.gdms import similarity_system
from rcgdms.gibbs import conformal_measures
from rcgdms.potentials import geometric_potential, table_potential
from rcgdms.shift import build_ladder, count_words, find_primitivity, from_matrix
from rcgdms.thermo import (
    _mc_pressure,
    _product_pressure,
    _route,
    check_gibbs,
    check_sandwich,
    partition_sums,
    pressure,
    pressure_compact_approx,
    pressures,
    primitivity_witness,
)

LOG2, LOG3 = math.log(2.0), math.log(3.0)


def _zero(system):
    return replace(zero_potential(system.symbolic), driving=system.driving)


# ---------------------------------------------------------------------------
# partition sums
# ---------------------------------------------------------------------------


def test_cantor_anchored_sum(cantor):
    zeta = geometric_potential(cantor)
    orbit = DrivingOrbit(cantor.driving, 0)
    ps = partition_sums((0, 1), zeta, orbit, 0, 2)
    assert math.exp(ps.log_anchored_sup) == pytest.approx(2 / 9, abs=1e-15)


def test_cantor_operator_iterate(cantor):
    zeta = geometric_potential(cantor)
    orbit = DrivingOrbit(cantor.driving, 0)
    ps = partition_sums((0, 1), zeta, orbit, 0, 1)
    assert math.exp(ps.log_operator) == pytest.approx(1 / 3, abs=1e-15)


def test_cantor_counting_sum(cantor):
    orbit = DrivingOrbit(cantor.driving, 0)
    ps = partition_sums((0, 1), _zero(cantor), orbit, 0, 3)
    assert math.exp(ps.log_all) == pytest.approx(8.0)


def test_partition_sums_empty_set_is_zero():
    from rcgdms.driving import DrivingOrbit, deterministic

    sym = from_matrix((0, 1), [[0, 1], [1, 0]])  # strictly alternating symbols
    pot = replace(zero_potential(sym), driving=deterministic(0))
    orbit = DrivingOrbit(pot.driving, 0)
    ps = partition_sums((0, 1), pot, orbit, 0, 2)
    # the only length-2 word starting at 0, (0,1), admissibly precedes 0 again
    assert math.exp(ps.log_anchored_sup) == pytest.approx(1.0)
    # odd lengths cannot return: the anchored sums vanish
    ps3 = partition_sums((0, 1), pot, orbit, 0, 3)
    assert ps3.log_anchored_sup == -math.inf


# ---------------------------------------------------------------------------
# sandwich chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", [2, 4])
def test_sandwich_float_path(period2, depth):
    zeta = geometric_potential(period2)
    orbit = DrivingOrbit(period2.driving, 0)
    report = check_sandwich((0, 1), zeta, orbit, 0, depth)
    assert report.ok, report.inequalities


def test_sandwich_counting_chain(golden):
    orbit = DrivingOrbit(golden.driving, 0)
    report = check_sandwich((0, 1), _zero(golden), orbit, 0, 4, arithmetic="fraction")
    assert report.ok
    assert report.worst >= 0.0


# ---------------------------------------------------------------------------
# pressure: exact routes
# ---------------------------------------------------------------------------


def test_cantor_pressure_affine(cantor):
    zeta = geometric_potential(cantor)
    for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
        est = pressure(None, zeta.scaled(s))
        assert est.method == "exact-product"
        assert est.value == pytest.approx(LOG2 - s * LOG3, abs=1e-13)


def test_period2_pressure(period2):
    zeta = geometric_potential(period2)
    for s in (0.0, 0.5, 1.0):
        est = pressure(None, zeta.scaled(s))
        assert est.value == pytest.approx(LOG2 - 1.5 * s * LOG2, abs=1e-13)


def test_twoscale_pressure(twoscale):
    zeta = geometric_potential(twoscale)
    assert pressure(None, zeta.scaled(0.0)).value == pytest.approx(LOG2)
    assert pressure(None, zeta.scaled(1.0)).value == pytest.approx(math.log(0.75))


def test_golden_mean_entropy_spectral_vs_counting(golden):
    pot = _zero(golden)
    est = pressure((0, 1), pot)
    assert est.method == "exact-spectral"
    # independent combinatorial oracle: two-point extrapolation of word counts
    n1, n2 = 16, 20
    v1 = math.log(count_words(golden.symbolic, (0, 1), n1)) / n1
    v2 = math.log(count_words(golden.symbolic, (0, 1), n2)) / n2
    extrapolated = (n2 * v2 - n1 * v1) / (n2 - n1)
    assert est.value == pytest.approx(extrapolated, abs=1e-6)
    assert est.value == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)


def test_every_route_returns_a_python_float(cantor, golden):
    zeta = geometric_potential(golden)
    for est, route in (
        (pressure(None, geometric_potential(cantor)), "exact-product"),
        (pressure((0, 1), zeta), "exact-spectral"),
        (_mc_pressure((0, 1), zeta, orbit_family(golden.driving, 16, 0)), "monte-carlo"),
    ):
        assert est.method == route and type(est.value) is float, (route, type(est.value))


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [1, 0]],
        [[1, 1, 1], [1, 1, 0], [1, 0, 0]],
        [[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]],
    ],
)
def test_zero_potential_pressure_is_log_spectral_radius(rows):
    from rcgdms.driving import DrivingOrbit, deterministic

    m = len(rows)
    sym = from_matrix(range(m), rows)
    pot = replace(zero_potential(sym), driving=deterministic(0))
    est = pressure(tuple(range(m)), pot)
    rho = max(abs(np.linalg.eigvals(np.array(rows, dtype=float))))
    assert est.value == pytest.approx(math.log(rho), abs=1e-10)


def test_monte_carlo_route_agrees_with_product(paper):
    zeta = geometric_potential(paper).scaled(1.0)
    symbols = (1, 2)
    exact = _product_pressure(symbols, zeta, zeta.scale)
    orbits = orbit_family(paper.driving, count=24, root_seed=2)
    mc = _mc_pressure(symbols, zeta, orbits, (6, 8, 10, 12))
    assert mc.method == "monte-carlo"
    tol = max(4 * mc.spread / math.sqrt(len(orbits.orbits)), 3e-3)
    assert mc.value == pytest.approx(exact, abs=tol)


# ---------------------------------------------------------------------------
# approximant agreement and compact approximation
# ---------------------------------------------------------------------------


def _approximant_slopes(system, potential, orbit, depths):
    out = {"anchored_sup": [], "return": [], "operator": [], "all": []}
    anchor = min(system.symbolic.edges)
    for n in depths:
        ps = partition_sums(system.symbolic.edges, potential, orbit, anchor, n)
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
    orbit = DrivingOrbit(system.driving, 0)
    # same-parity depths: periodic driving makes the 1/n coefficient
    # parity-dependent, and extrapolation needs it constant
    depths = [4, 6, 8, 10]
    slopes = _approximant_slopes(system, pot, orbit, depths)
    exact = pressure(tuple(system.symbolic.edges), pot).value
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
    approx = pressure_compact_approx(ladder, zeta)
    assert approx.rung_values[0] == pytest.approx(LOG2 - LOG3, abs=1e-13)
    assert approx.limit == pytest.approx(LOG2 - LOG3, abs=1e-13)
    assert approx.monotone


def test_compact_approximation_paper_at_one(paper):
    from rcgdms.shift import PrimitivityWitness

    zeta = geometric_potential(paper).scaled(1.0)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64, 256, 1024), witness)
    approx = pressure_compact_approx(ladder, zeta)
    assert approx.monotone
    assert all(v <= -LOG2 + 1e-12 for v in approx.rung_values)
    assert approx.anchor is not None and approx.anchor <= -LOG2
    assert approx.limit == approx.anchor


def test_compact_approximation_divergent_below_threshold(paper):
    from rcgdms.shift import PrimitivityWitness

    zeta = geometric_potential(paper).scaled(-0.5)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64), witness)
    approx = pressure_compact_approx(ladder, zeta)
    assert approx.limit == math.inf


def test_compact_limit_of_a_finite_alphabet_is_its_pressure():
    # the last rung is the whole 4-symbol alphabet; the rise from rung 3 to
    # rung 4 (the ratio-1/2 symbol) is no sign of divergence
    system = similarity_system(
        from_matrix((0, 1, 2, 3), [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]),
        deterministic(0),
        {0: {0: Fraction(1, 50), 1: Fraction(1, 50), 2: Fraction(1, 3), 3: Fraction(1, 2)}},
        {0: {0: 0.0, 1: 0.03, 2: 0.06, 3: 0.45}},
    )
    zeta = geometric_potential(system).scaled(1.0)
    witness = find_primitivity(system.symbolic, (0, 1, 2, 3), 4)
    approx = pressure_compact_approx(build_ladder(system.symbolic, (2, 3, 4), witness), zeta)
    assert approx.anchor is None
    assert approx.limit == pressure((0, 1, 2, 3), zeta).value == pytest.approx(-0.7280996106770053, abs=1e-12)


def test_compact_limit_of_an_all_ones_matrix_is_its_last_rung():
    # a full incidence given as a matrix has no closed-form whole-alphabet sum
    system = similarity_system(
        from_matrix((0, 1, 2), np.ones((3, 3), dtype=int).tolist()),
        deterministic(0),
        {0: {0: Fraction(1, 3), 1: Fraction(1, 4), 2: Fraction(1, 5)}},
        {0: {0: 0.0, 1: 0.4, 2: 0.7}},
    )
    zeta = geometric_potential(system).scaled(1.0)
    approx = pressure_compact_approx(build_ladder(system.symbolic, (2, 3)), zeta)
    assert approx.anchor is None
    assert approx.limit == approx.rung_values[-1] == pytest.approx(math.log(47 / 60), abs=1e-15)


def test_whole_alphabet_pressure_needs_a_full_shift(golden):
    # symbols=None is the whole alphabet, which has product structure on a full shift only
    zeta = geometric_potential(golden).scaled(1.0)
    with pytest.raises(ValueError, match="explicit finite symbol set"):
        pressure(None, zeta)
    with pytest.raises(ValueError, match="explicit finite symbol set"):
        pressures(None, zeta, [0.5, 1.0])


def _constrained(n, driving):
    """The zero potential on n symbols, every pair admissible but (1, 1)."""
    rows = np.ones((n, n), dtype=int)
    rows[1, 1] = 0
    return replace(zero_potential(from_matrix(range(n), rows.tolist())), driving=driving)


@pytest.mark.parametrize(
    "symbols, potential, route",
    [
        ((0, 1), geometric_potential(instances.cantor()), "exact-product"),
        (None, geometric_potential(instances.cantor()), "exact-product"),
        ((1, 0), geometric_potential(instances.golden_mean()), "exact-spectral"),
        ((0, 2), _constrained(3, bernoulli((0, 1), (0.5, 0.5))), "exact-product"),  # full over itself
        (tuple(range(128)), _constrained(128, periodic((0, 1))), "exact-spectral"),
        (tuple(range(129)), _constrained(129, periodic((0, 1))), "monte-carlo"),
        ((0, 1, 2), _constrained(3, bernoulli((0, 1), (0.5, 0.5))), "monte-carlo"),
    ],
    ids=["full", "full-whole-alphabet", "deterministic", "rung-full-over-itself", "periodic-128", "periodic-129", "bernoulli"],
)
def test_route_is_decided_once_per_symbol_set(symbols, potential, route):
    assert _route(symbols, potential) == route
    assert pressure(symbols, potential).method == route
    assert {est.method for est in pressures(symbols, potential, [0.5, 1.0])} == {route}


def test_pressure_and_pressures_share_one_body(golden, monkeypatch):
    # neither public name calls the other, so a traced call opens one span
    zeta = geometric_potential(golden)
    want = [pressure((0, 1), zeta.scaled(s)) for s in (0.5, 1.0)]

    def forbidden(*args, **kwargs):
        raise AssertionError("one public pressure function called the other")

    monkeypatch.setattr(thermo, "pressure", forbidden)
    assert pressures((0, 1), zeta, [0.5, 1.0]) == want
    monkeypatch.undo()
    monkeypatch.setattr(thermo, "pressures", forbidden)
    assert [pressure((0, 1), zeta.scaled(s)) for s in (0.5, 1.0)] == want


def test_route_refuses_what_no_route_serves(golden):
    with pytest.raises(ValueError, match="explicit finite symbol set"):
        _route(None, geometric_potential(golden))
    with pytest.raises(ValueError, match="driving"):
        _route((0, 1), zero_potential(golden.symbolic))


def test_compact_finite_while_ru_moment_diverges(paper):
    from rcgdms.gdms import BlockTailExample
    from rcgdms.shift import PrimitivityWitness

    zeta = geometric_potential(paper).scaled(0.5)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64, 256), witness)
    approx = pressure_compact_approx(ladder, zeta)
    assert math.isfinite(approx.limit)
    _, divergent = BlockTailExample(1024).ru_moment(0.5)
    assert divergent


# ---------------------------------------------------------------------------
# pointwise pressure identity and Gibbs bracket
# ---------------------------------------------------------------------------


def test_pointwise_pressure_identity(period2):
    zeta = geometric_potential(period2).scaled(1.0)
    orbit = DrivingOrbit(period2.driving, 0)
    _, eigens = conformal_measures((0, 1), zeta, orbit, depth=2, horizon=30)
    for n in range(1, 31):
        lam_route = math.fsum(eigens[:n]) / n
        direct = (
            math.fsum(
                zeta.unit_transfer_bounds(orbit.state(i), None)[0] for i in range(n)
            )
            / n
        )
        assert lam_route == pytest.approx(direct, abs=1e-9)
    # at enumerable depth the product identity matches brute-force sums
    for n in range(1, 11):
        ps = partition_sums((0, 1), zeta, orbit, 0, n)
        direct = math.fsum(zeta.unit_transfer_bounds(orbit.state(i), None)[0] for i in range(n))
        assert ps.log_all == pytest.approx(direct, abs=1e-12)


def test_gibbs_bracket_period2(period2):
    zeta = geometric_potential(period2).scaled(1.0)
    orbit = DrivingOrbit(period2.driving, 0)
    measures, eigens = conformal_measures((0, 1), zeta, orbit, depth=6)
    report = check_gibbs((0, 1), zeta, orbit, measures, eigens, depth=6)
    assert report.ok
    assert report.worst_ratio_deviation <= 1e-12  # product measures are exactly Gibbs


def test_gibbs_bracket_zero_potential(twoscale):
    pot = _zero(twoscale)
    orbit = DrivingOrbit(twoscale.driving, 0)
    measures, eigens = conformal_measures((0, 1), pot, orbit, depth=5)
    for d, level in enumerate(measures[0].levels, 1):
        assert level.tolist() == pytest.approx([2.0 ** -d] * 2 ** d)
    report = check_gibbs((0, 1), pot, orbit, measures, eigens, depth=5)
    assert report.ok


def test_checks_run_on_a_table_potential_without_driving(twoscale):
    # the connector bound reads the orbit's fiber states, not the potential's
    table = {st: {0: -LOG2, 1: -2 * LOG2} for st in twoscale.driving.state_support()}
    pot = table_potential(twoscale.symbolic, table)
    assert pot.driving is None
    orbit = DrivingOrbit(twoscale.driving, 0)
    sandwich = check_sandwich((0, 1), pot, orbit, 0, 3)
    assert sandwich.worst >= -1e-12
    measures, eigens = conformal_measures((0, 1), pot, orbit, depth=4)
    assert check_gibbs((0, 1), pot, orbit, measures, eigens, depth=4).ok


def _mc_potential():
    """A potential on the Monte Carlo route: a constrained 3-symbol shift
    under Bernoulli driving."""
    system = from_matrix((0, 1, 2), [[1, 1, 0], [0, 0, 1], [1, 0, 1]])
    table = {0: {0: -1.1, 1: -1.4, 2: -1.6}, 1: {0: -1.6, 1: -1.1, 2: -1.4}}
    return table_potential(system, table, driving=bernoulli((0, 1), (0.5, 0.5)))


def test_one_potential_draws_one_orbit_family(monkeypatch):
    """pressure, pressures and a Monte Carlo compact ladder over one potential
    and its scaled copies build MC_ORBITS orbits in total."""
    built = []
    init = driving.DrivingOrbit.__init__
    monkeypatch.setattr(driving.DrivingOrbit, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    pot = _mc_potential()
    assert pressure((0, 1, 2), pot).method == "monte-carlo"
    assert [e.method for e in pressures((0, 1, 2), pot.scaled(0.5), (0.2, 0.9))] == ["monte-carlo"] * 2
    approx = pressure_compact_approx(((0, 2), (0, 1, 2)), pot.scaled(1.0))
    assert approx.anchor is None and len(approx.rung_values) == 2
    assert len(built) == thermo.MC_ORBITS == 16


@pytest.mark.parametrize("s", [0.3, 1.0])
def test_monte_carlo_pressure_reads_sixteen_orbits_from_root_zero(s):
    pot = _mc_potential().scaled(s)
    assert pressure((0, 1, 2), pot) == _mc_pressure((0, 1, 2), pot, orbit_family(pot.driving, 16, 0))


@pytest.fixture
def searches(monkeypatch):
    """The calls thermo makes to find_primitivity."""
    calls = []
    monkeypatch.setattr(thermo, "find_primitivity", lambda *args, **kw: calls.append(args) or find_primitivity(*args, **kw))
    return calls


def test_sandwich_then_gibbs_search_the_witness_once(golden, searches):
    zeta = geometric_potential(golden)
    orbit = DrivingOrbit(golden.driving, 0)
    assert check_sandwich((0, 1), zeta.scaled(1.0), orbit, 0, 3).ok
    measures, eigens = conformal_measures((0, 1), zeta.scaled(1.0), orbit, depth=3)
    assert check_gibbs((0, 1), zeta.scaled(1.0), orbit, measures, eigens, depth=3).ok
    assert len(searches) == 1
    assert primitivity_witness(zeta, (1, 0)) == find_primitivity(golden.symbolic, (0, 1), 8) and len(searches) == 1


def test_checks_reject_a_symbol_set_without_a_witness(searches):
    from rcgdms.driving import DrivingOrbit, deterministic

    sym = from_matrix((0, 1), [[0, 1], [0, 1]])  # no symbol leads to 0
    pot = replace(zero_potential(sym), driving=deterministic(0))
    orbit = DrivingOrbit(pot.driving, 0)
    measures, eigens = conformal_measures((0, 1), pot, orbit, depth=3)
    with pytest.raises(ValueError, match="not finitely primitive"):
        check_sandwich((0, 1), pot, orbit, 1, 3)
    with pytest.raises(ValueError, match="not finitely primitive"):
        check_gibbs((0, 1), pot, orbit, measures, eigens, depth=3)
    assert len(searches) == 1  # the failed search is kept, and not run again
