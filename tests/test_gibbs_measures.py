import math
from dataclasses import replace
from fractions import Fraction

import pytest
from oracles import conformality_residual, ladder_convergence, shrinking
from words import masses, weight_fn, zero_potential

from rcgdms.driving import DrivingOrbit, deterministic
from rcgdms.gdms import similarity_system
from rcgdms.gibbs import conformal_measures
from rcgdms.potentials import geometric_potential
from rcgdms.shift import PrimitivityWitness, build_ladder, from_matrix, word_index

S_STAR_CANTOR = math.log(2) / math.log(3)


def test_period2_closed_form_masses(period2):
    zeta = geometric_potential(period2).scaled(1.0)
    orbit = DrivingOrbit(period2.driving, 0)
    measures, eigens = conformal_measures((0, 1), zeta, orbit, depth=2)
    m0 = masses(measures[0])
    assert m0[(0, 1)] == pytest.approx(0.25)
    assert m0[(0, 0)] == pytest.approx(0.25)
    assert m0[(0,)] == pytest.approx(0.5)
    lams = [math.exp(v) for v in eigens[:4]]
    assert lams == pytest.approx([1.0, 0.5, 1.0, 0.5])


def test_zero_potential_measures_uniform(twoscale):
    pot = replace(zero_potential(twoscale.symbolic), driving=twoscale.driving)
    orbit = DrivingOrbit(twoscale.driving, 0)
    measures, _ = conformal_measures((0, 1), pot, orbit, depth=4)
    for d, level in enumerate(measures[0].levels, 1):
        assert level.tolist() == pytest.approx([2.0 ** -d] * 2 ** d)


def test_cantor_unit_eigenvalue_at_root(cantor):
    zeta = geometric_potential(cantor).scaled(S_STAR_CANTOR)
    orbit = DrivingOrbit(cantor.driving, 0)
    _, eigens = conformal_measures((0, 1), zeta, orbit, depth=3)
    for v in eigens[:5]:
        assert math.exp(v) == pytest.approx(1.0, abs=1e-14)


# auto: the default horizon; induction: a horizon of 3, so measures[:3] are
# one to three pull-back steps from the uniform seed
@pytest.mark.parametrize("horizon", [None, 3], ids=["auto", "induction"])
def test_refinement_and_normalization(golden, horizon):
    zeta = geometric_potential(golden).scaled(1.0)
    orbit = DrivingOrbit(golden.driving, 0)
    measures, _ = conformal_measures((0, 1), zeta, orbit, depth=4, horizon=horizon)
    for m in measures[:3]:
        for level in m.levels:
            assert math.fsum(level) == pytest.approx(1.0, abs=1e-12)
        got = masses(m)
        for w, mass in got.items():
            if len(w) < m.depth:
                children = [
                    got[w + (e,)]
                    for e in (0, 1)
                    if golden.symbolic.admissible_pair(w[-1], e)
                ]
                assert mass == pytest.approx(math.fsum(children), abs=1e-12)


def test_eigenvalues_within_transfer_bounds(golden):
    zeta = geometric_potential(golden).scaled(1.0)
    orbit = DrivingOrbit(golden.driving, 0)
    _, eigens = conformal_measures((0, 1), zeta, orbit, depth=4)
    for k, log_lam in enumerate(eigens):
        hi, lo = zeta.unit_transfer_bounds(orbit.state(k), (0, 1))
        assert lo - 1e-12 <= log_lam <= hi + 1e-12


def test_conformality_residual_tiny(golden):
    zeta = geometric_potential(golden).scaled(1.0)
    orbit = DrivingOrbit(golden.driving, 0)
    measures, eigens = conformal_measures((0, 1), zeta, orbit, depth=4)
    for position in range(3):
        res = conformality_residual(zeta, orbit, measures, eigens, position=position)
        assert res <= 1e-10


def test_induction_agrees_with_product_route(period2):
    # closed form on a product system: mass([tau]) = prod_j w(tau_j, omega_j) / M(omega_j)
    zeta = geometric_potential(period2).scaled(1.0)
    orbit = DrivingOrbit(period2.driving, 0)
    measures, eigens = conformal_measures((0, 1), zeta, orbit, depth=3)
    weight = weight_fn(zeta, "float")
    norms = [sum(weight(orbit.state(j), e) for e in (0, 1)) for j in range(5)]
    for w, mass in masses(measures[0]).items():
        closed = math.prod(weight(orbit.state(j), e) / norms[j] for j, e in enumerate(w))
        assert mass == pytest.approx(closed, abs=1e-12)
    assert eigens[:5] == pytest.approx([math.log(v) for v in norms], abs=1e-12)


def test_exact_fraction_masses(period2):
    zeta = geometric_potential(period2).scaled(1.0)
    orbit = DrivingOrbit(period2.driving, 0)
    measures, _ = conformal_measures((0, 1), zeta, orbit, depth=2, exact=True)
    assert masses(measures[0])[(0, 1)] == Fraction(1, 4)
    assert masses(measures[0])[(0,)] == Fraction(1, 2)


def ref_masses(measure, system):
    """{word: mass} with each level's words from word_index."""
    out = {}
    for n, level in enumerate(measure.levels, 1):
        rows = word_index(system, measure.symbols, n).tolist()
        out.update(zip((tuple(measure.symbols[p] for p in row) for row in rows), level.tolist()))
    return out


def three_symbol_constrained():
    ratios = {0: {0: Fraction(1, 3), 1: Fraction(1, 4), 2: Fraction(1, 5)}}
    return similarity_system(from_matrix((0, 1, 2), [[1, 1, 0], [0, 0, 1], [1, 0, 1]]), deterministic(0), ratios, {0: {0: 0.0, 1: 0.4, 2: 0.7}})


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
@pytest.mark.parametrize("name", ["period2", "golden", "three-symbol"])
def test_masses_match_the_word_index_reference(name, exact, request):
    """masses lists every level's words in word_index order, full and
    constrained shifts alike, with the level's masses as values."""
    gdms = three_symbol_constrained() if name == "three-symbol" else request.getfixturevalue(name)
    symbols = tuple(gdms.symbolic.edges)
    measures, _ = conformal_measures(symbols, geometric_potential(gdms), DrivingOrbit(gdms.driving, 0), depth=4, horizon=5, exact=exact)
    for m in measures[:3]:
        got, want = masses(m), ref_masses(m, gdms.symbolic)
        assert list(got) == list(want) and list(got.values()) == list(want.values())
        assert len(got) == sum(map(len, m.levels))


def test_ladder_convergence_finite_alphabet(twoscale):
    zeta = geometric_potential(twoscale).scaled(1.0)
    orbit = DrivingOrbit(twoscale.driving, 0)
    witness = PrimitivityWitness(order=1, connectors=((0,),))
    ladder = build_ladder(twoscale.symbolic, (2,), witness)
    _, deviations, _ = ladder_convergence(ladder, zeta, orbit, depth=3)
    assert deviations == ()
    assert shrinking(deviations)


def test_ladder_convergence_paper(paper):
    zeta = geometric_potential(paper).scaled(1.0)
    orbit = DrivingOrbit(paper.driving, 0)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 8, 16, 32), witness)
    by_cylinder, deviations, _ = ladder_convergence(ladder, zeta, orbit, depth=2, cylinders=[(1,), (2,)])
    assert len(deviations) == 3
    assert shrinking(deviations)  # deviations shrink as rungs widen
    assert deviations[-1] < deviations[0]
    # the tracked mass of [1] approaches its full-alphabet value from above
    rung_masses = by_cylinder[(1,)]
    assert all(rung_masses[i + 1] <= rung_masses[i] + 1e-12 for i in range(len(rung_masses) - 1))


def test_ladder_tail_flag_near_threshold(paper):
    zeta = geometric_potential(paper)
    orbit = DrivingOrbit(paper.driving, 0)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 8, 16), witness)
    *_, near_threshold = ladder_convergence(ladder, zeta.scaled(0.05), orbit, depth=2, cylinders=[(1,)])
    *_, comfortable = ladder_convergence(ladder, zeta.scaled(1.0), orbit, depth=2, cylinders=[(1,)])
    assert near_threshold[0] > 0.5  # first rung misses most of the mass
    assert max(comfortable) < 0.05
    for near, far in zip(near_threshold, comfortable):
        assert near > 10 * far
