"""The level-array conformal measures against word-keyed dict references.

The references enumerate every word and call the weight once per word: the
uniform seed aggregated up from the deepest level, the backward pull-back
(L* m)(w) = w(w_0) m(w[1:]), the closed-form product on full shifts, and the
per-word Gibbs bracket and conformality defect.  Floats agree to 1e-12
relative (the Gibbs report bit for bit, the defect to 1e-14 of the
eigenvalue); Fractions agree exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import conformality_residual
from words import birkhoff, enumerate_words, masses, value, weight_fn

from rcgdms.driving import DrivingOrbit, bernoulli, deterministic, periodic
from rcgdms.gibbs import conformal_measures
from rcgdms.potentials import FirstSymbolPotential, float_log, geometric_potential
from rcgdms.shift import find_primitivity, from_matrix, full_shift
from rcgdms.thermo import GibbsReport, check_gibbs

TOL = 1e-12


def ref_seed(system, symbols, depth, number):
    words = list(enumerate_words(system, symbols, depth))
    unit = Fraction(1, len(words)) if number is Fraction else 1.0 / len(words)
    masses = {w: unit for w in words}
    for d in range(depth - 1, 0, -1):
        level: dict = {}
        for w, m in masses.items():
            if len(w) == d + 1:
                level[w[:-1]] = level.get(w[:-1], 0 * m) + m
        masses.update(level)
    return masses


def ref_pull_back(system, symbols, weight, state, masses, depth):
    raw: dict = {}
    for n in range(1, depth + 1):
        for w in enumerate_words(system, symbols, n):
            if n == 1:
                inner = sum(masses.get((b,), 0.0) for b in symbols if system.admissible_pair(w[0], b))
            else:
                inner = masses.get(w[1:], 0.0)
            raw[w] = weight(state, w[0]) * inner
    lam = sum(raw[w] for w in raw if len(w) == 1)
    return {w: m / lam for w, m in raw.items()}, float_log(lam)


def ref_chain(system, symbols, potential, orbit, depth, horizon, exact):
    weight = weight_fn(potential, "fraction" if exact else "float")
    chain = [ref_seed(system, symbols, depth, Fraction if exact else float)]
    logs = []
    for k in range(horizon - 1, -1, -1):
        masses, log_lam = ref_pull_back(system, symbols, weight, orbit.state(k), chain[0], depth)
        chain.insert(0, masses)
        logs.insert(0, log_lam)
    return chain, logs


def ref_closed_form(symbols, potential, orbit, k, word, exact):
    weight = weight_fn(potential, "fraction" if exact else "float")
    mass = Fraction(1) if exact else 1.0
    for j, e in enumerate(word):
        state = orbit.state(k + j)
        mass = mass * weight(state, e) / sum(weight(state, b) for b in symbols)
    return mass


def ref_check_gibbs(system, symbols, potential, orbit, masses, log_eigenvalues, depth, witness):
    N = witness.order
    K = max(
        abs(value(potential, st, e)) for st in orbit.system.state_support() for e in witness.connector_alphabet
    )
    checked = violations = 0
    max_up, min_lo, worst_dev = -math.inf, math.inf, 0.0
    for n in range(1, depth + 1):
        log_pn = math.fsum(log_eigenvalues[:n])
        log_lower = -(
            2 * N * K
            + math.log(N)
            + math.fsum(potential.unit_transfer_bounds(orbit.state(n + i), symbols)[0] for i in range(2 * N))
        )
        for w in enumerate_words(system, symbols, n):
            mass = masses.get(w, 0.0)
            if mass <= 0.0:
                continue
            log_ratio = math.log(mass) - (birkhoff(potential, orbit, 0, w) - log_pn)
            checked += 1
            lo_slack = log_ratio - log_lower
            max_up = max(max_up, log_ratio)
            min_lo = min(min_lo, lo_slack)
            worst_dev = max(worst_dev, abs(log_ratio))
            if log_ratio > 1e-12 or lo_slack < -1e-12:
                violations += 1
    return GibbsReport(checked, violations, max_up, min_lo, worst_dev)


def ref_residual(system, symbols, potential, orbit, m_here, m_next, log_lam, k, depth):
    lam = math.exp(log_lam)
    state = orbit.state(k)
    worst = 0.0
    for n in range(1, depth):
        for w in enumerate_words(system, symbols, n):
            wt = math.exp(value(potential, state, w[0]))
            if n == 1:
                pulled = wt * math.fsum(
                    m_next.get((b,), 0.0) for b in symbols if system.admissible_pair(w[0], b)
                )
            else:
                pulled = wt * m_next.get(w[1:], 0.0)
            worst = max(worst, abs(pulled - lam * m_here.get(w, 0.0)))
    return worst


def close(got, want, floor=0.0):
    """Within TOL relative; log eigenvalues near 0 take floor=1.0."""
    return abs(got - want) <= TOL * max(floor, abs(want))


@st.composite
def small_cases(draw):
    """2-5 symbols with scattered labels, full or primitive non-full
    incidence, 1-3 fiber states under deterministic, periodic or Bernoulli
    driving, rational weights per (state, symbol), depth 1-5."""
    n = draw(st.integers(2, 5))
    edges = tuple(sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n))))
    if draw(st.booleans()):
        system = full_shift(edges)
    else:
        # a Hamiltonian cycle with one self-loop is primitive; random extra edges
        rows = [[int(draw(st.booleans())) for _ in edges] for _ in edges]
        for i in range(n):
            rows[i][(i + 1) % n] = 1
        rows[0][0] = 1
        system = from_matrix(edges, rows)
    states = tuple(range(draw(st.integers(1, 3))))
    kind = draw(st.sampled_from(["deterministic", "periodic", "bernoulli"]))
    if kind == "deterministic":
        driving = deterministic(states[0])
    elif kind == "periodic":
        driving = periodic(draw(st.lists(st.sampled_from(states), min_size=1, max_size=4)))
    else:
        driving = bernoulli(states, [draw(st.integers(1, 4)) for _ in states])
    ratio = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    table = {s: {e: draw(ratio) for e in edges} for s in states}
    potential = FirstSymbolPotential(
        system=system,
        row=lambda state: np.array([math.log(table[state][e]) for e in edges]),
        exact_row=lambda state: np.array([table[state][e] for e in edges], dtype=object),
        driving=driving,
    ).scaled(draw(st.sampled_from([1, 2])))
    orbit = DrivingOrbit(driving, draw(st.integers(0, 50)))
    depth = draw(st.integers(1, 5))
    return system, edges, potential, orbit, depth


def assert_chains_agree(system, symbols, potential, orbit, depth, horizon, exact):
    measures, eigens = conformal_measures(symbols, potential, orbit, depth, horizon=horizon, exact=exact)
    chain, logs = ref_chain(system, symbols, potential, orbit, depth, horizon, exact)
    assert len(measures) == horizon + 1
    assert all(close(a, b, floor=1.0) for a, b in zip(eigens, logs, strict=True))
    for k, (measure, want) in enumerate(zip(measures, chain)):
        assert measure.position == k and measure.depth == depth
        got = masses(measure)
        if k < horizon:  # the seed also carries zero-mass dead ends
            assert set(got) == set(want)
        for w, m in want.items():
            assert m == got[w] if exact else close(got[w], m)
    return measures, eigens


@settings(max_examples=60, deadline=None)
@given(small_cases(), st.integers(0, 6))
def test_float_levels_match_dict_induction(case, extra):
    system, symbols, potential, orbit, depth = case
    measures, eigens = assert_chains_agree(system, symbols, potential, orbit, depth, depth + extra, exact=False)
    if system.incidence is None:
        for k in range(extra + 1):  # positions the seed no longer reaches
            for w, m in masses(measures[k]).items():
                assert close(m, ref_closed_form(symbols, potential, orbit, k, w, exact=False))


@settings(max_examples=30, deadline=None)
@given(small_cases(), st.integers(0, 3))
def test_fraction_levels_match_dict_induction_exactly(case, extra):
    system, symbols, potential, orbit, depth = case
    depth = min(depth, 3)
    measures, _ = assert_chains_agree(system, symbols, potential, orbit, depth, depth + extra, exact=True)
    if system.incidence is None:
        for k in range(extra + 1):
            for w, m in masses(measures[k]).items():
                assert m == ref_closed_form(symbols, potential, orbit, k, w, exact=True)


@settings(max_examples=40, deadline=None)
@given(small_cases())
def test_gibbs_report_and_residual_match_word_loops(case):
    system, symbols, potential, orbit, depth = case
    measures, eigens = conformal_measures(symbols, potential, orbit, depth)
    witness = find_primitivity(system, symbols, max_order=8)
    got = check_gibbs(symbols, potential, orbit, measures, eigens, depth)
    want = ref_check_gibbs(system, symbols, potential, orbit, masses(measures[0]), eigens, depth, witness)
    assert got == want
    for k in range(3):
        res = conformality_residual(potential, orbit, measures, eigens, position=k)
        ref = ref_residual(
            system, symbols, potential, orbit, masses(measures[k]), masses(measures[k + 1]),
            eigens[k], k, depth,
        )
        # both are rounding noise of the lambda-sized products: a few ulps of lambda
        scale = max(1.0, math.exp(eigens[k]))
        assert abs(res - ref) <= 1e-14 * scale
        assert res <= 1e-12 * scale


def test_mass_outside_the_tree_is_zero(golden):
    zeta = geometric_potential(golden).scaled(1.0)
    measures, _ = conformal_measures((0, 1), zeta, DrivingOrbit(golden.driving, 0), depth=3)
    m = measures[0]
    got = masses(m)
    assert got.get((), 0.0) == 0.0
    assert got.get((1, 1), 0.0) == 0.0  # inadmissible
    assert got.get((0, 0, 0, 0), 0.0) == 0.0  # deeper than the measure
    assert got.get((2,), 0.0) == 0.0  # outside the symbols
    assert got[(0, 1)] == m.levels[1][1] > 0.0
    assert isinstance(m.levels[0], np.ndarray) and m.depth == 3


def test_gibbs_rejects_measures_on_other_symbols(golden):
    zeta = geometric_potential(golden).scaled(1.0)
    orbit = DrivingOrbit(golden.driving, 0)
    measures, eigens = conformal_measures((0,), zeta, orbit, depth=2)
    with pytest.raises(ValueError, match="different symbol set"):
        check_gibbs((0, 1), zeta, orbit, measures, eigens, 2)
