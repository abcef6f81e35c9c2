"""Partition sums by the transfer recursion against brute-force enumeration.

The references enumerate every word with itertools.product and sum the
documented weights directly, so they share no code with the recursion.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import partition_sums
from words import value

from rcgdms.driving import DrivingOrbit, bernoulli
from rcgdms.potentials import FirstSymbolPotential, float_log
from rcgdms.shift import from_matrix
from rcgdms.thermo import check_sandwich

TOL = 1e-12
KEYS = ("anchored_sup", "return", "operator", "all")


def ref_lse(xs):
    xs = list(xs)
    if not xs:
        return -math.inf
    m = max(xs)
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def words(system, symbols, n):
    for w in itertools.product(symbols, repeat=n):
        if all(system.admissible_pair(a, b) for a, b in zip(w, w[1:])):
            yield w


def ref_sums(system, symbols, anchor, n, weight, total):
    """Z, L, Lop, A from per-word weights: Z = Lop sum the anchored words
    that may return to the anchor, L every word that may, A every word."""
    groups = {k: [] for k in KEYS}
    for w in words(system, symbols, n):
        wt = weight(w)
        groups["all"].append(wt)
        if system.admissible_pair(w[-1], anchor):
            groups["return"].append(wt)
            if w[0] == anchor:
                groups["anchored_sup"].append(wt)
                groups["operator"].append(wt)
    return {k: total(v) for k, v in groups.items()}


def logs(ps):
    """The logs of an exact lane's sums."""
    return {key: float_log(v) for key, v in ps.items()}


def close(got, want):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


@st.composite
def cases(draw):
    """A random primitive incidence on 2-5 symbols, 1-3 fiber states with
    rational weights, an integer scale, a random anchor, depth <= 7 and an
    orbit position that may be negative."""
    k = draw(st.integers(2, 5))
    symbols = tuple(sorted(draw(st.sets(st.integers(0, 30), min_size=k, max_size=k))))
    # a Hamiltonian cycle with one self-loop is primitive; random extra edges
    rows = [[int(draw(st.booleans())) for _ in symbols] for _ in symbols]
    for i in range(k):
        rows[i][(i + 1) % k] = 1
    rows[0][0] = 1
    states = tuple(range(draw(st.integers(1, 3))))
    ratio = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    table = {s: {e: draw(ratio) for e in symbols} for s in states}
    potential = FirstSymbolPotential(
        system=from_matrix(symbols, rows),
        row=lambda state: np.array([math.log(table[state][e]) for e in symbols]),
        exact_row=lambda state: np.array([table[state][e] for e in symbols], dtype=object),
        driving=bernoulli(states, [1.0] * len(states)),
    ).scaled(draw(st.sampled_from((-1, 0, 1, 2))))
    orbit = DrivingOrbit(potential.driving, draw(st.integers(0, 5)))
    return potential, orbit, draw(st.sampled_from(symbols)), draw(st.integers(1, 7)), draw(st.integers(-8, 8))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_recursion_matches_enumeration(case):
    pot, orbit, anchor, n, position = case
    system, symbols = pot.system, pot.system.edges
    s = int(pot.scale)
    states = [orbit.state(position + j) for j in range(n)]

    want = ref_sums(
        system, symbols, anchor, n,
        lambda w: math.fsum(value(pot, states[j], e) for j, e in enumerate(w)),
        ref_lse,
    )
    got = partition_sums(symbols, pot, orbit, anchor, n, position=position)
    for key in KEYS:
        assert close(got[key], want[key]), (key, got[key], want[key])

    def exact_weight(w):
        out = Fraction(1)
        for j, e in enumerate(w):
            out *= pot.exact_row(states[j])[system.position[e]] ** s
        return out

    exact = ref_sums(system, symbols, anchor, n, exact_weight, lambda v: sum(v, Fraction(0)))
    ps = partition_sums(symbols, pot, orbit, anchor, n, position=position, arithmetic="fraction")
    assert ps == exact
    for key, got_log in logs(ps).items():
        assert close(got_log, want[key]), (key, got_log, want[key])


def test_cylinder_constant_sums_enumerate_no_words(golden):
    pot = FirstSymbolPotential(
        system=golden.symbolic,
        row=lambda state: np.array([-1.0, -2.0]),
        exact_row=lambda state: np.array([Fraction(1, 2), Fraction(1, 3)], dtype=object),
        driving=golden.driving,
    )
    orbit = DrivingOrbit(pot.driving, 0)
    for arithmetic in ("float", "fraction", "mpf"):
        ps = partition_sums((0, 1), pot, orbit, 0, 9, arithmetic=arithmetic)
        assert math.isfinite(ps["all"] if arithmetic == "float" else float_log(ps["all"]))
        report = check_sandwich((0, 1), pot, orbit, 0, 4, arithmetic=arithmetic)
        assert report.ok, report.inequalities
