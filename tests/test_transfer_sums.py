"""Partition sums by the transfer recursion against brute-force enumeration.

The references enumerate every word with itertools.product and sum the
documented weights directly, so they share no code with the recursion or with
shift.enumerate_words.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcgdms.shift
import rcgdms.thermo
from rcgdms.driving import bernoulli, deterministic, sample_orbit
from rcgdms.potentials import FirstSymbolPotential, HolderClass
from rcgdms.shift import PrimitivityWitness, from_matrix, full_shift
from rcgdms.thermo import check_sandwich, partition_sums

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
    return {
        "anchored_sup": ps.log_anchored_sup,
        "return": ps.log_return,
        "operator": ps.log_operator,
        "all": ps.log_all,
    }


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
        base=lambda state, e: math.log(table[state][e]),
        exact_base=lambda state, e: table[state][e],
        driving=bernoulli(states, [1.0] * len(states)),
    ).scaled(draw(st.sampled_from((-1, 0, 1, 2))))
    orbit = sample_orbit(potential.driving, draw(st.integers(0, 5)))
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
        lambda w: math.fsum(pot.value(states[j], e) for j, e in enumerate(w)),
        ref_lse,
    )
    got = logs(partition_sums(system, symbols, pot, orbit, anchor, n, position=position))
    for key in KEYS:
        assert close(got[key], want[key]), (key, got[key], want[key])

    def exact_weight(w):
        out = Fraction(1)
        for j, e in enumerate(w):
            out *= pot.exact_base(states[j], e) ** s
        return out

    exact = ref_sums(system, symbols, anchor, n, exact_weight, lambda v: sum(v, Fraction(0)))
    ps = partition_sums(system, symbols, pot, orbit, anchor, n, position=position, arithmetic="fraction")
    assert ps.exact == exact
    for key, value in logs(ps).items():
        assert close(value, want[key]), (key, value, want[key])


def test_cylinder_constant_sums_enumerate_no_words(monkeypatch, golden):
    def forbidden(*args, **kwargs):
        raise AssertionError("word enumeration on a cylinder-constant potential")

    monkeypatch.setattr(rcgdms.shift, "enumerate_words", forbidden)
    monkeypatch.setattr(rcgdms.thermo, "enumerate_words", forbidden)
    pot = FirstSymbolPotential(
        system=golden.symbolic,
        base=lambda state, e: -1.0 - e,
        exact_base=lambda state, e: Fraction(1, 2 + e),
        driving=golden.driving,
    )
    orbit = sample_orbit(pot.driving, 0)
    witness = PrimitivityWitness(order=1, connectors=((0,),))
    for arithmetic in ("float", "fraction", "mpf"):
        ps = partition_sums(pot.system, (0, 1), pot, orbit, 0, 9, arithmetic=arithmetic)
        assert math.isfinite(ps.log_all)
        report = check_sandwich(pot.system, (0, 1), pot, orbit, 0, 4, witness=witness, arithmetic=arithmetic)
        assert report.ok, report.inequalities


def _holder_potential():
    # the declared-bounds potential of test_potentials: sup/inf tables plus a
    # Hölder class, so cylinder bounds do not factor over symbols
    return FirstSymbolPotential(
        system=full_shift((0, 1)),
        base=lambda st, e: -1.0 if e == 0 else -2.0,
        base_inf=lambda st, e: -1.1 if e == 0 else -2.05,
        holder=HolderClass(exponent=0.7, constant=0.3),
        driving=deterministic(0),
    )


@pytest.mark.parametrize("anchor", [0, 1])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_holder_widened_sums_match_enumeration(anchor, n):
    pot = _holder_potential()
    assert not pot.exact_on_cylinders
    orbit = sample_orbit(pot.driving, 0)
    # the standardized anchored tail: the anchor alternating with its first
    # self-connector, here (0,) on the full shift
    tail = tuple(itertools.islice(itertools.cycle((anchor, 0) if anchor else (0,)), 12))

    def sup(w):
        return pot.sum_bounds(orbit, 0, w, n)[0]

    def midpoint(w):
        hi, lo = pot.sum_bounds(orbit, 0, w + tail, n)
        return 0.5 * (hi + lo)

    groups = {k: [] for k in KEYS}
    for w in words(pot.system, (0, 1), n):
        groups["all"].append(sup(w))
        groups["return"].append(midpoint(w))
        if w[0] == anchor:
            groups["anchored_sup"].append(sup(w))
            groups["operator"].append(midpoint(w))
    want = {k: ref_lse(v) for k, v in groups.items()}
    got = logs(partition_sums(pot.system, (0, 1), pot, orbit, anchor, n))
    for key in KEYS:
        assert close(got[key], want[key]), (key, got[key], want[key])
    assert got["anchored_sup"] > got["operator"]  # the widening is visible

    report = check_sandwich(pot.system, (0, 1), pot, orbit, anchor, n)
    margins = dict(report.inequalities)
    logB = pot.log_distortion()
    assert close(margins["operator<=anchored_sup"], want["anchored_sup"] - want["operator"])
    assert close(margins["anchored_sup<=B*return"], logB + want["return"] - want["anchored_sup"])
    assert close(margins["B*return<=B*all"], want["all"] - want["return"])
    assert report.ok, report.inequalities
    with pytest.raises(ValueError):
        partition_sums(pot.system, (0, 1), pot, orbit, anchor, n, arithmetic="fraction")
