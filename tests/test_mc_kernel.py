"""The Monte Carlo pressure route against a per-orbit, per-depth loop.

The batched route runs every orbit through one transfer recursion and fits
all orbits' 1/n extrapolations at once.  The reference here calls
`partition_sums` once per (orbit, depth) and fits each orbit on its own, as
the route did before it was batched.
"""

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_transfer_sums import _holder_potential

import rcgdms.shift
import rcgdms.thermo
from rcgdms.driving import _BLOCK, DrivingOrbit, bernoulli, orbit_family
from rcgdms.potentials import FirstSymbolPotential
from rcgdms.shift import from_matrix
from rcgdms.thermo import _mc_log_all, partition_sums, pressure

TOL = 1e-12


def close(got, want):
    if not math.isfinite(want):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


def reference(system, symbols, potential, orbits, depths):
    """(value, per_depth, spread, raw_value) from one partition_sums call per
    orbit and depth and one polyfit per orbit over the deepest three depths."""
    anchor = min(symbols)
    vals = [[partition_sums(system, symbols, potential, o, anchor, n).log_all / n for n in depths] for o in orbits]
    if len(depths) == 1:
        fits = [v[0] for v in vals]
    else:
        fits = [np.polyfit([1.0 / n for n in depths[-3:]], v[-3:], 1)[1] for v in vals]
    per_depth = [float(np.mean(col)) for col in zip(*vals)]
    spread = float(np.std(fits, ddof=1)) if len(fits) > 1 else 0.0
    return float(np.mean(fits)), per_depth, spread, per_depth[-1]


def assert_matches(est, want):
    value, per_depth, spread, raw = want
    assert est.method == "monte-carlo"
    assert close(est.value, value), (est.value, value)
    assert len(est.per_depth) == len(per_depth)
    assert all(close(g, w) for g, w in zip(est.per_depth, per_depth)), (est.per_depth, per_depth)
    assert close(est.spread, spread), (est.spread, spread)
    assert close(est.raw_value, raw), (est.raw_value, raw)


@st.composite
def cases(draw):
    """A primitive non-full incidence on 2-6 symbols (a Hamiltonian cycle, a
    self-loop at the first symbol, random extra edges and one forced gap),
    embedded in a larger alphabet; 1-3 Bernoulli states, one possibly at zero
    weight; random log weights and scale; 1-5 orbits; 1-5 increasing depths."""
    k = draw(st.integers(2, 6))
    extra = draw(st.integers(0, 2))
    labels = draw(st.lists(st.integers(0, 40), min_size=k + extra, max_size=k + extra, unique=True))
    rows = [[int(draw(st.booleans())) for _ in labels] for _ in labels]
    for i in range(k):
        rows[i][(i + 1) % k] = 1
    rows[0][0] = 1
    rows[1][1] = 0
    system = from_matrix(labels, rows)
    symbols = labels[:k]  # a subset of the alphabet, in drawn (unsorted) order
    states = tuple(range(draw(st.integers(1, 3))))
    weights = [draw(st.floats(0.1, 1.0)) for _ in states]
    if len(states) > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, len(states) - 1))] = 0.0
    table = {s: {e: draw(st.floats(-3.0, 1.0)) for e in labels} for s in states}
    potential = FirstSymbolPotential(
        system=system,
        base=lambda state, e: table[state][e],
        driving=bernoulli(states, weights),
    ).scaled(draw(st.floats(-2.0, 2.0)))
    orbits = orbit_family(potential.driving, draw(st.integers(1, 5)), draw(st.integers(0, 2**32)))
    depths = tuple(sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True))))
    return system, symbols, potential, orbits, depths


@settings(max_examples=60, deadline=None)
@given(cases())
def test_batched_route_matches_per_orbit_loop(case):
    system, symbols, potential, orbits, depths = case
    est = pressure(system, symbols, potential, orbits=orbits, depths=depths, method="monte-carlo")
    assert est.depths == depths
    assert_matches(est, reference(system, tuple(sorted(symbols)), potential, orbits, depths))


def _mc_potential():
    table = {0: {0: -0.5, 1: -1.0, 2: -2.0}, 1: {0: -1.5, 1: -0.2, 2: -0.7}}
    return FirstSymbolPotential(
        system=from_matrix((0, 1, 2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
        base=lambda state, e: table[state][e],
        driving=bernoulli((0, 1), (0.4, 0.6)),
    )


def test_cylinder_constant_route_enumerates_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-depth partition sums or word enumeration on the batched route")

    pot = _mc_potential()
    orbits = orbit_family(pot.driving, 16, 0)
    want = reference(pot.system, (0, 1, 2), pot, orbits, (4, 5, 6, 7, 8))
    monkeypatch.setattr(rcgdms.thermo, "partition_sums", forbidden)
    monkeypatch.setattr(rcgdms.thermo, "enumerate_words", forbidden)
    monkeypatch.setattr(rcgdms.shift, "enumerate_words", forbidden)
    assert_matches(pressure(pot.system, (0, 1, 2), pot), want)


@pytest.mark.parametrize("depths", [(3,), (2, 5), (1, 2, 3, 4)])
def test_holder_widened_route_matches_per_orbit_loop(depths):
    pot = _holder_potential()
    assert not pot.exact_on_cylinders
    orbits = orbit_family(pot.driving, 3, 7)
    est = pressure(pot.system, (0, 1), pot, orbits=orbits, depths=depths)
    assert_matches(est, reference(pot.system, (0, 1), pot, orbits, depths))


def test_empty_rows_give_minus_infinity():
    # 0 -> 1 only and nothing after 1: A_1 has two words, A_2 one, A_3 none
    pot = FirstSymbolPotential(
        system=from_matrix((0, 1), [[0, 1], [0, 0]]),
        base=lambda state, e: -1.0 - e,
        driving=bernoulli((0, 1), (0.5, 0.5)),
    )
    for depths in ((3,), (1, 2, 3), (2, 3, 4)):
        est = pressure(pot.system, (0, 1), pot, depths=depths)
        assert est.value == -math.inf
        assert est.raw_value == -math.inf
        assert est.spread == 0.0  # every orbit is empty: they agree exactly
        assert not any(math.isnan(v) for v in est.per_depth)
    # one fiber state admits no symbol: only the orbits that draw it are empty
    dead = FirstSymbolPotential(
        system=pot.system,
        base=lambda state, e: -math.inf if state == 1 else -1.0,
        driving=bernoulli((0, 1), (0.7, 0.3)),
    )
    orbits = orbit_family(dead.driving, 8, 3)
    log_all = _mc_log_all(dead.system, (0, 1), dead, orbits, (1, 2), None)
    for j, o in enumerate(orbits):
        for i, n in enumerate((1, 2)):
            want = partition_sums(dead.system, (0, 1), dead, o, 0, n).log_all
            assert log_all[i, j] == want
    assert np.isneginf(log_all).any() and np.isfinite(log_all).any()
    mixed = pressure(dead.system, (0, 1), dead, orbits=orbits, depths=(1, 2))
    assert mixed.value == -math.inf
    assert mixed.spread == math.inf  # only some orbits are empty


@pytest.mark.parametrize("depths", [(), (8, 4, 6), (4, 4), (0, 1, 2), (1.0, 2.0), (-3,)])
def test_depths_must_increase_strictly_from_one(depths):
    pot = _mc_potential()
    with pytest.raises(ValueError, match="depths"):
        pressure(pot.system, (0, 1, 2), pot, depths=depths)


def test_numpy_integer_depths_are_accepted():
    pot = _mc_potential()
    est = pressure(pot.system, (0, 1, 2), pot, depths=np.arange(3, 6))
    assert est.depths == (3, 4, 5)


def test_orbit_draws_replay_the_seeded_protocol():
    """Forward states k >= 0 and backward states k < 0 (at -1 - k) come from
    the two children of SeedSequence(seed), in blocks of uniforms mapped
    through the cumulative weights."""
    drv = bernoulli(("a", "b", "c", "d"), (0.2, 0.0, 0.5, 0.3))
    seed = 12345
    cum = np.cumsum(drv.weights)
    cum[-1] = 1.0
    replay = []
    for child in np.random.SeedSequence(seed).spawn(2):
        rng = np.random.Generator(np.random.PCG64(child))
        u = np.concatenate([rng.random(_BLOCK) for _ in range(3)])
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(drv.states) - 1)
        replay.append([drv.states[i] for i in idx])
    fwd, bwd = replay

    def want(k):
        return fwd[k] if k >= 0 else bwd[-1 - k]

    ks = list(range(-2100, 2101))
    random.Random(0).shuffle(ks)  # the state at k must not depend on the access order
    orbit = DrivingOrbit(drv, seed)
    assert all(orbit.state(k) == want(k) for k in ks)
    assert "b" not in {orbit.state(k) for k in ks}
    fresh = DrivingOrbit(drv, seed)
    for start, stop in ((-2100, 2101), (5, 2000), (-40, -3), (-3, 0), (0, 0)):
        idx = fresh.state_indices(start, stop)
        assert idx.dtype == np.intp
        assert [drv.states[i] for i in idx] == [want(k) for k in range(start, stop)]


def test_concurrent_readers_see_one_orbit():
    """Threads that race to draw the same blocks of fresh orbits all see the
    states a single reader sees."""
    drv = bernoulli((0, 1, 2), (0.5, 0.25, 0.25))
    ks = [sign * (m * _BLOCK - 1) for m in range(1, 17) for sign in (1, -1)]  # one new block per read
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(10):
            want = [DrivingOrbit(drv, seed).state(k) for k in ks]
            orbit = DrivingOrbit(drv, seed)
            barrier = threading.Barrier(4, timeout=60)
            seen = []

            def read():
                barrier.wait()
                seen.append([orbit.state(k) for k in ks])

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [want] * 4
    finally:
        sys.setswitchinterval(switch)
