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
from oracles import partition_sums

import rcgdms.thermo
from rcgdms.driving import _BLOCK, DrivingOrbit, bernoulli, orbit_family
from rcgdms.potentials import FirstSymbolPotential
from rcgdms.shift import from_matrix
from rcgdms.thermo import _mc_log_all, _mc_pressure, pressure

TOL = 1e-12


def close(got, want):
    if not math.isfinite(want):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


def reference(system, symbols, potential, orbits, depths):
    """(value, per_depth, spread) from one partition_sums call per
    orbit and depth and one polyfit per orbit over the deepest three depths."""
    anchor = min(symbols)
    vals = [[partition_sums(symbols, potential, o, anchor, n)["all"] / n for n in depths] for o in orbits.orbits]
    if len(depths) == 1:
        fits = [v[0] for v in vals]
    else:
        fits = [np.polyfit([1.0 / n for n in depths[-3:]], v[-3:], 1)[1] for v in vals]
    per_depth = [float(np.mean(col)) for col in zip(*vals)]
    spread = float(np.std(fits, ddof=1)) if len(fits) > 1 else 0.0
    return float(np.mean(fits)), per_depth, spread


def assert_matches(est, want):
    value, per_depth, spread = want
    assert est.method == "monte-carlo"
    assert close(est.value, value), (est.value, value)
    assert len(est.per_depth) == len(per_depth)
    assert all(close(g, w) for g, w in zip(est.per_depth, per_depth)), (est.per_depth, per_depth)
    assert close(est.spread, spread), (est.spread, spread)


@st.composite
def systems(draw):
    """A primitive non-full incidence on 2-6 symbols (a Hamiltonian cycle, a
    self-loop at the first symbol, random extra edges and one forced gap),
    embedded in a larger alphabet; 1-3 Bernoulli states, one possibly at zero
    weight; random log weights and scale."""
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
        row=lambda state: np.array([table[state][e] for e in labels]),
        driving=bernoulli(states, weights),
    ).scaled(draw(st.floats(-2.0, 2.0)))
    return system, symbols, potential


@st.composite
def cases(draw):
    """A system as in `systems`; 1-5 orbits; 1-5 increasing depths."""
    system, symbols, potential = draw(systems())
    orbits = orbit_family(potential.driving, draw(st.integers(1, 5)), draw(st.integers(0, 2**32)))
    depths = tuple(sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True))))
    return system, symbols, potential, orbits, depths


@settings(max_examples=60, deadline=None)
@given(cases())
def test_batched_route_matches_per_orbit_loop(case):
    system, symbols, potential, orbits, depths = case
    est = _mc_pressure(symbols, potential, orbits, depths)
    assert est.depths == depths
    assert_matches(est, reference(system, tuple(sorted(symbols)), potential, orbits, depths))


@settings(max_examples=30, deadline=None)
@given(systems(), st.integers(1, 5), st.integers(0, 2**32), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))
def test_one_family_serves_every_s_rung_and_depth_bit_for_bit(case, count, root, scales):
    """One family read at several scales, two rungs and three depth tuples
    (the last crossing draw blocks) gives exactly the estimates of a freshly
    drawn family of the same seeds, and its memoised state matrix is the
    stacked state indices."""
    system, symbols, potential = case
    family = orbit_family(potential.driving, count, root)
    for depths in ((4, 5, 6, 7, 8), (6, 8, 10, 12), (50, 100, 130)):
        for s in scales:
            for rung in (symbols[:2], symbols):
                pot = potential.scaled(s)
                fresh = orbit_family(potential.driving, count, root)
                got = _mc_pressure(rung, pot, family, depths)
                assert got == _mc_pressure(rung, pot, fresh, depths)
        used, inverse = family.state_matrix(depths[-1])
        stacked = np.array([o.state_indices(0, depths[-1]) for o in family.orbits]).T
        assert np.array_equal(used[inverse], stacked)
        assert set(used.tolist()) <= {i for i, w in enumerate(potential.driving.weights) if w > 0}


def _mc_potential():
    table = {0: {0: -0.5, 1: -1.0, 2: -2.0}, 1: {0: -1.5, 1: -0.2, 2: -0.7}}
    return FirstSymbolPotential(
        system=from_matrix((0, 1, 2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
        row=lambda state: np.array([table[state][e] for e in (0, 1, 2)]),
        driving=bernoulli((0, 1), (0.4, 0.6)),
    )


def test_cylinder_constant_route_enumerates_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-depth partition sums on the batched route")

    pot = _mc_potential()
    orbits = orbit_family(pot.driving, 16, 0)
    want = reference(pot.system, (0, 1, 2), pot, orbits, (4, 5, 6, 7, 8))
    monkeypatch.setattr(rcgdms.thermo, "_sums", forbidden)  # the body of the per-depth sums
    assert_matches(pressure((0, 1, 2), pot), want)


def test_empty_rows_give_minus_infinity():
    # 0 -> 1 only and nothing after 1: A_1 has two words, A_2 one, A_3 none
    pot = FirstSymbolPotential(
        system=from_matrix((0, 1), [[0, 1], [0, 0]]),
        row=lambda state: np.array([-1.0, -2.0]),
        driving=bernoulli((0, 1), (0.5, 0.5)),
    )
    for depths in ((3,), (1, 2, 3), (2, 3, 4)):
        est = _mc_pressure((0, 1), pot, orbit_family(pot.driving, 16, 0), depths)
        assert est.value == -math.inf
        assert est.per_depth[-1] == -math.inf
        assert est.spread == 0.0  # every orbit is empty: they agree exactly
        assert not any(math.isnan(v) for v in est.per_depth)
    # one fiber state admits no symbol: only the orbits that draw it are empty
    dead = FirstSymbolPotential(
        system=pot.system,
        row=lambda state: np.full(2, -math.inf if state == 1 else -1.0),
        driving=bernoulli((0, 1), (0.7, 0.3)),
    )
    orbits = orbit_family(dead.driving, 8, 3)
    log_all = _mc_log_all((0, 1), dead, orbits, (1, 2))
    for j, o in enumerate(orbits.orbits):
        for i, n in enumerate((1, 2)):
            want = partition_sums((0, 1), dead, o, 0, n)["all"]
            assert log_all[i, j] == want
    assert np.isneginf(log_all).any() and np.isfinite(log_all).any()
    mixed = _mc_pressure((0, 1), dead, orbits, (1, 2))
    assert mixed.value == -math.inf
    assert mixed.spread == math.inf  # only some orbits are empty


@pytest.mark.parametrize("depths", [(), (8, 4, 6), (4, 4), (0, 1, 2), (1.0, 2.0), (-3,)])
def test_depths_must_increase_strictly_from_one(depths):
    pot = _mc_potential()
    with pytest.raises(ValueError, match="depths"):
        _mc_pressure((0, 1, 2), pot, orbit_family(pot.driving, 16, 0), depths)


def test_numpy_integer_depths_are_accepted():
    pot = _mc_potential()
    est = _mc_pressure((0, 1, 2), pot, orbit_family(pot.driving, 16, 0), np.arange(3, 6))
    assert est.depths == (3, 4, 5)


REPLAY_DRAWS = 2101  # per side: states 0..2100 forward and -1..-2100 backward


def test_orbit_draws_replay_the_seeded_protocol():
    """Forward states k >= 0 and backward states k < 0 (at -1 - k) come from
    the two children of SeedSequence(seed), one uniform per state in stream
    order, mapped through the cumulative weights; whatever the block size,
    the states are the first draws of each child's stream."""
    drv = bernoulli(("a", "b", "c", "d"), (0.2, 0.0, 0.5, 0.3))
    seed = 12345
    cum = np.cumsum(drv.weights)
    cum[-1] = 1.0
    replay = []
    for child in np.random.SeedSequence(seed).spawn(2):
        u = np.random.Generator(np.random.PCG64(child)).random(REPLAY_DRAWS)
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
    forward = DrivingOrbit(drv, seed)
    assert [drv.states[i] for i in forward.state_indices(0, REPLAY_DRAWS)] == fwd
    assert forward._rngs[1] is None  # a forward-only read builds no backward generator


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
