"""The tabulated transfer sums against per-symbol evaluation of the potential.

The reference reads the potential's value symbol by symbol from its row and
sums with an exact math.fsum log-sum-exp, the way the transfer sums were
computed before the log-weight table existed.
"""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from words import block_log_moment, value

from rcgdms.driving import bernoulli, periodic
from rcgdms.gdms import BlockTailExample
from rcgdms.potentials import geometric_potential, log_sum_exp, table_potential
from rcgdms import thermo
from rcgdms.shift import _incidence, from_matrix, full_shift
from rcgdms.thermo import _perron_root, _perron_slope, _spectral_pressure, pressure

TOL = 1e-12


def ref_lse(xs):
    xs = list(xs)
    if not xs or max(xs) == -math.inf:
        return -math.inf
    m = max(xs)
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def ref_bounds(pot, state, symbols):
    symbols = sorted(symbols)
    if pot.system.incidence is None:
        total = ref_lse(value(pot, state, e) for e in symbols)
        return (total, total)
    per_target = [
        ref_lse(value(pot, state, e) for e in symbols if pot.system.admissible_pair(e, b))
        for b in symbols
    ]
    return (max(per_target), min(per_target))


def ref_spectral(pot, symbols, cycle):
    symbols = sorted(symbols)
    prod = np.eye(len(symbols))
    for state in cycle:
        step = np.array([
            [math.exp(value(pot, state, a)) if pot.system.admissible_pair(b, a) else 0.0 for b in symbols]
            for a in symbols
        ])
        prod = step @ prod
    return math.log(max(abs(np.linalg.eigvals(prod)))) / len(cycle)


def close(got, want):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


@st.composite
def small_systems(draw):
    """2-6 symbols with scattered labels, 1-3 fiber states, random log
    weights, and full or primitive non-full incidence."""
    n = draw(st.integers(2, 6))
    edges = tuple(sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n))))
    states = tuple(range(draw(st.integers(1, 3))))
    weight = st.floats(-6.0, 1.0, allow_nan=False)
    table = {s: {e: draw(weight) for e in edges} for s in states}
    if draw(st.booleans()):
        system = full_shift(edges)
    else:
        # a Hamiltonian cycle with one self-loop is primitive; random extra edges
        rows = [[int(draw(st.booleans())) for _ in edges] for _ in edges]
        for i in range(n):
            rows[i][(i + 1) % n] = 1
        rows[0][0] = 1
        system = from_matrix(edges, rows)
    pot = table_potential(system, table, driving=periodic(states))
    return pot.scaled(draw(st.floats(-3.0, 3.0, allow_nan=False))), states


@settings(max_examples=150, deadline=None)
@given(small_systems(), st.data())
def test_tabulated_transfer_bounds_match_reference(system_and_states, data):
    pot, states = system_and_states
    edges = pot.system.edges
    symbols = data.draw(st.sets(st.sampled_from(edges), min_size=1, max_size=len(edges)))
    for state in states:
        got = pot.unit_transfer_bounds(state, symbols)
        want = ref_bounds(pot, state, symbols)
        assert close(got[0], want[0]) and close(got[1], want[1]), (got, want)


def test_target_without_incoming_symbol_gives_minus_inf():
    # within {0, 1} nothing enters symbol 1: only 2 -> 1 is allowed
    system = from_matrix((0, 1, 2), [[1, 0, 1], [1, 0, 0], [0, 1, 0]])
    pot = table_potential(system, {0: {0: -1.0, 1: -2.0, 2: -0.5}})
    hi, lo = pot.unit_transfer_bounds(0, (0, 1))
    assert lo == -math.inf
    assert close(hi, ref_lse([-1.0, -2.0]))


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_tabulated_spectral_pressure_matches_reference(system_and_states):
    pot, states = system_and_states
    got = _spectral_pressure(pot.system.edges, pot, states).value
    assert close(got, ref_spectral(pot, pot.system.edges, states))


def eig_slope(pot, symbols, cycle):
    """(1/k) u^T P' v / (rho u^T v) for P = A_k ... A_1, with the Perron
    vectors from np.linalg.eig and P' = sum_j A_k ... diag(b_j) A_j ... A_1."""
    symbols = sorted(symbols)
    steps, rates = [], []
    for state in cycle:
        steps.append(np.array([
            [math.exp(value(pot, state, a)) if pot.system.admissible_pair(b, a) else 0.0 for b in symbols]
            for a in symbols
        ]))
        rates.append(pot.row(state)[[pot.system.position[a] for a in symbols]])
    n = len(symbols)
    prod, deriv = np.eye(n), np.zeros((n, n))
    for step, rate in zip(steps, rates):
        deriv = step @ deriv + rate[:, None] * step @ prod
        prod = step @ prod
    vals, right = np.linalg.eig(prod)
    i = int(np.argmax(np.abs(vals)))
    lvals, left = np.linalg.eig(prod.T)
    v, u = right[:, i].real, left[:, int(np.argmax(np.abs(lvals)))].real
    return float(u @ deriv @ v / (vals[i].real * (u @ v))) / len(cycle)


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_spectral_slope_matches_difference_and_eigenvectors(system_and_states):
    pot, states = system_and_states
    edges = pot.system.edges
    got = _spectral_pressure(edges, pot, states, slope=True)
    assert got.slope is not None
    h = 1e-5
    up, down = pot.scaled(pot.scale + h), pot.scaled(pot.scale - h)
    difference = (ref_spectral(up, edges, states) - ref_spectral(down, edges, states)) / (2 * h)
    assert abs(got.slope - difference) <= 1e-6 * max(1.0, abs(difference))
    want = eig_slope(pot, edges, states)
    assert abs(got.slope - want) <= 1e-9 * max(1.0, abs(want))


def test_perron_slope_refuses_vectors_of_an_inexact_root():
    # golden-mean step with weights 1/2 and 1/4: rho = (1 + sqrt 3) / 4
    step = np.array([[0.5, 0.5], [0.25, 0.0]])
    rates = [np.array([-math.log(2.0), -math.log(4.0)])]
    rho = (1.0 + math.sqrt(3.0)) / 4.0
    assert _perron_slope(step, rho, [step], rates) is not None
    assert _perron_slope(step, rho * (1.0 + 1e-6), [step], rates) is None


@st.composite
def large_systems(draw):
    """16-48 scattered symbols under a random incidence of density about 9/10
    (a Hamiltonian cycle with one self-loop keeps it primitive), 1-3 fiber
    states and log weights in [-2, 0] at a scale in [-1, 1]: cycle products
    with a spectral gap wide enough for the Collatz-Wielandt bracket."""
    n = draw(st.integers(16, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = tuple(sorted(rng.choice(200, n, replace=False).tolist()))
    rows = (rng.random((n, n)) < 0.9).astype(int)
    rows[np.arange(n), (np.arange(n) + 1) % n] = 1
    rows[0, 0] = 1
    states = tuple(range(draw(st.integers(1, 3))))
    table = {s: dict(zip(edges, rng.uniform(-2.0, 0.0, n).tolist())) for s in states}
    pot = table_potential(from_matrix(edges, rows.tolist()), table, driving=periodic(states))
    return pot.scaled(draw(st.floats(-1.0, 1.0, allow_nan=False))), states


def shifted_product(pot, symbols, cycle):
    """The cycle product that _spectral_pressure builds: each step's weights
    divided by their largest, times M^T."""
    symbols = tuple(sorted(symbols))
    adm_t = pot.admissibility(symbols).T
    prod = np.eye(len(symbols))
    for state in cycle:
        logs = pot.log_weights(state, symbols)
        prod = (np.exp(logs - logs.max())[:, None] * adm_t) @ prod
    return prod


def refuse(*args, **kwargs):
    raise AssertionError("the certified power iteration should have served this call")


@settings(max_examples=40, deadline=None)
@given(large_systems())
def test_certified_perron_root_serves_large_spectral_systems(system_and_states):
    """With eigvals and solve refused, rho and the slope come from the power
    iteration alone.  A draw whose bracket does not close (under 1 in 150 at
    16 symbols and one state) is rejected here; the fallback has its own
    tests below."""
    pot, states = system_and_states
    edges = pot.system.edges
    prod = shifted_product(pot, edges, states)
    right, left = _perron_root(prod), _perron_root(prod.T)
    if right is None or left is None:
        reject()
    rho = max(abs(np.linalg.eigvals(prod)))
    assert abs(right[0] - rho) <= 1e-13 * rho
    h = 1e-5
    up, down = pot.scaled(pot.scale + h), pot.scaled(pot.scale - h)
    difference = (ref_spectral(up, edges, states) - ref_spectral(down, edges, states)) / (2 * h)
    want_value, want_slope = ref_spectral(pot, edges, states), eig_slope(pot, edges, states)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermo.np.linalg, "eigvals", refuse)
        mp.setattr(thermo.np.linalg, "solve", refuse)
        got = _spectral_pressure(edges, pot, states, slope=True)
    assert close(got.value, want_value)
    assert got.slope is not None
    assert abs(got.slope - want_slope) <= 1e-9 * max(1.0, abs(want_slope))
    assert abs(got.slope - difference) <= 1e-6 * max(1.0, abs(difference))


@pytest.mark.parametrize(
    "rows, logs",
    [
        # zero rows: weights below e^-745 underflow to 0
        pytest.param(np.ones((20, 20), int).tolist(), [-800.0 if e % 3 == 1 else -0.1 * e for e in range(20)],
                     id="zero-rows"),
        # order below 16: a positive 8 x 8 product with a wide gap
        pytest.param(np.ones((8, 8), int).tolist(), [-0.1 * e for e in range(8)], id="order-8"),
        # a slow gap: the 24-cycle with one self-loop, |lambda_2 / lambda_1| = 0.97
        pytest.param([[int(j == (i + 1) % 24 or i == j == 0) for j in range(24)] for i in range(24)], [0.0] * 24,
                     id="slow-gap"),
    ],
)
def test_spectral_pressure_falls_back_to_eigvals(rows, logs, monkeypatch):
    """Where the iteration gives up, rho is exactly the largest eigenvalue
    modulus from np.linalg.eigvals, as before the iteration existed.  One
    fiber state whose largest log weight is 0 leaves the product unshifted."""
    pot = table_potential(from_matrix(range(len(rows)), rows), {0: dict(enumerate(logs))}, driving=periodic((0,)))
    edges = pot.system.edges
    prod = shifted_product(pot, edges, (0,))
    assert _perron_root(prod) is None
    want = math.log(np.abs(np.linalg.eigvals(prod)).max())
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(thermo.np.linalg, "eigvals", lambda m: calls.append(1) or eigvals(m))
    assert _spectral_pressure(edges, pot, (0,)).value == want
    assert calls == [1]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_incidence_and_admissibility_match_per_pair_reference(data):
    """Every incidence reader against the 0/1 rows the shift was built from,
    pair by pair: edges with scattered labels in drawn order, dead rows and
    columns included."""
    n = data.draw(st.integers(1, 6))
    edges = data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    rows = [[data.draw(st.integers(0, 1)) for _ in edges] for _ in edges]
    system = from_matrix(edges, rows)
    symbols = tuple(sorted(data.draw(st.sets(st.sampled_from(edges), min_size=1))))
    want = np.array([[rows[edges.index(a)][edges.index(b)] == 1 for b in symbols] for a in symbols])
    got = _incidence(system, symbols)
    assert got.dtype == bool and np.array_equal(got, want)
    assert [[system.admissible_pair(a, b) for b in symbols] for a in symbols] == want.tolist()
    at = {e: i for i, e in enumerate(symbols)}
    for word in itertools.product(symbols, repeat=3):
        assert system.is_admissible(word) == all(want[at[a], at[b]] for a, b in zip(word, word[1:]))
    pot = table_potential(system, {0: dict.fromkeys(edges, 0.0)}, driving=periodic((0,)))
    adm = pot.admissibility(symbols)
    assert adm.dtype == bool and np.array_equal(adm, want) and pot.admissibility(symbols) is adm


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.7])
def test_paper_full_alphabet_bounds_match_reference(paper, s):
    zeta = geometric_potential(paper).scaled(s)
    tail = BlockTailExample(len(paper.symbolic.edges))
    for state in (1, 2, 5, 17, 31):
        want = ref_lse(
            [value(zeta, state, e) for e in paper.symbolic.edges] + [block_log_moment(tail, s, state)]
        )
        hi, lo = zeta.unit_transfer_bounds(state, None)
        assert hi == lo
        assert close(hi, want)


def test_scaled_copies_share_one_table(paper):
    # every potential reads whole rows from its row hook, once per state:
    # the geometric potential's come from the map system
    edges, states = tuple(range(1, 9)), (0, 1, 2)
    rows = {st: {e: -0.1 * (e + st) for e in edges} for st in states}
    table = table_potential(full_shift(edges), rows, driving=bernoulli(states, [0.5, 0.3, 0.2]))
    for pot in (geometric_potential(paper), table):
        row_calls = 0

        def counting_row(state, row=pot.row):
            nonlocal row_calls
            row_calls += 1
            return row(state)

        counted = replace(pot, row=counting_row)
        for s in np.linspace(0.3, 3.0, 20):
            assert math.isfinite(pressure(None, counted.scaled(s)).value)
        assert 0 < row_calls <= len(pot.driving.state_support())


def test_threads_filling_one_table_agree_with_serial(paper):
    grid = np.linspace(0.3, 3.0, 16)
    serial = [pressure(None, geometric_potential(paper).scaled(s)).value for s in grid]
    shared = geometric_potential(paper)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda s: pressure(None, shared.scaled(s)).value, s) for s in grid]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_log_sum_exp_conventions():
    # one value per row: an empty row and an all -inf row give -inf, a row
    # holding +inf gives +inf
    assert log_sum_exp(np.array([])) == -math.inf
    assert log_sum_exp(np.empty((3, 0))).tolist() == [-math.inf] * 3
    cases = [([-math.inf, -math.inf], -math.inf), ([1.0, math.inf, -math.inf], math.inf), ([-math.inf, 0.0], 0.0)]
    for xs, want in cases:
        assert log_sum_exp(np.array(xs)) == want
    padded = np.array([xs + [-math.inf] * (3 - len(xs)) for xs, _ in cases])
    assert log_sum_exp(padded).tolist() == [want for _, want in cases]
    # 2-D input reduces the last axis, row by row
    xs = [-3.0, 0.5, -40.0, 2.0]
    block = np.array([xs, xs[::-1], [x - 800.0 for x in xs]])
    got = log_sum_exp(block)
    assert got.shape == (3,)
    assert got[0] == log_sum_exp(np.array(xs))
    assert got[0] == pytest.approx(math.log(sum(math.exp(x) for x in xs)), abs=1e-14)
    assert got[1] == pytest.approx(got[0], abs=1e-15)
    assert got[2] == pytest.approx(got[0] - 800.0, abs=1e-12)
    assert log_sum_exp(block[None]).shape == (1, 3)
