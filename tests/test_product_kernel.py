"""The exact-product pressure kernel against per-state references.

The references sum potential.value symbol by symbol with an exact math.fsum
log-sum-exp, add the scalar tail moment of each state, and take the driving
expectation with math.fsum, one state at a time: the way the product route
computed the pressure before the atom table and the state-vectorised tail.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from words import block_log_moment, value

from rcgdms import instances
from rcgdms.driving import bernoulli, deterministic, periodic
from rcgdms.gdms import BlockTailExample, build_paper_example
from rcgdms.potentials import FirstSymbolPotential, geometric_potential, s_infinity, summability, table_potential
from rcgdms.shift import GeometricTail, full_shift
from rcgdms.thermo import pressure

TOL = 1e-12
# few distinct values, so that rows repeat them and the atom table merges them
POOL = (-3.0, -1.25, -0.5, 0.0, 0.75, 2.0)


def ref_lse(xs):
    xs = list(xs)
    m = max(xs) if xs else -math.inf
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def ref_expectation(driving, per_state):
    if driving.kind == "periodic":
        vals = [per_state[st] for st in driving.states]
        return math.inf if math.inf in vals else math.fsum(vals) / len(vals)
    vals = [(w, per_state[st]) for st, w in zip(driving.states, driving.weights) if w > 0]
    return math.inf if any(v == math.inf for _, v in vals) else math.fsum(w * v for w, v in vals)


def ref_pressure(pot, symbols, tail=None):
    """Per-state fsum log-sum-exp over the symbols (plus the scalar tail
    moment when given), then the driving expectation."""
    per_state = {}
    for state in pot.driving.state_support():
        terms = [value(pot, state, e) for e in symbols]
        if tail is not None:
            terms.append(tail(pot.scale, state))
        per_state[state] = ref_lse(terms)
    return ref_expectation(pot.driving, per_state), per_state


def close(got, want):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


@st.composite
def product_systems(draw):
    """2-8 symbols with values from a small pool, 1-4 fiber states under
    deterministic, periodic or Bernoulli driving (a Bernoulli state may carry
    zero weight), a scale and a random symbol subset (None: every edge)."""
    n = draw(st.integers(2, 8))
    edges = tuple(sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n))))
    states = tuple(range(draw(st.integers(1, 4))))
    kind = draw(st.sampled_from(("deterministic", "periodic", "bernoulli")))
    if kind == "deterministic":
        driving = deterministic(states[0])
    elif kind == "periodic":
        driving = periodic(draw(st.lists(st.sampled_from(states), min_size=1, max_size=5)))
    else:
        weights = [draw(st.floats(0.05, 1.0)) for _ in states]
        if len(states) > 1 and draw(st.booleans()):
            weights[draw(st.integers(0, len(states) - 1))] = 0.0
        driving = bernoulli(states, weights)
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL), unique=True))
    table = {s: {e: draw(st.sampled_from(pool)) for e in edges} for s in states}
    pot = table_potential(full_shift(edges), table, driving=driving)
    symbols = None
    if draw(st.booleans()):
        symbols = tuple(draw(st.sets(st.sampled_from(edges), min_size=1, max_size=n)))
    return pot.scaled(draw(st.floats(-3.0, 3.0, allow_nan=False))), symbols


@settings(max_examples=200, deadline=None)
@given(product_systems())
def test_product_pressure_matches_per_state_reference(case):
    pot, symbols = case
    want, per_state = ref_pressure(pot, sorted(symbols or pot.system.edges))
    est = pressure(symbols, pot)
    assert est.method == "exact-product"
    assert close(est.value, want), (est.value, want)
    states = pot.driving.state_support()
    hi, lo = pot.transfer_bounds(states, symbols)
    for state, h, l in zip(states, hi.tolist(), lo.tolist()):
        assert h == l and close(h, per_state[state])


def pure_tail_moment(cutoff):
    def scalar(s, state):
        if s <= 0.0:
            return math.inf
        log_q = -s * math.log(8.0)
        return (cutoff + 1) * log_q - math.log(-math.expm1(log_q))

    return scalar


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.floats(-1.0, 3.0, allow_nan=False), st.data())
def test_pure_tail_pressure_matches_scalar_tail(cutoff, s, data):
    system = instances.pure_tail(cutoff)
    pot = geometric_potential(system).scaled(s)
    edges = system.symbolic.edges
    want, _ = ref_pressure(pot, edges, tail=pure_tail_moment(cutoff))
    assert close(pressure(None, pot).value, want)
    subset = sorted(data.draw(st.sets(st.sampled_from(edges), min_size=1)))
    want, _ = ref_pressure(pot, subset)
    assert close(pressure(subset, pot).value, want)


@pytest.mark.parametrize("s", [0.3, 0.7, 1.0, 1.5])
def test_paper_pressure_matches_per_state_reference(paper, s):
    pot = geometric_potential(paper).scaled(s)
    tail = BlockTailExample(len(paper.symbolic.edges))
    want, _ = ref_pressure(pot, paper.symbolic.edges, tail=lambda s, state: block_log_moment(tail, s, state))
    assert close(pressure(None, pot).value, want)


@pytest.mark.parametrize("cutoff", [100, 265, 1024])
def test_vectorised_block_tail_matches_scalar(cutoff):
    tail = BlockTailExample(cutoff)
    states = tuple(range(1, 41))
    # 1e-18: the geometric ratio 8^-s rounds to 1, yet the moment is finite
    for s in (-0.5, 0.0, 1e-18, 0.05, 0.3, 1.0, 1.5):
        got = tail.log_moments(s, states)
        assert got.shape == (len(states),)
        for state, value in zip(states, got.tolist()):
            want = block_log_moment(tail, s, state)
            if s <= 0.0:
                assert value == want == math.inf
            else:
                assert close(value, want), (cutoff, s, state, value, want)


def test_rows_without_repeats_match_reference():
    # every value of a row is distinct: each atom has multiplicity 1
    rng = np.random.default_rng(3)
    edges, states = tuple(range(50)), (0, 1, 2)
    table = {st: dict(zip(edges, rng.uniform(-6.0, 1.0, len(edges)).tolist())) for st in states}
    pot = table_potential(full_shift(edges), table, driving=bernoulli(states, [0.5, 0.3, 0.2]))
    for s in (-1.0, 0.4, 2.5):
        want, _ = ref_pressure(pot.scaled(s), edges)
        assert close(pressure(None, pot.scaled(s)).value, want)


@pytest.mark.parametrize("repeats", [True, False])
def test_states_far_apart_keep_their_own_shift(repeats):
    # one shift for all states would underflow the low state's sum to -inf
    edges, states = tuple(range(6)), (0, 1)
    row = [0.0, 0.0, 0.0, 0.0, -1.0, -2.0] if repeats else [0.0, -0.5, -1.0, -1.5, -2.0, -2.5]
    table = {0: dict(zip(edges, row)), 1: {e: v - 1000.0 for e, v in zip(edges, row)}}
    pot = table_potential(full_shift(edges), table, driving=periodic(states))
    hi, _ = pot.transfer_bounds(states)
    assert close(hi[0], ref_lse(row)) and close(hi[1], ref_lse(v - 1000.0 for v in row))


def test_summability_bounds_on_a_constrained_shift(golden):
    # ratios 1/3; symbol 0 is entered from 0 and 1, symbol 1 from 0 only
    rep = summability(geometric_potential(golden), s=1.0, symbols=(0, 1))
    assert close(rep.log_upper_expectation, math.log(2 / 3))
    assert close(rep.log_lower_expectation, math.log(1 / 3))
    assert rep.normal_summable


def test_empty_symbol_set_is_rejected(cantor):
    with pytest.raises(ValueError, match="nonempty"):
        pressure((), geometric_potential(cantor))


class HookTail:
    """A test tail whose moments come from a function (s, states) -> array,
    written as its one lane."""

    cofinitely_regular = True
    lanes = 1

    def __init__(self, log_moments):
        self.log_moments = log_moments

    def write_lanes(self, s, states, out):
        out[:, 0] = self.log_moments(s, states)


def test_one_tail_call_and_no_per_state_calls(paper, monkeypatch):
    calls = []
    zeta = geometric_potential(paper)

    def counting(s, states):
        calls.append(tuple(states))
        return zeta.tail.log_moments(s, states)

    def per_state(*args, **kwargs):
        raise AssertionError("the product route called unit_transfer_bounds")

    monkeypatch.setattr(FirstSymbolPotential, "unit_transfer_bounds", per_state)
    pot = replace(zeta, tail=HookTail(counting))
    assert math.isfinite(pressure(None, pot.scaled(0.7)).value)
    assert calls == [paper.driving.state_support()]
    assert 0.0 < s_infinity(pot) < 0.01


def ref_atoms(pot, states, symbols):
    """The atom table as a per-row np.unique(return_counts=True) builds it."""
    cols = slice(None) if symbols is None else [pot.system.position[e] for e in symbols]
    atoms = [np.unique(pot.row(state)[cols], return_counts=True) for state in states]
    sizes = np.array([len(values) for values, _ in atoms])
    values = np.concatenate([values for values, _ in atoms])
    return values, np.log(np.concatenate([counts for _, counts in atoms])), np.cumsum(sizes) - sizes, sizes


def assert_same_bits(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), (g, w)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 5), st.data())
def test_atom_table_matches_per_row_unique(width, n_states, data):
    """Rows drawn from a pool of five values (so with many ties), the pool
    holding both -0.0 and 0.0, over every edge or a random sorted subset."""
    pool = st.sampled_from((-0.0, 0.0, -1.25, 0.75, 2.0))
    rows = {state: np.array(data.draw(st.lists(pool, min_size=width, max_size=width))) for state in range(n_states)}
    edges = tuple(range(3, 3 + width))
    pot = FirstSymbolPotential(system=full_shift(edges), row=rows.__getitem__)
    symbols = None
    if data.draw(st.booleans()):
        symbols = tuple(sorted(data.draw(st.sets(st.sampled_from(edges), min_size=1))))
    states = tuple(data.draw(st.permutations(range(n_states))))
    assert_same_bits(pot._atoms(states, symbols), ref_atoms(pot, states, symbols))


def test_atom_table_keeps_the_sign_of_zero():
    rows = {0: np.array([0.0, -0.0, 1.0, -0.0, 0.0]), 1: np.array([-0.0, 0.0, -0.0, 0.0, -0.0])}
    pot = FirstSymbolPotential(system=full_shift(range(5)), row=rows.__getitem__)
    for symbols in (None, (0, 1), (1, 2, 4)):
        assert_same_bits(pot._atoms((0, 1), symbols), ref_atoms(pot, (0, 1), symbols))


@pytest.mark.parametrize("rung", [None, 4, 16, 64, 256, 1024])
def test_paper_atom_tables_match_per_row_unique(paper, rung):
    pot = geometric_potential(paper)
    states = paper.driving.state_support()
    symbols = None if rung is None else tuple(sorted(paper.symbolic.edges)[:rung])
    assert_same_bits(pot._atoms(states, symbols), ref_atoms(pot, states, symbols))


def ref_s_infinity(potential, tol=1e-6, start=1.0):
    """s_infinity as it was: bisection on the summability flag of the whole
    transfer sums, atom table and tail."""

    def ok(s):
        return summability(potential, s=s).summable

    hi = start
    for _ in range(64):
        if ok(hi):
            break
        hi *= 2.0
    lo = hi - 1.0
    for _ in range(64):
        if not ok(lo):
            break
        lo = 2.0 * lo - hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "build",
    [lambda: build_paper_example(cutoff=64), build_paper_example, instances.pure_tail],
    ids=["paper-64", "paper-1024", "pure-tail"],
)
def test_s_infinity_bisects_the_tail_hook_alone(build, monkeypatch):
    """The same value as the bisection on the summability flag, with no
    transfer sum evaluated, and once per table: a scaled copy makes no tail
    call."""
    zeta = geometric_potential(build())
    calls = []

    def counting(s, states):
        calls.append(s)
        return zeta.tail.log_moments(s, states)

    pot = replace(zeta, tail=HookTail(counting))
    want = ref_s_infinity(replace(pot))  # replace: a table of its own

    def no_sums(*args, **kwargs):
        raise AssertionError("s_infinity evaluated the transfer sums")

    del calls[:]
    with monkeypatch.context() as patch:
        patch.setattr(FirstSymbolPotential, "transfer_bounds", no_sums)
        assert s_infinity(pot) == want
        probes = len(calls)
        assert s_infinity(pot.scaled(0.3)) == want
    assert probes > 20 and len(calls) == probes


def _two_edge_potential(log_moments):
    """Rows -1 and -2 at one fiber state, and a tail with the given moments."""
    system = full_shift((1, 2), tail=GeometricTail(ratio=0.125, start=3))
    return FirstSymbolPotential(
        system=system, row=lambda state: np.array([-1.0, -2.0]), tail=HookTail(log_moments), driving=deterministic(0)
    )


@pytest.mark.parametrize("abscissa", [0.3, 1.5])
def test_s_infinity_off_the_zero_abscissa(abscissa):
    """A tail that diverges at and below the abscissa: at 1.5 the bracket
    doubles up from s = 1, and at 0.3 the bisection moves its lower end and
    lands on the divergent side."""
    tail = GeometricTail(ratio=0.125, start=3)
    pot = _two_edge_potential(lambda s, states: tail.log_moments(s - abscissa, states))
    want = ref_s_infinity(replace(pot))
    assert s_infinity(pot) == want and abs(want - abscissa) < 1e-6
    if abscissa == 0.3:
        assert not summability(pot, s=want).summable


def test_s_infinity_of_a_tail_summable_everywhere_is_minus_infinity():
    pot = _two_edge_potential(lambda s, states: np.zeros(len(states)))
    assert s_infinity(pot) == -math.inf


def test_s_infinity_keeps_its_errors(pure_tail):
    zeta = geometric_potential(pure_tail)
    with pytest.raises(ValueError, match="^summability needs the driving system$"):
        s_infinity(replace(zeta, driving=None))
    with pytest.raises(ValueError, match="^countable alphabet needs a tail moment hook$"):
        s_infinity(replace(zeta, tail=None))
