"""The exact-product route over a vector of scales against the one-scale calls.

Every batched path must give the bits of the call it replaces: the segmented
log-sum-exp over (scales x atoms) rows against one row at a time,
`pressures` against `pressure` per scale,
DrivingSystem.expected against DrivingSystem.expectation, and the curve's
slope and curvature against the estimates `pressure` gives with its slope.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcgdms.cli as cli
from rcgdms import instances
from rcgdms.driving import DrivingSystem, bernoulli, deterministic, periodic
from rcgdms.potentials import FirstSymbolPotential, _segment_log_sums, geometric_potential, table_potential
from rcgdms.shift import GeometricTail, from_matrix, full_shift
from rcgdms.thermo import pressure, pressures

UNDERFLOW = -745.1332191019412  # float64 exp is 0.0 below this


def same_bits(a, b) -> bool:
    """Equal shapes, NaN at the same places, and the same bits elsewhere."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


# terms near the segment maximum, far below it, at the underflow edge, and
# the special values
TERM = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(-2000.0, 0.0),
    st.floats(UNDERFLOW - 0.01, UNDERFLOW + 0.01),
    st.sampled_from((-math.inf, math.nan, -745.2, UNDERFLOW, 0.0, -0.0)),
)


@st.composite
def segmented_rows(draw):
    """(rows x terms) with segment starts and sizes; a row may add the same
    offset to every term, and segments may be all -inf."""
    sizes = np.array(draw(st.lists(st.integers(1, 6), min_size=1, max_size=6)))
    width = int(sizes.sum())
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(TERM, min_size=width, max_size=width))
        if draw(st.booleans()):  # one segment's maximum at 0 and the rest at the underflow edge
            k = draw(st.integers(0, len(sizes) - 1))
            lo = int(sizes[:k].sum())
            row[lo] = 0.0
            for j in range(lo + 1, lo + sizes[k]):
                row[j] = UNDERFLOW + draw(st.floats(-0.01, 0.01))
        if draw(st.booleans()):
            k = draw(st.integers(0, len(sizes) - 1))
            lo = int(sizes[:k].sum())
            row[lo : lo + sizes[k]] = [-math.inf] * sizes[k]
        rows.append(row)
    return np.array(rows), np.cumsum(sizes) - sizes, sizes


@settings(max_examples=300, deadline=None)
@given(segmented_rows())
def test_rows_of_a_block_match_the_one_row_call(case):
    terms, starts, sizes = case
    block = _segment_log_sums(terms.copy(), starts, sizes)
    assert block.shape == (len(terms), len(sizes))
    for row, got in zip(terms, block):
        assert same_bits(got, _segment_log_sums(row.copy(), starts, sizes))


def test_all_minus_infinity_and_nan_segments():
    terms = np.array([[-math.inf, -math.inf, 0.0, math.nan, -800.0, 1.0]])
    got = _segment_log_sums(terms.copy(), np.array([0, 2, 4]), np.array([2, 2, 2]))
    assert got[0, 0] == -math.inf and math.isnan(got[0, 1]) and got[0, 2] == 1.0


def one_at_a_time(symbols, potential, scales):
    return [pressure(symbols, potential.scaled(s)) for s in scales]


def assert_same_estimates(got, want):
    assert [e.method for e in got] == [e.method for e in want]
    assert same_bits([e.value for e in got], [e.value for e in want])


GRID = (-0.5, 0.0, 1e-18, 0.05, 0.3, 0.7, 1.0, 1.3, 1.5, 3.0, 40.0)


@pytest.mark.parametrize("rung", [None, 4, 16, 64, 256, 1024])
def test_paper_pressures_match_pressure_per_scale(paper, rung):
    zeta = geometric_potential(paper)
    symbols = None if rung is None else tuple(sorted(paper.symbolic.edges)[:rung])
    got = pressures(symbols, zeta, GRID)
    assert_same_estimates(got, one_at_a_time(symbols, zeta, GRID))
    if symbols is None:
        assert [e.value for e in got[:3]] == [math.inf, math.inf, got[2].value] and math.isfinite(got[2].value)


def test_the_whole_alphabet_rung_reads_the_whole_alphabet_table(paper):
    zeta = geometric_potential(paper)
    states = paper.driving.state_support()
    assert zeta._atoms(states, paper.symbolic.edges) is zeta._atoms(states, None)


@pytest.mark.parametrize("driving", [deterministic(0), periodic((0, 1, 0)), bernoulli((0, 1, 2), (0.6, 0.0, 0.4))])
def test_geometric_tail_pressures_match_pressure_per_scale(driving):
    # two edges, a row per fiber state, and a geometric tail
    system = full_shift((1, 2), tail=GeometricTail(ratio=0.125, start=3))
    rows = {0: np.array([-1.0, -2.0]), 1: np.array([-0.5, -3.0]), 2: np.array([-1.5, -1.5])}
    zeta = FirstSymbolPotential(system=system, row=rows.__getitem__, tail=system.tail, driving=driving)
    for symbols in (None, (1,), (2, 1)):
        got = pressures(symbols, zeta, GRID)
        assert_same_estimates(got, one_at_a_time(symbols, zeta, GRID))
    assert [e.value for e in pressures(None, zeta, (-1.0, 0.0, -0.0))] == [math.inf] * 3


def test_pure_tail_pressures_match_pressure_per_scale():
    zeta = geometric_potential(instances.pure_tail(8))
    assert_same_estimates(pressures(None, zeta, GRID), one_at_a_time(None, zeta, GRID))
    assert pressures(None, zeta, ()) == []


def test_other_routes_call_pressure_per_scale(golden):
    spectral = geometric_potential(golden)  # a constrained shift under deterministic driving
    got = pressures((0, 1), spectral, (0.2, 0.9))
    assert [e.method for e in got] == ["exact-spectral"] * 2 and got == one_at_a_time((0, 1), spectral, (0.2, 0.9))
    system = from_matrix((0, 1), [[1, 1], [1, 0]])
    mc = table_potential(system, {0: {0: -1.0, 1: -2.0}, 1: {0: -0.5, 1: -1.5}}, driving=bernoulli((0, 1), (0.5, 0.5)))
    got = pressures((0, 1), mc, (0.2, 0.9))
    assert [e.method for e in got] == ["monte-carlo"] * 2
    assert got == [pressure((0, 1), mc.scaled(s)) for s in (0.2, 0.9)]
    # a rung over which the constrained shift is full takes the product route,
    # its sums one scale at a time through transfer_bounds
    states = mc.driving.state_support()
    want = [mc.driving.expected(mc.scaled(s).transfer_bounds(states, (0,))[0]) for s in (0.2, 0.9)]
    got = pressures((0,), mc, (0.2, 0.9))
    assert [e.method for e in got] == ["exact-product"] * 2 and same_bits([e.value for e in got], want)


def test_pressures_keep_the_errors_of_pressure(cantor):
    zeta = geometric_potential(cantor)
    with pytest.raises(ValueError, match="nonempty"):
        pressures((), zeta, (0.5,))
    with pytest.raises(ValueError, match="driving system"):
        pressures(None, FirstSymbolPotential(system=zeta.system, row=zeta.row), (0.5,))


VALUE = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from((math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324)),
)


@st.composite
def bernoullis(draw):
    states = tuple(range(draw(st.integers(1, 5))))
    weights = [draw(st.floats(0.01, 1.0)) for _ in states]
    if len(states) > 1:
        weights[draw(st.integers(0, len(states) - 1))] = 0.0  # a zero-weight state
    return bernoulli(states, weights)


@st.composite
def drivings(draw):
    states = tuple(range(draw(st.integers(1, 5))))
    kind = draw(st.sampled_from(("deterministic", "periodic", "bernoulli")))
    if kind == "deterministic":
        return deterministic(states[0])
    if kind == "periodic":
        return periodic(draw(st.lists(st.sampled_from(states), min_size=1, max_size=6)))
    return draw(bernoullis())


def bernoulli_loop(driving, row):
    """A Bernoulli expectation state by state over the support: summed in
    state order from 0.0, and +inf as soon as a value is +inf."""
    total = 0.0
    for w, v in zip([w for w in driving.weights if w > 0], row):
        if v == math.inf:
            return math.inf
        total += w * v
    return total


def reference(driving, row):
    if driving.kind == "bernoulli":
        return bernoulli_loop(driving, row)
    by_state = dict(zip(driving.state_support(), row))
    try:
        return driving.expectation(by_state.__getitem__)
    except ValueError as exc:  # math.fsum of +inf and -inf
        return exc


@settings(max_examples=300, deadline=None)
@given(drivings(), st.data())
def test_vector_expectation_matches_the_loop(driving, data):
    support = driving.state_support()
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        values = {s: data.draw(VALUE) for s in sorted(set(support))}  # a state repeated in a cycle repeats its value
        rows.append([values[s] for s in support])
    block = np.array(rows)
    want = [reference(driving, row) for row in rows]
    if any(isinstance(w, ValueError) for w in want):
        with pytest.raises(ValueError):
            driving.expected(block)
        return
    got = driving.expected(block).tolist()
    for g, w, row in zip(got, want, rows):
        one = driving.expected(np.array(row))
        assert isinstance(one, float)
        if math.isnan(w):
            assert math.isnan(g) and math.isnan(one)
        else:
            assert same_bits(g, w) and same_bits(one, w), (g, one, w)


@settings(max_examples=300, deadline=None)
@given(bernoullis(), st.data())
def test_bernoulli_expectation_has_the_bits_of_expected(driving, data):
    """expectation(fn) on a Bernoulli base is expected over fn's values on
    state_support(), bit for bit, and never reads a zero-weight state."""
    row = [data.draw(VALUE) for _ in driving.state_support()]
    if data.draw(st.booleans()):
        row[data.draw(st.integers(0, len(row) - 1))] = math.inf
    got = driving.expectation(dict(zip(driving.state_support(), row)).__getitem__)
    want = driving.expected(np.array(row))
    assert isinstance(got, float)
    assert same_bits(got, want) and same_bits(got, bernoulli_loop(driving, row)), (got, want, row)


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3), st.lists(VALUE, min_size=1, max_size=4))
def test_a_fixed_fiber_is_the_cycle_of_length_one(state, values):
    """deterministic(s) is periodic((s,)): equal systems, with the same
    expectation and expected bits on every row, +-inf and NaN included."""
    fixed, cycle = deterministic(state), periodic((state,))
    assert fixed == cycle and fixed.kind == "periodic"
    rows = np.array(values)[:, None]
    for value, row in zip(values, rows):
        got = [d.expectation(lambda s: value) for d in (fixed, cycle)] + [d.expected(row) for d in (fixed, cycle)]
        assert all(isinstance(g, float) and same_bits(g, got[0]) for g in got)
    assert same_bits(fixed.expected(rows), cycle.expected(rows))
    with pytest.raises(ValueError, match="unknown driving kind"):
        DrivingSystem(kind="deterministic", states=(state,))


def test_zero_weight_state_is_not_read():
    driving = bernoulli((0, 1, 2), (0.5, 0.0, 0.5))
    assert driving.state_support() == (0, 2)
    assert driving.expected(np.array([1.0, math.inf])) == math.inf
    assert driving.expected(np.array([-math.inf, math.inf])) == math.inf
    assert math.copysign(1.0, driving.expected(np.array([-0.0, -0.0]))) == 1.0  # the loop's 0.0 + -0.0


def _tailed_config(tmp_path):
    path = tmp_path / "tailed.json"
    path.write_text(
        '{"system": {"edges": 2, "tail": {"ratio": 0.125, "start": 3}},'
        ' "maps": {"ratios": {"0": {"0": "1/4", "1": "1/8"}}, "offsets": {"0": {"0": 0.0, "1": 0.5}}},'
        ' "driving": {"kind": "deterministic", "states": [0]},'
        ' "analysis": {"s_min": 0.05, "s_max": 2.0, "s_steps": 12}}'
    )
    return path


@pytest.mark.parametrize("which", ["paper-example", "tailed"])
def test_curve_slopes_are_the_estimates_derivatives(which, tmp_path):
    path = Path(__file__).resolve().parents[1] / "configs" / "paper-example.json"
    if which == "tailed":
        path = _tailed_config(tmp_path)
    run = cli.load_config(path)
    curve = cli._curve(run)
    assert curve.slope is not None and curve.curvature is not None  # installed on the exact-product route
    zeta = run.potential
    for s in (curve.s_infinity + 1e-12, 0.05, 0.31, 0.9, 1.5, 7.0):
        est = pressure(None, zeta.scaled(s), slope=True)
        assert est.slope is not None and est.curvature is not None
        assert same_bits(curve.slope(s), est.slope) and same_bits(curve.slope_at(s), est.slope)
        assert same_bits(curve.curvature(s), est.curvature)
        assert same_bits(curve.evaluator(s), pressure(None, zeta.scaled(s)).value)


def test_monte_carlo_curves_keep_the_plain_central_difference(tmp_path):
    path = tmp_path / "mc.json"
    path.write_text(
        '{"system": {"edges": 2, "incidence": [[1, 1], [1, 0]]},'
        ' "maps": {"ratios": {"0": {"0": "1/3", "1": "1/4"}, "1": {"0": "1/5", "1": "1/3"}},'
        ' "offsets": {"0": {"0": 0.0, "1": 0.5}, "1": {"0": 0.0, "1": 0.5}}},'
        ' "driving": {"kind": "bernoulli", "states": [0, 1], "weights": [0.5, 0.5]},'
        ' "analysis": {"s_min": 0.0, "s_max": 1.0, "s_steps": 3}}'
    )
    curve = cli._curve(cli.load_config(path))
    assert curve.slope is None and curve.curvature is None
