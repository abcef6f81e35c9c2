"""The float, Fraction and mpf lanes of the transfer recursion against each
other, on random similarity systems.

Every lane runs the same recursion over its own rows: the float lane in log
space, the exact lanes on the weights themselves.  The float logs must equal
the exact lanes' logs (through float_log), and the float sandwich margins
(log rhs - log lhs) must equal the logs of a reference chain built from the
exact lanes' sums and brute-force connector products.
"""

import math
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import partition_sums
from words import weight_fn

from rcgdms.driving import DrivingOrbit, periodic
from rcgdms.gdms import similarity_system
from rcgdms.potentials import float_log, geometric_potential
from rcgdms.shift import find_primitivity, from_matrix
from rcgdms.thermo import SANDWICH_TOL, _connector_bound, _lane, check_sandwich

TOL = 1e-12


def close(got, want, *scales):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= TOL * max([1.0] + [abs(x) for x in scales if math.isfinite(x)])


@st.composite
def systems(draw, scale):
    """A random primitive incidence on 2-4 scattered symbols, 1-3 periodic
    fiber states with rational ratios in (0, 1), the geometric potential at
    the drawn scale, an anchor, a depth and an orbit."""
    k = draw(st.integers(2, 4))
    symbols = tuple(sorted(draw(st.sets(st.integers(0, 30), min_size=k, max_size=k))))
    # a Hamiltonian cycle with one self-loop is primitive; random extra edges
    rows = [[int(draw(st.booleans())) for _ in symbols] for _ in symbols]
    for i in range(k):
        rows[i][(i + 1) % k] = 1
    rows[0][0] = 1
    states = tuple(range(draw(st.integers(1, 3))))
    ratio = st.builds(Fraction, st.integers(1, 9), st.just(10))
    ratios = {s: {e: draw(ratio) for e in symbols} for s in states}
    offsets = {s: dict.fromkeys(symbols, 0.0) for s in states}
    system = similarity_system(from_matrix(symbols, rows), periodic(states), ratios, offsets)
    pot = geometric_potential(system).scaled(draw(scale))
    orbit = DrivingOrbit(system.driving, draw(st.integers(0, 5)))
    return pot, orbit, draw(st.sampled_from(symbols)), draw(st.integers(1, 4))


def reference_chain(pot, orbit, anchor, n, witness, arithmetic):
    """(lhs, rhs) of every inequality of check_sandwich's chain, in its
    order, from the lane's partition sums and connector products taken word
    by word."""
    system, symbols, N = pot.system, pot.system.edges, witness.order

    def sums(depth, position):
        return partition_sums(symbols, pot, orbit, anchor, depth, position, arithmetic)

    base, deeper = sums(n, 0), sums(N + n, 0)
    op_shifted, op_forward, l_shifted = sums(2 * N + 1 + n, -(N + 1)), sums(N + 1 + n, 0), sums(n, N + 1)
    weight = weight_fn(pot, arithmetic)
    states = orbit.system.state_support()
    C = max(max(weight(st, e), 1 / weight(st, e)) for st in states for e in witness.connector_alphabet) ** N

    def product(word, p):
        return reduce(lambda x, y: x * y, [weight(orbit.state(p + j), e) for j, e in enumerate(word)])

    anchored = [(anchor,) + w for w in witness.connectors if system.is_admissible((anchor,) + w)]
    R_back = min(product(w, -(N + 1)) for w in anchored)
    R_fwd = min(product(w, 0) for w in anchored)
    Rn = min(product(w, n) for w in witness.connectors)
    return [
        (base["operator"], base["anchored_sup"]),
        (base["anchored_sup"], base["return"]),
        (base["return"], base["all"]),
        (base["all"], C * deeper["return"]),
        (C * deeper["return"], C / R_back * op_shifted["operator"]),
        (R_fwd * l_shifted["return"], op_forward["operator"]),
        (Rn * base["all"], deeper["return"]),
    ]


def assert_lane_matches_float(pot, orbit, anchor, n, arithmetic):
    system, symbols = pot.system, pot.system.edges
    witness = find_primitivity(system, symbols, max_order=8)
    for depth, position in ((n, 0), (n + 2, -3)):
        flt = partition_sums(symbols, pot, orbit, anchor, depth, position)
        ext = partition_sums(symbols, pot, orbit, anchor, depth, position, arithmetic)
        for key in ("anchored_sup", "return", "operator", "all"):
            want = float_log(ext[key])
            assert close(flt[key], want, want), (key, depth, position)

    flt = check_sandwich(symbols, pot, orbit, anchor, n)
    ext = check_sandwich(symbols, pot, orbit, anchor, n, arithmetic=arithmetic)
    chain = reference_chain(pot, orbit, anchor, n, witness, arithmetic)
    assert [name for name, _ in flt.inequalities] == [name for name, _ in ext.inequalities]
    for (name, got), (_, exact_margin), (lhs, rhs) in zip(flt.inequalities, ext.inequalities, chain):
        log_lhs, log_rhs = float_log(lhs), float_log(rhs)
        want = 0.0 if lhs == rhs else log_rhs - log_lhs  # 0 <= 0 holds with margin 0
        assert close(got, want, log_lhs, log_rhs), (name, got, want)
        if arithmetic == "fraction":
            assert exact_margin == float(rhs - lhs), name
        else:
            assert close(exact_margin, float(rhs - lhs), float(lhs), float(rhs)), name

    conn = tuple(sorted(witness.connector_alphabet))
    states = orbit.system.state_support()
    bound = _connector_bound(_lane(pot, "float"), conn, states)
    exact_bound = _connector_bound(_lane(pot, arithmetic), conn, states)
    assert close(bound, float_log(exact_bound), bound)


@settings(max_examples=40, deadline=None)
@given(systems(st.integers(-3, 3)))
def test_float_lane_matches_the_fraction_lane(case):
    assert_lane_matches_float(*case, "fraction")


@settings(max_examples=25, deadline=None)
@given(systems(st.floats(-3.0, 3.0, allow_nan=False).filter(lambda s: s != int(s))))
def test_float_lane_matches_the_mpf_lane_at_non_integer_scales(case):
    assert_lane_matches_float(*case, "mpf")


def test_sandwich_holding_with_equality_is_ok_on_the_float_lane():
    """All weights 1 (scale 0) on a 3-symbol incidence: the comparability
    chain holds with equality, and the float lane's log margins round to
    -2.2e-16, inside SANDWICH_TOL.  The Fraction and mpf lanes read 0 and
    keep the exact-sign check."""
    symbols = (0, 1, 2)
    ratios = {0: dict.fromkeys(symbols, Fraction(1, 10))}
    system = similarity_system(
        from_matrix(symbols, [[1, 1, 0], [0, 0, 1], [1, 0, 0]]), periodic((0,)), ratios, {0: dict.fromkeys(symbols, 0.0)}
    )
    pot = geometric_potential(system).scaled(0)
    orbit = DrivingOrbit(system.driving, 0)
    flt = check_sandwich(symbols, pot, orbit, 2, 1)
    assert flt.ok and -SANDWICH_TOL <= flt.worst <= 0.0, flt.inequalities
    for arithmetic in ("fraction", "mpf"):
        exact = check_sandwich(symbols, pot, orbit, 2, 1, arithmetic=arithmetic)
        assert exact.ok and exact.worst == 0.0 and exact.tolerance == 0.0
