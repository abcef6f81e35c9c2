"""Fiberwise partition sums and relative topological pressure.

Four approximants of the pressure are implemented over a finite symbol set F
with anchor symbol e:

  Z  -- anchored words (first symbol e, last symbol may return to e), each
        weighted by the cylinder sup of the Birkhoff sum;
  L  -- return-constrained words weighted at the anchored point (any point
        of the word's cylinder: the weights are constant on cylinders);
  Lop -- the n-th transfer-operator iterate of the anchor-cylinder indicator
        at the anchored point (same word set as Z, anchored weights);
  A  -- all words, cylinder sup weights.

They share one exponential growth rate; the sandwich chain bounding each by
the next with explicit constants is checked inequality by inequality, in
Fraction or high-precision arithmetic when requested.

Every potential is constant on 1-cylinders, so the four sums are row and
column sums of the transfer product prod_j D_{omega_j} M^T (D the diagonal
of per-symbol weights at fiber omega_j, M the incidence matrix), built one
symbol at a time, and the distortion constant B of the chain is 1.  One code
path serves float (log space), Fraction and mpf arithmetic.

`_route` alone picks the pressure route of a symbol set, once for all the
scales of a `pressure` or `pressures` call.  Product structure (every pair
of the symbols admissible) gives the marginal expectation of the log
transfer sum, at every scale in one evaluation; periodic driving (a fixed
fiber is a cycle) over at most 128 symbols gives the spectral radius of the
weighted transition matrix (cycle product) and, on request, the slope of
the pressure in s from the Perron vectors of that product.  Radius and vectors
come from a power iteration certified by its Collatz-Wielandt bracket, and
from an eigenvalue solve only where the bracket does not close.  The Monte
Carlo route averages depth-extrapolated slopes log A_n / n over independent
orbits; all orbits run through the same recursion in one batched pass, and
every depth is read off the way to the deepest.  The orbits come as one
family, whose matrix of drawn states is built once per depth and then read
at every scale and symbol set.

What the shift and the driving determine is derived here alone, once per
potential, into the table that scaled copies share: the Monte Carlo orbit
family and each symbol set's primitivity witness (`primitivity_witness`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .driving import DrivingOrbit, OrbitFamily, orbit_family
from .potentials import FirstSymbolPotential, float_log, log_sum_exp
from .shift import PrimitivityWitness, find_primitivity


def primitivity_witness(potential: FirstSymbolPotential, symbols: Sequence[int]) -> PrimitivityWitness:
    """The least-order primitivity witness of the symbol set in the
    potential's shift, up to order 8, searched once per sorted symbol tuple;
    ValueError when the set has none."""
    symbols = tuple(sorted(symbols))
    # False: searched and none found (the table reads a stored None as a miss)
    witness = potential._cached(("witness", symbols), lambda: find_primitivity(potential.system, symbols, 8) or False)
    if not witness:
        raise ValueError("symbol set is not finitely primitive")
    return witness


@dataclass(frozen=True)
class PartitionSums:
    """Log values of the four depth-n partition sums at one orbit position."""

    depth: int
    anchor: int
    symbols: tuple[int, ...]
    position: int
    log_anchored_sup: float  # Z
    log_return: float  # L
    log_operator: float  # Lop
    log_all: float  # A
    exact: Optional[dict] = None


@dataclass(frozen=True)
class _Lane:
    """One arithmetic for the transfer recursion and the sandwich chain:
    numbers and operators only, with the per-symbol weights read from the
    potential's rows.

    The float lane carries logs: `one` is 0, `mul` adds, `div` subtracts,
    `power` multiplies and `total` is the log-sum-exp.  The Fraction and mpf
    lanes carry the values themselves, in numpy object arrays.  Either way
    `total` sums over the last axis, and the margin of lhs <= rhs is
    rhs - lhs.
    """

    exact: bool
    zero: object
    one: object
    weights: Callable  # (state, symbols) -> per-symbol weights
    mul: Callable
    div: Callable
    power: Callable
    total: Callable  # array -> sum over its last axis
    log: Callable  # lane number -> float log


def _lane(potential: FirstSymbolPotential, arithmetic: str) -> _Lane:
    if arithmetic == "float":
        return _Lane(
            exact=False,
            zero=-math.inf,
            one=0.0,
            weights=potential.log_weights,
            mul=operator.add,
            div=operator.sub,
            power=operator.mul,
            total=log_sum_exp,
            log=float,
        )
    import mpmath  # imported here because only the exact lanes use it

    zero, one = (Fraction(0), Fraction(1)) if arithmetic == "fraction" else (mpmath.mpf(0), mpmath.mpf(1))
    return _Lane(
        exact=True,
        zero=zero,
        one=one,
        weights=lambda state, symbols: potential.exact_weights(state, symbols, arithmetic),
        mul=operator.mul,
        div=operator.truediv,
        power=operator.pow,
        total=lambda v: v.sum(axis=-1, initial=zero),
        log=float_log,
    )


def _connector_bound(lane: _Lane, conn: tuple, states) -> object:
    """e^K: the largest of w and 1/w over the weights of the connector
    symbols `conn` at the fiber states; on the float lane, the largest
    |log weight|."""
    w = np.array([lane.weights(st, conn) for st in states])
    return np.maximum(w, lane.div(lane.one, w)).max()


def _transfer_steps(lane: _Lane, adm: np.ndarray, weights, rows=True):
    """Yield v_1 = w_0 on the start rows, then v_{j+1} = w_j * (M^T v_j): per
    row and last symbol b, the total weight of the admissible words ending in
    b.  Each w_j (weights[j]) broadcasts against the rows, so one loop runs
    one orbit from several start rows or many orbits from one."""
    into = adm.T  # per target symbol, the symbols that may precede it
    v = np.where(rows, weights[0], lane.zero)
    yield v
    for w in weights[1:]:
        v = lane.mul(w, lane.total(np.where(into, v[..., None, :], lane.zero)))
        yield v


def _sums(lane: _Lane, symbols, potential, orbit, anchor, n, position) -> dict:
    """Z, L, Lop and A at depth n and orbit position `position`, as lane
    numbers.

    The recursion runs from two start rows, every first symbol and the anchor
    alone (the anchored words).  The sums add v_n over every last symbol (A)
    or over those that may precede the anchor (L; Z = Lop for the anchored
    words).
    """
    if anchor not in symbols:
        raise ValueError("anchor symbol must belong to the symbol set")
    if n < 1:
        raise ValueError("depth must be >= 1")
    adm = potential.admissibility(symbols)
    rows = np.array([[True] * len(symbols), [e == anchor for e in symbols]])
    weights = [lane.weights(orbit.state(position + j), symbols) for j in range(n)]
    *_, (every, anchored) = _transfer_steps(lane, adm, weights, rows)
    back = adm[:, symbols.index(anchor)]
    z = lane.total(anchored[back])
    return {"anchored_sup": z, "return": lane.total(every[back]), "operator": z, "all": lane.total(every)}


def partition_sums(
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    anchor: int,
    n: int,
    position: int = 0,
    arithmetic: str = "float",
) -> PartitionSums:
    """Depth-n partition sums Z, L, Lop and A at one orbit position.

    The potential factors over symbols, so the sums are row and column sums
    of the transfer product prod_j D_{omega_j} M^T, built one symbol at a
    time in O(n |F|^2).  Empty admissible sets contribute 0 (log value
    -inf).  The "fraction" and "mpf" arithmetic modes return the exact sums
    alongside the float logs for provably signed comparisons.
    """
    symbols = tuple(sorted(symbols))
    lane = _lane(potential, arithmetic)
    sums = _sums(lane, symbols, potential, orbit, anchor, n, position)
    return PartitionSums(
        depth=n,
        anchor=anchor,
        symbols=symbols,
        position=position,
        log_anchored_sup=lane.log(sums["anchored_sup"]),
        log_return=lane.log(sums["return"]),
        log_operator=lane.log(sums["operator"]),
        log_all=lane.log(sums["all"]),
        exact=sums if lane.exact else None,
    )


# ---------------------------------------------------------------------------
# Sandwich chain
# ---------------------------------------------------------------------------


# Rounding slack of a float-lane sandwich margin: the log margins of a chain
# that holds with equality can read -2.2e-16.
SANDWICH_TOL = 1e-12


@dataclass(frozen=True)
class SandwichReport:
    """Margins (rhs - lhs, or log rhs - log lhs for the float path) of every
    inequality in the comparability chain; margins >= -tolerance everywhere
    certify the chain at this depth.  The tolerance is SANDWICH_TOL on the
    float lane, whose margins are log differences, and 0 on the Fraction and
    mpf lanes, whose margins are differences of the sums themselves and so
    take their scale."""

    depth: int
    anchor: int
    inequalities: tuple[tuple[str, float], ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(m >= -self.tolerance for _, m in self.inequalities)

    @property
    def worst(self) -> float:
        return min(m for _, m in self.inequalities)


def check_sandwich(
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    anchor: int,
    n: int,
    arithmetic: str = "float",
) -> SandwichReport:
    """Verify the full comparability chain at depth n.

    Chain (log scale): Lop_n <= Z_n <= B*L_n <= B*A_n
      <= B^3 * e^{N*K} * L_{N+n}
      <= B^3 * e^{N*K} / R * Lop_{2N+1+n} at the orbit shifted back by N+1,
    plus the two direct connector bounds
      Lop_{N+1+n}(omega) >= R * L_n(theta^{N+1} omega) and
      L_{N+n}(omega) >= R_n * A_n(omega).
    The potential is constant on 1-cylinders, so the distortion constant B is
    1: the margins are computed without it, and the inequality names keep it.
    """
    symbols = tuple(sorted(symbols))
    system = potential.system
    witness = primitivity_witness(potential, symbols)
    N = witness.order
    lane = _lane(potential, arithmetic)
    mul = lane.mul

    def sums(depth, position):
        return _sums(lane, symbols, potential, orbit, anchor, depth, position)

    base = sums(n, 0)
    deeper = sums(N + n, 0)
    op_shifted = sums(2 * N + 1 + n, -(N + 1))
    op_forward = sums(N + 1 + n, 0)
    l_shifted = sums(n, N + 1)

    conn = tuple(sorted(witness.connector_alphabet))
    C = lane.power(_connector_bound(lane, conn, orbit.system.state_support()), N)  # e^{NK}

    # R at fiber position p: min over connectors w with anchor*w admissible of
    # the weight product over [anchor w]; R_n: the same over [w]
    letters = tuple(sorted(witness.connector_alphabet | {anchor}))
    column = {e: i for i, e in enumerate(letters)}

    def connector_min(words, p):
        rows = [lane.weights(orbit.state(p + j), letters).tolist() for j in range(max(map(len, words)))]
        return min(reduce(mul, [rows[j][column[e]] for j, e in enumerate(w)]) for w in words)

    anchored = [
        (anchor,) + w
        for w in witness.connectors
        if system.admissible_pair(anchor, w[0]) and system.is_admissible((anchor,) + w)
    ]
    R_back = connector_min(anchored, -(N + 1))
    R_fwd = connector_min(anchored, 0)
    Rn = connector_min(witness.connectors, n)

    chain = (
        ("operator<=anchored_sup", base["operator"], base["anchored_sup"]),
        ("anchored_sup<=B*return", base["anchored_sup"], base["return"]),
        ("B*return<=B*all", base["return"], base["all"]),
        ("B*all<=B^3 e^{NK} deeper_return", base["all"], mul(C, deeper["return"])),
        (
            "deeper_return<=.../R operator_shifted",
            mul(C, deeper["return"]),
            mul(lane.div(C, R_back), op_shifted["operator"]),
        ),
        ("comparability: operator>=R*return_shifted", mul(R_fwd, l_shifted["return"]), op_forward["operator"]),
        ("comparability: deeper_return>=R_n*all", mul(Rn, base["all"]), deeper["return"]),
    )
    # two empty sums (0 <= 0) hold with margin 0, where the float lane's
    # -inf - -inf would read nan
    margins = tuple((name, 0.0 if lhs == rhs else float(rhs - lhs)) for name, lhs, rhs in chain)
    tolerance = SANDWICH_TOL if arithmetic == "float" else 0.0
    return SandwichReport(depth=n, anchor=anchor, inequalities=margins, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Pressure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureEstimate:
    value: float
    method: str  # "exact-product" | "exact-spectral" | "monte-carlo"
    depths: tuple[int, ...] = ()
    per_depth: tuple[float, ...] = ()
    spread: float = 0.0
    slope: Optional[float] = None  # p'(s), on request: exact-spectral where certified, exact-product
    curvature: Optional[float] = None  # p''(s), on request: exact-product only

    @property
    def exact(self) -> bool:
        return self.method.startswith("exact")


def _route(symbols: Optional[Sequence[int]], potential: FirstSymbolPotential) -> str:
    """The route of the pressure over the symbols (None: the whole alphabet,
    only on a full shift): "exact-product" where every pair of them is
    admissible, "exact-spectral" under periodic driving (a fixed fiber is the
    cycle of length one) over at most 128 symbols, else "monte-carlo"."""
    if potential.driving is None:
        raise ValueError("pressure needs the potential's driving system")
    full = potential.system.incidence is None
    if symbols is None and not full:
        raise ValueError("non-product systems need an explicit finite symbol set")
    if full or potential.admissibility(tuple(sorted(symbols))).all():
        return "exact-product"
    spectral = potential.driving.kind == "periodic" and len(symbols) <= 128
    return "exact-spectral" if spectral else "monte-carlo"


def _product_pressure(symbols: Optional[Sequence[int]], potential: FirstSymbolPotential, scales, slope=False):
    """The driving expectation of the log transfer sums over the symbols
    (None: the whole alphabet; else every pair of them is admissible) at one
    scale, or at each of a 1-D array of scales with the bits of the
    one-scale value; with `slope`, (p, p', p'') from one expectation over
    the kernel's (3 x states) rows."""
    rung = None if symbols is None else tuple(sorted(symbols))
    if rung == ():
        raise ValueError("symbol set must be nonempty")
    drv = potential.driving
    return drv.expected(potential.product_sums(scales, drv.state_support(), rung, slope))


def _spectral_pressure(
    symbols: Sequence[int], potential: FirstSymbolPotential, cycle: Sequence, slope: bool = False
) -> PressureEstimate:
    """Pressure over a k-state cycle, (sum_j shift_j + log rho(P)) / k, where
    P = A_k ... A_1, A_j = diag(exp(s b_j - shift_j)) M^T and shift_j is the
    largest log weight of step j.

    rho comes from the certified power iteration `_perron_root`, and from
    the eigenvalues of P only where that returns nothing.  With `slope`,
    also p'(s) from the Perron vectors of the same P (`_perron_slope`): the
    right vector of that iteration and the left one of the same iteration
    on P^T, when both certify."""
    symbols = tuple(sorted(symbols))
    adm_t = potential.admissibility(symbols).T
    shift_total = 0.0
    steps = []
    for st in cycle:
        logs = potential.log_weights(st, symbols)
        shift = logs.max()
        shift_total += shift
        steps.append(np.exp(logs - shift)[:, None] * adm_t)
        prod = steps[-1] @ prod if len(steps) > 1 else steps[0]
    root = _perron_root(prod)
    rho = np.abs(np.linalg.eigvals(prod)).max() if root is None else root[0]
    if rho == 0.0:
        return PressureEstimate(value=-math.inf, method="exact-spectral")
    derivative = None
    if slope:
        left = None if root is None else _perron_root(prod.T)
        vectors = None if left is None else (root[1], left[1])
        unit = potential.scaled(1.0)
        derivative = _perron_slope(prod, rho, steps, [unit.log_weights(st, symbols) for st in cycle], vectors)
    return PressureEstimate(
        value=float((shift_total + math.log(rho)) / len(cycle)), method="exact-spectral", slope=derivative
    )


def _perron_root(prod: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
    """(rho, v): the Perron root of a nonnegative P and a positive vector v
    with Pv = rho v to 1e-15 relative, or None.

    Power iteration from the ones vector.  For positive v the
    Collatz-Wielandt bracket min_i (Pv)_i / v_i <= rho <= max_i (Pv)_i / v_i
    holds, so rho is accepted once the bracket has closed to 1e-15 relative.
    The iteration gives up on a ratio that is not > 0 (zero rows, as where
    the weights underflow) and after 24 steps (a small spectral gap).  It
    is not tried below order 16, where one eigenvalue solve costs fewer
    steps (about 4 at order 8) than a certificate takes (a median of 7 on
    64 x 64 cycle products)."""
    if len(prod) < 16:
        return None
    v = np.ones(len(prod))
    for _ in range(24):
        w = prod @ v
        ratio = w / v
        lo, hi = ratio.min(), ratio.max()
        if not 0.0 < lo <= hi < math.inf:
            return None
        if hi - lo <= 1e-15 * hi:
            return 0.5 * (lo + hi), v
        v = w / hi
    return None


def _perron_slope(
    prod: np.ndarray, rho: float, steps: list, rates: list, vectors: Optional[tuple] = None
) -> Optional[float]:
    """(1/k) sum_j <u_j, b_j * A_j v_j> / <u_j, A_j v_j>, the first-order
    perturbation of the Perron root of P = A_k ... A_1 under dA_j/ds =
    diag(b_j) A_j.  v_j = A_{j-1} ... A_1 v and u_j = u^T A_k ... A_{j+1}
    carry the right and left Perron vectors v, u of P through the cycle.

    `vectors` (v, u), certified by `_perron_root`, are used as they are.
    Otherwise v and u come from one inverse-iteration solve each against
    P - rho (1 + 1e-10) I, and are accepted only when |Pv - rho v| and
    |u^T P - rho u^T| are within 1e-8 rho entrywise (max-normalised).
    Where they are refused, and wherever the ratio is not finite, as where
    the weights underflow, the slope is None."""
    with np.errstate(all="ignore"):  # a failed vector ends as inf or nan, and is refused below
        if vectors is None:
            shifted = prod - rho * (1.0 + 1e-10) * np.eye(len(prod))
            ones = np.ones(len(prod))
            try:
                v, u = np.linalg.solve(shifted, ones), np.linalg.solve(shifted.T, ones)
            except np.linalg.LinAlgError:
                return None
            v, u = v / v[np.argmax(np.abs(v))], u / u[np.argmax(np.abs(u))]
            residual = max(np.abs(prod @ v - rho * v).max(), np.abs(u @ prod - rho * u).max())
            if not residual <= 1e-8 * rho:
                return None
        else:
            v, u = vectors
        forward = [v]
        for a in steps[:-1]:
            x = a @ forward[-1]
            forward.append(x / x.max())
        backward = [u]
        for a in steps[:0:-1]:
            y = backward[-1] @ a
            backward.append(y / y.max())
        total = 0.0
        for a, b, x, y in zip(steps, rates, forward, backward[::-1]):
            ax = a @ x
            total += (y @ (b * ax)) / (y @ ax)
    slope = float(total) / len(steps)
    return slope if math.isfinite(slope) else None


def _mc_log_all(symbols, potential, orbits: OrbitFamily, depths) -> np.ndarray:
    """log A_n at orbit position 0, one row per depth and one column per orbit.

    Every orbit runs through one recursion over a log-weight table of the
    states the family drew, and log A_n is read after the steps n in depths.
    """
    lane = _lane(potential, "float")
    used, inverse = orbits.state_matrix(depths[-1])
    table = np.array([lane.weights(orbits.system.states[i], symbols) for i in used])
    steps = _transfer_steps(lane, potential.admissibility(symbols), table[inverse])
    wanted = set(depths)
    return lane.total(np.stack([v for n, v in enumerate(steps, 1) if n in wanted]))


MC_DEPTHS = (4, 5, 6, 7, 8)  # the Monte Carlo route's depths; its fit reads the deepest three
MC_ORBITS = 16  # the Monte Carlo route's orbits, seeded from root 0


def _mc_pressure(symbols, potential: FirstSymbolPotential, orbits: OrbitFamily, depths=MC_DEPTHS) -> PressureEstimate:
    """Depth-extrapolated Monte Carlo pressure across the orbits of a family,
    reported with the cross-orbit spread: one batched pass to max(depths)
    yields log A_n at every orbit and depth, and value = p + c/n is fitted
    per orbit over the deepest three of the depths, which must be strictly
    increasing integers >= 1."""
    depths = tuple(depths)
    integral = all(isinstance(n, (int, np.integer)) for n in depths)
    if not (depths and integral and depths[0] >= 1 and all(a < b for a, b in zip(depths, depths[1:]))):
        raise ValueError(f"depths must be strictly increasing integers >= 1, got {depths}")
    ns = np.array(depths)
    # Per orbit, the intercept p of p + c/n over the deepest three depths: the
    # sandwich constants bias every approximant by O(1/n).  An orbit with no
    # admissible word has pressure -inf.
    per_depth = _mc_log_all(tuple(sorted(symbols)), potential, orbits, depths) / ns[:, None]
    fit = per_depth[-3:]
    empty = np.isneginf(fit).any(axis=0)
    per_orbit = fit[0] if len(fit) == 1 else np.polyfit(1.0 / ns[-3:], np.where(empty, 0.0, fit), 1)[1]
    per_orbit = np.where(empty, -np.inf, per_orbit)
    mean_per_depth = tuple(per_depth.mean(axis=1).tolist())
    spread = 0.0  # also when every orbit is empty: they agree exactly
    if len(per_orbit) > 1 and not empty.all():
        spread = math.inf if empty.any() else float(np.std(per_orbit, ddof=1))
    return PressureEstimate(
        value=float(np.mean(per_orbit)),
        method="monte-carlo",
        depths=depths,
        per_depth=mean_per_depth,
        spread=spread,
    )


def _pressures(symbols, potential: FirstSymbolPotential, scales, slope=False) -> list[PressureEstimate]:
    """The body of `pressure` (scales None: the potential's own scale, as it
    is) and `pressures`: one route for every scale."""
    route = _route(symbols, potential)
    if route == "exact-product":
        got = _product_pressure(symbols, potential, potential.scale if scales is None else np.array(scales, dtype=float), slope)
        if not slope:
            return [PressureEstimate(value=v, method=route) for v in np.atleast_1d(got).tolist()]
        given = lambda d: d if math.isfinite(d) else None
        return [PressureEstimate(v, route, slope=given(d1), curvature=given(d2)) for v, d1, d2 in np.reshape(got, (-1, 3)).tolist()]
    scaled = [potential] if scales is None else [potential.scaled(s) for s in scales]
    if route == "exact-spectral":
        return [_spectral_pressure(symbols, p, potential.driving.states, slope) for p in scaled]
    orbits = potential._cached(("mc_orbits",), lambda: orbit_family(potential.driving, MC_ORBITS, 0))
    return [_mc_pressure(symbols, p, orbits) for p in scaled]


def pressure(
    symbols: Optional[Sequence[int]],
    potential: FirstSymbolPotential,
    slope: bool = False,
) -> PressureEstimate:
    """Relative pressure of the potential over a finite symbol set of its
    shift (None: the whole alphabet, only on a full shift), on the route
    `_route` picks.  The Monte Carlo route reads one family of MC_ORBITS
    orbits of the potential's driving, drawn once into the table that
    scaled copies share.  With `slope`, the exact-spectral route also
    fills `slope` with p'(s) from the Perron vectors of its cycle product
    where they certify, and the exact-product route fills `slope` and
    `curvature` with p'(s) and p''(s) from its kernel call, where they are
    finite; the Monte Carlo route leaves both None."""
    return _pressures(symbols, potential, None, slope)[0]


def pressures(
    symbols: Optional[Sequence[int]],
    potential: FirstSymbolPotential,
    scales: Sequence[float],
) -> list[PressureEstimate]:
    """pressure(symbols, potential.scaled(s)) for each s of
    `scales`, in order, on one route; on the exact-product route from one
    evaluation of the atom table, with the bits of the one-scale call."""
    return _pressures(symbols, potential, scales)


@dataclass(frozen=True)
class CompactApproximation:
    rung_values: tuple[float, ...]
    limit: float
    anchor: Optional[float]  # exact full-alphabet value, when available
    monotone: bool


def pressure_compact_approx(ladder: Sequence[tuple[int, ...]], potential: FirstSymbolPotential) -> CompactApproximation:
    """Increasing finite-subalphabet pressures and their limit.

    When the full-alphabet transfer sums have closed form (product systems,
    analytic tails) the exact value is the limit, +inf where the potential is
    not summable; otherwise the limit is the last rung's pressure.
    """
    values = [pressure(rung, potential).value for rung in ladder]
    monotone = all(values[i + 1] >= values[i] - 1e-9 for i in range(len(values) - 1))
    anchor = _product_pressure(None, potential, potential.scale) if potential.system.incidence is None else None
    return CompactApproximation(
        rung_values=tuple(values),
        limit=values[-1] if anchor is None else anchor,
        anchor=anchor,
        monotone=monotone,
    )


# ---------------------------------------------------------------------------
# Gibbs property
# ---------------------------------------------------------------------------


# Rounding slack of the log ratio of a cylinder's mass to its Gibbs weight.
GIBBS_TOL = 1e-12


@dataclass(frozen=True)
class GibbsReport:
    checked: int
    violations: int
    max_upper_excess: float  # max of ratio/B - 1 over cylinders (<= 0 when ok)
    min_lower_slack: float  # min of ratio/lower - 1 over cylinders (>= 0 when ok)
    worst_ratio_deviation: float  # max |ratio - 1| (diagnostic for product systems)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_gibbs(
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    measures,
    log_eigenvalues: Sequence[float],
    depth: int,
) -> GibbsReport:
    """Two-sided Gibbs bracket for every cylinder up to the given depth.

    measures[0] supplies cylinder masses at the base orbit position; the
    partial sums of log_eigenvalues play the role of the accumulated
    normalization.  The ratio of a cylinder's mass to exp(S_n f - log P_n)
    lies in [lower, B], with B = 1 (the potential is constant on 1-cylinders)
    and lower = 1 / (e^{2NK} * N * prod_{i<2N} M(omega_{n+i})).  The Birkhoff
    sums are carried down the measure's word tree, one level at a time.
    """
    symbols = tuple(sorted(symbols))
    base = measures[0]
    if symbols != base.symbols:
        raise ValueError("the measures live on a different symbol set")
    witness = primitivity_witness(potential, symbols)
    N = witness.order
    conn = tuple(sorted(witness.connector_alphabet))
    K = _connector_bound(_lane(potential, "float"), conn, orbit.system.state_support())
    checked = violations = 0
    max_up = -math.inf
    min_lo = math.inf
    worst_dev = 0.0
    birkhoff = np.zeros(1)  # Birkhoff sums of the current level's words
    for n in range(1, min(depth, base.depth) + 1):
        log_pn = math.fsum(log_eigenvalues[:n])
        log_lower = -(
            2 * N * K
            + math.log(N)
            + math.fsum(
                potential.unit_transfer_bounds(orbit.state(n + i), symbols)[0]
                for i in range(2 * N)
            )
        )
        parent, last = base.tree.parent[n - 1], base.tree.last[n - 1]
        birkhoff = birkhoff[parent] + potential.log_weights(orbit.state(n - 1), symbols)[last]
        log_mass = np.array([math.log(m) if m > 0.0 else -math.inf for m in base.levels[n - 1].tolist()])
        keep = log_mass > -math.inf
        log_ratio = log_mass[keep] - (birkhoff[keep] - log_pn)
        lo_slack = log_ratio - log_lower
        checked += int(keep.sum())
        max_up = max(max_up, float(log_ratio.max(initial=-math.inf)))
        min_lo = min(min_lo, float(lo_slack.min(initial=math.inf)))
        worst_dev = max(worst_dev, float(np.abs(log_ratio).max(initial=0.0)))
        violations += int(np.count_nonzero((log_ratio > GIBBS_TOL) | (lo_slack < -GIBBS_TOL)))
    return GibbsReport(
        checked=checked,
        violations=violations,
        max_upper_excess=max_up,
        min_lower_slack=min_lo,
        worst_ratio_deviation=worst_dev,
    )
