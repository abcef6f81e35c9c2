"""Fiberwise partition sums and relative topological pressure.

Four approximants of the pressure are implemented over a finite symbol set F
with anchor symbol e:

  Z  -- anchored words (first symbol e, last symbol may return to e), each
        weighted by the cylinder sup of the Birkhoff sum;
  L  -- return-constrained words weighted at the anchored point (the word
        continued by a standardized periodic tail);
  Lop -- the n-th transfer-operator iterate of the anchor-cylinder indicator
        at the anchored point (same word set as Z, anchored weights);
  A  -- all words, cylinder sup weights.

They share one exponential growth rate; the sandwich chain bounding each by
the next with explicit constants is checked inequality by inequality, in
Fraction or high-precision arithmetic when requested.

For cylinder-constant potentials the four sums are row and column sums of
the transfer product prod_j D_{omega_j} M^T (D the diagonal of per-symbol
weights at fiber omega_j, M the incidence matrix), built one symbol at a
time.  One code path serves float (log space), Fraction and mpf arithmetic.
Streamed word enumeration remains only for Hölder-widened bounds, which do
not factor over symbols.

Pressure evaluation prefers exact routes: product structure (full shift with
a cylinder-constant potential) gives the marginal expectation of the log
transfer sum; deterministic or periodic driving over a finite alphabet gives
the spectral radius of the weighted transition matrix (cycle product).  The
Monte Carlo route averages depth-extrapolated slopes log A_n / n over
independent orbits; for cylinder-constant potentials all orbits run through
the same recursion in one batched pass, and every depth is read off the way
to the deepest.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from .driving import DrivingOrbit, DrivingSystem, orbit_family
from .potentials import FirstSymbolPotential, _expected, _log_incoming, float_log, log_sum_exp
from .shift import (
    PrimitivityWitness,
    SubalphabetLadder,
    SymbolicSystem,
    Word,
    enumerate_words,
    find_primitivity,
)


class _LogAccumulator:
    """Streaming log-sum-exp so exponentially many terms never materialize."""

    __slots__ = ("_max", "_sum")

    def __init__(self):
        self._max = -math.inf
        self._sum = 0.0

    def add(self, x: float):
        if x == -math.inf:
            return
        if x <= self._max:
            self._sum += math.exp(x - self._max)
        else:
            self._sum = self._sum * math.exp(self._max - x) + 1.0 if self._sum else 1.0
            self._max = x

    def value(self) -> float:
        if self._sum == 0.0:
            return -math.inf
        return self._max + math.log(self._sum)


def anchored_tail(
    system: SymbolicSystem,
    symbols: Sequence[int],
    anchor: int,
    witness: Optional[PrimitivityWitness],
    length: int,
) -> Word:
    """Prefix of the standardized anchored word: the anchor alternating with
    its lexicographically first self-connector.  Reproducible stand-in for the
    arbitrary cylinder point the anchored sums evaluate at."""
    if witness is None:
        witness = find_primitivity(system, symbols, max_order=8)
        if witness is None:
            raise ValueError("symbol set is not finitely primitive")
    loop = None
    for w in sorted(witness.connectors):
        if system.admissible_pair(anchor, w[0]) and system.admissible_pair(w[-1], anchor):
            loop = w
            break
    if loop is None:
        raise ValueError(f"no connector closes a loop at symbol {anchor}")
    out = []
    while len(out) < length:
        out.append(anchor)
        out.extend(loop)
    return tuple(out[:length])


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
    """One arithmetic for the transfer recursion and the sandwich chain.

    The float lane carries logs: `mul` adds, `div` subtracts, `power`
    multiplies and `push` is the per-target log-sum-exp.  The Fraction and
    mpf lanes carry the values themselves, in numpy object vectors.  Either
    way the margin of lhs <= rhs is rhs - lhs.
    """

    exact: bool
    zero: object
    weights: Callable  # (state, symbols) -> per-symbol weights
    mul: Callable
    div: Callable
    power: Callable
    push: Callable  # (rows, adm) -> per row and target, sum over admissible predecessors
    total: Callable  # vector -> sum of its entries
    log: Callable  # lane number -> float log
    cylinder_inf: Callable  # (orbit, position, word) -> inf of the weight product over [word]
    bounds: Callable  # (connector symbols, fiber states) -> (B, e^K)


def _lane(potential: FirstSymbolPotential, arithmetic: str) -> _Lane:
    if arithmetic == "float":
        return _Lane(
            exact=False,
            zero=-math.inf,
            weights=potential.log_weights,
            mul=operator.add,
            div=operator.sub,
            power=operator.mul,
            push=_log_incoming,
            total=log_sum_exp,
            log=float,
            cylinder_inf=lambda orbit, p, word: potential.sum_bounds(orbit, p, word)[1],
            bounds=lambda conn, states: (potential.log_distortion(), potential.sup_log_norm(conn)),
        )
    weight = potential.exact_weight_fn(arithmetic)
    zero, one = (Fraction(0), Fraction(1)) if arithmetic == "fraction" else (mpmath.mpf(0), mpmath.mpf(1))

    def bounds(conn, states):
        # exact weights exist only for Hölder-free potentials, so B = 1
        return one, max(max(weight(st, e), one / weight(st, e)) for st in states for e in conn)

    return _Lane(
        exact=True,
        zero=zero,
        weights=lambda state, symbols: np.array([weight(state, e) for e in symbols], dtype=object),
        mul=operator.mul,
        div=operator.truediv,
        power=operator.pow,
        push=lambda v, adm: np.where(adm.T > 0, v[..., None, :], zero).sum(axis=-1),
        total=lambda v: sum(v, zero),
        log=float_log,
        cylinder_inf=lambda orbit, p, word: reduce(
            operator.mul, (weight(orbit.state(p + j), e) for j, e in enumerate(word))
        ),
        bounds=bounds,
    )


def _transfer_steps(lane: _Lane, adm: np.ndarray, weights, rows=True):
    """Yield v_1 = w_0 on the start rows, then v_{j+1} = w_j * (M^T v_j): per
    row and last symbol b, the total weight of the admissible words ending in
    b.  Each w_j (weights[j]) broadcasts against the rows, so one loop runs
    one orbit from several start rows or many orbits from one."""
    v = np.where(rows, weights[0], lane.zero)
    yield v
    for w in weights[1:]:
        v = lane.mul(w, lane.push(v, adm))
        yield v


def _transfer_sums(lane: _Lane, potential, symbols, anchor, states) -> dict:
    """Z, L, Lop and A of a cylinder-constant potential as lane numbers.

    The recursion runs from two start rows, every first symbol and the anchor
    alone (the anchored words).  The sums add v_n over every last symbol (A)
    or over those that may precede the anchor (L; Z = Lop for the anchored
    words).
    """
    adm = potential.admissibility(symbols)
    rows = np.array([[True] * len(symbols), [e == anchor for e in symbols]])
    weights = [lane.weights(state, symbols) for state in states]
    *_, (every, anchored) = _transfer_steps(lane, adm, weights, rows)
    back = adm[:, symbols.index(anchor)] > 0
    z = lane.total(anchored[back])
    return {"anchored_sup": z, "return": lane.total(every[back]), "operator": z, "all": lane.total(every)}


def _enumerated_sums(system, symbols, potential, orbit, anchor, n, position, tail) -> dict:
    """Log Z, L, Lop and A of a Hölder-widened potential, word by word: its
    cylinder bounds do not factor over symbols."""
    acc_a, acc_z, acc_l, acc_op = (_LogAccumulator() for _ in range(4))
    for w in enumerate_words(system, symbols, n):
        sup, _ = potential.sum_bounds(orbit, position, w, n)
        ext_hi, ext_lo = potential.sum_bounds(orbit, position, w + tail, n)
        anchored = 0.5 * (ext_hi + ext_lo)
        acc_a.add(sup)
        if system.admissible_pair(w[-1], anchor):
            acc_l.add(anchored)
            if w[0] == anchor:
                acc_z.add(sup)
                acc_op.add(anchored)
    return {
        "anchored_sup": acc_z.value(),
        "return": acc_l.value(),
        "operator": acc_op.value(),
        "all": acc_a.value(),
    }


def _sums(lane, system, symbols, potential, orbit, anchor, n, position, witness, anchor_extension=12):
    """Z, L, Lop and A as lane numbers, by the recursion wherever the
    potential factors over symbols."""
    if anchor not in symbols:
        raise ValueError("anchor symbol must belong to the symbol set")
    if n < 1:
        raise ValueError("depth must be >= 1")
    if potential.exact_on_cylinders:
        states = [orbit.state(position + j) for j in range(n)]
        return _transfer_sums(lane, potential, symbols, anchor, states)
    tail = anchored_tail(system, symbols, anchor, witness, anchor_extension)
    return _enumerated_sums(system, symbols, potential, orbit, anchor, n, position, tail)


def partition_sums(
    system: SymbolicSystem,
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    anchor: int,
    n: int,
    position: int = 0,
    witness: Optional[PrimitivityWitness] = None,
    arithmetic: str = "float",
    anchor_extension: int = 12,
) -> PartitionSums:
    """Depth-n partition sums Z, L, Lop and A at one orbit position.

    A cylinder-constant potential factors over symbols, so the sums are row
    and column sums of the transfer product prod_j D_{omega_j} M^T, built
    one symbol at a time in O(n |F|^2).  Hölder-widened bounds do not
    factor; only they are summed by streamed word enumeration (float only).
    Empty admissible sets contribute 0 (log value -inf).  The "fraction" and
    "mpf" arithmetic modes return the exact sums alongside the float logs
    for provably signed comparisons.
    """
    symbols = tuple(sorted(symbols))
    lane = _lane(potential, arithmetic)
    sums = _sums(lane, system, symbols, potential, orbit, anchor, n, position, witness, anchor_extension)
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


@dataclass(frozen=True)
class SandwichReport:
    """Margins (rhs - lhs, or log rhs - log lhs for the float path) of every
    inequality in the comparability chain; nonnegative margins everywhere
    certify the chain at this depth."""

    depth: int
    anchor: int
    inequalities: tuple[tuple[str, float], ...]

    @property
    def ok(self) -> bool:
        return all(m >= 0 for _, m in self.inequalities)

    @property
    def worst(self) -> float:
        return min(m for _, m in self.inequalities)


def check_sandwich(
    system: SymbolicSystem,
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    anchor: int,
    n: int,
    witness: Optional[PrimitivityWitness] = None,
    arithmetic: str = "float",
) -> SandwichReport:
    """Verify the full comparability chain at depth n.

    Chain (log scale): Lop_n <= Z_n <= B*L_n <= B*A_n
      <= B^3 * e^{N*K} * L_{N+n}
      <= B^3 * e^{N*K} / R * Lop_{2N+1+n} at the orbit shifted back by N+1,
    plus the two direct connector bounds
      Lop_{N+1+n}(omega) >= R * L_n(theta^{N+1} omega) and
      L_{N+n}(omega) >= R_n * A_n(omega).
    """
    symbols = tuple(sorted(symbols))
    if witness is None:
        witness = find_primitivity(system, symbols, max_order=8)
        if witness is None:
            raise ValueError("symbol set is not finitely primitive")
    N = witness.order
    lane = _lane(potential, arithmetic)
    mul = lane.mul

    def sums(depth, position):
        return _sums(lane, system, symbols, potential, orbit, anchor, depth, position, witness)

    base = sums(n, 0)
    deeper = sums(N + n, 0)
    op_shifted = sums(2 * N + 1 + n, -(N + 1))
    op_forward = sums(N + 1 + n, 0)
    l_shifted = sums(n, N + 1)

    B, eK = lane.bounds(sorted(witness.connector_alphabet), orbit.system.state_support())
    C = mul(lane.power(B, 3), lane.power(eK, N))  # B^3 e^{NK}

    # R at fiber position p: min over connectors w with anchor*w admissible of
    # the inf of the (N+1)-sum over [anchor w]; R_n: the same over [w], over B
    def connector_inf(words, p):
        return min(lane.cylinder_inf(orbit, p, w) for w in words)

    anchored = [
        (anchor,) + w
        for w in witness.connectors
        if system.admissible_pair(anchor, w[0]) and system.is_admissible((anchor,) + w)
    ]
    R_back = connector_inf(anchored, -(N + 1))
    R_fwd = connector_inf(anchored, 0)
    Rn = lane.div(connector_inf(witness.connectors, n), B)

    chain = (
        ("operator<=anchored_sup", base["operator"], base["anchored_sup"]),
        ("anchored_sup<=B*return", base["anchored_sup"], mul(B, base["return"])),
        ("B*return<=B*all", mul(B, base["return"]), mul(B, base["all"])),
        ("B*all<=B^3 e^{NK} deeper_return", mul(B, base["all"]), mul(C, deeper["return"])),
        (
            "deeper_return<=.../R operator_shifted",
            mul(C, deeper["return"]),
            mul(lane.div(C, R_back), op_shifted["operator"]),
        ),
        ("comparability: operator>=R*return_shifted", mul(R_fwd, l_shifted["return"]), op_forward["operator"]),
        ("comparability: deeper_return>=R_n*all", mul(Rn, base["all"]), deeper["return"]),
    )
    return SandwichReport(
        depth=n, anchor=anchor, inequalities=tuple((name, float(rhs - lhs)) for name, lhs, rhs in chain)
    )


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
    raw_value: Optional[float] = None

    @property
    def exact(self) -> bool:
        return self.method.startswith("exact")


def _is_full_over(system: SymbolicSystem, symbols: Sequence[int]) -> bool:
    if system.incidence_kind == "full":
        return True
    return all(system.admissible_pair(a, b) for a in symbols for b in symbols)


def _product_pressure(
    potential: FirstSymbolPotential, driving: DrivingSystem, symbols: Optional[Sequence[int]]
) -> float:
    states = driving.state_support()
    return _expected(driving, states, potential.transfer_bounds(states, symbols)[0])


def _spectral_pressure(
    symbols: Sequence[int], potential: FirstSymbolPotential, cycle: Sequence
) -> float:
    symbols = tuple(sorted(symbols))
    adm = potential.admissibility(symbols)
    shift_total = 0.0
    prod = np.eye(len(symbols))
    for st in cycle:
        logs = potential.log_weights(st, symbols)
        shift = logs.max()
        shift_total += shift
        step = np.diag(np.exp(logs - shift)) @ adm.T
        prod = step @ prod
    rho = max(abs(np.linalg.eigvals(prod)))
    if rho == 0.0:
        return -math.inf
    return (shift_total + math.log(rho)) / len(cycle)


def _mc_log_all(system, symbols, potential, orbits, depths, witness) -> np.ndarray:
    """log A_n at orbit position 0, one row per depth and one column per orbit.

    A cylinder-constant potential runs every orbit through one recursion over
    a log-weight table of the drawn states, reading log A_n after each step;
    Hölder-widened bounds are summed per orbit and depth by word enumeration.
    """
    lane = _lane(potential, "float")
    if not potential.exact_on_cylinders:
        sums = [[_sums(lane, system, symbols, potential, o, min(symbols), n, 0, witness) for o in orbits] for n in depths]
        return np.array([[row["all"] for row in by_orbit] for by_orbit in sums])
    idx = np.array([o.state_indices(0, depths[-1]) for o in orbits]).T  # steps x orbits
    used, inverse = np.unique(idx, return_inverse=True)
    table = np.array([lane.weights(orbits[0].system.states[i], symbols) for i in used])
    steps = _transfer_steps(lane, potential.admissibility(symbols), table[inverse.reshape(idx.shape)])
    sink = np.ones((len(symbols), 1))  # every last symbol enters one sink: its value is log A_n
    return np.array([_log_incoming(v, sink)[:, 0] for v in steps])[np.array(depths) - 1]


def pressure(
    system: SymbolicSystem,
    symbols: Optional[Sequence[int]],
    potential: FirstSymbolPotential,
    orbits: Optional[Sequence[DrivingOrbit]] = None,
    depths: Sequence[int] = (4, 5, 6, 7, 8),
    method: str = "auto",
    witness: Optional[PrimitivityWitness] = None,
) -> PressureEstimate:
    """Relative pressure of the potential over a finite symbol set (or the
    whole alphabet for product-structure systems when symbols is None).

    Route selection: product structure and deterministic/periodic transfer
    matrices are exact; otherwise depth-extrapolated Monte Carlo across
    orbits (default: 16 seeded from root 0), reported with the cross-orbit
    spread: one batched pass to max(depths) yields log A_n at every orbit and
    depth, and value = p + c/n is fitted per orbit over the deepest three of
    the depths, which must be strictly increasing integers >= 1.
    """
    drv = potential.driving
    if drv is None:
        raise ValueError("pressure needs the potential's driving system")
    full = symbols is None or _is_full_over(system, symbols)
    if method in ("auto", "exact-product") and full and potential.exact_on_cylinders:
        val = _product_pressure(potential, drv, None if symbols is None else tuple(sorted(symbols)))
        return PressureEstimate(value=val, method="exact-product")
    if symbols is None:
        raise ValueError("non-product systems need an explicit finite symbol set")
    if (
        method in ("auto", "exact-spectral")
        and potential.exact_on_cylinders
        and drv.kind in ("deterministic", "periodic")
        and len(symbols) <= 128
    ):
        val = _spectral_pressure(symbols, potential, drv.states)
        return PressureEstimate(value=val, method="exact-spectral")

    depths = tuple(depths)
    integral = all(isinstance(n, (int, np.integer)) for n in depths)
    if not (depths and integral and depths[0] >= 1 and all(a < b for a, b in zip(depths, depths[1:]))):
        raise ValueError(f"depths must be strictly increasing integers >= 1, got {depths}")
    orbits = orbit_family(drv, count=16, root_seed=0) if orbits is None else orbits
    ns = np.array(depths)
    # Per orbit, the intercept p of p + c/n over the deepest three depths: the
    # sandwich constants bias every approximant by O(1/n).  An orbit with no
    # admissible word has pressure -inf.
    per_depth = _mc_log_all(system, tuple(sorted(symbols)), potential, orbits, depths, witness) / ns[:, None]
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
        raw_value=mean_per_depth[-1],
    )


@dataclass(frozen=True)
class CompactApproximation:
    rung_symbols: tuple[tuple[int, ...], ...]
    rung_values: tuple[float, ...]
    limit: float
    anchor: Optional[float]  # exact full-alphabet value, when available
    monotone: bool


def pressure_compact_approx(
    system: SymbolicSystem,
    ladder: SubalphabetLadder,
    potential: FirstSymbolPotential,
    orbits: Optional[Sequence[DrivingOrbit]] = None,
    depths: Sequence[int] = (4, 5, 6, 7, 8),
) -> CompactApproximation:
    """Increasing finite-subalphabet pressures and their limit estimate.

    When the full-alphabet transfer sums have closed form (product systems,
    analytic tails) the exact value anchors the limit from above; divergence
    of that anchor reports +inf, matching the convention for non-summable
    potentials.
    """
    rungs = tuple(tuple(r) for r in ladder)
    values = [
        pressure(system, r, potential, orbits=orbits, depths=depths).value for r in rungs
    ]
    monotone = all(values[i + 1] >= values[i] - 1e-9 for i in range(len(values) - 1))
    anchor = None
    if potential.exact_on_cylinders and _is_full_over(system, system.edges):
        try:
            anchor = _product_pressure(potential, potential.driving, None)
        except ValueError:
            anchor = None
    if anchor is not None:
        limit = anchor
    elif len(values) >= 2 and values[-1] - values[-2] > max(0.01, 0.5 * (values[1] - values[0])):
        limit = math.inf
    else:
        limit = values[-1]
    return CompactApproximation(
        rung_symbols=rungs,
        rung_values=tuple(values),
        limit=limit,
        anchor=anchor,
        monotone=monotone,
    )


# ---------------------------------------------------------------------------
# Gibbs property
# ---------------------------------------------------------------------------


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
    system: SymbolicSystem,
    symbols: Sequence[int],
    potential: FirstSymbolPotential,
    orbit: DrivingOrbit,
    measures,
    log_eigenvalues: Sequence[float],
    depth: int,
    witness: Optional[PrimitivityWitness] = None,
    rel_tol: float = 1e-12,
) -> GibbsReport:
    """Two-sided Gibbs bracket for every cylinder up to the given depth.

    measures[0] supplies cylinder masses at the base orbit position; the
    partial sums of log_eigenvalues play the role of the accumulated
    normalization.  The lower constant is
    1 / (B * e^{2NK} * N * prod_{i<2N} M(omega_{n+i})).  The Birkhoff-sum
    bounds of `FirstSymbolPotential.sum_bounds` are carried down the
    measure's word tree, one level at a time.
    """
    symbols = tuple(sorted(symbols))
    base = measures[0]
    if symbols != base.symbols:
        raise ValueError("the measures live on a different symbol set")
    if witness is None:
        witness = find_primitivity(system, symbols, max_order=8)
    N = witness.order
    logB = potential.log_distortion()
    K = potential.sup_log_norm(sorted(witness.connector_alphabet))
    v = abs(potential.scale) * potential.holder.constant
    beta = potential.holder.exponent
    checked = violations = 0
    max_up = -math.inf
    min_lo = math.inf
    worst_dev = 0.0
    sup_sum = inf_sum = np.zeros(1)  # Birkhoff-sum bounds of the current level's words
    for n in range(1, min(depth, base.depth) + 1):
        log_pn = math.fsum(log_eigenvalues[:n])
        log_lower = -(
            logB
            + 2 * N * K
            + math.log(N)
            + math.fsum(
                potential.unit_transfer_bounds(orbit.state(n + i), symbols)[0]
                for i in range(2 * N)
            )
        )
        bounds = np.array([potential.value_bounds(orbit.state(n - 1), e) for e in symbols])
        parent, last = base.tree.parent[n - 1], base.tree.last[n - 1]
        sup_sum, inf_sum = sup_sum[parent] + bounds[last, 0], inf_sum[parent] + bounds[last, 1]
        hi = sup_sum
        if v > 0.0:
            osc = v * math.exp(-beta) * (1 - math.exp(-beta * n)) / (1 - math.exp(-beta))
            hi = np.minimum(sup_sum, inf_sum + osc)
        log_mass = np.array([math.log(m) if m > 0.0 else -math.inf for m in base.levels[n - 1].tolist()])
        keep = log_mass > -math.inf
        log_ratio_hi = log_mass[keep] - (inf_sum[keep] - log_pn)  # worst case vs upper bound
        log_ratio_lo = log_mass[keep] - (hi[keep] - log_pn)  # worst case vs lower bound
        up_excess = log_ratio_hi - logB
        lo_slack = log_ratio_lo - log_lower
        checked += int(keep.sum())
        max_up = max(max_up, float(up_excess.max(initial=-math.inf)))
        min_lo = min(min_lo, float(lo_slack.min(initial=math.inf)))
        worst_dev = max(worst_dev, float(np.abs(np.concatenate((log_ratio_hi, log_ratio_lo))).max(initial=0.0)))
        violations += int(np.count_nonzero((up_excess > rel_tol) | (lo_slack < -rel_tol)))
    return GibbsReport(
        checked=checked,
        violations=violations,
        max_upper_excess=max_up,
        min_lower_slack=min_lo,
        worst_ratio_deviation=worst_dev,
    )
