"""Random potentials at cylinder resolution.

Potentials are exposed only through per-cylinder Birkhoff sums; pointwise
evaluation at infinite words is never needed.  Every potential here depends
on the leading symbol and the fiber state only (geometric potentials of
similarity systems and of the block example, custom weight tables), so it is
constant on 1-cylinders and its cylinder sums are exact.

Everything reads a lazily built table: one float64 row of the unscaled
potential over the materialized edges per fiber state, from the row(state)
hook (geometric potentials read the map system's log_ratios); for rational
potentials, one object row of the exact weights exp(row) as Fractions, from
the exact_row(state) hook (the map system's ratio_fractions); plus
per-symbol-set column indices (symbolic.position) and slices of the shift's
boolean incidence.  Every scaled(s) copy shares the table.  Filling an entry
is idempotent, so concurrent readers need no lock.

Under full incidence the transfer sums of a tuple of fiber states come from
an atom table, cached per (states, symbol set): the distinct values of each
state's row, read off one sort of the (states x symbols) block, with the
logs of their multiplicities, flattened with segment starts and sizes.  The
sums at a vector of scales are then one segmented log-sum-exp of s * value
+ log count over every (scale, state) pair at once (the paper example's 31
rows of 1,024 edges hold 2,915 atoms).  The whole-alphabet sum (symbol set
None) adds the moments of the potential's tail object (the map system's
symbolic.tail for geometric potentials), whose log terms (its lanes) one
tail call per scale writes into the same block; each state joins its two
sums with np.logaddexp.  On request the same shifted exponentials give the
sums' first and second derivative in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .driving import DrivingSystem
from .shift import SymbolicSystem, _incidence


def log_sum_exp(terms: np.ndarray):
    """log of the sum of exp(terms) over the last axis of an array, one value
    per leading index.  Each row is shifted by its own finite maximum, so no
    term underflows against a larger one; an empty or all -inf row gives
    -inf, and a row holding +inf gives +inf."""
    m = terms.max(axis=-1, initial=-np.inf)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(terms - shift[..., None]).sum(axis=-1))


def float_log(x) -> float:
    """Natural log, as a float, of a nonnegative float, Fraction or mpf; -inf
    at 0.  A Fraction goes through mpmath, so a ratio of huge integers keeps
    full precision; mpmath is imported only for those lanes."""
    if x == 0:
        return -math.inf
    if isinstance(x, float):
        return math.log(x)
    import mpmath

    if isinstance(x, Fraction):
        x = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return float(mpmath.log(x)) if isinstance(x, mpmath.mpf) else math.log(x)


def _segment_log_sums(terms: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per segment of the last axis, log of the sum of exp(terms) over it:
    segment k is the sizes[k] consecutive terms from starts[k], and the
    segments cover the axis; leading axes (one row per scale) broadcast.
    Each segment is shifted by its own finite maximum, so no term underflows
    against a larger one; an all -inf segment gives -inf, and NaN propagates.
    `terms` is overwritten with exp(terms - segment shift)."""
    m = np.maximum.reduceat(terms, starts, axis=-1)
    shift = np.where(np.isfinite(m), m, 0.0)
    terms -= np.repeat(shift, sizes, axis=-1)
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.add.reduceat(terms, starts, axis=-1))


@dataclass(frozen=True)
class FirstSymbolPotential:
    """Potential scale * row(state)[e], with analytic tail moments for
    countable alphabets.

    row(state) gives the unscaled potential on each 1-cylinder, as a float64
    array over system.edges, so every cylinder bound is exact and sup == inf.
    exact_row(state), when given, holds exp(row(state)) as Fractions, in an
    object array over system.edges.
    """

    system: SymbolicSystem
    row: Callable[[object], np.ndarray]
    scale: float = 1.0
    # the edges past system.edges: tail.log_moments(s, states) per state (shift.py)
    tail: object = None
    exact_row: Optional[Callable[[object], np.ndarray]] = None
    driving: Optional[DrivingSystem] = None
    # Lazily filled tables of the unscaled potential, shared by scaled copies.
    _table: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def scaled(self, s: float) -> "FirstSymbolPotential":
        out = replace(self, scale=float(s))
        object.__setattr__(out, "_table", self._table)
        return out

    # -- tabulated values ------------------------------------------------------

    def _cached(self, key, build):
        got = self._table.get(key)
        return got if got is not None else self._table.setdefault(key, build())

    def _row(self, state) -> np.ndarray:
        return self._cached(("row", state), lambda: self.row(state))

    def _columns(self, symbols: tuple) -> np.ndarray:
        position = self.system.position
        return self._cached(("columns", symbols), lambda: np.array([position[e] for e in symbols], dtype=np.intp))

    def log_weights(self, state, symbols: Optional[tuple] = None) -> np.ndarray:
        """scale * row(state) over the edges, or over a sorted symbol tuple."""
        row = self._row(state)
        return self.scale * (row if symbols is None else row[self._columns(symbols)])

    def exact_weights(self, state, symbols: tuple, arithmetic: str) -> np.ndarray:
        """exp(log_weights(state, symbols)) from exact_row, as Fractions
        (arithmetic "fraction") or mpmath floats ("mpf"), in an object array.

        The Fraction weights require an integer scale; they keep sandwich
        margins and Gibbs brackets provably nonnegative.
        """
        if self.exact_row is None:
            raise ValueError("exact weights need a rational potential")
        row = self._cached(("exact_row", state), lambda: self.exact_row(state))[self._columns(symbols)]
        if arithmetic == "fraction":
            if self.scale != int(self.scale):
                raise ValueError("Fraction weights need an integer scale")
            return row ** int(self.scale)
        if arithmetic == "mpf":
            import mpmath

            s = mpmath.mpf(self.scale)
            bases = [mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator) for r in row.tolist()]
            return np.array([mpmath.power(b, s) for b in bases], dtype=object)
        raise ValueError(f"unknown arithmetic {arithmetic!r}")

    def admissibility(self, symbols: tuple) -> np.ndarray:
        """The shift's boolean incidence (row: first symbol) sliced to a sorted
        symbol tuple, cached per tuple."""
        return self._cached(("admissibility", symbols), lambda: _incidence(self.system, symbols))

    # -- transfer-operator unit bounds ---------------------------------------

    def _atoms(self, states: tuple, symbols: Optional[tuple]):
        """The distinct values of each state's row over the symbols (None:
        every edge) with the logs of their multiplicities, flattened state
        after state: (values, log_counts, starts, sizes), bit for bit those
        of np.unique(row, return_counts=True), from one in-place block sort.
        A symbol tuple equal to system.edges reads the whole-alphabet table."""
        if symbols == self.system.edges:
            symbols = None

        def build():
            cols = slice(None) if symbols is None else self._columns(symbols)
            block = np.empty((len(states), len(self.system.edges if symbols is None else symbols)))
            for out, st in zip(block, states):
                out[:] = self._row(st)[cols]
            block.sort(axis=1)
            first = np.ones(block.shape, dtype=bool)  # each row's first value and every change
            np.not_equal(block[:, 1:], block[:, :-1], out=first[:, 1:])
            at = np.flatnonzero(first)
            sizes = np.count_nonzero(first, axis=1)
            return block.ravel()[at], np.log(np.diff(at, append=block.size)), np.cumsum(sizes) - sizes, sizes

        return self._cached(("atoms", states, symbols), build)

    def transfer_bounds(self, states, symbols: Optional[Sequence[int]] = None) -> tuple[np.ndarray, np.ndarray]:
        """Per fiber state, (log sup, log inf) over points of the transfer
        operator applied to 1.

        With a finite symbol set the sup/inf run over the admissible leading
        symbol of the argument; `symbols=None` means the whole alphabet
        including the analytic tail (full shifts only), where sup == inf.
        Under full incidence both are one row of `product_sums`.
        """
        states = tuple(states)
        if symbols is not None:
            symbols = tuple(sorted(symbols))
            if not symbols:
                raise ValueError("symbol set must be nonempty")
            if self.system.incidence is not None:
                weights = np.array([self.log_weights(st, symbols) for st in states])
                adm = self.admissibility(symbols)
                per_target = log_sum_exp(np.where(adm.T, weights[:, None, :], -np.inf))
                return per_target.max(axis=1), per_target.min(axis=1)
        total = self.product_sums(self.scale, states, symbols)
        return total, total

    def product_sums(self, scales, states: tuple, symbols: Optional[tuple], slope: bool = False) -> np.ndarray:
        """Under full incidence, the log transfer sum of 1 per fiber state
        over a sorted nonempty symbol tuple, or for None the whole alphabet
        and its tail: one row at one scale, or one row per scale of a 1-D
        array, each the one-scale call's bits, from one segmented
        log-sum-exp over the atoms and the tail's lanes (one tail call per
        scale).  With `slope`, each row becomes (sums, first, second
        derivative in s): per state, the softmax mean and variance of the
        lane slopes plus the mean lane curvature."""
        if symbols is None:
            if self.system.incidence is not None:
                raise ValueError("full-alphabet transfer bounds need a full shift")
            if self.system.tail is not None and self.tail is None:
                raise ValueError("countable alphabet needs a tail moment hook")
        values, log_counts, starts, sizes = self._atoms(states, symbols)
        tail = self.tail if symbols is None and self.system.tail is not None else None
        scales, n, k = np.asarray(scales, dtype=float), values.size, len(states)
        lanes = 0 if tail is None else tail.lanes
        block = np.empty(scales.shape + (n + k * lanes,))
        np.multiply(scales[..., None], values, out=block[..., :n])
        block[..., :n] += log_counts
        rows, at = block.reshape(-1, block.shape[-1]), scales.ravel().tolist()
        if tail is not None:
            starts, sizes = self._cached(("lanes", states), lambda: (np.append(starts, n + lanes * np.arange(k)), np.append(sizes, [lanes] * k)))
            for row, s in zip(rows, at):
                tail.write_lanes(s, states, row[n:].reshape(k, lanes))
        sums = _segment_log_sums(block, starts, sizes)
        total = sums if tail is None else np.logaddexp(sums[..., :k], sums[..., k:])
        if not slope:
            return total
        slopes, curvatures = np.empty_like(rows), np.zeros((len(at), k, lanes))
        slopes[:, :n] = values
        if tail is not None:
            for s, slope_row, curvature in zip(at, slopes, curvatures):
                slope_row[n:].reshape(k, lanes)[:], curvature[:] = tail.lane_derivatives(s, states)
        with np.errstate(invalid="ignore", over="ignore"):
            # per segment, under the shifted exponentials `rows` now holds; its
            # mass is 0 (every term -inf) or at least 1 (its largest is exp(0))
            mass = np.maximum(np.add.reduceat(rows, starts, axis=-1), 1.0)
            mean = np.add.reduceat(rows * slopes, starts, axis=-1) / mass
            spread = (np.repeat(mean, sizes, axis=-1) - slopes) ** 2
            spread[:, n:] += curvatures.reshape(len(at), k * lanes)
            var = np.add.reduceat(spread * rows, starts, axis=-1) / mass
            if tail is not None:  # a state's atom and tail sums by the tail's share: the law of total variance
                share, gap = np.exp(sums.reshape(mass.shape)[:, k:] - total.reshape(-1, k)), mean[:, k:] - mean[:, :k]
                mean, var = mean[:, :k] + share * gap, var[:, :k] + share * (var[:, k:] - var[:, :k] + (1.0 - share) * gap * gap)
        return np.stack((total, mean.reshape(total.shape), var.reshape(total.shape)), axis=-2)

    def unit_transfer_bounds(self, state, symbols: Optional[Sequence[int]] = None) -> tuple[float, float]:
        """transfer_bounds at a single fiber state."""
        hi, lo = self.transfer_bounds((state,), symbols)
        return (float(hi[0]), float(lo[0]))


def table_potential(
    system: SymbolicSystem, table, driving: Optional[DrivingSystem] = None
) -> FirstSymbolPotential:
    """Custom first-symbol potential from a {state: {edge: value}} table."""
    def row(state):
        return np.array([float(table[state][e]) for e in system.edges])

    return FirstSymbolPotential(system=system, row=row, driving=driving)


def geometric_potential(gdms) -> FirstSymbolPotential:
    """Log-derivative potential of a map system, at cylinder resolution.

    Every map of every system here is a similarity (the block example's
    included), so the value on a cylinder is exactly the sum of log ratios
    along the word, sup == inf, and the distortion factor is 1.
    """
    return FirstSymbolPotential(
        system=gdms.symbolic,
        row=gdms.log_ratios,
        tail=gdms.symbolic.tail,
        exact_row=gdms.ratio_fractions,
        driving=gdms.driving,
    )


# ---------------------------------------------------------------------------
# Summability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummabilityReport:
    scale: float
    log_upper_expectation: float  # expectation of the log transfer sup
    log_lower_expectation: float  # expectation of the log transfer inf
    summable: bool
    normal_summable: bool
    per_state: Optional[dict] = None


def summability(
    potential: FirstSymbolPotential, s: Optional[float] = None, symbols: Optional[Sequence[int]] = None
) -> SummabilityReport:
    """Summability flags via the marginal expectation of the log transfer sup.

    Exact when the driving marginal has closed form (all supported kinds);
    per-state values are reported for inspection.
    """
    pot = potential if s is None else potential.scaled(s)
    drv = potential.driving
    if drv is None:
        raise ValueError("summability needs the driving system")

    states = drv.state_support()
    hi, lo = pot.transfer_bounds(states, symbols)
    up, low = drv.expected(hi), drv.expected(lo)
    return SummabilityReport(
        scale=pot.scale,
        log_upper_expectation=up,
        log_lower_expectation=low,
        summable=up < math.inf,
        normal_summable=up < math.inf and low > -math.inf,
        per_state=dict(zip(states, zip(hi.tolist(), lo.tolist()))),
    )


def s_infinity(potential: FirstSymbolPotential) -> float:
    """Infimum of scales at which the scaled potential is summable.

    Finite (materialized, tail-free) alphabets give -inf.  Otherwise, as the
    materialized rows are finite, bisection on tail.log_moments alone (finite
    at every support state), bracketed from s = 1 and closed to 1e-6; the
    result is cached in the table that scaled copies share.
    """
    if potential.system.tail is None:
        return -math.inf
    drv = potential.driving
    if drv is None:
        raise ValueError("summability needs the driving system")
    if potential.tail is None:
        raise ValueError("countable alphabet needs a tail moment hook")

    def ok(s):
        return (potential.tail.log_moments(float(s), drv.state_support()) < math.inf).all()

    def bisect():
        hi = 1.0
        for _ in range(64):
            if ok(hi):
                break
            hi *= 2.0
        else:
            raise ValueError("no summable scale found")
        lo = hi - 1.0
        for _ in range(64):
            if not ok(lo):
                break
            lo = 2.0 * lo - hi
        else:
            return -math.inf
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return potential._cached(("s_infinity",), bisect)
