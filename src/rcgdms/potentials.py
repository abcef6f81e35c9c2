"""Random locally Hölder potentials at cylinder resolution.

Potentials are exposed only through per-cylinder (sup, inf) bounds of Birkhoff
sums; pointwise evaluation at infinite words is never needed.  The workhorse
class covers potentials that depend on the leading symbol and the fiber state
only (geometric potentials of similarity systems, custom weight tables, the
zero potential); these are exact on cylinders.  Declared Hölder data widens
the bounds for general conformal instances.

Transfer sums read a lazily built table: one float64 row of base(state, e)
over the materialized edges per fiber state, plus per-symbol-set column
indices and 0/1 admissibility matrices.  Every scaled(s) copy shares it, so a
sum at scale s is one vectorised log-sum-exp of s * row.  Filling an entry is
idempotent, so concurrent readers need no lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from .driving import DrivingOrbit, DrivingSystem
from .shift import SymbolicSystem


def log_sum_exp(values) -> float:
    """log of the sum of exp(x) over an iterable or a 1-d numpy array.

    Empty input or a maximum of -inf gives -inf; a maximum of +inf gives
    +inf.  Arrays are summed by numpy, other iterables exactly by math.fsum.
    """
    if isinstance(values, np.ndarray):
        m = float(values.max()) if values.size else -math.inf
        if math.isinf(m):
            return m
        return m + math.log(float(np.exp(values - m).sum()))
    xs = list(values)
    m = float(max(xs)) if xs else -math.inf
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def float_log(x) -> float:
    """Natural log, as a float, of a nonnegative float, Fraction or mpf; -inf
    at 0.  A Fraction goes through mpmath, so a ratio of huge integers keeps
    full precision."""
    if x == 0:
        return -math.inf
    if isinstance(x, Fraction):
        x = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return float(mpmath.log(x)) if isinstance(x, mpmath.mpf) else math.log(x)


def _log_incoming(vals: np.ndarray, adm: np.ndarray) -> np.ndarray:
    """Per target b, log of the sum of exp(vals[e]) over e with adm[e, b] = 1;
    -inf for a target no symbol enters.  Each target is shifted by its own
    (finite) maximum, so no admissible term underflows against a larger one."""
    terms = np.where(adm.T > 0, vals, -np.inf)
    m = terms.max(axis=1)
    shift = np.where(np.isfinite(m), m, 0.0)[:, None]
    with np.errstate(divide="ignore"):
        return (shift + np.log(np.exp(terms - shift).sum(axis=1, keepdims=True))).ravel()


@dataclass(frozen=True)
class HolderClass:
    """Oscillation class of a potential: |f(x)-f(y)| <= constant *
    d(x,y)**exponent in the symbolic word metric."""

    exponent: float
    constant: float = 0.0

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("Hölder exponent must be positive")
        if self.constant < 0:
            raise ValueError("Hölder constant must be nonnegative")

    def log_distortion(self) -> float:
        """log of the Birkhoff-sum distortion bound exp(v * sum_k e^{-k beta})."""
        if self.constant == 0.0:
            return 0.0
        return self.constant / (1.0 - math.exp(-self.exponent))


@dataclass(frozen=True)
class FirstSymbolPotential:
    """Potential scale * base(state, leading symbol), with optional declared
    sup/inf tables and analytic tail moments for countable alphabets.

    base gives the cylinder sup of the unscaled potential per symbol; base_inf
    (defaulting to base) the cylinder inf.  When they coincide and the Hölder
    constant is zero, all cylinder bounds are exact and sup == inf.
    """

    system: SymbolicSystem
    base: Callable[[object, int], float]
    scale: float = 1.0
    base_inf: Optional[Callable[[object, int], float]] = None
    holder: HolderClass = HolderClass(exponent=1.0, constant=0.0)
    tail_moment: Optional[Callable[[float, object], float]] = None
    base_range: Optional[Callable[[int], tuple[float, float]]] = None
    exact_base: Optional[Callable[[object, int], Fraction]] = None
    driving: Optional[DrivingSystem] = None
    # Lazily filled tables of the unscaled potential, shared by scaled copies.
    _table: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    # -- basic evaluation ---------------------------------------------------

    @property
    def exact_on_cylinders(self) -> bool:
        return self.holder.constant == 0.0 and self.base_inf is None

    def value(self, state, e: int) -> float:
        return self.scale * self.base(state, e)

    def value_bounds(self, state, e: int) -> tuple[float, float]:
        hi = self.base(state, e)
        lo = self.base_inf(state, e) if self.base_inf is not None else hi
        a, b = self.scale * hi, self.scale * lo
        return (a, b) if a >= b else (b, a)

    def sum_bounds(
        self, orbit: DrivingOrbit, k: int, word: Sequence[int], n: Optional[int] = None
    ) -> tuple[float, float]:
        """(sup, inf) of the n-term Birkhoff sum over the cylinder of `word`.

        len(word) may exceed n; the extra symbols tighten the Hölder
        oscillation bound on the leading n terms.
        """
        m = len(word)
        n = m if n is None else n
        if n > m:
            raise ValueError("cylinder must pin down at least the summed symbols")
        hi = lo = 0.0
        for j in range(n):
            a, b = self.value_bounds(orbit.state(k + j), word[j])
            hi += a
            lo += b
        v = abs(self.scale) * self.holder.constant
        if v > 0.0:
            beta = self.holder.exponent
            osc = v * math.exp(-beta * (m - n + 1)) * (1 - math.exp(-beta * n)) / (1 - math.exp(-beta))
            hi = min(hi, lo + osc)
        return (hi, lo)

    def log_distortion(self) -> float:
        return abs(self.scale) * self.holder.log_distortion()

    def scaled(self, s: float) -> "FirstSymbolPotential":
        out = replace(self, scale=float(s))
        object.__setattr__(out, "_table", self._table)
        return out

    # -- tabulated values ------------------------------------------------------

    def _cached(self, key, build):
        got = self._table.get(key)
        return got if got is not None else self._table.setdefault(key, build())

    def _row(self, state) -> np.ndarray:
        return self._cached(
            ("row", state),
            lambda: np.array([self.base(state, e) for e in self.system.edges], dtype=float),
        )

    def _columns(self, symbols: tuple) -> np.ndarray:
        index = self._cached("index", lambda: {e: i for i, e in enumerate(self.system.edges)})
        build = lambda: np.array([index[e] for e in symbols], dtype=np.intp)
        return self._cached(("columns", symbols), build)

    def log_weights(self, state, symbols: Optional[tuple] = None) -> np.ndarray:
        """scale * base(state, e) over the edges, or over a sorted symbol tuple."""
        row = self._row(state)
        return self.scale * (row if symbols is None else row[self._columns(symbols)])

    def admissibility(self, symbols: tuple) -> np.ndarray:
        """0/1 matrix of admissible pairs (row: first symbol) over a sorted
        symbol tuple, cached per tuple."""
        adm = self.system.admissible_pair
        return self._cached(
            ("admissibility", symbols),
            lambda: np.array([[1.0 if adm(a, b) else 0.0 for b in symbols] for a in symbols]),
        )

    # -- transfer-operator unit bounds ---------------------------------------

    def unit_transfer_bounds(self, state, symbols: Optional[Sequence[int]] = None) -> tuple[float, float]:
        """(log sup, log inf) over points of the transfer operator applied to 1.

        With a finite symbol set the sup/inf run over the admissible leading
        symbol of the argument; `symbols=None` means the whole alphabet
        including the analytic tail (full shifts only), where sup == inf.
        """
        if symbols is None:
            if self.system.incidence_kind != "full":
                raise ValueError("full-alphabet transfer bounds need a full shift")
            vals = self.log_weights(state)
            if self.system.has_tail:
                if self.tail_moment is None:
                    raise ValueError("countable alphabet needs a tail moment hook")
                vals = np.append(vals, self.tail_moment(self.scale, state))
            total = log_sum_exp(vals)
            return (total, total)
        symbols = tuple(sorted(symbols))
        vals = self.log_weights(state, symbols)
        if self.system.incidence_kind == "full":
            total = log_sum_exp(vals)
            return (total, total)
        per_target = _log_incoming(vals, self.admissibility(symbols))
        return (float(per_target.max()), float(per_target.min()))

    def sup_log_norm(self, symbols: Sequence[int]) -> float:
        """Uniform bound over fibers of |f| restricted to a finite symbol set."""
        if self.base_range is not None:
            ranges = [self.base_range(e) for e in symbols]
        else:
            cols = self._columns(tuple(sorted(symbols)))
            block = np.array([self._row(st)[cols] for st in self._support_states()])
            ranges = zip(block.min(axis=0).tolist(), block.max(axis=0).tolist())
        worst = 0.0
        for lo, hi in ranges:
            worst = max(worst, abs(self.scale * lo), abs(self.scale * hi))
        return worst

    def _support_states(self):
        return self.driving.state_support() if self.driving is not None else (None,)

    # -- exact arithmetic ------------------------------------------------------

    def exact_weight_fn(self, arithmetic: str) -> Callable[[object, int], object]:
        """Per-symbol weights exp(scale * base) as floats, Fractions or mpmath
        floats (arithmetic "float", "fraction" or "mpf").

        The Fraction path requires rational base weights and an integer scale;
        it keeps sandwich margins and Gibbs brackets provably nonnegative.
        """
        if arithmetic == "float":
            return lambda state, e: math.exp(self.value(state, e))
        if not self.exact_on_cylinders or self.exact_base is None:
            raise ValueError("exact weights need a cylinder-constant rational potential")
        if arithmetic == "fraction":
            s = self.scale
            if s != int(s):
                raise ValueError("Fraction weights need an integer scale")
            s = int(s)
            return lambda state, e: self.exact_base(state, e) ** s
        if arithmetic == "mpf":
            s = mpmath.mpf(self.scale)

            def weight(state, e):
                r = self.exact_base(state, e)
                return mpmath.power(mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator), s)

            return weight
        raise ValueError(f"unknown arithmetic {arithmetic!r}")


def zero_potential(system: SymbolicSystem) -> FirstSymbolPotential:
    return FirstSymbolPotential(
        system=system,
        base=lambda state, e: 0.0,
        base_range=lambda e: (0.0, 0.0),
        exact_base=lambda state, e: Fraction(1),
    )


def table_potential(
    system: SymbolicSystem, table, driving: Optional[DrivingSystem] = None
) -> FirstSymbolPotential:
    """Custom first-symbol potential from a {state: {edge: value}} table."""
    def base(state, e):
        return float(table[state][e])

    return FirstSymbolPotential(system=system, base=base, driving=driving)


def geometric_potential(gdms) -> FirstSymbolPotential:
    """Log-derivative potential of a map system, at cylinder resolution.

    For similarity instances the value on a cylinder is exactly the sum of
    log ratios along the word, sup == inf, and the distortion factor is 1.
    Declared-bounds conformal instances get the oscillation class with
    exponent -alpha * log(contraction) and the declared constant.
    """
    kappa = gdms.contraction
    alpha = gdms.derivative_holder_exp
    lip = gdms.derivative_holder_const
    if lip > 0.0:
        constant = lip / (1.0 - kappa ** alpha) * gdms.max_diameter() ** alpha
    else:
        constant = 0.0
    holder = HolderClass(exponent=-alpha * math.log(kappa), constant=constant)

    exact = None
    if gdms.ratio_fraction is not None:
        exact = lambda state, e: gdms.ratio_fraction(e, state)

    return FirstSymbolPotential(
        system=gdms.symbolic,
        base=lambda state, e: gdms.log_ratio(e, state),
        holder=holder,
        tail_moment=gdms.tail_log_moment,
        base_range=gdms.log_ratio_range,
        exact_base=exact,
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
    method: str
    per_state: Optional[dict] = None


def summability(
    potential: FirstSymbolPotential,
    s: Optional[float] = None,
    driving: Optional[DrivingSystem] = None,
    symbols: Optional[Sequence[int]] = None,
) -> SummabilityReport:
    """Summability flags via the marginal expectation of the log transfer sup.

    Exact when the driving marginal has closed form (all supported kinds);
    per-state values are reported for inspection.
    """
    pot = potential if s is None else potential.scaled(s)
    drv = driving if driving is not None else potential.driving
    if drv is None:
        raise ValueError("summability needs the driving system")

    per_state = {}

    def upper(state):
        hi, lo = pot.unit_transfer_bounds(state, symbols)
        per_state[state] = (hi, lo)
        return hi

    up = drv.expectation(upper)
    low = drv.expectation(lambda st: per_state[st][1] if st in per_state else pot.unit_transfer_bounds(st, symbols)[1])
    return SummabilityReport(
        scale=pot.scale,
        log_upper_expectation=up,
        log_lower_expectation=low,
        summable=up < math.inf,
        normal_summable=up < math.inf and low > -math.inf,
        method="closed-form",
        per_state=per_state,
    )


def s_infinity(
    potential: FirstSymbolPotential,
    driving: Optional[DrivingSystem] = None,
    tol: float = 1e-6,
    start: float = 1.0,
) -> float:
    """Infimum of scales at which the scaled potential is summable.

    Finite (materialized, tail-free) alphabets give -inf; otherwise bisection
    on the summability flag down to the requested tolerance.
    """
    if not potential.system.has_tail:
        return -math.inf

    def ok(s):
        return summability(potential, s=s, driving=driving).summable

    hi = start
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
