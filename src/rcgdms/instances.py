"""Canned map systems used across tests, docs and the CLI presets."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .driving import deterministic, periodic
from .gdms import RCGDMS, _frozen, build_paper_example, similarity_system
from .shift import GeometricTail, full_shift, from_matrix


def cantor() -> RCGDMS:
    """Two maps of ratio 1/3 at the ends of [0, 1]; middle-thirds limit set."""
    sym = full_shift((0, 1))
    drv = deterministic(0)
    r = {0: {0: Fraction(1, 3), 1: Fraction(1, 3)}}
    a = {0: {0: 0.0, 1: 2.0 / 3.0}}
    return similarity_system(sym, drv, r, a, name="cantor")


def cantor_shrunk() -> RCGDMS:
    """Ratio-3/10 variant mapped into [0.05, 0.95]; boundary-separated."""
    sym = full_shift((0, 1))
    drv = deterministic(0)
    r = {0: {0: Fraction(3, 10), 1: Fraction(3, 10)}}
    a = {0: {0: 0.05, 1: 0.65}}
    return similarity_system(sym, drv, r, a, name="cantor-shrunk")


def twoscale() -> RCGDMS:
    """Full 2-shift with ratios 1/2 and 1/4; nondegenerate exponent range."""
    sym = full_shift((0, 1))
    drv = deterministic(0)
    r = {0: {0: Fraction(1, 2), 1: Fraction(1, 4)}}
    a = {0: {0: 0.0, 1: 0.75}}
    return similarity_system(sym, drv, r, a, name="twoscale")


def period2() -> RCGDMS:
    """Full 2-shift driven by a 2-cycle of fibers: ratios 1/2 on fiber "a",
    1/4 on fiber "b"."""
    sym = full_shift((0, 1))
    drv = periodic(("a", "b"))
    r = {
        "a": {0: Fraction(1, 2), 1: Fraction(1, 2)},
        "b": {0: Fraction(1, 4), 1: Fraction(1, 4)},
    }
    a = {"a": {0: 0.0, 1: 0.5}, "b": {0: 0.0, 1: 0.5}}
    return similarity_system(sym, drv, r, a, name="period2")


def golden_mean() -> RCGDMS:
    """Ratio-1/3 maps under the golden-mean incidence (no symbol 1 after 1)."""
    sym = from_matrix((0, 1), [[1, 1], [1, 0]])
    drv = deterministic(0)
    r = {0: {0: Fraction(1, 3), 1: Fraction(1, 3)}}
    a = {0: {0: 0.0, 1: 2.0 / 3.0}}
    return similarity_system(sym, drv, r, a, name="golden-mean")


def pure_tail(cutoff: int = 64) -> RCGDMS:
    """Full shift on the positive integers with ratio 8^-e on every edge.

    The scaled geometric potential is summable exactly for s > 0, so the
    summability threshold sits at 0 and the pressure blows up there.
    """
    sym = full_shift(range(1, cutoff + 1), tail=GeometricTail(ratio=0.125, start=cutoff + 1))
    drv = deterministic(0)
    # one row for every fiber state; images packed left to right, gaps
    # irrelevant for symbolic quantities
    log_ratios = _frozen(-np.array(sym.edges) * math.log(8.0))
    offsets = _frozen([sum(8.0 ** -k for k in range(1, e)) + e * 1e-3 for e in sym.edges])
    return RCGDMS(
        symbolic=sym,
        driving=drv,
        spaces={"v": (0.0, 1.0)},
        log_ratios=lambda state: log_ratios,
        offsets=lambda state: offsets,
        contraction=0.126,
        name="pure-tail",
    )


PRESETS = {
    "cantor": cantor,
    "cantor-shrunk": cantor_shrunk,
    "twoscale": twoscale,
    "period2": period2,
    "golden-mean": golden_mean,
    "pure-tail": pure_tail,
    "paper-example": build_paper_example,
}
