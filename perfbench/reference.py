"""Independent numpy references for the generated systems.

These never call the package: they read the generated config documents and
recompute the quantities the CLI reports by a different method.

* Bernoulli driving: the pressure is the top Lyapunov exponent of the random
  product of the matrices M diag(r_w^s) (M the incidence, r_w the ratios at
  fiber state w) along one long orbit, renormalised after every block
  (Furstenberg-Kesten; Benettin et al., Meccanica 1980).
* Periodic driving: the pressure is (1/p) log of the spectral radius of the
  product over one period, evaluated directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq, minimize_scalar

BLOCK = 8  # driving states folded into one tabulated block product


def system_arrays(config: dict):
    """(incidence M, log ratios [state, edge], Bernoulli weights or None)."""
    inc = np.asarray(config["system"]["incidence"], dtype=float)
    drv = config["driving"]
    states = [str(s) for s in drv["states"]]
    ratios = config["maps"]["ratios"]
    k = len(inc)
    logs = np.array(
        [[math.log(Fraction(ratios[st][str(e)])) for e in range(k)] for st in states]
    )
    weights = np.asarray(drv["weights"], dtype=float) if drv["kind"] == "bernoulli" else None
    return inc, logs, weights


def _step_matrices(inc, logs, s):
    """S[m, w] = M diag(exp(s_m * logs[w])): one step of the row-vector
    recursion v <- v S over every scale s_m and fiber state w."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    weights = np.exp(s[:, None, None] * logs[None, :, :])  # (m, w, k)
    return inc[None, None, :, :] * weights[:, :, None, :]


def lyapunov_pressure(config: dict, s_values, steps: int, seed: int) -> np.ndarray:
    """Top Lyapunov exponent of the renormalised random product, per scale."""
    inc, logs, weights = system_arrays(config)
    n_states = len(logs)
    step = _step_matrices(inc, logs, s_values)  # (m, w, k, k)
    m, k = step.shape[0], inc.shape[0]
    # table[c] is the product over one block whose states spell c in base n_states
    table = np.broadcast_to(np.eye(k), (1, m, k, k))
    for j in range(BLOCK):
        nxt = np.einsum("cmij,mwjl->wcmil", table, step)
        table = nxt.reshape(n_states * len(table), m, k, k)
    rng = np.random.default_rng(seed)
    n_blocks = steps // BLOCK
    omega = rng.choice(n_states, size=(n_blocks, BLOCK), p=weights / weights.sum())
    codes = omega @ (n_states ** np.arange(BLOCK - 1, -1, -1))
    v = np.full((m, k), 1.0 / k)
    log_growth = np.zeros(m)
    for c in codes:
        v = np.einsum("mi,mij->mj", v, table[c])
        norm = v.sum(axis=1)
        log_growth += np.log(norm)
        v /= norm[:, None]
    return log_growth / (n_blocks * BLOCK)


def lyapunov_root(config: dict, steps: int, seed: int, hi: float = 4.0, rounds: int = 6) -> float:
    """Bowen root of the reference pressure, which (for one fixed orbit) is
    strictly decreasing in s: repeated 16-point bracketing, then a secant."""
    lo = 0.0
    for _ in range(rounds):
        grid = np.linspace(lo, hi, 16)
        vals = lyapunov_pressure(config, grid, steps, seed)
        j = int(np.argmax(vals <= 0.0))
        if vals[0] <= 0.0:
            return lo
        lo, hi, p_lo, p_hi = grid[j - 1], grid[j], vals[j - 1], vals[j]
    return float(lo + (hi - lo) * p_lo / (p_lo - p_hi))


def spectral_pressure(config: dict, s: float) -> float:
    """Exact pressure under periodic driving: (1/p) log rho(prod_w M diag(r_w^s))."""
    inc, logs, _ = system_arrays(config)
    step = _step_matrices(inc, logs, s)[0]
    prod = np.eye(len(inc))
    log_scale = 0.0
    for mat in step:
        prod = prod @ mat
        top = np.abs(prod).max()
        log_scale += math.log(top)
        prod /= top
    rho = float(np.max(np.abs(np.linalg.eigvals(prod))))
    return (log_scale + math.log(rho)) / len(step)


def spectral_root(config: dict) -> float:
    hi = 1.0
    while spectral_pressure(config, hi) > 0.0:
        hi *= 2.0
    return brentq(lambda s: spectral_pressure(config, s), 0.0, hi, xtol=1e-13)


def spectral_legendre(config: dict, beta: float) -> float:
    """l(beta) = (1/beta) min_s (beta s + p(s)) on the exact pressure."""
    res = minimize_scalar(
        lambda s: beta * s + spectral_pressure(config, s),
        bracket=(-1.0, 1.0),
        tol=1e-12,
    )
    return float(res.fun) / beta
