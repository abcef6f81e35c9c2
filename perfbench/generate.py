"""Seeded generator of random similarity systems for the Markov workloads.

Every config is a plain custom-system JSON document (edges, incidence,
fraction-string ratios, offsets, driving), so the program sees nothing but
schema-valid inputs.  The same seed gives byte-identical documents.

Monte Carlo cost is exhaustive word enumeration, so it is set by the number
of admissible words, not by which words they are.  The generator therefore
draws the incidence at random among the primitive 0/1 matrices that share a
fixed word-count signature (the counts of admissible words of length 1..8):
the matrices differ from seed to seed, the enumeration work does not.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np

SIGNATURE_DEPTH = 8


def is_primitive(m: np.ndarray) -> bool:
    """Some power of the 0/1 matrix is all positive (Wielandt: power <= n^2-2n+2)."""
    n = len(m)
    a = (np.asarray(m) > 0).astype(np.int64)
    p = a.copy()
    for _ in range(n * n - 2 * n + 2):
        if (p > 0).all():
            return True
        p = ((p @ a) > 0).astype(np.int64)
    return bool((p > 0).all())


def word_counts(m: np.ndarray, depth: int = SIGNATURE_DEPTH) -> tuple[int, ...]:
    """Number of admissible words of length 1..depth."""
    a = np.asarray(m, dtype=object)
    v = np.ones(len(a), dtype=object)
    out = []
    for _ in range(depth):
        out.append(int(v.sum()))
        v = a.T.dot(v)
    return tuple(out)


def _matrices_like(base: np.ndarray) -> list[np.ndarray]:
    """All primitive 0/1 matrices of base's size and nonzero count that share
    its word-count signature, in a fixed order."""
    n = len(base)
    nnz = int(np.asarray(base).sum())
    target = word_counts(base)
    found = []
    for ones in itertools.combinations(range(n * n), nnz):
        m = np.zeros(n * n, dtype=np.int64)
        m[list(ones)] = 1
        m = m.reshape(n, n)
        if word_counts(m) == target and is_primitive(m):
            found.append(m)
    return found


def _random_primitive(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    while True:
        m = (rng.random((n, n)) < density).astype(np.int64)
        if is_primitive(m):
            return m


def _ratios(rng: np.random.Generator, n: int, total: float, jitter: float) -> list[Fraction]:
    """n ratios summing to about `total`, each within +-jitter of the mean
    share, as exact fractions with denominator 10^6."""
    share = total / n
    raw = share * (1.0 + jitter * rng.uniform(-1.0, 1.0, n))
    return [Fraction(int(round(r * 1e6)), 10**6) for r in raw]


def _config(name, incidence, states, ratios, driving, s_grid, extra_analysis=None):
    edges = len(incidence)
    offsets = {}
    for st, row in zip(states, ratios):
        gap = (1.0 - float(sum(row))) / (edges + 1)
        pos, table = gap, {}
        for e, r in enumerate(row):
            table[str(e)] = round(pos, 12)
            pos += float(r) + gap
        offsets[str(st)] = table
    analysis = {"s_min": s_grid[0], "s_max": s_grid[1], "s_steps": s_grid[2]}
    analysis.update(extra_analysis or {})
    return {
        "name": name,
        "system": {"edges": edges, "incidence": [[int(x) for x in row] for row in incidence]},
        "maps": {
            "type": "similarity",
            "ratios": {
                str(st): {str(e): f"{r.numerator}/{r.denominator}" for e, r in enumerate(row)}
                for st, row in zip(states, ratios)
            },
            "offsets": offsets,
        },
        "driving": driving,
        "analysis": analysis,
    }


# Base incidence patterns whose word-count signatures fix the Monte Carlo
# cost of markov-mc; seeds pick among the matrices sharing each signature.
MC_BASE = {
    3: np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]]),
    4: np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 0, 1]]),
}
MC_S_GRID = (0.0, 1.0, 3)  # s_min, s_max, s_steps
MC_STATES = 2
SPECTRAL_SYMBOLS = 64
SPECTRAL_DENSITY = 0.5
SPECTRAL_CYCLE = 3
SPECTRAL_S_GRID = (0.0, 1.5, 16)


def markov_mc(seed: int) -> list[tuple[str, dict, tuple[str, ...]]]:
    """(name, config, commands) for the Monte Carlo workload: a 4-symbol
    system through `pressure` and a 3-symbol one through `pressure` and
    `dimension`, each Bernoulli-driven over MC_STATES fiber states."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for n, commands in ((4, ("pressure",)), (3, ("pressure", "dimension"))):
        pool = _matrices_like(MC_BASE[n])
        incidence = pool[int(rng.integers(len(pool)))]
        states = list(range(MC_STATES))
        weights = rng.dirichlet(np.full(MC_STATES, 4.0))
        weights = [round(float(w), 12) for w in weights]
        weights[-1] = round(1.0 - sum(weights[:-1]), 12)
        ratios = [_ratios(rng, n, 0.9, 0.5) for _ in states]
        driving = {"kind": "bernoulli", "states": states, "weights": weights}
        name = f"mc{n}"
        out.append((name, _config(name, incidence, states, ratios, driving, MC_S_GRID), commands))
    return out


def markov_spectral(seed: int) -> list[tuple[str, dict, tuple[str, ...]]]:
    """(name, config, commands) for the exact-spectral workload: one
    SPECTRAL_SYMBOLS-symbol system with random primitive incidence and
    periodic driving of cycle length SPECTRAL_CYCLE."""
    rng = np.random.default_rng([seed, 2])
    n = SPECTRAL_SYMBOLS
    incidence = _random_primitive(rng, n, SPECTRAL_DENSITY)
    states = list(range(SPECTRAL_CYCLE))
    ratios = [_ratios(rng, n, 0.9, 0.8) for _ in states]
    driving = {"kind": "periodic", "states": states}
    name = f"spectral{n}"
    cfg = _config(name, incidence, states, ratios, driving, SPECTRAL_S_GRID,
                  {"beta_steps": 8})
    return [(name, cfg, ("dimension", "spectrum"))]


def dump(config: dict) -> str:
    """Canonical JSON text of a config (what is written to disk)."""
    return json.dumps(config, indent=1, sort_keys=True) + "\n"


def s_grid(config: dict) -> list[float]:
    """The config's s grid, as the program builds it."""
    a = config["analysis"]
    return np.linspace(a["s_min"], a["s_max"], a["s_steps"]).tolist()


def nonzero_fraction(config: dict) -> float:
    inc = np.asarray(config["system"]["incidence"])
    return float(inc.mean())
