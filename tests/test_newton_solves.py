"""Bowen's root and the Legendre walk on the exact-product route.

The root solver takes Newton steps where it is given the derivative and the
step lands inside its bracket, else the Illinois step it always took; without
a derivative its iterates are those of the Illinois solver it replaces (a
copy below), which the exact-spectral and Monte Carlo routes keep.  On the
product route the curve's estimates carry p' and p'', so Bowen's root
(f = p) and the transform (f = p' + beta) take Newton steps: the work per
command is pinned here in product-route scales, and the paper's identity
l(-p'(s*)) = s*, with 0 <= l <= s* on interior rows, on the product-route
configs.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import rcgdms.cli as cli
from rcgdms.cli import main
from rcgdms.potentials import FirstSymbolPotential
from rcgdms.spectrum import _root, bowen_dimension, legendre_spectrum
from rcgdms.thermo import pressure

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TAILED = {
    "system": {"edges": 2, "tail": {"ratio": 0.125, "start": 3}},
    "maps": {"ratios": {"0": {"0": "1/4", "1": "1/8"}}, "offsets": {"0": {"0": 0.0, "1": 0.5}}},
    "driving": {"kind": "deterministic", "states": [0]},
    "analysis": {"s_min": 0.05, "s_max": 2.0, "s_steps": 12},
}


def illinois(f, a, b, fa, fb):
    """The Illinois solver as it was before Newton steps, for its iterates."""
    if math.isfinite(fa) and fa * fb >= 0.0:
        return float(a if abs(fa) <= abs(fb) else b)
    wa = wb = 1.0
    moved = 0
    while b - a > 1e-9 * (1.0 + abs(a) + abs(b)):
        x = b - wb * fb * (b - a) / (wb * fb - wa * fa) if math.isfinite(fa) else 0.5 * (a + b)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return float(x)
        if math.isfinite(fx) and fx * fb > 0.0:
            b, fb, wb = x, fx, 1.0
            if moved > 0:
                wa *= 0.5
            moved = 1
        else:
            a, fa, wa = x, fx, 1.0
            if moved < 0:
                wb *= 0.5
            moved = -1
    return float(b - fb * (b - a) / (fb - fa) if math.isfinite(fa) else b)


def recorded(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


CASES = [
    (lambda x: x**3 - 2.0, 0.0, 4.0),
    (lambda x: math.exp(x) - 5.0, -3.0, 9.0),
    (lambda x: math.atan(x - 1.0), -20.0, 30.0),
    (lambda x: math.inf if x <= 0.1 else math.log(x) + 1.0, 0.1, 5.0),  # +inf on a's side
    (lambda x: 1.0 - x * x, 2.0, 3.0),  # no sign change
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_without_a_derivative_the_iterates_are_illinois(case):
    f, a, b = CASES[case]
    got_f, got = recorded(f)
    want_f, want = recorded(f)
    assert _root(got_f, a, b, f(a), f(b)) == illinois(want_f, a, b, f(a), f(b))
    assert got == want


def test_newton_steps_converge_in_fewer_evaluations():
    f = lambda x: x**3 - 2.0
    newton_f, newton = recorded(f)
    root = _root(newton_f, 1.0, 2.0, f(1.0), f(2.0), lambda x: 3.0 * x * x)
    plain_f, plain = recorded(f)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 4e-16 and abs(_root(plain_f, 1.0, 2.0, f(1.0), f(2.0)) - root) <= 1e-13
    assert newton[0] == 1.0 + 1.0 / 3.0  # Newton's step from the end nearer a zero
    assert len(newton) <= 5 < len(plain)


def test_newton_steps_leaving_the_bracket_fall_back_to_illinois():
    """From -20, Newton's step on atan overshoots far past 30; a derivative
    of None or 0 is no derivative; every iterate stays inside the bracket."""
    f = lambda x: math.atan(x - 1.0)
    for slope in (lambda x: 1.0 / (1.0 + (x - 1.0) ** 2), lambda x: None, lambda x: 0.0):
        g, calls = recorded(f)
        assert abs(_root(g, -20.0, 30.0, f(-20.0), f(30.0), slope) - 1.0) <= 1e-12
        assert all(-20.0 < x < 30.0 for x in calls)


def test_bowen_bracket_replaces_the_search():
    p = lambda s: math.log(2.0) - s * math.log(3.0) + 0.1 * math.exp(-s)
    dp = lambda s: -math.log(3.0) - 0.1 * math.exp(-s)
    want = bowen_dimension(p, -math.inf)
    g, calls = recorded(p)
    assert abs(bowen_dimension(g, -math.inf, dp, bracket=(0.5, 1.0)) - want) <= 1e-14
    assert 0.0 not in calls and calls[:2] == [0.5, 1.0]
    g, calls = recorded(p)
    assert abs(bowen_dimension(g, 0.2, dp) - want) <= 1e-14 and calls[:3] == [0.0, 1.0, 0.2 + 1e-12]


def count_product_scales(monkeypatch):
    counts = []
    kernel = FirstSymbolPotential.product_sums

    def counting(self, scales, *args, **kwargs):
        counts.append(np.size(scales))
        return kernel(self, scales, *args, **kwargs)

    monkeypatch.setattr(FirstSymbolPotential, "product_sums", counting)
    return counts


# the benchmark's flags on configs/paper-example.json; the bounds are below
# the scales these commands took when their roots were all Illinois and the
# product route's slope a central difference (92, 26, 23 and 60)
PAPER_WORK = [
    ("pressure", ["--s-steps", "10"], 60),
    ("dimension", ["--s-steps", "10"], 18),
    ("spectrum", ["--s-steps", "10", "--beta-steps", "3"], 45),
    ("example-paper", [], 16),
]


@pytest.mark.parametrize("command,flags,most", PAPER_WORK, ids=[w[0] for w in PAPER_WORK])
def test_product_route_scales_per_command(command, flags, most, tmp_path, monkeypatch):
    counts = count_product_scales(monkeypatch)
    assert main([command, "--config", str(CONFIGS / "paper-example.json"), "--out", str(tmp_path), *flags]) == 0
    assert sum(counts) <= most
    if command == "pressure":
        assert sum(counts) == 60 and len(counts) == 6  # one kernel call per rung and the whole alphabet


def test_default_paper_spectrum_scales_per_exponent(tmp_path, monkeypatch):
    counts = count_product_scales(monkeypatch)
    transform = cli.legendre_spectrum
    spent = []

    def counting(curve, betas):
        before = sum(counts)
        result = transform(curve, betas)
        spent.append((sum(counts) - before, len(result.betas)))
        return result

    monkeypatch.setattr(cli, "legendre_spectrum", counting)
    assert main(["spectrum", "--config", str(CONFIGS / "paper-example.json"), "--out", str(tmp_path)]) == 0
    [(scales, betas)] = spent
    assert betas == 22 and scales <= 8 * betas


def _spectrum_run(name, tmp_path):
    if name == "tailed":
        path = tmp_path / "tailed.json"
        path.write_text(json.dumps(TAILED))
        flags = ["--beta-max", "8"]
    else:
        path, flags = CONFIGS / f"{name}.json", []
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / name), *flags]) == 0
    rows = list(csv.DictReader((tmp_path / name / "spectrum.csv").read_text().splitlines()))
    return cli.load_config(path), rows, json.loads((tmp_path / name / "spectrum.json").read_text())["s_star"]


@pytest.mark.parametrize("name", ["cantor", "twoscale", "paper-example", "tailed"])
def test_spectrum_identity_on_product_route_configs(name, tmp_path):
    run, rows, s_star = _spectrum_run(name, tmp_path)
    interior = [float(r["l"]) for r in rows if r["flag"] == "interior"]
    assert all(0.0 <= l <= s_star for l in interior), (name, min(interior), max(interior), s_star)
    curve = cli._curve(run)
    assert curve.curvature is not None  # the product route
    beta_star = -pressure(None, run.potential.scaled(s_star), slope=True).slope
    assert abs(legendre_spectrum(curve, [beta_star]).values[0] - s_star) <= 1e-10
