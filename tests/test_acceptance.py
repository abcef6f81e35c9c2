"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 6 checks the level-set spectrum l(beta) on the `twoscale` instance,
where it has a closed form: l(beta) = H(q)/beta with q = beta/log 2 - 1 and H
the binary entropy.  Two of its sub-checks assert what the method promises,
not more:

* criterion 6b compares the depth-20 histogram with the spectrum after the
  local-limit correction of the finite-depth counting bias
  (`rcgdms.oracle.corrected_coarse_dimensions`, the same estimator `verify`
  reports).  The raw coarse dimension log(count)/(n chi) sits below l by the
  Stirling term (1/2) log(2 pi n q (1-q)) / (n chi), 0.046-0.091 across the
  bins at n = 20, so holding the raw value to the 0.05 gate asked for a
  promise the oracle does not make.
* criterion 6c checks l(log 2 + 0.01) against the closed form H(q)/beta =
  0.1073 (q = 0.01/log 2) and l(log 2) against 0.  The spectrum vanishes at
  the endpoint only at a logarithmic rate, so the former gate
  l(log 2 + 0.01) <= 0.02 was false for this system.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import tq_analysis, tq_transform
from words import enumerate_words, masses, weight_fn

from rcgdms import instances
from rcgdms.cli import main as cli_main
from rcgdms.driving import DrivingOrbit
from rcgdms.gdms import sample_limit_set, similarity_system
from rcgdms.gibbs import conformal_measures
from rcgdms.oracle import box_counting, corrected_coarse_dimensions, level_histogram
from rcgdms.potentials import geometric_potential, s_infinity
from rcgdms.shift import (
    PrimitivityWitness,
    build_ladder,
    from_matrix,
    full_shift,
)
from rcgdms.spectrum import (
    bowen_dimension,
    legendre_spectrum,
    pressure_curve,
)
from rcgdms.thermo import (
    check_gibbs,
    check_sandwich,
    pressure,
    pressure_compact_approx,
)

LOG2, LOG3, LOG4 = math.log(2.0), math.log(3.0), math.log(4.0)
CANTOR_DIM = LOG2 / LOG3
TWOSCALE_DIM = math.log2((1 + math.sqrt(5)) / 2)


def _report(criterion, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    # bypass capture: one visible line per criterion in every run mode
    import sys

    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}", file=sys.__stdout__)


def _exact_curve(system, s_grid, hull, s_inf=-math.inf):
    zeta = geometric_potential(system)

    def evaluate(s):
        if s <= s_inf:
            return math.inf
        return pressure(None, zeta.scaled(s)).value

    return pressure_curve(evaluate, s_grid, hull, s_infinity=s_inf)


@pytest.fixture(scope="module")
def twoscale_curve(twoscale):
    return _exact_curve(twoscale, np.linspace(-4, 8, 49), (LOG2, LOG4))


# -- criterion 1: Bowen dimension on closed-form instances -------------------


def test_criterion_1_bowen_dimensions(cantor, twoscale, period2):
    cases = [
        (cantor, np.linspace(-2, 6, 33), (LOG3, LOG3), CANTOR_DIM),
        (twoscale, np.linspace(-4, 8, 49), (LOG2, LOG4), TWOSCALE_DIM),
        (period2, np.linspace(-1, 3, 17), (1.5 * LOG2, 1.5 * LOG2), 2 / 3),
    ]
    worst = 0.0
    for system, grid, hull, expected in cases:
        start = time.monotonic()
        curve = _exact_curve(system, grid, hull)
        got = bowen_dimension(curve.evaluator, curve.s_infinity)
        elapsed = time.monotonic() - start
        worst = max(worst, abs(got - expected))
        assert elapsed < 1.0, f"{system.name}: {elapsed:.2f}s"
    _report("1", worst <= 1e-6, f"worst |error| {worst:.2e}")
    assert worst <= 1e-6


# -- criterion 2: countable-alphabet worked example ---------------------------


def test_criterion_2_paper_example(tmp_path):
    start = time.monotonic()
    code = cli_main(["example-paper", "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    payload = json.loads((tmp_path / "example-paper.json").read_text())
    ru = payload["m_ru"]
    ok = (
        code == 0
        and payload["pressure_at_1"] <= -LOG2 + 1e-6
        and payload["bowen_dimension"] < 1.0
        and abs(ru["1.0"] - 0.5) <= 1e-9
        and all(ru[k] == "divergent" for k in ("0.25", "0.5", "0.75"))
        and elapsed < 30.0
    )
    _report("2", ok, f"p(1)={payload['pressure_at_1']:.4f}, dim={payload['bowen_dimension']:.4f}, {elapsed:.1f}s")
    assert code == 0
    assert payload["pressure_at_1"] <= -LOG2 + 1e-6
    assert payload["bowen_dimension"] < 1.0
    assert abs(ru["1.0"] - 0.5) <= 1e-9
    assert all(ru[k] == "divergent" for k in ("0.25", "0.5", "0.75"))
    assert elapsed < 30.0


# -- criterion 3: sandwich chain in exact arithmetic --------------------------


def test_criterion_3_sandwich_chain(cantor, twoscale, period2, golden):
    lopsided_golden = similarity_system(
        from_matrix((0, 1), [[1, 1], [1, 0]]),
        golden.driving,
        {0: {0: Fraction(2, 5), 1: Fraction(1, 5)}},
        {0: {0: 0.0, 1: 0.75}},
        name="golden-lopsided",
    )
    start = time.monotonic()
    worst = math.inf
    for system in (cantor, twoscale, golden, lopsided_golden, period2):
        zeta = geometric_potential(system)
        orbit = DrivingOrbit(system.driving, 0)
        for s in (0.0, 0.5, 1.0):
            arithmetic = "mpf" if s == 0.5 else "fraction"
            for n in range(1, 7):
                report = check_sandwich((0, 1), zeta.scaled(s), orbit, 0, n, arithmetic=arithmetic)
                worst = min(worst, report.worst)
                assert report.ok, (system.name, s, n, report.inequalities)
    elapsed = time.monotonic() - start
    _report("3", worst >= 0.0 and elapsed < 10.0, f"min margin {worst:.3e}, {elapsed:.1f}s")
    assert worst >= 0.0
    assert elapsed < 10.0


# -- criterion 4: Gibbs brackets ----------------------------------------------


def test_criterion_4_gibbs_brackets(cantor, twoscale, period2):
    # exact-arithmetic bracket on rational product instances: the conformal
    # masses reproduce exp(S_n f - P^n) exactly, so the ratio is exactly one
    for system in (twoscale, period2):
        zeta = geometric_potential(system).scaled(1.0)
        orbit = DrivingOrbit(system.driving, 0)
        measures, _ = conformal_measures((0, 1), zeta, orbit, depth=8, exact=True)
        mass = masses(measures[0])
        weight = weight_fn(zeta, "fraction")
        states = [orbit.state(k) for k in range(8)]
        norms = [sum(weight(st, e) for e in (0, 1)) for st in states]
        for n in range(1, 9):
            for w in enumerate_words(system.symbolic, (0, 1), n):
                wprod = Fraction(1)
                pn = Fraction(1)
                for j in range(n):
                    wprod *= weight(states[j], w[j])
                    pn *= norms[j]
                ratio = mass[w] / (wprod / pn)
                assert ratio == 1  # inside [lower, distortion factor] exactly

    # two-sided bracket re-checked numerically on every product instance
    for system, scale in ((twoscale, 1.0), (period2, 1.0), (cantor, CANTOR_DIM)):
        zeta = geometric_potential(system).scaled(scale)
        orbit = DrivingOrbit(system.driving, 0)
        measures, eigens = conformal_measures((0, 1), zeta, orbit, depth=8)
        report = check_gibbs((0, 1), zeta, orbit, measures, eigens, depth=8)
        assert report.violations == 0, system.name

    ok = report.violations == 0 and report.worst_ratio_deviation <= 1e-10
    _report("4", ok, f"{report.checked} cylinders, worst deviation {report.worst_ratio_deviation:.1e}")
    assert report.worst_ratio_deviation <= 1e-10  # the middle-thirds chain at its root


# -- criterion 5: pressure structure ------------------------------------------


def test_criterion_5_pressure_properties(paper, cantor, twoscale, period2, twoscale_curve):
    # monotonicity across subalphabet rungs
    zeta_paper = geometric_potential(paper)
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    ladder = build_ladder(paper.symbolic, (4, 16, 64, 256, 1024), witness)
    for s in (0.25, 0.5, 1.0):
        values = pressure_compact_approx(ladder, zeta_paper.scaled(s)).rung_values
        assert all(values[i + 1] >= values[i] - 1e-9 for i in range(len(values) - 1))

    # strict decrease and convexity (no repair needed on exact curves)
    cantor_curve = _exact_curve(cantor, np.linspace(-2, 6, 33), (LOG3, LOG3))
    for curve in (cantor_curve, twoscale_curve):
        finite = np.isfinite(curve.values)
        assert (np.diff(curve.values[finite]) < 0).all()
        assert curve.repair_correction <= 1e-9

    # pointwise accumulation identity against the eigenvalue route
    worst = 0.0
    for system in (twoscale, period2):
        zeta = geometric_potential(system).scaled(1.0)
        orbit = DrivingOrbit(system.driving, 0)
        _, eigens = conformal_measures((0, 1), zeta, orbit, depth=2, horizon=30)
        for n in range(1, 31):
            lam_route = math.fsum(eigens[:n]) / n
            direct = math.fsum(
                zeta.unit_transfer_bounds(orbit.state(i), None)[0] for i in range(n)
            ) / n
            worst = max(worst, abs(lam_route - direct))
    _report("5", worst <= 1e-9, f"pointwise identity worst gap {worst:.1e}")
    assert worst <= 1e-9


# -- criterion 6: spectrum against the enumeration oracle ---------------------


def test_criterion_6a_interior_spectrum_value(twoscale_curve):
    result = legendre_spectrum(twoscale_curve, [1.5 * LOG2])
    got = float(result.values[0])
    _report("6a", abs(got - 2 / 3) <= 1e-3, f"l(1.5 log2) = {got:.6f}")
    assert got == pytest.approx(2 / 3, abs=1e-3)


def test_criterion_6b_histogram_matches_spectrum(twoscale, twoscale_curve):
    """The bias-corrected depth-20 coarse dimension lies within 0.05 of the
    transform spectrum in every bin with at least 100 words; the raw
    deviation, which carries the finite-depth counting bias, is reported
    alongside."""
    start = time.monotonic()
    orbit = DrivingOrbit(twoscale.driving, 0)
    hist = level_histogram(twoscale, orbit, (0, 1), n=20, bins=32)
    corrected = corrected_coarse_dimensions(hist)
    assert corrected is not None
    worst_raw = worst = 0.0
    compared = 0
    for j in range(len(hist.counts)):
        if hist.counts[j] < 100:
            continue
        chi = float(hist.bin_exponents[j])
        l_value = float(legendre_spectrum(twoscale_curve, [chi]).values[0])
        worst_raw = max(worst_raw, abs(float(hist.coarse_dimensions[j]) - l_value))
        assert not math.isnan(corrected[j]), j  # every populated bin is interior here
        worst = max(worst, abs(float(corrected[j]) - l_value))
        compared += 1
    elapsed = time.monotonic() - start
    _report(
        "6b",
        worst <= 0.05,
        f"worst |corrected - l| = {worst:.4f} (raw {worst_raw:.4f}) over {compared} bins at depth 20, {elapsed:.1f}s",
    )
    assert compared >= 10
    assert elapsed < 60.0
    assert worst <= 0.05


def test_criterion_6c_endpoint_value(twoscale_curve):
    """Near the left endpoint the spectrum follows the closed form
    H(q)/beta (q = beta/log 2 - 1) to 1e-6, and at the endpoint it vanishes."""
    beta = LOG2 + 0.01
    q = beta / LOG2 - 1.0
    closed_form = (-q * math.log(q) - (1.0 - q) * math.log(1.0 - q)) / beta
    got = float(legendre_spectrum(twoscale_curve, [beta]).values[0])
    at_endpoint = float(legendre_spectrum(twoscale_curve, [LOG2]).values[0])
    ok = abs(got - closed_form) <= 1e-6 and at_endpoint <= 1e-6
    _report("6c", ok, f"l(log2 + 0.01) = {got:.6f} vs H(q)/beta = {closed_form:.6f}, l(log2) = {at_endpoint:.1e}")
    assert at_endpoint <= 1e-6  # the limit at the endpoint itself does vanish
    assert got == pytest.approx(closed_form, abs=1e-6)


# -- criterion 7: temperature-curve consistency --------------------------------


def test_criterion_7_temperature_consistency(twoscale_curve):
    t_at = tq_analysis(twoscale_curve, np.linspace(-2, 2, 9), symbol_count=2)
    t1 = t_at(1.0)
    t0 = t_at(0.0)
    s_star = bowen_dimension(twoscale_curve.evaluator, twoscale_curve.s_infinity)
    p_zero = twoscale_curve.evaluator(0.0)
    betas = np.linspace(LOG2 + 0.08, LOG4 - 0.08, 10)
    direct = legendre_spectrum(twoscale_curve, betas)
    worst_route = max(
        abs(tq_transform(twoscale_curve, t_at, p_zero / beta) - l_direct)
        for beta, l_direct in zip(betas, direct.values)
    )
    ok = abs(t1) <= 1e-8 and abs(t0 - s_star) <= 1e-6 and worst_route <= 1e-6
    _report("7", ok, f"T(1)={t1:.1e}, |T(0)-s*|={abs(t0 - s_star):.1e}, routes {worst_route:.1e}")
    assert abs(t1) <= 1e-8
    assert abs(t0 - s_star) <= 1e-6
    assert worst_route <= 1e-6


# -- criterion 8: geometric cross-check ----------------------------------------


def test_criterion_8_box_counting(cantor, cantor_shrunk):
    orbit = DrivingOrbit(cantor.driving, 0)
    est = box_counting(
        sample_limit_set(cantor, orbit, depth=10), [3.0 ** -j for j in range(2, 8)]
    )
    orbit2 = DrivingOrbit(cantor_shrunk.driving, 0)
    est2 = box_counting(
        sample_limit_set(cantor_shrunk, orbit2, depth=10), [0.3 ** j for j in range(2, 8)]
    )
    shrunk_dim = LOG2 / math.log(10 / 3)
    ok = 0.58 <= est.dimension <= 0.68 and est2.dimension <= shrunk_dim + 0.05
    _report("8", ok, f"middle-thirds box {est.dimension:.4f}, separated box {est2.dimension:.4f}")
    assert 0.58 <= est.dimension <= 0.68
    assert est2.dimension <= shrunk_dim + 0.05


# -- criterion 9: exponent range ------------------------------------------------


def test_criterion_9_exponent_range(cantor, twoscale, twoscale_curve):
    cantor_curve = _exact_curve(cantor, np.linspace(-2, 6, 33), (LOG3, LOG3))
    violations = 0
    for system, curve in ((twoscale, twoscale_curve), (cantor, cantor_curve)):
        orbit = DrivingOrbit(system.driving, 0)
        hist = level_histogram(system, orbit, (0, 1), n=20)
        lo, hi = curve.exponent_lo, curve.exponent_hi
        if hist.exponent_min < lo - 1e-12 or hist.exponent_max > hi + 1e-12:
            violations += 1
    _report("9", violations == 0, f"{violations} violations at depth 20")
    assert violations == 0


# -- criterion 10: determinism ---------------------------------------------------


def test_criterion_10_byte_determinism(tmp_path):
    configs = json.dumps(
        {
            "name": "det",
            "system": {"preset": "twoscale"},
            "analysis": {"s_min": -2.0, "s_max": 4.0, "s_steps": 13, "beta_steps": 9, "depth": 6},
        }
    )
    cfg = tmp_path / "det.json"
    cfg.write_text(configs)
    paper_cfg = tmp_path / "paper.json"
    paper_cfg.write_text(
        json.dumps(
            {
                "system": {"preset": "paper-example"},
                "analysis": {"depth": 4, "rungs": [16]},  # random-word sampling path
            }
        )
    )
    outputs = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / tag
        for command in ("pressure", "spectrum", "dimension", "limitset"):
            code = cli_main(
                [command, "--config", str(cfg), "--out", str(out), "--seed", "7", "--workers", str(workers)]
            )
            assert code == 0
        code = cli_main(
            ["limitset", "--config", str(paper_cfg), "--out", str(out / "paper"), "--seed", "7", "--workers", str(workers)]
        )
        assert code == 0
        outputs[tag] = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*.csv")) + sorted(out.rglob("*.json"))
            if p.name != "run_meta.json"
        }
    identical = outputs["a"] == outputs["b"] == outputs["c"]
    _report("10", identical, f"{len(outputs['a'])} artifacts compared across reruns and worker counts")
    assert identical
