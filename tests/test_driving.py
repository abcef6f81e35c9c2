import json
import math
from pathlib import Path

import numpy as np
import pytest

import rcgdms.driving as driving
from rcgdms.cli import main
from rcgdms.driving import (
    DrivingOrbit,
    bernoulli,
    deterministic,
    orbit_family,
    periodic,
)
from rcgdms.gdms import example_weights


def test_deterministic_orbit_constant():
    orbit = DrivingOrbit(deterministic("x"), seed=7)
    assert all(orbit.state(k) == "x" for k in (-5, 0, 3, 1000))


def test_periodic_orbit_indexing():
    orbit = DrivingOrbit(periodic(("a", "b")), seed=0)
    assert orbit.state(0) == "a"
    assert orbit.state(1) == "b"
    assert orbit.state(-1) == "b"
    assert orbit.state(-2) == "a"
    assert orbit.state(10**6) == "a"


def test_same_seed_same_sequence():
    drv = bernoulli((1, 2, 3), (0.2, 0.3, 0.5))
    a = DrivingOrbit(drv, seed=42)
    b = DrivingOrbit(drv, seed=42)
    assert [a.state(k) for k in range(-50, 50)] == [b.state(k) for k in range(-50, 50)]
    c = DrivingOrbit(drv, seed=43)
    assert [a.state(k) for k in range(200)] != [c.state(k) for k in range(200)]


def test_two_sided_consistency_independent_of_access_order():
    drv = bernoulli((0, 1), (0.5, 0.5))
    far_first = DrivingOrbit(drv, seed=5)
    far_first.state(10**6)
    far_first.state(-(10**5))
    fresh = DrivingOrbit(drv, seed=5)
    for k in (-1000, -1, 0, 1, 999, 12345):
        assert far_first.state(k) == fresh.state(k)


def test_weight_normalization_guard():
    with pytest.raises(ValueError):
        bernoulli((0, 1), (0.0, 0.0))
    for weights in ((-0.5, 1.5), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            bernoulli((0, 1), weights)
    drv = bernoulli((0, 1), (2.0, 6.0))  # normalized internally
    assert drv.weights == (0.25, 0.75)


def test_example_weights_closed_form():
    states, weights = example_weights(12)
    # independent recomputation straight from the defining series
    raw = [1.0 / (2**i * sum(2 ** (k * k) for k in range(1, i + 1))) for i in range(1, 13)]
    total = sum(raw)
    for w, expect in zip(weights, raw):
        assert w == pytest.approx(expect / total, rel=1e-12)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_example_state_frequency_within_monte_carlo_error():
    states, weights = example_weights(20)
    drv = bernoulli(states, weights)
    orbit = DrivingOrbit(drv, seed=11)
    n = 100_000
    draws = [orbit.state(k) for k in range(n)]
    freq = sum(1 for s in draws if s == 1) / n
    w1 = drv.weights[0]
    se = math.sqrt(w1 * (1 - w1) / n)
    assert abs(freq - w1) <= 3 * se


def test_ergodic_average_converges():
    drv = bernoulli((1, 2), (0.3, 0.7))
    orbit = DrivingOrbit(drv, seed=3)
    n = 200_000
    avg = sum(1.0 if s == 1 else 0.0 for s in [orbit.state(k) for k in range(n)]) / n
    assert abs(avg - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / n)


def test_expectation_exact_paths():
    assert deterministic(4).expectation(lambda s: s * s) == 16
    assert periodic((1, 3)).expectation(lambda s: s) == 2
    drv = bernoulli((0, 1), (0.25, 0.75))
    assert drv.expectation(lambda s: float(s)) == pytest.approx(0.75)
    assert drv.expectation(lambda s: math.inf if s == 1 else 0.0) == math.inf


def test_orbit_family_reproducible():
    drv = bernoulli((0, 1), (0.5, 0.5))
    fam1 = orbit_family(drv, count=4, root_seed=9)
    fam2 = orbit_family(drv, count=4, root_seed=9)
    for a, b in zip(fam1.orbits, fam2.orbits, strict=True):
        assert [a.state(k) for k in range(100)] == [b.state(k) for k in range(100)]


def test_orbit_family_seeds_its_orbits_from_the_root():
    drv = bernoulli((0, 1), (0.5, 0.5))
    family = orbit_family(drv, count=4, root_seed=9)
    assert [o.seed for o in family.orbits] == np.random.SeedSequence(9).generate_state(4).tolist()
    assert all(o.system is drv for o in family.orbits)


@pytest.mark.parametrize("config,orbits", [("paper-example", 0), ("bernoulli", 16)])
def test_commands_draw_orbits_only_on_the_monte_carlo_route(config, orbits, tmp_path, monkeypatch):
    """The exact routes read no orbit family; a Monte Carlo `dimension`
    draws its one family of 16 once."""
    path = Path(__file__).resolve().parents[1] / "configs" / "paper-example.json"
    if config == "bernoulli":
        path = tmp_path / "bernoulli.json"
        path.write_text(json.dumps({
            "system": {"edges": 2, "incidence": [[1, 1], [1, 0]]},
            "maps": {"ratios": {"0": {"0": "1/3", "1": "1/4"}, "1": {"0": "1/5", "1": "1/3"}},
                     "offsets": {"0": {"0": 0.0, "1": 0.5}, "1": {"0": 0.0, "1": 0.5}}},
            "driving": {"kind": "bernoulli", "states": [0, 1], "weights": [0.5, 0.5]},
            "analysis": {"s_min": 0.0, "s_max": 1.0, "s_steps": 3},
        }))
    built = []
    init = driving.DrivingOrbit.__init__
    monkeypatch.setattr(driving.DrivingOrbit, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    assert main(["dimension", "--config", str(path), "--out", str(tmp_path / "out"), "--s-steps", "5"]) == 0
    assert len(built) == orbits
