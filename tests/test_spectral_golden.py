"""The exact-spectral route's artifacts and its evaluation count.

The sha256 of every artifact body (run_meta.json holds a timestamp and is
left out) that `dimension` and `spectrum` write on the generated 64-symbol
config of perfbench/generate.py, at seeds 11 and 21.  Recorded before each
curve kept one table of estimates per scale; any change to how the route
evaluates, caches or solves must keep them.

The count test holds `spectrum` to one pressure evaluation per (scale,
slope-or-not) pair.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import rcgdms.cli as cli
from rcgdms.cli import main

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import generate  # noqa: E402

GOLDEN = {
    11: {
        "dimension/dimension.json": "38ec3c0bfdc66a8d03eed587ea192638bfc11e02f03bce9052f7c3028f312860",
        "dimension/pressure_curve.csv": "e46b848833404be30c3a782377b5fbacac4b7e7ec7e5c240b6d9630dc57e2c4e",
        "spectrum/pressure_curve.csv": "e46b848833404be30c3a782377b5fbacac4b7e7ec7e5c240b6d9630dc57e2c4e",
        "spectrum/spectrum.csv": "f24676a9ff4651d6ee564716bb820751454e6f011c12aa27b03588b95792b361",
        "spectrum/spectrum.json": "3220225f8484d4e9ec8984482dc9c652ff9769e3424cad12a4b96e6d271d2aab",
    },
    21: {
        "dimension/dimension.json": "be27287c951d5751c906c1698f35260fad9ff760aa66c6fd9af03ac7056535fd",
        "dimension/pressure_curve.csv": "9c208743464cfd8a4f342c77111e6efae596f5e4f669c41dae31551de7f1662b",
        "spectrum/pressure_curve.csv": "9c208743464cfd8a4f342c77111e6efae596f5e4f669c41dae31551de7f1662b",
        "spectrum/spectrum.csv": "dbbc060f83c27688d80394e6d72ff680232937b3884d28ed2df6e2c791569b15",
        "spectrum/spectrum.json": "c615221dfc968957c79443f070e36f376980215900fae922735463ee7dfc14f3",
    },
}


def _config(seed, tmp_path) -> Path:
    [(name, cfg, _)] = generate.markov_spectral(seed)
    path = tmp_path / f"{name}.json"
    path.write_text(generate.dump(cfg))
    return path


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_spectral_artifacts_keep_their_bytes(seed, tmp_path):
    path = _config(seed, tmp_path)
    got = {}
    for command in ("dimension", "spectrum"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        for f in out.iterdir():
            if f.name != "run_meta.json":
                got[f"{command}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    assert got == GOLDEN[seed]


@pytest.fixture
def calls(monkeypatch) -> list:
    """(scale, slope-or-not) of every pressure evaluation the CLI makes."""
    seen = []
    real = cli.pressure

    def counting(symbols, potential, **kwargs):
        seen.append((potential.scale, kwargs.get("slope", False)))
        return real(symbols, potential, **kwargs)

    monkeypatch.setattr(cli, "pressure", counting)
    return seen


def test_spectrum_evaluates_each_scale_once(tmp_path, calls):
    # the grid, Bowen's root and the Legendre walks share one table per curve:
    # 150 evaluations over 117 distinct pairs before it
    assert main(["spectrum", "--config", str(_config(11, tmp_path)), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) <= 113
    assert len(set(calls)) == len(calls)
    assert any(slope for _, slope in calls)  # the transforms read the analytic slope


def test_a_value_estimate_answers_no_slope_request(tmp_path, calls):
    # a slope estimate answers later value requests; a value estimate does not
    # answer a slope request
    curve = cli._curve(cli.load_config(_config(11, tmp_path)))
    assert curve.slope is not None  # the exact-spectral route
    grid = len(calls)
    value = curve.evaluator(0.37)
    slope = curve.slope(0.37)
    assert calls[grid:] == [(0.37, False), (0.37, True)]
    assert curve.evaluator(0.37) == value and curve.slope(0.37) == slope
    curve.slope(0.41)
    curve.evaluator(0.41)
    assert calls[grid + 2:] == [(0.41, True)]
