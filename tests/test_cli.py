import json
import math
from pathlib import Path

import pytest

from rcgdms.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_dimension_command_cantor(tmp_path):
    code = run_cli("dimension", "--config", CONFIGS / "cantor.json", "--out", tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "dimension.json").read_text())
    assert payload["s_star"] == pytest.approx(0.630930, abs=1e-6)
    assert payload["s_infinity"] == "-inf"
    assert (tmp_path / "run_meta.json").exists()


def test_spectrum_command_twoscale(tmp_path):
    code = run_cli("spectrum", "--config", CONFIGS / "twoscale.json", "--out", tmp_path)
    assert code == 0
    body = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert body[0] == "beta,l,flag"
    assert len(body) > 10
    summary = json.loads((tmp_path / "spectrum.json").read_text())
    assert summary["s_star"] == pytest.approx(0.694242, abs=1e-6)


def test_pressure_command_and_worker_determinism(tmp_path):
    out1, out2, out4 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli("pressure", "--config", CONFIGS / "twoscale.json", "--out", out1) == 0
    assert run_cli("pressure", "--config", CONFIGS / "twoscale.json", "--out", out2) == 0
    assert (
        run_cli("pressure", "--config", CONFIGS / "twoscale.json", "--out", out4, "--workers", 4)
        == 0
    )
    body1 = (out1 / "pressure.csv").read_bytes()
    assert body1 == (out2 / "pressure.csv").read_bytes()
    assert body1 == (out4 / "pressure.csv").read_bytes()
    # worker threads share the potential's lazily filled log-weight table
    paper1, paper4 = tmp_path / "p1", tmp_path / "p4"
    config = CONFIGS / "paper-example.json"
    assert run_cli("pressure", "--config", config, "--out", paper1, "--workers", 1) == 0
    assert run_cli("pressure", "--config", config, "--out", paper4, "--workers", 4) == 0
    assert (paper1 / "pressure.csv").read_bytes() == (paper4 / "pressure.csv").read_bytes()


def test_measures_command(tmp_path):
    assert run_cli("measures", "--config", CONFIGS / "cantor.json", "--out", tmp_path) == 0
    lines = (tmp_path / "measures.csv").read_text().splitlines()
    assert lines[0] == "word,depth,position,mass"
    masses = {}
    for line in lines[1:]:
        word, depth, position, mass = line.split(",")
        if position == "0":
            masses[word] = float(mass)
    assert masses["0"] + masses["1"] == pytest.approx(1.0)


def test_limitset_command_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("limitset", "--config", CONFIGS / "cantor.json", "--out", a, "--seed", 3) == 0
    assert run_cli("limitset", "--config", CONFIGS / "cantor.json", "--out", b, "--seed", 3) == 0
    assert (a / "limitset.csv").read_bytes() == (b / "limitset.csv").read_bytes()


def test_primitivity_command(tmp_path):
    assert run_cli("primitivity", "--config", CONFIGS / "twoscale.json", "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "primitivity.json").read_text())
    assert payload["order"] == 1
    assert payload["reverified"]


def test_verify_command_twoscale(tmp_path):
    assert run_cli("verify", "--config", CONFIGS / "twoscale.json", "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["ok"]
    assert {c["name"] for c in payload["checks"]} >= {
        "primitivity",
        "sandwich",
        "gibbs",
        "exponent_range",
        "histogram_vs_spectrum",
    }


def test_example_paper_command(tmp_path):
    assert run_cli("example-paper", "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "example-paper.json").read_text())
    assert all(payload["verdicts"].values())
    assert payload["m_ru"]["1.0"] == pytest.approx(0.5, abs=1e-9)
    assert payload["pressure_at_1"] <= -math.log(2) + 1e-6


def test_unknown_preset_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"preset": "nope"}}))
    assert run_cli("dimension", "--config", bad, "--out", tmp_path) == 2


def test_missing_maps_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"edges": 2}}))
    assert run_cli("dimension", "--config", bad, "--out", tmp_path) == 2


@pytest.mark.parametrize("weights", [[-0.5, 1.5], [math.nan, 1.0], [0.0, 0.0]])
def test_bad_bernoulli_weights_exit_2(tmp_path, weights):
    bad = tmp_path / "bad.json"
    config = json.loads((CONFIGS / "custom-example.json").read_text())
    config["driving"] = {"kind": "bernoulli", "states": [0, 1], "weights": weights}
    config["maps"]["ratios"]["1"] = config["maps"]["ratios"]["0"]
    config["maps"]["offsets"]["1"] = config["maps"]["offsets"]["0"]
    bad.write_text(json.dumps(config))
    assert run_cli("pressure", "--config", bad, "--out", tmp_path) == 2


def test_invalid_rungs_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"system": {"preset": "cantor"}, "analysis": {"rungs": [4, 2]}})
    )
    assert run_cli("pressure", "--config", bad, "--out", tmp_path) == 2


def test_unbounded_spectrum_needs_beta_cap(tmp_path):
    cfg = tmp_path / "paper.json"
    cfg.write_text(
        json.dumps(
            {
                "system": {"preset": "paper-example"},
                "analysis": {"s_min": 0.05, "s_max": 1.5, "s_steps": 12},
            }
        )
    )
    assert run_cli("spectrum", "--config", cfg, "--out", tmp_path) == 2


def test_custom_similarity_config(tmp_path):
    assert run_cli("dimension", "--config", CONFIGS / "custom-example.json", "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "dimension.json").read_text())
    # golden-mean incidence with ratios 2/5 and 1/5: root of the weighted
    # transfer spectral radius, cross-checked against the direct equation
    # x = (2/5)^s solving x + x*(1/5)^s ... spectral radius route is exact
    assert 0.0 < payload["s_star"] < 1.0


def test_seed_changes_limitset(tmp_path):
    cfg = tmp_path / "paper.json"
    cfg.write_text(
        json.dumps(
            {
                "system": {"preset": "paper-example"},
                "analysis": {"depth": 4, "rungs": [16]},
            }
        )
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("limitset", "--config", cfg, "--out", a, "--seed", 1) == 0
    assert run_cli("limitset", "--config", cfg, "--out", b, "--seed", 2) == 0
    assert (a / "limitset.csv").read_bytes() != (b / "limitset.csv").read_bytes()


def test_custom_potential_block(tmp_path):
    cfg = tmp_path / "pot.json"
    cfg.write_text(
        json.dumps(
            {
                "system": {"preset": "twoscale"},
                "potential": {
                    "type": "custom-first-symbol",
                    "table": {"0": {"0": 0.0, "1": 0.0}},
                },
                "analysis": {"s_min": -1.0, "s_max": 2.0, "s_steps": 7},
            }
        )
    )
    assert run_cli("pressure", "--config", cfg, "--out", tmp_path) == 0
    lines = (tmp_path / "pressure.csv").read_text().splitlines()
    # the zero table makes every scaled pressure the plain topological entropy
    for line in lines[1:]:
        assert float(line.split(",")[3]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_dimension_emits_curve_csv(tmp_path):
    assert run_cli("dimension", "--config", CONFIGS / "cantor.json", "--out", tmp_path) == 0
    lines = (tmp_path / "pressure_curve.csv").read_text().splitlines()
    assert lines[0] == "s,p,p_repaired"
    s0, p0, r0 = lines[1].split(",")
    assert float(p0) == pytest.approx(math.log(2) - float(s0) * math.log(3), abs=1e-12)


@pytest.mark.parametrize("command", ["dimension", "spectrum"])
def test_pressure_failure_exits_3(tmp_path, monkeypatch, capsys, command):
    # a failing pressure evaluation is a numeric failure, not a +inf grid point
    import rcgdms.cli as cli

    real = cli.pressure

    def failing(system, symbols, potential, **kwargs):
        if 0.2 < potential.scale < 0.4:
            raise ValueError(f"no pressure at s = {potential.scale}")
        return real(system, symbols, potential, **kwargs)

    monkeypatch.setattr(cli, "pressure", failing)
    code = run_cli(command, "--config", CONFIGS / "cantor.json", "--out", tmp_path)
    assert code == 3
    assert "numeric failure: no pressure at s = 0.25" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()
