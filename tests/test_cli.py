import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from words import birkhoff, codes, enumerate_words, ratio_of, value

import rcgdms
import rcgdms.shift
from rcgdms import config
from rcgdms.cli import _curve, _exponent_hull, _labels, _preorder, _write_csv, main
from rcgdms.config import Analysis, ConfigError, RunConfig, load_config
from rcgdms.driving import DrivingOrbit, bernoulli, deterministic, periodic
from rcgdms.gdms import BlockTailExample, sample_limit_set, similarity_system
from rcgdms.potentials import geometric_potential, table_potential
from rcgdms.shift import from_matrix, full_shift, prefix_tree
from rcgdms.spectrum import legendre_spectrum
from rcgdms.thermo import _connector_bound, _lane

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


def _reference_writer(path: Path, header, rows) -> None:
    # the per-cell writer the column writer replaced
    lines = [",".join(header)]
    lines.extend(",".join([str(v.item() if isinstance(v, np.generic) else v) for v in row]) for row in rows)
    path.write_text("\n".join(lines) + "\n")


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308])
_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=","), max_size=6)


def _column(n: int):
    """n cells of one kind: a numpy array (float64, float32, int64, uint8 or
    bool), or Python floats, ints, bools and strings as they come."""
    def array(cells, dtype):
        return st.lists(cells, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=dtype))

    return st.one_of(
        array(st.one_of(_floats, _specials), np.float64),
        array(st.floats(width=32, allow_subnormal=True), np.float32),
        array(st.integers(-(2**63), 2**63 - 1), np.int64),
        array(st.integers(0, 255), np.uint8),
        array(st.booleans(), bool),
        st.lists(st.one_of(_floats, _specials, st.integers(-(2**70), 2**70), st.booleans(), _text), min_size=n, max_size=n),
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.lists(_column(n), min_size=1, max_size=5)))
def test_csv_writer_matches_per_value_formatting(tmp_path_factory, columns):
    """The column writer, fed .tolist() of numpy columns, writes the bytes
    the per-cell writer wrote from their numpy scalars."""
    header = tuple("abcde"[: len(columns)])
    got, want = tmp_path_factory.mktemp("csv") / "got.csv", tmp_path_factory.mktemp("csv") / "want.csv"
    _write_csv(got, header, [c.tolist() if isinstance(c, np.ndarray) else c for c in columns])
    _reference_writer(want, header, zip(*columns))
    assert got.read_bytes() == want.read_bytes()


@st.composite
def _word_trees(draw):
    """A random incidence on 2-4 symbols, dead ends allowed, a symbol subset
    and a depth of 1-4."""
    k = draw(st.integers(2, 4))
    edges = sorted(draw(st.sets(st.integers(0, 40), min_size=k, max_size=k)))
    system = full_shift(edges) if draw(st.booleans()) else from_matrix(edges, [[draw(st.integers(0, 1)) for _ in edges] for _ in edges])
    symbols = tuple(sorted(draw(st.sets(st.sampled_from(edges), min_size=1))))
    return system, symbols, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(_word_trees())
def test_measures_rows_follow_the_sorted_words(case):
    """measures.csv's order and labels, from the word tree's levels: the
    pre-order over all lengths is sorted() of the words, the order the rows
    took from sorted(masses), and each label is its symbols joined by "-"."""
    system, symbols, depth = case
    levels = list(prefix_tree(system, symbols, depth))
    if not len(levels[-1][1]):
        return  # no word of the full depth: measures refuses it
    words = [list(enumerate_words(system, symbols, n)) for n in range(1, depth + 1)]
    flat = [w for level in words for w in level]
    assert [flat[i] for i in _preorder([parent for parent, _ in levels])] == sorted(flat)
    names = np.array([str(e) for e in symbols], dtype=object)
    for level, labels in zip(words, _labels(levels, names)):
        assert labels.tolist() == ["-".join(map(str, w)) for w in level]


@pytest.mark.parametrize("config, extra", [("cantor.json", ()), ("twoscale.json", ("--seed", "5")), ("paper-example.json", ("--depth", "7"))])
def test_limitset_labels_spell_the_sampled_words(tmp_path, monkeypatch, config, extra):
    """Each limitset.csv label is its word's symbols joined by "-", in the
    sample's order: exhaustive samples (cantor, twoscale) and a random one
    (paper-example past 4096 words)."""
    samples = []

    def keep(*args, **kwargs):
        samples.append(sample_limit_set(*args, **kwargs))
        return samples[-1]

    monkeypatch.setattr(rcgdms.cli, "sample_limit_set", keep)
    assert run_cli("limitset", "--config", CONFIGS / config, "--out", tmp_path, *extra) == 0
    labels = [line.split(",")[0] for line in (tmp_path / "limitset.csv").read_text().splitlines()[1:]]
    assert labels == ["-".join(map(str, w)) for w in codes(samples[0]).tolist()]


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


@pytest.mark.parametrize("weights", [[-0.5, 1.5], [math.nan, 1.0], [0.0, 0.0], ["x", 1.0]])
def test_bad_bernoulli_weights_exit_2(tmp_path, capsys, weights):
    bad = tmp_path / "bad.json"
    config = json.loads((CONFIGS / "custom-example.json").read_text())
    config["driving"] = {"kind": "bernoulli", "states": [0, 1], "weights": weights}
    config["maps"]["ratios"]["1"] = config["maps"]["ratios"]["0"]
    config["maps"]["offsets"]["1"] = config["maps"]["offsets"]["0"]
    bad.write_text(json.dumps(config))
    assert run_cli("pressure", "--config", bad, "--out", tmp_path) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_monte_carlo_route_skips_a_zero_weight_state(tmp_path):
    """A non-full Bernoulli system with a zero-weight fiber state runs on the
    Monte Carlo route: the state is never drawn, so its weights are never
    tabulated, and pressure.csv is the same at 1 and 2 workers."""
    table = {"0": "1/3", "1": "1/4", "2": "1/5"}
    offsets = {"0": 0.0, "1": 0.4, "2": 0.7}
    config = tmp_path / "zero-weight.json"
    config.write_text(json.dumps({
        "system": {"edges": 3, "incidence": [[1, 1, 0], [0, 0, 1], [1, 0, 1]]},
        "maps": {"ratios": {st: table for st in "012"}, "offsets": {st: offsets for st in "012"}},
        "driving": {"kind": "bernoulli", "states": [0, 1, 2], "weights": [0.5, 0.0, 0.5]},
        "analysis": {"s_min": 0.0, "s_max": 1.0, "s_steps": 5},
    }))
    for workers in (1, 2):
        assert run_cli("pressure", "--config", config, "--out", tmp_path / f"w{workers}", "--workers", workers) == 0
    body = (tmp_path / "w1" / "pressure.csv").read_text()
    assert body == (tmp_path / "w2" / "pressure.csv").read_text()
    assert {line.split(",")[2] for line in body.splitlines()[1:]} == {"8"}  # the Monte Carlo depth
    assert run_cli("dimension", "--config", config, "--out", tmp_path / "dim") == 0


def _set(*keys_and_value):
    """An edit of a config document that sets the value at a key path."""
    *keys, value = keys_and_value

    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return edit


def _tailed(**tail):
    def edit(doc):
        doc["system"] = {"edges": 2, "incidence": "full", "tail": tail}

    return edit


# the tailed config of CI and test_reach.py: two edges (ratios 1/4 and 1/8)
# and a geometric tail of ratio 1/8 from edge 3
TAILED = {
    "system": {"edges": 2, "tail": {"ratio": 0.125, "start": 3}},
    "maps": {"ratios": {"0": {"0": "1/4", "1": "1/8"}}, "offsets": {"0": {"0": 0.0, "1": 0.5}}},
    "driving": {"kind": "deterministic", "states": [0]},
    "analysis": {"s_min": 0.05, "s_max": 2.0, "s_steps": 12},
}
NOT_PRIMITIVE = "system is not finitely primitive over the working symbols"

# id -> (edit of configs/custom-example.json, command, text the config error names)
MALFORMED = {
    "analysis-list": (_set("analysis", [1]), "dimension", "analysis: object required"),
    "s_steps-string": (_set("analysis", "s_steps", "33"), "dimension", "analysis.s_steps: integer >= 2"),
    "s_steps-float": (_set("analysis", "s_steps", 33.0), "dimension", "analysis.s_steps: integer >= 2"),
    "s_min-string": (_set("analysis", "s_min", "a"), "dimension", "analysis.s_min: finite number required"),
    "s_max-bool": (_set("analysis", "s_max", True), "dimension", "analysis.s_max: finite number required"),
    "depth-string": (_set("analysis", "depth", "x"), "limitset", "analysis.depth: integer >= 1"),
    "bins-zero": (_set("analysis", "bins", 0), "verify", "analysis.bins: integer >= 1"),
    "beta_steps-zero": (_set("analysis", "beta_steps", 0), "spectrum", "analysis.beta_steps: integer >= 2"),
    "rungs-strings": (_set("analysis", "rungs", ["a"]), "dimension", "analysis.rungs: strictly increasing"),
    "seed-string": (_set("seed", "x"), "dimension", "seed: integer >= 0 required"),
    "system-list": (_set("system", [1]), "dimension", "system: object required"),
    "incidence-ragged": (_set("system", "incidence", [[1, 1], [1]]), "dimension", "incidence matrix shape"),
    "tail-empty": (_tailed(), "dimension", "system.tail.ratio: finite number required"),
    "tail-start-at-an-edge": (_tailed(ratio=0.125, start=1), "dimension", "system.tail.start: integer >= 2"),
    "tail-with-a-matrix": (_set("system", "tail", {"ratio": 0.125, "start": 3}), "dimension", "system.tail: analytic tails"),
    "top-level-list": (lambda doc: [doc], "dimension", "config: object required"),
    "potential-list": (_set("potential", [1, 2]), "dimension", "potential: object required"),
    "potential-table-string": (
        _set("potential", {"type": "custom-first-symbol", "table": {"0": {"0": "abc", "1": 0.0}}}),
        "dimension",
        "potential.table.0.0: finite number required",
    ),
    "potential-scale-string": (_set("potential", {"type": "geometric", "scale": "abc"}), "dimension", "potential.scale: unknown field"),
    "potential-scale": (_set("potential", {"type": "geometric", "scale": 2.0}), "dimension", "potential.scale: unknown field"),
    "pure-tail-cutoff": (lambda doc: {"system": {"preset": "pure-tail", "cutoff": "x"}}, "dimension", "system.cutoff: integer >= 1"),
    # documented failures of valid documents: found by a command, before it writes
    "not-primitive-primitivity": (_set("system", "incidence", [[1, 0], [0, 1]]), "primitivity", NOT_PRIMITIVE),
    "not-primitive-pressure": (_set("system", "incidence", [[1, 0], [0, 1]]), "pressure", NOT_PRIMITIVE),
    "not-primitive-verify": (_set("system", "incidence", [[1, 0], [0, 1]]), "verify", NOT_PRIMITIVE),
    "s-grid-at-the-threshold": (
        lambda doc: {"system": {"preset": "paper-example"}, "analysis": {"s_min": -1.0, "s_max": 0.0}},
        "dimension",
        "the whole s grid sits at or below the summability threshold",
    ),
    "unbounded-exponents": (lambda doc: TAILED, "spectrum", "unbounded exponent interval (cofinitely regular tail); set analysis.beta_max"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_config_exits_2(tmp_path, capsys, case):
    edit, command, named = MALFORMED[case]
    doc = json.loads((CONFIGS / "custom-example.json").read_text())
    doc = edit(doc) or doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli(command, "--config", bad, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("dimension", ("--rungs", "a"), "--rungs: comma-separated integers required"),
        ("pressure", ("--rungs", "2,1"), "--rungs: strictly increasing"),
        ("limitset", ("--depth", "0"), "--depth: integer >= 1"),
        ("dimension", ("--s-steps", "1"), "--s-steps: integer >= 2"),
        ("dimension", ("--s-steps", "2.5"), "--s-steps: integer required"),
        ("dimension", ("--s-min", "5", "--s-max", "1"), "--s-min: grid must be increasing"),
        ("dimension", ("--s-max", "nan"), "--s-max: finite number required"),
        ("spectrum", ("--beta-min", "2", "--beta-max", "1"), "--beta-min: grid must be increasing"),
        ("spectrum", ("--beta-min", "-2", "--beta-max", "-1"), "analysis.beta_min, beta_max: the beta range [-2, -1] holds no positive exponent"),
    ],
)
def test_malformed_flag_exits_2(tmp_path, capsys, command, flags, named):
    # flags are merged into the analysis block and checked as its fields are
    assert run_cli(command, "--config", CONFIGS / "custom-example.json", "--out", tmp_path / "out", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


def test_invalid_rungs_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"system": {"preset": "cantor"}, "analysis": {"rungs": [4, 2]}})
    )
    assert run_cli("pressure", "--config", bad, "--out", tmp_path) == 2


@pytest.mark.parametrize(
    "args, named",
    [
        (("pressure", "--config", CONFIGS / "cantor.json", "--rungs", "4"), "--rungs: rung size 4 exceeds the 2 materialized edges"),
        (("example-paper", "--rungs", "4,2000"), "--rungs: rung size 2000 exceeds the 1024 materialized edges"),
    ],
    ids=["cantor", "example-paper"],
)
def test_rung_above_the_alphabet_exits_2(tmp_path, capsys, args, named):
    assert run_cli(*args, "--out", tmp_path / "out") == 2
    assert named in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"preset": "cantor"}, "analysis": {"rungs": [1, 3]}}))
    assert run_cli("pressure", "--config", bad, "--out", tmp_path / "out") == 2
    assert "analysis.rungs: rung size 3 exceeds the 2 materialized edges" in capsys.readouterr().err


BERNOULLI3 = {  # a Monte Carlo config whose connector alphabet is all three symbols
    "system": {"edges": 3, "incidence": [[1, 1, 0], [0, 0, 1], [1, 0, 1]]},
    "maps": {"ratios": {str(i): {"0": "1/3", "1": "1/4", "2": "1/5"} for i in range(3)},
             "offsets": {str(i): {"0": 0.0, "1": 0.4, "2": 0.7} for i in range(3)}},
    "driving": {"kind": "bernoulli", "states": [0, 1, 2], "weights": [0.5, 0.0, 0.5]},
    "analysis": {"s_min": 0.0, "s_max": 1.0, "s_steps": 5},
}


@pytest.mark.parametrize("from_flag", [True, False], ids=["flag", "config"])
def test_rung_below_the_connector_alphabet_exits_2(tmp_path, capsys, from_flag):
    doc = json.loads(json.dumps(BERNOULLI3))
    if not from_flag:
        doc["analysis"]["rungs"] = [2, 3]
    path = tmp_path / "bernoulli.json"
    path.write_text(json.dumps(doc))
    flags = ("--rungs", "2,3") if from_flag else ()
    assert run_cli("pressure", "--config", path, "--out", tmp_path / "out", *flags) == 2
    err = capsys.readouterr().err
    assert err == "config error: analysis.rungs: first rung 2 is smaller than the 3-symbol connector alphabet\n"


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_exits_2(tmp_path, capsys, workers):
    assert run_cli("pressure", "--config", CONFIGS / "cantor.json", "--out", tmp_path / "out", "--workers", workers) == 2
    assert "--workers: integer >= 1 required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["measures", "verify"])
def test_large_alphabets_keep_within_the_sample_budget(tmp_path, command):
    """32 symbols: the measures' depth-6 and the Gibbs check's depth-5 words
    would pass the enumeration budget, so both take the deepest depth whose
    words fit the sample budget (depth 3: 32,768 words; depth 4 has
    1,048,576)."""
    n = 32
    cfg = tmp_path / "wide.json"
    ratios = {str(st): {str(e): f"1/{2 * n + st + e % 3}" for e in range(n)} for st in (0, 1)}
    offsets = {str(st): {str(e): e / n for e in range(n)} for st in (0, 1)}
    cfg.write_text(json.dumps({"system": {"edges": n}, "maps": {"ratios": ratios, "offsets": offsets}, "driving": {"kind": "periodic", "states": [0, 1]}}))
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 0
    if command == "measures":
        depths = np.loadtxt(tmp_path / "out" / "measures.csv", delimiter=",", skiprows=1, usecols=1)
        assert depths.max() == 3 and np.count_nonzero(depths == 3) == 3 * n ** 3
    else:
        checks = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]
        gibbs = next(c for c in checks if c["name"] == "gibbs")
        assert gibbs["detail"].startswith(f"{n + n ** 2 + n ** 3} cylinders")


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


@pytest.mark.parametrize("command", ["dimension", "spectrum", "pressure"])
def test_pressure_failure_exits_3(tmp_path, monkeypatch, capsys, command):
    # a failing pressure evaluation is a numeric failure, not a +inf grid point;
    # the pressure command evaluates its grid through pressures
    import rcgdms.cli as cli

    real, real_many = cli.pressure, cli.pressures

    def failing(symbols, potential, **kwargs):
        if 0.2 < potential.scale < 0.4:
            raise ValueError(f"no pressure at s = {potential.scale}")
        return real(symbols, potential, **kwargs)

    def failing_many(symbols, potential, scales, **kwargs):
        for s in scales:
            if 0.2 < s < 0.4:
                raise ValueError(f"no pressure at s = {s}")
        return real_many(symbols, potential, scales, **kwargs)

    monkeypatch.setattr(cli, "pressure", failing)
    monkeypatch.setattr(cli, "pressures", failing_many)
    code = run_cli(command, "--config", CONFIGS / "cantor.json", "--out", tmp_path)
    assert code == 3
    assert "numeric failure: no pressure at s = 0.25" in capsys.readouterr().err
    artifact = "pressure.csv" if command == "pressure" else f"{command}.json"
    assert not (tmp_path / artifact).exists()


def test_repeated_main_calls_keep_their_own_grid(tmp_path):
    # the parser is built once per process; no parsed value leaks into the next call
    for steps, want in ((5, 5), (7, 7), (None, 33)):
        out = tmp_path / str(steps)
        grid = () if steps is None else ("--s-steps", steps)
        assert run_cli("dimension", "--config", CONFIGS / "cantor.json", "--out", out, *grid) == 0
        assert len((out / "pressure_curve.csv").read_text().splitlines()) == want + 1


def test_cli_import_leaves_mpmath_unloaded():
    src = str(Path(rcgdms.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, rcgdms.config, rcgdms.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_paper_commands_make_no_per_edge_log_ratio_calls(tmp_path, monkeypatch):
    # rows come from BlockTailExample.log_ratios, one numpy pass per state;
    # a per-edge reader would look up each of the 1,024 edges' blocks
    calls = 0
    block_of = BlockTailExample.block_of

    def counting(self, e):
        nonlocal calls
        calls += 1
        return block_of(self, e)

    monkeypatch.setattr(BlockTailExample, "block_of", counting)
    for command in ("pressure", "dimension", "spectrum", "example-paper"):
        out = tmp_path / command
        assert run_cli(command, "--config", CONFIGS / "paper-example.json", "--out", out, "--s-steps", 10) == 0
    assert calls < 1024


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exponent_hull_and_connector_bound_match_the_ratio_table(data):
    edges = sorted(data.draw(st.sets(st.integers(0, 40), min_size=1, max_size=6)))
    states = tuple(range(data.draw(st.integers(1, 3))))
    ratio = st.integers(1, 999).map(lambda k: Fraction(k, 1000))
    ratios = {s: {e: data.draw(ratio) for e in edges} for s in states}
    sysm = similarity_system(full_shift(edges), periodic(states), ratios, {s: dict.fromkeys(edges, 0.0) for s in states})
    exponents = [-math.log(ratio_of(sysm, e, s)) for s in states for e in edges]
    assert _exponent_hull(geometric_potential(sysm)) == (min(exponents), max(exponents))
    symbols = sorted(data.draw(st.sets(st.sampled_from(edges), min_size=1)))
    scale = data.draw(st.floats(-4.0, 4.0, allow_nan=False))
    want = max(abs(scale * -math.log(ratio_of(sysm, e, s))) for s in states for e in symbols)
    lane = _lane(geometric_potential(sysm).scaled(scale), "float")
    assert _connector_bound(lane, tuple(symbols), states) == want


def test_countable_exponent_hulls(paper, pure_tail):
    assert _exponent_hull(geometric_potential(paper)) == (2 * math.log(2.0), math.inf)
    assert _exponent_hull(geometric_potential(pure_tail)) == (3 * math.log(2.0), math.inf)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_curve_interval_is_the_hull_of_the_sampled_rows(data):
    """On small random systems (full or matrix incidence; deterministic,
    periodic or Bernoulli driving; geometric or table potentials) the curve's
    exponent interval is the min and max of -row over the edges and support
    states, so each end is some edge's at some state, and every Birkhoff
    average of -row over admissible words up to length 6 lies in it."""
    edges = tuple(range(data.draw(st.integers(1, 3))))
    if data.draw(st.booleans()):
        symbolic = full_shift(edges)
    else:  # the diagonal and a cycle keep the drawn matrix primitive
        drawn = data.draw(st.lists(st.integers(0, 1), min_size=len(edges) ** 2, max_size=len(edges) ** 2))
        n = len(edges)
        symbolic = from_matrix(edges, [[int(drawn[n * i + j] or j in (i, (i + 1) % n)) for j in edges] for i in edges])
    kind = data.draw(st.sampled_from(["deterministic", "periodic", "bernoulli"]))
    states = (0,) if kind == "deterministic" else tuple(range(data.draw(st.integers(2, 3))))
    if kind == "bernoulli":
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=len(states), max_size=len(states)).filter(any))
        driving = bernoulli(states, weights)
    else:
        driving = deterministic(0) if kind == "deterministic" else periodic(states)
    ratio = st.integers(1, 999).map(lambda k: Fraction(k, 1000))
    ratios = {s: {e: data.draw(ratio) for e in edges} for s in states}
    sysm = similarity_system(symbolic, driving, ratios, {s: dict.fromkeys(edges, 0.0) for s in states})
    if data.draw(st.booleans()):
        zeta = geometric_potential(sysm)
    else:
        table = {s: {e: data.draw(st.floats(-5.0, -0.01)) for e in edges} for s in states}
        zeta = table_potential(symbolic, table, driving=driving)
    run = RunConfig(system=sysm, analysis=Analysis(s_min=0.0, s_max=1.0, s_steps=3), potential=zeta, out_dir=Path("out"))
    curve = _curve(run)
    values = [-value(zeta, state, e) for state in driving.state_support() for e in edges]
    assert (curve.exponent_lo, curve.exponent_hi) == (min(values), max(values))
    assert {curve.exponent_lo, curve.exponent_hi} <= set(values)  # each end is reached
    orbit = DrivingOrbit(driving, 0)
    for n in range(1, 7):
        for word in enumerate_words(symbolic, edges, n):
            average = -birkhoff(zeta, orbit, 0, word) / n
            assert curve.exponent_lo - 1e-12 <= average <= curve.exponent_hi + 1e-12


TABLE_CONFIG = {
    "system": {"preset": "twoscale"},
    "potential": {"type": "custom-first-symbol", "table": {"0": {"0": -0.5, "1": -1.5}}},
}


def test_table_potential_reads_its_own_exponent_interval(tmp_path):
    # the table's -0.5 and -1.5, not the twoscale maps' log 2 and log 4
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(TABLE_CONFIG))
    assert run_cli("dimension", "--config", cfg, "--out", tmp_path / "d") == 0
    ends = json.loads((tmp_path / "d" / "dimension.json").read_text())["p_prime_endpoints"]
    assert (ends["minus_p_prime_at_infinity"], ends["minus_p_prime_at_s_infinity"]) == (0.5, 1.5)
    assert run_cli("spectrum", "--config", cfg, "--out", tmp_path / "s") == 0
    assert json.loads((tmp_path / "s" / "spectrum.json").read_text())["validity_interval"] == [0.5, 1.5]


def test_verify_checks_the_maps_under_a_table_potential(tmp_path, capsys):
    # the box count and the level-set histogram are the maps', so they are
    # compared with the maps' pressure: twoscale's root is log2 of the golden ratio
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(TABLE_CONFIG))
    assert run_cli("verify", "--config", cfg, "--out", tmp_path / "v") == 0
    assert "vs bowen 0.6942" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["measures", "verify"])
def test_enumeration_budget_exits_3(tmp_path, monkeypatch, capsys, command):
    # a word level over the budget is a numeric failure, raised before it is built
    monkeypatch.setattr(rcgdms.shift, "WORD_BUDGET", 10)
    assert run_cli(command, "--config", CONFIGS / "twoscale.json", "--out", tmp_path) == 3
    assert "numeric failure: enumeration budget exceeded" in capsys.readouterr().err
    assert not (tmp_path / "measures.csv").exists()


def test_orbits_is_not_an_analysis_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"preset": "cantor"}, "analysis": {"orbits": 8}}))
    assert run_cli("pressure", "--config", bad, "--out", tmp_path) == 2
    assert "analysis.orbits: unknown field" in capsys.readouterr().err


SHIPPED = ("cantor", "twoscale", "custom-example", "paper-example")


def _key_paths(doc, prefix=()):
    """The key path of every block and leaf below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_key_paths(value, prefix + (key,)))
    return out


def _json_kind(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


# JSON values of every type.  Numbers come from a coarse grid, so that a
# ratio drawn for a map keeps the system's Bowen root below the bracket cap.
_json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.integers(-16, 16).map(lambda k: k / 4),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["0", "a"]), st.integers(0, 2), max_size=1),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_retyped_config_loads_typed_or_exits_2(tmp_path_factory, data):
    # one block or leaf of a shipped config replaced by a value of another type
    name = data.draw(st.sampled_from(SHIPPED))
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    keys = data.draw(st.sampled_from(_key_paths(doc)))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    old = parent[keys[-1]]
    parent[keys[-1]] = data.draw(_json_values.filter(lambda v: _json_kind(v) != _json_kind(old)))
    path = tmp_path_factory.mktemp("retyped") / "config.json"
    path.write_text(json.dumps(doc))
    try:
        run = load_config(path)
    except ConfigError:
        pass
    else:
        for field, (kind, _) in config._ANALYSIS.items():
            value = getattr(run.analysis, field)
            if kind is tuple:
                assert type(value) is tuple and all(type(v) is int for v in value)
            elif not (value is None and field.startswith("beta")):
                assert type(value) is kind, (field, value)
    out = path.parent / "out"
    assert run_cli("dimension", "--config", path, "--out", out) in (0, 2)


def _tail_sum_root(ratios, tail_ratio, start):
    """Root s of sum(ratios**s) + sum_{e >= start} tail_ratio**(e*s) = 1, by bisection."""

    def excess(s):
        q = tail_ratio**s
        return math.fsum(r**s for r in ratios) + q**start / (1.0 - q) - 1.0

    lo, hi = 1e-3, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_custom_tail_config_matches_the_closed_form(tmp_path):
    doc = {
        "name": "tailed",
        "system": {"edges": 2, "incidence": "full", "tail": {"ratio": 0.125, "start": 3}},
        "maps": {"ratios": {"0": {"0": "1/4", "1": "1/8"}}, "offsets": {"0": {"0": 0.0, "1": 0.5}}},
        "driving": {"kind": "deterministic", "states": [0]},
        "analysis": {"s_min": 0.05, "s_max": 2.0, "s_steps": 12, "beta_max": 5.0, "beta_steps": 6},
    }
    cfg = tmp_path / "tailed.json"
    cfg.write_text(json.dumps(doc))
    for command in ("pressure", "dimension", "spectrum", "verify"):
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 0
    # the histogram of the two materialized edges is held to their own spectrum
    checks = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]
    assert "histogram_vs_spectrum" in [c["name"] for c in checks]
    payload = json.loads((tmp_path / "out" / "dimension.json").read_text())
    assert payload["s_star"] == pytest.approx(_tail_sum_root((0.25, 0.125), 0.125, 3), abs=1e-12)
    assert payload["s_infinity"] == pytest.approx(0.0, abs=1e-6)
    # the full-alphabet row of pressure.csv is the closed-form log sum at each s
    for line in (tmp_path / "out" / "pressure.csv").read_text().splitlines()[1:]:
        s, rung, _, estimate, _ = line.split(",")
        if rung == "full":
            s, q = float(s), 0.125 ** float(s)
            want = math.log(0.25**s + 0.125**s + q**3 / (1.0 - q))
            assert float(estimate) == pytest.approx(want, rel=1e-12)


def test_schema_admits_the_shipped_configs_and_refuses_retyped_fields():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((CONFIGS / "schema.json").read_text())
    for name in SHIPPED:
        jsonschema.validate(json.loads((CONFIGS / f"{name}.json").read_text()), schema)
    for case in ("analysis-list", "s_steps-string", "s_max-bool", "bins-zero", "rungs-strings",
                 "seed-string", "system-list", "tail-empty", "top-level-list", "potential-list", "potential-scale"):
        edit = MALFORMED[case][0]
        doc = json.loads((CONFIGS / "custom-example.json").read_text())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(edit(doc) or doc, schema)


def test_example_paper_checks_rungs_against_the_paper_alphabet(tmp_path):
    # example-paper analyses the paper's 1,024 edges under any config
    assert run_cli("example-paper", "--config", CONFIGS / "cantor.json", "--rungs", "4,16", "--out", tmp_path) == 0
    assert json.loads((tmp_path / "example-paper.json").read_text())["rung_pressures_at_1"][1] < -math.log(2.0)


def test_example_paper_refuses_a_default_ladder_past_the_cutoff(tmp_path, capsys):
    """With no rungs, the default ladder (up to 1024) is checked against a
    small paper-example cutoff like a given one: exit 2, naming the fields."""
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"system": {"preset": "paper-example", "cutoff": 4}}))
    assert run_cli("example-paper", "--config", small, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error: system.cutoff:" in err and "analysis.rungs" in err
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"system": {"preset": "paper-example", "cutoff": 2}}))
    assert run_cli("example-paper", "--config", tiny, "--rungs", "2", "--out", tmp_path / "tiny") == 0


def test_example_paper_ignores_a_custom_system_named_after_it(tmp_path):
    # the config's name names the run, not the system
    doc = json.loads((CONFIGS / "custom-example.json").read_text())
    doc["name"] = "paper-example"
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps(doc))
    assert load_config(cfg).system.name == "custom"
    assert run_cli("example-paper", "--config", cfg, "--out", tmp_path / "out") == 0
    assert json.loads((tmp_path / "out" / "run_meta.json").read_text())["name"] == "paper-example"


def _near(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


_offsets = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0 / 3.0, 0.1, 0.5, 1e16, -1e16, 123456.000000000001]),
    st.integers(-4, 4).map(lambda k: _near(1.0 / 3.0, k)),  # within a few ulps of 1/3
    st.tuples(st.integers(-20, 60), st.integers(-2, 2)).map(lambda t: _near(2.0 ** t[0], t[1])),
    st.integers(-(10**15), 10**15).map(lambda n: n / 10**12),  # at most 12 fraction digits
    st.integers(10**12, 10**17).map(lambda n: n / 10**13),  # 13 or more digits
    st.floats(1e12, 1e300) | st.floats(-1e300, -1e12),  # large magnitudes
    st.integers(-(2**70), 2**70),  # JSON integers
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=500, deadline=None)
@given(_offsets)
def test_offset_fast_path_matches_the_fraction_formula(value):
    # a short float is its own nearest fraction of denominator <= 10^12;
    # every other value, -0.0 among them, takes that fraction
    want = float(Fraction(float(value)).limit_denominator(10**12))
    assert config._offset(value, "maps.offsets.0.0").hex() == want.hex()


def test_offsets_keep_the_fraction_path_for_strings_and_refuse_non_numbers():
    assert config._offset("1/3", "p") == float(Fraction(1, 3))
    for bad, message in (("x", "p: not a number"), (True, "p: finite number required"), (None, "p: finite number required")):
        with pytest.raises(ConfigError, match=message):
            config._offset(bad, "p")


@pytest.mark.parametrize("cells", [[[1, 0], [1, True]], [[1, 0], [1, 1.0]], [[1, 2], [1, 1]], [[1, [0]], [1, 1]], [[1, "1"], [1, 1]]])
def test_incidence_cells_must_be_integer_zero_or_one(tmp_path, capsys, cells):
    doc = json.loads((CONFIGS / "custom-example.json").read_text())
    doc["system"]["incidence"] = cells
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("dimension", "--config", bad, "--out", tmp_path / "out") == 2
    assert 'system.incidence: "full" or a 0/1 matrix required' in capsys.readouterr().err


def test_one_point_exponent_interval_writes_one_exponent(tmp_path):
    # every cantor edge has exponent log 3, so the spectrum is the one point
    # (log 3, log 2 / log 3)
    assert run_cli("spectrum", "--config", CONFIGS / "cantor.json", "--out", tmp_path) == 0
    [header, row] = (tmp_path / "spectrum.csv").read_text().splitlines()
    beta, value, flag = row.split(",")
    assert (float(beta), flag) == (math.log(3.0), "endpoint")
    assert float(value) == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-12)


@pytest.mark.parametrize(
    "config, flags",
    [
        ("custom-example.json", ("--beta-min", "0.5", "--beta-max", "0.6")),
        ("paper-example.json", ("--s-steps", "3", "--beta-steps", "2", "--beta-min", "1.0", "--beta-max", "1.2")),
    ],
    ids=["custom-example", "paper-example"],
)
def test_all_clipped_spectrum_reads_nan_without_a_warning(tmp_path, config, flags):
    # every beta lies below the exponent interval, so no row has a value;
    # pytest turns a RuntimeWarning into an error
    assert run_cli("spectrum", "--config", CONFIGS / config, "--out", tmp_path, *flags) == 0
    assert json.loads((tmp_path / "spectrum.json").read_text())["max_interior_value"] == "nan"
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",nan,clipped") for row in rows)


def test_finite_symbol_curve_reads_its_own_symbols(tmp_path):
    # the two materialized edges (ratios 1/4 and 1/8) of a tailed alphabet
    # have exponents [log 4, log 8]; the tail is not theirs
    cfg = tmp_path / "tailed.json"
    cfg.write_text(json.dumps(TAILED))
    run = load_config(cfg)
    curve = _curve(run, (0, 1))
    assert (curve.exponent_lo, curve.exponent_hi) == pytest.approx((math.log(4.0), math.log(8.0)), abs=1e-15)
    assert legendre_spectrum(curve, [2.5, 3.0, 5.0]).flags == ("clipped",) * 3  # were interior, near -1e6
    inside = legendre_spectrum(curve, [1.7])
    assert inside.flags == ("interior",) and 0.0 < inside.values[0] < 1.0
    assert _curve(run).exponent_hi == math.inf  # the whole tailed alphabet
