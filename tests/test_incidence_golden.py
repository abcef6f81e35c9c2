"""Golden bytes of the artifacts that read a non-full incidence.

The sha256 of artifact bodies (run_meta.json holds a timestamp and is left
out) that read admissible pairs: `limitset` on the generated mc3 and mc4
configs of perfbench/generate.py at seed 1 (the random-words walk on a
non-full shift); `primitivity`, `limitset` and `verify` on the generated
64-symbol config at seed 11 (the witness re-check, the walk and the word
counts at 64 symbols); and `verify` and `measures` on the golden-mean
incidence of configs/custom-example.json.  Recorded while the shift still
kept successor sets beside its matrix; any change to how incidence is
stored or read must keep them.  `pressure --rungs 1,2` on that config was
recorded while three functions still decided the pressure route: its rung
(0,) takes the product route's fork for a rung full over itself in a
constrained shift, and rung (0, 1) the spectral route.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from rcgdms.cli import main

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import generate  # noqa: E402

GOLDEN = {
    "mc4/limitset.csv": "6f340e6cb2bc2cd5420f0022e8e0cb74f164903bace093573cd24d7c0b469ad5",
    "mc3/limitset.csv": "6b361f04baf1a831bb0acb3d83e3cde420979174eb72eb0c14c010b2de972db3",
    "spectral64/primitivity.json": "16244c1515aaf756482df70dc9d87c80d2bba86a87d9e7a360ea2d877e50dfed",
    "spectral64/limitset.csv": "123a979c41d85b04de23a0a6d0ec28749e9867d736b5b63855cfdaefc8886949",
    "spectral64/verify.json": "3a834ceea931844f86f71c204f6a3313e3615eea112fd4a374d4d75c8d42c69b",
    "custom-example/verify.json": "25da52349110c9c8f180077c803b0adae00ceaec68962ca99e1c5c2a0d382896",
    "custom-example/measures.csv": "b69729c7bb4da295cc3375f54d631d63c3b897c3f03b87d4b713ed9cdd4bd27f",
    "custom-example-rungs/pressure.csv": "66582d57c24718a6eb2ba26da064633fc4486aa6300298726f294f33e99b6157",
}


def _pinned(label: str, path: Path, commands, tmp_path: Path) -> dict:
    """{"label/file": sha256} of the pinned artifacts the commands write."""
    got = {}
    for command in commands:
        out = tmp_path / f"{label}-{command}"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        for f in out.iterdir():
            if f"{label}/{f.name}" in GOLDEN:
                got[f"{label}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return got


def _written(tmp_path: Path, name: str, cfg: dict) -> Path:
    path = tmp_path / f"{name}.json"
    path.write_text(generate.dump(cfg))
    return path


def _golden(label: str) -> dict:
    return {k: v for k, v in GOLDEN.items() if k.startswith(f"{label}/")}


@pytest.mark.parametrize("name, cfg", [pytest.param(name, cfg, id=name) for name, cfg, _ in generate.markov_mc(1)])
def test_random_words_walk_keeps_its_bytes(name, cfg, tmp_path):
    assert _pinned(name, _written(tmp_path, name, cfg), ("limitset",), tmp_path) == _golden(name)


def test_spectral64_incidence_readers_keep_their_bytes(tmp_path):
    [(name, cfg, _)] = generate.markov_spectral(11)
    path = _written(tmp_path, name, cfg)
    assert _pinned(name, path, ("primitivity", "limitset", "verify"), tmp_path) == _golden(name)


def test_golden_mean_config_keeps_its_bytes(tmp_path):
    path = ROOT / "configs" / "custom-example.json"
    assert _pinned("custom-example", path, ("verify", "measures"), tmp_path) == _golden("custom-example")


def test_constrained_pressure_rungs_keep_their_bytes(tmp_path):
    out = tmp_path / "pressure"
    path = ROOT / "configs" / "custom-example.json"
    assert main(["pressure", "--config", str(path), "--rungs", "1,2", "--out", str(out)]) == 0
    got = hashlib.sha256((out / "pressure.csv").read_bytes()).hexdigest()
    assert got == GOLDEN["custom-example-rungs/pressure.csv"]
