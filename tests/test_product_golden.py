"""The exact-product route's artifacts.

The sha256 of every artifact body (run_meta.json holds a timestamp and is
left out) that `pressure`, `dimension`, `spectrum` and `example-paper` write
on configs/paper-example.json with the benchmark's grids (`--s-steps 10`,
and `--beta-steps 3` for `spectrum`), and the `pressure.csv` of a 2-edge
config with a geometric tail.  Recorded before the route evaluated scale
vectors in one kernel; any change to how it tabulates, batches or reduces
must keep them.
"""

import hashlib
import json
from pathlib import Path

from rcgdms.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

PAPER = {
    "pressure/pressure.csv": "82a5289f870eaaf06a736b415b321dd46bb54072e00eef71f02b47e9d6b7eb03",
    "dimension/dimension.json": "4965fb3d09b6dd8afbd40e3b199bda37b1a9219bbd6c83b3c123ef2f784a5272",
    "dimension/pressure_curve.csv": "199e08c8f3141a0e648b1a5bf55f9b7666bbc8f1b605cfe5db051259f3df34c5",
    "spectrum/pressure_curve.csv": "199e08c8f3141a0e648b1a5bf55f9b7666bbc8f1b605cfe5db051259f3df34c5",
    "spectrum/spectrum.csv": "c5014160495fbebe09dfa65f61e0ca8646e0cbc43535af234d432e3deb31cc1f",
    "spectrum/spectrum.json": "8616fe80118deef534f9f716528c6df9b6543f66d1c8001504f4c45d759c3f66",
    "example-paper/example-paper.json": "c03ac90467cde1c99a86fadbfec4c134f153833f8d75116de8361c592918e5e0",
}

TAILED = {"tailed/pressure.csv": "8ed69c046c7e218486087d3d94f43e910e28c77328cd0e4fa22c5c09cfd6e006"}

# the 2-edge tailed config of the CI console-script step
TAILED_CONFIG = {
    "system": {"edges": 2, "tail": {"ratio": 0.125, "start": 3}},
    "maps": {"ratios": {"0": {"0": "1/4", "1": "1/8"}}, "offsets": {"0": {"0": 0.0, "1": 0.5}}},
    "driving": {"kind": "deterministic", "states": [0]},
    "analysis": {"s_min": 0.05, "s_max": 2.0, "s_steps": 12},
}


def _digests(out: Path, prefix: str) -> dict:
    return {
        f"{prefix}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
        if f.name != "run_meta.json"
    }


def test_paper_example_artifacts_keep_their_bytes(tmp_path):
    got = {}
    for command in ("pressure", "dimension", "spectrum", "example-paper"):
        grid = ["--s-steps", "10"] + (["--beta-steps", "3"] if command == "spectrum" else [])
        out = tmp_path / command
        argv = [command, "--config", str(CONFIGS / "paper-example.json"), "--out", str(out)]
        assert main(argv + grid) == 0
        got.update(_digests(out, command))
    assert got == PAPER


def test_tailed_pressure_keeps_its_bytes(tmp_path):
    path = tmp_path / "tailed.json"
    path.write_text(json.dumps(TAILED_CONFIG))
    out = tmp_path / "tailed"
    assert main(["pressure", "--config", str(path), "--out", str(out)]) == 0
    assert _digests(out, "tailed") == TAILED
