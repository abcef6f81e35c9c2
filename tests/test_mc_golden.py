"""Golden bytes of the Monte Carlo route's artifacts.

The sha256 of every artifact body (run_meta.json holds a timestamp and is
left out) that `pressure` and `dimension` write on the generated mc3 and mc4
configs of perfbench/generate.py, at seeds 1, 11 and 21.  Recorded before the
orbit family memoised its state matrix; any change to how the route draws,
tabulates or reduces must keep them.
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
    1: {
        "mc4/pressure.csv": "3940e4a5ebb09a2825367c5df27ecf68a3fea4feedf33b5de502007ec7eba1fa",
        "mc3/pressure.csv": "38498fc4341ed69961daa6a10c3f372d7079beb83b008fb42c7ca148b0b2da3a",
        "mc3/dimension.json": "a3fb28a7f8f1c51b8a156e83bf1e3cd7a09beace3c762db3b5aaadc47d42be8a",
        "mc3/pressure_curve.csv": "931af2653b53e927343aabb5ec178b97d8663cdf474aa82c78102f1318c0085f",
    },
    11: {
        "mc4/pressure.csv": "5f319795dbc2acd382f11030d4cb28288314600a1b84d2a6b6129b5cc3d67f0e",
        "mc3/pressure.csv": "e184d09dc902d273a5c54239c9033aeae733eec28195995b2d1a4ea16d5b7583",
        "mc3/dimension.json": "b03c8e78ea91947c92f19a402e89f9b3db820c482fabafd4757db0c88a7c5900",
        "mc3/pressure_curve.csv": "1d7609e81eefae141837c33e76e56c10053a18ac8ef68be4facb6c5854ce44a3",
    },
    21: {
        "mc4/pressure.csv": "d5941e1db5aff91a48f76387711cf62123ffe6e6a44c8c1e1e33b7509094e616",
        "mc3/pressure.csv": "0dbaed3603aef3fa6d65d0cc9fdb84c39f611730a489d8c8ee32def85fe99eb1",
        "mc3/dimension.json": "43f9c7c71e1d60ea5c86368ad4531df561c9133437287d710e4144292b20245b",
        "mc3/pressure_curve.csv": "10b3ea1924d4753519ca6efb69d45ae2fccd16fab82ca8dd2555e03e89cf1ebb",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_monte_carlo_artifacts_keep_their_bytes(seed, tmp_path):
    got = {}
    for name, cfg, commands in generate.markov_mc(seed):
        path = tmp_path / f"{name}.json"
        path.write_text(generate.dump(cfg))
        for command in commands:
            out = tmp_path / f"{name}-{command}"
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            for f in out.iterdir():
                if f.name != "run_meta.json":
                    got[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    assert got == GOLDEN[seed]
