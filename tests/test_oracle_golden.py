"""Golden bytes of the oracle commands on the four shipped configs.

The sha256 of the bodies that `verify`, `limitset` and `measures` write
(`verify.json`, `limitset.csv`, `measures.csv` and `eigenvalues.json`;
run_meta.json holds a timestamp and is left out) on cantor, twoscale,
custom-example and paper-example.  Recorded while full-shift word levels
still came from a boolean scan of the incidence, box counts from one
np.unique per scale, CSV cells from a per-cell numpy-scalar check, limit-set
labels from one join per word and measures rows from a sorted {word: mass}
dict: the array paths that replaced them must keep every byte.
"""

import hashlib
from pathlib import Path

import pytest

from rcgdms.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "cantor/verify.json": "adb59a8113e03805234f5610a5086dd8e2b4b99c1642a013b4af319b4c48ecc9",
    "cantor/limitset.csv": "a337e4584ecec2492f6dcb89fb0eeb39199480034991e7abee589b185f7b33f6",
    "cantor/eigenvalues.json": "ec75cbbe26c07925c68e03f59c29ded18c98cfab4f7e26b85351030782f0f7d1",
    "cantor/measures.csv": "56acb611677c47b219068e6eb2c7e411555f99e55505b1a325349f27a0927551",
    "twoscale/verify.json": "b8943d7997b870e55841ea25e546a6053b8dbcff21cc9194b5e1ebe7674f9a93",
    "twoscale/limitset.csv": "4edca6ab746736c7d454bdbaea3d28ae596b4e71e80cec6ca0269000e46fe692",
    "twoscale/eigenvalues.json": "5d73988669ad75399e7cb1bdb4b6964e3e3aba3400097815ac1146a4d5f2704b",
    "twoscale/measures.csv": "13a0b5f7fa5404d415ba7ea6cd212722e8384f65f237394ad74dbeef7885d91e",
    "custom-example/verify.json": "25da52349110c9c8f180077c803b0adae00ceaec68962ca99e1c5c2a0d382896",
    "custom-example/limitset.csv": "89e67e19a1cdeba22c35cdf4a20c212966bba6279815789bbb591d5feff783f1",
    "custom-example/eigenvalues.json": "74cc9390bc967fc026a4ab049fa4b3671e87f10d3499c132a25197df02ef93e8",
    "custom-example/measures.csv": "b69729c7bb4da295cc3375f54d631d63c3b897c3f03b87d4b713ed9cdd4bd27f",
    "paper-example/verify.json": "c5693038c11947f713dfe7473ff9bdc0c651584be4ecf4816fa4cf9ec7d66bb5",
    "paper-example/limitset.csv": "e4b7266adedb5c1e39e406b81a9087f949c285ef194ab368e56ee6bd69aa5e36",
    "paper-example/eigenvalues.json": "21e15d1db37459afc43ba81a1f8202a5f5bfd2268377e461baa7a48672cf6f23",
    "paper-example/measures.csv": "10f72b1959034b9a6f407c557afbd2e014f94426ce1a6642161e8902a5994306",
}


@pytest.mark.parametrize("name", ["cantor", "twoscale", "custom-example", "paper-example"])
def test_oracle_commands_keep_their_bytes(name, tmp_path):
    got = {}
    for command in ("verify", "limitset", "measures"):
        out = tmp_path / command
        assert main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
        for f in out.iterdir():
            if f.name != "run_meta.json":
                got[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith(f"{name}/")}
