"""Every function and method of the package is entered by some command, or is
named with its reason in UNREACHED.

The command matrix runs every command on the four shipped configs, the
paper's example, each preset, and inline tailed, table-potential, Bernoulli
and 16-symbol periodic configs, in this process under sys.setprofile.  A
function counts as reached once its code object starts running.  Adding a
function that no command enters, or reaching a listed one, fails the test
until UNREACHED says so.
"""

import inspect
import json
import pkgutil
import sys
from pathlib import Path

import rcgdms
import rcgdms.cli as cli
from rcgdms import instances

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("primitivity", "pressure", "dimension", "spectrum", "measures", "limitset", "verify")

# The diagnostics no command computes (the partition sums one depth at a
# time, the summability flags, the conformality residual, the ladder
# masses, the boundary separation margin, local dimensions and criterion
# 7's T(q)) live in tests/oracles.py, beside the tests that read them; a
# verify check that wanted one back would change verify.json, which the
# benchmark compares with its recorded references.
UNREACHED = {
    "potentials.FirstSymbolPotential.exact_weights": "the Fraction and mpf lanes, the tests' exact cross-check of the float lane",
    "oracle.LevelHistogram.total": "the word count perfbench's histogram extra reads",
}


def package_functions() -> dict:
    """{code object: "module.qualname"} of every function and method defined
    in the package's source files (dataclass-generated methods have none)."""
    root = str(Path(rcgdms.__file__).resolve().parent)
    found = {}

    def add(short, fn):
        fn = inspect.unwrap(fn)
        if inspect.isfunction(fn) and fn.__code__.co_filename.startswith(root):
            found[fn.__code__] = f"{short}.{fn.__qualname__}"

    for info in pkgutil.iter_modules(rcgdms.__path__):
        module = __import__(f"rcgdms.{info.name}", fromlist=["_"])
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    # a method, a static or class method, a cached or plain property
                    for fn in (member, getattr(member, "__func__", None), getattr(member, "func", None), getattr(member, "fget", None)):
                        if fn is not None:
                            add(info.name, fn)
            elif callable(obj):
                add(info.name, obj)
    return found


def command_matrix(tmp_path) -> list:
    def config(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    tailed = config("tailed", {
        "system": {"edges": 2, "tail": {"ratio": 0.125, "start": 3}},
        "maps": {"ratios": {"0": {"0": "1/4", "1": "1/8"}}, "offsets": {"0": {"0": 0.0, "1": 0.5}}},
        "driving": {"kind": "deterministic", "states": [0]},
        "analysis": {"s_min": 0.05, "s_max": 2.0, "s_steps": 12},
    })
    table = config("table", {
        "system": {"preset": "twoscale"},
        "potential": {"type": "custom-first-symbol", "table": {"0": {"0": -0.5, "1": -1.5}}},
    })
    rows = {s: {"0": "1/3", "1": "1/4", "2": "1/5"} for s in "012"}
    bernoulli = config("bernoulli", {
        "system": {"edges": 3, "incidence": [[1, 1, 0], [0, 0, 1], [1, 0, 1]]},
        "maps": {"ratios": rows, "offsets": {s: {"0": 0.0, "1": 0.4, "2": 0.7} for s in "012"}},
        "driving": {"kind": "bernoulli", "states": [0, 1, 2], "weights": [0.5, 0.0, 0.5]},
        "analysis": {"s_min": 0.0, "s_max": 1.0, "s_steps": 5},
    })
    periodic16 = config("periodic16", {
        "system": {"edges": 16},
        "maps": {
            "ratios": {s: {str(e): f"1/{20 + int(s) + e % 3}" for e in range(16)} for s in "01"},
            "offsets": {s: {str(e): e / 16 for e in range(16)} for s in "01"},
        },
        "driving": {"kind": "periodic", "states": [0, 1]},
        "analysis": {"s_min": 0.0, "s_max": 2.0, "s_steps": 9, "beta_steps": 8},
    })
    runs = [(c, "--config", CONFIGS / f"{name}.json") for name in ("cantor", "custom-example", "paper-example", "twoscale") for c in COMMANDS]
    runs.append(("example-paper",))
    for preset in sorted(instances.PRESETS):
        runs.append(("dimension", "--config", config(preset, {"system": {"preset": preset}, "analysis": {"s_min": 0.5, "s_max": 3.0, "s_steps": 9}})))
    runs += [("dimension", "--config", tailed), ("spectrum", "--config", tailed, "--beta-max", "8"), ("verify", "--config", tailed)]
    runs += [("dimension", "--config", table), ("pressure", "--config", bernoulli), ("dimension", "--config", bernoulli)]
    runs += [(c, "--config", periodic16) for c in ("spectrum", "limitset", "verify")]
    return runs


def test_every_function_is_reached_or_listed(tmp_path):
    functions = package_functions()
    runs = command_matrix(tmp_path)
    cli._parser.cache_clear()  # a parser cached by earlier tests would hide its call
    entered = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        codes = [cli.main([str(a) for a in run] + ["--out", str(tmp_path / f"out{i}")]) for i, run in enumerate(runs)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    unreached = {name for code, name in functions.items() if code not in entered}
    assert unreached == set(UNREACHED)
