"""Run configuration: the one reader of a run's settings.

One JSON file describes one instance: the system/maps/driving blocks (or a
named preset), an optional potential block, the analysis grids and output
options.  The command-line flags named in FLAGS are merged into the analysis
block and checked as its fields are.  A violation raises ConfigError naming
the field (or the flag), and any other error raised while the run is built
from the document becomes a ConfigError naming the file; the CLI maps
ConfigError to exit code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import instances
from .driving import DrivingSystem, bernoulli, periodic
from .gdms import RCGDMS, similarity_system
from .potentials import FirstSymbolPotential, geometric_potential, table_potential
from .shift import GeometricTail, from_matrix, full_shift


class ConfigError(ValueError):
    pass


@dataclass
class Analysis:
    s_min: float = -2.0
    s_max: float = 6.0
    s_steps: int = 33
    beta_min: Optional[float] = None
    beta_max: Optional[float] = None
    beta_steps: int = 33
    depth: int = 8
    rungs: tuple[int, ...] = ()
    histogram_depth: int = 14
    bins: int = 32

    def s_grid(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.s_steps)

    def beta_grid(self, lo: float, hi: float) -> np.ndarray:
        bmin = self.beta_min if self.beta_min is not None else lo
        bmax = self.beta_max if self.beta_max is not None else hi
        return np.linspace(bmin, bmax, self.beta_steps)


# Each analysis field's type and minimum, as in configs/schema.json: a finite
# JSON number, a JSON integer (never a bool), or a strictly increasing list
# of integers (rungs).
_ANALYSIS = {
    "s_min": (float, None), "s_max": (float, None), "s_steps": (int, 2),
    "beta_min": (float, None), "beta_max": (float, None), "beta_steps": (int, 2),
    "depth": (int, 1), "rungs": (tuple, 1), "histogram_depth": (int, 1), "bins": (int, 1),
}
# The analysis fields set by command-line flags (--s-min ...; --rungs 4,16).
FLAGS = ("s_min", "s_max", "s_steps", "beta_min", "beta_max", "beta_steps", "depth", "rungs")


@dataclass
class RunConfig:
    system: RCGDMS
    analysis: Analysis
    potential: FirstSymbolPotential  # geometric unless the potential block gives a table
    out_dir: Path
    seed: int = 0
    workers: int = 1  # recorded in run_meta.json; every command runs in one thread
    name: str = "run"


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(value, path: str, kind: type, minimum: int = 0):
    """A finite JSON number as a float (kind float), or a JSON integer of at
    least `minimum` (kind int)."""
    if kind is float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        _require(number and math.isfinite(value), path, "finite number required")
        return float(value)
    _require(_is_int(value) and value >= minimum, path, f"integer >= {minimum} required")
    return value


def _fraction(value, path: str) -> Fraction:
    """A JSON number, or a string such as "1/3", as a Fraction."""
    if not isinstance(value, str):
        return Fraction(_typed(value, path, float)).limit_denominator(10**12)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: not a number ({exc})")


def _offset(value, path: str) -> float:
    """float(_fraction(value, path)).  A float whose shortest repr has no
    exponent and at most 12 fraction digits is returned as it is: that
    decimal has denominator <= 10**12, so the closest such fraction lies
    within its half-ulp and rounds back to the float."""
    if not isinstance(value, str):
        x = _typed(value, path, float)
        text = repr(x)
        if "e" not in text and len(text) - text.index(".") <= 13 and text != "-0.0":
            return x
    return float(_fraction(value, path))


def _ratio(value, path: str) -> Fraction:
    ratio = _fraction(value, path)
    _require(0 < ratio < 1, path, "ratio must lie in (0, 1)")
    return ratio


def _state_edge_table(table, path: str, states: tuple, edges: tuple, parse) -> dict:
    """{state: {edge: parse(value, path)}} from a {"state": {"edge": value}}
    block, over every given state and edge."""
    _require(isinstance(table, dict), path, "per-state table required")
    keys = [str(e) for e in edges]
    out = {}
    for state in states:
        row = table.get(str(state))
        _require(isinstance(row, dict), path, f"per-edge table for state {str(state)!r} required")
        missing = next((key for key in keys if key not in row), None)
        _require(missing is None, f"{path}.{state}", f"missing edge {missing!r}")
        out[state] = {e: parse(row[key], f"{path}.{state}.{key}") for e, key in zip(edges, keys)}
    return out


def _build_driving(block) -> DrivingSystem:
    _require(isinstance(block, dict), "driving", "custom systems need a driving block")
    kind = block.get("kind")
    _require(kind in ("deterministic", "periodic", "bernoulli"), "driving.kind", f"unknown kind {kind!r}")
    states = block.get("states")
    _require(isinstance(states, list) and states, "driving.states", "nonempty list required")
    states = [tuple(s) if isinstance(s, list) else s for s in states]
    if kind != "bernoulli":  # a deterministic base is the periodic cycle of its one state
        _require(kind == "periodic" or len(states) == 1, "driving.states", "deterministic driving takes one state")
        return periodic(states)
    weights = block.get("weights")
    _require(isinstance(weights, list) and len(weights) == len(states), "driving.weights", "one weight per state required")
    # bernoulli() refuses negative weights and zero mass
    return bernoulli(states, [_typed(w, "driving.weights", float) for w in weights])


def _build_custom_system(cfg: dict, sys_block: dict) -> RCGDMS:
    maps_block = cfg.get("maps")
    _require(isinstance(maps_block, dict), "maps", "custom systems need a maps block")
    edges = sys_block.get("edges")
    edges = list(range(edges)) if _is_int(edges) else edges
    _require(isinstance(edges, list) and edges and all(map(_is_int, edges)), "system.edges", "edge list or count required")
    incidence, tail = sys_block.get("incidence", "full"), sys_block.get("tail")
    if incidence == "full":
        if tail is not None:
            _require(isinstance(tail, dict), "system.tail", "object required")
            ratio = _typed(tail.get("ratio"), "system.tail.ratio", float)
            tail = GeometricTail(ratio=ratio, start=_typed(tail.get("start"), "system.tail.start", int, max(edges) + 1))
        symbolic = full_shift(edges, tail=tail)
    else:
        rows = isinstance(incidence, list) and all(isinstance(row, list) for row in incidence)
        cells = [v for row in incidence for v in row] if rows else ()
        _require(rows and set(map(type, cells)) <= {int} and set(cells) <= {0, 1}, "system.incidence", '"full" or a 0/1 matrix required')
        _require(tail is None, "system.tail", "analytic tails need full incidence")
        symbolic = from_matrix(edges, incidence)
    driving = _build_driving(cfg.get("driving"))
    _require(maps_block.get("type", "similarity") == "similarity", "maps.type", "only similarity tables are supported in configs")
    states = driving.state_support()
    ratios = _state_edge_table(maps_block.get("ratios"), "maps.ratios", states, symbolic.edges, _ratio)
    offsets = _state_edge_table(maps_block.get("offsets"), "maps.offsets", states, symbolic.edges, _offset)
    return similarity_system(symbolic, driving, ratios, offsets, name="custom")


def _build_system(cfg: dict) -> RCGDMS:
    sys_block = cfg.get("system", {})
    _require(isinstance(sys_block, dict), "system", "object required")
    preset = sys_block.get("preset")
    if preset is None:
        return _build_custom_system(cfg, sys_block)
    options = sorted(instances.PRESETS)
    _require(preset in options, "system.preset", f"unknown preset {preset!r}; options: {options}")
    kwargs = {}
    if "cutoff" in sys_block and preset in ("paper-example", "pure-tail"):
        kwargs["cutoff"] = _typed(sys_block["cutoff"], "system.cutoff", int, 1)
    return instances.PRESETS[preset](**kwargs)


def _build_potential(block, system: RCGDMS) -> FirstSymbolPotential:
    if block is None:
        return geometric_potential(system)
    _require(isinstance(block, dict), "potential", "object required")
    for key in block:
        _require(key in ("type", "table"), f"potential.{key}", "unknown field")
    kind = block.get("type")
    _require(kind in ("geometric", "custom-first-symbol"), "potential.type", f"unknown type {kind!r}")
    _require((kind == "geometric") != ("table" in block), "potential.table", "needed by custom-first-symbol and refused otherwise")
    if kind == "geometric":
        return geometric_potential(system)
    symbolic, driving = system.symbolic, system.driving
    _require(symbolic.tail is None, "potential.type", "a value table covers finite alphabets only")
    states, edges = driving.state_support(), symbolic.edges
    table = _state_edge_table(block["table"], "potential.table", states, edges, lambda v, p: _typed(v, p, float))
    return table_potential(symbolic, table, driving=driving)


def _build_analysis(block, flags: dict) -> Analysis:
    """The analysis block with the flags given ({field: text or None})
    merged in, each field checked for its type and minimum."""
    _require(isinstance(block, dict), "analysis", "object required")
    block, where = dict(block), {key: f"analysis.{key}" for key in block}
    for key, text in flags.items():
        if text is not None:
            kind, where[key] = _ANALYSIS[key][0], "--" + key.replace("_", "-")
            try:
                block[key] = [int(v) for v in text.split(",")] if kind is tuple else kind(text)
            except ValueError:
                what = {float: "number", int: "integer", tuple: "comma-separated integers"}[kind]
                raise ConfigError(f"{where[key]}: {what} required, got {text!r}")
    fields = {}
    for key, value in block.items():
        _require(key in _ANALYSIS, where[key], "unknown field")
        kind, minimum = _ANALYSIS[key]
        if kind is tuple:
            ok = isinstance(value, list) and all(_is_int(v) and v >= minimum for v in value) and value == sorted(set(value))
            _require(ok, where[key], "strictly increasing list of positive integers required")
            fields[key] = tuple(value)
        else:
            fields[key] = _typed(value, where[key], kind, minimum)
    a = Analysis(**fields)
    _require(a.s_min < a.s_max, where.get("s_min", "analysis.s_min"), "grid must be increasing")
    if a.beta_min is not None and a.beta_max is not None:
        _require(a.beta_min < a.beta_max, where.get("beta_min", "analysis.beta_min"), "grid must be increasing")
    return a


def check_rungs(run: RunConfig, flags: dict) -> None:
    """Refuse a rung larger than the materialized edges of run.system, the
    alphabet the run's ladder is built from, naming --rungs when `flags`
    set the rungs."""
    edges = len(run.system.symbolic.edges)
    if run.analysis.rungs:
        where = "--rungs" if flags.get("rungs") is not None else "analysis.rungs"
        _require(run.analysis.rungs[-1] <= edges, where, f"rung size {run.analysis.rungs[-1]} exceeds the {edges} materialized edges")


def load_config(
    path: Optional[str | Path],
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    out_dir: Optional[str] = None,
    flags: Optional[dict] = None,
) -> RunConfig:
    """The run a config file describes, with the analysis fields in `flags`
    ({field: flag text or None}) set from the command line.  A path of None
    is the paper's example with every default, as `example-paper` runs
    without a config."""
    if path is None:
        cfg = {"system": {"preset": "paper-example"}}
    else:
        path = Path(path)
        try:
            cfg = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # a missing or unreadable file, or not JSON
            raise ConfigError(f"{path}: no JSON document ({exc})")
    try:
        _require(isinstance(cfg, dict), "config", "object required")
        system = _build_system(cfg)
        output = cfg.get("output", {})
        _require(isinstance(output, dict) and isinstance(output.get("dir", ""), str), "output", '{"dir": string} required')
        name = cfg.get("name", system.name)
        _require(isinstance(name, str), "name", "string required")
        return RunConfig(
            system=system,
            analysis=_build_analysis(cfg.get("analysis", {}), flags or {}),
            potential=_build_potential(cfg.get("potential"), system),
            out_dir=Path(out_dir or output.get("dir", "out")),
            seed=_typed(cfg.get("seed", 0) if seed is None else seed, "seed", int),
            workers=_typed(1 if workers is None else workers, "--workers", int, 1),
            name=name,
        )
    except ConfigError:
        raise
    except (TypeError, KeyError, AttributeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
