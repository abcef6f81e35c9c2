"""Run-configuration parsing and validation for the command-line front end.

One JSON file describes one instance: the system/maps/driving blocks (or a
named preset), the analysis grids, and output options.  Validation failures
raise ConfigError with a field path; the CLI maps those to exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import instances
from .driving import bernoulli, deterministic, periodic
from .gdms import RCGDMS, similarity_system
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
    orbits: int = 16
    histogram_depth: int = 14
    bins: int = 32

    def s_grid(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.s_steps)

    def beta_grid(self, lo: float, hi: float) -> np.ndarray:
        bmin = self.beta_min if self.beta_min is not None else lo
        bmax = self.beta_max if self.beta_max is not None else hi
        return np.linspace(bmin, bmax, self.beta_steps)


@dataclass
class RunConfig:
    system: RCGDMS
    analysis: Analysis
    out_dir: Path
    seed: int = 0
    workers: int = 1
    name: str = "run"
    potential_spec: Optional[dict] = None  # None means the geometric potential


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _parse_number(value, path: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        return Fraction(value).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: not a number ({exc})")


def _build_driving(block: dict):
    kind = block.get("kind")
    _require(kind in ("deterministic", "periodic", "bernoulli"), "driving.kind", f"unknown kind {kind!r}")
    states = block.get("states")
    _require(isinstance(states, list) and states, "driving.states", "nonempty list required")
    states = [tuple(s) if isinstance(s, list) else s for s in states]
    if kind == "deterministic":
        _require(len(states) == 1, "driving.states", "deterministic driving takes one state")
        return deterministic(states[0])
    if kind == "periodic":
        return periodic(states)
    weights = block.get("weights")
    _require(isinstance(weights, list) and len(weights) == len(states), "driving.weights", "one weight per state required")
    return bernoulli(states, [float(w) for w in weights])


def _build_custom_system(cfg: dict) -> RCGDMS:
    sys_block = cfg.get("system", {})
    maps_block = cfg.get("maps")
    drv_block = cfg.get("driving")
    _require(maps_block is not None, "maps", "custom systems need a maps block")
    _require(drv_block is not None, "driving", "custom systems need a driving block")

    edges = sys_block.get("edges")
    if isinstance(edges, int):
        edges = list(range(edges))
    _require(isinstance(edges, list) and edges, "system.edges", "edge list or count required")
    incidence = sys_block.get("incidence", "full")
    if incidence == "full":
        tail_block = sys_block.get("tail")
        tail = None
        if tail_block is not None:
            tail = GeometricTail(ratio=float(tail_block["ratio"]), start=int(tail_block["start"]))
        symbolic = full_shift(edges, tail=tail)
    else:
        _require(isinstance(incidence, list), "system.incidence", '"full" or a 0/1 matrix required')
        symbolic = from_matrix(edges, incidence)

    driving = _build_driving(drv_block)

    _require(maps_block.get("type", "similarity") == "similarity", "maps.type", "only similarity tables are supported in configs")
    raw_ratios = maps_block.get("ratios")
    raw_offsets = maps_block.get("offsets")
    _require(isinstance(raw_ratios, dict), "maps.ratios", "per-state ratio table required")
    _require(isinstance(raw_offsets, dict), "maps.offsets", "per-state offset table required")

    def _normalize(table, path, parse):
        out = {}
        for state in driving.state_support():
            key = str(state)
            _require(key in table, path, f"missing state {key!r}")
            row = table[key]
            out[state] = {}
            for e in symbolic.edges:
                ekey = str(e)
                _require(ekey in row, f"{path}.{key}", f"missing edge {ekey!r}")
                out[state][e] = parse(row[ekey], f"{path}.{key}.{ekey}")
        return out

    ratios = _normalize(raw_ratios, "maps.ratios", _parse_number)
    offsets = _normalize(raw_offsets, "maps.offsets", lambda v, p: float(_parse_number(v, p)))
    for state, row in ratios.items():
        for e, v in row.items():
            _require(0 < v < 1, f"maps.ratios.{state}.{e}", "ratio must lie in (0, 1)")
    return similarity_system(symbolic, driving, ratios, offsets, name=cfg.get("name", "custom"))


def _build_system(cfg: dict) -> RCGDMS:
    sys_block = cfg.get("system", {})
    preset = sys_block.get("preset")
    if preset is not None:
        _require(preset in instances.PRESETS, "system.preset", f"unknown preset {preset!r}; options: {sorted(instances.PRESETS)}")
        kwargs = {}
        if "cutoff" in sys_block and preset in ("paper-example", "pure-tail"):
            kwargs["cutoff"] = int(sys_block["cutoff"])
        return instances.PRESETS[preset](**kwargs)
    return _build_custom_system(cfg)


def _build_analysis(block: dict) -> Analysis:
    a = Analysis()
    known = set(Analysis.__dataclass_fields__)
    for key, value in (block or {}).items():
        _require(key in known, f"analysis.{key}", "unknown field")
        if key == "rungs":
            _require(isinstance(value, list) and value == sorted(set(value)), "analysis.rungs", "strictly increasing list required")
            value = tuple(int(v) for v in value)
        setattr(a, key, value)
    _require(a.s_steps >= 2, "analysis.s_steps", "need at least two grid points")
    _require(a.s_min < a.s_max, "analysis.s_min", "grid must be increasing")
    if a.beta_min is not None and a.beta_max is not None:
        _require(a.beta_min < a.beta_max, "analysis.beta_min", "grid must be increasing")
    return a


def load_config(
    path: str | Path,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    out_dir: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> RunConfig:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    system = _build_system(cfg)
    analysis = _build_analysis(cfg.get("analysis", {}))
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(analysis, key, value)
    potential_spec = cfg.get("potential")
    if potential_spec is not None:
        kind = potential_spec.get("type")
        _require(kind in ("geometric", "custom-first-symbol"), "potential.type",
                 f"unknown type {kind!r}")
        if kind == "custom-first-symbol":
            table = potential_spec.get("table")
            _require(isinstance(table, dict), "potential.table", "per-state value table required")
            for state in system.driving.state_support():
                key = str(state)
                _require(key in table, "potential.table", f"missing state {key!r}")
                for e in system.symbolic.edges:
                    _require(str(e) in table[key], f"potential.table.{key}", f"missing edge {e!r}")
    output = cfg.get("output", {})
    run = RunConfig(
        system=system,
        analysis=analysis,
        out_dir=Path(out_dir or output.get("dir", "out")),
        seed=seed if seed is not None else int(cfg.get("seed", 0)),
        workers=workers or 1,
        name=cfg.get("name", system.name),
        potential_spec=potential_spec,
    )
    return run
