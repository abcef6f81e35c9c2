"""Command-line front end: configuration ingestion, analysis commands and
deterministic result serialization.

Artifacts are CSV for curves and JSON for scalar summaries.  Bodies are
byte-reproducible for a fixed config and seed (floats are serialized with
round-trip repr); timestamps live only in the run_meta.json sidecar.  Every
command runs in one thread: `--workers` is parsed and recorded in
run_meta.json but changes nothing.

Exit codes: 0 success, 2 configuration/schema violation, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import gdms as gdms_mod
from . import instances
from .config import ConfigError, RunConfig, load_config
from .driving import orbit_family, sample_orbit
from .gdms import sample_limit_set
from .gibbs import conformal_measures
from .oracle import box_counting, corrected_coarse_dimensions, level_histogram
from .potentials import geometric_potential, s_infinity
from .shift import PrimitivityWitness, build_ladder, count_words, find_primitivity, verify_primitivity
from .spectrum import (
    bowen_dimension,
    cofinite_regularity,
    legendre_spectrum,
    pressure_curve,
)
from .thermo import check_gibbs, check_sandwich, pressure, pressure_compact_approx


def _fmt(value) -> str:
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf" / "-inf" / "nan": valid strings in strict JSON
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_sanitize(payload), indent=2, sort_keys=True, default=_fmt) + "\n")


def _write_meta(run: RunConfig, command: str) -> None:
    meta = {
        "command": command,
        "name": run.name,
        "seed": run.seed,
        "workers": run.workers,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(run.out_dir / "run_meta.json", meta)


def _zeta(run: RunConfig):
    """Configured potential: geometric by default, or a custom first-symbol
    value table (scaled copies of either drive the s grids)."""
    spec_block = run.potential_spec
    if spec_block is None or spec_block.get("type") == "geometric":
        pot = geometric_potential(run.system)
        if spec_block and "scale" in spec_block:
            pot = pot.scaled(float(spec_block["scale"]))
        return pot
    from .potentials import table_potential

    table = {
        state: {e: float(spec_block["table"][str(state)][str(e)]) for e in run.system.symbolic.edges}
        for state in run.system.driving.state_support()
    }
    return table_potential(run.system.symbolic, table, driving=run.system.driving)


def _finite_symbols(run: RunConfig) -> tuple[int, ...]:
    """Working finite symbol set: whole alphabet when small, else first rung."""
    edges = run.system.symbolic.edges
    if len(edges) <= 64 and not run.system.symbolic.has_tail:
        return tuple(sorted(edges))
    rungs = run.analysis.rungs or (min(16, len(edges)),)
    return tuple(sorted(edges)[: rungs[0]])


def _witness(run: RunConfig, symbols) -> PrimitivityWitness:
    if run.system.symbolic.incidence_kind == "full":
        return PrimitivityWitness(order=1, connectors=((min(symbols),),))
    w = find_primitivity(run.system.symbolic, symbols, max_order=8)
    if w is None:
        raise ConfigError("system is not finitely primitive over the working symbols")
    return w


def _exponent_hull(sysm) -> tuple[float, float]:
    los, his = [], []
    for e in sysm.symbolic.edges:
        lo, hi = sysm.log_ratio_range(e)
        los.append(-hi)
        his.append(-lo)
    hi = math.inf if sysm.symbolic.has_tail else max(his)
    return (min(los), hi)


def _curve(run: RunConfig, zeta, symbols=None):
    sysm = run.system
    if symbols is None and sysm.symbolic.incidence_kind != "full":
        symbols = _finite_symbols(run)
    orbits = orbit_family(sysm.driving, 16, 0)  # one family for every s; drawn on first read

    def evaluate(s: float) -> float:
        return pressure(sysm.symbolic, symbols, zeta.scaled(s), orbits=orbits).value

    s_inf = s_infinity(zeta) if sysm.symbolic.has_tail else -math.inf
    grid = [s for s in run.analysis.s_grid() if s > s_inf]
    if not grid:
        raise ConfigError("the whole s grid sits at or below the summability threshold")
    return pressure_curve(
        evaluate, grid, s_infinity=s_inf, exponent_hull=_exponent_hull(sysm), exact=True
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_primitivity(run: RunConfig) -> int:
    symbols = _finite_symbols(run)
    witness = _witness(run, symbols)
    ok = verify_primitivity(run.system.symbolic, symbols, witness)
    _write_json(
        run.out_dir / "primitivity.json",
        {
            "order": witness.order,
            "connectors": [list(w) for w in witness.connectors],
            "connector_alphabet": sorted(witness.connector_alphabet),
            "reverified": ok,
            "symbols": list(symbols),
        },
    )
    return 0 if ok else 3


def cmd_pressure(run: RunConfig) -> int:
    zeta = _zeta(run)
    sysm = run.system
    symbols = _finite_symbols(run)
    witness = _witness(run, symbols)
    rung_sizes = run.analysis.rungs or (len(symbols),)
    ladder = build_ladder(sysm.symbolic, rung_sizes, witness)
    orbits = orbit_family(sysm.driving, 16, 0)
    rows = []

    def one(s: float):
        out = []
        for rung in ladder:
            est = pressure(sysm.symbolic, rung, zeta.scaled(s), orbits=orbits)
            depth = "exact" if est.exact else est.depths[-1]
            out.append((s, len(rung), depth, est.value, est.spread))
        if sysm.symbolic.has_tail or sysm.symbolic.incidence_kind == "full":
            est = pressure(sysm.symbolic, None, zeta.scaled(s))
            out.append((s, "full", "exact", est.value, est.spread))
        return out

    for s in run.analysis.s_grid():
        rows.extend(one(s))
    _write_csv(run.out_dir / "pressure.csv", ("s", "rung", "depth", "estimate", "spread"), rows)
    return 0


def _write_curve_csv(run: RunConfig, curve) -> None:
    rows = [
        (float(s), float(raw), float(rep))
        for s, raw, rep in zip(curve.s_grid, curve.raw_values, curve.values)
    ]
    _write_csv(run.out_dir / "pressure_curve.csv", ("s", "p", "p_repaired"), rows)


def cmd_dimension(run: RunConfig) -> int:
    zeta = _zeta(run)
    curve = _curve(run, zeta)
    s_star = bowen_dimension(curve)
    _write_curve_csv(run, curve)
    regularity = cofinite_regularity(zeta)
    payload = {
        "s_star": s_star,
        "s_infinity": curve.s_infinity,
        "p_prime_endpoints": {
            "minus_p_prime_at_infinity": curve.exponent_lo,
            "minus_p_prime_at_s_infinity": curve.exponent_hi,
        },
        "cofinitely_regular": regularity.cofinitely_regular,
        "regularity_applicable": regularity.applicable,
        "pressure_at_s_star": curve.pressure_at(s_star),
    }
    _write_json(run.out_dir / "dimension.json", payload)
    return 0


def cmd_spectrum(run: RunConfig) -> int:
    curve = _curve(run, _zeta(run))
    s_star = bowen_dimension(curve)
    _write_curve_csv(run, curve)
    lo, hi = curve.validity_interval
    if not math.isfinite(hi):
        if run.analysis.beta_max is None:
            raise ConfigError(
                "unbounded exponent interval (cofinitely regular tail); set analysis.beta_max"
            )
        hi = run.analysis.beta_max
    betas = run.analysis.beta_grid(lo + 1e-9, hi)
    betas = betas[betas > 0]
    result = legendre_spectrum(curve, betas, bowen=s_star)
    rows = [(float(b), float(v), flag) for b, v, flag in zip(result.betas, result.values, result.flags)]
    _write_csv(run.out_dir / "spectrum.csv", ("beta", "l", "flag"), rows)
    _write_json(
        run.out_dir / "spectrum.json",
        {
            "s_star": s_star,
            "validity_interval": [curve.validity_interval[0], curve.validity_interval[1]],
            "max_interior_value": result.max_value,
        },
    )
    return 0


def cmd_measures(run: RunConfig) -> int:
    symbols = _finite_symbols(run)
    zeta = _zeta(run)
    orbit = sample_orbit(run.system.driving, run.seed)
    depth = min(run.analysis.depth, 6)
    measures, eigens = conformal_measures(
        run.system.symbolic, symbols, zeta, orbit, depth=depth
    )
    rows = []
    for position in range(min(3, len(measures))):
        masses = measures[position].masses
        for word in sorted(masses):
            rows.append(("-".join(map(str, word)), len(word), position, masses[word]))
    _write_csv(run.out_dir / "measures.csv", ("word", "depth", "position", "mass"), rows)
    _write_json(
        run.out_dir / "eigenvalues.json",
        {"log_eigenvalues": [float(v) for v in eigens.log_values[:10]]},
    )
    return 0


def cmd_limitset(run: RunConfig) -> int:
    symbols = _finite_symbols(run)
    orbit = sample_orbit(run.system.driving, run.seed)
    depth = run.analysis.depth
    exhaustive = count_words(run.system.symbolic, symbols, depth) <= 4096
    sample = sample_limit_set(
        run.system,
        orbit,
        depth=depth,
        count=None if exhaustive else 4096,
        sampler="exhaustive" if exhaustive else "random-words",
        seed=run.seed,
        symbols=symbols,
    )
    rows = [
        ("-".join(map(str, w)), float(x), sample.radius_bound)
        for w, x in zip(sample.words, sample.points)
    ]
    _write_csv(run.out_dir / "limitset.csv", ("word", "point", "radius_bound"), rows)
    return 0


def _verify_checks(run: RunConfig) -> list[dict]:
    sysm = run.system
    zeta = _zeta(run)
    symbols = _finite_symbols(run)
    witness = _witness(run, symbols)
    orbit = sample_orbit(sysm.driving, run.seed)
    checks = []

    ok = verify_primitivity(sysm.symbolic, symbols, witness)
    checks.append({"name": "primitivity", "ok": ok, "detail": f"order {witness.order}"})

    sandwich = check_sandwich(sysm.symbolic, symbols, zeta.scaled(1.0), orbit, min(symbols), 4, witness=witness)
    checks.append(
        {"name": "sandwich", "ok": sandwich.worst >= -1e-12, "detail": f"worst margin {sandwich.worst:.3e}"}
    )

    measures, eigens = conformal_measures(sysm.symbolic, symbols, zeta.scaled(1.0), orbit, depth=5)
    gibbs = check_gibbs(
        sysm.symbolic, symbols, zeta.scaled(1.0), orbit, measures, eigens.log_values, depth=5, witness=witness
    )
    checks.append(
        {"name": "gibbs", "ok": gibbs.ok, "detail": f"{gibbs.checked} cylinders, worst dev {gibbs.worst_ratio_deviation:.3e}"}
    )

    curve = _curve(run, zeta, symbols=None if sysm.symbolic.incidence_kind == "full" else symbols)
    s_star = bowen_dimension(curve)

    depth = max(9, run.analysis.depth)
    sample = sample_limit_set(sysm, orbit, depth=depth, symbols=symbols) if count_words(sysm.symbolic, symbols, depth) <= 500_000 else None
    if sample is not None:
        scales = [sysm.contraction ** j for j in range(2, 8)]
        est = box_counting(sample, scales)
        checks.append(
            {
                "name": "box_counting_vs_bowen",
                "ok": est.dimension <= s_star + 0.05,
                "detail": f"box {est.dimension:.4f} vs bowen {s_star:.4f}",
            }
        )

    hist_depth = min(
        run.analysis.histogram_depth,
        max(4, int(math.log(1e6) / math.log(max(2, len(symbols))))),
    )
    hist = level_histogram(sysm, orbit, symbols, n=hist_depth, bins=run.analysis.bins)
    lo_hull, hi_hull = curve.validity_interval
    violations = int(
        (hist.exponent_min < lo_hull - 1e-9) or (hist.exponent_max > (hi_hull if math.isfinite(hi_hull) else math.inf) + 1e-9)
    )
    checks.append(
        {
            "name": "exponent_range",
            "ok": violations == 0,
            "detail": f"observed [{hist.exponent_min:.4f}, {hist.exponent_max:.4f}] within hull",
        }
    )

    corrected = corrected_coarse_dimensions(hist)
    if corrected is not None:
        worst = 0.0
        for j in range(len(hist.counts)):
            if hist.counts[j] < 100 or math.isnan(corrected[j]):
                continue
            at_chi = legendre_spectrum(curve, [float(hist.bin_exponents[j])], bowen=s_star)
            worst = max(worst, abs(corrected[j] - float(at_chi.values[0])))
        checks.append(
            {
                "name": "histogram_vs_spectrum",
                "ok": worst <= 0.05,
                "detail": f"worst corrected deviation {worst:.4f} at depth {hist.depth}",
            }
        )
    return checks


def cmd_verify(run: RunConfig) -> int:
    checks = _verify_checks(run)
    ok = all(c["ok"] for c in checks)
    _write_json(run.out_dir / "verify.json", {"ok": ok, "checks": checks})
    for c in checks:
        print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    return 0 if ok else 4


def cmd_example_paper(run: RunConfig) -> int:
    sysm = run.system
    if sysm.name != "paper-example":
        sysm = instances.paper_example()
    zeta = geometric_potential(sysm)
    tail = gdms_mod.BlockTailExample(len(sysm.symbolic.edges))

    p1 = pressure(sysm.symbolic, None, zeta.scaled(1.0)).value
    ru = {}
    for s in (0.25, 0.5, 0.75, 1.0):
        value, divergent = tail.ru_moment(s)
        ru[str(s)] = "divergent" if divergent else value
    witness = PrimitivityWitness(order=1, connectors=((1,),))
    rungs = run.analysis.rungs or (4, 16, 64, 256, 1024)
    ladder = build_ladder(sysm.symbolic, rungs, witness)
    compact = pressure_compact_approx(sysm.symbolic, ladder, zeta.scaled(1.0))

    def evaluate(s):
        return pressure(sysm.symbolic, None, zeta.scaled(s)).value if s > 0 else math.inf

    curve = pressure_curve(
        evaluate,
        [s for s in np.linspace(0.05, 1.5, 30)],
        s_infinity=0.0,
        exponent_hull=_exponent_hull(sysm),
        exact=True,
    )
    s_star = bowen_dimension(curve)
    s_inf = s_infinity(zeta)
    regular = cofinite_regularity(zeta)

    verdicts = {
        "pressure_at_1_below_minus_log2": p1 <= -math.log(2) + 1e-6,
        "m_ru_at_1_is_half": isinstance(ru["1.0"], float) and abs(ru["1.0"] - 0.5) <= 1e-9,
        "m_ru_divergent_below_1": all(ru[k] == "divergent" for k in ("0.25", "0.5", "0.75")),
        "dimension_below_one": s_star < 1.0,
        "rungs_below_minus_log2": all(v <= -math.log(2) + 1e-9 for v in compact.rung_values),
        "cofinitely_regular": regular.cofinitely_regular,
    }
    payload = {
        "pressure_at_1": p1,
        "m_ru": ru,
        "bowen_dimension": s_star,
        "s_infinity": s_inf,
        "rung_pressures_at_1": list(compact.rung_values),
        "compact_limit": compact.limit,
        "verdicts": verdicts,
    }
    _write_json(run.out_dir / "example-paper.json", payload)
    for k, v in verdicts.items():
        print(f"[{'PASS' if v else 'FAIL'}] {k}")
    return 0 if all(verdicts.values()) else 4


COMMANDS = {
    "primitivity": cmd_primitivity,
    "pressure": cmd_pressure,
    "dimension": cmd_dimension,
    "spectrum": cmd_spectrum,
    "measures": cmd_measures,
    "limitset": cmd_limitset,
    "verify": cmd_verify,
    "example-paper": cmd_example_paper,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcgdms",
        description="Pressure, dimension and Lyapunov-spectrum analysis of random conformal graph directed Markov systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None, help="recorded in run_meta.json; no effect")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--s-min", type=float, default=None)
        p.add_argument("--s-max", type=float, default=None)
        p.add_argument("--s-steps", type=int, default=None)
        p.add_argument("--beta-min", type=float, default=None)
        p.add_argument("--beta-max", type=float, default=None)
        p.add_argument("--beta-steps", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--rungs", default=None, help="comma-separated rung sizes")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    overrides = {
        "s_min": args.s_min,
        "s_max": args.s_max,
        "s_steps": args.s_steps,
        "beta_min": args.beta_min,
        "beta_max": args.beta_max,
        "beta_steps": args.beta_steps,
        "depth": args.depth,
    }
    if args.rungs:
        overrides["rungs"] = tuple(int(x) for x in args.rungs.split(","))
    try:
        if args.config is None:
            if args.command != "example-paper":
                print("error: --config is required", file=sys.stderr)
                return 2
            run = _default_example_run(args)
        else:
            run = load_config(
                args.config,
                seed=args.seed,
                workers=args.workers,
                out_dir=args.out,
                overrides=overrides,
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    run.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        code = COMMANDS[args.command](run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _write_meta(run, args.command)
    return code


def _default_example_run(args) -> RunConfig:
    from .config import Analysis

    analysis = Analysis(s_min=0.05, s_max=1.5, s_steps=30, rungs=(4, 16, 64, 256, 1024))
    return RunConfig(
        system=instances.paper_example(),
        analysis=analysis,
        out_dir=Path(args.out or "out"),
        seed=args.seed or 0,
        workers=args.workers or 1,
        name="paper-example",
    )


if __name__ == "__main__":
    sys.exit(main())
