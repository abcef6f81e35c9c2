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
import functools
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import gdms as gdms_mod
from .config import FLAGS, ConfigError, RunConfig, check_rungs, load_config
from .driving import DrivingOrbit
from .gdms import sample_limit_set
from .gibbs import conformal_measures
from .oracle import box_counting, corrected_coarse_dimensions, level_histogram
from .potentials import geometric_potential, s_infinity
from .shift import PrimitivityWitness, build_ladder, count_words, verify_primitivity
from .spectrum import bowen_dimension, legendre_spectrum, pressure_curve
from .thermo import _route, check_gibbs, check_sandwich, pressure, pressure_compact_approx, pressures, primitivity_witness


# Most words a command enumerates for one measure or limit-set sample: the
# conformal measures of `measures` and of verify's Gibbs check take the
# deepest depth within it, and verify's box count runs only within it.
SAMPLE_WORDS = 500_000


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One line per row: numpy scalars become Python ones with .item(), and
    str of a Python float is its repr."""
    lines = [",".join(header)]
    lines.extend(",".join([str(v.item() if isinstance(v, np.generic) else v) for v in row]) for row in rows)
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
    path.write_text(json.dumps(_sanitize(payload), indent=2, sort_keys=True, default=str) + "\n")


def _write_meta(run: RunConfig, command: str) -> None:
    meta = {
        "command": command,
        "name": run.name,
        "seed": run.seed,
        "workers": run.workers,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(run.out_dir / "run_meta.json", meta)


def _finite_symbols(run: RunConfig) -> tuple[int, ...]:
    """Working finite symbol set: whole alphabet when small, else first rung."""
    edges = run.system.symbolic.edges
    if len(edges) <= 64 and run.system.symbolic.tail is None:
        return tuple(sorted(edges))
    rungs = run.analysis.rungs or (min(16, len(edges)),)
    return tuple(sorted(edges)[: rungs[0]])


def _depth_within(run: RunConfig, symbols, cap: int) -> int:
    """The largest word depth up to `cap` whose admissible words over
    `symbols` number at most SAMPLE_WORDS (depth 1 when none does)."""
    symbolic = run.system.symbolic
    return next((d for d in range(cap, 1, -1) if count_words(symbolic, symbols, d) <= SAMPLE_WORDS), 1)


def _witness(run: RunConfig, symbols) -> PrimitivityWitness:
    try:
        return primitivity_witness(run.potential, symbols)
    except ValueError:
        raise ConfigError("system is not finitely primitive over the working symbols") from None


def _exponent_hull(potential, symbols=None) -> tuple[float, float]:
    """min and max of -row(state) over `symbols` (every materialized edge when
    None) and the support states: every Birkhoff average of -row over those
    symbols lies between them.  The max is +inf when the curve covers a
    tailed alphabet whole."""
    block = np.array([potential.log_weights(st, symbols) for st in potential.driving.state_support()])
    whole = symbols is None and potential.system.tail is not None
    return (-block.max().item(), math.inf if whole else -block.min().item())


class _Pressures:
    """The pressure over a symbol set (None: the whole alphabet) at any s,
    each scale evaluated once, and again only where a slope is asked of one
    evaluated without."""

    def __init__(self, potential, symbols):
        self.potential, self.symbols, self.route = potential, symbols, _route(symbols, potential)
        self.table = {}  # s -> (estimate, evaluated for its slope)

    def estimate(self, s: float, slope: bool = False):
        hit = self.table.get(s)
        if hit is None or (slope and not hit[1]):
            hit = self.table[s] = (pressure(self.symbols, self.potential.scaled(s), slope=slope), slope)
        return hit[0]

    def value(self, s: float) -> float:
        """p(s) for a solver: a kept value, else a new evaluation, with p'
        and p'' on the exact-product route, as the solver reads them next."""
        hit = self.table.get(s)
        return hit[0].value if hit else self.estimate(s, self.route == "exact-product").value

    def slope(self, s: float) -> Optional[float]:
        return self.estimate(s, True).slope

    def curvature(self, s: float) -> Optional[float]:
        return self.estimate(s, True).curvature


def _curve(run: RunConfig, symbols=None):
    sysm, zeta = run.system, run.potential
    if symbols is None and sysm.symbolic.incidence is not None:
        symbols = _finite_symbols(run)
    p = _Pressures(zeta, symbols)
    s_inf = s_infinity(zeta) if symbols is None else -math.inf  # a finite symbol set is summable at every s
    grid = [s for s in run.analysis.s_grid() if s > s_inf]
    if not grid:
        raise ConfigError("the whole s grid sits at or below the summability threshold")
    curve = pressure_curve(lambda s: p.estimate(s).value, grid, _exponent_hull(zeta, symbols), s_infinity=s_inf)
    # p' from the exact routes (else slope_at's central difference), p'' from the exact-product route
    exact, product = p.route != "monte-carlo", p.route == "exact-product"
    return replace(curve, evaluator=p.value, slope=p.slope if exact else None, curvature=p.curvature if product else None)


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
    zeta = run.potential
    sysm = run.system
    symbols = _finite_symbols(run)
    witness = _witness(run, symbols)
    rung_sizes = run.analysis.rungs or (len(symbols),)
    if rung_sizes[0] < len(witness.connector_alphabet):
        raise ConfigError(f"analysis.rungs: first rung {rung_sizes[0]} is smaller than the {len(witness.connector_alphabet)}-symbol connector alphabet")
    ladder = build_ladder(sysm.symbolic, rung_sizes, witness)
    grid = run.analysis.s_grid()
    # one column of estimates over the grid per rung, then the whole alphabet
    columns = [(len(rung), pressures(rung, zeta, grid)) for rung in ladder]
    if sysm.symbolic.incidence is None:
        columns.append(("full", pressures(None, zeta, grid)))
    rows = []
    for i, s in enumerate(grid):
        for size, column in columns:
            est = column[i]
            rows.append((s, size, "exact" if est.exact else est.depths[-1], est.value, est.spread))
    _write_csv(run.out_dir / "pressure.csv", ("s", "rung", "depth", "estimate", "spread"), rows)
    return 0


def _write_curve_csv(run: RunConfig, curve) -> None:
    rows = [
        (float(s), float(raw), float(rep))
        for s, raw, rep in zip(curve.s_grid, curve.raw_values, curve.values)
    ]
    _write_csv(run.out_dir / "pressure_curve.csv", ("s", "p", "p_repaired"), rows)


def cmd_dimension(run: RunConfig) -> int:
    curve = _curve(run)
    s_star = curve.dimension()
    _write_curve_csv(run, curve)
    tail = run.potential.tail
    payload = {
        "s_star": s_star,
        "s_infinity": curve.s_infinity,
        "p_prime_endpoints": {
            "minus_p_prime_at_infinity": curve.exponent_lo,
            "minus_p_prime_at_s_infinity": curve.exponent_hi,
        },
        "cofinitely_regular": tail is None or tail.cofinitely_regular,
        "regularity_applicable": tail is not None,
        "pressure_at_s_star": curve.evaluator(s_star),
    }
    _write_json(run.out_dir / "dimension.json", payload)
    return 0


def cmd_spectrum(run: RunConfig) -> int:
    curve = _curve(run)
    s_star = curve.dimension()
    _write_curve_csv(run, curve)
    lo, hi = curve.exponent_lo, curve.exponent_hi
    if not math.isfinite(hi):
        if run.analysis.beta_max is None:
            raise ConfigError(
                "unbounded exponent interval (cofinitely regular tail); set analysis.beta_max"
            )
        hi = run.analysis.beta_max
    if lo == hi and run.analysis.beta_min is None and run.analysis.beta_max is None:
        betas = np.array([lo])  # a one-point interval: one exponent to report
    else:
        betas = run.analysis.beta_grid(lo + 1e-9, hi)
    betas = betas[betas > 0]
    result = legendre_spectrum(curve, betas)
    rows = [(float(b), float(v), flag) for b, v, flag in zip(result.betas, result.values, result.flags)]
    _write_csv(run.out_dir / "spectrum.csv", ("beta", "l", "flag"), rows)
    _write_json(
        run.out_dir / "spectrum.json",
        {
            "s_star": s_star,
            "validity_interval": [curve.exponent_lo, curve.exponent_hi],
            "max_interior_value": result.max_value,
        },
    )
    return 0


def cmd_measures(run: RunConfig) -> int:
    symbols = _finite_symbols(run)
    zeta = run.potential
    orbit = DrivingOrbit(run.system.driving, run.seed)
    depth = _depth_within(run, symbols, min(run.analysis.depth, 6))
    measures, log_eigenvalues = conformal_measures(symbols, zeta, orbit, depth=depth)
    rows = []
    for position in range(min(3, len(measures))):
        masses = measures[position].masses
        for word in sorted(masses):
            rows.append(("-".join(map(str, word)), len(word), position, masses[word]))
    _write_csv(run.out_dir / "measures.csv", ("word", "depth", "position", "mass"), rows)
    _write_json(
        run.out_dir / "eigenvalues.json",
        {"log_eigenvalues": [float(v) for v in log_eigenvalues[:10]]},
    )
    return 0


def cmd_limitset(run: RunConfig) -> int:
    symbols = _finite_symbols(run)
    orbit = DrivingOrbit(run.system.driving, run.seed)
    depth = run.analysis.depth
    count = None if count_words(run.system.symbolic, symbols, depth) <= 4096 else 4096
    sample = sample_limit_set(run.system, orbit, depth=depth, count=count, seed=run.seed, symbols=symbols)
    names = {e: str(e) for e in symbols}
    labels = ["-".join([names[e] for e in w]) for w in sample.codes.tolist()]
    rows = zip(labels, sample.points.tolist(), itertools.repeat(str(sample.radius_bound)))
    _write_csv(run.out_dir / "limitset.csv", ("word", "point", "radius_bound"), rows)
    return 0


def _verify_checks(run: RunConfig) -> list[dict]:
    sysm = run.system
    zeta = run.potential
    symbols = _finite_symbols(run)
    witness = _witness(run, symbols)
    orbit = DrivingOrbit(sysm.driving, run.seed)
    checks = []

    ok = verify_primitivity(sysm.symbolic, symbols, witness)
    checks.append({"name": "primitivity", "ok": ok, "detail": f"order {witness.order}"})

    sandwich = check_sandwich(symbols, zeta.scaled(1.0), orbit, min(symbols), 4)
    checks.append(
        {"name": "sandwich", "ok": sandwich.ok, "detail": f"worst margin {sandwich.worst:.3e}"}
    )

    gibbs_depth = _depth_within(run, symbols, 5)
    measures, log_eigenvalues = conformal_measures(symbols, zeta.scaled(1.0), orbit, depth=gibbs_depth)
    gibbs = check_gibbs(symbols, zeta.scaled(1.0), orbit, measures, log_eigenvalues, depth=gibbs_depth)
    checks.append(
        {"name": "gibbs", "ok": gibbs.ok, "detail": f"{gibbs.checked} cylinders, worst dev {gibbs.worst_ratio_deviation:.3e}"}
    )

    # the limit set, its box count and its level sets are the maps', so the
    # checks against them read the maps' own (geometric) pressure
    maps_run = replace(run, potential=geometric_potential(sysm))
    curve = _curve(maps_run)
    s_star = curve.dimension()

    depth = max(9, run.analysis.depth)
    sample = sample_limit_set(sysm, orbit, depth=depth, symbols=symbols) if count_words(sysm.symbolic, symbols, depth) <= SAMPLE_WORDS else None
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
    lo_hull, hi_hull = curve.exponent_lo, curve.exponent_hi
    in_hull = not (hist.exponent_min < lo_hull - 1e-9 or hist.exponent_max > hi_hull + 1e-9)
    checks.append(
        {
            "name": "exponent_range",
            "ok": in_hull,
            "detail": f"observed [{hist.exponent_min:.4f}, {hist.exponent_max:.4f}] within hull",
        }
    )

    corrected = corrected_coarse_dimensions(hist)
    if corrected is not None:
        # the histogram covers the working symbols, so on a countable alphabet
        # its spectrum is theirs, not the whole alphabet's
        if sysm.symbolic.tail is not None:
            curve = _curve(maps_run, symbols)
        worst = 0.0
        for j in range(len(hist.counts)):
            if hist.counts[j] < 100 or math.isnan(corrected[j]):
                continue
            at_chi = legendre_spectrum(curve, [float(hist.bin_exponents[j])])
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
    sysm, zeta = run.system, run.potential
    rungs, edges = run.analysis.rungs or (4, 16, 64, 256, 1024), len(sysm.symbolic.edges)
    if rungs[-1] > edges:  # the default ladder: check_rungs checked a given one
        raise ConfigError(f"system.cutoff: the default rungs reach {rungs[-1]}, past the {edges} materialized edges; set analysis.rungs (--rungs) to at most {edges}")
    p = _Pressures(zeta, None)

    p1 = p.value(1.0)
    ru = {}
    for s in (0.25, 0.5, 0.75, 1.0):
        value, divergent = sysm.symbolic.tail.ru_moment(s)
        ru[str(s)] = "divergent" if divergent else value
    ladder = build_ladder(sysm.symbolic, rungs, _witness(run, sysm.symbolic.edges))
    compact = pressure_compact_approx(ladder, zeta.scaled(1.0))
    s_star = bowen_dimension(p.value, 0.0, p.slope)
    s_inf = s_infinity(zeta)

    verdicts = {
        "pressure_at_1_below_minus_log2": p1 <= -math.log(2) + 1e-6,
        "m_ru_at_1_is_half": isinstance(ru["1.0"], float) and abs(ru["1.0"] - 0.5) <= 1e-9,
        "m_ru_divergent_below_1": all(ru[k] == "divergent" for k in ("0.25", "0.5", "0.75")),
        "dimension_below_one": s_star < 1.0,
        "rungs_below_minus_log2": all(v <= -math.log(2) + 1e-9 for v in compact.rung_values),
        "cofinitely_regular": zeta.tail.cofinitely_regular,
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


@functools.cache
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
        for field in FLAGS:  # checked with the config's analysis fields
            p.add_argument("--" + field.replace("_", "-"), default=None, help=f"sets analysis.{field}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.config is None and args.command != "example-paper":
        print("error: --config is required", file=sys.stderr)
        return 2
    flags = {field: getattr(args, field) for field in FLAGS}
    try:  # load_config raises nothing but ConfigError
        run = load_config(args.config, seed=args.seed, workers=args.workers, out_dir=args.out, flags=flags)
        if args.command == "example-paper" and run.system.name != "paper-example":
            paper = gdms_mod.build_paper_example()  # the system example-paper analyses under any config
            run = replace(run, system=paper, potential=geometric_potential(paper))
        check_rungs(run, flags)
        run.out_dir.mkdir(parents=True, exist_ok=True)
        code = COMMANDS[args.command](run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _write_meta(run, args.command)
    return code


if __name__ == "__main__":
    sys.exit(main())
