"""Benchmark of the rcgdms command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One process is one closed-loop client: it calls
`rcgdms.cli.main` in-process, each command after the previous one returns,
and repeats the workload's command sequence (a pass) until about S seconds
have been measured.  Every operation's artifacts are checked.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones (timed with tracing off); with `--trace 1`
the program alternates two untraced and two traced passes and reports the
per-layer metrics named in BENCHMARK.json.  The line before it is a JSON
`detail` object (per-command times, pass count, generated sizes, failures).
The reference tolerance and the layer-to-end-to-end mapping are in
perfbench/metrics.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench import check, generate, reference, speed, tracing  # noqa: E402

SETUP_REPEATS = 5
REFERENCE_STEPS = 100_000  # orbit length of the Lyapunov reference
# Run by each fresh interpreter of the set-up measurement: import the package
# and load every config given, under the speed probe; print the elapsed time
# and the probe's samples.
SETUP_SNIPPET = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
from perfbench import speed
start = time.perf_counter()
with speed.SpeedProbe() as probe:
    from rcgdms.config import load_config
    for path in sys.argv[3:]:
        load_config(path)
print(json.dumps([time.perf_counter() - start, probe.samples]))
"""
# Untraced per-command times, reported by name (see metrics.json).
COMMAND_METRICS = ("pressure_s", "pressure_w2_s", "dimension_s", "spectrum_s", "verify_s", "example_paper_s")


@dataclass
class Op:
    label: str  # unique within the workload
    command: str
    config: Path
    extra: tuple[str, ...] = ()
    metric: str | None = None  # COMMAND_METRICS entry this op's time adds to
    checks: list[Callable[["Pass", "Result"], list[str]]] = field(default_factory=list)


@dataclass
class Result:
    op: Op
    seconds: float  # raw wall time of the command
    code: int
    artifacts: dict[str, str]
    speed_samples: list[float]  # kernel times sampled while it ran


@dataclass
class Pass:
    results: dict[str, Result]

    @property
    def raw_wall(self) -> float:
        return sum(r.seconds for r in self.results.values())

    def normalized(self) -> dict[str, float]:
        """Each command's time at the reference machine speed (speed.py)."""
        everything = [x for r in self.results.values() for x in r.speed_samples]
        return {
            label: speed.at_reference_speed(r.seconds, r.speed_samples, everything)
            for label, r in self.results.items()
        }

    @property
    def wall(self) -> float:
        return sum(self.normalized().values())


@dataclass
class Workload:
    ops: list[Op]
    configs: list[Path]
    info: dict = field(default_factory=dict)
    accuracy: Callable[[Pass], dict] | None = None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def reference_path(workload: str) -> Path:
    return BENCH / "reference" / f"{workload}.json.gz"


def _against_recorded(workload: str, tol: dict):
    """Check against the artifacts recorded by perfbench/record.py (read on
    first use, so that record.py can build the same operations)."""
    recorded = {}

    def run_check(p: Pass, r: Result) -> list[str]:
        if not recorded:
            with gzip.open(reference_path(workload), "rt") as fh:
                recorded.update(json.load(fh))
        return check.compare_artifacts(r.artifacts, recorded[r.op.label], tol)

    return run_check


def paper_spectrum(seed: int, work: Path, tol: dict) -> Workload:
    """configs/paper-example.json on the exact-product route.  The s grid is
    cut to 10 points and the spectrum to 3 exponents so one pass fits a run;
    example-paper keeps its built-in 30-point grid."""
    cfg = ROOT / "configs" / "paper-example.json"
    grid = ("--s-steps", "10")
    ops = [
        Op("pressure", "pressure", cfg, grid + ("--workers", "1"), "pressure_s"),
        Op("pressure_w2", "pressure", cfg, grid + ("--workers", "2"), "pressure_w2_s"),
        Op("dimension", "dimension", cfg, grid, "dimension_s"),
        Op("spectrum", "spectrum", cfg, grid + ("--beta-steps", "3"), "spectrum_s"),
        Op("example_paper", "example-paper", cfg, (), "example_paper_s"),
    ]
    recorded = _against_recorded("paper-spectrum", tol)
    for op in ops:
        op.checks.append(recorded)

    def workers_bytes(p: Pass, r: Result) -> list[str]:
        return check.check_same_bytes(
            r.artifacts["pressure.csv"],
            p.results["pressure"].artifacts.get("pressure.csv"),
            "pressure.csv at --workers 2 vs 1",
        )

    ops[1].checks.append(workers_bytes)
    ops[4].checks.append(lambda p, r: check.check_verdicts(json.loads(r.artifacts["example-paper.json"])))
    return Workload(ops, [cfg])


CLOSED_FORM_BOWEN = {
    "cantor": math.log(2) / math.log(3),
    "twoscale": math.log((1 + math.sqrt(5)) / 2, 2),
}


def oracle_verify(seed: int, work: Path, tol: dict) -> Workload:
    """The four shipped configs through verify, limitset and measures."""
    recorded = _against_recorded("oracle-verify", tol)
    ops, configs = [], []
    for name in ("cantor", "twoscale", "custom-example", "paper-example"):
        cfg = ROOT / "configs" / f"{name}.json"
        configs.append(cfg)
        for command in ("verify", "limitset", "measures"):
            op = Op(f"{name}/{command}", command, cfg, (), "verify_s" if command == "verify" else None)
            op.checks.append(recorded)
            if command == "verify" and name in CLOSED_FORM_BOWEN:
                exact = CLOSED_FORM_BOWEN[name]
                op.checks.append(
                    lambda p, r, exact=exact, name=name: check.check_closed_form(
                        check.bowen_in_verify(json.loads(r.artifacts["verify.json"])),
                        exact, 4, f"{name} Bowen dimension",
                    )
                )
            ops.append(op)
    return Workload(ops, configs)


def _write_generated(items, work: Path) -> tuple[list[Path], dict]:
    (work / "configs").mkdir(parents=True, exist_ok=True)
    paths, sizes = [], {}
    for name, cfg, _ in items:
        path = work / "configs" / f"{name}.json"
        path.write_text(generate.dump(cfg))
        paths.append(path)
        drv = cfg["driving"]
        sizes[name] = {
            "symbols": len(cfg["system"]["incidence"]),
            "nonzero_frac": generate.nonzero_fraction(cfg),
            "driving": f"{drv['kind']}/{len(drv['states'])}",
            "s_steps": cfg["analysis"]["s_steps"],
        }
    return paths, sizes


def markov_mc(seed: int, work: Path, tol: dict) -> Workload:
    """Generated Bernoulli-driven systems on the Monte Carlo route.  Their
    estimates are judged by the mc_* accuracy metrics against the Lyapunov
    reference, not by the pass/fail check."""
    items = generate.markov_mc(seed)
    paths, sizes = _write_generated(items, work)
    ops = []
    for (name, cfg, commands), path in zip(items, paths):
        for command in commands:
            ops.append(Op(f"{name}/{command}", command, path, (), f"{command}_s"))
    s_grids = {name: generate.s_grid(cfg) for name, cfg, _ in items}
    ref_p = {
        name: reference.lyapunov_pressure(cfg, s_grids[name], REFERENCE_STEPS, seed)
        for name, cfg, _ in items
    }
    ref_root = {
        name: reference.lyapunov_root(cfg, REFERENCE_STEPS, seed)
        for name, cfg, commands in items
        if "dimension" in commands
    }

    def accuracy(p: Pass) -> dict:
        err, spread = 0.0, 0.0
        for name in ref_p:
            cols = check.read_csv_columns(p.results[f"{name}/pressure"].artifacts["pressure.csv"])
            for s, est, spr in zip(cols["s"], cols["estimate"], cols["spread"]):
                i = min(range(len(s_grids[name])), key=lambda j: abs(s_grids[name][j] - float(s)))
                err = max(err, abs(float(est) - ref_p[name][i]))
                spread = max(spread, float(spr))
        dim_err = 0.0
        for name, root in ref_root.items():
            s_star = json.loads(p.results[f"{name}/dimension"].artifacts["dimension.json"])["s_star"]
            dim_err = max(dim_err, abs(s_star - root))
        return {"mc_pressure_err": err, "mc_dimension_err": dim_err, "mc_spread": spread}

    info = {
        "sizes": sizes,
        "reference": {
            "pressure": {n: [float(v) for v in ref_p[n]] for n in ref_p},
            "root": ref_root,
            "steps": REFERENCE_STEPS,
        },
    }
    return Workload(ops, paths, info, accuracy)


def markov_spectral(seed: int, work: Path, tol: dict) -> Workload:
    """Generated ~64-symbol periodic systems on the exact-spectral route,
    checked against the independent spectral-radius reference."""
    items = generate.markov_spectral(seed)
    paths, sizes = _write_generated(items, work)
    ops = []
    for (name, cfg, commands), path in zip(items, paths):
        root = reference.spectral_root(cfg)
        legendre_cache: dict[float, float] = {}

        def curve_check(p, r, cfg=cfg):
            cols = check.read_csv_columns(r.artifacts["pressure_curve.csv"])
            bad = [
                s for s, v in zip(cols["s"], cols["p"])
                if not check.close(float(v), reference.spectral_pressure(cfg, float(s)), tol)
            ]
            return [f"pressure_curve.csv: p off the reference at s={bad}"] if bad else []

        def root_check(p, r, root=root):
            name = "dimension.json" if "dimension.json" in r.artifacts else "spectrum.json"
            s_star = json.loads(r.artifacts[name])["s_star"]
            return [] if check.close(s_star, root, tol) else [f"{name}: s_star {s_star} != {root}"]

        def spectrum_check(p, r, cfg=cfg, cache=legendre_cache):
            cols = check.read_csv_columns(r.artifacts["spectrum.csv"])
            out = []
            for b, l, flag in zip(cols["beta"], cols["l"], cols["flag"]):
                if flag != "interior":
                    continue
                beta = float(b)
                if beta not in cache:
                    cache[beta] = reference.spectral_legendre(cfg, beta)
                if not check.close(float(l), cache[beta], tol):
                    out.append(f"spectrum.csv: l({b}) = {l} != {cache[beta]}")
            return out

        for command in commands:
            op = Op(f"{name}/{command}", command, path, (), f"{command}_s")
            op.checks += [curve_check, root_check]
            if command == "spectrum":
                op.checks.append(spectrum_check)
            ops.append(op)
    return Workload(ops, paths, {"sizes": sizes})


WORKLOADS = {
    "paper-spectrum": paper_spectrum,
    "oracle-verify": oracle_verify,
    "markov-mc": markov_mc,
    "markov-spectral": markov_spectral,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run_op(cli, op: Op, out_dir: Path) -> Result:
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [op.command, "--config", str(op.config), "--out", str(out_dir), *op.extra]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), speed.SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed operation, not a failed benchmark
            code = -1
            traceback.print_exc(file=sink)
        seconds = time.perf_counter() - start
    artifacts = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            if path.name != "run_meta.json":
                artifacts[path.name] = path.read_text()
    return Result(op, seconds, code, artifacts, probe.samples)


def run_pass(cli, workload: Workload, work: Path, failures: list[str]) -> Pass:
    p = Pass({})
    for op in workload.ops:
        p.results[op.label] = run_op(cli, op, work / "out" / op.label.replace("/", "-"))
    for label, r in p.results.items():
        problems = check.check_exit(r.code)
        if not problems:
            for fn in r.op.checks:
                try:
                    problems += fn(p, r)
                except (KeyError, ValueError, TypeError, IndexError) as exc:
                    problems.append(f"malformed artifact ({type(exc).__name__}: {exc})")
        if problems:
            failures.append(f"{label}: {problems[0]}")
    return p


def command_times(p: Pass) -> dict[str, float]:
    """COMMAND_METRICS of one pass, at the reference speed."""
    out = {}
    for label, seconds in p.normalized().items():
        metric = p.results[label].op.metric
        if metric:
            out[metric] = out.get(metric, 0.0) + seconds
    return out


def accuracy_of(workload: Workload, p: Pass) -> dict:
    """Accuracy metrics of one pass ({} when the workload has none or an
    operation left no artifact to judge; that operation already failed)."""
    if workload.accuracy is None:
        return {}
    try:
        return workload.accuracy(p)
    except (KeyError, ValueError, IndexError):
        return {}


def measure_setup(configs: list[Path]) -> float:
    """Median over fresh interpreters of the time to import the package and
    load (build) every config of the workload, at the reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ROOT), str(ROOT / "src"), *map(str, configs)],
            check=True,
            cwd=ROOT,
            timeout=120,
            capture_output=True,
            text=True,
        )
        seconds, samples = json.loads(child.stdout.strip().splitlines()[-1])
        times.append(speed.at_reference_speed(seconds, samples, samples))
    return statistics.median(times)


def timed_passes(cli, workload: Workload, work: Path, seconds: float, failures: list[str]) -> list[Pass]:
    """Whole passes until at least `seconds` have been measured."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, workload, work, failures))
    return passes


def untraced_metrics(cli, workload, work, seconds, failures, detail) -> dict:
    setup = measure_setup(workload.configs)
    passes = timed_passes(cli, workload, work, seconds, failures)
    walls = [p.wall for p in passes]
    per_command = [command_times(p) for p in passes]
    detail["passes"] = len(passes)
    detail["pass_s"] = walls
    detail["raw_pass_s"] = [p.raw_wall for p in passes]
    detail["speed_kernel_us"] = 1e6 * statistics.median(
        x for p in passes for r in p.results.values() for x in r.speed_samples
    )
    detail["command_s"] = {k: statistics.median(c[k] for c in per_command) for k in per_command[0]}
    detail["accuracy"] = accuracy_of(workload, passes[0])
    return {
        "setup_s": setup,
        "wall_norm_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(cli, workload, work, failures, detail, seed, workload_name) -> dict:
    """Untraced and traced passes alternate (U T U T), so that a drift in
    machine speed biases neither side of trace.overhead_frac; the per-layer
    metrics come from the last traced pass."""
    tracer = tracing.Tracer()
    signatures, untraced, traced_walls = [], [], []
    detail["passes"] = 4
    for _ in range(2):
        untraced.append(run_pass(cli, workload, work, failures))
        tracer.reset()
        tracer.install()
        try:
            traced_walls.append(run_pass(cli, workload, work, failures).wall)
        finally:
            tracer.uninstall()
        signatures.append(tracing.count_signature(tracer))
    detail["traced_counts_repeat"] = signatures[0] == signatures[1]
    if not detail["traced_counts_repeat"]:
        diff = sorted(k for k in signatures[0].keys() | signatures[1].keys()
                      if signatures[0].get(k) != signatures[1].get(k))
        print(f"traced counts differ between two traced runs: {diff[:5]}", file=sys.stderr)
    trace_path = ROOT / ".perfbench_out" / f"trace-{workload_name}-{seed}.jsonl"
    trace_path.parent.mkdir(exist_ok=True)
    tracer.save(trace_path)
    detail["trace_file"] = str(trace_path.relative_to(ROOT))
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = sum(traced_walls) / sum(p.wall for p in untraced) - 1.0
    times = [command_times(p) for p in untraced]
    for name in COMMAND_METRICS:
        metrics[name] = statistics.median(t.get(name, 0.0) for t in times)
    accuracy = accuracy_of(workload, untraced[0])
    for name in ("mc_pressure_err", "mc_dimension_err", "mc_spread"):
        metrics[name] = accuracy.get(name, 0.0)
    return metrics


def _import_cli():
    """rcgdms.cli from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(ROOT / "src"))
    import rcgdms.cli as cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise ImportError(f"rcgdms imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = _import_cli()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tol = json.loads((BENCH / "metrics.json").read_text())["reference_tolerance"]
    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    failures: list[str] = []
    detail: dict = {"workload": args.workload, "seed": args.seed}
    try:
        workload = WORKLOADS[args.workload](args.seed, work, tol)
        detail.update(workload.info)
        if args.trace:
            metrics = traced_metrics(cli, workload, work, failures, detail, args.seed, args.workload)
            expected = spec["per_layer"]
        else:
            metrics = untraced_metrics(cli, workload, work, args.seconds, failures, detail)
            expected = spec["end_to_end"]
        attempted = detail["passes"] * len(workload.ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(failures)  # one entry per failed operation
    detail["failed_frac"] = failed / attempted
    detail["failures"] = failures[:20]
    missing = sorted({m["name"] for m in expected} - set(metrics))
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 3
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    out = {
        "correct": not failures and detail.get("traced_counts_repeat", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in expected},
    }
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
