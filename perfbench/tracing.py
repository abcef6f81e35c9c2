"""In-memory span tracer that wraps the program's public functions from outside.

Each wrapped call records one span (name, start, end, parent).  Spans live in
flat arrays while the workload runs and are summarised (or saved) once it
ends.  The package itself is never edited: wrappers are patched into the
defining module, into every other module of the package that imported the
name, into module-level dicts that hold it (the CLI's command table), and,
for methods, onto the class.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from array import array
from collections import defaultdict

MODULES = ("config", "shift", "driving", "gdms", "potentials", "thermo", "gibbs", "spectrum", "oracle", "cli")

# Methods traced in addition to the public module functions.  Per-element
# accessors such as FirstSymbolPotential.value and DrivingOrbit.state are
# deliberately absent: they run tens of millions of times per workload, and
# wrapping them would measure the wrapper.
METHODS = {
    "potentials": {"FirstSymbolPotential": ("unit_transfer_bounds",)},
    "driving": {"DrivingSystem": ("expectation",)},
}

NO_PARENT = -1


def _pressure_extra(args, kwargs, result):
    return {"route": result.method}


def _curve_extra(args, kwargs, result):
    return {"repair_correction": float(result.repair_correction)}


def _spectrum_extra(args, kwargs, result):
    return {"betas": len(result.betas)}


def _histogram_extra(args, kwargs, result):
    return {"words": int(result.total)}


# Per-function hooks that read a count or a label off the result.
EXTRAS = {
    "thermo.pressure": _pressure_extra,
    "spectrum.pressure_curve": _curve_extra,
    "spectrum.legendre_spectrum": _spectrum_extra,
    "oracle.level_histogram": _histogram_extra,
}


class Tracer:
    """Collects spans from every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.extras: list[tuple[int, dict]] = []  # (span index, extra counters)
        self.yields: dict[str, int] = defaultdict(int)  # generator name -> items
        self.yields_by_caller: dict[str, int] = defaultdict(int)  # span name -> items

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, nid: int) -> int:
        stack = self._stack()
        # A span opened on a worker thread hangs under the main thread's
        # innermost open span, the call that handed it out.
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = NO_PARENT
        with self._lock:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(time.perf_counter())
            self.span_end.append(0.0)
        stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack().pop()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        extra = EXTRAS.get(name)

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                stack = tracer._stack()
                caller = tracer.names[tracer.span_name[stack[-1]]] if stack else ""
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    with tracer._lock:
                        tracer.yields[name] += count
                        tracer.yields_by_caller[caller] += count

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer.open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)
            if extra is not None:
                tracer.extras.append((idx, extra(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Patch wrappers over every traced function and method."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"rcgdms.{m}") for m in MODULES}
        originals = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{short}.{meth}", fn))
        package = importlib.import_module("rcgdms")
        targets = [package] + [
            importlib.import_module(f"rcgdms.{m}") for m in MODULES + ("instances",)
        ]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = originals.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patches.append((obj, key, value))
                            obj[key] = hit[1]

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        ]

    def save(self, path) -> None:
        """Write every span as JSON lines: one header, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent"]}) + "\n")
            for n, s, e, p in zip(self.span_name, self.span_start, self.span_end, self.span_parent):
                fh.write(f"[{n},{s!r},{e!r},{p}]\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children (children may overlap when they ran on threads).

    `spans` is a sequence of (name, start, end, parent index)."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def nearest_ancestor(spans, idx: int, names) -> str | None:
    """Name of the closest ancestor of span idx whose name is in `names`."""
    parent = spans[idx][3]
    while parent != NO_PARENT:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


EVAL_PARENTS = ("spectrum.pressure_curve", "spectrum.bowen_dimension", "spectrum.legendre_spectrum")
ROUTES = ("exact-product", "exact-spectral", "monte-carlo")
# Layers reported as total inclusive seconds.
TIMED = (
    "potentials.s_infinity",
    "spectrum.legendre_spectrum",
    "spectrum.bowen_dimension",
    "spectrum.pressure_curve",
    "gdms.sample_limit_set",
    "oracle.level_histogram",
    "oracle.box_counting",
    "thermo.check_sandwich",
    "thermo.check_gibbs",
    "gibbs.conformal_measures",
    "thermo.pressure_compact_approx",
    "shift.find_primitivity",
    "shift.build_ladder",
    "config.load_config",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times (`<module>.<function>.<stat>`) of one traced run."""
    spans = tracer.spans()
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    for (name, start, end, _), own in zip(spans, selfs):
        calls[name] += 1
        total[name] += end - start
        self_total[name] += own
    route_calls = defaultdict(int)
    route_time = defaultdict(float)
    betas = 0
    repair = 0.0
    histogram_words = 0
    for idx, extra in tracer.extras:
        name, start, end, _ = spans[idx]
        if "route" in extra:
            route_calls[extra["route"]] += 1
            route_time[extra["route"]] += end - start
        betas += extra.get("betas", 0)
        repair = max(repair, extra.get("repair_correction", 0.0))
        histogram_words += extra.get("words", 0)
    evals = defaultdict(int)
    for idx, span in enumerate(spans):
        if span[0] == "thermo.pressure":
            evals[nearest_ancestor(spans, idx, EVAL_PARENTS)] += 1

    def per(numer, denom, scale=1.0):
        return numer * scale / denom if denom else 0.0

    m = {
        "thermo.pressure.calls": calls["thermo.pressure"],
        "thermo.pressure.self_s": self_total["thermo.pressure"],
    }
    for route in ROUTES:
        m[f"thermo.pressure.route.{route}"] = route_calls[route]
    for route in ROUTES:
        m[f"thermo.pressure.ms_per_call.{route}"] = per(route_time[route], route_calls[route], 1e3)
    utb = "potentials.unit_transfer_bounds"
    ps = "thermo.partition_sums"
    ps_words = tracer.yields_by_caller[ps]
    cp = "gdms.code_point"
    m.update({
        f"{utb}.calls": calls[utb],
        f"{utb}.us_per_call": per(total[utb], calls[utb], 1e6),
        "driving.expectation.calls": calls["driving.expectation"],
        "spectrum.legendre_spectrum.evals_per_beta": per(evals["spectrum.legendre_spectrum"], betas),
        "spectrum.bowen_dimension.evals": evals["spectrum.bowen_dimension"],
        "spectrum.pressure_curve.evals": evals["spectrum.pressure_curve"],
        "spectrum.pressure_curve.repair_correction": repair,
        f"{ps}.calls": calls[ps],
        f"{ps}.words": ps_words,
        f"{ps}.us_per_word": per(total[ps], ps_words, 1e6),
        "shift.enumerate_words.words": tracer.yields["shift.enumerate_words"],
        f"{cp}.calls": calls[cp],
        f"{cp}.us_per_call": per(total[cp], calls[cp], 1e6),
        "oracle.level_histogram.words": histogram_words,
        "cli.self_s": sum(v for k, v in self_total.items() if k.startswith("cli.")),
    })
    for name in TIMED:
        m[f"{name}.s"] = total[name]
    return m


def count_signature(tracer: Tracer) -> dict[str, int]:
    """Every count of a traced run (calls per name, items per generator,
    routes); two runs of the same inputs must give the same signature."""
    sig = defaultdict(int)
    for nid in tracer.span_name:
        sig[f"calls:{tracer.names[nid]}"] += 1
    for name, n in tracer.yields.items():
        sig[f"yields:{name}"] += n
    for _, extra in tracer.extras:
        if "route" in extra:
            sig[f"route:{extra['route']}"] += 1
        for key in ("betas", "words"):
            if key in extra:
                sig[key] += extra[key]
    return dict(sig)
