"""Correctness checks on CLI artifacts.

An operation is one (command, config) invocation.  It fails when its exit
code is wrong, when an exact-route value leaves the tolerance around the
reference artifacts recorded at the benchmark's base commit (or around an
independent reference), when a closed-form or verdict check fails, or when
the `pressure.csv` bodies at one and two workers differ.  Each function here
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import json
import math
import re

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def close(actual: float, expected: float, tol: dict) -> bool:
    if not (math.isfinite(actual) and math.isfinite(expected)):
        return actual == expected or (math.isnan(actual) and math.isnan(expected))
    return abs(actual - expected) <= tol["atol"] + tol["rtol"] * abs(expected)


def _last_digit_unit(token: str) -> float:
    """Size of one unit in the last printed digit of a formatted number."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _compare_string(path: str, actual: str, expected: str, tol: dict) -> list[str]:
    """Strings must match outside their numbers; formatted numbers may move
    by one unit in their last printed digit (or by the numeric tolerance)."""
    if _NUMBER.sub("#", actual) != _NUMBER.sub("#", expected):
        return [f"{path}: {actual!r} != {expected!r}"]
    for a, e in zip(_NUMBER.findall(actual), _NUMBER.findall(expected)):
        if "." not in e and "e" not in e.lower():
            if a != e:
                return [f"{path}: {actual!r} != {expected!r}"]
            continue
        slack = 1.01 * _last_digit_unit(e)
        if abs(float(a) - float(e)) > max(slack, tol["atol"]):
            return [f"{path}: {actual!r} != {expected!r}"]
    return []


def compare_json(actual, expected, tol: dict, path: str = "") -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} != {sorted(expected)}"]
        out = []
        for k in sorted(expected):
            out += compare_json(actual[k], expected[k], tol, f"{path}.{k}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare_json(a, e, tol, f"{path}[{i}]")
        return out
    if isinstance(expected, bool) or expected is None:
        return [] if actual is expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{path}: {actual!r} is not a number"]
        return [] if close(float(actual), float(expected), tol) else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, str):
        if not isinstance(actual, str):
            return [f"{path}: {actual!r} != {expected!r}"]
        return _compare_string(path, actual, expected, tol)
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def compare_csv(actual: str, expected: str, tol: dict, path: str = "") -> list[str]:
    a_rows = actual.splitlines()
    e_rows = expected.splitlines()
    if len(a_rows) != len(e_rows):
        return [f"{path}: {len(a_rows)} lines != {len(e_rows)}"]
    for i, (a_row, e_row) in enumerate(zip(a_rows, e_rows)):
        a_cells, e_cells = a_row.split(","), e_row.split(",")
        if len(a_cells) != len(e_cells):
            return [f"{path}:{i + 1}: {a_row!r} != {e_row!r}"]
        for a, e in zip(a_cells, e_cells):
            ea, ee = _as_float(a), _as_float(e)
            if ee is None or ea is None:
                if a != e:
                    return [f"{path}:{i + 1}: {a!r} != {e!r}"]
            elif not close(ea, ee, tol):
                return [f"{path}:{i + 1}: {a!r} != {e!r}"]
    return []


def compare_artifacts(actual: dict[str, str], expected: dict[str, str], tol: dict) -> list[str]:
    """Compare artifact bodies (file name -> text) against recorded ones."""
    if set(actual) != set(expected):
        return [f"artifact set {sorted(actual)} != {sorted(expected)}"]
    out = []
    for name in sorted(expected):
        if name.endswith(".json"):
            out += compare_json(json.loads(actual[name]), json.loads(expected[name]), tol, name)
        else:
            out += compare_csv(actual[name], expected[name], tol, name)
    return out


def check_exit(code: int, expected: int = 0) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_same_bytes(a: str, b: str, what: str) -> list[str]:
    return [] if a == b else [f"{what}: bodies differ"]


def check_verdicts(payload: dict) -> list[str]:
    return [f"verdict {k} failed" for k, v in sorted(payload["verdicts"].items()) if v is not True]


def bowen_in_verify(verify: dict) -> float | None:
    """Bowen dimension printed in the box-counting check of verify.json."""
    for check in verify["checks"]:
        if check["name"] == "box_counting_vs_bowen":
            return float(check["detail"].rsplit(" ", 1)[1])
    return None


def check_closed_form(value: float | None, exact: float, digits: int, what: str) -> list[str]:
    """A value printed with `digits` decimals against its closed form."""
    if value is None:
        return [f"{what}: value missing"]
    return [] if abs(value - exact) <= 0.51 * 10.0**-digits else [f"{what}: {value} != {exact:.10f}"]


def read_csv_columns(text: str) -> dict[str, list[str]]:
    rows = [line.split(",") for line in text.splitlines()]
    return {h: [r[i] for r in rows[1:]] for i, h in enumerate(rows[0])}
