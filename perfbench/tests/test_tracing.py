"""Span bookkeeping of the traced run."""

import pytest

from perfbench.tracing import NO_PARENT, Tracer, count_signature, nearest_ancestor, self_times


def test_self_time_on_nested_spans():
    spans = [
        ("root", 0.0, 10.0, NO_PARENT),  # children cover [1, 4] and [5, 9]
        ("a", 1.0, 4.0, 0),  # child covers [2, 3]
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),  # children overlap: [6, 8] and [7, 8.5]
        ("d", 6.0, 8.0, 3),
        ("e", 7.0, 8.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_nearest_ancestor():
    spans = [("x", 0, 4, NO_PARENT), ("y", 1, 3, 0), ("z", 1.5, 2, 1)]
    assert nearest_ancestor(spans, 2, {"x"}) == "x"
    assert nearest_ancestor(spans, 2, {"x", "y"}) == "y"
    assert nearest_ancestor(spans, 0, {"x"}) is None


def test_wrapped_calls_nest_and_counts_repeat():
    tracer = Tracer()
    inner = tracer._wrap("m.inner", lambda x: x + 1)
    outer = tracer._wrap("m.outer", lambda: [inner(i) for i in range(3)])
    signatures = []
    for _ in range(2):
        tracer.reset()
        assert outer() == [1, 2, 3]
        signatures.append(count_signature(tracer))
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["m.outer", "m.inner", "m.inner", "m.inner"]
    assert spans[0][3] == NO_PARENT and all(s[3] == 0 for s in spans[1:])
    assert signatures[0] == signatures[1] == {"calls:m.outer": 1, "calls:m.inner": 3}


def test_wrappers_reach_imported_names_and_uninstall(tmp_path):
    import rcgdms.cli as cli
    import rcgdms.thermo as thermo

    from perfbench.tracing import layer_metrics

    originals = (cli.pressure, thermo.pressure, cli.COMMANDS["dimension"])
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.pressure is not originals[0] and cli.pressure.__wrapped__ is originals[0]
        code = cli.main(["dimension", "--config", "configs/cantor.json", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.pressure, thermo.pressure, cli.COMMANDS["dimension"]) == originals
    names = {s[0] for s in tracer.spans()}
    assert {"cli.main", "cli.cmd_dimension", "spectrum.bowen_dimension", "thermo.pressure"} <= names
    m = layer_metrics(tracer)
    assert m["thermo.pressure.calls"] == m["thermo.pressure.route.exact-product"] > 0
    assert m["spectrum.pressure_curve.evals"] == 33  # the cantor config's s grid
