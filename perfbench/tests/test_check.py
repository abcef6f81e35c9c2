"""The correctness checker flags perturbed values, wrong exit codes and
worker-count byte mismatches."""

import json

from perfbench import check

TOL = {"rtol": 1e-8, "atol": 1e-8}
CSV = "s,rung,depth,estimate,spread\n0.05,4,exact,1.1471200825491628,0.0\n0.1,full,exact,-0.5,0.0\n"
JSON = json.dumps({
    "s_star": 0.38424476211540715,
    "validity_interval": [1.3862943611198906, "inf"],
    "checks": [{"name": "box", "detail": "box 0.3741 vs bowen 0.3842", "ok": True}],
})


def test_identical_artifacts_pass():
    assert check.compare_artifacts({"a.csv": CSV, "b.json": JSON}, {"a.csv": CSV, "b.json": JSON}, TOL) == []


def test_perturbed_csv_value_is_flagged():
    bad = CSV.replace("1.1471200825491628", "1.1471300825491628")
    assert check.compare_artifacts({"a.csv": bad}, {"a.csv": CSV}, TOL)


def test_value_within_tolerance_passes():
    near = CSV.replace("1.1471200825491628", "1.1471200825491638")
    assert check.compare_artifacts({"a.csv": near}, {"a.csv": CSV}, TOL) == []


def test_perturbed_json_values_are_flagged():
    for old, new in (("0.38424476211540715", "0.38434476211540715"), ("bowen 0.3842", "bowen 0.3852"), ("true", "false")):
        bad = JSON.replace(old, new)
        assert bad != JSON
        assert check.compare_artifacts({"b.json": bad}, {"b.json": JSON}, TOL), old


def test_last_printed_digit_may_move_by_one():
    near = JSON.replace("bowen 0.3842", "bowen 0.3843")
    assert check.compare_artifacts({"b.json": near}, {"b.json": JSON}, TOL) == []


def test_nonzero_exit_code_is_flagged():
    assert check.check_exit(0) == []
    assert check.check_exit(4)
    assert check.check_exit(2)


def test_workers_byte_mismatch_is_flagged():
    assert check.check_same_bytes(CSV, CSV, "pressure.csv") == []
    assert check.check_same_bytes(CSV, CSV.replace("0.0\n", "0.00\n", 1), "pressure.csv")


def test_missing_artifact_is_flagged():
    assert check.compare_artifacts({}, {"a.csv": CSV}, TOL)


def test_closed_form_and_verdicts():
    assert check.check_closed_form(0.6309, 0.6309297535714574, 4, "cantor") == []
    assert check.check_closed_form(0.6320, 0.6309297535714574, 4, "cantor")
    assert check.check_verdicts({"verdicts": {"a": True, "b": False}}) == ["verdict b failed"]
