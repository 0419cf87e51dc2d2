"""CLI behavior: goldens, determinism, exit codes, report schema."""

import json
from pathlib import Path

import pytest

from klpoly import cli
from klpoly.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_expand_3_text_golden(capsys):
    code, out = run(capsys, ["expand", "3"])
    assert code == 0
    assert out == (GOLDEN / "expand_3.txt").read_text()
    assert out.strip() == "2·u'' − 2·λ^2·u"


def test_expand_3_json_golden(capsys):
    code, out = run(capsys, ["expand", "3", "--format", "json"])
    assert code == 0
    assert out == (GOLDEN / "expand_3.json").read_text()


def test_expand_closed_form_agrees(capsys):
    _, direct = run(capsys, ["expand", "5", "--format", "json"])
    _, closed = run(capsys, ["expand", "5", "--format", "json", "--closed-form"])
    d, c = json.loads(direct), json.loads(closed)
    assert d["provenance"] == "direct" and c["provenance"] == "closed_form"
    assert d["terms"] == c["terms"]


def test_expand_small_values(capsys):
    assert run(capsys, ["expand", "1"])[1].strip() == "0"
    assert run(capsys, ["expand", "2"])[1].strip() == "u' − λ·u"


def test_expand_out_of_range(capsys):
    assert run(capsys, ["expand", "0"])[0] == 2
    assert run(capsys, ["expand", "11"])[0] == 2
    assert run(capsys, ["expand", "11", "--max-n", "12"])[0] == 0


def test_table_golden(capsys):
    code, out = run(capsys, ["table", "4", "3", "2"])
    assert code == 0
    assert out == (GOLDEN / "table_4_3_2.txt").read_text()
    densities = [int(line.split()[-1]) for line in out.strip().splitlines()]
    assert densities == [64, 48, 36, 27, 24, 18, 32, 12, 16, 8, 285]


def test_table_weight_6069(capsys):
    code, out = run(capsys, ["table", "4", "5", "2"])
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("6069")


def test_table_trivial(capsys):
    code, out = run(capsys, ["table", "3", "0", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["(0,", "0,", "0)", "1"]
    assert lines[1].endswith("1")


def test_table_bad_parameters(capsys):
    assert run(capsys, ["table", "4", "3", "0"])[0] == 2
    assert run(capsys, ["table", "4", "3", "5"])[0] == 2


def test_linear_golden(capsys):
    code, out = run(capsys, ["linear", "5"])
    assert code == 0
    assert out == (GOLDEN / "linear_5.txt").read_text()


def test_hpoly(capsys):
    code, out = run(capsys, ["hpoly", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["coefficients"] == [2, 0, -2]


def test_cstar_all_zero(capsys):
    code, out = run(capsys, ["cstar", "6", "--format", "json"])
    assert code == 0
    assert all(r["c_star"] == 0 for r in json.loads(out)["rows"])


def test_determinism(capsys):
    argv = ["verify", "identities", "--n-max", "4", "--format", "json", "--no-timing"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_verify_report_schema(capsys):
    code, out = run(
        capsys, ["verify", "cstar", "--n-max", "4", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["tool_version"]
    assert report["command"] == "verify"
    assert report["parameters"]["suite"] == "cstar"
    assert "wall_time_ms" in report
    assert all(c["status"] in {"pass", "fail", "observed"} for c in report["checks"])


def test_verify_no_timing_omits_wall_time(capsys):
    _, out = run(
        capsys,
        ["verify", "cstar", "--n-max", "3", "--format", "json", "--no-timing"],
    )
    assert "wall_time_ms" not in json.loads(out)


def test_verify_suites_pass(capsys):
    assert run(capsys, ["verify", "identities", "--n-max", "6"])[0] == 0
    assert run(capsys, ["verify", "cstar", "--n-max", "6"])[0] == 0
    assert run(capsys, ["verify", "thm5", "--n-max", "5", "--m-max", "6"])[0] == 0
    assert run(capsys, ["verify", "weights", "--n-max", "4"])[0] == 0
    assert run(capsys, ["verify", "linear", "--n-max", "8"])[0] == 0


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_removed_parallel_option_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "3", "--parallel", "2"])
    assert exc.value.code == 2


def test_verify_calls_suites_through_module_attributes(capsys, monkeypatch):
    # a wrapper installed on cli.suite_* (a profiler or tracer) sees each run
    calls = []
    monkeypatch.setattr(cli, "suite_cstar", lambda n_max: calls.append(n_max) or [])
    assert run(capsys, ["verify", "cstar", "--n-max", "3"])[0] == 0
    assert run(capsys, ["verify", "cstar"])[0] == 0
    assert calls == [3, 8]
