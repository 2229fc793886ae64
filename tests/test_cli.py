import decimal
import json
import pathlib
import shlex

import pytest

from chevlab import cli, groups


def _run(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_order_formula(capsys):
    code, out = _run(["order", "--group", "SL", "--n", "2", "--q", "5"],
                     capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 120


def test_order_bfs_agrees(capsys):
    code, out = _run(["order", "--group", "SL", "--n", "2", "--q", "7",
                      "--method", "bfs"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == rep["bfs_order"] == 336
    assert rep["agree"] is True


def test_degree_subcommand(capsys):
    code, out = _run(["degree", "--group", "Sp", "--n", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"] == 24
    assert rep["table_bound"]["exact"] == "256"
    assert rep["pass"] is True


def test_growth_csv(capsys):
    code, out = _run(["growth", "--group", "SL", "--n", "2", "--q", "5",
                      "--t-max", "6", "--target", "torus", "--format", "csv"],
                     capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,ball_size,target_count"
    assert lines[-1] == "6,120,4"


def test_constants_formatting(capsys):
    code, out = _run(["constants", "--which", "clg", "--r", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    # ln fields are decimal strings with 12 significant digits
    assert rep["C1"]["ln"] == "210.71674289"
    assert isinstance(rep["C2"]["exact"], str)


def test_constants_print_exact_integers_past_the_str_limit(capsys):
    # m1 = 10^5625 has more digits than str() converts by default
    code, out = _run(["constants", "--which", "growth", "--r", "5"], capsys)
    assert code == 0
    assert json.loads(out)["pairs"][0]["m"]["exact"] == "1" + "0" * 5625


def test_order_prints_plain_integers_past_the_str_limit(capsys):
    # |SL(50, 101)| has 5,009 digits; it stays a JSON number
    code, out = _run(["order", "--group", "SL", "--n", "50", "--q", "101"], capsys)
    assert code == 0
    order = json.loads(out, parse_int=decimal.Decimal)["order"]
    assert isinstance(order, decimal.Decimal)
    assert int(order) == groups.group_order(groups.GroupSpec("SL", 50), 101)
    assert len(order.as_tuple().digits) == 5009
    assert cli.emit({"n": -10 ** 5000}) == b'{"n":-1' + b"0" * 5000 + b"}\n"


def test_torus_cert_subcommand(capsys):
    code, out = _run(["torus-cert", "--group", "Sp", "--n", "2", "--q", "7",
                      "--eta", "0,1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["achieved_rank"] == rep["expected_rank"] == 6
    assert len(rep["witnesses"]) == 5


def test_classify_subcommand(capsys):
    code, out = _run(["classify", "--group", "SL", "--n", "2", "--q", "5",
                      "--matrix", "2,0,0,3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["regular_semisimple"] is True


def test_escape_subcommand(capsys):
    code, out = _run(["escape", "--group", "SL", "--n", "2", "--q", "7",
                      "--variety", "ambient=4 dim=2 deg=1; x1-1",
                      "--point", "1,0,0,1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert 1 <= rep["k_found"] <= 3
    assert rep["verified_noncontainment"] is True


def test_exit_code_usage(capsys):
    assert cli.run(["order", "--group", "SL", "--n", "2", "--q", "6"]) == 2
    assert cli.run(["nonsense"]) == 2


def test_exit_code_cap(capsys):
    code = cli.run(["growth", "--group", "SL", "--n", "3", "--q", "7",
                    "--cap", "100"])
    assert code == 3


def test_exit_code_hypothesis(capsys):
    code = cli.run(["growth", "--group", "SL", "--n", "2", "--q", "4",
                    "--check", "np"])
    assert code == 4
    assert cli.run(["constants", "--which", "torus", "--r", "1"]) == 4
    # characteristic 2 is out of scope for every group command
    assert cli.run(["growth", "--group", "SL", "--n", "2", "--q", "8",
                    "--t-max", "2"]) == 4
    assert cli.run(["growth", "--group", "Sp", "--n", "2", "--q", "4",
                    "--t-max", "2"]) == 4


def test_subset_larger_than_group_is_usage_error(capsys):
    code = cli.run(["growth", "--group", "SL", "--n", "2", "--q", "7",
                    "--gens", "subset", "--size", "400", "--t-max", "2"])
    assert code == 2
    assert "order 336" in capsys.readouterr().err


_SL27 = ["--group", "SL", "--n", "2", "--q", "7"]


@pytest.mark.parametrize("argv", [
    ["escape"] + _SL27 + ["--variety", "dim=2; x1-1", "--point", "1,0,0,1"],
    ["escape"] + _SL27 + ["--variety", "ambient=4 deg=1; x1-1", "--point", "1,0,0,1"],
    ["escape"] + _SL27 + ["--variety", "ambient=4 dim=2; x1-1", "--point", "1,0,0,1"],
    ["growth"] + _SL27 + ["--t-max", "0"],
    ["growth"] + _SL27 + ["--t-max", "-1", "--format", "csv"],
    ["growth"] + _SL27 + ["--t-max", "0", "--target", "torus"],
    ["growth"] + _SL27 + ["--target", "class:1,0,0,2"],  # det 2: not in SL_2
    ["growth"] + _SL27 + ["--target", "class:1,0,0,2", "--format", "csv"],
    ["growth"] + _SL27 + ["--target", "class:1,2"],
    ["growth"] + _SL27 + ["--target", "class:1,2", "--format", "csv"],
    ["growth"] + _SL27 + ["--target", "torus:1,2,3"],  # SL_2 takes 2 entries
    ["growth"] + _SL27 + ["--target", "torus:5"],
    ["growth"] + _SL27 + ["--gens", "random", "--size", "-1"],
    ["escape"] + _SL27 + ["--variety", "ambient=4dim=2", "--point", "1,0,0,1"],
    ["growth"] + _SL27 + ["--check", "olson", "--format", "csv"],
])
def test_malformed_input_is_usage_error(argv, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_malformed_variety_header_is_named(capsys):
    assert cli.run(["escape"] + _SL27 + ["--variety", "ambient=4dim=2",
                                         "--point", "1,0,0,1"]) == 2
    assert "malformed variety header 'ambient=4dim=2'" in capsys.readouterr().err


# pinned stdout bytes and exit codes of every subcommand; argv is split as a
# shell would split it, so a variety may be quoted
_BYTES = json.loads((pathlib.Path(__file__).parent / "cli_bytes.json").read_text())


@pytest.mark.parametrize("row", _BYTES, ids=[row["argv"] for row in _BYTES])
def test_report_bytes_are_pinned(row, capsys):
    code, out = _run(shlex.split(row["argv"]), capsys)
    assert (code, out) == (row["exit"], row["stdout"])


def test_byte_identical_reports(capsys):
    argv = ["torus-cert", "--group", "Sp", "--n", "2", "--q", "7",
            "--eta", "0,1", "--seed", "9"]
    _, a = _run(argv, capsys)
    _, b = _run(argv, capsys)
    assert a == b
    argv2 = ["growth", "--group", "SL", "--n", "2", "--q", "7",
             "--gens", "random", "--size", "3", "--seed", "11",
             "--check", "ruzsa", "--k", "4"]
    _, c = _run(argv2, capsys)
    _, d = _run(argv2, capsys)
    assert c == d


def test_emit_canonical():
    assert cli.emit({}) == b"{}\n"
    out = cli.emit({"b": 2, "a": 1.5})
    assert out == b'{"a":"1.5","b":2}\n'
    # keys sorted recursively, floats stringified
    rep = {"z": {"y": 0.1, "x": 1}, "a": [1.0, 2]}
    data = json.loads(cli.emit(rep))
    assert list(data) == ["a", "z"]
    assert data["a"][0] == "1"


def test_verify_prints_criterion_lines(capsys):
    # run only the cheap criteria through the same formatting path
    from chevlab import acceptance
    report = {"criteria": [
        {"index": 1, "name": "order_oracle", "passed": True},
    ], "pass": True, "profile": "quick"}
    for crit in report["criteria"]:
        line = "criterion {} [{}]: {}".format(
            crit["index"], crit["name"],
            "PASS" if crit["passed"] else "FAIL")
        assert line == "criterion 1 [order_oracle]: PASS"
    assert acceptance.PROFILES["desk"]["class_samples"] == 100
