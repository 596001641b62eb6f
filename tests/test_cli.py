import csv
import io
import json

import pytest

from resforge import symbols, verify
from resforge.cli import main
from resforge.padic import LocalField


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_symbol_all_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--p", "7", "--n", "2", "7", "7")
    assert code == 0
    assert "agree: True" in out
    assert "zeta^1" in out


def test_symbol_past_the_enumeration_ceiling(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--p", "13", "--n", "12", "pi^3", "pi^3")
    assert code == 0
    assert "agree: True" in out


def test_symbol_muset_route_past_the_enumeration_bound():
    """The muset route walks O/pi as arrays, so a bound below |O/pi| = 7
    stops none of the three routes of the symbol command's crosscheck."""
    lf = LocalField(7, enum_bound=5)
    rep = symbols.crosscheck(lf, lf.parse("7"), lf.parse("7"), 2)
    assert rep.agree and rep.skipped == {}
    assert (rep.direct, rep.muset, rep.extension) == (1, 1, 1)


@pytest.mark.parametrize("argv", [("symbol", "--p", "7", "--n", "2", "7", "7"),
                                  ("table", "--p", "7", "--n", "2")])
@pytest.mark.parametrize("flag", ["--precision", "--bound"])
def test_removed_field_flags_are_unknown(capsys, argv, flag):
    """The rank-one routes read neither a precision nor an enumeration
    bound, so symbol and table offer no flag for them."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_symbol_json_schema(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--p", "13", "--n", "3",
                           "--format", "json", "2", "13")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["p", "f", "n", "a", "b", "direct", "muset",
                         "extension", "agree"]
    assert rep["agree"] is True and rep["direct"] == 1


def test_symbol_json_is_the_same_bytes_on_every_run(capsys):
    argv = ("symbol", "--p", "7", "--n", "2", "--format", "json", "3", "7")
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert run_cli(capsys, *argv) == first


def test_symbol_single_method(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--p", "7", "--n", "2",
                           "--method", "direct", "3", "5")
    assert code == 0
    assert "zeta^0" in out


def test_symbol_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "symbol", "--p", "7", "--n", "2", "x", "7")
    assert code == 2
    assert "error" in err


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "zolotarev", "--p", "7",
                             "--format", "json", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "verify", "zolotarev", "--p", "7",
                             "--format", "json", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["ok"] is True


def test_verify_muset_seeded(capsys):
    code, out, _ = run_cli(capsys, "verify", "muset", "--seed", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_table_csv_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--p", "3", "--n", "2",
                           "--vmax", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "f", "n", "a", "b", "exp", "value"]
    side = 2 * 3  # (p-1) units x 3 valuations
    assert len(rows) - 1 == side * side
    # unit-unit block is trivial
    for row in rows[1:]:
        if "pi" not in row[3] and "pi" not in row[4]:
            assert row[5] == "0"


def test_table_grid_bound(capsys):
    code, _, err = run_cli(capsys, "table", "--p", "13", "--n", "2",
                           "--vmax", "3", "--max-entries", "100")
    assert code == 2
    assert "exceeds" in err


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RESFORGE_P", "7")
    monkeypatch.setenv("RESFORGE_N", "2")
    code, out, _ = run_cli(capsys, "symbol", "3", "7")
    assert code == 0
    assert "zeta^1" in out


@pytest.mark.parametrize("argv", [
    ("symbol", "--p", "4", "--n", "2", "3", "5"),
    ("symbol", "--p", "7", "--f", "0", "--n", "2", "3", "5"),
    ("table", "--p", "7", "--n", "4"),
    ("verify", "theorem", "--p", "4"),
    ("verify", "corollary", "--p", "9"),
    ("verify", "theorem", "--p", "1000003"),
    ("verify", "zolotarev", "--p", "2"),
    ("table", "--p", "3", "--f", "13", "--n", "2"),
    ("symbol", "--p", "7", "--n", "0", "3", "5"),
    ("table", "--p", "7", "--n", "2", "--vmax", "-1"),
])
def test_bad_field_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_env_value_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RESFORGE_P", "x")
    code, out, err = run_cli(capsys, "symbol", "--n", "2", "3", "5")
    assert (code, out) == (2, "")
    assert err == "error: bad RESFORGE_P='x'\n"


@pytest.mark.parametrize("name,argv", [
    ("P", ("verify", "zolotarev", "--p", "7")),          # verify's --p reads no variable
    ("SEED", ("table", "--p", "3", "--n", "2", "--vmax", "0")),   # table has no seed
    ("P", ("symbol", "--p", "7", "--n", "2", "3", "5")),  # the flag wins
])
def test_env_value_read_only_for_an_absent_flag_of_the_command(capsys, monkeypatch,
                                                                name, argv):
    monkeypatch.setenv(f"RESFORGE_{name}", "x")
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("method", ["direct", "muset", "extension"])
def test_symbol_each_method(capsys, method):
    code, out, _ = run_cli(capsys, "symbol", "--p", "7", "--n", "2",
                           "--method", method, "7", "7")
    assert (code, out) == (0, "zeta^1 = 6\n")
    code, out, _ = run_cli(capsys, "symbol", "--p", "7", "--n", "3", "--f", "2",
                           "--method", method, "--format", "json", "pi", "2")
    assert code == 0
    assert json.loads(out) == {"p": 7, "f": 2, "n": 3, "a": "pi", "b": "2",
                               "method": method, "exp": 1, "value": "[4,0]"}
    assert list(json.loads(out)) == ["p", "f", "n", "a", "b", "method", "exp", "value"]


def test_format_choices_per_command(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["symbol", "--p", "7", "--n", "2", "--format", "csv", "3", "5"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    # RESFORGE_FORMAT is held to the invoked command's choices, not the union
    monkeypatch.setenv("RESFORGE_FORMAT", "json")
    code, out, _ = run_cli(capsys, "symbol", "--p", "7", "--n", "2", "7", "7")
    assert code == 0 and json.loads(out)["agree"] is True
    monkeypatch.setenv("RESFORGE_FORMAT", "csv")
    code, out, _ = run_cli(capsys, "table", "--p", "3", "--n", "2", "--vmax", "0")
    assert code == 0
    assert out.splitlines()[0] == "p,f,n,a,b,exp,value"


@pytest.mark.parametrize("value,argv", [
    ("xml", ("symbol", "--p", "7", "--n", "2", "3", "7")),
    ("csv", ("symbol", "--p", "7", "--n", "2", "3", "7")),
    ("csv", ("verify", "zolotarev", "--p", "7")),
    ("xml", ("table", "--p", "3", "--n", "2")),
])
def test_bad_env_format_is_a_usage_error(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("RESFORGE_FORMAT", value)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad RESFORGE_FORMAT='{value}'\n"


@pytest.mark.parametrize("argv,missing", [
    (("symbol", "--n", "2", "3", "5"), "--p"),
    (("symbol", "--p", "7", "3", "5"), "--n"),
    (("table", "--n", "2"), "--p"),
    (("table", "--p", "7"), "--n"),
])
def test_missing_field_flags_are_usage_errors(capsys, monkeypatch, argv, missing):
    monkeypatch.delenv("RESFORGE_P", raising=False)
    monkeypatch.delenv("RESFORGE_N", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {missing} is required (or set RESFORGE_{missing[2:].upper()})\n"


def test_verify_human_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "zolotarev", "--p", "7", "--p", "11")
    assert code == 0
    assert out == "PASS  zolotarev.zolotarev_equals_euler: 16/16\nOK\n"


def _planted_failure(**_):
    chk = verify._Check("planted")
    chk.record(True, {"case": 0})
    chk.record(False, {"case": 1})
    chk.record(False, {"case": 2})
    return verify._finish("zolotarev", [chk])


def test_every_suite_and_all_parse(capsys, monkeypatch):
    """The verify subcommand takes its choices from verify.SUITES, so every
    suite there, and all, parses and runs."""
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name,
                            lambda name=name, **_: verify._finish(name, [verify._Check("planted")]))
    for name in (*verify.SUITES, "all"):
        code, out, _ = run_cli(capsys, "verify", name)
        assert (code, out.splitlines()[-1]) == (0, "OK")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_failed_verification_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "zolotarev", _planted_failure)
    code, out, _ = run_cli(capsys, "verify", "zolotarev")
    assert code == 1
    assert out.splitlines() == ["FAIL  zolotarev.planted: 1/3",
                                '      first counterexample: {"case": 1}',
                                "FAILED"]
    code, out, _ = run_cli(capsys, "verify", "zolotarev", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["checks"] == [{"name": "planted", "cases": 3, "failures": 2,
                               "first_counterexample": {"case": 1}}]


def test_failed_sweep_json_is_deterministic(capsys, monkeypatch):
    """A route disagreement's counterexample carries no timing, so two runs
    of a failing sweep print the same bytes."""
    real = symbols._orbit_delta

    def off_by_one(lf, u, n):
        return (real(lf, u, n) + 1) % n

    # the muset route's one body, which crosscheck and delta_route_symbol call
    monkeypatch.setattr(symbols, "_orbit_delta", off_by_one)
    argv = ("verify", "corollary", "--p", "3", "--format", "json")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 1
    case = json.loads(first)["checks"][0]["first_counterexample"]
    assert case["muset"] != case["direct"] and "micros" not in case
    assert run_cli(capsys, *argv) == (1, first, "")


def test_passing_sweeps_render_no_counterexample(monkeypatch):
    """A check renders a report or an element only for the failure it keeps:
    passing corollary and theorem sweeps call neither to_dict nor as_str."""
    def refuse(*_args):
        raise AssertionError("a passing case was rendered")

    monkeypatch.setattr(symbols.SymbolReport, "to_dict", refuse)
    monkeypatch.setattr(symbols.KElem, "as_str", refuse)
    assert verify.run_corollary(ps=(3,), vmax=1)["ok"]
    assert verify.run_theorem(ps=(3,), vmax=1)["ok"]
