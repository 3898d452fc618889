"""Command line behavior: outputs, exit codes, error reporting."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tensornorm.cli import main


FIELDS = "p 2\nlevels 4\nbase closure\nK t:-1\nL u:-1\n"


@pytest.fixture()
def fields_file(tmp_path):
    path = tmp_path / "fields.cfg"
    path.write_text(FIELDS)
    return str(path)


def test_norm_command(fields_file, capsys):
    code = main(["norm", fields_file, "t (x) 1 + 1 (x) u"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "2^-1"
    assert "certified norm: 2^-1" in out
    assert "|u||v|" in out


def test_norm_of_zero(fields_file, capsys):
    code = main(["norm", fields_file, "t (x) u + t (x) u"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_reduce_command_default_fields(capsys):
    code = main(["reduce", "(1 + t) (x) u + 1 (x) u"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reduced representation (1 terms):" in out
    assert "certified norm: 2^-2" in out


def test_decompose_command(capsys):
    code = main(["decompose", "t (x) 1 + 1 (x) u"])
    out = capsys.readouterr().out
    assert code == 0
    assert "alpha: 2^0" in out
    assert "beta: 2^-1" in out
    assert "pure part: 1 (x) u" in out
    assert "tail: t (x) 1" in out


def test_decompose_zero_is_usage_error(capsys):
    code = main(["decompose", "t (x) u + t (x) u"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_check_counterexample(capsys):
    code = main(["check", "counterexample"])
    out = capsys.readouterr().out
    assert code == 0
    assert "failures: 0" in out


def test_check_small_suite(capsys):
    code = main(["check", "crossnorm", "--trials", "10", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("suite: crossnorm")


def test_check_json(capsys):
    code = main(["check", "ultrametric", "--trials", "5", "--seed", "3", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["trials"] == 5


def test_check_prime_base(capsys):
    code = main(["check", "submult", "--trials", "5", "--seed", "3", "--base", "1"])
    assert code == 0
    capsys.readouterr()


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check", "bogus-suite"])
    assert exc.value.code == 2


def test_invalid_trials_is_usage_error(capsys):
    code = main(["check", "ultrametric", "--trials", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_reports_position(fields_file, capsys):
    code = main(["norm", fields_file, "t (x) %"])
    err = capsys.readouterr().err
    assert code == 2
    assert "position" in err


def test_missing_setup_file(capsys):
    code = main(["norm", "/nonexistent/fields.cfg", "t (x) 1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_deterministic_stdout(capsys):
    main(["check", "symmetry", "--trials", "8", "--seed", "5"])
    first = capsys.readouterr().out
    main(["check", "symmetry", "--trials", "8", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_failing_suite_exits_one(monkeypatch, capsys):
    from tensornorm import cli
    from tensornorm.suites import SuiteReport, TrialFailure

    def fake_run_suite(name, scenario):
        fail = TrialFailure(offset=3, inputs=("t (x) 1",),
                            relation="r", observed="o")
        return SuiteReport(name, trials=scenario.trials, failures=[fail])

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code = main(["check", "mult-closed", "--trials", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "failures: 1" in out


@pytest.mark.parametrize("prefix, suffix", [("(" * 3000, ")" * 3000), ("-" * 3000, "")],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_parse_error(prefix, suffix, capsys):
    # a bounded nesting depth keeps hostile input from exhausting the stack
    code = main(["reduce", f"{prefix}t{suffix} (x) u"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: expression nested deeper than 100")
    assert "Traceback" not in err


@pytest.mark.parametrize("element, degree", [
    ("(1+t+t^3)^99999999 (x) 1", 299999997),
    ("((1+t)^64)^64 (x) u", 4096),
    ("1 (x) (u/(1+u^2))^-129", 258),
    ("t^257 (x) u", 257),
], ids=["huge-exponent", "nested", "negative-exponent", "monomial"])
def test_power_past_the_degree_bound_is_parse_error(element, degree, fields_file, capsys):
    # bounded work on bounded input: the power is refused before it is computed
    started = time.monotonic()
    code = main(["norm", fields_file, element])
    elapsed = time.monotonic() - started
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: power of total degree {degree} exceeds the limit 256")
    assert "Traceback" not in err
    assert elapsed < 2.0


def test_power_at_the_degree_bound_runs(fields_file, capsys):
    code = main(["norm", fields_file, "((1+t)^16)^16 (x) (1/u)^256"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "2^256"


WIDE_FIELDS = ("p 3\nlevels 4\nbase closure\nK " + " ".join(f"a{i}:-1" for i in range(8))
               + "\nL u:-1\n")
WIDE_SUM = "(1+a0+a1+a2+a3+a4+a5+a6+a7)"


def _u_sum(count):
    return "(" + "+".join(f"u^{i}" for i in range(count)) + ")"


@pytest.fixture()
def wide_fields_file(tmp_path):
    path = tmp_path / "wide.cfg"
    path.write_text(WIDE_FIELDS)
    return str(path)


@pytest.mark.parametrize("element, message", [
    (f"{WIDE_SUM}^26 (x) u", "power of up to 18156204 terms"),
    (f"{WIDE_SUM}^8 (x) u", "power of up to 12870 terms"),
    (f"1 (x) {_u_sum(100)} * {_u_sum(101)}", "product of up to 10100 terms"),
    (f"1 (x) u / {_u_sum(100)} / {_u_sum(101)}", "product of up to 10100 terms"),
    (f"1 (x) (1 / {_u_sum(100)} + 1 / {_u_sum(101)})", "product of up to 10100 terms"),
    ("*".join(f"(1+a{i}+a{i}^2+a{i}^3)" for i in range(8)) + " (x) u",
     "product of up to 16384 terms"),
], ids=["power", "power-just-past", "product", "quotient", "sum-of-fractions",
        "chained-product"])
def test_results_past_the_term_bound_are_parse_errors(element, message, wide_fields_file,
                                                      capsys):
    # bounded work on bounded input: refused before it is computed
    started = time.monotonic()
    code = main(["norm", wide_fields_file, element])
    elapsed = time.monotonic() - started
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message} exceeds the limit 10000")
    assert "Traceback" not in err
    assert elapsed < 2.0


@pytest.mark.parametrize("element", [
    f"{WIDE_SUM}^7 (x) 1", f"1 (x) {_u_sum(100)} * {_u_sum(100)}",
], ids=["power", "product"])
def test_results_at_the_term_bound_run(element, wide_fields_file, capsys):
    code = main(["norm", wide_fields_file, element])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "2^0"


@pytest.mark.parametrize("args", [
    ["--max-degree", "100000", "--trials", "2"],
    ["--max-terms", "100000", "--trials", "1"],
    ["--levels", "2000", "--trials", "1"],
], ids=["degree", "terms", "levels"])
def test_unbounded_shapes_are_usage_errors(args, capsys):
    # bounded work on bounded input: the shape is refused before any work
    started = time.monotonic()
    code = main(["check", "mult-closed", *args])
    elapsed = time.monotonic() - started
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert elapsed < 2.0


def test_internal_error_exits_three(monkeypatch, capsys):
    from tensornorm import cli

    def broken_run_suite(name, scenario):
        raise RuntimeError("orthogonalized representation\nhas a zero factor")

    monkeypatch.setattr(cli, "run_suite", broken_run_suite)
    code = main(["check", "mult-closed", "--trials", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: RuntimeError: orthogonalized representation has a zero factor"]


def _vars(prefix, count):
    return ",".join(f"{prefix}{i}:-1" for i in range(count))


@pytest.mark.parametrize("flag, count", [("--k-vars", 2000), ("--k-vars", 9),
                                         ("--l-vars", 9)],
                         ids=["k-2000", "k-9", "l-9"])
def test_too_many_variables_is_usage_error(flag, count, capsys):
    started = time.monotonic()
    code = main(["check", "mult-closed", flag, _vars("a", count), "--trials", "1"])
    elapsed = time.monotonic() - started
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "at most 8 variables" in err
    assert elapsed < 2.0


def test_setup_file_with_too_many_variables_is_usage_error(tmp_path, capsys):
    path = tmp_path / "wide.cfg"
    path.write_text("p 2\nlevels 4\nbase closure\nK " + " ".join(
        f"t{i}:-1" for i in range(9)) + "\nL u:-1\n")
    code = main(["norm", str(path), "t0 (x) u"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "at most 8" in err


def test_variables_at_the_limit_run(capsys):
    code = main(["check", "mult-closed", "--k-vars", _vars("a", 8),
                 "--l-vars", _vars("b", 8), "--trials", "2", "--seed", "3"])
    capsys.readouterr()
    assert code == 0


def test_python_dash_m_runs_the_cli():
    # the package runs as a module from a source checkout
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-m", "tensornorm", "check", "counterexample"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "failures: 0" in done.stdout
