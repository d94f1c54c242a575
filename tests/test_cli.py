"""End-to-end checks of the command-line interface."""

import json

import pytest

from winfty import cli
from winfty.cli import _build_parser, _options, main
from winfty.suites import SuiteOptions


def test_eval_monomial(capsys):
    assert main(["eval", "[t^(1)*D, t^(2)*D]"]) == 0
    assert capsys.readouterr().out.strip() == "t^(3)*D"


def test_eval_two_variables(capsys):
    code = main(["eval", "3/2*t[1,0]*D1^2*D2", "--n", "2",
                 "--subalgebra", "full"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3/2*t[1,0]*D1^2*D2"


def test_eval_scalar(capsys):
    assert main(["eval", "(alpha + 1)^2", "--alpha", "formal"]) == 0
    assert capsys.readouterr().out.strip() == "alpha^2 + 2*alpha + 1"


def test_eval_exponent_limit(capsys):
    assert main(["eval", "--alpha", "formal", "alpha^3000000000*t^(1)*D"]) == 0
    assert capsys.readouterr().out.strip() == "(alpha^3000000000)*t^(1)*D"
    # 2^63: one past the largest exponent a monomial key holds
    assert main(["eval", "--alpha", "formal", "alpha^9223372036854775808*t^(1)*D"]) == 2
    assert "exponent exceeds 2^63 - 1" in capsys.readouterr().err


def test_eval_syntax_error_exits_2(capsys):
    assert main(["eval", "t^(1)*"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_subalgebra_violation_exits_2(capsys):
    assert main(["eval", "t^(1)", "--subalgebra", "w1"]) == 2


@pytest.mark.parametrize("argv", (
    ["t^(1/2)*D"],
    ["[t^(1/2)*D, t^(-1/2)*D^2]", "--subalgebra", "hat"],
    ["t^(1)*D + t^(1/2)*D^2"],
    ["t[1/2,0]*D1", "--n", "2"],
), ids=("monomial", "hat-bracket", "sum-term", "two-variables"))
def test_eval_grade_outside_the_lattice_exits_2(argv, capsys):
    # each printed an answer on Z^n and exited 0
    assert main(["eval", *argv]) == 2
    assert "is not in the lattice" in capsys.readouterr().err


def test_eval_half_grades_on_half_z(capsys):
    assert main(["eval", "[t^(1/2)*D, t^(-1/2)*D^2]", "--subalgebra", "hat",
                 "--gamma", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "-1/4*D - 3/2*D^2 + 1/64*C"


def test_unknown_suite_exits_2(capsys):
    assert main(["suite", "nonexistent"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["suite"]) == 2
    capsys.readouterr()


def test_suite_runs_and_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["suite", "weightlab-215", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    doc = json.loads(out.read_text())
    assert doc["suite"] == "weightlab-215"
    assert doc["passed"] is True
    assert doc["grammar_version"] == "1"


def test_json_reports_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["suite", "assoc-dichotomy", "--seed", "9",
                     "--json", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_custom_gamma_lattice(capsys):
    code = main(["suite", "submodules", "--window", "4"])
    assert code == 0
    capsys.readouterr()


def test_kind_restriction(capsys):
    assert main(["suite", "weightlab-yk", "--kind", "A"]) == 0
    out = capsys.readouterr().out
    assert "yk-relations[A]" in out
    assert "yk-relations[B]" not in out


def test_eval_json_output(tmp_path, capsys):
    out = tmp_path / "eval.json"
    assert main(["eval", "t^(1)*D", "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc == {"grammar_version": "1", "kind": "element",
                   "result": "t^(1)*D"}


@pytest.mark.parametrize("suite,flags", (
    ("cocycle", ["--n", "2"]),
    ("jacobi", ["--n", "3"]),
    ("oracle", ["--gamma", "1,0;0,1"]),
    ("normalize", ["--window", "3"]),
    ("modules", ["--alpha", "1/2"]),
    ("lemma21", ["--subalgebra", "hat"]),
    ("weightlab-p", ["--samples", "5"]),
    ("onevar-identities", ["--max-mu", "2"]),
    ("weightlab-f", ["--kind", "A"]),
))
def test_suite_rejects_flags_it_does_not_read(suite, flags, capsys):
    # before, e.g. `suite cocycle --n 2` wrote the same report as --n 1
    assert main(["suite", suite, *flags]) == 2
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("flags", (
    ["--window", "3"],
    ["--samples", "5"],
    ["--seed", "1"],
    ["--max-mu", "2"],
    ["--kind", "A"],
    ["--alpha", "1/2"],
    ["--seed", "0"],
))
def test_eval_rejects_flags_it_does_not_read(flags, capsys):
    # before, `eval "t^(1)*D" --window 3` printed t^(1)*D and exited 0; eval
    # takes no suite flag, so argparse refuses even a default value
    assert main(["eval", "t^(1)*D", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and flags[0] in captured.err


def test_eval_reads_formal_alpha_gamma_and_defaults(capsys):
    assert main(["eval", "alpha*t[1,1]*D1", "--alpha", "formal", "--n", "2",
                 "--gamma", "1,1;0,1"]) == 0
    assert capsys.readouterr().out.strip() == "(alpha)*t[1,1]*D1"


def test_eval_empty_gamma_exits_2(capsys):
    assert main(["eval", "D", "--gamma", ";"]) == 2
    assert "error: empty --gamma" in capsys.readouterr().err


def test_eval_zero_denominator_is_a_syntax_error(capsys):
    # before, the CLI printed "error: Fraction(1, 0)"
    assert main(["eval", "t^(1/0)*D"]) == 2
    assert "error: zero denominator in '1/0' (at position 3)" in capsys.readouterr().err


@pytest.mark.parametrize("command", (["suite", "all"],))
def test_omitted_flags_give_the_default_options(command):
    assert _options(_build_parser().parse_args(command)) == SuiteOptions()


@pytest.mark.parametrize("argv", (
    ["suite", "jacobi", "--samples", "0"],
    ["suite", "jacobi", "--samples", "-3"],
    ["suite", "submodules", "--window", "-1"],
    ["suite", "modules", "--max-mu", "0"],
    ["suite", "assoc-dichotomy", "--max-mu", "0"],
    ["suite", "oracle", "--max-mu", "0"],
    ["suite", "all", "--window", "0"],
    ["suite", "jacobi", "--sam", "-3"],
), ids=("samples-0", "samples-negative", "window-negative", "modules-max-mu-0",
        "assoc-max-mu-0", "oracle-max-mu-0", "all-window-0", "abbreviated-samples-negative"))
def test_out_of_range_numbers_exit_2_before_any_suite_runs(argv, monkeypatch, capsys):
    # before, `--samples 0` ran 200 samples, `--window -1` reported FAIL and
    # `--max-mu 0` looped forever in the module samplers
    monkeypatch.setattr(cli, "run_suite", lambda *a: pytest.fail("a suite ran"))
    assert main(argv) == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_eval_n_below_1_names_the_flag(n, capsys):
    # before, it exited 2 with "lattice needs at least one generator"
    assert main(["eval", "D", "--n", n]) == 2
    assert f"error: --n must be at least 1, got {n}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", (
    (["suite", "jacobi", "--n", "2", "--samples", "2"], "unrecognized arguments: --n 2"),
    (["suite", "all", "--n", "2", "--samples", "2", "--window", "2"],
     "unrecognized arguments: --n 2"),
    (["suite", "jacobi", "--gamma", "1,0,0;0,1,0;0,0,1", "--samples", "2"],
     "--gamma must lie in Q^1 or Q^2"),
), ids=("jacobi", "all", "q3"))
def test_jacobi_refuses_n_and_a_q3_lattice(argv, message, capsys):
    # jacobi always runs n = 1 and n = 2, and the --gamma lattice's own
    # dimension picks the one that gets it, so --n is no flag of suite
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["suite", "assoc-dichotomy", "--alpha", "formal", "--samples", "2"],
    ["suite", "assoc-dichotomy", "--alpha", "1,2", "--samples", "2"],
    ["suite", "weightlab-yk", "--alpha", "formal"],
    ["suite", "weightlab-yk", "--alpha", "1,2"],
    ["suite", "all", "--alpha", "formal", "--samples", "2", "--window", "2"],
), ids=("assoc-formal", "assoc-vector", "yk-formal", "yk-vector", "all-formal"))
def test_alpha_other_than_one_rational_exits_2(argv, capsys):
    # before, --alpha formal ran alpha = 1/2 and --alpha 1,2 ran alpha = 1,
    # and each report recorded the value it ran
    assert main(argv) == 2
    assert "read --alpha as one rational" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ("assoc-dichotomy", "weightlab-yk"))
def test_one_rational_alpha_is_recorded(suite, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["suite", suite, "--alpha", "1/3", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["params"]["alpha"] == "1/3"


@pytest.mark.parametrize("argv, param, value", (
    (["assoc-dichotomy", "--alpha", "-1/2", "--samples", "2"], "alpha", "-1/2"),
    (["weightlab-yk", "--alpha", "-1/3"], "alpha", "-1/3"),
    (["jacobi", "--gamma", "-1/2", "--samples", "2"], "gamma", [["-1/2"]]),
    (["jacobi", "--gam", "-1/2", "--samples", "2"], "gamma", [["-1/2"]]),
    (["assoc-dichotomy", "--al", "-1/3"], "alpha", "-1/3"),
))
def test_flag_value_with_a_leading_minus_is_read_as_the_value(
        argv, param, value, tmp_path, capsys):
    # before, argparse took "-1/2" for a flag and exited 2 with
    # "expected one argument"; only --alpha=-1/2 worked, and an abbreviated
    # flag such as --gam took no value that starts with a minus
    out = tmp_path / "report.json"
    assert main(["suite", *argv, "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["params"][param] == value


LONG = "1" + "0" * 4400  # past the interpreter's 4300-digit int/str limit


@pytest.mark.parametrize("argv, param, value", (
    (["weightlab-yk", "--alpha", f"1/{LONG}"], "alpha", f"1/{LONG}"),
    (["assoc-dichotomy", "--alpha", f"-1/{LONG}", "--samples", "2"], "alpha", f"-1/{LONG}"),
    (["jacobi", "--gamma", LONG, "--samples", "2"], "gamma", [[LONG]]),
), ids=("weightlab-yk", "assoc-dichotomy", "jacobi"))
def test_a_flag_value_of_any_length_is_recorded_in_full(argv, param, value, tmp_path, capsys):
    # before, the report's str() of the value raised the int/str limit, and
    # the command exited 2 with "Exceeds the limit (4300 digits)"
    out = tmp_path / "report.json"
    assert main(["suite", *argv, "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["params"][param] == value


@pytest.mark.parametrize("argv, message", (
    (["suite", "jacobi", "--gamma", "1/0"], "--gamma: zero denominator in '1/0'"),
    (["suite", "jacobi", "--gamma", "1, 2/0"], "--gamma: zero denominator in '2/0'"),
    (["eval", "D", "--gamma", "1/0"], "--gamma: zero denominator in '1/0'"),
    (["suite", "weightlab-yk", "--alpha", "1/0"], "--alpha: zero denominator in '1/0'"),
))
def test_zero_denominator_in_a_flag_names_the_flag(argv, message, capsys):
    # before, the CLI printed "error: Fraction(1, 0)"
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", (
    (["suite", "weightlab-yk", "--alpha", "0.5"], "--alpha"),
    (["suite", "weightlab-yk", "--alpha", "1_000"], "--alpha"),
    (["suite", "jacobi", "--gamma", "1e3"], "--gamma"),
    (["eval", "D", "--gamma", "+3"], "--gamma"),
    (["eval", "D", "--subalgebra", "full", "--gamma", "1e3000000"], "--gamma"),
))
def test_a_flag_value_is_read_by_the_grammars_rational_rule(argv, flag, capsys):
    # before, Fraction(text) read them: --alpha 0.5 ran alpha = 1/2, and
    # 1e3000000 spent seconds building a 3,000,001-digit generator
    assert main(argv) == 2
    assert f"error: {flag}: expected an integer p or a fraction p/q" in capsys.readouterr().err


def test_submodules_window_0_exits_2(capsys):
    # before, it reported FAIL and exited 1: a window of y_0 alone holds
    # no proper submodule, so the suite has nothing to check
    assert main(["suite", "submodules", "--window", "0"]) == 2
    assert "--window must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, out", (
    (["-t^(1)*D"], "-t^(1)*D"),
    (["-1/2*D"], "-1/2*D"),
    (["-t^(3)*D", "--subalgebra", "w1"], "-t^(3)*D"),
    (["--n", "2", "-t[1,0]*D1", "--subalgebra", "full"], "-t[1,0]*D1"),
    (["-alpha*D", "--alpha", "formal"], "(-alpha)*D"),
    (["t[-1,0]*D1", "--n", "2", "--gamma", "-1,0;0,1"], "t[-1,0]*D1"),
    (["-t[-1,0]*D1", "--n", "2", "--gamma", "-1,0;0,1"], "-t[-1,0]*D1"),
    (["t^(-1/2)*D", "--gamma", "-1/2"], "t^(-1/2)*D"),
    (["--", "-D"], "-D"),
    (["--gamma=1", "-D"], "-D"),
))
def test_leading_minus_expression_evaluates(argv, out, capsys):
    # argparse reads a space-free argument that starts with "-" as a flag
    assert main(["eval", *argv]) == 0
    assert capsys.readouterr().out.strip() == out


@pytest.mark.parametrize("argv", (["-h"], ["eval", "-h"], ["suite", "-h"]))
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage: winfty" in capsys.readouterr().out


def test_printed_negative_result_feeds_back(capsys):
    assert main(["eval", "[t^(2)*D, t^(1)*D]"]) == 0
    text = capsys.readouterr().out.strip()
    assert text == "-t^(3)*D"
    assert main(["eval", text]) == 0
    assert capsys.readouterr().out.strip() == text


@pytest.mark.parametrize("argv", (
    ["eval", "D", "--bogus"],
    ["eval", "--bogus"],
    ["eval", "-D", "--bogus"],
    ["eval", "-D", "-t^(1)*D"],
    ["eval", "D", "-t^(1)*D"],
    ["eval"],
    ["suite", "jacobi", "-t^(1)*D"],
))
def test_unknown_flags_and_missing_expression_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, out", (
    (["suite", "lemma21"], "suite lemma21: PASS"),
    (["eval", "[t^(1)*D, t^(2)*D]"], "t^(3)*D"),
))
def test_unwritable_json_path_exits_2(argv, out, tmp_path, capsys):
    # before, the write raised FileNotFoundError and the CLI exited 1, the
    # code of a failed check
    path = tmp_path / "missing" / "r.json"
    assert main([*argv, "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith(out)
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert not path.exists()
