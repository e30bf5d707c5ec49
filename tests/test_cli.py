import io
import json
import contextlib
from pathlib import Path

import jsonschema
import pytest

from hahnseries.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "hahnseries" / "report_schema.json").read_text()
)

CASES = {
    "exp": ["--prec", "6", "exp", "t + t^2"],
    "log": ["--prec", "6", "log", "1 + t"],
    "pow": ["--prec", "5", "pow", "1 + t", "1/2"],
    "hensel": ["--prec", "6", "hensel", "y^2 - (1+t)", "--root", "1"],
    "puiseux": ["--prec", "6", "puiseux", "y^2 - y + t"],
    "ratrec": ["--prec", "12", "ratrec", "1/(1 - t)", "--deg-num", "0", "--deg-den", "1"],
    "vmin": ["--prec", "4", "vmin", "t^(-1/2) + 3"],
    "specialize": ["--prec", "6", "specialize", "a1^2*t + a2*t^2", "--var", "1", "--value", "3"],
    "splitneg": ["--prec", "5", "splitneg", "t^(-1) + 2 + 3*t"],
    "indep": ["--prec", "5", "indep", "t", "2*t"],
    "optapprox": ["--prec", "5", "optapprox", "t + t^2", "--basis", "t"],
    "inclexcl": ["--prec", "6", "inclexcl", "a1*a2*t", "--vars", "1,2"],
    "multinclexcl": ["--prec", "6", "multinclexcl", "1 + a1*t", "--vars", "1"],
    "skeleton": ["--prec", "5", "skeleton", "t", "a1*t", "t^2"],
    "tensor": ["--prec", "5", "tensor", "--basis", "t", "--coeff", "1", "--coeff", "a1",
               "--scalar-vars", "1"],
    "restexp": ["--prec", "6", "restexp", "--additive", "t", "--unit", "1 + t",
                "--apply", "2*t"],
    "chain": ["--prec", "5", "chain", "--stage", "|t", "--stage", "1|a1*t"],
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out = run_cli(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_mode_validates(name):
    code, out = run_cli(["--json"] + CASES[name])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["status"] == "ok"
    assert payload["command"] == name


def test_deterministic_output():
    argv = ["--seed", "7", "--prec", "6", "inclexcl", "a1*a2*t", "--vars", "1,2"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


def test_seed_changes_place_choice():
    base = run_cli(["--prec", "6", "inclexcl", "a1*a2*t", "--vars", "1,2"])[1]
    seeded = run_cli(["--seed", "3", "--prec", "6", "inclexcl", "a1*a2*t", "--vars", "1,2"])[1]
    assert base != seeded  # candidates are scanned in a different order


def test_seeded_contracts_still_hold():
    # place independence: the variable-containment contract holds per seed
    for seed in ("1", "2", "9"):
        code, out = run_cli(
            ["--json", "--seed", seed, "--prec", "6", "inclexcl", "a1*a2*t", "--vars", "1,2"]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert "a1" not in result["summands"]["10"]
        assert "a2" not in result["summands"]["01"]


def test_exit_code_parse_error():
    code, _ = run_cli(["--prec", "5", "exp", "t^^2"])
    assert code == 3


def test_exit_code_precondition():
    code, _ = run_cli(["--prec", "5", "exp", "1 + t"])  # v_min not positive
    assert code == 2
    code, _ = run_cli(["--prec", "5", "log", "2 + t"])  # not a 1-unit
    assert code == 2


def test_json_error_payload():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--json", "--prec", "5", "exp", "t^^2"])
    assert code == 3
    payload = json.loads(buf.getvalue())
    jsonschema.validate(payload, SCHEMA)
    assert payload["status"] == "error"
    assert payload["error"]["code"] == 3


def test_out_file(tmp_path):
    target = tmp_path / "result.txt"
    code, out = run_cli(["--prec", "4", "--out", str(target), "vmin", "0 + O(t^3)"])
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == ">= 3 (unknown)"


def test_rank2_session():
    code, out = run_cli(["--rank", "2", "--prec", "(4, 0)", "vmin", "t^(0, 1) + t^(1, 0)"])
    assert code == 0
    assert out.strip() == "(0, 1)"


def test_vmin_unknown_form():
    code, out = run_cli(["--prec", "3", "vmin", "0 + O(t^3)"])
    assert code == 0
    assert out.strip() == ">= 3 (unknown)"


def test_negative_fraction_positional():
    code, out = run_cli(["--prec", "5", "pow", "1 + t", "-1/3"])
    assert code == 0
    assert out.strip() == "1 - 1/3*t + 2/9*t^2 - 14/81*t^3 + 35/243*t^4 + O(t^5)"


def test_negative_fraction_option_value():
    argv = ["--prec", "6", "specialize", "a1^2*t + a2*t^2", "--var", "1", "--value", "-4/3"]
    code, out = run_cli(argv)
    assert code == 0
    assert out.strip() == "16/9*t + a2*t^2 + O(t^6)"


def test_expression_starting_with_minus():
    code, out = run_cli(["--prec", "5", "exp", "-t^2"])
    assert code == 0
    assert out.strip() == "1 - t^2 + 1/2*t^4 + O(t^5)"


def test_dash_tokens_that_stay_options(capsys):
    # help is still an option; an unknown --flag is still a usage error
    with pytest.raises(SystemExit) as help_exit:
        main(["exp", "-h"])
    assert help_exit.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hahnseries exp")
    with pytest.raises(SystemExit) as bad_exit:
        main(["exp", "--bogus", "t"])
    assert bad_exit.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


BAD_INPUTS = {
    "prec": ["--prec", "abc", "exp", "t"],
    "prec-tuple": ["--rank", "2", "--prec", "(4, x)", "exp", "t"],
    "pow-exponent": ["--prec", "5", "pow", "1 + t", "1/x"],
    "specialize-value": ["--prec", "5", "specialize", "a1*t", "--var", "1", "--value", "x"],
    "specialize-var": ["--prec", "5", "specialize", "a1*t", "--var", "0", "--value", "1"],
    "scalar-vars": ["--prec", "5", "indep", "t", "--scalar-vars", "1,x"],
    "small-scalar-vars": ["--prec", "5", "tensor", "--basis", "t", "--coeff", "1",
                          "--small-scalar-vars", "x"],
    "vars": ["--prec", "5", "inclexcl", "a1*t", "--vars", "1,x"],
    "vars-empty-item": ["--prec", "5", "multinclexcl", "1 + a1*t", "--vars", "1,"],
    "vars-index": ["--prec", "5", "inclexcl", "t", "--vars", "0"],
    "stage": ["--prec", "5", "chain", "--stage", "x|t"],
    "ratrec-deg-den": ["--prec", "5", "ratrec", "1/(1-t)", "--deg-num", "0", "--deg-den", "-3"],
    "ratrec-deg-num": ["--prec", "5", "ratrec", "1/(1-t)", "--deg-num", "-1", "--deg-den", "1"],
    "branches": ["--prec", "4", "puiseux", "y^2 - y + t", "--branches", "-1"],
    "prec-zero-den": ["--prec", "1/0", "exp", "t"],
    "specialize-value-zero-den": ["--prec", "4", "specialize", "a1*t", "--var", "1", "--value", "1/0"],
    "pow-exponent-zero-den": ["--prec", "4", "pow", "1+t", "1/0"],
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_option_values_exit_2(name):
    argv = BAD_INPUTS[name]
    code, _ = run_cli(argv)
    assert code == 2
    code, out = run_cli(["--json"] + argv)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["status"] == "error"
    assert payload["error"]["code"] == 2


def test_zero_denominator_option_values_name_the_option(capsys):
    for name, what in [
        ("prec-zero-den", "--prec"),
        ("specialize-value-zero-den", "--value"),
        ("pow-exponent-zero-den", "pow exponent"),
    ]:
        assert run_cli(BAD_INPUTS[name])[0] == 2
        assert capsys.readouterr().err == f"error: {what}: Fraction(1, 0)\n"


@pytest.mark.parametrize("text", ["t^(1/0)", "O(t^(1/0))"])
def test_zero_denominator_literal_exits_3(text, capsys):
    code, _ = run_cli(["--prec", "4", "exp", text])
    assert code == 3
    assert "zero denominator in a rational literal (line 1" in capsys.readouterr().err
    code, out = run_cli(["--json", "--prec", "4", "exp", text])
    assert code == 3
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["error"]["code"] == 3


def test_zero_branches_prints_no_branches():
    code, out = run_cli(["--prec", "4", "puiseux", "y^2 - y + t", "--branches", "0"])
    assert (code, out) == (0, "(no branches)\n")


def test_value_error_in_a_handler_propagates(monkeypatch):
    import hahnseries.analytic as analytic

    def broken(*_):
        raise ValueError("a bug, not a domain error")

    monkeypatch.setattr(analytic, "exp", broken)
    with pytest.raises(ValueError, match="a bug"):
        run_cli(["--prec", "5", "exp", "t"])

    def dividing(*_):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(analytic, "exp", dividing)
    assert run_cli(["--prec", "5", "exp", "t"])[0] == 2


def test_three_variable_multinclexcl_answers_in_time():
    # each coefficient of this unit has a trivial gcd in three variables; the
    # CLI used to stall in poly_gcd on it, so a hang fails here by timeout
    import os
    import subprocess
    import sys
    from math import prod

    from hahnseries.parsing import parse_expression
    from hahnseries.series import TruncatedSeries

    src = Path(__file__).parent.parent / "src"
    argv = ["--json", "--prec", "5", "multinclexcl", "1 - 1/(3*a1*a2*a3)*t", "--vars", "1,2,3"]
    done = subprocess.run(
        [sys.executable, "-m", "hahnseries.cli", *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)["result"]
    assert sorted(result["summands"]) == [format(k, "03b") for k in range(1, 8)]
    h = parse_expression(result["h"], default_prec=5)
    summands = [parse_expression(s, default_prec=5) for s in result["summands"].values()]
    assert (h * prod(summands)).agrees_with(TruncatedSeries.one(5))
    assert len(h.terms) == 5


def test_independent_family():
    argv = ["--prec", "5", "indep", "t", "t^2"]
    assert run_cli(argv) == (0, "independent\n")
    code, out = run_cli(["--json"] + argv)
    assert code == 0
    assert json.loads(out)["result"] == {"independent": True, "witness": None, "value": None}


def test_ratrec_without_a_solution():
    argv = ["--prec", "5", "ratrec", "1 + t", "--deg-num", "0", "--deg-den", "0"]
    assert run_cli(argv) == (0, "none\n")
    code, out = run_cli(["--json"] + argv)
    assert code == 0
    assert json.loads(out)["result"] == {"found": False, "num": None, "den": None}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["vmin", "y"], "expected a series, got a polynomial in y"),
        (["puiseux", "3"], "expected a polynomial in y"),
        (["tensor", "--basis", "t", "--coeff", "t"], "expected a coefficient expression"),
    ],
)
def test_wrong_kind_of_expression_exits_3(argv, message, capsys):
    assert run_cli(argv) == (3, "")
    assert capsys.readouterr().err.startswith(f"parse error: {message} (line 1")
    code, out = run_cli(["--json"] + argv)
    assert code == 3
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["command"] == argv[0]
    assert payload["error"]["code"] == 3
    assert payload["error"]["message"].startswith(message)


def test_scalar_precision_is_padded_at_higher_rank():
    code, out = run_cli(["--rank", "2", "--prec", "3", "exp", "t"])
    assert (code, out) == (0, "1 + t^(1, 0) + 1/2*t^(2, 0) + O(t^(3, 0))\n")


def test_json_error_payload_goes_to_the_out_file(tmp_path):
    target = tmp_path / "result.json"
    assert run_cli(["--json", "--out", str(target), "vmin", "y"]) == (3, "")
    payload = json.loads(target.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["command"] == "vmin"
    assert payload["error"]["code"] == 3


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "result.txt"
    argv = ["--out", str(target), "--prec", "4", "vmin", "t"]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err.startswith("error: --out: ")
    code, out = run_cli(["--json"] + argv)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["command"] == "vmin"
    assert payload["error"]["code"] == 2
    assert payload["error"]["message"].startswith("--out: ")
    assert not target.parent.exists()


def test_out_is_closed_when_a_handler_raises(tmp_path, monkeypatch):
    import hahnseries.analytic as analytic
    import hahnseries.cli as cli

    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    def broken(*_):
        raise ValueError("a bug, not a domain error")

    target = tmp_path / "result.txt"
    target.write_bytes(b"kept\n")
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    monkeypatch.setattr(analytic, "exp", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["--out", str(target), "--prec", "5", "exp", "t"])
    # a text-mode error is not written to --out, so the file is not opened
    assert main(["--out", str(target), "vmin", "y"]) == 3
    assert opened == [] and target.read_bytes() == b"kept\n"
    # success and a --json error are written there, and the file is closed
    for argv in (["vmin", "t"], ["--json", "vmin", "y"]):
        main(["--out", str(target)] + argv)
    assert len(opened) == 2 and all(f.closed for f in opened)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--prec", "6", "puiseux",
          "(y - t)^2*(y - t^2)*(y - t^3)*(y - 2*t^3)*(y - 1)*(y - 2)"], 2, "not squarefree"),
        (["--prec", "5", "puiseux", "O(t^2)*y^2 + y + 1"], 2, "leading coefficient is zero"),
        (["--prec", "5", "puiseux", "0*y^2 + y + 1"], 2, "leading coefficient is zero"),
        (["--prec", "5", "vmin", "t^²"], 3, "unexpected character '²'"),
    ],
)
def test_edge_inputs_are_refused(argv, code, message, capsys):
    assert run_cli(argv) == (code, "")
    assert message in capsys.readouterr().err


def test_hensel_sees_a_leading_coefficient_zero_at_precision():
    argv = ["--prec", "5", "hensel", "O(t^2)*y^2 + y + 1", "--root", "-1"]
    assert run_cli(argv) == (0, "-1 + O(t^2)\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["indep", "a1*t", "t", "--scalar-vars", "0"], "variable indices start at 1"),
        (["indep", "a1*t", "t", "--scalar-vars", "1,-1"], "variable indices start at 1"),
        (["tensor", "--basis", "t", "--coeff", "1", "--coeff", "a1", "--scalar-vars", "1",
          "--small-scalar-vars", "0"], "variable indices start at 1"),
        (["--rank", "0", "vmin", "t"], "--rank must be a positive integer"),
        (["--rank", "-1", "vmin", "t"], "--rank must be a positive integer"),
        (["inclexcl", "a1*a2*t", "--vars", "1,2,1"], "variable a1 is listed more than once"),
        (["multinclexcl", "1 + a1*t", "--vars", "1,1"], "variable a1 is listed more than once"),
    ],
)
def test_bad_indices_ranks_and_repeated_vars_exit_2(argv, message, capsys):
    argv = ["--prec", "5"] + argv
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    code, out = run_cli(["--json"] + argv)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["error"] == {"code": 2, "message": message}
