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
