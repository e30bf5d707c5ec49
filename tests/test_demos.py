"""The demo scripts run to completion against the current API."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, marker",
    [
        ("approximation_demo.py", "matches exp: True"),
        ("lift_and_expand_demo.py", "[matches lift, residual >= 12 (unknown)]"),
    ],
)
def test_demo_runs(name, marker, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert marker in capsys.readouterr().out
