"""The start-up shape: a process imports only the modules its work reaches.

Each import check runs a fresh interpreter with ``PYTHONPATH=src`` and
reads its ``sys.modules`` once it has run; ``-S`` keeps the modules that
site-packages hooks import out of the list.  The records that
replaced frozen dataclasses (``Place``, ``GroupSpec``, ``AtLeast``) are
checked against dataclass twins with the old definitions.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import hahnseries
from hahnseries.coeffs import Place
from hahnseries.errors import PreconditionError
from hahnseries.exponents import Exponent, GroupSpec, as_exponent
from hahnseries.series import AtLeast
from test_cli import CASES

SRC = Path(__file__).resolve().parent.parent / "src"


def imported(statement):
    """The modules a fresh interpreter has loaded once it has run ``statement``.

    ``-X importtime`` would not do: it does not log a module loaded by
    ``importlib.import_module``, which is how the package loads a layer.
    """
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys\n{statement}\nprint(*sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


def cli_main(argv):
    """A statement that runs the CLI on ``argv`` and checks that it succeeds."""
    return f"import hahnseries.cli\nassert hahnseries.cli.main({argv!r}) == 0"


def ours(modules):
    return {m for m in modules if m == "hahnseries" or m.startswith("hahnseries.")}


def test_importing_the_package_loads_no_submodule():
    assert ours(imported("import hahnseries")) == {"hahnseries"}


def test_importing_the_cli_loads_only_the_errors():
    modules = ours(imported("import hahnseries.cli"))
    assert modules == {"hahnseries", "hahnseries.cli", "hahnseries.errors"}


def test_an_exported_name_loads_its_submodule():
    modules = ours(imported("import hahnseries\nhahnseries.BasisFamily"))
    assert "hahnseries.valuation_spaces" in modules


def test_exp_loads_no_valuation_spaces_and_no_dataclasses():
    modules = imported(cli_main(["--prec", "5", "exp", "t"]))
    assert "hahnseries.analytic" in modules
    assert "hahnseries.valuation_spaces" not in modules
    assert "dataclasses" not in modules


# the other series subcommands, each with the layer it runs
SERIES_COMMANDS = {
    "log": "analytic",
    "pow": "analytic",
    "hensel": "analytic",
    "puiseux": "analytic",
    "ratrec": "analytic",
    "vmin": "series",
    "specialize": "series",
    "splitneg": "series",
}


@pytest.mark.parametrize("name", sorted(SERIES_COMMANDS))
def test_series_subcommands_load_no_valuation_spaces_and_no_dataclasses(name):
    modules = imported(cli_main(CASES[name]))
    assert f"hahnseries.{SERIES_COMMANDS[name]}" in modules
    assert "hahnseries.valuation_spaces" not in modules
    assert "dataclasses" not in modules


def test_every_exported_name_is_its_submodules_object():
    assert "analytic" not in hahnseries.__all__
    listed = dir(hahnseries)
    for name in hahnseries.__all__:
        value = getattr(hahnseries, name)
        assert getattr(import_module(value.__module__), name) is value, name
        assert name in listed, name
    namespace = {}
    exec("from hahnseries import *", namespace)
    assert set(hahnseries.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        hahnseries.nonexistent
    from hahnseries import analytic  # a submodule, not an export

    assert analytic.exp is hahnseries.exp


# -- records against frozen dataclass twins with the old definitions


@dataclasses.dataclass(frozen=True)
class PlaceTwin:
    var: int
    q: Fraction

    def __post_init__(self):
        if self.var < 1:
            raise PreconditionError("variable indices start at 1")
        if not isinstance(self.q, Fraction):
            object.__setattr__(self, "q", Fraction(self.q))


@dataclasses.dataclass(frozen=True)
class GroupSpecTwin:
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("rank must be a positive integer")


@dataclasses.dataclass(frozen=True)
class AtLeastTwin:
    bound: Exponent


PlaceTwin.__qualname__ = "Place"
GroupSpecTwin.__qualname__ = "GroupSpec"
AtLeastTwin.__qualname__ = "AtLeast"

E = as_exponent

# (record, twin, argument tuples with some equal pairs)
RECORDS = [
    (Place, PlaceTwin, [(1, 2), (1, Fraction(2)), (1, Fraction(-1, 3)), (2, 2)]),
    (GroupSpec, GroupSpecTwin, [(), (1,), (2,), (3,)]),
    (AtLeast, AtLeastTwin, [(E(1),), (E(1),), (E(Fraction(1, 2)),), (E((1, 0)),)]),
]


@pytest.mark.parametrize("record, twin, arg_sets", RECORDS)
def test_records_compare_hash_and_print_as_the_dataclasses(record, twin, arg_sets):
    for a in arg_sets:
        r, t = record(*a), twin(*a)
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        assert r != t and t != r and not r == t
        assert r.__eq__(t) is NotImplemented
        assert r != a
        for b in arg_sets:
            assert (r == record(*b)) == (t == twin(*b))
            assert (r != record(*b)) == (t != twin(*b))
        assert copy.copy(r) == r and pickle.loads(pickle.dumps(r)) == r


@pytest.mark.parametrize("record, twin, arg_sets", RECORDS)
def test_records_refuse_assignment(record, twin, arg_sets):
    r, t = record(*arg_sets[-1]), twin(*arg_sets[-1])
    field = dataclasses.fields(t)[0].name
    for change in (
        lambda obj: setattr(obj, field, 5),
        lambda obj: delattr(obj, field),
        lambda obj: setattr(obj, "extra", 5),
    ):
        with pytest.raises(AttributeError) as got:
            change(r)
        with pytest.raises(AttributeError) as want:
            change(t)
        assert str(got.value) == str(want.value)
    assert r == record(*arg_sets[-1])


def test_records_take_the_dataclass_arguments():
    assert repr(Place(var=1, q=2)) == "Place(var=1, q=Fraction(2, 1))"
    assert type(Place(1, 2).q) is Fraction
    assert GroupSpec() == GroupSpec(k=1) and GroupSpec(2).k == 2
    assert AtLeast(bound=E(1)).bound == E(1)
    with pytest.raises(TypeError):
        AtLeast(E(1), E(2))


@pytest.mark.parametrize(
    "record, twin, args, error",
    [
        (Place, PlaceTwin, (0, 1), PreconditionError),
        (Place, PlaceTwin, (-2, 1), PreconditionError),
        (GroupSpec, GroupSpecTwin, (0,), ValueError),
    ],
)
def test_records_validate_as_the_dataclasses(record, twin, args, error):
    with pytest.raises(error) as got:
        record(*args)
    with pytest.raises(error) as want:
        twin(*args)
    assert str(got.value) == str(want.value)
