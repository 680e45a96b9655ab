"""What a fresh interpreter loads: the lazy package surface and the per-command CLI.

``import tarski_lab`` loads no submodule, each CLI command loads only
the package modules it runs, and none loads click, ``inspect`` or
``dataclasses``.  Every case runs in its own interpreter, since this test
process has long loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# ``tarski_lab.__all__`` as the eager package defined it.
PUBLIC = [
    "AxiomReport", "CPrime", "ChainResult", "ClosureSystem", "Comparison",
    "ComplementResult", "Compose", "ConcurrenceResult", "CoverResult", "Cxy",
    "FromSystem", "FromTable", "Identity", "Meet", "Mode", "ModeError", "NaiveJoin",
    "OperatorConstraintError", "OperatorExpr", "Polarity", "SExample", "SentenceSet",
    "SublatticeReport", "Top", "Universe",
    "UniverseMismatchError", "Verdict", "WeakJoin", "algebra", "check_axioms",
    "classify", "concurrence", "default_universe", "dense_cover_check",
    "descending_chain", "e0_family", "enumerate_operators", "equivalent", "evaluate",
    "is_atom", "is_chain", "is_concurrent", "le", "lemma26_witness", "make_universe",
    "monotone_union_check", "operators", "relative_complement", "sets",
    "sublattice_report", "to_closure_system", "words",
]
SUBMODULES = ["algebra", "classify", "concurrence", "operators", "sets", "words"]

LOADED = "sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('tarski_lab.'))"


def fresh(code: str, stdin: str = ""):
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env={**os.environ, "PYTHONPATH": path},
        input=stdin,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def cli_loads(argv: list[str], stdin: str = "") -> set[str]:
    """The package modules loaded by running the CLI on ``argv``, which must exit 0."""
    code, loaded = fresh(
        f"import tarski_lab.cli\ncode = tarski_lab.cli.run({argv!r})\nprint(json.dumps([code, {LOADED}]))",
        stdin,
    )
    assert code == 0
    return set(loaded)


def test_importing_the_package_loads_no_submodule():
    assert fresh(f"import tarski_lab\nprint(json.dumps({LOADED}))") == []


def test_importing_the_cli_loads_only_the_cli():
    assert fresh(f"import tarski_lab.cli\nprint(json.dumps({LOADED}))") == ["cli"]


# What a command loads: the modules it runs and nothing else.
COMMAND_LOADS = [
    (["--help"], {"cli"}),
    (["words", "--alphabet", "ab", "encode", "abba"], {"cli", "report", "sets", "words"}),
    (["check", "--universe", "a,b", "cxy {a} {b}"], {"cli", "sets", "operators", "parsing", "classify", "report"}),
    (["order", "--universe", "a,b", "I", "U"], {"cli", "sets", "operators", "parsing", "algebra", "report"}),
    (["theories", "--universe", "a,b", "system[{a};L]"], {"cli", "sets", "operators", "parsing", "report"}),
    (["concurrent", "-"], {"cli", "concurrence", "sets", "report"}),
]


@pytest.mark.parametrize("argv, loaded", COMMAND_LOADS, ids=[" ".join(argv) for argv, _ in COMMAND_LOADS])
def test_a_command_loads_only_what_it_runs(argv, loaded):
    assert cli_loads(argv, stdin="0 1\n") == loaded


# The front end loads no click, so nothing pulls in ``inspect`` or
# ``dataclasses`` either: not the commands above, not the longest cli-cold
# command, not a usage error with its suggestion.
NOT_LOADED = ["click", "inspect", "dataclasses"]
RUNS = [(argv, 0) for argv, _ in COMMAND_LOADS] + [(["enumerate", "--n", "4"], 0), (["check", "--jsn"], 2)]


@pytest.mark.parametrize("argv, code", RUNS, ids=[" ".join(argv) for argv, _ in RUNS])
def test_a_command_loads_dataclasses_only_through_click(argv, code):
    assert fresh(
        f"import tarski_lab.cli\ncode = tarski_lab.cli.run({argv!r})\n"
        f"print(json.dumps([code, [m for m in {NOT_LOADED!r} if m in sys.modules]]))",
        stdin="0 1\n",
    ) == [code, []]


def test_the_module_runs_as_main_without_click():
    golden = json.loads((Path(__file__).parent / "golden" / "cli-commands.json").read_text())
    argv = ["check", "--universe", "a,b,c", "cxy {a} {b}", "--json"]
    expected = next(case["stdout"] for case in golden if case["argv"] == argv)
    code = (
        "import runpy, sys\n"
        "sys.modules['click'] = None\n"
        f"sys.argv = ['tarski-lab', *{argv!r}]\n"
        "runpy.run_module('tarski_lab.cli', run_name='__main__', alter_sys=True)"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


@pytest.fixture(scope="module")
def surface():
    """The package surface as a fresh interpreter sees it, names read lazily."""
    return fresh(
        f"""
import types
import tarski_lab
listed = dir(tarski_lab)
objects = {{name: getattr(tarski_lab, name) for name in {PUBLIC!r}}}
modules = {{name: obj.__name__ for name, obj in objects.items() if isinstance(obj, types.ModuleType)}}
defined = [
    name for name, obj in objects.items()
    if name not in modules
    and obj.__module__.startswith("tarski_lab.")
    and obj.__qualname__ == name
    and getattr(sys.modules[obj.__module__], name) is obj
]
try:
    tarski_lab.no_such_name
    unknown = None
except AttributeError as error:
    unknown = str(error)
print(json.dumps({{
    "all": tarski_lab.__all__, "dir": listed, "modules": modules, "defined": defined, "unknown": unknown,
}}))
"""
    )


def test_all_is_unchanged(surface):
    assert surface["all"] == PUBLIC


def test_every_name_is_the_object_its_module_defines(surface):
    assert surface["defined"] == [name for name in PUBLIC if name not in SUBMODULES]


def test_the_submodules_resolve_as_attributes(surface):
    assert surface["modules"] == {name: f"tarski_lab.{name}" for name in SUBMODULES}


def test_dir_lists_every_public_name(surface):
    assert set(PUBLIC) <= set(surface["dir"])


def test_an_unknown_name_raises_attribute_error(surface):
    assert surface["unknown"] == "module 'tarski_lab' has no attribute 'no_such_name'"
