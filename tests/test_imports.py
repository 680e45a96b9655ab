"""Every imported name is used: a stdlib ``ast`` scan of the package and the tests.

A name counts as used when it is read anywhere in its module, as a bare
name or as the root of an attribute chain.  Package ``__init__`` modules
are skipped, since their imports are the public re-exports.  The same kind
of scan checks that every ``int.to_bytes``/``int.from_bytes`` call in the
package names its byteorder, which Python 3.10 still requires.  The
package-import scan bounds what ``parsing`` and ``report`` import; for
``report`` it skips the ``if TYPE_CHECKING:`` block, which never runs.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "tarski_lab", ROOT / "tests")
    for path in folder.rglob("*.py")
    if path.name != "__init__.py"
)
SOURCES = sorted((ROOT / "src" / "tarski_lab").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def calls_without_byteorder(source: str) -> list[int]:
    """Line numbers of ``to_bytes``/``from_bytes`` calls that pass no byteorder."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("to_bytes", "from_bytes")
        and len(node.args) < 2
        and not any(keyword.arg == "byteorder" for keyword in node.keywords)
    ]


def package_imports(source: str) -> set[str]:
    """The ``tarski_lab`` modules ``source`` imports, relatively or by full name."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = f"tarski_lab.{node.module or ''}" if node.level else node.module
            package = module.rstrip(".") == "tarski_lab"
            names = [f"tarski_lab.{alias.name}" for alias in node.names] if package else [module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("tarski_lab."))
    return found


def runtime_package_imports(source: str) -> set[str]:
    """``package_imports`` of ``source`` outside its ``if TYPE_CHECKING:`` blocks."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            node.body = [ast.Pass()]
    return package_imports(ast.unparse(tree))


def test_the_import_scan_sees_every_form():
    source = (
        "from .sets import a\nfrom . import words\nfrom tarski_lab.algebra import b\n"
        "from tarski_lab import report\nimport tarski_lab.cli\nimport re\nfrom os import path\n"
    )
    assert package_imports(source) == {"sets", "words", "algebra", "report", "cli"}


def test_parsing_imports_only_sets_and_operators():
    source = (ROOT / "src" / "tarski_lab" / "parsing.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"sets", "operators"}


def test_the_runtime_scan_skips_type_checking_blocks():
    source = (
        "from typing import TYPE_CHECKING\nfrom .sets import a\nif TYPE_CHECKING:\n"
        "    from .classify import b\nelse:\n    from .words import c\n"
        "def f():\n    from .algebra import d\n"
    )
    assert runtime_package_imports(source) == {"sets", "words", "algebra"}


def test_report_imports_only_sets_at_run_time():
    source = (ROOT / "src" / "tarski_lab" / "report.py").read_text(encoding="utf-8")
    assert runtime_package_imports(source) <= {"sets"}


def test_the_scan_sees_an_unused_name():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\nprint(sys, e.f, x.y)\n"
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_byteorder_scan_sees_a_missing_byteorder():
    source = (
        "x.to_bytes(2, 'little')\nint.from_bytes(b, byteorder='big')\n"
        "x.to_bytes(2)\nint.from_bytes(b)\nx.to_bytes(length=2, signed=True)\n"
    )
    assert calls_without_byteorder(source) == [3, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_byte_conversion_names_its_byteorder(path):
    assert calls_without_byteorder(path.read_text(encoding="utf-8")) == []
