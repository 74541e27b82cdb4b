"""Every name a ``synthstab`` module imports is used in that module,
and the package needs nothing at run time but numpy.

No linter ships with the project, so this parses the sources with
``ast`` instead.
"""

from __future__ import annotations

import ast
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "synthstab"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never reads.

    A name listed in ``__all__`` counts as read: the module re-exports it.
    """
    tree = ast.parse(source)
    imported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .affine import AffineParams, fit_similarity\n"
        "from . import dataset as ds\n"
        "__all__ = ['ds']\n"
        "def f(p: AffineParams):\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["fit_similarity", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# ---------------------------------------------------------------------------
# Dead top-level names
# ---------------------------------------------------------------------------

REPO = PACKAGE.parents[1]
SEARCHED = ("src", "tests", "perfbench", "tools")


def top_level_names(source: str) -> list[str]:
    """Functions, classes and constants a module defines at top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def referenced_names(source: str) -> set[str]:
    """Every name ``source`` reads, imports, looks up as an attribute, or
    spells as a whole string (as ``setattr`` and patch tables do)."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def dead_names(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.name`` for each top-level name of ``modules`` (file name
    to source) that no source in ``modules`` or ``others`` refers to."""
    referenced: set[str] = set()
    for source in [*modules.values(), *others]:
        referenced |= referenced_names(source)
    return sorted(
        f"{Path(name).stem}.{defined}"
        for name, source in modules.items()
        for defined in top_level_names(source)
        if defined not in referenced
    )


def test_checker_finds_dead_names():
    modules = {
        "a.py": "X = 1\nY = 2\n_Z = 3\ndef used():\n    return _Z\nclass Gone:\n    pass\n",
        "b.py": "from .a import X\ndef unused_here():\n    pass\n",
    }
    others = ["setattr(a, 'unused_here', None)\nprint(a.used)\n"]
    assert dead_names(modules, others) == ["a.Gone", "a.Y"]


def test_no_top_level_name_is_dead():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = [
        p.read_text(encoding="utf-8")
        for root in SEARCHED
        for p in sorted((REPO / root).rglob("*.py"))
        if p.parent != PACKAGE
    ]
    assert dead_names(modules, others) == []


# ---------------------------------------------------------------------------
# Run-time dependencies
# ---------------------------------------------------------------------------


def test_importing_the_cli_loads_no_scipy():
    code = (
        "import sys, synthstab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def test_numpy_is_the_only_runtime_dependency():
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["dev"])
