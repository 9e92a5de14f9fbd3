"""The runtime imports nothing outside the standard library and the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import knotoid_casson

PACKAGE = Path(knotoid_casson.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"knotoid_casson"}


def imported_top_level_modules(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside the package
            names.add("knotoid_casson" if node.level else node.module.split(".")[0])
    return names


def test_every_module_imports_only_stdlib_and_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        foreign = imported_top_level_modules(tree) - ALLOWED
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_check_sees_a_foreign_import():
    tree = ast.parse(
        "import os\nfrom numpy import array\nfrom . import codes\nimport hypothesis.strategies\n"
    )
    assert imported_top_level_modules(tree) == {"os", "numpy", "knotoid_casson", "hypothesis"}


def modules_added_by_import(*flags: str) -> set[str]:
    """The top-level modules that ``import knotoid_casson`` adds to a fresh
    interpreter started with ``flags``."""
    probe = (
        "import sys; before = set(sys.modules); import knotoid_casson; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    added = subprocess.run([sys.executable, *flags, "-c", probe], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    return {name.split(".")[0] for name in added}


def test_import_adds_neither_dataclasses_nor_json():
    # measured against the modules a bare interpreter of this Python already holds
    added = modules_added_by_import()
    assert "knotoid_casson" in added
    assert not added & {"dataclasses", "json"}


def test_import_without_site_adds_no_typing():
    # -S: a .pth file that site runs may load typing first, which would hide an import of it
    added = modules_added_by_import("-S")
    assert "knotoid_casson" in added
    assert not added & {"typing", "dataclasses", "json"}
