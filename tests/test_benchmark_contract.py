"""What the benchmark under ``perfbench/`` uses of the library still exists.

The benchmark is kept apart from the library and changes separately, so a
deletion in ``src/`` could break it unnoticed.  Its sources are read with
``ast`` and nothing under ``perfbench/`` is imported or run.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

from knotoid_casson import build_planar_map, dual_arc, generate_family
from knotoid_casson.planar import LEFT_TO_RIGHT, RIGHT_TO_LEFT
from support import named_fixtures

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def library_uses(path: Path) -> list[tuple[str, object, str]]:
    """(what, object, name) for every name a file imports from the library,
    and every attribute it reads off a library module it imported by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses: list[tuple[str, object, str]] = []
    modules: dict[str, ModuleType] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "knotoid_casson":
            source = importlib.import_module(node.module)
            for alias in node.names:
                uses.append((node.module, source, alias.name))
                value = getattr(source, alias.name, None)
                if isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                module = modules[node.value.id]
                uses.append((module.__name__, module, node.attr))
    return uses


def test_every_library_name_the_benchmark_uses_exists():
    sources = sorted(PERFBENCH.rglob("*.py"))
    uses = {path.relative_to(PERFBENCH).as_posix(): library_uses(path) for path in sources}
    worker_names = {name for _, _, name in uses["worker.py"]}
    # the worker's layer map: a later edit of it shows up here
    assert {"full_report", "dual_arc", "build_planar_map", "all_loop_classes", "skew_pairs"} <= worker_names
    missing = [
        f"{file}: {what}.{name}"
        for file, found in uses.items()
        for what, source, name in found
        if not hasattr(source, name)
    ]
    assert missing == []


def test_dual_arc_steps_are_edge_direction_pairs():
    codes = [*named_fixtures().values(), *(generate_family(j) for j in (1, 2, 8))]
    for code in codes:
        pmap = build_planar_map(code)
        assert isinstance(pmap.num_faces, int)
        steps = dual_arc(pmap).steps
        assert isinstance(steps, tuple)
        for step in steps:
            edge, direction = step
            assert (step.edge, step.direction) == (edge, direction)
            assert isinstance(edge, int) and 0 <= edge <= len(code.word)
            assert direction in (RIGHT_TO_LEFT, LEFT_TO_RIGHT)
    assert any(dual_arc(build_planar_map(code)).steps for code in codes)
