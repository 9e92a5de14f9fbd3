"""What the benchmark under ``perfbench/`` uses of the library still exists.

The benchmark is kept apart from the library and changes separately, so a
deletion in ``src/`` could break it unnoticed.  Its sources are read with
``ast`` and nothing under ``perfbench/`` is imported or run.  The ``ast``
check sees only imports and module attributes, so the attributes the
benchmark reads off library results are pinned by calling the library.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

from knotoid_casson import (
    build_planar_map,
    dual_arc,
    enumerate_moves,
    full_report,
    generate_family,
    iter_walk,
    verify_skein,
)
from knotoid_casson.homology import Subgroup
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


def test_the_attributes_the_benchmark_reads_off_results_exist():
    codes = [*named_fixtures().values(), generate_family(3)]
    for code in codes:
        assert isinstance(code.n_crossings, int) and len(code.word) == 2 * code.n_crossings
        assert isinstance(code.labels, tuple) and len(code.labels) == code.n_crossings
        report = full_report(code, "row")
        assert list(report.to_json_dict()) == [
            "name", "c_plus", "c_minus", "ch_plus", "ch_minus", "norm_sum",
            "crossing_lower_bound", "properness", "diagram_crossings",
        ]
        # the worker counts distinct subgroups by iterating each refinement as pairs
        for subgroup, coefficient in (*report.ch_plus, *report.ch_minus):
            assert isinstance(subgroup, Subgroup) and isinstance(coefficient, int)
        skein = verify_skein(code, code.labels[0]).as_dict()
        assert {"lhs_plus", "rhs_plus", "lhs_minus", "rhs_minus", "ok"} <= skein.keys()
        assert skein["ok"] is True
        moves = enumerate_moves(code) + [move for move, _ in iter_walk(code, 5, 0)]
        assert moves
        for move in moves:
            assert isinstance(move.kind, str)
            assert isinstance(move.gaps, tuple) and isinstance(move.positions, tuple)
    assert any(report.ch_plus for report in map(full_report, codes))
