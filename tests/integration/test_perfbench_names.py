"""The program names the frozen benchmark in ``perfbench/`` reads.

``perfbench/`` is frozen, but it reads program names: ``layers.TARGETS``
(resolved when ``layers.py`` is imported) and, in ``run.py``, the
attributes of ``TapsStats`` (``st.``, ``sched.stats.``),
``HotPathCounters`` (``prof.``), ``EngineCounters`` (``ec.``),
``RunMetrics`` (``m.``) and ``TraceRecorder`` (``recorder.``).  A
program change that drops one of them breaks the benchmark, so these
tests resolve each name against the program.  They parse the benchmark's
source with :mod:`ast` and import nothing from it, so they write nothing
under ``perfbench/``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from repro.core.controller import TapsStats
from repro.metrics.summary import RunMetrics
from repro.obs.hotpath import HotPathCounters
from repro.sim.engine import EngineCounters
from repro.trace.recorder import TraceRecorder

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: ``run.py``'s local names and the program class each one holds
RUN_LOCALS = {
    "st": TapsStats,
    "prof": HotPathCounters,
    "ec": EngineCounters,
    "m": RunMetrics,
    "recorder": TraceRecorder,
}


def _parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _imported_names(tree: ast.Module) -> dict[str, object]:
    """Each ``repro`` name a module imports at top level, resolved here
    (``None`` when the program no longer has it)."""
    names: dict[str, object] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro") and alias.asname:
                    names[alias.asname] = importlib.import_module(alias.name)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("repro")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(
                    module, alias.name, None)
    return names


def test_layers_targets_resolve():
    tree = _parse("layers.py")
    names = _imported_names(tree)
    (targets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)]
        == ["TARGETS"]
    ]
    checked, missing = 0, []
    for entry in targets.elts:
        owner_node, attr_node, _span = entry.elts
        owner, attr = owner_node.id, attr_node.value
        checked += 1
        if not hasattr(names.get(owner), attr):
            missing.append(f"{owner}.{attr}")
    assert checked >= 6, "layers.TARGETS no longer parses as expected"
    assert not missing, f"layers.TARGETS names gone from the program: {missing}"


def _run_attribute_reads() -> set[tuple[str, str]]:
    """``(local, attribute)`` for every read of a :data:`RUN_LOCALS` name
    in ``run.py``; ``sched.stats.X`` counts as ``st.X``."""
    reads = set()
    for node in ast.walk(_parse("run.py")):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in RUN_LOCALS:
            reads.add((owner.id, node.attr))
        elif (isinstance(owner, ast.Attribute) and owner.attr == "stats"
              and isinstance(owner.value, ast.Name)
              and owner.value.id == "sched"):
            reads.add(("st", node.attr))
    return reads


def test_run_attribute_reads_resolve():
    reads = _run_attribute_reads()
    assert {local for local, _ in reads} == set(RUN_LOCALS), (
        "run.py no longer reads every counter object under its known name")
    assert {("recorder", "emitted"), ("recorder", "truncated"),
            ("prof", "union_cache_hits")} <= reads
    missing = sorted(
        f"{RUN_LOCALS[local].__name__}.{attr}"
        for local, attr in reads
        if not hasattr(RUN_LOCALS[local], attr)
    )
    assert not missing, f"perfbench/run.py reads names gone from the program: {missing}"
