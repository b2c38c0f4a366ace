"""Every library module is reached from a real entry point, and every
pipeline config field is read by one.

Builds the static import closure (AST only) from the pipelines, the
scripts, the gate driver and both benchmarks, and asserts that each
module under ``fetch_engines_ray/`` is in it.  A module that only tests
import is dead surface: delete it, or wire it into an entry point.  The
same closure must read every ``PipelineConfig`` field: a knob no code
reads is dead surface too.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "fetch_engines_ray"

# Library modules kept on purpose although no entry point imports them.
ALLOWLIST = {
    "stages.llm_backend": "library HTTP backend for structured_extract (reference A9 slot)",
    "state.metrics": "reference getMetrics analog, to be replaced by the run report",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_files() -> dict[str, Path]:
    files = {_module_name(p): p for p in (ROOT / PKG).rglob("*.py")}
    files.update({_module_name(p): p for p in (ROOT / "perfbench").glob("*.py")})
    for p in list((ROOT / "scripts").glob("*.py")) + [ROOT / "__ray_entry__.py", ROOT / "bench.py"]:
        files[_module_name(p)] = p
    return files


def _entry_points(files: dict[str, Path]) -> list[str]:
    return [
        name
        for name in files
        if name.startswith((f"{PKG}.pipelines.", "scripts.", "perfbench."))
        or name in ("__ray_entry__", "bench", "perfbench")
    ]


def _imports(name: str, path: Path, files: dict[str, Path]) -> set[str]:
    """Modules ``path`` imports anywhere in its body (function-local too)."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            # ``from pkg import mod`` reaches pkg.mod when it is a module.
            found.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for mod in found:
        parts = mod.split(".")
        # Importing a.b.c runs a/__init__ and a/b/__init__ as well.
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return {m for m in reached if m in files}


def reached_modules() -> set[str]:
    files = _module_files()
    seen: set[str] = set()
    todo = _entry_points(files)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(_imports(name, files[name], files) - seen)
    return seen


def test_every_library_module_is_reached():
    library = {n[len(PKG) + 1 :] for n in _module_files() if n.startswith(PKG + ".")}
    reached = {n[len(PKG) + 1 :] for n in reached_modules() if n.startswith(PKG + ".")}
    unreached = library - reached
    assert unreached == set(ALLOWLIST), (
        f"modules no entry point reaches: {sorted(unreached - set(ALLOWLIST))}; "
        f"stale allowlist entries: {sorted(set(ALLOWLIST) - unreached)}"
    )


def test_closure_resolves_relative_and_local_imports():
    reached = reached_modules()
    # pipelines.search imports ops.ann_index inside a function, relatively.
    assert f"{PKG}.ops.ann_index" in reached
    # perfbench.layers: ``from .spans import Tracer``.
    assert "perfbench.spans" in reached
    # ``from fetch_engines_ray.functions import converter`` names a module.
    assert f"{PKG}.functions.converter" in reached


def test_every_pipeline_config_field_is_read():
    from fetch_engines_ray.pipelines.extract import PipelineConfig

    files = _module_files()
    read: set[str] = set()
    for name in reached_modules():
        for node in ast.walk(ast.parse(files[name].read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {f.name for f in dataclasses.fields(PipelineConfig)} - read
    assert not unread, f"PipelineConfig fields no entry-point code reads: {sorted(unread)}"
