"""Every library module and every top-level def or class is reached from
a real entry point, and every pipeline config field is read by one.

The entry points are ``scripts/*``, ``perfbench/*``, the gate driver
``__ray_entry__.py``, ``bench.py`` and the re-exports in
``fetch_engines_ray/__init__.py``.  From them the test builds a static
closure (AST only):

- a module is reached when reached code imports it (function-local and
  relative imports count);
- a top-level def or class under ``fetch_engines_ray/`` is reached when
  reached code names it: as a ``Name`` in its own module, as an import
  alias, or as ``module.attr`` through a name bound to its module;
- reached code is an entry point, the module-level code of a reached
  module, or the body of a reached def.

The closure iterates until nothing changes.  What only tests reach is
dead surface: delete it, or wire it into an entry point.  The
allowlists below name what is kept on purpose, each with its reason;
what an allowlisted entry uses counts as reached.  Both allowlists must
equal the unreached sets exactly, so a stale entry fails too.  The same
closure must read every ``PipelineConfig`` field: a knob no code reads
is dead surface as well.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "fetch_engines_ray"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Library modules kept on purpose although no entry point imports them.
ALLOWLIST = {
    "stages.llm_backend": "library HTTP backend for structured_extract (reference A9 slot)",
    "state.metrics": "reference getMetrics analog, to be replaced by the run report",
}

# Top-level defs kept on purpose although no entry point names them; a
# module on ALLOWLIST stands for every def in it.
FUNCTION_ALLOWLIST = {
    **ALLOWLIST,
    # test oracles of live code
    "ops.backoff_lm.backoff_reference": "oracle of train_backoff_lm/score in tests/test_backoff_lm.py",
    "ops.clustering.kmeans_fit_reference": "oracle of kmeans_fit in tests/test_clustering.py",
    "ops.dsir.dsir_reference": "oracle of the DSIR resample in tests/test_dsir.py",
    "ops.graph.pagerank": "oracle of pagerank_distributed in tests/test_graph.py",
    "ops.graph.pagerank_reference": "oracle of pagerank in tests/test_graph.py",
    "ops.lm.perplexity_reference": "oracle of the LM perplexity in tests/test_lm.py",
    "ops.semdedup.semdedup_reference": "oracle of the SemDeDup resolver in tests/test_semdedup.py",
    # decoders and readers of live encoders and writers
    "ops.bpe.decode_pieces": "inverse of bpe_encode, round-trip check in tests/test_bpe.py",
    "ops.bpe.load_merges": "reader of the save_merges artifact in tests/test_bpe.py",
    "ops.unigram_tok.load_model": "reader of the save_model artifact in tests/test_unigram_tok.py",
    "ops.png.decode_png_header": "header reader of encode_png output in tests/test_png.py",
    "ops.binshard.read_token_shards": "round-trip reader of the token shards in tests/test_binshard.py",
    "ops.jsonl_sink.read_jsonl_shards": "round-trip reader of the JSONL shards in tests/test_jsonl_sink.py",
    # the paper's doc_id range-partitioning design, for byte-based part sizing
    "ops.partitioning.size_aware_repartition": "byte-sized partitioning, to be reused by part sizing",
    "ops.partitioning.range_partition_by_doc_id": "doc_id range partitioning, to be reused by part sizing",
    "ops.partitioning.add_doc_bytes": "per-doc byte sizes, to be reused by part sizing",
}


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_files(root: Path) -> dict[str, Path]:
    paths = list((root / PKG).rglob("*.py")) + list((root / "perfbench").glob("*.py"))
    paths += list((root / "scripts").glob("*.py"))
    paths += [p for p in (root / "__ray_entry__.py", root / "bench.py") if p.exists()]
    return {_module_name(p, root): p for p in paths}


def _entry_points(names) -> list[str]:
    return [
        n
        for n in names
        if n.startswith(("scripts.", "perfbench.")) or n in ("__ray_entry__", "bench", "perfbench", PKG)
    ]


class _Module:
    """One parsed file: its top-level defs and the names its imports bind."""

    def __init__(self, name: str, path: Path):
        self.name = name
        self.package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        self.tree = ast.parse(path.read_text(), str(path))
        self.defs = {n.name: n for n in self.tree.body if isinstance(n, DEFS)}
        self.bound: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.bound[alias.asname or target] = target
            elif isinstance(node, ast.ImportFrom):
                base = self.absolute(node)
                for alias in node.names:
                    self.bound[alias.asname or alias.name] = f"{base}.{alias.name}"

    def absolute(self, node: ast.ImportFrom) -> str:
        base = node.module or ""
        if node.level:
            anchor = self.package.split(".")[: len(self.package.split(".")) - node.level + 1]
            base = ".".join(anchor + ([base] if base else []))
        return base


def _resolve(dotted: str, mods: dict[str, _Module]) -> set[str]:
    """The modules and the def that a dotted reference reaches: importing
    ``a.b.c`` runs ``a`` and ``a.b`` too, and ``a.b.fn`` names a def."""
    parts = dotted.split(".")
    found = set()
    for i in range(1, len(parts) + 1):
        prefix = ".".join(parts[:i])
        if prefix in mods:
            found.add(prefix)
            continue
        parent = ".".join(parts[: i - 1])
        if parent in mods and parts[i - 1] in mods[parent].defs:
            found.add(prefix)
        break
    return found


def _references(nodes, m: _Module, mods: dict[str, _Module]) -> set[str]:
    found: set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    found |= _resolve(alias.name, mods)
            elif isinstance(node, ast.ImportFrom):
                base = m.absolute(node)
                found |= _resolve(base, mods)
                for alias in node.names:
                    found |= _resolve(f"{base}.{alias.name}", mods)
            elif isinstance(node, ast.Name) and node.id in m.defs:
                found.add(f"{m.name}.{node.id}")
            elif isinstance(node, ast.Attribute):
                chain, head = [], node
                while isinstance(head, ast.Attribute):
                    chain.append(head.attr)
                    head = head.value
                if isinstance(head, ast.Name) and head.id in m.bound:
                    found |= _resolve(".".join([m.bound[head.id], *reversed(chain)]), mods)
    return found


def closure(root: Path = ROOT, allow=FUNCTION_ALLOWLIST) -> tuple[dict[str, _Module], set[str]]:
    """``(modules, reached)``: every parsed module, and the reached
    module and ``module.def`` names.  ``allow`` entries (relative to the
    package) are walked as well, so their helpers are reached; they are
    reached themselves only when walked code names them."""
    mods = {n: _Module(n, p) for n, p in _module_files(root).items()}
    roots = _entry_points(mods)
    reached = set(roots)
    # an entry point's defs are entry-point code as a whole
    todo = roots + [f"{n}.{d}" for n in roots if not n.startswith(PKG) for d in mods[n].defs]
    for key in allow:
        name = f"{PKG}.{key}"
        todo.append(name)
        if name in mods:
            todo += [f"{name}.{d}" for d in mods[name].defs]
    walked: set[str] = set()
    while todo:
        name = todo.pop()
        if name in walked:
            continue
        walked.add(name)
        if name in mods:
            m = mods[name]
            nodes = [n for n in m.tree.body if not isinstance(n, DEFS)]
        else:
            modname, _, d = name.rpartition(".")
            m = mods[modname]
            nodes = [m.defs[d]]
        new = _references(nodes, m, mods)
        reached |= new
        todo += new - walked
    return mods, reached


def unreached(root: Path = ROOT, allow=FUNCTION_ALLOWLIST) -> tuple[set[str], set[str]]:
    """``(modules, defs)`` under the package that the closure misses,
    relative to the package; a def of an unreached module is reported
    only through its module."""
    mods, reached = closure(root, allow)
    library = {n for n in mods if n.startswith(PKG + ".")}
    dead_mods = library - reached
    dead_defs = {
        f"{n}.{d}" for n in library - dead_mods for d in mods[n].defs if f"{n}.{d}" not in reached
    }
    strip = len(PKG) + 1
    return {n[strip:] for n in dead_mods}, {n[strip:] for n in dead_defs}


def test_every_library_module_is_reached():
    dead_mods, _ = unreached()
    assert dead_mods == set(ALLOWLIST), (
        f"modules no entry point reaches: {sorted(dead_mods - set(ALLOWLIST))}; "
        f"stale allowlist entries: {sorted(set(ALLOWLIST) - dead_mods)}"
    )


def test_every_top_level_def_is_reached():
    dead_mods, dead_defs = unreached()
    dead = dead_mods | dead_defs
    assert dead == set(FUNCTION_ALLOWLIST), (
        f"defs no entry point reaches: {sorted(dead - set(FUNCTION_ALLOWLIST))}; "
        f"stale allowlist entries: {sorted(set(FUNCTION_ALLOWLIST) - dead)}"
    )
    assert all(reason.strip() for reason in FUNCTION_ALLOWLIST.values())


def test_closure_resolves_relative_and_local_imports():
    _, reached = closure()
    # ops.ann_index imports ops.pq inside a function, relatively, and
    # nothing else imports it.
    assert f"{PKG}.ops.pq" in reached
    assert f"{PKG}.ops.pq.sample_matrix" in reached
    # perfbench.layers: ``from .spans import Tracer``.
    assert "perfbench.spans" in reached
    # ``from fetch_engines_ray.functions import converter`` names a module.
    assert f"{PKG}.functions.converter" in reached


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_def_reached_only_from_a_dead_def_is_dead(tmp_path):
    root = _tree(
        tmp_path,
        {
            f"{PKG}/__init__.py": "",
            f"{PKG}/ops.py": (
                "def live():\n    return _helper()\n\n"
                "def _helper():\n    return 1\n\n"
                "def dead():\n    return _dead_helper()\n\n"
                "def _dead_helper():\n    return 2\n"
            ),
            "scripts/run.py": f"from {PKG}.ops import live\n\nlive()\n",
        },
    )
    assert unreached(root, allow={}) == (set(), {"ops.dead", "ops._dead_helper"})


def test_module_attribute_and_registry_entry_count_as_reached(tmp_path):
    root = _tree(
        tmp_path,
        {
            f"{PKG}/__init__.py": "",
            f"{PKG}/ops/__init__.py": "",
            f"{PKG}/ops/relational.py": (
                "def user_sessions(sf):\n    return sf\n\n"
                "def lineitem_summary(sf):\n    return sf\n\n"
                "def retired_kernel(sf):\n    return sf\n"
            ),
            "__ray_entry__.py": (
                f"import {PKG}.ops.relational as rel\n\n\n"
                "def queries():\n"
                '    return {"user_sessions": rel.user_sessions}\n\n\n'
                "def report(sf):\n"
                f"    from {PKG}.ops import relational\n\n"
                "    return relational.lineitem_summary(sf)\n"
            ),
        },
    )
    assert unreached(root, allow={}) == (set(), {"ops.relational.retired_kernel"})


def test_allowlisted_def_keeps_its_helpers(tmp_path):
    root = _tree(
        tmp_path,
        {
            f"{PKG}/__init__.py": "from .ops import live  # noqa: F401\n",
            f"{PKG}/ops.py": (
                "def live():\n    return 0\n\n"
                "def oracle():\n    return _helper() + _shared()\n\n"
                "def _helper():\n    return 1\n\n"
                "def _shared():\n    return 2\n"
            ),
        },
    )
    assert unreached(root, allow={}) == (set(), {"ops.oracle", "ops._helper", "ops._shared"})
    assert unreached(root, allow={"ops.oracle": "test oracle"}) == (set(), {"ops.oracle"})


def test_every_pipeline_config_field_is_read():
    from fetch_engines_ray.pipelines.extract import PipelineConfig

    mods, reached = closure()
    read: set[str] = set()
    for name in reached & set(mods):
        for node in ast.walk(mods[name].tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {f.name for f in dataclasses.fields(PipelineConfig)} - read
    assert not unread, f"PipelineConfig fields no entry-point code reads: {sorted(unread)}"
