"""The flagship extraction pipeline, Ray-Data-first.

Two entry points:

* :func:`build_pipeline` — pure streaming ``Dataset`` transform
  (read → fast stage → warm stage, two task-function ``map_batches``
  that fuse into one task-pool operator).  Used by
  ``__ray_entry__.entry()``/``queries()`` and by ``bench.py``.
* :func:`run_resumable` — partition-atomic runner with per-partition
  lineage records and plan-time resume (north rule: checkpoint resume
  at 10^12-doc scale).  One input parquet fragment → one output part
  file + one lineage record; a killed run re-processes only
  uncommitted fragments.

Scale notes (sized for a 256-node cluster, tested on one node):

* extraction is a **self-scheduling task pool** over all CPUs; each
  worker process caches its compiled converter state, so no fixed
  actor pool caps the pipeline; batches stay Arrow end-to-end.
* ``batch_size`` is small (default 64) so one mega-page cannot stall a
  thousand-row batch (skew control, SURVEY.md §4.2); Ray Data's
  dynamic block splitting handles oversized *outputs*.
* no stage materializes the dataset; the streaming executor pipelines
  read → extract → write with backpressure.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from fetch_engines_ray.arrowclean import _clean_read_schema, read_parquet_clean

from ..stages.extract import (
    OUTPUT_SCHEMA,
    DocumentExtractor,
    extract_fast_batch,
    warm_extract_batch,
)
from ..state import lineage as lin


@dataclass
class PipelineConfig:
    """Engine knobs (reference analog: the 20+ config surface at
    /root/reference/src/types.ts:75-216)."""

    # Fast task-pool stage batch size (64 measured best at 32 CPUs —
    # enough tasks for load balance, small enough that a mega-page
    # can't stall many docs behind it).
    batch_size: int = 64
    # Warm stage batch size (one JS-shell/PDF doc must not stall a fat
    # batch — skew control, SURVEY.md §4.2).
    warm_batch_size: int = 64
    # C10 route overrides (reference playwrightOnlyPatterns,
    # /root/reference/src/HybridEngine.ts:160-170): entries are plain
    # URL substrings OR compiled re.Pattern objects (the reference's
    # `(string | RegExp)[]` contract) that force the warm path.  Per-row
    # overrides ride in an optional `force_route` input column.
    warm_url_patterns: tuple = ()
    max_content_length: Optional[int] = None


_BASE_COLUMNS = ["doc_id", "spans", "archetype", "base_url"]


def _corpus_columns(schema: Optional[pa.Schema]) -> list[str]:
    """The corpus columns extraction reads: the four base columns, plus
    the per-row ``force_route`` override when the corpus carries it."""
    if schema is not None and "force_route" in schema.names:
        return _BASE_COLUMNS + ["force_route"]
    return list(_BASE_COLUMNS)


def read_corpus(path: str, cfg: Optional[PipelineConfig] = None) -> "ray.data.Dataset":
    """Read a corpus for extraction.  The columns follow the corpus
    schema (first file), the same rule the resumable runner applies per
    fragment, so both paths route identically; ``cfg`` is accepted for
    call-site symmetry with the other entry points."""
    return read_parquet_clean(path, columns=_corpus_columns(_clean_read_schema(path, None)))


def build_pipeline(ds: "ray.data.Dataset", cfg: Optional[PipelineConfig] = None) -> "ray.data.Dataset":
    """Attach the extraction stages to a corpus Dataset (lazy).

    One linear stream, no branch re-execution:
      fast stage (fully extracts "fast"-routed docs, passes "warm"
      docs through with raw spans) →
      warm stage (hydration/PDF layout — touches only the warm
      fraction, Arrow-slice passthrough for the rest).
    Both are task functions with per-worker cached extractor state, so
    Ray Data fuses them into one task-pool operator.
    """
    cfg = cfg or PipelineConfig()
    fast = ds.map_batches(
        extract_fast_batch,
        fn_kwargs={
            "max_content_length": cfg.max_content_length,
            "warm_url_patterns": cfg.warm_url_patterns,
        },
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )
    return fast.map_batches(
        warm_extract_batch,
        fn_kwargs={"max_content_length": cfg.max_content_length},
        batch_format="pyarrow",
        batch_size=cfg.warm_batch_size,
    )


def extract_corpus(input_path: str, cfg: Optional[PipelineConfig] = None) -> "ray.data.Dataset":
    return build_pipeline(read_corpus(input_path, cfg), cfg)


def _content_view(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Collapse each corpus row to ``(doc_id, text)`` where text is a
    canonical serialization of everything extraction consumes (spans +
    archetype + base_url) — the change-detection key for refresh."""

    def view(batch: pa.Table) -> pa.Table:
        texts = []
        for spans, arch, base in zip(
            batch["spans"].to_pylist(),
            batch["archetype"].to_pylist(),
            batch["base_url"].to_pylist(),
        ):
            parts = [f"{arch or ''}\x1f{base or ''}"]
            for s in spans or []:
                parts.append(
                    f"{s.get('kind') or ''}\x1f{s.get('text') or ''}\x1f{s.get('media_ref') or ''}"
                )
            texts.append("\x1e".join(parts))
        return pa.table(
            {"doc_id": batch["doc_id"], "text": pa.array(texts, type=pa.string())}
        )

    return ds.map_batches(view, batch_format="pyarrow", batch_size=1024)


def refresh_extract(
    prev_corpus_path: str,
    new_corpus_path: str,
    prev_output: "ray.data.Dataset",
    cfg: Optional[PipelineConfig] = None,
) -> tuple["ray.data.Dataset", dict]:
    """Incremental re-crawl refresh: extract ONLY the pages whose
    content actually changed, reuse the previous run's output for
    everything else — extraction is the expensive stage, and week-over-
    week crawl churn is a small fraction of the corpus.

    Mechanics: both corpora collapse to (id, content-hash) views and
    diff via ``ops.diff.corpus_diff`` (output is CHURN-sized — only
    added/changed/removed rows, materialized once).  The churn ids then
    drive two ``ops.dedup.keep_by_keys`` filters: a semi-filter picks
    the new corpus rows to re-extract (removed ids are absent from the
    new corpus, so the whole churn id set selects exactly added ∪
    changed), and an anti-filter drops every churned id from the
    previous output.  ``keep_by_keys`` broadcasts a small churn id set
    and switches to its partitioned path for a large one (a full
    re-crawl), so no corpus-sized id set ever rides the driver.

    Returns ``(dataset, stats)`` with stats counting added / changed /
    removed / reextracted."""
    import pyarrow.compute as pc

    from ..ops.dedup import keep_by_keys
    from ..ops.diff import corpus_diff

    cfg = cfg or PipelineConfig()
    old_view = _content_view(read_corpus(prev_corpus_path, cfg))
    new_view = _content_view(read_corpus(new_corpus_path, cfg))
    # the status counts and the id set read the churn table back
    # instead of re-running the diff shuffle
    churn = corpus_diff(old_view, new_view).materialize()

    def status_counts(batch: pa.Table) -> pa.Table:
        counts = pc.value_counts(batch["status"])
        return pa.table({"status": counts.field(0), "n": counts.field(1)})

    stats = {"added": 0, "changed": 0, "removed": 0}
    for row in churn.map_batches(
        status_counts, batch_format="pyarrow", batch_size=None
    ).take_all():
        stats[row["status"]] += int(row["n"])
    stats["reextracted"] = stats["added"] + stats["changed"]

    # one materialized id column serves both filters as their key side
    churn_ids = churn.select_columns(["doc_id"]).materialize()
    out = keep_by_keys(prev_output, churn_ids, "doc_id", keep=False)
    if stats["reextracted"]:
        fresh = keep_by_keys(
            read_corpus(new_corpus_path, cfg), churn_ids, "doc_id", keep=True
        )
        out = out.union(build_pipeline(fresh, cfg))
    return out, stats


# ---------------------------------------------------------------------------
# Resumable partition-atomic runner
# ---------------------------------------------------------------------------

def _list_fragments(input_path: str) -> list[str]:
    if os.path.isdir(input_path):
        return sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(".parquet")
        )
    return [input_path]


class _FragmentProcessor:
    """Actor that processes whole input fragments: read fragment →
    extract → atomic write of output part + lineage record.

    Used only by the resumable runner; partition-atomicity is the point
    (a mid-run kill loses at most in-flight fragments)."""

    def __init__(
        self,
        output_dir: str,
        max_content_length: Optional[int] = None,
        warm_url_patterns: tuple = (),
    ) -> None:
        self.output_dir = output_dir
        # the resumable path must route IDENTICALLY to the two-stage
        # pipeline ("resume equals rerun"): C10 pattern overrides ride
        # into the extractor, and a force_route column is read below
        # by the same column rule as read_corpus
        self.extractor = DocumentExtractor(
            max_content_length=max_content_length,
            warm_url_patterns=warm_url_patterns,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        results = []
        for frag in batch.column("fragment").to_pylist():
            t0 = time.perf_counter()
            part_id = os.path.splitext(os.path.basename(frag))[0]
            table = pq.read_table(frag, columns=_corpus_columns(pq.read_schema(frag)))
            out_batches = [
                self.extractor(table.slice(off, 256))
                for off in range(0, table.num_rows, 256)
            ]
            out = pa.concat_tables(out_batches) if out_batches else pa.Table.from_pylist([], schema=OUTPUT_SCHEMA)

            os.makedirs(self.output_dir, exist_ok=True)
            final = os.path.join(self.output_dir, f"{part_id}.out.parquet")
            tmp = os.path.join(self.output_dir, f".{part_id}.out.tmp.parquet")
            pq.write_table(out, tmp)
            os.replace(tmp, final)

            doc_hashes = [
                lin.span_hash_for_doc(d, s)
                for d, s in zip(out.column("doc_id").to_pylist(), out.column("out_spans").to_pylist())
            ]
            routes = out.column("route").to_pylist()
            route_counts: dict[str, int] = {}
            for r in routes:
                route_counts[r] = route_counts.get(r, 0) + 1
            lin.write_lineage(
                self.output_dir,
                part_id,
                [frag],
                out.num_rows,
                lin.combine_hashes(doc_hashes),
                time.perf_counter() - t0,
                route_counts,
            )
            results.append({"partition_id": part_id, "rows": out.num_rows})
        return pa.Table.from_pylist(
            results,
            schema=pa.schema([("partition_id", pa.string()), ("rows", pa.int64())]),
        )


def run_resumable(
    input_path: str,
    output_dir: str,
    cfg: Optional[PipelineConfig] = None,
    concurrency: int = 8,
) -> dict:
    """Process all not-yet-committed input fragments; skip finished ones.

    Returns ``{"processed": n, "skipped": m, "rows": total}``.
    """
    cfg = cfg or PipelineConfig()
    fragments = _list_fragments(input_path)
    done = lin.completed_fragments(output_dir)
    todo = [f for f in fragments if f not in done]
    if not todo:
        return {"processed": 0, "skipped": len(fragments), "rows": 0}

    ds = ray.data.from_items([{"fragment": f} for f in todo])
    results = ds.map_batches(
        _FragmentProcessor,
        fn_constructor_kwargs={
            "output_dir": output_dir,
            "max_content_length": cfg.max_content_length,
            "warm_url_patterns": tuple(cfg.warm_url_patterns),
        },
        batch_format="pyarrow",
        batch_size=1,
        concurrency=min(concurrency, len(todo)),
        num_cpus=1,
    ).take_all()
    rows = sum(r["rows"] for r in results)
    return {"processed": len(todo), "skipped": len(fragments) - len(todo), "rows": rows}


def escalate_low_quality(
    input_path: str,
    extracted: "ray.data.Dataset",
    cfg: Optional[PipelineConfig] = None,
    min_quality: int = 3,
) -> "ray.data.Dataset":
    """Second-pass escalation (reference analog: the retry ladder's
    mode escalation, /root/reference/src/PlaywrightEngine.ts:746-794 —
    re-fetch with a heavier engine when the fast result is poor).

    Docs whose fast extraction scored below ``min_quality`` are re-run
    through the warm path (forced route).  The low-quality ids feed one
    ``ops/dedup.keep_by_keys`` semi-filter over the corpus re-read, so
    the nested ``spans`` column rides through as Arrow and a large id
    set takes the partitioned path instead of the driver.  Returns the
    re-extracted rows (union with the kept rows is the caller's
    choice), or None when no row scored below ``min_quality``.
    """
    from ..ops.dedup import keep_by_keys

    cfg = cfg or PipelineConfig()
    low = (
        extracted.select_columns(["doc_id", "quality_score"])
        .filter(expr=f"quality_score < {int(min_quality)}")
        .select_columns(["doc_id"])
        .materialize()
    )
    if low.count() == 0:
        return None  # type: ignore[return-value]
    matched = keep_by_keys(read_corpus(input_path, cfg), low, "doc_id", keep=True)

    def force_warm(batch: pa.Table) -> pa.Table:
        # REPLACE any pre-existing per-row force_route override (the
        # documented input column) rather than append a duplicate
        # field — escalation forces warm unconditionally
        if "force_route" in batch.column_names:
            batch = batch.drop_columns(["force_route"])
        return batch.append_column(
            "force_route", pa.array(["warm"] * batch.num_rows)
        )

    corpus = matched.map_batches(force_warm, batch_format="pyarrow", batch_size=1024)
    return build_pipeline(corpus, cfg)


def extract_with_escalation(
    input_path: str,
    cfg: Optional[PipelineConfig] = None,
    min_quality: int = 3,
) -> "ray.data.Dataset":
    """Extraction + escalation in one call: rows whose fast extraction
    scored below ``min_quality`` are replaced by their warm re-run.

    The first-pass output is materialized once (it is the OUTPUT table,
    bounded; at 10^12-doc scale this is the already-written parquet that
    the second pass reads back), then kept rows and escalated rows union
    into the final stream.
    """
    cfg = cfg or PipelineConfig()
    first = extract_corpus(input_path, cfg).materialize()
    second = escalate_low_quality(input_path, first, cfg, min_quality)
    if second is None:
        return first

    import pyarrow.compute as pc

    from ..functions import errors as errs

    kept = first.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("quality_score"), min_quality)),
        batch_format="pyarrow",
        batch_size=1024,
    )

    def tag_exhausted(batch: pa.Table) -> pa.Table:
        # rows STILL below the bar after the warm re-run: the ladder is
        # exhausted (reference ERR_MAX_RETRIES_REACHED,
        # /root/reference/src/FetchEngine.ts retry loop)
        low = pc.less(batch.column("quality_score"), min_quality)
        # ERR_CHALLENGE_PAGE outranks the retry-exhausted code (the
        # same precedence the extract stage applies): a challenge page
        # that stays blocked after the warm re-run is a CHALLENGE
        # failure, not a retry failure — eval gating keys on it
        challenge = pc.equal(
            batch.column("error_code"), pa.scalar(errs.ERR_CHALLENGE_PAGE)
        )
        code = pc.if_else(
            pc.and_(low, pc.invert(challenge)),
            pa.scalar(errs.ERR_MAX_RETRIES_REACHED),
            batch.column("error_code"),
        )
        idx = batch.schema.get_field_index("error_code")
        return batch.set_column(idx, "error_code", code)

    return kept.union(
        second.map_batches(tag_exhausted, batch_format="pyarrow", batch_size=1024)
    )
