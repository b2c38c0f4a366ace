"""The flagship extraction pipeline, Ray-Data-first.

Two entry points:

* :func:`build_pipeline` — pure streaming ``Dataset`` transform: one
  task-function ``map_batches`` with no batch size, which Ray Data fuses
  with the read and the write, so one task reads, extracts and writes
  each block.  Used by ``__ray_entry__.entry()``/``queries()`` and by
  ``bench.py``.
* :func:`run_resumable` — partition-atomic runner with per-partition
  lineage records and plan-time resume (north rule: checkpoint resume
  at 10^12-doc scale).  One input parquet fragment → one output part
  file + one lineage record; a killed run re-processes only
  uncommitted fragments.

Scale notes (sized for a 256-node cluster, tested on one node):

* extraction is a **self-scheduling task pool** over all CPUs; each
  worker process caches its compiled converter state, so no fixed
  actor pool caps the pipeline; batches stay Arrow end-to-end.
* a task's extraction walks its block ``batch_size`` docs (default 64)
  at a time, so one mega-page cannot stall a thousand-row batch (skew
  control, SURVEY.md §4.2); the task count is the read's block count;
  Ray Data's dynamic block splitting handles oversized *outputs*.
* no stage materializes the dataset; the streaming executor runs
  read → extract → write in one task per block, with backpressure.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from fetch_engines_ray.arrowclean import file_schema, parquet_files, project

from ..ops.exchange import measured, n_rows, reservation, sized_read
from ..stages.extract import OUTPUT_SCHEMA, DocumentExtractor, extract_block
from ..state import lineage as lin


@dataclass
class PipelineConfig:
    """Engine knobs (reference analog: the 20+ config surface at
    /root/reference/src/types.ts:75-216)."""

    # Docs per extraction call (64 measured best at 32 CPUs): small
    # enough that a mega-page can't stall many docs behind it.  It does
    # not set the task count, which is the read's block count.
    batch_size: int = 64
    # Docs per warm_extract_batch call in a stage-at-a-time run; the
    # pipeline feeds each batch_size slice's fast output straight to the
    # warm stage.
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
    call-site symmetry with the other entry points.

    One listing of ``path`` gives the columns, the read's projected
    ``schema=`` and its task count (``ops/exchange.read_tasks``: the
    cluster's CPUs, or more for more on-disk bytes) in place of Ray's
    default, which splits a few megabytes into several tasks per CPU."""
    files = parquet_files(path)
    schema = file_schema(path, files)
    columns = _corpus_columns(schema)
    return sized_read(path, files, columns=columns, schema=project(schema, columns))


def build_pipeline(ds: "ray.data.Dataset", cfg: Optional[PipelineConfig] = None) -> "ray.data.Dataset":
    """Attach extraction to a corpus Dataset (lazy).

    One ``map_batches`` over whole blocks (``batch_size=None``), so Ray
    Data fuses it with the read before it and the write after it: one
    task reads a block, extracts it and writes it, and the corpus never
    passes through the object store.  Inside the task,
    :func:`~fetch_engines_ray.stages.extract.extract_block` takes the
    block ``cfg.batch_size`` docs at a time through the fast stage
    (fully extracts "fast"-routed docs, passes "warm" docs through with
    raw spans) and then the warm stage (hydration/PDF layout — touches
    only the warm fraction, Arrow-slice passthrough for the rest), with
    per-worker cached extractor state.

    The map shares ``ds``'s Data context, so it runs under whatever
    resource settings the caller's Dataset carries.  The chains the
    engine builds around it own their context and run without Ray
    Data's per-operator reservation (``ops/exchange.reservation``):
    :func:`extract_corpus`, the broadcast path of
    :func:`refresh_extract` and :func:`extract_with_escalation`.
    """
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        extract_block,
        fn_kwargs={
            "batch_size": cfg.batch_size,
            "max_content_length": cfg.max_content_length,
            "warm_url_patterns": cfg.warm_url_patterns,
        },
        batch_format="pyarrow",
        batch_size=None,
    )


def extract_corpus(input_path: str, cfg: Optional[PipelineConfig] = None) -> "ray.data.Dataset":
    """Read the corpus at ``input_path`` and attach extraction
    (:func:`build_pipeline`), lazily.

    The read is made here, so the returned Dataset owns its context, and
    read → extract runs without Ray Data's per-operator reservation
    (``ops/exchange.reservation``): the chain is map-only, and with the
    reservation every task but the first would wait for the first
    task's output size.  Operators a caller appends share that context
    and so the setting, and ``materialize()`` copies it; a caller that
    appends an exchange gives the reservation back with
    ``reservation(ds, map_only=False)`` on a Dataset it owns (a
    materialized one, as ``__ray_entry__``'s extraction cache does)."""
    return reservation(build_pipeline(read_corpus(input_path, cfg), cfg), map_only=True)


def _view_text(batch: pa.Table) -> "pa.Array | pa.ChunkedArray":
    """The change-detection key of every row of a corpus batch:
    ``archetype\x1fbase_url``, then one ``kind\x1ftext\x1fmedia_ref``
    per span, all joined by ``\x1e`` (a null field reads as ``""``, a
    null or empty span list gives the header alone), then
    ``\x1d force_route`` when the row carries a non-null override."""
    if not batch.num_rows:
        return pa.array([], pa.string())
    # one chunk per column, zero-copy when a column already is one
    batch = batch.combine_chunks()
    spans = batch["spans"].chunk(0)
    # .offsets index .values, the whole child array: a sliced batch
    # keeps its slice offset there (pc.list_flatten would drop it)
    values = spans.values

    def field(name):
        return pc.fill_null(pc.struct_field(values, name), "")

    per_span = pc.binary_join_element_wise(field("kind"), field("text"), field("media_ref"), "\x1f")
    joined = pc.binary_join(type(spans).from_arrays(spans.offsets, per_span), "\x1e")
    header = pc.binary_join_element_wise(
        pc.fill_null(batch["archetype"], ""), pc.fill_null(batch["base_url"], ""), "\x1f"
    )
    has_spans = pc.fill_null(pc.greater(pc.list_value_length(spans), 0), False)
    text = pc.if_else(has_spans, pc.binary_join_element_wise(header, joined, "\x1e"), header)
    if "force_route" in batch.column_names:
        text = pc.binary_join_element_wise(text, batch["force_route"], "\x1d", null_handling="skip")
    return text


def _content_view(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Append ``text`` to each corpus row: a canonical serialization of
    everything extraction consumes (spans, archetype, base_url and a
    non-null per-row ``force_route``), the change-detection key for
    refresh.  Built with Arrow compute kernels (:func:`_view_text`), no
    per-row Python; a row with a null override, or from a corpus without
    the column, is keyed by its spans, archetype and base_url alone.
    The corpus columns stay, so the rows that changed can be extracted
    from the same pass."""

    def view(batch: pa.Table) -> pa.Table:
        return batch.append_column("text", _view_text(batch))

    # whole blocks: the view is per row, so it fuses into the read
    return ds.map_batches(view, batch_format="pyarrow", batch_size=None)


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

    Mechanics: each corpus is read once.  Both gain an Arrow-compute
    change key (:func:`_content_view`) and go to ``ops.diff.corpus_diff``,
    which hashes the old corpus down to ``(doc_id, hash)`` and classifies
    the new corpus against those hashes in the same pass that reads it,
    so the added and changed rows it returns carry the corpus columns
    extraction needs.  The diff executes once through
    ``exchange.measured``: a CHURN-sized table (only added / changed /
    removed rows) that fits ``exchange.BROADCAST_BYTES`` comes to the
    driver, and a larger one (a full re-crawl) stays materialized.  The
    status counts are ``pc.value_counts`` in process, over the table or
    streamed block by block.  A per-row ``force_route`` override is part
    of the key, so a changed override re-extracts its row.  One
    ``ops.dedup.keep_by_keys`` anti-filter drops every churned id from
    the previous output, and the added and changed churn rows are
    extracted as they are: a driver table enters Ray in blocks of
    ``cfg.batch_size`` rows, so the re-extraction still spreads over
    tasks.  A churn Dataset's ids take the filter's partitioned path
    when they do not fit, so no corpus-sized id set ever rides the
    driver.

    Change detection runs in one full-width wave.  Both corpus reads
    take :func:`read_corpus`'s task count: one task per CPU (more only
    for more than one ``target_max_block_size`` of bytes per CPU), not
    Ray's default of several small tasks per CPU, each of which costs
    about as much as its vectorised hashing.  Both reads run without
    Ray Data's per-operator reservation (``ops/exchange.reservation``),
    which would start one hash task alone and hold the others back until
    its output size is known.  The old side's read → key → hash is
    map-only up to its ``measured``, and so is the new side's read → key
    → hash → broadcast ``attach`` → classify when the old hashes come
    back as a driver table.  Larger old hashes take ``attach``'s
    ``co_group``, whose exchange, like every ``co_group`` of two sides
    and every Dataset ``measured`` materializes, runs at the session's
    setting.

    On the broadcast path with rows to re-extract, the returned
    ``union`` runs without the reservation too: the union owns a copy
    of ``prev_output``'s context, and the filter over ``prev_output``
    and the re-extraction are maps, so every worker starts at once.
    ``prev_output`` is the previous run's extraction output (a read of
    it, or its materialized Dataset), which holds no exchange.  The
    partitioned path holds an exchange and keeps the session's setting;
    with nothing to re-extract the output is ``prev_output`` itself or a
    map over it, whose context belongs to the caller and stays as it
    is.

    Returns ``(dataset, stats)`` with stats counting added / changed /
    removed / reextracted."""
    from ..ops.dedup import keep_by_keys
    from ..ops.diff import corpus_diff

    cfg = cfg or PipelineConfig()
    old_view, new_view = (
        _content_view(reservation(read_corpus(path, cfg), map_only=True))
        for path in (prev_corpus_path, new_corpus_path)
    )
    churn = measured(corpus_diff(old_view, new_view))

    stats = {"added": 0, "changed": 0, "removed": 0}
    blocks = (
        [churn]
        if isinstance(churn, pa.Table)
        else churn.select_columns(["status"]).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    for block in blocks:
        for row in pc.value_counts(block["status"]).to_pylist():
            stats[row["values"]] += row["counts"]
    stats["reextracted"] = stats["added"] + stats["changed"]

    out = keep_by_keys(prev_output, churn, "doc_id", keep=False)
    if stats["reextracted"]:

        def fresh(block: pa.Table) -> pa.Table:
            return block.filter(pc.not_equal(block["status"], "removed")).drop_columns(["status"])

        if isinstance(churn, pa.Table):
            rows = fresh(churn)
            rows = ray.data.from_arrow(
                [rows.slice(i, cfg.batch_size) for i in range(0, rows.num_rows, cfg.batch_size)]
            )
        else:
            rows = churn.map_batches(fresh, batch_format="pyarrow", batch_size=None)
        out = reservation(
            out.union(build_pipeline(rows, cfg)), map_only=isinstance(churn, pa.Table)
        )
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
    through the warm path (forced route).  The low-quality ids execute
    once through ``ops/exchange.measured`` and feed one
    ``ops/dedup.keep_by_keys`` semi-filter over the corpus re-read, so
    the nested ``spans`` column rides through as Arrow, a small id set
    stays one driver table and a large one takes the partitioned path.
    Returns the re-extracted rows (union with the kept rows is the
    caller's choice), or None when no row scored below ``min_quality``.
    """
    return _escalate(input_path, extracted, cfg, min_quality)[0]


def _escalate(
    input_path: str,
    extracted: "ray.data.Dataset",
    cfg: Optional[PipelineConfig],
    min_quality: int,
) -> "tuple[Optional[ray.data.Dataset], bool]":
    """:func:`escalate_low_quality`, and whether its chain is map-only
    (the low-quality ids fit the broadcast filter)."""
    from ..ops.dedup import keep_by_keys

    cfg = cfg or PipelineConfig()
    low = measured(
        extracted.select_columns(["doc_id", "quality_score"])
        .filter(expr=f"quality_score < {int(min_quality)}")
        .select_columns(["doc_id"])
    )
    if n_rows(low) == 0:
        return None, True
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
    return build_pipeline(corpus, cfg), isinstance(low, pa.Table)


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

    Both passes own their contexts (:func:`extract_corpus`, and the
    ``union`` copy of it), so ``ops/exchange.reservation`` applies: the output
    runs without Ray Data's per-operator reservation when the
    low-quality ids fit the broadcast filter, and at the session's
    setting when they take the partitioned exchange.
    """
    cfg = cfg or PipelineConfig()
    first = extract_corpus(input_path, cfg).materialize()
    second, map_only = _escalate(input_path, first, cfg, min_quality)
    if second is None:
        return first

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

    return reservation(
        kept.union(second.map_batches(tag_exhausted, batch_format="pyarrow", batch_size=1024)),
        map_only,
    )
