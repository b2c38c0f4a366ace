"""Per-layer probes of the traced run.

Every probe times calls into the engine's public functions from here.
Which end-to-end metric each layer should move, on which workload, is
recorded in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import os
import random
import time

import pyarrow as pa

from fetch_engines_ray.functions import converter as conv
from fetch_engines_ray.functions import render_detection as rd
from fetch_engines_ray.ops.dedup import filter_by_keys
from fetch_engines_ray.pipelines.extract import escalate_low_quality, extract_corpus, read_corpus
from fetch_engines_ray.stages import extract as sx
from fetch_engines_ray.corpus.generate import INPUT_SCHEMA

from .corpus import count_wrong, read_signatures
from .spans import Tracer

# (owner, attribute, layer) for the in-process UDF split; the owner's
# attribute is what the extraction code looks up at call time
UDF_LAYERS = (
    (sx, "route_document", "stages.route"),
    (sx.DocumentExtractor, "extract_document", "stages.extract_document"),
    (sx, "hydrate_shell", "stages.hydrate"),
    (sx, "parse_pdf_layout", "stages.pdf"),
    (conv, "preprocess", "functions.preprocess"),
    (conv, "cleanup_html", "functions.cleanup"),
    (conv, "parse_html", "dom.parse"),
    (conv, "serialize", "functions.serialize"),
    (conv, "postprocess_markdown", "functions.postprocess"),
    (rd, "assess_serialized_content", "functions.assess"),
)
GLUE = "stages.batch_glue"
# self time left over in the wrappers: work of any callee that has no span of its own
RESIDUAL = (GLUE, "stages.extract_document")


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _sub, files in os.walk(path) for f in files
    )


def _identity(batch: pa.Table) -> pa.Table:
    return batch


def pipeline_stages(cfg, corpus_dir: str, new_dir, tracer: Tracer, expected: dict) -> tuple[dict, int]:
    """Run the extraction chain one stage at a time (each stage
    materialized before the next starts).  Returns ``(metrics, wrong docs)``."""
    with tracer.span("sources.read_s"):
        source = read_corpus(corpus_dir, cfg).materialize()
    with tracer.span("framework.identity_s"):
        read_corpus(corpus_dir, cfg).map_batches(
            _identity, batch_format="pyarrow", batch_size=cfg.batch_size
        ).write_parquet(new_dir())
    with tracer.span("stages.fast_s"):
        fast = source.map_batches(
            sx.extract_fast_batch,
            fn_kwargs={
                "max_content_length": cfg.max_content_length,
                "warm_url_patterns": cfg.warm_url_patterns,
            },
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
        ).materialize()
    with tracer.span("stages.warm_s"):
        warm = fast.map_batches(
            sx.warm_extract_batch,
            fn_kwargs={"max_content_length": cfg.max_content_length},
            batch_format="pyarrow",
            batch_size=cfg.warm_batch_size,
        ).materialize()
    out = new_dir()
    with tracer.span("sinks.write_s"):
        warm.write_parquet(out)
    metrics = {
        name: (tracer.total(name), "s")
        for name in ("sources.read_s", "framework.identity_s", "stages.fast_s", "stages.warm_s", "sinks.write_s")
    }
    metrics["sources.read_bytes"] = (_dir_bytes(corpus_dir), "bytes")
    metrics["sinks.write_bytes"] = (_dir_bytes(out), "bytes")
    return metrics, count_wrong(read_signatures(out), expected)


def escalation(cfg, corpus_dir: str, min_quality: int, new_dir, tracer: Tracer, expected_rerun: dict):
    """The escalation chain split at its public calls, plus the semi-join
    key filter it uses on its own.  Returns ``(metrics, wrong docs)``."""
    with tracer.span("escalate.first_pass_s"):
        first = extract_corpus(corpus_dir, cfg).materialize()
    with tracer.span("escalate.select_s"):
        second = escalate_low_quality(corpus_dir, first, cfg, min_quality)
    with tracer.span("escalate.rerun_s"):
        rerun = second.materialize()
    out = new_dir()
    rerun.write_parquet(out)
    got = read_signatures(out)

    low = (
        first.select_columns(["doc_id", "quality_score"])
        .filter(expr=f"quality_score < {min_quality}")
        .select_columns(["doc_id"])
        .materialize()
    )
    with tracer.span("keyfilter.semi_s"):
        # n_parts as escalate_low_quality sizes it for a corpus this small
        filter_by_keys(read_corpus(corpus_dir, cfg), low, "doc_id", keep_matches=True, n_parts=2).materialize()
    metrics = {
        name: (tracer.total(name), "s")
        for name in ("escalate.first_pass_s", "escalate.select_s", "escalate.rerun_s", "keyfilter.semi_s")
    }
    metrics["escalate.escalated"] = (len(got), "count")
    return metrics, count_wrong(got, expected_rerun)


def udf_split(cfg, rows: list, seed: int, sample: int, run_id: str) -> tuple[dict, Tracer]:
    """CPU self time per layer of the two extraction UDFs, in this process,
    over a seeded sample of ``rows``.  Each batch runs untraced, then
    traced: ``udf.total`` is the untraced CPU time, ``udf.self_sum`` the
    traced self times added up, and ``udf.coverage`` the share of
    ``udf.total`` that named layers account for, outside the ``RESIDUAL``
    wrappers.
    Alternating batch by batch keeps slow phases of a shared host out of
    the ratio."""
    picked = sorted(random.Random(seed).sample(range(len(rows)), sample))
    table = pa.Table.from_pylist([rows[i] for i in picked], schema=INPUT_SCHEMA)
    batches = [table.slice(off, cfg.batch_size) for off in range(0, table.num_rows, cfg.batch_size)]

    def run(fast, warm, batch):
        warm(
            fast(batch, max_content_length=cfg.max_content_length, warm_url_patterns=cfg.warm_url_patterns),
            max_content_length=cfg.max_content_length,
        )

    run(sx.extract_fast_batch, sx.warm_extract_batch, batches[0])  # builds the cached extractors

    tracer = Tracer(run_id, clock=time.thread_time)
    calls = {"route": 0, "convert": 0, "best_of": 0, "best_of_kept": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def best_of(fn):
        def wrapper(*args, **kwargs):
            kept = fn(*args, **kwargs)
            calls["best_of"] += 1
            calls["best_of_kept"] += bool(kept)
            return kept

        return wrapper

    traced = [
        (owner, attr, tracer.wrap(getattr(owner, attr), layer)) for owner, attr, layer in UDF_LAYERS
    ]
    # UDF_LAYERS[0] is route_document: count its calls too
    traced[0] = (sx, "route_document", tracer.wrap(counted(sx.route_document, "route"), "stages.route"))
    traced += [
        (conv, "convert", counted(conv.convert, "convert")),
        (rd, "is_rendered_content_meaningfully_better", best_of(rd.is_rendered_content_meaningfully_better)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _fn in traced]
    fast, warm = tracer.wrap(sx.extract_fast_batch, GLUE), tracer.wrap(sx.warm_extract_batch, GLUE)
    total = 0.0
    for batch in batches:
        t0 = time.thread_time()
        run(sx.extract_fast_batch, sx.warm_extract_batch, batch)
        total += time.thread_time() - t0
        try:
            for owner, attr, fn in traced:
                setattr(owner, attr, fn)
            run(fast, warm, batch)
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    per_doc = 1000.0 / sample
    selfs = tracer.self_times()
    metrics = {layer: (selfs.get(layer, 0.0) * per_doc, "ms/doc") for *_o, layer in UDF_LAYERS}
    metrics[GLUE] = (selfs[GLUE] * per_doc, "ms/doc")
    metrics["udf.total"] = (total * per_doc, "ms/doc")
    metrics["udf.self_sum"] = (sum(selfs.values()) * per_doc, "ms/doc")
    named = sum(t for layer, t in selfs.items() if layer not in RESIDUAL)
    metrics["udf.coverage"] = (named / total, "ratio")
    metrics["stages.route_calls_per_doc"] = (calls["route"] / sample, "calls/doc")
    metrics["functions.convert_calls_per_doc"] = (calls["convert"] / sample, "calls/doc")
    metrics["stages.warm_keep_frac"] = (calls["best_of_kept"] / max(calls["best_of"], 1), "ratio")
    return metrics, tracer
