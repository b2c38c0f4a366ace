"""Seeded benchmark inputs and the oracle every output is checked against.

All documents come from ``fetch_engines_ray.corpus.generate.make_doc(idx,
seed)``, so one seed gives byte-identical corpora.  The oracle runs
``DocumentExtractor`` directly on the generated rows, without Ray Data,
and describes each output document by a signature: the
``state.lineage.span_hash_for_doc`` digest of its span sequence plus its
title, route, quality score and error code.
"""

from __future__ import annotations

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from fetch_engines_ray.corpus.generate import INPUT_SCHEMA, make_doc
from fetch_engines_ray.stages.extract import DocumentExtractor
from fetch_engines_ray.state.lineage import span_hash_for_doc

# v2 of the refresh workload: shares of v1 changed, removed and added
CHANGED_FRAC = 0.05
REMOVED_FRAC = 0.01
ADDED_FRAC = 0.01

ORACLE_ROWS_PER_TASK = 100

SIGNATURE_COLUMNS = ["doc_id", "out_spans", "title", "route", "quality_score", "error_code"]
QUALITY = 3  # position in a signature


def signature(row: dict) -> tuple:
    return (
        span_hash_for_doc(row["doc_id"], row["out_spans"]),
        row["title"],
        row["route"],
        row["quality_score"],
        row["error_code"],
    )


def write_corpus(rows: list, out_dir: str, rows_per_file: int) -> str:
    os.makedirs(out_dir)
    for part, start in enumerate(range(0, len(rows), rows_per_file)):
        table = pa.Table.from_pylist(rows[start : start + rows_per_file], schema=INPUT_SCHEMA)
        pq.write_table(table, os.path.join(out_dir, f"part-{part:05d}.parquet"))
    return out_dir


def snapshots(seed: int, n_docs: int) -> tuple[list, list, list]:
    """``(v1, v2, fresh)``: v2 is v1 with a seeded ``CHANGED_FRAC`` of the
    docs regenerated under another seed (same doc ids), ``REMOVED_FRAC``
    dropped and ``ADDED_FRAC`` new docs appended; ``fresh`` holds the v2
    rows that are changed or added."""
    v1 = [make_doc(i, seed) for i in range(n_docs)]
    rng = random.Random(seed)
    n_changed, n_removed = round(n_docs * CHANGED_FRAC), round(n_docs * REMOVED_FRAC)
    picked = rng.sample(range(n_docs), n_changed + n_removed)
    changed = {i: make_doc(i, seed + 1) for i in picked[:n_changed]}
    removed = set(picked[n_changed:])
    added = [make_doc(n_docs + j, seed) for j in range(round(n_docs * ADDED_FRAC))]
    v2 = [changed.get(i, row) for i, row in enumerate(v1) if i not in removed] + added
    return v1, v2, list(changed.values()) + added


@ray.remote
def _extract_signatures(table: pa.Table, out_path: str | None) -> list:
    out = DocumentExtractor()(table)
    if out_path:
        pq.write_table(out, out_path)
    return [(row["doc_id"], signature(row)) for row in out.select(SIGNATURE_COLUMNS).to_pylist()]


def extract_signatures(rows: list, force_warm: bool = False, out_dir: str | None = None) -> dict:
    """``{doc_id: signature}`` of the in-process extractor over ``rows``,
    spread over the Ray workers as plain tasks (no Ray Data).  With
    ``out_dir`` the extracted rows are also written there as parquet."""
    if out_dir:
        os.makedirs(out_dir)
    refs = []
    for part, start in enumerate(range(0, len(rows), ORACLE_ROWS_PER_TASK)):
        table = pa.Table.from_pylist(rows[start : start + ORACLE_ROWS_PER_TASK], schema=INPUT_SCHEMA)
        if force_warm:
            table = table.append_column("force_route", pa.array(["warm"] * table.num_rows))
        out_path = os.path.join(out_dir, f"part-{part:05d}.parquet") if out_dir else None
        refs.append(_extract_signatures.remote(table, out_path))
    return {doc_id: sig for part in ray.get(refs) for doc_id, sig in part}


def escalation_oracle(rows: list, first: dict, min_quality: int) -> dict:
    """The escalation re-run: the signatures of the docs whose first-pass
    quality is below ``min_quality``, re-extracted with
    ``force_route="warm"``."""
    low = {d for d, sig in first.items() if sig[QUALITY] < min_quality}
    return extract_signatures([r for r in rows if r["doc_id"] in low], force_warm=True)


@ray.remote
def _file_signatures(path: str) -> list:
    table = pq.read_table(path, columns=SIGNATURE_COLUMNS)
    return [(row["doc_id"], signature(row)) for row in table.to_pylist()]


def read_signatures(out_dir: str) -> list:
    """``(doc_id, signature)`` of every row written under ``out_dir``, one
    Ray task per parquet file: in the driver alone a 2,000-doc output took
    about 1.3 s, and a run checks six."""
    paths = sorted(
        os.path.join(d, f) for d, _sub, files in os.walk(out_dir) for f in files if f.endswith(".parquet")
    )
    return [sig for part in ray.get([_file_signatures.remote(p) for p in paths]) for sig in part]


def count_wrong(got: list, expected: dict) -> int:
    """Expected docs missing from ``got`` or different in it; duplicate and
    unexpected rows count too, capped at the number of expected docs."""
    seen: set = set()
    wrong = 0
    for doc_id, sig in got:
        if doc_id in seen or expected.get(doc_id) != sig:
            wrong += 1
        seen.add(doc_id)
    wrong += sum(1 for doc_id in expected if doc_id not in seen)
    return min(wrong, len(expected))
