"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline
(SURVEY.md §2 + the training-data ops); ``oracle_sql()`` provides the
DuckDB-equivalent SQL for every SQL-expressible query.  Ray is
initialised by the driver before this module is imported — nothing here
calls ``ray.init()``/``ray.shutdown()``.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

from fetch_engines_ray.arrowclean import read_parquet_clean

_SYNTH_DOCS = {"0.001": 300, "0.01": 1500, "0.1": 6000}


def _sf_of(sf_dir: str) -> str:
    base = os.path.basename(sf_dir.rstrip("/"))
    return base.replace("sf", "") if base.startswith("sf") else "0.01"


def _synth_corpus(sf_dir: str) -> str:
    """Deterministic interleaved-span corpus scaled to the sf level
    (BASELINE.json input_hint shape; synthesized, cached under /tmp)."""
    from fetch_engines_ray.corpus.generate import generate_corpus

    sf = _sf_of(sf_dir)
    n = _SYNTH_DOCS.get(sf, 1000)
    key = hashlib.md5(f"{sf}:{n}:v3".encode()).hexdigest()[:10]
    out = f"/tmp/fer_corpus_{sf}_{key}"
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        generate_corpus(out, num_docs=n, seed=42, rows_per_file=500)
        with open(marker, "w") as f:
            f.write("ok")
    return out


# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship extraction pipeline on /root/testdata/sf0.001 scale."""
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    corpus = _synth_corpus("/root/testdata/sf0.001")
    cfg = PipelineConfig(batch_size=16)
    ds = extract_corpus(corpus, cfg)
    return ds.select_columns(
        ["doc_id", "title", "route", "shell_score", "quality_score", "n_out_chars", "archetype"]
    )


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


# One extraction run per (sf, process): four registry queries consume
# the same deterministic extraction output — materialize it once (it is
# gate-scale small: ~1.5k rows at sf0.01) instead of re-running the
# pipeline per query.  Determinism is pytest-pinned (span goldens), so
# memoization cannot change any query's result.
_EXTRACT_CACHE: dict = {}


def _extracted(sf_dir: str):
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    corpus = _synth_corpus(sf_dir)
    ds = _EXTRACT_CACHE.get(corpus)
    if ds is None:
        ds = extract_corpus(corpus, PipelineConfig(batch_size=16)).materialize()
        _EXTRACT_CACHE[corpus] = ds
    return ds


def _q_extract_pipeline(sf_dir: str) -> Any:
    return _extracted(sf_dir).select_columns(
        ["doc_id", "title", "route", "shell_score", "quality_score", "n_out_chars", "archetype"]
    )


def _q_png_decode(sf_dir: str) -> Any:
    """REAL image decode, SQL-oracled: every documents row gets a planted
    PNG payload (genuine bytes — IHDR/IDAT/IEND, CRC'd, zlib-compressed,
    cycling all five PNG row filters) whose dimensions and pixel pattern
    follow a closed form of doc_id; the engine recovers width/height/
    pixel_sum ONLY by decoding the bytes (ops/png.py), then plans the
    224x224 letterbox resize.  The oracle mirrors the closed form in
    SQL — a header-peek or pass-through cannot fake pixel_sum."""
    import pyarrow as pa

    from fetch_engines_ray.ops.multimodal import PngDecoder
    from fetch_engines_ray.ops.png import planted_png

    def attach_payload(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], type=pa.int64()),
                "payload": pa.array([planted_png(int(i)) for i in ids], type=pa.binary()),
            }
        )

    ds = (
        _read_documents(sf_dir)
        .select_columns(["doc_id"])
        .map_batches(attach_payload, batch_format="pyarrow", batch_size=512)
        .map_batches(
            PngDecoder, batch_format="pyarrow", batch_size=256, concurrency=2, num_cpus=1
        )
    )
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_wav_decode(sf_dir: str) -> Any:
    """REAL audio decode, SQL-oracled: every documents row gets a
    planted RIFF/WAVE 16-bit PCM payload whose sample values follow a
    closed integer form of doc_id; the engine recovers sample rate /
    sample count / |PCM| sum / framing count ONLY by parsing the bytes
    (ops/wav.py).  The oracle mirrors the closed form in SQL."""
    import pyarrow as pa

    from fetch_engines_ray.ops.multimodal import WavDecoder
    from fetch_engines_ray.ops.wav import planted_wav

    def attach_payload(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], type=pa.int64()),
                "payload": pa.array([planted_wav(int(i)) for i in ids], type=pa.binary()),
            }
        )

    ds = (
        _read_documents(sf_dir)
        .select_columns(["doc_id"])
        .map_batches(attach_payload, batch_format="pyarrow", batch_size=512)
        .map_batches(
            WavDecoder, batch_format="pyarrow", batch_size=256, concurrency=2, num_cpus=1
        )
    )
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_gif_decode(sf_dir: str) -> Any:
    """REAL video decode, SQL-oracled: every documents row gets a
    planted animated-GIF payload (genuine GIF89a bytes — logical screen,
    64-color global table, per-frame Graphic Control delays,
    variable-width LZW image data) whose frame pixels and delays follow
    a closed form of doc_id; the engine recovers width/height/n_frames/
    duration/pixel sums ONLY by LZW-decoding every frame (ops/gif.py).
    ``mid_frame_sum`` additionally pins the middle (``n_frames // 2``) frame.
    The oracle mirrors the closed form in SQL — a header-peek cannot
    fake the pixel sums."""
    import pyarrow as pa

    from fetch_engines_ray.ops.gif import planted_gif
    from fetch_engines_ray.ops.multimodal import GifDecoder

    def attach_payload(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], type=pa.int64()),
                "payload": pa.array([planted_gif(int(i)) for i in ids], type=pa.binary()),
            }
        )

    ds = (
        _read_documents(sf_dir)
        .select_columns(["doc_id"])
        .map_batches(attach_payload, batch_format="pyarrow", batch_size=512)
        .map_batches(
            GifDecoder, batch_format="pyarrow", batch_size=256, concurrency=2, num_cpus=1
        )
    )
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_jpeg_decode(sf_dir: str) -> Any:
    """REAL lossy-image decode, SQL-oracled: every documents row gets a
    planted baseline-JPEG payload (genuine JFIF bytes — Annex-K quant +
    Huffman tables, entropy-coded scan) whose solid-tile gray level
    follows a closed form of doc_id and quantizes LOSSILY at quality 50;
    the engine recovers width/height/level/pixel_sum ONLY by Huffman-
    decoding the scan and running the IDCT (ops/jpeg.py).  The oracle
    mirrors the quantization closed form in SQL — a header peek or
    pass-through cannot fake the even-level collapse."""
    import pyarrow as pa

    from fetch_engines_ray.ops.jpeg import planted_jpeg
    from fetch_engines_ray.ops.multimodal import JpegDecoder

    def attach_payload(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], type=pa.int64()),
                "payload": pa.array(
                    [planted_jpeg(int(i)) for i in ids], type=pa.binary()
                ),
            }
        )

    ds = (
        _read_documents(sf_dir)
        .select_columns(["doc_id"])
        .map_batches(attach_payload, batch_format="pyarrow", batch_size=512)
        .map_batches(
            JpegDecoder, batch_format="pyarrow", batch_size=256, concurrency=2, num_cpus=1
        )
    )
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _read_documents(sf_dir: str):
    import ray.data

    return read_parquet_clean(f"{sf_dir}/documents.parquet")


def _q_doc_token_counts(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.textstats import add_token_count

    ds = _read_documents(sf_dir).map_batches(
        add_token_count, batch_format="pyarrow", batch_size=4096
    )
    return ds.select_columns(["doc_id", "token_count"]).to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_doc_bpe_token_counts(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.textstats import add_bpe_token_count

    ds = _read_documents(sf_dir).map_batches(
        add_bpe_token_count, batch_format="pyarrow", batch_size=4096
    )
    return (
        ds.select_columns(["doc_id", "bpe_token_count"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_token_budget_selection(sf_dir: str) -> Any:
    """Token-budget curation cut (ops/budget.py): keep the best docs by
    a quantized score until a global 15 000-token budget is spent.
    Contract = the SQL window rule
    ``SUM(tokens) OVER (ORDER BY score DESC, doc_id ASC) <= 15000``."""
    import numpy as np
    import pyarrow as pa

    from fetch_engines_ray.ops.budget import select_token_budget
    from fetch_engines_ray.ops.textstats import add_token_count

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "score": pa.array(ids % 7, type=pa.int64()),
                "tokens": batch["token_count"],
            }
        )

    ds = (
        _read_documents(sf_dir)
        .map_batches(add_token_count, batch_format="pyarrow", batch_size=4096)
        .map_batches(prep, batch_format="pyarrow", batch_size=4096)
    )
    out = select_token_budget(ds, 15_000, "score", "tokens")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_supplier_graph_pagerank(sf_dir: str) -> Any:
    """DISTRIBUTED PageRank (ops/graph.pagerank_distributed — the
    rank-table-as-Dataset form built for 10^9-node link graphs) over
    the supplier→nation→region hierarchy derived from the test tables,
    fully SQL-oracled: the DuckDB side unrolls the same 4 damped power
    iterations as chained CTEs, including the dangling-mass
    redistribution the leaf-less region nodes exercise.  Ranks ship as
    half-up-rounded 1e-9 integers (ranks are positive, so half-up ==
    half-away == SQL round); node namespaces are offset (+1e6 nations,
    +2e6 regions) so the three key spaces cannot collide."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as _pc

    from fetch_engines_ray.ops.graph import pagerank_distributed

    sup = read_parquet_clean(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nat = read_parquet_clean(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )

    def sup_edges(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": _pc.cast(b["s_suppkey"], pa.int64()),
                "dst": _pc.add(
                    _pc.cast(b["s_nationkey"], pa.int64()), pa.scalar(1_000_000)
                ),
            }
        )

    def nat_edges(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": _pc.add(
                    _pc.cast(b["n_nationkey"], pa.int64()), pa.scalar(1_000_000)
                ),
                "dst": _pc.add(
                    _pc.cast(b["n_regionkey"], pa.int64()), pa.scalar(2_000_000)
                ),
            }
        )

    edges = sup.map_batches(sup_edges, batch_format="pyarrow", batch_size=8192).union(
        nat.map_batches(nat_edges, batch_format="pyarrow", batch_size=8192)
    )
    ranks = pagerank_distributed(
        edges, damping=0.85, n_iters=4, tol=0.0, n_parts=8
    ).to_pandas()
    ranks["rank_x1e9"] = np.floor(ranks["rank"] * 1e9 + 0.5).astype("int64")
    return ranks[["node", "rank_x1e9"]].sort_values("node").reset_index(drop=True)


def _pagerank_oracle() -> str:
    """The supplier-graph PageRank as pure SQL: 4 damped power
    iterations unrolled as chained CTEs (DuckDB's recursive CTEs
    forbid aggregation in the recursive member, so the fixed iteration
    count unrolls instead), each mirroring the engine exactly —
    ``r' = (1-d)/n + d * (incoming + dangling/n)``."""
    d = "0.85"
    head = (
        "WITH edges AS ("
        " SELECT CAST(s_suppkey AS BIGINT) AS src,"
        "  CAST(s_nationkey AS BIGINT) + 1000000 AS dst FROM supplier"
        " UNION ALL SELECT CAST(n_nationkey AS BIGINT) + 1000000,"
        "  CAST(n_regionkey AS BIGINT) + 2000000 FROM nation),"
        " nodes AS (SELECT DISTINCT node FROM"
        "  (SELECT src AS node FROM edges UNION ALL SELECT dst FROM edges) t),"
        " nn AS (SELECT CAST(count(*) AS DOUBLE) AS c FROM nodes),"
        " deg AS (SELECT src, CAST(count(*) AS DOUBLE) AS d FROM edges GROUP BY src),"
        " r0 AS (SELECT node, 1.0 / (SELECT c FROM nn) AS rank FROM nodes)"
    )
    parts = [head]
    for k in range(4):
        parts.append(
            f", dang{k} AS (SELECT COALESCE(sum(r.rank), 0) AS m FROM r{k} r"
            f"  LEFT JOIN deg g ON g.src = r.node WHERE g.src IS NULL)"
            f", r{k + 1} AS (SELECT n.node,"
            f"  (1 - {d}) / (SELECT c FROM nn)"
            f"  + {d} * (COALESCE(i.s, 0) + (SELECT m FROM dang{k}) / (SELECT c FROM nn))"
            f"  AS rank"
            f" FROM nodes n LEFT JOIN ("
            f"  SELECT e.dst AS node, sum(r.rank / g.d) AS s"
            f"  FROM edges e JOIN r{k} r ON r.node = e.src"
            f"  JOIN deg g ON g.src = e.src GROUP BY e.dst) i ON i.node = n.node)"
        )
    parts.append(
        " SELECT node, CAST(floor(rank * 1000000000 + 0.5) AS BIGINT) AS rank_x1e9"
        " FROM r4 ORDER BY node"
    )
    return "".join(parts)


def _q_doc_row_index(sf_dir: str) -> Any:
    """Global contiguous row index (Spark ``zipWithIndex`` analog,
    ops/indexing.py) pinned to the (n_chars DESC, doc_id ASC) sort
    order — oracle is ``row_number() OVER (...) - 1``."""
    from fetch_engines_ray.ops.indexing import zip_with_index

    ds = (
        _read_documents(sf_dir)
        .select_columns(["doc_id", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
    )
    out = zip_with_index(ds)
    return (
        out.select_columns(["doc_id", "row_index"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_top_tokens(sf_dir: str) -> Any:
    """Corpus-wide exact top-15 tokens via the Misra-Gries sketch +
    exact recount (``ops/sketches.py::heavy_hitters_exact``) — the
    bounded-state alternative to a full distinct-token groupby.  The
    in-query assertion pins the survival-bound guarantee; the SQL
    oracle is the full GROUP BY the sketch avoids at scale."""
    import pyarrow as pa

    from fetch_engines_ray.ops.sketches import heavy_hitters_exact

    def explode(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch["text"].to_pylist():
            toks.extend((t or "").split())
        return pa.table({"token": pa.array(toks, type=pa.string())})

    ds = (
        _read_documents(sf_dir)
        .select_columns(["text"])
        .map_batches(explode, batch_format="pyarrow", batch_size=2048)
    )
    out = heavy_hitters_exact(ds, "token", k=15, capacity=4096)
    assert out.attrs["exact_topk"] is True, "top-15 not guaranteed at capacity 4096"
    out = out.rename(columns={"value": "token", "count": "n"})
    return out[["token", "n"]].reset_index(drop=True)


def _q_doc_normalized_text(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.textstats import add_normalized_text

    ds = _read_documents(sf_dir).map_batches(
        add_normalized_text, batch_format="pyarrow", batch_size=4096
    )
    return (
        ds.select_columns(["doc_id", "norm_text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_domain_mixture(sf_dir: str) -> Any:
    """Domain-mixture selection (ops/mixing.py — the DoReMi-style
    token-budgeted sampling step between curation and packing), FULLY
    SQL-oracled with the md5 priority kernel: the oracle recomputes
    priorities, the per-domain window cumulative sums and the budget
    cut.  (This slot replaced the trivial md5 train/val split under the
    50-query cap — that kernel stays pinned vs DuckDB in
    tests/test_mixing.py::test_retired_train_val_split_vs_duckdb, and
    the md5-hash-order idea lives on here, strictly richer.)"""
    from fetch_engines_ray.ops.mixing import sample_token_budget

    out = (
        sample_token_budget(
            _read_documents(sf_dir).select_columns(["doc_id", "lang", "text"]),
            _MIXTURE_BUDGETS,
            domain_col="lang",
            seed=7,
            hash_fn="md5",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_tokens": "int64"})
    )
    # every budgeted domain must actually contribute (budgets are sized
    # to bind well below any sf's per-domain token mass)
    assert set(out["lang"]) == set(_MIXTURE_BUDGETS), set(out["lang"])
    per = out.groupby("lang")["n_tokens"].sum().to_dict()
    for lang, budget in _MIXTURE_BUDGETS.items():
        assert 0 < per[lang] <= budget, (lang, per[lang], budget)
    return out


_MIXTURE_BUDGETS = {"en": 3000, "de": 2000, "fr": 1500}


# Planted on BOTH engine and oracle side: the synthetic documents
# contain no natural PII, so without these the redaction path would be
# unexercised by the correctness gate (the round-1 near-dup lesson).
_PII_PLANTS = [
    (1000000, "Contact alice.smith+spam@example-mail.co.uk or bob@sub.example.org today."),
    (1000001, "Server at 192.168.1.254 and 8.8.8.8; bogus 999.999.999.999 too."),
    (1000002, "Call +1-555-123-4567 or (020) 7946-0958 before 5pm."),
    (1000003, "No pii here, just text with numbers 42 and a dot."),
    (1000004, "mixed: eve@corp.io from 10.0.0.1 dialed 555-867-5309."),
]


def _q_doc_pii_redaction(sf_dir: str) -> Any:
    import ray.data

    from fetch_engines_ray.ops.textstats import add_pii_redacted

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    planted = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in _PII_PLANTS]
    )
    ds = docs.union(planted).map_batches(
        add_pii_redacted, batch_format="pyarrow", batch_size=4096
    )
    return (
        ds.select_columns(["doc_id", "redacted_text", "pii_count"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


# Planted on BOTH engine and oracle side: the synthetic documents are
# single-line with no sentence punctuation, so without multi-line
# plants the C4 line rules would be unexercised by the gate.  One plant
# per rule: blocklist lines, short lines, missing terminal punctuation,
# lorem-ipsum page, curly-brace (code) page, too-few-sentences page,
# many-sentences-one-line, empty doc, tab/trailing-space handling.
_C4_PLANTS = [
    (
        2200000,
        "This is a fine opening sentence.\nshort.\nNo terminal punctuation on this line\n"
        "Another good sentence follows right here!\nIs this a question, perhaps?\n"
        "We use javascript on this site.\nPlease read our cookie policy today.\n"
        'He said "stop right there."\nA final proper sentence, number five.',
    ),
    (
        2200001,
        "Lorem Ipsum filler is here.\n"
        + "\n".join(f"A perfectly good sentence number {i}." for i in range(6)),
    ),
    (2200002, "function f() {\ngood sentences. here. more. and more. and more.\n}"),
    (2200003, "Only two good sentences here.\nAnd the second one is here."),
    (2200004, "Many sentences. In one line! Right? Yes. Indeed. Sure."),
    (2200005, ""),
    (
        2200006,
        "word\t\tword  word ends.\n   \t \ntrailing spaces sentence here.   \n"
        "mid\ttab sentence counts fine.\nfourth proper sentence right here.\n"
        "fifth proper sentence right here.",
    ),
]


def _q_c4_line_filters(sf_dir: str) -> Any:
    """C4-style line-level cleaning (Raffel et al. 2020 §2.2; ops/c4.py):
    per-line terminal-punctuation / min-words / boilerplate rules plus
    the page-level sentence-count, curly-brace and lorem-ipsum gates —
    fully SQL-oracled via DuckDB list lambdas (line order preserved)."""
    import ray.data

    from fetch_engines_ray.ops.c4 import add_c4_filters

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    planted = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in _C4_PLANTS]
    )
    ds = docs.union(planted).map_batches(
        add_c4_filters, batch_format="pyarrow", batch_size=4096
    )
    return (
        ds.select_columns(
            ["doc_id", "c4_text", "c4_n_lines_kept", "c4_n_lines_total",
             "c4_n_sentences", "c4_page_pass"]
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


# Planted beside the real documents (which are repetitive word soup —
# good natural coverage): degenerate shapes the corpus lacks — empty /
# whitespace-only docs, single-word docs, saturating overlap-repeats.
_DUP_NGRAM_PLANTS = [
    (2300000, "the cat sat on the mat the cat sat again on the mat"),
    (2300001, "a a a a a a a a"),
    (2300002, ""),
    (2300003, "   \t \n "),
    (2300004, "repeat phrase here now repeat phrase here now repeat phrase here now"),
    (2300005, "  spaced   out\twords\nnewline words spaced   out\twords "),
    (2300006, "solo"),
]


def _q_doc_dup_ngram_stats(sf_dir: str) -> Any:
    """Gopher repeated-n-gram quality signals (Rae et al. 2021 Table A1;
    ops/textstats.py::add_dup_ngram_stats): per-doc top-n-gram and
    duplicated-n-gram character-coverage fractions, n = 2-4 / 5-10 —
    fully SQL-oracled (the oracle groups by the gram STRING, bounding
    the engine's 64-bit rolling-hash collision rate every sweep)."""
    import ray.data

    from fetch_engines_ray.ops.textstats import add_dup_ngram_stats

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    planted = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in _DUP_NGRAM_PLANTS]
    )
    ds = docs.union(planted).map_batches(
        add_dup_ngram_stats, batch_format="pyarrow", batch_size=4096
    )
    cols = ["doc_id", "total_chars"]
    cols += [f"top{n}gram_frac_x1000" for n in (2, 3, 4)]
    cols += [f"dup{n}gram_frac_x1000" for n in (5, 6, 7, 8, 9, 10)]
    return (
        ds.select_columns(cols)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_doc_repetition_stats(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.textstats import add_repetition_stats

    ds = _read_documents(sf_dir).map_batches(
        add_repetition_stats, batch_format="pyarrow", batch_size=4096
    )
    return (
        ds.select_columns(["doc_id", "n_lines", "n_distinct_lines"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_doc_sequence_packing(sf_dir: str) -> Any:
    """Greedy sequence packing — FULLY SQL-oracled (round 4): this
    query runs the deterministic global-doc_id-order form (sort +
    repartition(1) + whole-block batch — the gate-scale shape; the
    scale posture stays shard-local batched packing as in
    pipelines/curate) and returns the per-DOC assignment table
    ``(doc_id, seq_id, is_oversize, seq_total_tokens, seq_n_docs)``.
    The DuckDB oracle replays the greedy capacity fold row-by-row with
    a recursive CTE — including the engine's rule that an over-budget
    doc CLOSES any open sequence — so a green hash proves the packing
    algorithm itself, not just its invariants.  Both packing invariants
    are still asserted every sweep."""
    import pandas as pd

    from fetch_engines_ray.ops.packing import pack_sequences

    docs = (
        _read_documents(sf_dir)
        .select_columns(["doc_id", "text"])
        .sort("doc_id")
        .repartition(1)
    )
    out = pack_sequences(docs, max_tokens=512, batch_size=None).to_pandas()
    # pack_sequences' _OUT_SCHEMA always carries "oversize" — assert it
    # rather than half-guarding (the old conditional anticipated its
    # absence and then read it unconditionally two lines later)
    assert "oversize" in out.columns, "pack_sequences schema contract broken"
    ok = out[~out["oversize"]]
    assert (ok["total_tokens"] <= 512).all(), "pack over budget"
    packed_docs = [d for ids in out["doc_ids"] for d in ids]
    n_input = _read_documents(sf_dir).count()
    assert len(packed_docs) == len(set(packed_docs)) == n_input, (
        f"packing coverage broken: {len(packed_docs)} packed of {n_input}"
    )
    rows = [
        (int(d), int(r["seq_id"]), int(bool(r["oversize"])), int(r["total_tokens"]), int(r["n_docs"]))
        for _, r in out.iterrows()
        for d in r["doc_ids"]
    ]
    return (
        pd.DataFrame(
            rows,
            columns=["doc_id", "seq_id", "is_oversize", "seq_total_tokens", "seq_n_docs"],
        )
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_doc_stats_by_lang(sf_dir: str) -> Any:
    from ray.data.aggregate import Count, Sum

    ds = _read_documents(sf_dir)
    out = (
        ds.groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="total_chars"))
        .to_pandas()
    )
    return out.sort_values("lang").reset_index(drop=True)


def _q_text_features(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.textstats import text_features_pipeline

    ds = text_features_pipeline(_read_documents(sf_dir))
    return (
        ds.select_columns(["doc_id", "token_count", "lang_pred", "fingerprint"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_exact_dedup(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.dedup import exact_dedup_groups

    out = exact_dedup_groups(_read_documents(sf_dir)).to_pandas()
    return out.sort_values("text_hash").reset_index(drop=True)


def _q_top20_longest_docs(sf_dir: str) -> Any:
    ds = _read_documents(sf_dir)
    return (
        ds.select_columns(["doc_id", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(20)
        .to_pandas()
    )


def _q_minhash_pairs(sf_dir: str) -> Any:
    """MinHash-LSH near-dup pairs over documents PLUS five planted
    exact clones (doc_id + 2000000 copies of docs 0-4) — FULLY
    SQL-oracled (round 4): the query runs the DuckDB-reproducible
    signature family (gram hash = high-32 md5 mod 2^31-1, closed-form
    affine permutations — ops/dedup._md5_modp_signatures) and the
    oracle recomputes signatures, the 16x4 banding, candidate pairs AND
    the est >= threshold verification in SQL, so a green hash proves
    the whole LSH pipeline end-to-end (est_jaccard = k/64 is dyadic —
    bit-identical float on both engines).  Planted clones additionally
    asserted at est 1.0 (fails fast with a named pair).  The
    siphash/mod-2^64 kernel stays the scale default (bench times it)."""
    from fetch_engines_ray.ops.dedup import minhash_lsh_pairs

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs.union(_planted_clone_docs(docs)), hash_fn="md5")
    found = {
        (int(a), int(b)): float(j)
        for a, b, j in zip(pairs["doc_a"], pairs["doc_b"], pairs["est_jaccard"])
    }
    for i in range(5):
        est = found.get((i, 2000000 + i))
        assert est == 1.0, f"planted clone pair ({i}, {2000000 + i}) missing/est={est}"
    return pairs


def _q_neardup_clusters(sf_dir: str) -> Any:
    """Distributed near-dup CLUSTER RESOLUTION — the Dataset-native
    verdict pipeline curate_corpus(drop_strategy="semi_join") runs on
    (ops/dedup.minhash_dedup_ds: Dataset candidate pairs, two
    partitioned signature-attach verify passes, min-label propagation)
    — FULLY SQL-oracled: the oracle recomputes the md5/mod-p signature
    family, banding, candidates, est>=0.7 verification AND the
    connected-component min-label contraction (transitive closure as a
    recursive CTE) from the documents table.  Planted clones asserted
    every sweep: each (i, i+2000000) pair must share a cluster with the
    clone dropped."""
    from fetch_engines_ray.ops.dedup import minhash_dedup_ds

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    out = (
        minhash_dedup_ds(
            docs.union(_planted_clone_docs(docs)), threshold=0.7, hash_fn="md5"
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "cluster_rep": "int64", "is_kept": "bool"})
    )
    reps = dict(zip(out["doc_id"], out["cluster_rep"]))
    kept = dict(zip(out["doc_id"], out["is_kept"]))
    for i in range(5):
        ci = reps.get(2000000 + i)
        assert ci is not None and ci == reps.get(i, i), (
            f"planted clone {2000000 + i} not clustered with {i}: "
            f"{ci} vs {reps.get(i, i)}"
        )
        assert kept[2000000 + i] is False or bool(kept[2000000 + i]) is False
    return out


def _q_doc_decontamination(sf_dir: str) -> Any:
    """Benchmark decontamination (GPT-3-style n-gram overlap), fully
    SQL-oracled: flag every document whose word 5-grams intersect a
    benchmark set.  The benchmark derives deterministically from the
    corpus itself (the first 10 words of doc 3 → guaranteed hits, plus
    a novel string → guaranteed miss), mirrored verbatim in the oracle.
    The engine path is the broadcast one: benchmark hashes ray.put once,
    corpus streams through one vectorized map_batches, no shuffle.

    (This slot replaced the rows-only ``minhash_dedup_decisions`` —
    the decision logic stays pytest-pinned: driver union-find ==
    distributed label propagation, plus invariant checks, in
    tests/test_ops.py.)"""
    from fetch_engines_ray.ops.decontam import flag_contaminated

    import pyarrow.compute as pc

    docs = _read_documents(sf_dir)
    d3 = docs.map_batches(
        lambda b: b.filter(pc.equal(b["doc_id"], 3)),
        batch_format="pyarrow",
        batch_size=4096,
    ).take_all()
    excerpt = " ".join((d3[0]["text"] or "").split()[:10])
    bench = [excerpt, "zz unseen benchmark zz phrase zz never zz in zz corpus"]
    out = (
        flag_contaminated(docs, bench, n=5)
        .select_columns(["doc_id", "n_contaminated_ngrams", "contaminated"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # planted guarantees: doc 3 must be contaminated (its own excerpt)
    assert out.loc[out["doc_id"] == 3, "contaminated"].iloc[0]
    return out


def _planted_clone_docs(docs, n: int = 5, id_shift: int = 2000000):
    """Exact clones of docs 0..n-1 under doc_id + id_shift — the
    provable-lower-bound plant shared by the dedup-pair queries."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def clone(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.less(batch["doc_id"], n))
        return pa.table(
            {
                "doc_id": pc.add(keep["doc_id"], pa.scalar(id_shift)),
                "text": keep["text"],
            }
        )

    return docs.map_batches(clone, batch_format="pyarrow", batch_size=4096)


def _q_ngram_jaccard_pairs(sf_dir: str) -> Any:
    """Exact n-gram-Jaccard-verified near-dup pairs — FULLY SQL-oracled:
    the oracle computes the true all-pairs 3-gram Jaccard set, so a
    green hash proves both the exact verifier AND perfect LSH recall on
    this corpus.  Planted clones additionally asserted at 1000 here
    (fails fast with a named pair instead of a hash diff)."""
    from fetch_engines_ray.ops.dedup import ngram_jaccard_pairs

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs.union(_planted_clone_docs(docs)))
    found = {
        (int(a), int(b)): int(j)
        for a, b, j in zip(pairs["doc_a"], pairs["doc_b"], pairs["jaccard_x1000"])
    }
    for i in range(5):
        j = found.get((i, 2000000 + i))
        assert j == 1000, f"planted clone pair ({i}, {2000000 + i}) missing/j={j}"
    return pairs


def _q_simhash_pairs(sf_dir: str) -> Any:
    """SimHash near-dup pairs — FULLY SQL-oracled (round 4): the query
    runs the md5 token-hash variant (bit-reproducible in DuckDB), and
    since 4-chunk banding is LOSSLESS at hamming ≤ 3 (pigeonhole), the
    oracle's exact all-pairs hamming set must equal the banded result —
    a green hash proves the fingerprint kernel, the banding recall AND
    the verifier.  Planted exact clones additionally asserted at
    hamming 0 (fails fast with a named pair instead of a hash diff).
    The siphash default stays the scale path for non-oracle use."""
    from fetch_engines_ray.ops.dedup import simhash_pairs

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    pairs = simhash_pairs(docs.union(_planted_clone_docs(docs)), hash_fn="md5")
    found = {
        (int(a), int(b)): int(h)
        for a, b, h in zip(pairs["doc_a"], pairs["doc_b"], pairs["hamming"])
    }
    for i in range(5):
        h = found.get((i, 2000000 + i))
        assert h == 0, f"planted clone pair ({i}, {2000000 + i}) missing/hamming={h}"
    return pairs


def _read_embeddings(sf_dir: str):
    import ray.data

    return read_parquet_clean(f"{sf_dir}/embeddings.parquet")


def _q_knn_bruteforce(sf_dir: str) -> Any:
    """Exact brute-force kNN (SQL-oracled) PLUS the every-sweep IVF
    recall self-check that used to live in the retired ``ivf_knn``
    rows-only slot: the approximate probe-limited search must keep mean
    recall@10 >= 0.5 vs this exact result (the pytest bound, enforced at
    every sf).  The oracled return value is the exact result only."""
    from fetch_engines_ray.ops.similarity import ivf_knn, knn_bruteforce

    qids = list(range(8))
    exact = knn_bruteforce(_read_embeddings(sf_dir), query_ids=qids, k=10)
    approx = ivf_knn(_read_embeddings(sf_dir), query_ids=qids, k=10)
    recalls = []
    for q in qids:
        e = set(exact[exact["query_id"] == q]["neighbor_id"])
        a = set(approx[approx["query_id"] == q]["neighbor_id"])
        if e:
            recalls.append(len(e & a) / len(e))
    mean_recall = sum(recalls) / max(1, len(recalls))
    assert mean_recall >= 0.5, f"IVF recall degraded: {mean_recall:.3f}"
    return exact


# micro-nat cut points on (-lm_logprob_micro) // lm_token_count for the
# synthetic documents corpus (~1/3 head, ~55% middle, ~10% tail at every
# sf); corpus-specific cut points come from ops.lm.mean_neg_quantiles
_LM_BUCKETS = (3_400_000, 3_410_000)


def _q_doc_lm_perplexity(sf_dir: str) -> Any:
    """CCNet-style unigram-LM perplexity scoring + head/middle/tail
    bucketing (Wenzek et al. 2020).  Train = one distributed word-count
    shuffle; score = broadcast LM + vectorized searchsorted per batch.
    Exact-integer contract (per-word micro-nat constants quantized once
    at train time) makes the whole thing value-hash SQL-oracleable."""
    import ray.data

    from fetch_engines_ray.ops.lm import score_perplexity, train_unigram_lm

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    lm = train_unigram_lm(ds)
    scored = score_perplexity(ds, lm, buckets=_LM_BUCKETS)
    return (
        scored.select_columns(["doc_id", "lm_token_count", "lm_logprob_micro", "ppl_bucket"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_embedding_near_dups(sf_dir: str) -> Any:
    """Embedding near-dup pairs over the sf embeddings PLUS ten planted
    exact-duplicate vectors (vec_id + 100000) — the synthetic tables
    contain no natural near-dups (max off-diagonal cosine ~0.51), so the
    planted clones deterministically exercise the threshold path at
    every sf and make the query oracle-checkable."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fetch_engines_ray.ops.similarity import embedding_near_dup_pairs

    emb = _read_embeddings(sf_dir)

    def clone_first10(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.less(batch["vec_id"], 10))
        return pa.table(
            {
                "vec_id": pc.add(keep["vec_id"], pa.scalar(100000)),
                "embedding": keep["embedding"],
                "label": keep["label"],
            }
        )

    planted = emb.map_batches(clone_first10, batch_format="pyarrow", batch_size=4096)
    # pairs come back as a streaming Dataset; only this tiny result set
    # is collected for the gate comparison
    out = embedding_near_dup_pairs(emb.union(planted), threshold=0.98).to_pandas()
    out = out[["doc_a", "doc_b"]].astype("int64")
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# Single-file spill consumed by the extract_quality oracle: the query
# (which the gate always runs immediately before its SQL) overwrites it
# with the CURRENT sf's per-doc eval rows, so the oracle needs no
# sf-dependent path.  One file per process, because queries() and
# oracle_sql() run in the SAME process by the gate contract and a
# concurrent run in another process must not clobber it.  It is made
# with tempfile.mkstemp under FER_CHECKPOINT_DIR (default /tmp): an
# unguessable name created owner-only, never a predictable path in a
# world-writable directory.  It is removed when the process exits.
_evalrows_spill_path: str | None = None


def _evalrows_spill() -> str:
    global _evalrows_spill_path
    if _evalrows_spill_path is None:
        import atexit
        import contextlib
        import tempfile

        root = os.environ.get("FER_CHECKPOINT_DIR", "/tmp")
        os.makedirs(root, exist_ok=True)
        fd, path = tempfile.mkstemp(prefix="fer_evalrows_gate_", suffix=".parquet", dir=root)
        os.close(fd)

        def remove() -> None:
            with contextlib.suppress(OSError):
                os.remove(path)

        atexit.register(remove)
        _evalrows_spill_path = path
    return _evalrows_spill_path


def _q_extract_quality_by_archetype(sf_dir: str) -> Any:
    """Per-archetype eval aggregation, FULLY SQL-oracled (round 5,
    closing the round-4 rows-only slot): the per-doc eval columns
    (archetype, quality_score, n_out_chars, error_code) spill to one
    deterministic parquet file; the engine aggregates them with the
    same distributed flag+groupby kernel write_eval_report runs
    (sources/io.py, mirroring eval-auto-render.mjs:27-62); the oracle
    RECOMPUTES pass/gate flags and the grouped sums from the raw
    spilled columns in SQL.  The gates math is thereby verified
    independently, while extraction itself stays pinned by the span
    goldens + whole-corpus digest (rows-only by design).  The
    reference's fleet gate verdict (gated>=0.8, static>=1.0, spa>=0.5,
    auto-render-cases.ts:23-25) is still asserted in-query every
    sweep."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    from fetch_engines_ray.sources import write_eval_report

    ds = _extracted(sf_dir)
    report = write_eval_report(ds, path="")
    assert report["gates"]["gates_passed"] is True, report["gates"]

    has_error = "error_code" in ds.schema().names

    def evalrows(batch: pa.Table) -> pa.Table:
        err = (
            pc.fill_null(batch["error_code"], "")
            if has_error
            else pa.array([""] * batch.num_rows, type=pa.string())
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "archetype": batch["archetype"],
                "quality_score": pc.cast(batch["quality_score"], pa.int64()),
                "n_out_chars": pc.cast(batch["n_out_chars"], pa.int64()),
                "error_code": err,
            }
        )

    rows = ds.map_batches(evalrows, batch_format="pyarrow", batch_size=1024)
    # gate-scale small by contract (one row per extracted doc at sf<=0.01)
    spill = rows.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pq.write_table(
        pa.Table.from_pandas(spill, preserve_index=False), _evalrows_spill()
    )

    def flags(batch: pa.Table) -> pa.Table:
        passed = pc.cast(
            pc.greater_equal(batch["n_out_chars"], pa.scalar(40, type=pa.int64())),
            pa.int64(),
        )
        hard = pc.equal(batch["error_code"], "ERR_CHALLENGE_PAGE")
        gated = pc.cast(
            pc.and_(pc.invert(hard), pc.not_equal(batch["archetype"], "fixture")),
            pa.int64(),
        )
        return pa.table(
            {
                "archetype": batch["archetype"],
                "quality_score": batch["quality_score"],
                "passed": passed,
                "gated": gated,
                "gated_pass": pc.multiply(passed, gated),
            }
        )

    agg = (
        rows.map_batches(flags, batch_format="pyarrow", batch_size=1024)
        .groupby("archetype")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("passed", alias_name="n_passed"),
            Sum("gated", alias_name="n_gated"),
            Sum("gated_pass", alias_name="n_gated_pass"),
            Sum("quality_score", alias_name="sum_quality"),
        )
        .to_pandas()
        .sort_values("archetype")
        .reset_index(drop=True)
    )
    for c in ("n_docs", "n_passed", "n_gated", "n_gated_pass", "sum_quality"):
        agg[c] = agg[c].astype("int64")
    return agg


def _q_doc_winnowing_fingerprints(sf_dir: str) -> Any:
    """Winnowing fingerprints (no SQL oracle: DuckDB lacks crc32), with
    a planted self-check every sweep: exact text clones MUST produce
    byte-identical fingerprint lists (the defining property the dedup
    consumer relies on)."""
    from fetch_engines_ray.ops.textstats import add_winnowing_fingerprint

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    ds = docs.union(_planted_clone_docs(docs)).map_batches(
        add_winnowing_fingerprint, batch_format="pyarrow", batch_size=2048
    )
    out = (
        ds.select_columns(["doc_id", "fp_hashes"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    by_id = dict(zip(out["doc_id"], out["fp_hashes"]))
    for i in range(5):
        a, b = list(by_id[i]), list(by_id[2000000 + i])
        assert a == b, f"clone {i} fingerprint drift: {a[:3]}... vs {b[:3]}..."
    return out


def _q_events_value_lag(sf_dir: str) -> Any:
    """Generic SQL window-function parity: LAG/LEAD of each user's event
    value ordered by time (ops/window.py — hash-partitioned vectorized
    pandas windows, no per-key map_groups).  Values ride as integer
    cents with -1 sentinels at partition edges and timestamps as epoch
    micros, so the row set is null-free and value-hash exact."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from fetch_engines_ray.ops.window import lag_lead

    ev = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def to_exact(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        ts_us = pc.cast(batch["ts"], pa.int64())
        return pa.table({"user_id": batch["user_id"], "ts_us": ts_us, "value_cents": cents})

    exact = ev.map_batches(to_exact, batch_format="pyarrow", batch_size=8192)
    out = (
        lag_lead(exact, "user_id", "ts_us", "value_cents")
        .to_pandas()
        .sort_values(["user_id", "ts_us", "value_cents"], kind="mergesort")
        .reset_index(drop=True)
    )
    for c in ("value_cents_lag", "value_cents_lead"):
        out[c] = out[c].fillna(-1).astype("int64")
    return out


def _q_parts_in_supplier_band(sf_dir: str) -> Any:
    """Range (interval) join: parts whose retail price falls inside each
    supplier's account-balance ±50 band — grid-bucketed interval join."""
    import ray.data

    from fetch_engines_ray.ops.rangejoin import interval_join_counts

    import pyarrow as pa
    import pyarrow.compute as pc

    supplier = read_parquet_clean(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"])

    def to_interval(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": batch.column("s_suppkey"),
                "lo": pc.subtract(batch.column("s_acctbal"), pa.scalar(50.0)),
                "hi": pc.add(batch.column("s_acctbal"), pa.scalar(50.0)),
            }
        )

    intervals = supplier.map_batches(to_interval, batch_format="pyarrow", batch_size=8192)
    parts = read_parquet_clean(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_retailprice"])
    out = interval_join_counts(
        parts, intervals,
        point_val="p_retailprice", point_id="p_partkey",
        lo_col="lo", hi_col="hi", interval_id="s_suppkey",
        cell_width=100.0,
    )
    return out.rename(columns={"interval_id": "s_suppkey"})


def _q_doc_gopher_quality(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.textstats import add_gopher_quality_flags

    ds = _read_documents(sf_dir).map_batches(
        add_gopher_quality_flags, batch_format="pyarrow", batch_size=4096
    )
    return (
        ds.select_columns(
            ["doc_id", "n_words", "mean_word_len_x100", "symbol_ratio_x1000", "stopword_hits", "gopher_pass"]
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_clean_corpus(sf_dir: str) -> Any:
    """Composite curation pipeline: exact-dedup winners that also pass
    the Gopher-style quality rules — the canonical training-data
    cleaning chain (dedup -> quality filter).

    The dedup-winner set is corpus-sized (most docs are unique), so it
    is NEVER collected or broadcast: quality-passing docs semi-join the
    winners table with a distributed hash join on doc_id."""
    import pyarrow as pa

    from fetch_engines_ray.ops.dedup import exact_dedup_groups, n_parts_for
    from fetch_engines_ray.ops.textstats import add_gopher_quality_flags

    winners = exact_dedup_groups(_read_documents(sf_dir)).select_columns(["keep_doc_id"])

    def flags(batch: pa.Table) -> pa.Table:
        batch = add_gopher_quality_flags(batch)
        return batch.filter(batch.column("gopher_pass")).select(["doc_id", "n_words"])

    docs = _read_documents(sf_dir).map_batches(flags, batch_format="pyarrow", batch_size=4096)
    # input-scaled shuffle partitions (metadata-cheap count on the raw read)
    n_parts = n_parts_for(_read_documents(sf_dir).count())
    out = docs.join(
        winners, join_type="inner", num_partitions=n_parts, on=("doc_id",), right_on=("keep_doc_id",)
    )
    df = out.to_pandas()[["doc_id", "n_words"]]
    return df.sort_values("doc_id").reset_index(drop=True)


def _q_structured_extract(sf_dir: str) -> Any:
    """A9 analog: schema-driven typed field extraction (reference
    StructuredContentEngine contract — declared schema with described
    fields, deterministic per-field extractors, typed result)."""
    import pyarrow as pa

    from fetch_engines_ray.stages.structured import FieldSpec, structured_extract

    fields = [
        FieldSpec(
            name="first_word",
            description="First word token of the document",
            pattern=r"^\W*(?P<v>\w+)",
            default="",
        ),
        FieldSpec(
            name="after_the",
            description="Word following the first literal 'the'",
            pattern=r"\bthe\s+(?P<v>\w+)",
            default="",
        ),
        FieldSpec(
            name="first_number",
            description="First integer appearing in the document (-1 if none)",
            pattern=r"(?P<v>\d+)",
            dtype=pa.int64(),
            default=-1,
        ),
    ]
    out = structured_extract(_read_documents(sf_dir), fields)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_line_dedup_corpus(sf_dir: str) -> Any:
    """C4-style cross-corpus line dedup, fully SQL-oracled: every
    distinct non-empty line survives exactly once corpus-wide (first
    occurrence by ``(doc_id, line_no)``), documents are rebuilt from
    surviving lines, and docs that lose every line drop out.  The
    DuckDB oracle re-derives the rebuilt TEXT of every document, so a
    green hash pins the winner rule AND the reconstruction byte-for-
    byte.  (This slot replaced the rows-only ``hll_users_per_event_type``
    under the 50-query driver cap — HLL accuracy stays pytest-checked
    in tests/test_ops.py::test_hll_distinct_accuracy.)

    The testdata document texts are single-line, so the query derives a
    multi-line corpus deterministically (mirrored in the oracle):
    ``text \\n SHARED-LINE-<doc_id%7> \\n text`` — planting cross-doc
    shared lines (only 7 sentinel survivors corpus-wide), within-doc
    duplicate lines (the repeated own text), and exact-duplicate docs
    losing their text line to the min-doc_id witness."""
    import pandas as pd

    from fetch_engines_ray.ops.dedup import line_dedup

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].fillna("")
        sent = "SHARED-LINE-" + (batch["doc_id"] % 7).astype(str)
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "text": t + "\n" + sent + "\n" + t}
        )

    derived = _read_documents(sf_dir).map_batches(
        derive, batch_format="pandas", batch_size=4096
    )
    out = line_dedup(derived).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_doc_quality_counts(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.textstats import add_quality_counts, add_token_count

    def fused(b):
        return add_quality_counts(add_token_count(b))

    ds = _read_documents(sf_dir).map_batches(fused, batch_format="pyarrow", batch_size=4096)
    return (
        ds.select_columns(["doc_id", "token_count", "punct_count", "stopword_count"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def queries() -> dict[str, Callable[[str], Any]]:
    """One callable per implemented pipeline/operator.

    HARD CAP: the driver's correctness gate records at most 50 queries
    in dict order (round 2 registered 51 and the 51st silently vanished
    from CORRECTNESS_r02.json) — ``tests/test_pipeline.py`` asserts
    ``len(queries()) <= 50`` so a new entry must retire an old one.
    """
    from fetch_engines_ray.ops import relational as rel

    return {
        # flagship extraction (synthetic interleaved corpus; rows-only check)
        "extract_pipeline": _q_extract_pipeline,
        "extract_quality_by_archetype": _q_extract_quality_by_archetype,
        # (the rows-only media_decode slot was retired in round 5 for
        # the oracled neardup_cluster_verdicts below; its every-sweep
        # decode_status=="real" + framed-DSP assertions moved verbatim
        # to tests/test_media_decode_sweep.py over the same synthetic
        # extraction corpus, and the four per-kind codecs stay fully
        # SQL-oracled via png/wav/gif/jpeg_decode)
        "png_decode": _q_png_decode,
        "wav_decode": _q_wav_decode,
        "gif_decode": _q_gif_decode,
        # (the rows-only audio_features query was retired for the
        # oracled gif_decode under the 50-query cap; its real-DSP
        # assertions live with the media_decode sweep in
        # tests/test_media_decode_sweep.py and the framed
        # feature math stays pytest-covered in tests/test_wav.py.
        # Video frame sampling: tests/test_ops.py::test_frame_sampling_plan
        # plus gif_decode's mid_frame_sum midpoint pin.)
        # text analysis over documents (SQL oracles)
        "doc_token_counts": _q_doc_token_counts,
        "doc_bpe_token_counts": _q_doc_bpe_token_counts,
        "doc_normalized_text": _q_doc_normalized_text,
        "domain_mixture_selection": _q_domain_mixture,
        "doc_sequence_packing": _q_doc_sequence_packing,
        "doc_pii_redaction": _q_doc_pii_redaction,
        "doc_repetition_stats": _q_doc_repetition_stats,
        "doc_stats_by_lang": _q_doc_stats_by_lang,
        "doc_quality_counts": _q_doc_quality_counts,
        "doc_gopher_quality": _q_doc_gopher_quality,
        "clean_corpus": _q_clean_corpus,
        "text_features": _q_text_features,
        # (the rows-only doc_winnowing_fingerprints slot was retired for
        # the oracled events_value_lag under the 50-query cap: the
        # winnowing kernel stays pinned by tests/test_ops.py and the
        # positioned-winnowing consistency property test, and its
        # planted-clone assert lives on in test_ops)
        "events_value_lag": _q_events_value_lag,
        "structured_extract": _q_structured_extract,
        # dedup family
        "exact_dedup_groups": _q_exact_dedup,
        "minhash_dedup_pairs": _q_minhash_pairs,
        "neardup_cluster_verdicts": _q_neardup_clusters,
        "simhash_dedup_pairs": _q_simhash_pairs,
        "ngram_jaccard_pairs": _q_ngram_jaccard_pairs,
        "doc_decontamination": _q_doc_decontamination,
        "embedding_near_dup_pairs": _q_embedding_near_dups,
        # similarity search (the rows-only ivf_knn slot was retired for
        # the oracled doc_lm_perplexity under the 50-query cap; its
        # recall self-assert now runs inside knn_bruteforce every sweep
        # and its pytest bound lives in tests/test_ops.py)
        "knn_bruteforce": _q_knn_bruteforce,
        "doc_lm_perplexity": _q_doc_lm_perplexity,
        # relational operator parity (SQL oracles)
        "lineitem_pricing_summary": rel.lineitem_pricing_summary,
        "token_budget_selection": _q_token_budget_selection,
        # (the trivial events_value_by_type groupby-sum slot was retired
        # for the oracled lineitem_pricing_rollup under the 50-query
        # cap; the rel.events_value_by_type kernel stays pytest-covered
        # and plain groupby-sum coverage remains via
        # customer_revenue_by_segment / lineitem_pricing_summary)
        "lineitem_pricing_rollup": _q_lineitem_rollup,
        # (the customer_revenue_by_segment join+groupby slot was retired
        # for the oracled jpeg_decode under the 50-query cap; its kernel
        # stays pytest-covered and the join+groupby shape remains
        # oracled via supplier_count_by_nation / revenue_by_orderpriority)
        "jpeg_decode": _q_jpeg_decode,
        "top_tokens_exact": _q_top_tokens,
        # (the trivial top10_orders_by_price slot was retired for the
        # oracled doc_dup_ngram_stats under the 50-query cap; sort+limit
        # coverage remains via top20_longest_docs and the
        # rel.top10_orders_by_price kernel stays pytest-covered)
        "doc_dup_ngram_stats": _q_doc_dup_ngram_stats,
        "top20_longest_docs": _q_top20_longest_docs,
        # (the trivial high_value_open_orders filter slot was retired
        # for the oracled c4_line_filters under the 50-query cap; the
        # rel.high_value_open_orders kernel stays pytest-covered in
        # tests/test_ops.py and plain-filter coverage remains via
        # large_parts_by_brand)
        "c4_line_filters": _q_c4_line_filters,
        "doc_row_index": _q_doc_row_index,
        # (the trivial supplier_count_by_nation broadcast-join slot was
        # retired for the oracled supplier_graph_pagerank under the
        # 50-query cap; small-side join coverage remains via
        # revenue_by_orderpriority and the
        # rel.supplier_count_by_nation kernel stays pytest-covered)
        "supplier_graph_pagerank": _q_supplier_graph_pagerank,
        # (the trivial orders_per_month temporal-rollup slot was retired
        # for the oracled doc_encoding_quality under the 50-query cap;
        # temporal coverage remains via events_tumbling_window /
        # events_hopping_window and rel.orders_per_month stays
        # pytest-covered)
        "doc_encoding_quality": _q_doc_encoding_quality,
        # (the trivial large_parts_by_brand filter+agg slot was retired
        # for the oracled customer_order_full_outer — the one Ray-native
        # join type no gate query exercised; the rel kernel stays
        # pytest-covered and filter+agg coverage remains broadly)
        "customer_order_full_outer": _q_customer_order_full_outer,
        "distinct_users_by_event_type": rel.distinct_users_by_event_type,
        "line_dedup_corpus": _q_line_dedup_corpus,
        "revenue_by_orderpriority": rel.revenue_by_orderpriority,
        "events_tumbling_window": rel.events_tumbling_window,
        "events_hopping_window": rel.events_hopping_window,
        "top_docs_per_lang": rel.top_docs_per_lang,
        "events_props_k_by_type": rel.events_props_k_by_type,
        "parts_in_supplier_band": _q_parts_in_supplier_band,
        "user_sessions": rel.user_sessions,
        "events_last_order_asof": rel.events_last_order_asof,
    }


def _pii_oracle_sql() -> str:
    """Composed from the engine's own PII_PATTERNS so the regexes can
    never drift between the Ray kernels and the oracle (both RE2)."""
    from fetch_engines_ray.ops.textstats import PII_PATTERNS

    (e_repl, e_pat), (i_repl, i_pat), (p_repl, p_pat) = PII_PATTERNS
    # counts are taken on the SAME intermediate the engine counts on
    # (each pattern counts after the previous replacement)
    t0 = "text"
    t1 = f"regexp_replace({t0}, '{e_pat}', '{e_repl}', 'g')"
    t2 = f"regexp_replace({t1}, '{i_pat}', '{i_repl}', 'g')"
    t3 = f"regexp_replace({t2}, '{p_pat}', '{p_repl}', 'g')"
    cnt = (
        f"len(regexp_extract_all({t0}, '{e_pat}'))"
        f" + len(regexp_extract_all({t1}, '{i_pat}'))"
        f" + len(regexp_extract_all({t2}, '{p_pat}'))"
    )
    plants = ", ".join(
        "({}, '{}')".format(i, t.replace("'", "''")) for i, t in _PII_PLANTS
    )
    return (
        f"SELECT doc_id, {t3} AS redacted_text, CAST({cnt} AS BIGINT) AS pii_count"
        " FROM (SELECT doc_id, text FROM documents"
        f" UNION ALL SELECT * FROM (VALUES {plants}) t(doc_id, text))"
        " ORDER BY doc_id"
    )


# Encoding-health plants (escapes only — the source must never
# re-encode them): clean text, mangled e-acute, mangled smart quote,
# U+FFFD replacement chars, C0 controls, legitimate accents.
_ENCODING_PLANTS = [
    (2400000, "perfectly clean text with tabs\tand\nnewlines and CR\r fine."),
    (2400001, "the broken cafÃ© door"),
    (2400002, "smart quote gone wrong: â€™s"),
    (2400003, "decoder bailed here: �� done"),
    (2400004, "null byte \x00 and bell \x07 inside"),
    (2400005, ""),
    (2400006, "São Paulo château café naïve stay clean"),
]


def _q_doc_encoding_quality(sf_dir: str) -> Any:
    """Encoding-health signals (ops/textstats.py::add_encoding_quality):
    U+FFFD replacement chars, UTF-8-as-Latin-1 mojibake sequences, C0
    control chars, combined encoding_ok — fully SQL-oracled."""
    import ray.data

    from fetch_engines_ray.ops.textstats import add_encoding_quality

    docs = _read_documents(sf_dir).select_columns(["doc_id", "text"])
    planted = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in _ENCODING_PLANTS]
    )
    ds = docs.union(planted).map_batches(
        add_encoding_quality, batch_format="pyarrow", batch_size=4096
    )
    return (
        ds.select_columns(
            ["doc_id", "n_replacement_chars", "n_mojibake_markers",
             "n_control_chars", "encoding_ok"]
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _sql_str(t: str) -> str:
    """Render a Python string as an ASCII-only DuckDB expression:
    printable ASCII stays literal (quotes doubled), everything else is
    spliced as chr(N) — so control chars and non-ASCII survive the
    driver's SQL round-trip byte-exactly."""
    parts: list[str] = []
    lit = ""
    for ch in t:
        if 32 <= ord(ch) < 127 and ch != "'":
            lit += ch
        else:
            if lit:
                parts.append(f"'{lit}'")
                lit = ""
            if ch == "'":
                parts.append("''''")
            else:
                parts.append(f"chr({ord(ch)})")
    if lit:
        parts.append(f"'{lit}'")
    return " || ".join(parts) if parts else "''"


def _encoding_oracle() -> str:
    from fetch_engines_ray.ops.textstats import _CONTROL_RE, MOJIBAKE_MARKERS

    plants = ", ".join(
        f"({i}, {_sql_str(t)})" for i, t in _ENCODING_PLANTS
    )
    marker_alt = "|".join(MOJIBAKE_MARKERS)
    ctrl = _CONTROL_RE  # raw backslashes pass through DuckDB literals untouched
    return (
        "WITH all_docs AS (SELECT doc_id, text FROM documents"
        f" UNION ALL SELECT * FROM (VALUES {plants}) t(doc_id, text))"
        " SELECT doc_id,"
        f" CAST(len(regexp_extract_all(text, {_sql_str(chr(0xFFFD))})) AS BIGINT)"
        "   AS n_replacement_chars,"
        f" CAST(len(regexp_extract_all(text, {_sql_str(marker_alt)})) AS BIGINT)"
        "   AS n_mojibake_markers,"
        f" CAST(len(regexp_extract_all(text, '{ctrl}')) AS BIGINT)"
        "   AS n_control_chars,"
        f" (len(regexp_extract_all(text, {_sql_str(chr(0xFFFD))})) = 0"
        f"  AND len(regexp_extract_all(text, {_sql_str(marker_alt)})) = 0"
        f"  AND len(regexp_extract_all(text, '{ctrl}')) = 0) AS encoding_ok"
        " FROM all_docs ORDER BY doc_id"
    )


def _q_customer_order_full_outer(sf_dir: str) -> Any:
    from fetch_engines_ray.ops.relational import customer_order_full_outer

    return customer_order_full_outer(sf_dir)


def _q_lineitem_rollup(sf_dir: str) -> Any:
    """Multi-level GROUPING SETS aggregation in ONE shuffle
    (ops/rollup.py): the TPC-H-Q1 pricing summary at leaf, per-flag,
    and grand-total levels, vs DuckDB's native GROUP BY ROLLUP."""
    from fetch_engines_ray.ops.rollup import lineitem_pricing_rollup

    return lineitem_pricing_rollup(sf_dir)


def _rollup_oracle() -> str:
    """Composed from the engine's own SQL builder (ops/rollup.py) so
    the integer-space money arithmetic can never drift."""
    from fetch_engines_ray.ops.rollup import lineitem_pricing_rollup_sql

    return lineitem_pricing_rollup_sql()


def _jpeg_oracle() -> str:
    """Composed from the codec's own SQL builder (ops/jpeg.py) so the
    planted closed forms and quantization constants can never drift."""
    from fetch_engines_ray.ops.jpeg import jpeg_oracle_sql

    return jpeg_oracle_sql()


def _dup_ngram_oracle() -> str:
    """Composed from the engine's own oracle builder (ops/textstats.py)
    so the n-gram definitions can never drift; plants ride in via
    UNION ALL VALUES with control characters spliced as chr() calls."""
    from fetch_engines_ray.ops.textstats import dup_ngram_oracle_sql

    plants = ", ".join(f"({i}, {_sql_str(t)})" for i, t in _DUP_NGRAM_PLANTS)
    source = (
        "SELECT doc_id, text FROM documents"
        f" UNION ALL SELECT * FROM (VALUES {plants}) t(doc_id, text)"
    )
    return dup_ngram_oracle_sql(source)


def _c4_oracle() -> str:
    """Composed from the engine's own oracle builder (ops/c4.py) so the
    rule set can never drift between the Ray kernels and the SQL; the
    plants ride in via UNION ALL VALUES exactly like the PII plants."""
    from fetch_engines_ray.ops.c4 import c4_oracle_sql

    # every control char spliced as chr(N) via _sql_str — plant 2200006
    # carries raw TABs that a hand-rolled newline-only escape would ship
    # as literal \x09 bytes at the mercy of the driver's SQL transport
    plants = ", ".join(f"({i}, {_sql_str(t)})" for i, t in _C4_PLANTS)
    source = (
        "SELECT doc_id, text FROM documents"
        f" UNION ALL SELECT * FROM (VALUES {plants}) t(doc_id, text)"
    )
    return c4_oracle_sql(source)


# Shared md5/mod-p MinHash pair pipeline (docs + planted clones ->
# signatures -> 16x4 banding -> candidates -> est counts) — consumed by
# BOTH the minhash_dedup_pairs and neardup_cluster_verdicts oracles so
# the two recomputations can never drift.  Spliced after "WITH" /
# "WITH RECURSIVE" by the caller.
_MINHASH_CTE = (
    "docs AS (SELECT doc_id, text FROM documents "
    "  UNION ALL SELECT doc_id + 2000000, text FROM documents WHERE doc_id < 5), "
    " toks AS (SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS t FROM docs), "
    " grams AS (SELECT doc_id, "
    "   CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')] "
    "        ELSE list_transform(generate_series(1, len(t) - 2), "
    "               i -> array_to_string(list_slice(t, i, i + 2), ' ')) "
    "   END AS gs FROM toks), "
    " g AS (SELECT DISTINCT doc_id, unnest(gs) AS g FROM grams), "
    " gh AS (SELECT doc_id, ('0x' || substr(md5(g), 1, 8))::BIGINT % 2147483647 AS h FROM g), "
    " perms AS (SELECT r.i, (2654435761 * (r.i + 1)) % 2147483647 AS a, "
    "                  (40503 * (r.i + 1) + 9) % 2147483647 AS b "
    "           FROM range(0, 64) r(i)), "
    " sig AS (SELECT doc_id, i, min((a * h + b) % 2147483647) AS s FROM gh, perms GROUP BY doc_id, i), "
    " band AS (SELECT doc_id, i // 4 AS bd, "
    "          string_agg(CAST(s AS VARCHAR), ',' ORDER BY i) AS key "
    "          FROM sig GROUP BY doc_id, i // 4), "
    " cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b "
    "          FROM band a JOIN band b ON a.bd = b.bd AND a.key = b.key AND a.doc_id < b.doc_id), "
    " est AS (SELECT c.doc_a, c.doc_b, sum(CASE WHEN sa.s = sb.s THEN 1 ELSE 0 END) AS k "
    "         FROM cand c "
    "         JOIN sig sa ON sa.doc_id = c.doc_a "
    "         JOIN sig sb ON sb.doc_id = c.doc_b AND sb.i = sa.i "
    "         GROUP BY c.doc_a, c.doc_b) "
)


def oracle_sql() -> dict[str, str]:
    return {
        "extract_quality_by_archetype": (
            # Recomputes pass/gate flags AND the grouped sums from the
            # RAW per-doc eval columns the query spills (deterministic
            # single file, written by the query immediately before this
            # SQL runs — the gate always executes them as a pair).
            # Mirrors sources/io.py::write_eval_report's flag kernel /
            # the reference's eval-auto-render.mjs:27-62 gates math.
            "WITH f AS (SELECT archetype, quality_score, "
            "   CASE WHEN n_out_chars >= 40 THEN 1 ELSE 0 END AS passed, "
            "   CASE WHEN error_code = 'ERR_CHALLENGE_PAGE' OR archetype = 'fixture' "
            "        THEN 0 ELSE 1 END AS gated "
            f"  FROM read_parquet('{_evalrows_spill()}')) "
            "SELECT archetype, CAST(count(*) AS BIGINT) AS n_docs, "
            " CAST(sum(passed) AS BIGINT) AS n_passed, "
            " CAST(sum(gated) AS BIGINT) AS n_gated, "
            " CAST(sum(passed * gated) AS BIGINT) AS n_gated_pass, "
            " CAST(sum(quality_score) AS BIGINT) AS sum_quality "
            "FROM f GROUP BY archetype ORDER BY archetype"
        ),
        "doc_pii_redaction": _pii_oracle_sql(),
        "doc_repetition_stats": (
            "SELECT doc_id, CAST(len(l) AS BIGINT) AS n_lines,"
            " CAST(len(list_distinct(l)) AS BIGINT) AS n_distinct_lines"
            " FROM (SELECT doc_id, string_split(text, chr(10)) AS l FROM documents)"
            " ORDER BY doc_id"
        ),
        "doc_token_counts": (
            "SELECT doc_id, CAST(array_length(string_split_regex(trim(text), '\\s+')) AS BIGINT)"
            " AS token_count FROM documents ORDER BY doc_id"
        ),
        "doc_normalized_text": (
            "SELECT doc_id, trim(regexp_replace(nfc_normalize(lower(text)),"
            " '\\s+', ' ', 'g'), ' ') AS norm_text FROM documents ORDER BY doc_id"
        ),
        "domain_mixture_selection": (
            # FULL oracle: md5 priorities, per-domain window cumsum,
            # budget cut — the engine's exact selection rule in SQL
            # token rule mirrors the ENGINE exactly: trim RE2 \s (ASCII
            # whitespace, not space-only trim()) and
            # null text -> '' -> [''] -> 1 token; one divergent doc
            # would shift the cumulative cut for its whole domain
            "WITH b(lang, budget) AS (VALUES ('en', 3000), ('de', 2000), ('fr', 1500)), "
            " t AS (SELECT doc_id, lang, "
            "   CAST(array_length(string_split_regex("
            "     regexp_replace(coalesce(text, ''), '^\\s+|\\s+$', '', 'g'),"
            "     '\\s+')) AS BIGINT) AS n_tokens, "
            "   ('0x' || substr(md5('7:' || CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT AS pri "
            "  FROM documents), "
            " w AS (SELECT t.doc_id, t.lang, t.n_tokens, b.budget, "
            "   SUM(t.n_tokens) OVER (PARTITION BY t.lang ORDER BY t.pri, t.doc_id "
            "                         ROWS UNBOUNDED PRECEDING) AS cum "
            "  FROM t JOIN b USING (lang)) "
            "SELECT doc_id, lang, n_tokens FROM w WHERE cum <= budget ORDER BY doc_id"
        ),
        "doc_bpe_token_counts": (
            "SELECT doc_id, CAST(array_length(regexp_extract_all(text,"
            " '''(?:s|t|re|ve|m|ll|d)| ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+|\\s+'"
            ")) AS BIGINT) AS bpe_token_count FROM documents ORDER BY doc_id"
        ),
        "doc_stats_by_lang": (
            "SELECT lang, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS total_chars"
            " FROM documents GROUP BY lang ORDER BY lang"
        ),
        "doc_decontamination": (
            # mirrors the query's benchmark derivation (first 10 words
            # of doc 3 + a novel string) and the engine's n-gram rule
            # (lowercase, whitespace split, 5-grams; texts shorter than
            # n form one whole-text gram).  range bound 4000 >> max doc
            # token count; the i=1 OR guard keeps the short-text gram.
            "WITH bench AS ("
            "  SELECT array_to_string(list_slice("
            "    string_split_regex(trim(text), '\\s+'), 1, 10), ' ') AS text"
            "  FROM documents WHERE doc_id = 3"
            "  UNION ALL SELECT 'zz unseen benchmark zz phrase zz never zz in zz corpus'),"
            " bt AS (SELECT string_split_regex(lower(trim(text)), '\\s+') AS t FROM bench),"
            " bg AS (SELECT DISTINCT CASE WHEN len(t) < 5 THEN array_to_string(t, ' ')"
            "    ELSE array_to_string(list_slice(t, i, i + 4), ' ') END AS g"
            "   FROM bt, range(1, 4000) r(i) WHERE i = 1 OR i <= len(t) - 4),"
            " dt AS (SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS t"
            "   FROM documents),"
            " dg AS (SELECT doc_id, CASE WHEN len(t) < 5 THEN array_to_string(t, ' ')"
            "    ELSE array_to_string(list_slice(t, i, i + 4), ' ') END AS g"
            "   FROM dt, range(1, 4000) r(i) WHERE i = 1 OR i <= len(t) - 4)"
            " SELECT dt.doc_id,"
            " CAST(coalesce(h.c, 0) AS BIGINT) AS n_contaminated_ngrams,"
            " coalesce(h.c, 0) > 0 AS contaminated"
            " FROM dt LEFT JOIN (SELECT doc_id, count(*) AS c FROM dg"
            "   JOIN bg USING (g) GROUP BY doc_id) h USING (doc_id)"
            " ORDER BY dt.doc_id"
        ),
        "line_dedup_corpus": (
            # C4-style cross-corpus line dedup: distinct non-empty line
            # survives once — lexicographic min (doc_id, line_no) via a
            # row_number window, mirroring the engine's two-column rule
            # (NOT the old packed doc_id*2^32+line_no BIGINT, which
            # wraps for full-range int64 ids); documents rebuilt from
            # surviving lines in original order.  parallel unnest zips
            # each line with its 1-based ordinal.  documents2 mirrors
            # the query's derived multi-line corpus (own text + shared
            # sentinel + repeated own text).
            "WITH documents2 AS (SELECT doc_id,"
            "   text || chr(10) || 'SHARED-LINE-' || CAST(doc_id % 7 AS VARCHAR)"
            "   || chr(10) || text AS text FROM documents),"
            " parts AS (SELECT doc_id, string_split(text, chr(10)) AS p"
            "  FROM documents2),"
            " lines AS (SELECT doc_id, unnest(p) AS line,"
            "   unnest(range(1, len(p) + 1)) AS line_no FROM parts),"
            " nz AS (SELECT * FROM lines WHERE line <> ''),"
            " rn AS (SELECT doc_id, line_no, line, row_number() OVER"
            "   (PARTITION BY line ORDER BY doc_id, line_no) AS r FROM nz),"
            " keep AS (SELECT doc_id, line_no, line FROM rn WHERE r = 1)"
            " SELECT doc_id, string_agg(line, chr(10) ORDER BY line_no) AS text,"
            " CAST(count(*) AS BIGINT) AS n_lines"
            " FROM keep GROUP BY doc_id ORDER BY doc_id"
        ),
        "exact_dedup_groups": (
            "SELECT md5(text) AS text_hash, min(doc_id) AS keep_doc_id, count(*) AS n_dups"
            " FROM documents GROUP BY md5(text) ORDER BY text_hash"
        ),
        "top20_longest_docs": (
            "SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id LIMIT 20"
        ),
        "png_decode": (
            # mirrors the planted-PNG closed form (ops/png.py
            # planted_pixels) + the letterbox formula (ops/multimodal.py
            # letterbox) + the nearest-neighbor resample
            # (ops/multimodal.py resample_nearest: src = ((2*dst+1)*src_dim)
            # // (2*dst_dim), integer-exact) — the ENGINE side recovers
            # these numbers only by decoding genuine PNG bytes and REALLY
            # resampling the decoded pixels.  resized_pixel_sum factorizes
            # per axis (each destination cell depends only on its source
            # row/column), so the oracle sums cnt_x*cnt_y*pixel over the
            # small source grid instead of the 224x224 destination grid.
            "WITH dims AS (SELECT doc_id, 4 + doc_id % 13 AS w, 3 + doc_id % 7 AS h"
            "  FROM documents),"
            " ldims AS (SELECT doc_id, w, h,"
            "   CAST(greatest(1, floor(w * least(224.0 / w, 224.0 / h))) AS BIGINT) AS rw,"
            "   CAST(greatest(1, floor(h * least(224.0 / w, 224.0 / h))) AS BIGINT) AS rh"
            "  FROM dims),"
            # range() cannot be laterally correlated in this DuckDB —
            # cross-join the fixed 16x9 grid (max w/h) and filter
            " px AS (SELECT dims.doc_id,"
            "   sum((7 * x.i + 13 * y.i + dims.doc_id) % 256) AS ps"
            "  FROM dims, range(0, 16) x(i), range(0, 9) y(i)"
            "  WHERE x.i < dims.w AND y.i < dims.h"
            "  GROUP BY dims.doc_id),"
            " cx AS (SELECT ldims.doc_id,"
            "   ((2 * x.i + 1) * ldims.w) // (2 * ldims.rw) AS sx, count(*) AS cnt"
            "  FROM ldims, range(0, 224) x(i) WHERE x.i < ldims.rw"
            "  GROUP BY ldims.doc_id, sx),"
            " cy AS (SELECT ldims.doc_id,"
            "   ((2 * y.i + 1) * ldims.h) // (2 * ldims.rh) AS sy, count(*) AS cnt"
            "  FROM ldims, range(0, 224) y(i) WHERE y.i < ldims.rh"
            "  GROUP BY ldims.doc_id, sy),"
            " rs AS (SELECT cx.doc_id,"
            "   sum(cx.cnt * cy.cnt * ((7 * cx.sx + 13 * cy.sy + cx.doc_id) % 256)) AS rps"
            "  FROM cx JOIN cy ON cx.doc_id = cy.doc_id GROUP BY cx.doc_id)"
            " SELECT ldims.doc_id, CAST(ldims.w AS BIGINT) AS width,"
            " CAST(ldims.h AS BIGINT) AS height, CAST(8 AS BIGINT) AS bit_depth,"
            " CAST(px.ps AS BIGINT) AS pixel_sum,"
            " ldims.rw AS resized_width, ldims.rh AS resized_height,"
            " CAST(rs.rps AS BIGINT) AS resized_pixel_sum"
            " FROM ldims JOIN px USING (doc_id) JOIN rs USING (doc_id)"
            " ORDER BY doc_id"
        ),
        "doc_sequence_packing": (
            # FULL oracle: the greedy capacity fold replayed row-by-row in
            # doc_id order with a recursive CTE (state = (cur_start,
            # cur_tok); an over-budget doc closes any open sequence, exactly
            # the engine rule in ops/packing._pack_batch); per-seq totals by
            # one groupby over the assignments.
            "WITH RECURSIVE rows_ AS ( "
            "  SELECT row_number() OVER (ORDER BY doc_id) AS rn, doc_id, "
            "         CAST(array_length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS n "
            "  FROM documents), "
            " rec AS ( "
            "   SELECT 0::BIGINT AS rn, CAST(NULL AS BIGINT) AS cur_start, 0::BIGINT AS cur_tok, "
            "          CAST(NULL AS BIGINT) AS doc_id, CAST(NULL AS BIGINT) AS seq_id, 0::BIGINT AS over "
            "   UNION ALL "
            "   SELECT r.rn, "
            "     CASE WHEN r.n > 512 THEN CAST(NULL AS BIGINT) "
            "          WHEN s.cur_start IS NULL OR s.cur_tok + r.n > 512 THEN r.doc_id "
            "          ELSE s.cur_start END, "
            "     CASE WHEN r.n > 512 THEN 0 "
            "          WHEN s.cur_start IS NULL OR s.cur_tok + r.n > 512 THEN r.n "
            "          ELSE s.cur_tok + r.n END, "
            "     r.doc_id, "
            "     CASE WHEN r.n > 512 THEN r.doc_id "
            "          WHEN s.cur_start IS NULL OR s.cur_tok + r.n > 512 THEN r.doc_id "
            "          ELSE s.cur_start END, "
            "     CASE WHEN r.n > 512 THEN 1 ELSE 0 END "
            "   FROM rec s JOIN rows_ r ON r.rn = s.rn + 1), "
            " assign AS (SELECT doc_id, seq_id, over FROM rec WHERE rn > 0), "
            " seqs AS (SELECT seq_id, sum(n) AS tt, count(*) AS nd "
            "          FROM assign JOIN rows_ USING (doc_id) GROUP BY seq_id) "
            "SELECT a.doc_id, a.seq_id, CAST(a.over AS BIGINT) AS is_oversize, "
            "       CAST(s.tt AS BIGINT) AS seq_total_tokens, CAST(s.nd AS BIGINT) AS seq_n_docs "
            "FROM assign a JOIN seqs s USING (seq_id) ORDER BY a.doc_id "
        ),
        "minhash_dedup_pairs": (
            # FULL oracle: the md5/mod-p MinHash family recomputed in SQL —
            # signatures (min over distinct word-3-grams of closed-form
            # affine maps of the high-32 md5 mod 2^31-1), 16 bands x 4 rows
            # (band key = the exact 4-tuple; the engine's 64-bit band fold
            # only ever ADDS spurious candidates, which verification drops),
            # est = k/64 (dyadic, float-exact both sides), threshold 0.7.
            # The CTE chain is shared verbatim with the
            # neardup_cluster_verdicts oracle below (one _MINHASH_CTE
            # constant, so the two can never drift).
            "WITH " + _MINHASH_CTE +
            "SELECT doc_a, doc_b, k / 64.0 AS est_jaccard FROM est "
            "WHERE k / 64.0 >= 0.7 ORDER BY doc_a, doc_b "
        ),
        "neardup_cluster_verdicts": (
            # FULL oracle for the DISTRIBUTED cluster resolution: the
            # shared pair chain above, then connected components via a
            # recursive transitive-closure CTE contracted to min-label
            # representatives — exactly the fixed point label
            # propagation converges to; is_kept = (doc_id == rep).
            # Pair sets are gate-scale tiny, so the closure is cheap.
            "WITH RECURSIVE " + _MINHASH_CTE +
            " , pairs AS (SELECT doc_a, doc_b FROM est WHERE k / 64.0 >= 0.7), "
            " edges AS (SELECT doc_a AS s, doc_b AS d FROM pairs "
            "           UNION SELECT doc_b, doc_a FROM pairs), "
            " reach AS (SELECT s, s AS d FROM edges "
            "           UNION SELECT r.s, e.d FROM reach r JOIN edges e ON r.d = e.s), "
            " rep AS (SELECT s AS doc_id, min(d) AS cluster_rep FROM reach GROUP BY s) "
            "SELECT doc_id, cluster_rep, doc_id = cluster_rep AS is_kept "
            "FROM rep ORDER BY doc_id "
        ),
        "simhash_dedup_pairs": (
            # FULL oracle: md5-variant 64-bit SimHash recomputed in SQL
            # (bit b of the high-64 md5 = bit b%4 of hex digit 16-b//4),
            # majority vote 2*s > n per bit, fingerprints as lo/hi 32-bit
            # halves, exact all-pairs hamming via xor + bit_count.  Banding
            # with 4 chunks is lossless at hamming <= 3, so the engine's
            # banded set must equal this exact set.  O(n^2) pair join —
            # gate scale only (sf <= 0.01), like the ngram oracle above.
            "WITH docs AS (SELECT doc_id, text FROM documents "
            "  UNION ALL SELECT doc_id + 2000000, text FROM documents WHERE doc_id < 5), "
            " tok AS (SELECT doc_id, w, count(*) AS cnt FROM ( "
            "    SELECT doc_id, unnest(string_split_regex(lower(trim(text)), '\\s+')) AS w FROM docs) "
            "   WHERE w <> '' GROUP BY doc_id, w), "
            " dlen AS (SELECT doc_id, sum(cnt) AS n FROM tok GROUP BY doc_id), "
            " bits AS (SELECT t.doc_id, r.b, "
            "    sum(t.cnt * ((('0x' || substr(md5(t.w), CAST(16 - r.b // 4 AS INT), 1))::INT >> (r.b % 4)) & 1)) AS s "
            "   FROM tok t, range(0, 64) r(b) GROUP BY t.doc_id, r.b), "
            " fp AS (SELECT bits.doc_id, "
            "    sum(CASE WHEN r_b < 32 AND 2 * s > n THEN (1::BIGINT << CAST(r_b AS INT)) ELSE 0 END) AS lo, "
            "    sum(CASE WHEN r_b >= 32 AND 2 * s > n THEN (1::BIGINT << CAST(r_b - 32 AS INT)) ELSE 0 END) AS hi "
            "   FROM (SELECT doc_id, b AS r_b, s FROM bits) bits JOIN dlen USING (doc_id) "
            "   GROUP BY bits.doc_id), "
            " allfp AS (SELECT d.doc_id, coalesce(fp.lo, 0) AS lo, coalesce(fp.hi, 0) AS hi "
            "   FROM (SELECT DISTINCT doc_id FROM docs) d LEFT JOIN fp USING (doc_id)), "
            " p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            "    CAST(bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi)) AS BIGINT) AS hamming "
            "   FROM allfp a JOIN allfp b ON a.doc_id < b.doc_id) "
            "SELECT doc_a, doc_b, hamming FROM p WHERE hamming <= 3 ORDER BY doc_a, doc_b "
        ),
        "ngram_jaccard_pairs": (
            # FULL oracle: the exact all-pairs word-3-gram Jaccard set at
            # threshold 0.7 (plus the planted clones).  The engine only
            # scores LSH candidates, so a green hash additionally proves
            # LSH recall = 1.0 on this corpus.  jaccard_x1000 uses floor
            # division on both sides (no float-round parity risk).
            # O(n^2) list ops — fine at gate scale (sf<=0.01), minutes
            # at sf0.1.
            "WITH docs AS (SELECT doc_id, text FROM documents"
            "  UNION ALL SELECT doc_id + 2000000, text FROM documents WHERE doc_id < 5),"
            " toks AS (SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS t"
            "  FROM docs),"
            " grams AS (SELECT doc_id,"
            "  CASE WHEN len(t) < 3 THEN list_distinct([array_to_string(t, ' ')])"
            "       ELSE list_distinct(list_transform(generate_series(1, len(t) - 2),"
            "              i -> array_to_string(list_slice(t, i, i + 2), ' ')))"
            "  END AS g FROM toks),"
            " p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,"
            "   len(list_intersect(a.g, b.g)) AS i,"
            "   len(list_distinct(list_concat(a.g, b.g))) AS u"
            "  FROM grams a JOIN grams b ON a.doc_id < b.doc_id)"
            " SELECT doc_a, doc_b, CAST((1000 * i) // u AS BIGINT) AS jaccard_x1000"
            " FROM p WHERE i >= 0.7 * u ORDER BY doc_a, doc_b"
        ),
        "gif_decode": (
            # mirrors the planted-GIF closed form (ops/gif.py
            # planted_frames / planted_palette / planted_delays_cs):
            # w = 4 + id%11, h = 3 + id%5, nf = 2 + id%4,
            # index[f,y,x] = (5x + 11y + 17f + id) % 64,
            # palette[i] = ((3i+7)%256, (5i+11)%256, (7i+13)%256),
            # delay_cs[f] = 4 + (id + f) % 7 — the ENGINE side recovers
            # these numbers only by LZW-decoding genuine GIF89a bytes
            "WITH dims AS (SELECT doc_id, 4 + doc_id % 11 AS w, 3 + doc_id % 5 AS h,"
            "   2 + doc_id % 4 AS nf FROM documents),"
            " cells AS (SELECT dims.doc_id, dims.nf, f.i AS fi,"
            "   (5 * x.i + 11 * y.i + 17 * f.i + dims.doc_id) % 64 AS idx"
            "  FROM dims, range(0, 14) x(i), range(0, 7) y(i), range(0, 5) f(i)"
            "  WHERE x.i < dims.w AND y.i < dims.h AND f.i < dims.nf),"
            " px AS (SELECT doc_id,"
            "   sum((3 * idx + 7) % 256 + (5 * idx + 11) % 256 + (7 * idx + 13) % 256) AS ps,"
            "   sum(CASE WHEN fi = nf // 2 THEN"
            "     (3 * idx + 7) % 256 + (5 * idx + 11) % 256 + (7 * idx + 13) % 256"
            "     ELSE 0 END) AS ms"
            "  FROM cells GROUP BY doc_id),"
            " dur AS (SELECT dims.doc_id, sum(10 * (4 + (dims.doc_id + f.i) % 7)) AS d"
            "  FROM dims, range(0, 5) f(i) WHERE f.i < dims.nf GROUP BY dims.doc_id)"
            " SELECT dims.doc_id, CAST(dims.w AS BIGINT) AS width,"
            " CAST(dims.h AS BIGINT) AS height, CAST(dims.nf AS BIGINT) AS n_frames,"
            " CAST(dur.d AS BIGINT) AS duration_ms, CAST(px.ps AS BIGINT) AS pixel_sum,"
            " CAST(px.ms AS BIGINT) AS mid_frame_sum"
            " FROM dims JOIN px USING (doc_id) JOIN dur USING (doc_id) ORDER BY doc_id"
        ),
        "wav_decode": (
            # mirrors the planted-WAV closed form (ops/wav.py
            # planted_samples: n = 400 + (doc_id % 200) * 8 samples at
            # 8 kHz, s(i) = ((7 i^2 + 13 i + doc_id) % 65536) - 32768)
            # and the 25 ms / 10 ms framing math; the ENGINE recovers
            # these numbers only by parsing genuine RIFF/WAVE bytes
            "WITH dims AS (SELECT doc_id, 400 + (doc_id % 200) * 8 AS n FROM documents),"
            " s AS (SELECT dims.doc_id,"
            "   sum(abs(((7 * i.i * i.i + 13 * i.i + dims.doc_id) % 65536) - 32768)) AS ab"
            "  FROM dims, range(0, 1992) i(i) WHERE i.i < dims.n"
            "  GROUP BY dims.doc_id)"
            " SELECT dims.doc_id, CAST(8000 AS BIGINT) AS sample_rate,"
            " CAST(dims.n AS BIGINT) AS n_samples,"
            " CAST(dims.n // 8 AS BIGINT) AS duration_ms,"
            " CAST(s.ab AS BIGINT) AS pcm_abs_sum,"
            " CAST(1 + (dims.n - 200) // 80 AS BIGINT) AS n_frames"
            " FROM dims JOIN s USING (doc_id) ORDER BY doc_id"
        ),
        "knn_bruteforce": (
            "WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 8),"
            " s AS (SELECT q.qid, e.vec_id AS nid,"
            "       list_cosine_similarity(q.qe, e.embedding) AS sim"
            "       FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qid)"
            " SELECT qid AS query_id, nid AS neighbor_id, CAST(rnk AS BIGINT) AS rank FROM ("
            "   SELECT qid, nid, row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid) AS rnk"
            "   FROM s) WHERE rnk <= 10 ORDER BY query_id, rank"
        ),
        # mirrors ops/lm.py exactly: same tokenizer, same add-0.5
        # smoothing over V+1 types, per-word floor(ln(p)*1e6) quantized
        # BEFORE the per-doc sum (int64 — block-order independent; libm
        # ln verified bit-identical between DuckDB and Python math.log)
        "doc_lm_perplexity": (
            "WITH toks AS ("
            "  SELECT doc_id, unnest(list_filter("
            "    string_split_regex(lower(trim(text)), '\\s+'), x -> x <> '')) AS w"
            "  FROM documents),"
            " counts AS (SELECT w, count(*)::BIGINT AS n FROM toks GROUP BY w),"
            " tot AS (SELECT sum(n) AS total, count(*) AS v FROM counts),"
            " lp AS (SELECT w, CAST(floor(ln((n + 0.5) / (total + 0.5 * (v + 1)))"
            "                 * 1000000) AS BIGINT) AS lp FROM counts, tot),"
            " scored AS ("
            "  SELECT t.doc_id, count(*)::BIGINT AS lm_token_count,"
            "         sum(lp.lp)::BIGINT AS lm_logprob_micro"
            "  FROM toks t JOIN lp ON t.w = lp.w GROUP BY t.doc_id)"
            " SELECT d.doc_id,"
            "  coalesce(s.lm_token_count, 0) AS lm_token_count,"
            "  coalesce(s.lm_logprob_micro, 0) AS lm_logprob_micro,"
            "  CASE WHEN coalesce(s.lm_token_count, 0) = 0 THEN 'empty'"
            f"      WHEN (-s.lm_logprob_micro) // s.lm_token_count < {_LM_BUCKETS[0]} THEN 'head'"
            f"      WHEN (-s.lm_logprob_micro) // s.lm_token_count < {_LM_BUCKETS[1]} THEN 'middle'"
            "       ELSE 'tail' END AS ppl_bucket"
            " FROM documents d LEFT JOIN scored s USING (doc_id) ORDER BY d.doc_id"
        ),
        # mirrors ops/window.py lag_lead exactly: same (partition,
        # order, value) tie rule, integer cents, -1 edge sentinels,
        # epoch-microsecond timestamps (null-free, value-hash exact)
        "events_value_lag": (
            "WITH cents AS (SELECT user_id, epoch_us(ts) AS ts_us,"
            "  CAST(round(value * 100) AS BIGINT) AS value_cents FROM events)"
            " SELECT user_id, ts_us, value_cents,"
            "  coalesce(lag(value_cents) OVER w, -1) AS value_cents_lag,"
            "  coalesce(lead(value_cents) OVER w, -1) AS value_cents_lead"
            " FROM cents"
            " WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, value_cents)"
            " ORDER BY user_id, ts_us, value_cents"
        ),
        "lineitem_pricing_summary": (
            "SELECT l_returnflag, l_linestatus,"
            " round(sum(l_quantity), 3) AS sum_qty,"
            " round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0, 3) AS sum_base_price,"
            " round(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) / 10.0)"
            " / 1000.0 AS sum_disc_price,"
            " round(avg(l_quantity), 3) AS avg_qty,"
            " count(*) AS count_order"
            " FROM lineitem GROUP BY l_returnflag, l_linestatus"
            " ORDER BY l_returnflag, l_linestatus"
        ),
        "token_budget_selection": (
            "WITH t AS (SELECT doc_id, doc_id % 7 AS score,"
            " CAST(array_length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS tokens"
            " FROM documents),"
            " r AS (SELECT doc_id, score, tokens,"
            " SUM(tokens) OVER (ORDER BY score DESC, doc_id ASC) AS run FROM t)"
            " SELECT doc_id, score, tokens FROM r WHERE run <= 15000 ORDER BY doc_id"
        ),
        "lineitem_pricing_rollup": _rollup_oracle(),
        "jpeg_decode": _jpeg_oracle(),
        "top_tokens_exact": (
            "SELECT t AS token, count(*) AS n FROM"
            " (SELECT unnest(string_split_regex(trim(text), '\\s+')) AS t"
            "  FROM documents WHERE trim(text) <> '')"
            " GROUP BY t ORDER BY n DESC, token LIMIT 15"
        ),
        "doc_dup_ngram_stats": _dup_ngram_oracle(),
        "c4_line_filters": _c4_oracle(),
        "doc_row_index": (
            "SELECT doc_id, CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id ASC) - 1"
            " AS BIGINT) AS row_index FROM documents ORDER BY doc_id"
        ),
        "supplier_graph_pagerank": _pagerank_oracle(),
        "doc_encoding_quality": _encoding_oracle(),
        "customer_order_full_outer": (
            "WITH hc AS (SELECT c_custkey, CAST(round(c_acctbal * 100) AS BIGINT)"
            "   AS c_acctbal_cents FROM customer WHERE c_acctbal > 7000.0),"
            " hv AS (SELECT o_custkey, count(*) AS n_orders FROM orders"
            "   WHERE o_totalprice > 400000.0 GROUP BY o_custkey)"
            " SELECT COALESCE(c_custkey, o_custkey) AS custkey,"
            "  COALESCE(c_acctbal_cents, -1) AS c_acctbal_cents,"
            "  CAST(COALESCE(n_orders, 0) AS BIGINT) AS n_orders"
            " FROM hc FULL OUTER JOIN hv ON c_custkey = o_custkey ORDER BY custkey"
        ),
        "distinct_users_by_event_type": (
            "SELECT event_type, count(DISTINCT user_id) AS n_users"
            " FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "events_last_order_asof": (
            "SELECT e.event_id, e.user_id,"
            " CAST(coalesce(floor(epoch_us(o.o_orderdate) / 1000000), -1) AS BIGINT)"
            " AS last_order_epoch"
            " FROM events e ASOF LEFT JOIN orders o"
            " ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate"
            " ORDER BY e.event_id"
        ),
        "user_sessions": (
            "WITH d AS ("
            "  SELECT user_id, event_id, ts, value,"
            "    CASE WHEN lag(ts) OVER w IS NULL"
            "         OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000 THEN 1 ELSE 0 END AS new_sess"
            "  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),"
            " s AS (SELECT user_id, event_id, ts, value,"
            "   CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id"
            "     ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_idx FROM d)"
            " SELECT user_id, session_idx, count(*) AS n_events,"
            "   CAST(floor(min(epoch_us(ts)) / 1000000) AS BIGINT) AS start_epoch,"
            "   round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 3) AS total_value"
            " FROM s GROUP BY user_id, session_idx ORDER BY user_id, session_idx"
        ),
        "parts_in_supplier_band": (
            "SELECT s_suppkey, count(*) AS n_points"
            " FROM supplier JOIN part"
            " ON p_retailprice BETWEEN s_acctbal - 50 AND s_acctbal + 50"
            " GROUP BY s_suppkey ORDER BY s_suppkey"
        ),
        "events_props_k_by_type": (
            "SELECT event_type, count(*) AS n_events,"
            " CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS k_total"
            " FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "events_tumbling_window": (
            "SELECT CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT) AS window_start,"
            " count(*) AS n_events, round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 3) AS total_value"
            " FROM events GROUP BY window_start ORDER BY window_start"
        ),
        "events_hopping_window": (
            # 60-min windows hopping every 30 min: each event lands in
            # the two windows starting at (hop_bucket - i) * 1800, i in {0,1}
            "SELECT CAST((floor(epoch(ts) / 1800) - i) * 1800 AS BIGINT) AS window_start,"
            " count(*) AS n_events, round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 3) AS total_value"
            " FROM events, range(0, 2) t(i)"
            " GROUP BY window_start ORDER BY window_start"
        ),
        "top_docs_per_lang": (
            "SELECT doc_id, lang, n_chars, rank FROM ("
            "  SELECT doc_id, lang, n_chars, CAST(row_number() OVER ("
            "    PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC) AS BIGINT) AS rank"
            "  FROM documents)"
            " WHERE rank <= 3 ORDER BY lang, rank"
        ),
        "revenue_by_orderpriority": (
            "SELECT o_orderpriority, count(*) AS n_items,"
            " round(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) / 10.0) / 1000.0 AS revenue"
            " FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
            " GROUP BY o_orderpriority ORDER BY o_orderpriority"
        ),
        "clean_corpus": (
            "WITH f AS (SELECT doc_id, text,\n"
            "  CAST(array_length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS n_words,"
            "  CAST(length(text) AS BIGINT) AS n_chars,"
            "  CAST(length(text) - length(replace(text, '#', '')) AS BIGINT) AS n_hash,"
            "  CAST((length(text) - length(replace(text, '...', ''))) / 3 AS BIGINT) AS n_ell,"
            "  CAST(array_length(regexp_extract_all(lower(text),"
            "    '\\b(?:the|be|to|of|and|that|have|with)\\b')) AS BIGINT) AS stopword_hits"
            "  FROM documents),"
            " w AS (SELECT md5(text) AS h, min(doc_id) AS keep FROM documents GROUP BY md5(text))"
            " SELECT f.doc_id, f.n_words FROM f JOIN w ON md5(f.text) = w.h AND f.doc_id = w.keep"
            " WHERE n_words BETWEEN 50 AND 100000 AND ((n_chars - (n_words - 1)) * 100 // greatest(n_words, 1)) BETWEEN 300 AND 1000 AND ((n_hash + n_ell) * 1000 // greatest(n_words, 1)) <= 100 AND stopword_hits >= 2"
            " ORDER BY f.doc_id"
        ),
        "doc_gopher_quality": (
            "WITH f AS (SELECT doc_id,"
            "  CAST(array_length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS n_words,"
            "  CAST(length(text) AS BIGINT) AS n_chars,"
            # true word chars: total minus ALL whitespace (mirrors the
            # engine's n_chars - n_ws; the old n_words-1 form assumed
            # single-space separators)
            "  CAST(length(regexp_replace(text, '\\s', '', 'g')) AS BIGINT) AS n_wordchars,"
            "  CAST(length(text) - length(replace(text, '#', '')) AS BIGINT) AS n_hash,"
            "  CAST((length(text) - length(replace(text, '...', ''))) / 3 AS BIGINT) AS n_ell,"
            "  CAST(array_length(regexp_extract_all(lower(text),"
            "    '\\b(?:the|be|to|of|and|that|have|with)\\b')) AS BIGINT) AS stopword_hits"
            "  FROM documents)"
            " SELECT doc_id, n_words,"
            "  CAST(n_wordchars * 100 // greatest(n_words, 1) AS BIGINT)"
            "    AS mean_word_len_x100,"
            "  CAST((n_hash + n_ell) * 1000 // greatest(n_words, 1) AS BIGINT)"
            "    AS symbol_ratio_x1000,"
            "  stopword_hits,"
            "  (n_words BETWEEN 50 AND 100000"
            "   AND (n_wordchars * 100 // greatest(n_words, 1)) BETWEEN 300 AND 1000"
            "   AND ((n_hash + n_ell) * 1000 // greatest(n_words, 1)) <= 100"
            "   AND stopword_hits >= 2) AS gopher_pass"
            " FROM f ORDER BY doc_id"
        ),
        "embedding_near_dup_pairs": (
            "WITH all_e AS ("
            "  SELECT vec_id, embedding FROM embeddings"
            "  UNION ALL SELECT vec_id + 100000, embedding FROM embeddings WHERE vec_id < 10)"
            " SELECT a.vec_id AS doc_a, b.vec_id AS doc_b"
            " FROM all_e a JOIN all_e b ON a.vec_id < b.vec_id"
            " WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.98"
            " ORDER BY doc_a, doc_b"
        ),
        "text_features": (
            "SELECT doc_id,"
            " CAST(array_length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS token_count,"
            " CASE"
            "  WHEN en >= de AND en >= fr AND en >= es AND en >= it AND en > 0 THEN 'en'"
            "  WHEN de >= fr AND de >= es AND de >= it AND de > 0 THEN 'de'"
            "  WHEN fr >= es AND fr >= it AND fr > 0 THEN 'fr'"
            "  WHEN es >= it AND es > 0 THEN 'es'"
            "  WHEN it > 0 THEN 'it'"
            "  ELSE 'und' END AS lang_pred,"
            " md5(regexp_replace(trim(lower(text)), '\\s+', ' ', 'g')) AS fingerprint"
            " FROM ("
            "  SELECT doc_id, text,"
            "  array_length(regexp_extract_all(lower(text),"
            "   '\\b(?:the|and|of|to|in|is|that|for|with|was)\\b')) AS en,"
            "  array_length(regexp_extract_all(lower(text),"
            "   '\\b(?:der|die|das|und|ist|nicht|ein|mit|für|auf)\\b')) AS de,"
            "  array_length(regexp_extract_all(lower(text),"
            "   '\\b(?:le|la|les|et|est|pas|une|pour|dans|que)\\b')) AS fr,"
            "  array_length(regexp_extract_all(lower(text),"
            "   '\\b(?:el|la|los|de|que|y|es|una|para|con)\\b')) AS es,"
            "  array_length(regexp_extract_all(lower(text),"
            "   '\\b(?:il|la|che|di|e|per|una|sono|con|non)\\b')) AS it"
            "  FROM documents) ORDER BY doc_id"
        ),
        "structured_extract": (
            "SELECT doc_id,"
            " coalesce(regexp_extract(text, '^\\W*(\\w+)', 1), '') AS first_word,"
            " coalesce(regexp_extract(text, '\\bthe\\s+(\\w+)', 1), '') AS after_the,"
            " CASE WHEN regexp_matches(text, '\\d')"
            "   THEN CAST(regexp_extract(text, '(\\d+)', 1) AS BIGINT) ELSE -1 END AS first_number"
            " FROM documents ORDER BY doc_id"
        ),
        "doc_quality_counts": (
            "SELECT doc_id,"
            " CAST(array_length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS token_count,"
            " CAST(array_length(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS punct_count,"
            " CAST(array_length(regexp_extract_all(lower(text),"
            " '\\b(?:the|and|of|to|in|is|that|for)\\b')) AS BIGINT) AS stopword_count"
            " FROM documents ORDER BY doc_id"
        ),
    }
