"""Benchmark entry point.

Prints ONE JSON line:
  {"metric": "...", "value": N, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N, "throughput_docs_per_sec": ...}

``--scaling`` runs the headline extraction pipeline in fresh processes
at two parallelism levels (defaults ``--scale-low 4`` / ``--scale-high
16``; see the DRAM-envelope note in ``main()``) on the same input, in
interleaved rounds, and reports both throughputs plus efficiency =
T_low / (4 × T_high) with the MEDIAN round as headline (≥ 0.8 target,
BASELINE.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

from fetch_engines_ray.arrowclean import read_parquet_clean

SF_DIR_DEFAULT = "/root/testdata/sf0.1"

# Headline corpus sizes per sf level (synthetic interleaved docs;
# deterministic, cached under /tmp).
BENCH_DOCS = {"0.001": 500, "0.01": 5000, "0.1": 48000}


def _sf_of(sf_dir: str) -> str:
    base = os.path.basename(sf_dir.rstrip("/"))
    return base.replace("sf", "") if base.startswith("sf") else "0.01"


def synth_corpus_parallel(sf_dir: str, n_override: int | None = None) -> tuple[str, int]:
    """Generate (once, cached) the bench corpus using Ray itself."""
    import pyarrow as pa

    import ray.data

    from fetch_engines_ray.corpus.generate import INPUT_SCHEMA, make_doc

    sf = _sf_of(sf_dir)
    n = n_override or BENCH_DOCS.get(sf, 5000)
    key = hashlib.md5(f"bench:{sf}:{n}:v1".encode()).hexdigest()[:10]
    out = f"/tmp/fer_bench_corpus_{sf}_{key}"
    marker = os.path.join(out, "_COMPLETE")
    if os.path.exists(marker):
        return out, n

    def gen(batch: pa.Table) -> pa.Table:
        rows = [make_doc(int(i), 42) for i in batch["idx"].to_pylist()]
        return pa.Table.from_pylist(rows, schema=INPUT_SCHEMA)

    # crash-safe: generate into a fresh temp dir and rename into place —
    # a retry after an interrupted run must never APPEND to partial
    # output (write_parquet adds uniquely-named files, silently
    # inflating the cached corpus)
    import shutil
    import tempfile

    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp", dir="/tmp")
    ds = ray.data.from_items([{"idx": i} for i in range(n)])
    ds = ds.repartition(64).map_batches(gen, batch_format="pyarrow", batch_size=512)
    ds.write_parquet(tmp)
    with open(os.path.join(tmp, "_COMPLETE"), "w") as f:
        f.write("ok")
    # re-check for a concurrent winner BEFORE clobbering: an
    # unconditional rmtree deleted a completed corpus another process
    # was actively reading (and made the rename-raced branch dead code)
    if os.path.exists(os.path.join(out, "_COMPLETE")):
        shutil.rmtree(tmp, ignore_errors=True)  # keep the winner
        return out, n
    shutil.rmtree(out, ignore_errors=True)  # clear any partial leftover
    try:
        os.rename(tmp, out)
    except OSError:
        # lost the race to a concurrent bench process: keep the winner
        shutil.rmtree(tmp, ignore_errors=True)
    return out, n


_UDF_RE = None


def _udf_cpu_seconds(stats: str) -> float:
    """Sum the per-operator 'UDF time ... total' lines from ds.stats().

    This is the phase-independent cost metric on this host: wall clock
    swings up to 2.5x with multi-minute noise phases, but total UDF CPU
    per doc stays flat for unchanged code."""
    import re

    global _UDF_RE
    if _UDF_RE is None:
        _UDF_RE = re.compile(r"UDF time:.*?([\d.]+)(us|ms|s) total")
    mult = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
    return sum(float(v) * mult[u] for v, u in _UDF_RE.findall(stats))


def bench_extraction(sf_dir: str, num_cpus: int, n_override: int | None = None) -> dict:
    from fetch_engines_ray.pipelines.extract import PipelineConfig, extract_corpus

    corpus, n_docs = synth_corpus_parallel(sf_dir, n_override)
    out_dir = f"/tmp/fer_bench_out_{os.getpid()}"
    # a recycled pid would APPEND uniquely-named parquet next to a stale
    # run's files — bench_mmcurate reads this dir back, so clear it
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = PipelineConfig()

    # Warm up the worker pool (python worker spawn + package import is
    # ~1-2s CPU per worker — a fixed cluster-startup cost, not pipeline
    # throughput; excluded from the timed run).
    # slice large enough to spin up every worker at high CPU counts
    extract_corpus(corpus, cfg).limit(min(4096, n_docs)).count()

    t0 = time.perf_counter()
    ds = extract_corpus(corpus, cfg)
    ds.write_parquet(out_dir)
    dt = time.perf_counter() - t0
    udf_s = _udf_cpu_seconds(ds.stats())
    return {
        "sec": dt,
        "docs": n_docs,
        "docs_per_sec": n_docs / dt,
        "udf_cpu_ms_per_doc": round(1000.0 * udf_s / n_docs, 3),
        "out_dir": out_dir,
    }


def bench_mmcurate(extracted_dir: str) -> dict:
    """Multimodal curation over the extraction output the headline run
    just wrote: distinct media refs → real-codec fingerprints →
    exact-collapse + hamming LSH → caption pairs for survivors
    (pipelines/mmcurate.py)."""
    from fetch_engines_ray.pipelines.mmcurate import curate_media

    ext = read_parquet_clean(extracted_dir)
    t0 = time.perf_counter()
    out = curate_media(ext, concurrency=(2, 16))
    n_pairs = out["pairs"].count()
    dt = time.perf_counter() - t0
    return {
        "sec": dt,
        "caption_pairs": n_pairs,
        "dropped_media": out["n_dropped"],
    }


def bench_curate(sf_dir: str) -> dict:
    """The composed curation chain a real user runs at 100 TB — exact +
    minhash near-dedup, SemDeDup over the parallel embeddings table,
    benchmark decontamination, gopher quality gate + PII redaction,
    CCNet perplexity tail cut, DSIR selection, sequence packing — timed
    end-to-end over the documents table.

    ``udf_cpu_ms_per_doc`` here covers the returned packed Dataset's
    lineage (the full lazy chain re-executed at the final consume); the
    eager side-computations inside the chain (minhash pair
    verification, LM quantile cut) are in the wall time but not the UDF
    sum — it is the phase guard, not a complete CPU account."""
    from fetch_engines_ray.pipelines.curate import curate_corpus

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    emb = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    n_docs = docs.count()
    bench_texts = [r["text"] for r in docs.take(4)]
    dsir_target = [r["text"] for r in docs.take(32)]

    t0 = time.perf_counter()
    packed = curate_corpus(
        docs,
        max_tokens=512,
        benchmark_texts=bench_texts,
        embeddings=emb,
        semdedup_eps=0.95,
        dsir_target_texts=dsir_target,
        dsir_n=max(256, n_docs // 2),
        ppl_tail_quantile=0.05,
    )
    # materialize, not count(): count() routes through an internal
    # AggregateNumRows dataset and leaves .stats() empty; the packed
    # output is sequence-scale tiny
    packed = packed.materialize()
    n_seqs = packed.count()
    dt = time.perf_counter() - t0
    udf_s = _udf_cpu_seconds(packed.stats())
    return {
        "sec": dt,
        "docs": n_docs,
        "sequences": n_seqs,
        "docs_per_sec": n_docs / dt,
        "udf_cpu_ms_per_doc": round(1000.0 * udf_s / n_docs, 3),
    }


def bench_queries(sf_dir: str) -> dict[str, float]:
    """Secondary pipelines (agg / dedup / knn / relational)."""
    import __ray_entry__ as entrymod

    qs = entrymod.queries()

    # like-for-like operator timing: the registry query now unions
    # planted clones and re-verifies them on every run (correctness
    # instrumentation, not operator cost) — bench the raw operator the
    # way rounds 1-2 did so cross-round numbers stay comparable
    def _raw_minhash(sf: str):
        import ray.data

        from fetch_engines_ray.ops.dedup import minhash_lsh_pairs

        return minhash_lsh_pairs(read_parquet_clean(f"{sf}/documents.parquet"))

    def _raw_knn(sf: str):
        import ray.data

        from fetch_engines_ray.ops.similarity import knn_bruteforce

        return knn_bruteforce(
            read_parquet_clean(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"]),
            query_ids=list(range(8)),
            k=10,
        )

    def _raw_linededup(sf: str):
        import ray.data

        from fetch_engines_ray.ops.dedup import line_dedup

        return line_dedup(
            read_parquet_clean(f"{sf}/documents.parquet", columns=["doc_id", "text"])
        )

    def _kmeans(sf: str):
        import ray.data

        from fetch_engines_ray.ops.clustering import kmeans_assign, kmeans_fit

        emb = read_parquet_clean(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
        cents = kmeans_fit(emb, n_clusters=16, n_iters=4)
        return kmeans_assign(emb, cents)

    def _bpe(sf: str):
        import ray.data

        from fetch_engines_ray.ops.bpe import bpe_encode, bpe_train

        docs = read_parquet_clean(f"{sf}/documents.parquet", columns=["doc_id", "text"])
        merges = bpe_train(docs, n_merges=200)
        return bpe_encode(docs, merges)

    def _logreg(sf: str):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        import ray.data

        from fetch_engines_ray.ops.classifier import logreg_fit, logreg_score
        from fetch_engines_ray.ops.textstats import text_features_pipeline

        docs = read_parquet_clean(f"{sf}/documents.parquet", columns=["doc_id", "text", "lang"])
        feats = text_features_pipeline(docs).map_batches(
            lambda b: b.append_column(
                "label", _pc.cast(_pc.equal(b["lang"], _pa.scalar("en")), _pa.int64())
            ),
            batch_format="pyarrow",
        ).materialize()  # tiny feature table; fit re-executes lineage per pass
        w = logreg_fit(feats, ["punct_ratio", "stopword_ratio", "quality"], n_iters=15)
        return logreg_score(feats, w, ["punct_ratio", "stopword_ratio", "quality"])

    def _ann_index(sf: str):
        import shutil
        import tempfile

        import numpy as np

        import ray.data

        from fetch_engines_ray.ops.ann_index import build_ivf_index, search_ivf_index

        emb = read_parquet_clean(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
        path = tempfile.mkdtemp(prefix="fer_bench_ivf_")
        try:
            build_ivf_index(emb, path, n_clusters=16, n_iters=3)
            queries = np.asarray(
                [r["embedding"] for r in emb.take(8)], dtype=np.float64
            )
            return search_ivf_index(path, queries, k=10, nprobe=4)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def _semdedup(sf: str):
        import ray.data

        from fetch_engines_ray.ops.semdedup import semdedup

        emb = read_parquet_clean(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
        return semdedup(emb, eps=0.95)

    def _dsir(sf: str):
        import ray.data

        from fetch_engines_ray.ops.dsir import (
            dsir_resample,
            dsir_weights,
            log_importance_ratio,
            raw_bucket_counts,
            target_bucket_counts,
        )

        docs = read_parquet_clean(f"{sf}/documents.parquet", columns=["doc_id", "text"])
        target = [r["text"] for r in docs.take(64)]
        lr = log_importance_ratio(target_bucket_counts(target), raw_bucket_counts(docs))
        return dsir_resample(dsir_weights(docs, lr), n=100, seed=0)

    def _mixture(sf: str):
        import ray.data

        from fetch_engines_ray.ops.mixing import sample_token_budget

        docs = read_parquet_clean(
            f"{sf}/documents.parquet", columns=["doc_id", "lang", "text"]
        )
        return sample_token_budget(
            docs, {"en": 30000, "de": 20000, "fr": 15000}, domain_col="lang"
        )

    def _ivfpq(sf: str):
        import shutil
        import tempfile

        import numpy as np

        import ray.data

        from fetch_engines_ray.ops.ann_index import build_ivfpq_index, search_ivfpq_index

        emb = read_parquet_clean(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
        path = tempfile.mkdtemp(prefix="fer_bench_ivfpq_")
        try:
            build_ivfpq_index(emb, path, n_clusters=16, pq_m=8, pq_ksub=64, n_iters=3)
            queries = np.asarray(
                [r["embedding"] for r in emb.take(8)], dtype=np.float64
            )
            return search_ivfpq_index(path, queries, k=10, nprobe=4)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    qs = {
        **qs,
        "minhash_dedup_pairs": _raw_minhash,
        # the registry query now ALSO runs IVF + recall instrumentation
        # every sweep; bench the raw exact operator for cross-round
        # comparability (same rationale as _raw_minhash above)
        "knn_bruteforce": _raw_knn,
        "line_dedup": _raw_linededup,
        "kmeans_embeddings": _kmeans,
        "bpe_train_encode": _bpe,
        "logreg_quality": _logreg,
        "ann_index_build_search": _ann_index,
        "semdedup_embeddings": _semdedup,
        "dsir_select": _dsir,
        "ivfpq_build_search": _ivfpq,
        "domain_mixture": _mixture,
    }
    names = [
        "doc_token_counts",
        "exact_dedup_groups",
        "minhash_dedup_pairs",
        "line_dedup",
        "knn_bruteforce",
        "lineitem_pricing_summary",
        "lineitem_pricing_rollup",
        "revenue_by_orderpriority",
        "events_tumbling_window",
        "events_hopping_window",
        "top_docs_per_lang",
        "doc_normalized_text",
        "doc_sequence_packing",
        "kmeans_embeddings",
        "bpe_train_encode",
        "logreg_quality",
        "ann_index_build_search",
        "doc_lm_perplexity",
        "semdedup_embeddings",
        "dsir_select",
        "domain_mixture",
        "ivfpq_build_search",
        "events_value_lag",
    ]
    times = {}
    for name in names:
        best = None
        for _ in range(2):  # best-of-2: the box has ±30% noise phases
            import ray.data as _rd

            t0 = time.perf_counter()
            result = qs[name](sf_dir)
            # consume lazily-returned datasets (NOTE: an attribute probe
            # is wrong here — ray.data.Dataset has BOTH .count and
            # .columns, so `not hasattr(result, "columns")` silently
            # skipped execution and recorded plan-build time)
            if isinstance(result, _rd.Dataset):
                result.count()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        times[name] = round(best, 3)
    return times


def run_single(sf_dir: str, num_cpus: int, include_queries: bool, n_override: int | None = None) -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    ext = bench_extraction(sf_dir, num_cpus, n_override)
    queries = {"extraction": round(ext["sec"], 3)}
    curate = None
    mm = None
    if include_queries:
        queries.update(bench_queries(sf_dir))
        curate = bench_curate(sf_dir)
        queries["curate_corpus"] = round(curate["sec"], 3)
        mm = bench_mmcurate(ext["out_dir"])
        queries["curate_media"] = round(mm["sec"], 3)
    result = {
        "metric": "end_to_end_extraction_wall_time",
        "value": round(ext["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": _sf_of(sf_dir),
        "num_cpus": num_cpus,
        "docs": ext["docs"],
        "throughput_docs_per_sec": round(ext["docs_per_sec"], 1),
        # phase-independent cost metric (wall clock swings up to 2.5x
        # with host noise; UDF CPU per doc stays flat for unchanged code)
        "udf_cpu_ms_per_doc": ext["udf_cpu_ms_per_doc"],
    }
    if curate is not None:
        result["curate"] = {
            "sec": round(curate["sec"], 3),
            "docs": curate["docs"],
            "sequences": curate["sequences"],
            "docs_per_sec": round(curate["docs_per_sec"], 1),
            "udf_cpu_ms_per_doc": curate["udf_cpu_ms_per_doc"],
        }
    if mm is not None:
        result["curate_media"] = {
            "sec": round(mm["sec"], 3),
            "caption_pairs": mm["caption_pairs"],
            "dropped_media": mm["dropped_media"],
        }
    ray.shutdown()
    return result


def run_scaling(
    sf_dir: str, low: int, high: int, rounds: int = 2, n_override=None
) -> dict:
    """Fresh-process runs at two parallelism levels on the same input.

    Measured in interleaved (low, high) ROUNDS with a per-round
    efficiency ratio: this single box has ±30 % multi-minute noise
    phases (host contention), and a ratio of two back-to-back runs
    cancels a uniform slowdown where best-of-per-level (runs minutes
    apart) does not.  Reported headline = MEDIAN round ratio (the
    honest estimator); best-of stays in ``best_efficiency`` and the
    full per-round list in ``round_efficiencies``."""

    def one(n: int) -> dict:
        cmd = [sys.executable, __file__, "--single-run", "--num-cpus", str(n), "--sf-dir", sf_dir]
        if n_override:  # forward --docs so stress-scale scaling runs measure what was asked
            cmd += ["--docs", str(n_override)]
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            check=False,
        )
        lines = [ln for ln in proc.stdout.strip().split("\n") if ln.startswith("{")]
        if not lines:  # child died before printing JSON: surface ITS error
            raise RuntimeError(
                f"scaling child (num_cpus={n}) produced no result; "
                f"rc={proc.returncode}; stderr tail: {proc.stderr[-2000:]}"
            )
        return json.loads(lines[-1])

    round_results = []
    for _ in range(rounds):
        r_low, r_high = one(low), one(high)
        eff = r_low["value"] / ((high / low) * r_high["value"])
        round_results.append((eff, r_low, r_high))
    import statistics

    median_eff = statistics.median(e for e, _, _ in round_results)
    best_eff = max(e for e, _, _ in round_results)

    # CPU-normalized efficiency (the BASELINE.md round-4 hand analysis,
    # now self-reported): on ONE box the wide leg saturates the memory
    # bus, inflating the converter's measured CPU cost per doc — a
    # contention artifact a real 4x-node cluster does not have.  Scaling
    # the raw ratio by udf_high/udf_low cancels exactly that inflation:
    # eff_cpu == raw eff when per-doc UDF CPU is flat across legs.
    def _cpu_norm(e, rl, rh):
        ul, uh = rl.get("udf_cpu_ms_per_doc"), rh.get("udf_cpu_ms_per_doc")
        if not ul or not uh:
            return None
        return e * (uh / ul)

    cpu_norm = [_cpu_norm(e, rl, rh) for e, rl, rh in round_results]
    cpu_norm_clean = [c for c in cpu_norm if c is not None]
    median_eff_cpu = (
        round(statistics.median(cpu_norm_clean), 3) if cpu_norm_clean else None
    )
    # headline legs come from the round CLOSEST to the median headline,
    # so the printed times reproduce (≈) the printed efficiency; every
    # round's legs are published in `rounds` for full reconstruction
    _, r_low, r_high = min(round_results, key=lambda t: abs(t[0] - median_eff))
    return {
        "metric": "scaling_efficiency",
        "value": round(median_eff, 3),
        "best_efficiency": round(best_eff, 3),
        "unit": "ratio",
        "queries": {
            f"extraction_cpus_{low}": r_low["value"],
            f"extraction_cpus_{high}": r_high["value"],
        },
        "sf": _sf_of(sf_dir),
        "num_cpus": high,
        "throughput_low": r_low["throughput_docs_per_sec"],
        "throughput_high": r_high["throughput_docs_per_sec"],
        "scaling_factor": high / low,
        "round_efficiencies": [round(e, 3) for e, _, _ in round_results],
        "eff_cpu_normalized": median_eff_cpu,
        "round_eff_cpu_normalized": [
            round(c, 3) if c is not None else None for c in cpu_norm
        ],
        "rounds": [
            {"eff": round(e, 3), "low_s": rl["value"], "high_s": rh["value"]}
            for e, rl, rh in round_results
        ],
        # host-phase self-documentation: this box swings 2.5x+ between
        # noise phases (BASELINE.md); the per-leg UDF-CPU cost is the
        # phase-independent signal a reader needs to judge the run
        # (quiet ~4 ms/doc, mid ~5-6, bad 7+)
        "phase_udf_ms_per_doc": [
            {"low": rl.get("udf_cpu_ms_per_doc"), "high": rh.get("udf_cpu_ms_per_doc")}
            for _, rl, rh in round_results
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scaling", action="store_true")
    parser.add_argument("--single-run", action="store_true")
    parser.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    parser.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", SF_DIR_DEFAULT))
    parser.add_argument("--scale-low", type=int, default=4)
    parser.add_argument("--scale-high", type=int, default=16)
    # stress override: synthesize an N-doc corpus regardless of sf
    # (e.g. --docs 480000 = 10x the sf0.1 corpus; cached per N)
    parser.add_argument("--docs", type=int, default=None)
    args = parser.parse_args()

    if args.scaling:
        # N=4 vs 4N=16: both levels sit inside the machine's DRAM
        # bandwidth envelope, so the measurement reflects the engine's
        # scaling rather than the single box's memory ceiling (above
        # ~16 allocation-heavy workers per-CPU throughput degrades on
        # this host; full curve in BASELINE.md).
        result = run_scaling(
            args.sf_dir, args.scale_low, args.scale_high, n_override=args.docs
        )
    else:
        result = run_single(
            args.sf_dir, args.num_cpus,
            include_queries=not args.single_run, n_override=args.docs,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
