"""``ray job submit`` entry point for the composed curation chain
(`pipelines/curate.py::curate_corpus`) — the pipeline a trainer runs
over a raw document corpus to get packed training sequences.

On a real cluster:

    ray job submit --working-dir . -- \
        python scripts/curate_entry.py \
        --input /data/documents --output /data/packed \
        --benchmark-file /data/eval_docs.txt --fuzzy-threshold 0.8 \
        --tokenizer bpe --bin-export /data/tokens

Locally (sandbox) it runs the same thing against a local session.  The
script owns the Ray session (the library never calls ray.init).  Stage
selection is argument-driven: every gate beyond exact+near dedup,
quality and PII is optional and off unless its argument is given.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))



def _clear_stale_parquet(path: str) -> None:
    """write_parquet APPENDS uniquely-named files — a re-run against an
    existing output dir would silently mix the previous run's parts
    into the delivery (the same hazard bench.py clears for its own
    dirs).  Remove stale .parquet files before writing."""
    import glob as _glob
    import os as _os

    for f in _glob.glob(_os.path.join(path, "**", "*.parquet"), recursive=True):
        _os.remove(f)


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [ln.rstrip("\n") for ln in f if ln.strip()]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="documents parquet dir/file (doc_id, text)")
    ap.add_argument("--output", required=True, help="packed-sequence parquet output dir")
    ap.add_argument("--max-tokens", type=int, default=512, help="pack budget per sequence")
    ap.add_argument("--near-dup-threshold", type=float, default=0.7)
    ap.add_argument(
        "--benchmark-file",
        default=None,
        help="UTF-8 text file, one benchmark/eval document per line; "
        "enables exact n-gram decontamination",
    )
    ap.add_argument("--decontam-ngram", type=int, default=13)
    ap.add_argument(
        "--fuzzy-threshold",
        type=float,
        default=None,
        help="also drop docs whose MinHash Jaccard to any benchmark doc "
        "reaches this value (requires --benchmark-file)",
    )
    ap.add_argument(
        "--embeddings",
        default=None,
        help="embeddings parquet (vec_id, embedding) keyed by doc_id; "
        "enables SemDeDup",
    )
    ap.add_argument("--semdedup-eps", type=float, default=0.95)
    ap.add_argument(
        "--dsir-target-file",
        default=None,
        help="UTF-8 text file of target-domain sample docs; enables DSIR selection",
    )
    ap.add_argument("--dsir-n", type=int, default=None)
    ap.add_argument(
        "--ppl-tail-quantile",
        type=float,
        default=None,
        help="drop the worst-perplexity tail at this quantile (CCNet-style gate)",
    )
    ap.add_argument(
        "--clf-pos-file",
        default=None,
        help="UTF-8 text file of GOOD seed docs (one per line); with "
        "--clf-neg-file enables the learned quality gate "
        "(FineWeb-Edu-style seed classifier cut)",
    )
    ap.add_argument(
        "--clf-neg-file",
        default=None,
        help="UTF-8 text file of BAD seed docs (one per line)",
    )
    ap.add_argument("--clf-threshold", type=float, default=0.5)
    ap.add_argument(
        "--tokenizer", choices=["whitespace", "bpe", "unigram"], default="whitespace"
    )
    ap.add_argument("--bpe-merges", type=int, default=200)
    ap.add_argument("--unigram-vocab-size", type=int, default=512)
    ap.add_argument(
        "--export",
        default=None,
        metavar="PATH",
        help="also shard-export the packed sequences (seeded shuffle, shard=K/ dirs)",
    )
    ap.add_argument(
        "--bin-export",
        default=None,
        metavar="PATH",
        help="also deliver binary token shards (.bin + idx + vocab; requires --tokenizer bpe)",
    )
    ap.add_argument(
        "--jsonl-export",
        default=None,
        metavar="PATH",
        help="also deliver the cleaned document table as resumable "
        ".jsonl shards (one doc per line)",
    )
    ap.add_argument(
        "--jsonl-compression",
        default=None,
        choices=["gzip"],
        help="compress --jsonl-export shards (.jsonl.gz, byte-reproducible)",
    )
    ap.add_argument("--n-shards", type=int, default=16)
    ap.add_argument(
        "--c4-clean",
        action="store_true",
        help="run C4 line-level cleaning (Raffel 2020) before dedup",
    )
    ap.add_argument(
        "--within-doc-line-dedup",
        action="store_true",
        help="drop repeated lines within each document before dedup",
    )
    ap.add_argument(
        "--corpus-line-dedup",
        action="store_true",
        help="C4/RefinedWeb cross-corpus line dedup before exact dedup",
    )
    ap.add_argument("--c4-min-sentences", type=int, default=5)
    ap.add_argument("--c4-min-words", type=int, default=3)
    ap.add_argument(
        "--c4-badwords-file",
        default=None,
        help="one badword/phrase per line; pages containing any are dropped",
    )
    ap.add_argument(
        "--gopher-repetition",
        action="store_true",
        help="also gate on the published Gopher repeated-n-gram thresholds",
    )
    ap.add_argument(
        "--checkpoint-name",
        default=None,
        help="make the run resumable: spill the post-dedup survivor table "
        "to a keyed dir under FER_CHECKPOINT_DIR; re-submitting with the "
        "same name skips the dedup/decontamination half of the chain",
    )
    args = ap.parse_args()
    if args.fuzzy_threshold is not None and not args.benchmark_file:
        ap.error("--fuzzy-threshold requires --benchmark-file")
    if bool(args.clf_pos_file) != bool(args.clf_neg_file):
        ap.error("--clf-pos-file and --clf-neg-file must be given together")
    if args.bin_export and args.tokenizer != "bpe":
        ap.error("--bin-export requires --tokenizer bpe")

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)

    from fetch_engines_ray.arrowclean import read_parquet_clean
    from fetch_engines_ray.pipelines.curate import curate_corpus

    docs = read_parquet_clean(args.input, columns=["doc_id", "text"])
    n_docs = docs.count()
    bench = _read_lines(args.benchmark_file) if args.benchmark_file else None
    dsir_target = _read_lines(args.dsir_target_file) if args.dsir_target_file else None
    emb = (
        read_parquet_clean(args.embeddings, columns=["vec_id", "embedding"])
        if args.embeddings
        else None
    )

    t0 = time.perf_counter()
    packed = curate_corpus(
        docs,
        max_tokens=args.max_tokens,
        near_dup_threshold=args.near_dup_threshold,
        c4_clean=args.c4_clean,
        within_doc_line_dedup=args.within_doc_line_dedup,
        corpus_line_dedup=args.corpus_line_dedup,
        c4_min_words=args.c4_min_words,
        c4_min_sentences=args.c4_min_sentences,
        c4_badwords=tuple(_read_lines(args.c4_badwords_file)) if args.c4_badwords_file else (),
        gopher_repetition=args.gopher_repetition,
        benchmark_texts=bench,
        decontam_ngram=args.decontam_ngram,
        fuzzy_decontam_threshold=args.fuzzy_threshold,
        embeddings=emb,
        semdedup_eps=args.semdedup_eps,
        dsir_target_texts=dsir_target,
        dsir_n=args.dsir_n,
        ppl_tail_quantile=args.ppl_tail_quantile,
        clf_pos_texts=_read_lines(args.clf_pos_file) if args.clf_pos_file else None,
        clf_neg_texts=_read_lines(args.clf_neg_file) if args.clf_neg_file else None,
        clf_threshold=args.clf_threshold,
        tokenizer=args.tokenizer,
        bpe_merges=args.bpe_merges,
        unigram_vocab_size=args.unigram_vocab_size,
        checkpoint_name=args.checkpoint_name,
        export_path=args.export,
        bin_export_path=args.bin_export,
        jsonl_export_path=args.jsonl_export,
        jsonl_compression=args.jsonl_compression,
        n_shards=args.n_shards,
    )
    if os.path.isdir(args.output):
        _clear_stale_parquet(args.output)
    packed.write_parquet(args.output)
    import ray.data

    out = ray.data.read_parquet(args.output)
    n_seqs = out.count()
    wall = time.perf_counter() - t0
    print(
        json.dumps(
            {
                "output": args.output,
                "wall_sec": round(wall, 3),
                "docs_in": n_docs,
                "sequences": n_seqs,
                "export": args.export,
                "bin_export": args.bin_export,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
