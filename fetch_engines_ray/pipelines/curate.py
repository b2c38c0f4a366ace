"""End-to-end training-data curation: the composed pipeline a 100-TB
corpus runs before pretraining, expressed as ONE streaming Ray Data
chain.

    documents
      → exact dedup        (md5 groupby winners, keep_by_keys semi-filter)
      → near dedup         (MinHash-LSH verdicts over the exact-dedup
                            winners, resolved on the driver or
                            distributed as the measured candidate-table
                            size decides; the dropped ids leave through
                            a keep_by_keys anti-filter)
      → semantic dedup     (optional: SemDeDup over an embeddings
                            table — cluster-bucketed cosine groups,
                            one keeper per group; the flagged ids
                            leave through a keep_by_keys anti-filter)
      → decontamination    (optional: benchmark n-gram hash set
                            broadcast once, vectorized overlap check —
                            drops docs contaminated by the eval set)
      → LM perplexity gate (optional, CCNet-style: train a unigram LM
                            on the surviving corpus in one word-count
                            shuffle, score with the broadcast table,
                            drop the worst tail by per-token mean
                            negative log-probability)
      → quality filter     (Gopher-style integer rules, vectorized;
                            optional C4 line-level cleaning runs as
                            step 0, before dedup — see ops/c4.py)
      → PII redaction      (ordered RE2 replaces)
      → DSIR selection     (optional: hashed-n-gram importance
                            weights vs a target sample; select by
                            Gumbel top-k (driver-sized id set,
                            broadcast filter) or by a pure streaming
                            log-weight threshold)
      → [tokenizer="bpe"]  (optional: checkpoint the cleaned corpus to
                            parquet — the artifact real pipelines keep —
                            train a BPE tokenizer on it, encode, and
                            pack by LEARNED piece counts instead of
                            whitespace tokens)
      → sequence packing   (shard-local greedy first-fit)
      → sharded export     (optional: seeded global shuffle, one dir
                            per shard — the layout trainers stream)

Every stage is a batch transform; the only wide operations are the two
dedup group-bys/joins.  Nothing corpus-sized ever reaches the driver.
"""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data

from ..ops.dedup import exact_dedup_groups
from ..ops.packing import pack_sequences
from ..ops.textstats import add_gopher_quality_flags, add_pii_redacted


def curate_corpus(
    ds: "ray.data.Dataset",
    max_tokens: int = 512,
    near_dup_threshold: float = 0.7,
    benchmark_texts: list[str] | None = None,
    decontam_ngram: int = 13,
    fuzzy_decontam_threshold: float | None = None,
    embeddings: "ray.data.Dataset | None" = None,
    semdedup_eps: float = 0.95,
    emb_id_col: str = "vec_id",
    dsir_target_texts: list[str] | None = None,
    dsir_n: int | None = None,
    dsir_min_logw: float | None = None,
    dsir_seed: int = 0,
    ppl_tail_quantile: float | None = None,
    ppl_lm: str = "unigram",
    lm_max_vocab: int | None = 65536,
    export_path: str | None = None,
    bin_export_path: str | None = None,
    jsonl_export_path: str | None = None,
    jsonl_compression: str | None = None,
    n_shards: int = 16,
    id_col: str = "doc_id",
    text_col: str = "text",
    checkpoint_name: str | None = None,
    c4_clean: bool = False,
    within_doc_line_dedup: bool = False,
    corpus_line_dedup: bool = False,
    c4_min_words: int = 3,
    c4_min_sentences: int = 5,
    c4_badwords: tuple = (),
    gopher_repetition: bool = False,
    clf_pos_texts: list[str] | None = None,
    clf_neg_texts: list[str] | None = None,
    clf_threshold: float = 0.5,
    clf_iters: int = 200,
    tokenizer: str = "whitespace",
    bpe_merges: int = 200,
    unigram_vocab_size: int = 512,
) -> "ray.data.Dataset":
    """Run the full curation chain; returns the packed-sequence Dataset
    (``seq_id, doc_ids, n_docs, total_tokens, oversize``) over the
    surviving, redacted documents.  With ``export_path`` the packed
    sequences are ALSO shard-exported (seeded shuffle, ``shard=K/``
    dirs) — the delivery layout a trainer streams.  With
    ``jsonl_export_path`` the cleaned DOCUMENT table additionally ships
    as resumable ``.jsonl`` / ``.jsonl.gz`` shards
    (``jsonl_compression="gzip"``) — the one-doc-per-line interchange
    export (see :mod:`..ops.jsonl_sink`).

    ``tokenizer="bpe"`` trains a real BPE tokenizer on the cleaned
    corpus and packs by learned piece counts (``total_tokens`` becomes
    BPE pieces); ``tokenizer="unigram"`` does the same with the
    SentencePiece-style unigram-LM trainer
    (``ops/unigram_tok.py``, Kudo 2018) at ``unigram_vocab_size``
    pieces.  The cleaned corpus is checkpointed to parquet first
    (``FER_CHECKPOINT_DIR``, default /tmp): tokenizer training plus
    encoding consume it twice, and the checkpoint is the standard
    kept artifact / resume point between cleaning and tokenization —
    it is deliberately NOT deleted here because the returned Dataset
    streams from it lazily.

    ``checkpoint_name`` makes the run RESUMABLE across process
    restarts: the survivor table (everything downstream of dedup +
    decontamination — the expensive half) spills to a keyed directory
    under ``FER_CHECKPOINT_DIR``, and a re-run with the same name and
    an identical input/option fingerprint skips straight to it; a
    fingerprint mismatch raises rather than silently resuming foreign
    data.

    ``clf_pos_texts`` + ``clf_neg_texts`` enable the LEARNED quality
    gate (FineWeb-Edu recipe shape): a logistic-regression classifier
    trains on the seed lists' text features, weights broadcast once,
    and docs scoring below ``clf_threshold`` are dropped before
    redaction — the model-based cut that composes with (not replaces)
    the rule-based Gopher gate.

    Near-dedup is one ``ops/dedup.minhash_dedup_ds`` call over the
    exact-dedup winners (exact clones share signatures, so the
    contraction keeps cluster topology and min-id representatives while
    candidate expansion stops being quadratic in clone group size).  It
    runs the engine's one near-dup resolver (``ops/dedup.verified_pairs``
    then ``cluster_verdicts``): the verified pairs resolve by union-find
    on the driver when they fit ``ops.exchange.BROADCAST_BYTES``, and
    into a distributed verdict Dataset by label propagation otherwise.
    ``near_dup_threshold`` outside ``(0, 1]`` raises.  Every key filter of the chain (exact-dedup winners,
    near-dup drops, SemDeDup drops) is one ``ops/dedup.keep_by_keys``
    call, which broadcasts a small key set and partitions a large one.
    The survivor set is identical on either side of the threshold
    (pytest-pinned), so the resume fingerprint does not depend on it.

    ``ppl_lm`` picks the perplexity-gate model: ``"unigram"`` (CCNet
    add-alpha, the default) or ``"backoff"`` (Stupid-Backoff trigram,
    Brants et al. 2007, singleton contexts cut — catches scrambled /
    machine-mangled text whose unigram profile looks natural).

    With ``FER_CURATE_TIMING=1`` the chain prints one JSON line of
    per-eager-stage wall-time deltas (near-dup decisions, semdedup
    flags, checkpoints, perplexity cut, DSIR select, BPE train,
    exports) — the barriers an operator watches on a long run — PLUS a
    ``curate_funnel`` of per-stage surviving-row counts (input, then
    one entry per spilled checkpoint) read from parquet footers only,
    so the "where did my documents go" question costs nothing; the
    returned Dataset's ``.stats()`` only covers the final lazy chain."""
    # Eager-stage wall clock, printed as one JSON line when
    # FER_CURATE_TIMING=1: the chain's EAGER boundaries (near-dup
    # decisions, survivor checkpoint, perplexity cut, DSIR select, BPE
    # train) are where a long 100-TB run actually spends its barriers,
    # and per-stage deltas tell an operator WHICH barrier to look at —
    # the returned Dataset's .stats() only covers the final lazy chain.
    import os as _os
    import time as _time

    _timing_on = _os.environ.get("FER_CURATE_TIMING") == "1"

    # loud option validation up front (the ppl_lm check lives at its
    # branch; these have silent-fallthrough failure modes instead): an
    # unknown tokenizer would pack by whitespace with no artifact, a
    # fuzzy threshold without benchmark texts would run ZERO
    # decontamination, and a near-dup threshold outside (0, 1] would
    # drop no or every candidate — all ship wrong deliveries with no
    # error.
    if tokenizer not in ("whitespace", "bpe", "unigram"):
        raise ValueError(
            f"unknown tokenizer {tokenizer!r} (whitespace|bpe|unigram)"
        )
    if fuzzy_decontam_threshold is not None and not benchmark_texts:
        raise ValueError(
            "fuzzy_decontam_threshold requires benchmark_texts — without "
            "them no decontamination runs at all"
        )
    # a threshold above 1 matches no pair (near-dedup silently off)
    if not 0 < near_dup_threshold <= 1:
        raise ValueError(f"near_dup_threshold must be in (0, 1], got {near_dup_threshold!r}")

    # 0. optional C4 line-level cleaning (Raffel et al. 2020): boilerplate
    #    lines dropped and failing pages removed BEFORE dedup, as the
    #    paper orders it — cleaning first means near-identical pages whose
    #    only differences are boilerplate lines become EXACT duplicates.
    #    One streaming map stage; participates in the resume fingerprint.
    if c4_clean:
        from ..ops.c4 import c4_clean as _c4_clean_fn

        ds = _c4_clean_fn(
            ds,
            text_col=text_col,
            min_words=c4_min_words,
            min_sentences=c4_min_sentences,
            badwords=tuple(c4_badwords),
        )

    # Empty-corpus short-circuit (fuzz-found): an empty Dataset is
    # SCHEMA-LESS in Ray, and the minhash bucket self-join (and every
    # join after it) dies on a schema-less side ("No match ... for key
    # field reference").  Aggressive gates (C4 can legally wipe a
    # boilerplate-only corpus) make empty a NORMAL case, not an error —
    # return the typed empty packed table the chain would produce.
    # 0b. optional WITHIN-document repeated-line removal (per-page
    #     boilerplate; ops/c4.dedup_lines_within_doc) and 0c. optional
    #     CROSS-corpus line dedup (C4/RefinedWeb rule; ops/dedup.line_dedup
    #     — two int64-keyed shuffles, text rebuilt from surviving lines).
    #     Both run BEFORE exact dedup, as the published pipelines order
    #     them, and both fold into the resume fingerprint below.
    if within_doc_line_dedup:
        from ..ops.c4 import dedup_lines_within_doc

        def _within(batch: pa.Table) -> pa.Table:
            out = dedup_lines_within_doc(batch, text_col=text_col)
            idx = out.schema.get_field_index(text_col)
            out = out.set_column(idx, text_col, out.column("text_line_deduped"))
            return out.drop_columns(["text_line_deduped", "n_dropped_lines"])

        ds = ds.map_batches(_within, batch_format="pyarrow", batch_size=4096)
    if corpus_line_dedup:
        from ..ops.dedup import line_dedup as _line_dedup_fn

        view = ds.select_columns([id_col, text_col])
        renames = {
            old: new
            for old, new in ((id_col, "doc_id"), (text_col, "text"))
            if old != new
        }
        if renames:
            view = view.rename_columns(renames)
        deduped_lines = _line_dedup_fn(view).drop_columns(["n_lines"])
        back = {
            old: new
            for old, new in (("doc_id", id_col), ("text", text_col))
            if old != new
        }
        if back:
            deduped_lines = deduped_lines.rename_columns(back)
        ds = deduped_lines

    _marks: list = []
    _t_prev = [_time.perf_counter()]
    # funnel: per-stage surviving-row counts, read from checkpoint
    # parquet FOOTERS (metadata-only — free, nothing re-executes).  The
    # number every operator of a long curation run asks first: where
    # did my documents go?
    _funnel: dict = {}

    def _mark(stage: str) -> None:
        if _timing_on:
            now = _time.perf_counter()
            _marks.append((stage, round(now - _t_prev[0], 3)))
            _t_prev[0] = now

    def _count_ckpt(stage: str, path: str) -> None:
        if not _timing_on:
            return
        import glob as _glob

        import pyarrow.parquet as _pq

        n = 0
        for f in _glob.glob(_os.path.join(path, "**", "*.parquet"), recursive=True):
            n += _pq.ParquetFile(f).metadata.num_rows
        _funnel[stage] = n

    # One count pass serves the empty short-circuit AND the resume
    # fingerprint.  When any step-0 stage is attached the chain FIRST
    # spills the cleaned input to one parquet checkpoint:
    # the table below is consumed by this count, the exact-dedup
    # groupby, its semi-filter data side AND the minhash view, and
    # without the spill each consumer would re-execute the step-0 work
    # (corpus_line_dedup alone is two shuffles).  On the plain-read path
    # the count is answered from parquet footers (metadata-only, no
    # execution), so no spill is needed in either case.
    _consumable_ckpts: list = []
    if c4_clean or within_doc_line_dedup or corpus_line_dedup:
        from ..ops.dedup import _checkpoint_parquet

        ds, _step0_path = _checkpoint_parquet(ds, "curate_step0")
        _consumable_ckpts.append(_step0_path)
        _mark("step0_checkpoint")

    def _release_step0() -> None:
        """Remove the upstream step-0 spill once a DOWNSTREAM eager
        spill (named survivor checkpoint / 3b anonymous spill /
        tokenizer clean checkpoint) has fully consumed it — the
        _checkpoint_parquet contract says the caller cleans up after
        consumption, and without this every gated run leaked a
        full-cleaned-corpus-sized directory under FER_CHECKPOINT_DIR.
        When NO downstream spill point runs, the returned lazy Dataset
        still streams from these files, so the directory intentionally
        stays (respects FER_KEEP_CHECKPOINTS=1 like every
        checkpoint)."""
        if _consumable_ckpts:
            from ..ops.dedup import _cleanup_checkpoint

            for _p in _consumable_ckpts:
                _cleanup_checkpoint(_p)
            _consumable_ckpts.clear()
    n_input = ds.count()
    _funnel["input"] = int(n_input)
    if n_input == 0:
        from ..ops.packing import _OUT_SCHEMA

        return ray.data.from_arrow(_OUT_SCHEMA.empty_table())

    def _compute_survivors() -> "ray.data.Dataset":
        """Steps 1-3a (exact dedup semi-filter, near-dup drop, optional
        SemDeDup / exact / fuzzy decontamination) — the whole upstream a
        named survivor checkpoint lets a restarted run SKIP."""
        # 1. exact dedup winners — a corpus-sized key set, semi-filtered
        #    through keep_by_keys (partitioned above its broadcast limit)
        _mark("size_count")
        from ..ops.dedup import keep_by_keys, minhash_dedup_ds

        deduped = keep_by_keys(
            ds.select_columns([id_col, text_col]),
            exact_dedup_groups(ds, text_col, id_col),
            id_col,
            keep=True,
            keys_col="keep_doc_id",
        )

        # 2. near-dedup drop: MinHash-LSH verdicts over the exact-dedup
        #    WINNERS, not the full input.  Exact clones carry identical
        #    signatures (same text, same shingles), so contracting each
        #    exact group to its min-id winner preserves both the LSH
        #    cluster topology and the min-id representative, while the
        #    candidate-pair expansion stops being quadratic in clone
        #    group size (the media chain's exact-collapse-then-LSH rule,
        #    pipelines/mmcurate.py, applied to text).  minhash_dedup_ds
        #    resolves the verdicts on the driver or distributed by the
        #    measured size of its verified pairs; the ids whose is_kept
        #    is False leave through one keep_by_keys anti-filter.
        #    The dedup module keys on its canonical (doc_id, text) names
        #    — rename so the verdicts carry THIS chain's id column (a
        #    silent column mismatch here once no-opped the near-dup drop
        #    entirely).
        renames = {
            old: new
            for old, new in ((id_col, "doc_id"), (text_col, "text"))
            if old != new
        }
        dedup_view = deduped.rename_columns(renames) if renames else deduped
        verdicts = minhash_dedup_ds(dedup_view, threshold=near_dup_threshold)
        dropped = verdicts.filter(expr="is_kept == False")
        _mark("near_dedup_decisions")
        survived = keep_by_keys(deduped, dropped, id_col, keep=False, keys_col="doc_id")

        # 2b. optional semantic dedup (SemDeDup) over a parallel embeddings
        #     table keyed by the same document ids: docs flagged
        #     semdedup_keep=False leave through one anti-filter (docs
        #     with no embedding row carry no duplicate evidence and stay)
        if embeddings is not None:
            from ..ops.semdedup import semdedup

            sem_flags = semdedup(embeddings, eps=semdedup_eps, id_col=emb_id_col)
            survived = keep_by_keys(
                survived,
                sem_flags.filter(expr="semdedup_keep == False"),
                id_col,
                keep=False,
                keys_col=emb_id_col,
            )
            _mark("semdedup_flags")

        # 3. optional decontamination: drop docs whose n-grams overlap the
        #    benchmark/eval set (GPT-3-style); the benchmark hash set is
        #    broadcast once inside flag_contaminated — no shuffle
        if benchmark_texts:
            from ..ops.decontam import flag_contaminated

            flagged = flag_contaminated(
                survived, benchmark_texts, n=decontam_ngram, text_col=text_col
            )

            def drop_contaminated(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                batch = batch.filter(pc.invert(batch["contaminated"]))
                return batch.drop_columns(["contaminated", "n_contaminated_ngrams"])

            survived = flagged.map_batches(
                drop_contaminated, batch_format="pyarrow", batch_size=4096
            )

        # 3a. optional FUZZY decontamination (Llama-style): drop docs whose
        #     MinHash-estimated Jaccard to any benchmark doc reaches the
        #     threshold — catches paraphrases that defeat the exact n-gram
        #     rule.  Benchmark signatures broadcast once — no shuffle.
        if benchmark_texts and fuzzy_decontam_threshold is not None:
            from ..ops.decontam import fuzzy_decontaminate

            fz = fuzzy_decontaminate(
                survived,
                benchmark_texts,
                threshold=fuzzy_decontam_threshold,
                text_col=text_col,
            )

            def drop_fuzzy(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                batch = batch.filter(pc.invert(batch["fuzzy_contaminated"]))
                return batch.drop_columns(
                    ["fuzzy_contaminated", "max_bench_jaccard", "matched_bench_id"]
                )

            survived = fz.map_batches(
                drop_fuzzy, batch_format="pyarrow", batch_size=4096
            )

        return survived

    # Named resumable survivor checkpoint: with ``checkpoint_name`` a
    # restarted run resumes from the spilled survivor table and skips
    # every dedup/decontam stage above — the expensive half of the
    # chain.  The fingerprint (input row count + a 64-bit CONTENT
    # fingerprint of the cleaned input and the embeddings table + every
    # option that shapes the survivor set) gates the resume: same name
    # + different run raises instead of silently reusing foreign data.
    # The content fingerprint matters because the common refresh keeps
    # the cardinality (a re-crawl regenerates the same doc_ids with new
    # text) — row count alone would resume the STALE survivor table.
    _resume_fp = None
    survived = None
    if checkpoint_name is not None:
        import hashlib as _hashlib

        from ..ops.dedup import (
            content_fingerprint,
            try_named_checkpoint,
            write_named_checkpoint,
        )

        bench_md5 = (
            _hashlib.md5("\x00".join(benchmark_texts).encode()).hexdigest()
            if benchmark_texts
            else None
        )
        _resume_fp = {
            "n_input": n_input,
            "input_content_fp": content_fingerprint(ds, [id_col, text_col]),
            "emb_content_fp": (
                content_fingerprint(embeddings, [emb_id_col, "embedding"])
                if embeddings is not None
                else None
            ),
            "emb_id_col": emb_id_col if embeddings is not None else None,
            "near_dup_threshold": near_dup_threshold,
            "benchmark_md5": bench_md5,
            "decontam_ngram": decontam_ngram if benchmark_texts else None,
            "fuzzy_decontam_threshold": (
                fuzzy_decontam_threshold if benchmark_texts else None
            ),
            "semdedup_eps": semdedup_eps if embeddings is not None else None,
            "has_embeddings": embeddings is not None,
            "id_col": id_col,
            "text_col": text_col,
            "c4_clean": c4_clean,
            "within_doc_line_dedup": within_doc_line_dedup,
            "corpus_line_dedup": corpus_line_dedup,
            "c4_rules": (
                (c4_min_words, c4_min_sentences, tuple(c4_badwords))
                if c4_clean
                else None
            ),
        }
        survived = try_named_checkpoint(
            "curate_survivors", checkpoint_name, _resume_fp
        )
        if survived is not None:
            _mark("survivor_resume")
            # resume hit: nothing downstream reads the cleaned input
            # again (the fingerprint pass above was its last consumer)
            _release_step0()
    if survived is None:
        survived = _compute_survivors()
        if checkpoint_name is not None:
            survived = write_named_checkpoint(
                survived, "curate_survivors", checkpoint_name, _resume_fp
            )
            _mark("survivor_checkpoint")
            _release_step0()

    # 3b. multi-consumer checkpoint: the perplexity gate (LM word-count
    #     train, score count, quantile histogram passes) and DSIR
    #     (bucket counts + weight passes) each re-execute the whole
    #     lineage above — including the exact-dedup JOIN — once per
    #     pass.  Spill the survivor table to parquet ONCE so every
    #     downstream pass streams a plain columnar read instead of
    #     re-running the shuffle chain.  This is the standard kept
    #     artifact between dedup and gating (same posture as the
    #     cleaned-corpus checkpoint in the BPE tail below); deliberately
    #     not deleted here — the returned Dataset streams from it.
    #     (With ``checkpoint_name`` the NAMED survivor checkpoint above
    #     already plays this role, so the anonymous spill is skipped.)
    if checkpoint_name is None and (
        ppl_tail_quantile is not None
        or (dsir_target_texts and (dsir_n or dsir_min_logw is not None))
    ):
        from ..ops.dedup import _checkpoint_parquet

        survived, _surv_ckpt = _checkpoint_parquet(survived, "curate_survivors")
        _mark("survivor_checkpoint")
        _count_ckpt("survivors", _surv_ckpt)
        _release_step0()

    # 4 + 5. quality gate then PII redaction, fused into one map stage
    def quality_and_redact(batch: pa.Table) -> pa.Table:
        batch = add_gopher_quality_flags(batch, text_col=text_col)
        batch = batch.filter(batch.column("gopher_pass"))
        if gopher_repetition:
            from ..ops.textstats import add_gopher_repetition_flags

            batch = add_gopher_repetition_flags(batch, text_col=text_col)
            batch = batch.filter(batch.column("gopher_rep_pass"))
        batch = add_pii_redacted(batch, text_col=text_col)
        # downstream packs the REDACTED text
        return pa.table(
            {
                id_col: batch[id_col],
                text_col: batch["redacted_text"],
            }
        )

    # 4b. optional CCNet-style perplexity gate BEFORE redaction (the LM
    #     should see natural text): train on the survivors (one
    #     word-count shuffle, vocab-bounded driver finalize), score with
    #     the broadcast table, cut the worst ``ppl_tail_quantile`` by
    #     per-token mean negative log-probability (exact distributed
    #     quantile — one int64 sort)
    if ppl_tail_quantile is not None:
        from ..ops.lm import mean_neg_quantiles, score_perplexity, train_unigram_lm

        if ppl_lm == "backoff":
            # context-aware gate (Brants et al. 2007): same shape —
            # train on survivors, broadcast model, vectorized scoring —
            # but repeated-context text scores better than scrambled
            # text with identical unigrams.  Count cutoff ≥2 on orders
            # 2..3 is load-bearing: the LM trains on the corpus being
            # gated, so a doc's own singleton bigrams/trigrams would
            # otherwise self-support at ratio 1 (ln = 0) and scrambled
            # text would score as well as natural text.
            from ..ops.backoff_lm import score_backoff, train_backoff_lm

            lm = train_backoff_lm(
                survived,
                text_col=text_col,
                min_count=(1, 2, 2),
                max_ngrams=lm_max_vocab,
            )
            scored = score_backoff(survived, lm, text_col=text_col)
            tc_col, s_col = "sb_token_count", "sb_logscore_micro"
            score_cols = [tc_col, s_col, "sb_mean_neg"]
        elif ppl_lm == "unigram":
            lm = train_unigram_lm(survived, text_col=text_col, max_vocab=lm_max_vocab)
            scored = score_perplexity(survived, lm, text_col=text_col)
            tc_col, s_col = "lm_token_count", "lm_logprob_micro"
            score_cols = [tc_col, s_col, "ppl_bucket"]
        else:
            raise ValueError(f"unknown ppl_lm {ppl_lm!r} (unigram|backoff)")
        (cut,) = mean_neg_quantiles(
            scored, qs=(1.0 - ppl_tail_quantile,), tc_col=tc_col, s_col=s_col
        )
        _mark("perplexity_cut")

        def ppl_gate(batch: pa.Table) -> pa.Table:
            import numpy as np

            tc = batch[tc_col].to_numpy(zero_copy_only=False)
            s = batch[s_col].to_numpy(zero_copy_only=False)
            mean_neg = np.where(tc > 0, (-s) // np.maximum(tc, 1), 0)
            keep = pa.array(mean_neg <= cut)
            return batch.filter(keep).drop_columns(score_cols)

        survived = scored.map_batches(ppl_gate, batch_format="pyarrow", batch_size=4096)

    # 4b2. optional LEARNED quality gate (the FineWeb-Edu recipe shape,
    #      Penedo et al. 2024: seed examples -> small classifier ->
    #      corpus-wide scored cut).  The logreg trains on the tiny seed
    #      lists (driver-provided, like dsir_target_texts), weights
    #      broadcast once via ray.put, and the gate is one vectorized
    #      map stage: features -> sigmoid -> filter.  Runs BEFORE
    #      redaction so the model sees natural text, same as the
    #      perplexity gate.
    if clf_pos_texts and clf_neg_texts:
        import numpy as _np

        from ..ops.classifier import _sigmoid, logreg_fit_reference
        from ..ops.textstats import text_features_pipeline

        _CLF_FEATS = ["punct_ratio", "stopword_ratio", "quality"]
        seeds = ray.data.from_items(
            [{text_col: t, "label": 1} for t in clf_pos_texts]
            + [{text_col: t, "label": 0} for t in clf_neg_texts]
        )
        # seed lists are driver-provided and tiny — featurize
        # distributed, finish the fit driver-side on standardized
        # features (z-scores from the seed stats; raw ratio/score
        # scales differ by 50x and stall full-batch GD)
        seed_df = text_features_pipeline(seeds, text_col=text_col).to_pandas()
        _clf_x = seed_df[_CLF_FEATS].to_numpy(dtype=_np.float64)
        _clf_mu = _clf_x.mean(axis=0)
        _clf_sd = _clf_x.std(axis=0)
        _clf_sd[_clf_sd == 0.0] = 1.0
        _clf_w = logreg_fit_reference(
            (_clf_x - _clf_mu) / _clf_sd,
            seed_df["label"].to_numpy(dtype=_np.float64),
            n_iters=clf_iters,
            lr=1.0,
        )
        _clf_ref = ray.put((_clf_w, _clf_mu, _clf_sd))
        _mark("clf_fit")

        def clf_gate(batch: pa.Table) -> pa.Table:
            import numpy as np

            from ..ops.textstats import add_quality_features

            wv, mu, sd = ray.get(_clf_ref)
            feats = add_quality_features(batch, text_col)
            x = np.column_stack(
                [feats[c].to_numpy(zero_copy_only=False) for c in _CLF_FEATS]
            )
            xs = np.column_stack([(x - mu) / sd, np.ones(len(x))])
            p = _sigmoid(xs @ wv)
            return batch.filter(pa.array(p >= clf_threshold))

        survived = survived.map_batches(
            clf_gate, batch_format="pyarrow", batch_size=4096
        )

    clean = survived.map_batches(
        quality_and_redact, batch_format="pyarrow", batch_size=4096
    )

    # 4c. the repetition kernel inside quality_and_redact is the one
    #     EXPENSIVE per-batch gate (9 per-batch n-gram groupbys); DSIR
    #     runs two eager passes over ``clean`` (raw bucket counts, then
    #     the Gumbel select over the weighted stream) and a JSONL export
    #     adds another, each re-executing the kernel.  When both
    #     conditions hold, spill the gated table once (same posture as
    #     the survivor spill in 3b) so every pass streams a plain
    #     columnar read instead of re-running the kernel.
    _dsir_on = bool(dsir_target_texts and (dsir_n or dsir_min_logw is not None))
    if gopher_repetition and (_dsir_on or jsonl_export_path):
        from ..ops.dedup import _checkpoint_parquet

        clean, _clean_gate_ckpt = _checkpoint_parquet(clean, "curate_clean_gated")
        _mark("clean_gate_checkpoint")
        _count_ckpt("clean_gated", _clean_gate_ckpt)
        _release_step0()

    # 5b. optional DSIR selection toward a target sample (Xie et al.
    #     2023): importance weights stream; selection is either Gumbel
    #     top-k (the selected id set is dsir_n-sized — driver-resident
    #     by construction, broadcast back as a filter) or a pure
    #     streaming log-weight threshold for when n itself would be too
    #     big to hold (the 100-TB path)
    if dsir_target_texts and (dsir_n or dsir_min_logw is not None):
        from ..ops.dsir import (
            dsir_resample,
            dsir_weights,
            log_importance_ratio,
            raw_bucket_counts,
            target_bucket_counts,
        )

        lr = log_importance_ratio(
            target_bucket_counts(dsir_target_texts), raw_bucket_counts(clean, text_col)
        )
        weighted = dsir_weights(clean, lr, text_col=text_col)
        if dsir_min_logw is not None:
            clean = weighted.filter(expr=f"dsir_logw >= {float(dsir_min_logw)}").drop_columns(
                ["dsir_logw"]
            )
        else:
            from ..ops.dedup import keep_by_keys

            sel = dsir_resample(weighted, n=dsir_n, seed=dsir_seed, id_col=id_col)
            _mark("dsir_select")
            clean = keep_by_keys(
                weighted, pa.table({id_col: pa.array(sel[id_col])}), id_col, keep=True
            ).drop_columns(["dsir_logw"])

    # 5c. optional DOCUMENT-level JSONL delivery: the cleaned, redacted,
    #     selected corpus as .jsonl/.jsonl.gz shards (the interchange
    #     export trainers and downstream pipelines ingest directly) —
    #     exported BEFORE packing so each line is one document.  Like
    #     export_shards below, the clean table is consumed twice
    #     (export + packing) and the second consumer re-executes the
    #     lazy chain; the tokenizer branches' clean checkpoint bounds
    #     that cost when a tokenizer is on.
    if jsonl_export_path:
        from ..ops.jsonl_sink import write_jsonl_shards

        write_jsonl_shards(
            clean,
            jsonl_export_path,
            n_shards=n_shards,
            id_col=id_col,
            compression=jsonl_compression,
        )
        _mark("jsonl_export")

    # 6. shard-local packing (+ optional delivery export)
    if tokenizer == "bpe":
        from ..ops.bpe import bpe_encode, bpe_train, save_merges
        from ..ops.dedup import _checkpoint_parquet

        clean_ckpt, _ckpt_path = _checkpoint_parquet(clean, "curate_clean")
        _mark("clean_checkpoint")
        _count_ckpt("clean", _ckpt_path)
        _release_step0()
        merges = bpe_train(clean_ckpt, n_merges=bpe_merges, text_col=text_col)
        _mark("bpe_train")
        encoded = bpe_encode(clean_ckpt, merges, text_col=text_col, id_col=id_col)
        packed = pack_sequences(
            encoded, max_tokens=max_tokens, id_col=id_col, count_col="n_pieces"
        )
        if export_path:
            # ship the tokenizer ARTIFACT with the delivery: the packed
            # token counts are meaningless without the merges behind them
            import os

            os.makedirs(export_path, exist_ok=True)
            save_merges(merges, os.path.join(export_path, "_tokenizer.json"))
        if bin_export_path:
            # trainer-ready binary token shards (.bin + idx + vocab) —
            # the memory-mappable delivery next to the parquet one
            from ..ops.binshard import export_token_delivery

            export_token_delivery(
                clean_ckpt,
                merges,
                bin_export_path,
                seq_len=max_tokens,
                n_shards=n_shards,
                text_col=text_col,
                id_col=id_col,
            )
            _mark("bin_export")
    elif tokenizer == "unigram":
        # SentencePiece-style unigram-LM tokenizer (Kudo 2018): same
        # checkpoint + train + streaming-encode shape as the BPE branch
        from ..ops.dedup import _checkpoint_parquet
        from ..ops.unigram_tok import save_model, unigram_encode, unigram_train

        if bin_export_path:
            raise ValueError(
                "bin_export_path requires tokenizer='bpe' (binary shards carry BPE token ids)"
            )
        clean_ckpt, _ckpt_path = _checkpoint_parquet(clean, "curate_clean")
        _mark("clean_checkpoint")
        _count_ckpt("clean", _ckpt_path)
        _release_step0()
        model = unigram_train(
            clean_ckpt, vocab_size=unigram_vocab_size, text_col=text_col
        )
        _mark("unigram_train")
        encoded = unigram_encode(clean_ckpt, model, text_col=text_col, id_col=id_col)
        packed = pack_sequences(
            encoded, max_tokens=max_tokens, id_col=id_col, count_col="n_pieces"
        )
        if export_path:
            import os

            os.makedirs(export_path, exist_ok=True)
            save_model(model, os.path.join(export_path, "_tokenizer.json"))
    elif bin_export_path:
        raise ValueError("bin_export_path requires tokenizer='bpe' (binary shards carry BPE token ids)")
    else:
        packed = pack_sequences(
            clean, max_tokens=max_tokens, id_col=id_col, text_col=text_col
        )
    if export_path:
        from ..ops.partitioning import export_shards

        # the packed table is consumed twice (export + return) — let the
        # caller's consumption re-execute rather than pinning; exports
        # are terminal in practice
        export_shards(packed, export_path, n_shards=n_shards, id_col="seq_id")
        _mark("shard_export")
    if _timing_on:
        import json as _json

        print(
            _json.dumps(
                {"curate_timing_sec": dict(_marks), "curate_funnel": _funnel}
            )
        )
    return packed
