"""End-to-end training-data curation: the composed pipeline a 100-TB
corpus runs before pretraining, expressed as ONE plan of stages over a
streaming Ray Data chain.

    documents
      → step 0             (optional: C4 line-level cleaning, within-doc
                            and corpus-wide line dedup — before dedup,
                            as the published pipelines order them)
      → exact dedup        (md5 groupby winners, keep_by_keys semi-filter)
      → near dedup         (MinHash-LSH verdicts over the exact-dedup
                            winners, resolved on the driver or
                            distributed as the measured candidate-table
                            size decides; the dropped ids leave through
                            a keep_by_keys anti-filter)
      → semantic dedup     (optional: SemDeDup over an embeddings table)
      → decontamination    (optional: exact benchmark n-gram overlap,
                            then MinHash fuzzy overlap; the benchmark
                            side is broadcast once)
      ══ survivors ══        the resumable barrier (``checkpoint_name``)
      → LM perplexity gate (optional, CCNet-style: train a unigram or
                            backoff LM on the survivors, drop the worst
                            tail by per-token mean negative log-prob)
      → classifier gate    (optional: logistic regression on seed lists)
      → quality filter     (Gopher-style rules, optional repetition
        + PII redaction     rules, then ordered RE2 replaces)
      → DSIR selection     (optional: hashed-n-gram importance weights
                            vs a target sample; Gumbel top-k or a
                            streaming log-weight threshold)
      → JSONL export       (optional: one document per line)
      → tokenizer          (optional: train BPE or unigram-LM pieces on
                            the cleaned corpus, encode, ship artifacts)
      → sequence packing   (shard-local greedy first-fit)
      → sharded export     (optional: seeded global shuffle, one dir
                            per shard — the layout trainers stream)

Most stages are batch transforms.  The wide ones are the exact-dedup
group-by and semi-filter, the near-dup LSH exchange, the two line-dedup
exchanges, the LM word-count shuffle and the export shuffle.  A stage
whose output several consumers read declares a barrier, and only
barriers materialize (to parquet).  Nothing corpus-sized ever reaches
the driver.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, NamedTuple

import pyarrow as pa

import ray
import ray.data

from ..state.checkpoint import (
    _checkpoint_parquet,
    _cleanup_checkpoint,
    footer_rows,
    plan_fingerprint,
    try_named_checkpoint,
    write_named_checkpoint,
)

_SURVIVORS = "curate_survivors"
# each barrier's spill tag and the name its wall time is recorded under
_BARRIER_NAMES = {
    "curate_step0": "step0_checkpoint",
    _SURVIVORS: "survivor_checkpoint",
    "curate_clean_gated": "clean_gate_checkpoint",
    "curate_clean": "clean_checkpoint",
}


class _Ctx(NamedTuple):
    id_col: str
    text_col: str
    timing: dict  # stage or barrier name -> wall seconds
    funnel: dict  # "input" and each barrier -> surviving rows


class _Stage(NamedTuple):
    name: str
    run: Callable  # (ds, ctx, **opts) -> ds; None when nothing is left
    opts: dict
    spill: str | None = None  # barrier tag: the output is consumed more than once


def _canonical(ds: "ray.data.Dataset", ctx: _Ctx, back: bool = False):
    """``ds`` with this chain's id/text columns renamed to the dedup
    module's ``doc_id``/``text`` (``back``: the other way round)."""
    pairs = [(ctx.id_col, "doc_id"), (ctx.text_col, "text")]
    renames = {b: a for a, b in pairs} if back else dict(pairs)
    renames = {old: new for old, new in renames.items() if old != new}
    return ds.rename_columns(renames) if renames else ds


def _drop_flagged(ds: "ray.data.Dataset", added: list) -> "ray.data.Dataset":
    """Drop the rows whose flag column ``added[0]`` is set, then every
    column the flagging op added."""
    import pyarrow.compute as pc

    def drop(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(batch[added[0]])).drop_columns(added)

    return ds.map_batches(drop, batch_format="pyarrow", batch_size=4096)


def _c4_clean(ds, ctx, *, min_words, min_sentences, badwords):
    # Raffel et al. 2020: cleaning first turns pages that differ only
    # in boilerplate lines into EXACT duplicates
    from ..ops.c4 import c4_clean

    return c4_clean(
        ds,
        text_col=ctx.text_col,
        min_words=min_words,
        min_sentences=min_sentences,
        badwords=tuple(badwords),
    )


def _within_doc_line_dedup(ds, ctx):
    from ..ops.c4 import dedup_lines_within_doc

    def within(batch: pa.Table) -> pa.Table:
        out = dedup_lines_within_doc(batch, text_col=ctx.text_col)
        idx = out.schema.get_field_index(ctx.text_col)
        out = out.set_column(idx, ctx.text_col, out.column("text_line_deduped"))
        return out.drop_columns(["text_line_deduped", "n_dropped_lines"])

    return ds.map_batches(within, batch_format="pyarrow", batch_size=4096)


def _corpus_line_dedup(ds, ctx):
    from ..ops.dedup import line_dedup

    view = ds.select_columns([ctx.id_col, ctx.text_col])
    out = line_dedup(view, text_col=ctx.text_col, id_col=ctx.id_col)
    return _canonical(out.drop_columns(["n_lines"]), ctx, back=True)


def _size_count(ds, ctx):
    # Empty-corpus short-circuit (fuzz-found): an empty Dataset is
    # SCHEMA-LESS in Ray and every join after this dies on it, while C4
    # can legally wipe a boilerplate-only corpus.  On a plain read or a
    # step-0 spill the count comes from parquet footers.
    n = ds.count()
    ctx.funnel["input"] = int(n)
    return ds if n else None


def _exact_dedup(ds, ctx):
    from ..ops.dedup import exact_dedup_groups, keep_by_keys

    return keep_by_keys(
        ds.select_columns([ctx.id_col, ctx.text_col]),
        exact_dedup_groups(ds, ctx.text_col, ctx.id_col),
        ctx.id_col,
        keep=True,
        keys_col="keep_doc_id",
    )


def _near_dedup(ds, ctx, *, threshold):
    # MinHash verdicts over the exact-dedup WINNERS: exact clones share
    # signatures, so the contraction keeps the cluster topology and the
    # min-id representative while candidate expansion stops being
    # quadratic in clone group size.  The dedup module keys on its
    # canonical names (a silent column mismatch once no-opped the drop).
    from ..ops.dedup import keep_by_keys, minhash_dedup_ds

    verdicts = minhash_dedup_ds(_canonical(ds, ctx), threshold=threshold)
    dropped = verdicts.filter(expr="is_kept == False")
    return keep_by_keys(ds, dropped, ctx.id_col, keep=False, keys_col="doc_id")


def _semdedup(ds, ctx, *, embeddings, eps, emb_id_col):
    # docs with no embedding row carry no duplicate evidence and stay
    from ..ops.dedup import keep_by_keys
    from ..ops.semdedup import semdedup

    flags = semdedup(embeddings, eps=eps, id_col=emb_id_col)
    dropped = flags.filter(expr="semdedup_keep == False")
    return keep_by_keys(ds, dropped, ctx.id_col, keep=False, keys_col=emb_id_col)


def _decontam(ds, ctx, *, benchmark_texts, n):
    from ..ops.decontam import flag_contaminated

    flagged = flag_contaminated(ds, benchmark_texts, n=n, text_col=ctx.text_col)
    return _drop_flagged(flagged, ["contaminated", "n_contaminated_ngrams"])


def _fuzzy_decontam(ds, ctx, *, benchmark_texts, threshold):
    # Llama-style: catches the paraphrases that defeat the n-gram rule
    from ..ops.decontam import fuzzy_decontaminate

    flagged = fuzzy_decontaminate(
        ds, benchmark_texts, threshold=threshold, text_col=ctx.text_col
    )
    return _drop_flagged(
        flagged, ["fuzzy_contaminated", "max_bench_jaccard", "matched_bench_id"]
    )


def _perplexity(ds, ctx, *, tail_quantile, lm, max_vocab):
    # Before redaction, so the LM sees natural text.  The backoff count
    # cutoff >= 2 on orders 2..3 is load-bearing: the LM trains on the
    # corpus it gates, so a doc's own singleton n-grams would otherwise
    # self-support and scrambled text would score like natural text.
    import numpy as np

    from ..ops.lm import EmptyCorpusError, mean_neg_quantiles

    try:
        if lm == "backoff":
            from ..ops.backoff_lm import score_backoff, train_backoff_lm

            model = train_backoff_lm(
                ds, text_col=ctx.text_col, min_count=(1, 2, 2), max_ngrams=max_vocab
            )
            scored = score_backoff(ds, model, text_col=ctx.text_col)
            score_cols = ["sb_token_count", "sb_logscore_micro", "sb_mean_neg"]
        else:
            from ..ops.lm import score_perplexity, train_unigram_lm

            model = train_unigram_lm(ds, text_col=ctx.text_col, max_vocab=max_vocab)
            scored = score_perplexity(ds, model, text_col=ctx.text_col)
            score_cols = ["lm_token_count", "lm_logprob_micro", "ppl_bucket"]
    except EmptyCorpusError:
        return ds  # no survivor carries a token: nothing to rank
    tc_col, s_col = score_cols[:2]
    (cut,) = mean_neg_quantiles(
        scored, qs=(1.0 - tail_quantile,), tc_col=tc_col, s_col=s_col
    )

    def gate(batch: pa.Table) -> pa.Table:
        tc = batch[tc_col].to_numpy(zero_copy_only=False)
        s = batch[s_col].to_numpy(zero_copy_only=False)
        mean_neg = np.where(tc > 0, (-s) // np.maximum(tc, 1), 0)
        return batch.filter(pa.array(mean_neg <= cut)).drop_columns(score_cols)

    return scored.map_batches(gate, batch_format="pyarrow", batch_size=4096)


_CLF_FEATS = ["punct_ratio", "stopword_ratio", "quality"]


def _classifier(ds, ctx, *, pos_texts, neg_texts, threshold, iters):
    # FineWeb-Edu recipe shape: the seed lists are tiny and
    # driver-provided, so featurize distributed and fit on the driver on
    # z-scored features (raw scales differ by 50x and stall full-batch
    # GD); the weights are broadcast once.
    import numpy as np

    from ..ops.classifier import _sigmoid, logreg_fit_reference
    from ..ops.textstats import add_quality_features, text_features_pipeline

    seeds = ray.data.from_items(
        [{ctx.text_col: t, "label": 1} for t in pos_texts]
        + [{ctx.text_col: t, "label": 0} for t in neg_texts]
    )
    seed_df = text_features_pipeline(seeds, text_col=ctx.text_col).to_pandas()
    x = seed_df[_CLF_FEATS].to_numpy(dtype=np.float64)
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd[sd == 0.0] = 1.0
    w = logreg_fit_reference(
        (x - mu) / sd, seed_df["label"].to_numpy(dtype=np.float64), n_iters=iters, lr=1.0
    )
    ref = ray.put((w, mu, sd))

    def gate(batch: pa.Table) -> pa.Table:
        wv, mu, sd = ray.get(ref)
        feats = add_quality_features(batch, ctx.text_col)
        x = np.column_stack([feats[c].to_numpy(zero_copy_only=False) for c in _CLF_FEATS])
        p = _sigmoid(np.column_stack([(x - mu) / sd, np.ones(len(x))]) @ wv)
        return batch.filter(pa.array(p >= threshold))

    return ds.map_batches(gate, batch_format="pyarrow", batch_size=4096)


def _quality_redact(ds, ctx, *, repetition):
    from ..ops.textstats import (
        add_gopher_quality_flags,
        add_gopher_repetition_flags,
        add_pii_redacted,
    )

    def quality_and_redact(batch: pa.Table) -> pa.Table:
        batch = add_gopher_quality_flags(batch, text_col=ctx.text_col)
        batch = batch.filter(batch.column("gopher_pass"))
        if repetition:
            batch = add_gopher_repetition_flags(batch, text_col=ctx.text_col)
            batch = batch.filter(batch.column("gopher_rep_pass"))
        batch = add_pii_redacted(batch, text_col=ctx.text_col)
        # downstream packs the REDACTED text
        return pa.table({ctx.id_col: batch[ctx.id_col], ctx.text_col: batch["redacted_text"]})

    return ds.map_batches(quality_and_redact, batch_format="pyarrow", batch_size=4096)


def _dsir(ds, ctx, *, target_texts, n, min_logw, seed):
    # Xie et al. 2023.  Gumbel top-k selects an n-sized id set (driver
    # resident by construction, broadcast back as a filter); the
    # log-weight threshold streams for when n itself is too big to hold.
    from ..ops.dedup import keep_by_keys
    from ..ops.dsir import (
        dsir_resample,
        dsir_weights,
        log_importance_ratio,
        raw_bucket_counts,
        target_bucket_counts,
    )

    lr = log_importance_ratio(
        target_bucket_counts(target_texts), raw_bucket_counts(ds, ctx.text_col)
    )
    weighted = dsir_weights(ds, lr, text_col=ctx.text_col)
    if min_logw is not None:
        kept = weighted.filter(expr=f"dsir_logw >= {float(min_logw)}")
    else:
        sel = dsir_resample(weighted, n=n, seed=seed, id_col=ctx.id_col)
        keys = pa.table({ctx.id_col: pa.array(sel[ctx.id_col])})
        kept = keep_by_keys(weighted, keys, ctx.id_col, keep=True)
    return kept.drop_columns(["dsir_logw"])


def _jsonl_export(ds, ctx, *, path, n_shards, compression):
    from ..ops.jsonl_sink import write_jsonl_shards

    write_jsonl_shards(ds, path, n_shards=n_shards, id_col=ctx.id_col, compression=compression)
    return ds


def _tokenize(ds, ctx, *, tokenizer, size, export_path, bin_export_path, seq_len, n_shards):
    # Trains on the cleaned-corpus barrier, which training, encoding and
    # the binary export each read.  The tokenizer artifact ships with
    # the delivery: packed piece counts mean nothing without it.
    if tokenizer == "bpe":
        from ..ops.bpe import bpe_encode as encode, bpe_train, save_merges as save

        model = bpe_train(ds, n_merges=size, text_col=ctx.text_col)
    else:
        from ..ops.unigram_tok import save_model as save, unigram_encode as encode, unigram_train

        model = unigram_train(ds, vocab_size=size, text_col=ctx.text_col)
    if export_path:
        os.makedirs(export_path, exist_ok=True)
        save(model, os.path.join(export_path, "_tokenizer.json"))
    if bin_export_path:
        from ..ops.binshard import export_token_delivery

        export_token_delivery(
            ds,
            model,
            bin_export_path,
            seq_len=seq_len,
            n_shards=n_shards,
            text_col=ctx.text_col,
            id_col=ctx.id_col,
        )
    return encode(ds, model, text_col=ctx.text_col, id_col=ctx.id_col)


def _pack(ds, ctx, *, max_tokens, count_col):
    from ..ops.packing import pack_sequences

    return pack_sequences(
        ds, max_tokens=max_tokens, id_col=ctx.id_col, text_col=ctx.text_col, count_col=count_col
    )


def _shard_export(ds, ctx, *, path, n_shards):
    # the packed table is consumed twice (export + return): the caller's
    # consumption re-executes rather than pinning; exports are terminal
    from ..ops.partitioning import export_shards

    export_shards(ds, path, n_shards=n_shards, id_col="seq_id")
    return ds


def _since(t0: float) -> float:
    return round(time.perf_counter() - t0, 3)


def _run(plan: list, ds: "ray.data.Dataset", ctx: _Ctx, checkpoint_name: str | None):
    """Run ``plan`` over ``ds`` and return the last stage's output, or
    None when the corpus came up empty.  Every stage's wall time lands
    in ``ctx.timing``.  Every barrier is handled the same way: one
    parquet spill, its row count from the footers into ``ctx.funnel``,
    and release of the previous anonymous spill, which the new one has
    consumed.  The step-0 spill is released that way too.  Only the
    spills nothing later consumes stay, because the returned Dataset
    streams from them.

    With ``checkpoint_name`` the survivor barrier is a named checkpoint
    keyed by the input content plus the name and options of every stage
    up to it: a run whose key matches resumes there and skips those
    stages, a run with another key raises."""
    key = held = None
    if checkpoint_name is not None:
        t0 = time.perf_counter()
        k = 1 + next(i for i, st in enumerate(plan) if st.spill == _SURVIVORS)
        key = plan_fingerprint(
            ds, [ctx.id_col, ctx.text_col], [(st.name, st.opts) for st in plan[:k]]
        )
        hit = try_named_checkpoint(_SURVIVORS, checkpoint_name, key)
        if hit is not None:
            ds, path = hit
            plan = plan[k:]
            ctx.funnel["survivors"] = footer_rows(path)
        ctx.timing["survivor_resume" if hit else "resume_fingerprint"] = _since(t0)
    for st in plan:
        t0 = time.perf_counter()
        ds = st.run(ds, ctx, **st.opts)
        ctx.timing[st.name] = _since(t0)
        if ds is None:
            return None
        if st.spill:
            t0 = time.perf_counter()
            named = key is not None and st.spill == _SURVIVORS
            if named:
                ds, path = write_named_checkpoint(ds, st.spill, checkpoint_name, key)
            else:
                ds, path = _checkpoint_parquet(ds, st.spill)
            if held is not None:
                _cleanup_checkpoint(held)
            held = None if named else path
            ctx.funnel[st.spill.removeprefix("curate_")] = footer_rows(path)
            ctx.timing[_BARRIER_NAMES[st.spill]] = _since(t0)
    return ds


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
    """Run the curation plan; returns the packed-sequence Dataset
    (``seq_id, doc_ids, n_docs, total_tokens, oversize``) over the
    surviving, redacted documents.

    The arguments build an ordered plan of stages (module docstring):
    each optional stage joins it only when its options ask for it, and
    one loop runs the plan.  A stage whose output is consumed more than
    once declares a barrier, which spills to parquet under
    ``FER_CHECKPOINT_DIR`` (default /tmp):

    - ``curate_step0`` after any step-0 stage (the count, the exact
      dedup, its filter and the MinHash view all read the cleaned
      input);
    - ``curate_survivors`` after dedup and decontamination, when the
      perplexity gate or DSIR reads the survivors in several passes, or
      always with ``checkpoint_name``;
    - ``curate_clean_gated`` after the quality gate when the costly
      ``gopher_repetition`` kernel feeds DSIR or the JSONL export;
    - ``curate_clean`` before a ``tokenizer="bpe"|"unigram"``, which
      trains on the cleaned corpus, encodes it and (``bin_export_path``,
      BPE only) writes trainer-ready binary token shards from it.

    A barrier frees the previous spill once it has consumed it.  The
    last spill stays, since the returned Dataset streams from it.

    ``checkpoint_name`` makes the run RESUMABLE across process
    restarts: the survivor barrier becomes a keyed directory whose
    fingerprint is the input's content plus the name and options of
    every stage up to it.  A re-run with the same name and fingerprint
    skips straight to it.  A mismatch raises rather than silently
    resuming foreign data.

    ``export_path`` also shard-exports the packed sequences (seeded
    shuffle, ``shard=K/`` dirs) next to the tokenizer artifact;
    ``jsonl_export_path`` ships the cleaned DOCUMENT table as
    ``.jsonl`` / ``.jsonl.gz`` shards before packing.  ``ppl_lm`` picks
    the perplexity model: ``"unigram"`` (CCNet add-alpha) or
    ``"backoff"`` (Stupid-Backoff trigram, Brants et al. 2007).  Bad
    options raise before any Ray work.

    With ``FER_CURATE_TIMING=1`` the chain prints one JSON line: each
    stage's and barrier's wall time (``curate_timing_sec``) and the
    rows at the input and every barrier (``curate_funnel``), read from
    parquet footers only."""
    # bad options raise here, not after the eager upstream has run: an
    # unknown tokenizer would pack by whitespace with no artifact, a
    # fuzzy threshold without benchmark texts would run ZERO
    # decontamination, and a near-dup threshold outside (0, 1] drops no
    # or every candidate
    if tokenizer not in ("whitespace", "bpe", "unigram"):
        raise ValueError(f"unknown tokenizer {tokenizer!r} (whitespace|bpe|unigram)")
    if bin_export_path and tokenizer != "bpe":
        raise ValueError(
            "bin_export_path requires tokenizer='bpe' (binary shards carry BPE token ids)"
        )
    if ppl_lm not in ("unigram", "backoff"):
        raise ValueError(f"unknown ppl_lm {ppl_lm!r} (unigram|backoff)")
    if fuzzy_decontam_threshold is not None and not benchmark_texts:
        raise ValueError(
            "fuzzy_decontam_threshold requires benchmark_texts — without "
            "them no decontamination runs at all"
        )
    if not 0 < near_dup_threshold <= 1:
        raise ValueError(f"near_dup_threshold must be in (0, 1], got {near_dup_threshold!r}")
    dsir_on = bool(dsir_target_texts and (dsir_n or dsir_min_logw is not None))

    plan: list[_Stage] = []

    def add(name: str, run: Callable, **opts) -> None:
        plan.append(_Stage(name, run, opts))

    def barrier(tag: str) -> None:
        plan[-1] = plan[-1]._replace(spill=tag)

    if c4_clean:
        add("c4_clean", _c4_clean, min_words=c4_min_words,
            min_sentences=c4_min_sentences, badwords=c4_badwords)
    if within_doc_line_dedup:
        add("within_doc_line_dedup", _within_doc_line_dedup)
    if corpus_line_dedup:
        add("corpus_line_dedup", _corpus_line_dedup)
    if plan:
        barrier("curate_step0")
    add("size_count", _size_count)
    add("exact_dedup", _exact_dedup)
    add("near_dedup_decisions", _near_dedup, threshold=near_dup_threshold)
    if embeddings is not None:
        add("semdedup_flags", _semdedup, embeddings=embeddings, eps=semdedup_eps,
            emb_id_col=emb_id_col)
    if benchmark_texts:
        add("decontam", _decontam, benchmark_texts=benchmark_texts, n=decontam_ngram)
    if benchmark_texts and fuzzy_decontam_threshold is not None:
        add("fuzzy_decontam", _fuzzy_decontam, benchmark_texts=benchmark_texts,
            threshold=fuzzy_decontam_threshold)
    if checkpoint_name is not None or ppl_tail_quantile is not None or dsir_on:
        barrier(_SURVIVORS)
    if ppl_tail_quantile is not None:
        add("perplexity_cut", _perplexity, tail_quantile=ppl_tail_quantile, lm=ppl_lm,
            max_vocab=lm_max_vocab)
    if clf_pos_texts and clf_neg_texts:
        add("clf_fit", _classifier, pos_texts=clf_pos_texts, neg_texts=clf_neg_texts,
            threshold=clf_threshold, iters=clf_iters)
    add("quality_redact", _quality_redact, repetition=gopher_repetition)
    if gopher_repetition and (dsir_on or jsonl_export_path):
        barrier("curate_clean_gated")
    if dsir_on:
        add("dsir_select", _dsir, target_texts=dsir_target_texts, n=dsir_n,
            min_logw=dsir_min_logw, seed=dsir_seed)
    if jsonl_export_path:
        add("jsonl_export", _jsonl_export, path=jsonl_export_path, n_shards=n_shards,
            compression=jsonl_compression)
    if tokenizer != "whitespace":
        barrier("curate_clean")
        add(f"{tokenizer}_train", _tokenize, tokenizer=tokenizer,
            size=bpe_merges if tokenizer == "bpe" else unigram_vocab_size,
            export_path=export_path, bin_export_path=bin_export_path,
            seq_len=max_tokens, n_shards=n_shards)
    add("pack", _pack, max_tokens=max_tokens,
        count_col=None if tokenizer == "whitespace" else "n_pieces")
    if export_path:
        add("shard_export", _shard_export, path=export_path, n_shards=n_shards)

    ctx = _Ctx(id_col, text_col, {}, {})
    packed = _run(plan, ds, ctx, checkpoint_name)
    if os.environ.get("FER_CURATE_TIMING") == "1":
        print(json.dumps({"curate_timing_sec": ctx.timing, "curate_funnel": ctx.funnel}))
    # Ray turns an empty block into one without columns at every map, so
    # an output with no rows (nothing survived the gates) would have no
    # schema; a typed empty block rides along (``schema()`` takes the
    # first non-empty one)
    from ..ops.packing import _OUT_SCHEMA

    typed = ray.data.from_arrow(_OUT_SCHEMA.empty_table())
    return typed if packed is None else packed.union(typed)
