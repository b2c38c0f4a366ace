"""Text-analysis operators over a document table.

Large-scale training-data pipeline staples: token counting, quality
scoring, language ID (stopword/n-gram heuristic), document
fingerprinting.  All stages are vectorized ``map_batches`` transforms
over Arrow batches; nothing materializes the dataset.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

# Small per-language stopword marker sets for the n-gram/stopword
# language heuristic (public-knowledge word lists).
_LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "in", "is", "that", "for", "with", "was"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "mit", "für", "auf"),
    "fr": ("le", "la", "les", "et", "est", "pas", "une", "pour", "dans", "que"),
    "es": ("el", "la", "los", "de", "que", "y", "es", "una", "para", "con"),
    "it": ("il", "la", "che", "di", "e", "per", "una", "sono", "con", "non"),
}

_PUNCT_PATTERN = r"[.,;:!?]"


def add_token_count(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """token_count = number of whitespace-separated tokens (matches the
    DuckDB oracle ``array_length(string_split_regex(trim(text), '\\s+'))``)."""
    trimmed = pc.utf8_trim_whitespace(batch[text_col])
    tokens = pc.split_pattern_regex(trimmed, r"\s+")
    return batch.append_column("token_count", pc.cast(pc.list_value_length(tokens), pa.int64()))


# RE2-safe GPT-2-style pre-tokenizer pattern (contractions, letter runs,
# digit runs, punctuation runs, whitespace) — the published BPE split
# regex minus its lookahead (RE2 has none); identical semantics in
# pyarrow and DuckDB (both RE2).
BPE_SPLIT_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def add_bpe_token_count(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """bpe_token_count = number of BPE-style pre-tokenizer pieces (the
    "token counting: whitespace + a BPE-ish regex" pipeline staple) —
    one vectorized regex count per batch."""
    n = pc.cast(pc.count_substring_regex(batch[text_col], BPE_SPLIT_PATTERN), pa.int64())
    return batch.append_column("bpe_token_count", n)


def add_normalized_text(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Canonical text normalization (the dedup / tokenizer pre-pass):
    lowercase → Unicode NFC → collapse whitespace runs → trim spaces.
    All pyarrow kernels (utf8proc + RE2), which keeps the semantics
    bit-identical to DuckDB's lower/nfc_normalize/regexp_replace —
    both stacks share those libraries."""
    x = pc.utf8_lower(batch[text_col])
    x = pc.utf8_normalize(x, form="NFC")
    x = pc.replace_substring_regex(x, r"\s+", " ")
    x = pc.utf8_trim(x, " ")
    return batch.append_column("norm_text", x)


# RE2-safe PII patterns (no lookbehind/lookahead) — identical semantics
# in pyarrow and DuckDB, both RE2-based.  Applied in a fixed order so
# overlapping matches resolve the same way everywhere.
PII_PATTERNS = (
    ("[EMAIL]", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("[IP]", r"\b(?:\d{1,3}\.){3}\d{1,3}\b"),
    ("[PHONE]", r"\b\+?\d{1,3}[-. ]?\(?\d{2,4}\)?[-. ]?\d{3,4}[-. ]?\d{3,4}\b"),
)


def add_pii_redacted(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """PII scrubbing (emails → [EMAIL], IPv4 → [IP], phone-ish numbers
    → [PHONE]) — the corpus-prep staple, one vectorized RE2 replace per
    pattern per batch.  Also appends ``pii_count`` (matches redacted)."""
    x = batch[text_col]
    total = pa.array([0] * len(batch), type=pa.int64())
    for repl, pat in PII_PATTERNS:
        n = pc.cast(pc.count_substring_regex(x, pat), pa.int64())
        total = pc.add(total, n)
        x = pc.replace_substring_regex(x, pat, repl)
    batch = batch.append_column("redacted_text", x)
    return batch.append_column("pii_count", total)


def add_repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Line-repetition signals (the Gopher repetition-filter family):
    ``n_lines`` and ``n_distinct_lines`` per document as exact integers
    (a high duplicate-line fraction flags boilerplate/spam).  Lines are
    raw ``\\n`` splits, identical to SQL string_split(text, chr(10))."""
    texts = batch[text_col].to_pylist()
    n_lines = []
    n_distinct = []
    for t in texts:
        lines = (t or "").split("\n")
        n_lines.append(len(lines))
        n_distinct.append(len(set(lines)))
    batch = batch.append_column("n_lines", pa.array(n_lines, type=pa.int64()))
    return batch.append_column("n_distinct_lines", pa.array(n_distinct, type=pa.int64()))


def add_quality_features(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Length / punctuation / stopword-ratio quality signals."""
    text = batch[text_col]
    n = pc.cast(pc.utf8_length(text), pa.int64())
    punct = pc.cast(pc.count_substring_regex(text, _PUNCT_PATTERN), pa.float64())
    denom = pc.max_element_wise(pc.cast(n, pa.float64()), pa.scalar(1.0))
    punct_ratio = pc.divide(punct, denom)

    lower = pc.utf8_lower(text)
    stop_hits = pc.cast(
        pc.count_substring_regex(lower, r"\b(?:the|and|of|to|in|is|that|for)\b"),
        pa.float64(),
    )
    tokens = pc.list_value_length(pc.split_pattern_regex(pc.utf8_trim_whitespace(text), r"\s+"))
    tok_denom = pc.max_element_wise(pc.cast(tokens, pa.float64()), pa.scalar(1.0))
    stop_ratio = pc.divide(stop_hits, tok_denom)

    # simple composite quality score in [0, 10]
    len_score = pc.min_element_wise(
        pc.divide(pc.cast(n, pa.float64()), pa.scalar(120.0)), pa.scalar(6.0)
    )
    stop_score = pc.min_element_wise(pc.multiply(stop_ratio, pa.scalar(10.0)), pa.scalar(3.0))
    punct_score = pc.min_element_wise(pc.multiply(punct_ratio, pa.scalar(20.0)), pa.scalar(1.0))
    quality = pc.add(pc.add(len_score, stop_score), punct_score)

    batch = batch.append_column("punct_ratio", punct_ratio)
    batch = batch.append_column("stopword_ratio", stop_ratio)
    batch = batch.append_column("quality", quality)
    return batch


def add_lang_id(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword-marker language heuristic (vectorized: one regex count
    per language over the whole batch, argmax across languages)."""
    lower = pc.utf8_lower(batch[text_col])
    scores = []
    for lang, markers in _LANG_MARKERS.items():
        pattern = r"\b(?:" + "|".join(markers) + r")\b"
        scores.append(pc.count_substring_regex(lower, pattern).to_numpy(zero_copy_only=False))
    mat = np.stack(scores)  # [n_langs, n_rows]
    langs = list(_LANG_MARKERS)
    best = mat.argmax(axis=0)
    confident = mat.max(axis=0) > 0
    pred = np.where(confident, np.array(langs, dtype=object)[best], "und")
    return batch.append_column("lang_pred", pa.array(pred, type=pa.string()))


def add_fingerprint(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """128-bit document fingerprint: md5 of whitespace-normalized,
    lowercased text.  Stable across runs and processes, and
    SQL-oracle-equivalent to
    ``md5(regexp_replace(trim(lower(text)), '\\s+', ' ', 'g'))``."""
    texts = batch[text_col].to_pylist()
    fps = []
    for t in texts:
        norm = " ".join((t or "").lower().split())
        fps.append(hashlib.md5(norm.encode()).hexdigest())
    return batch.append_column("fingerprint", pa.array(fps, type=pa.string()))


def text_features_pipeline(ds: "ray.data.Dataset", text_col: str = "text") -> "ray.data.Dataset":
    """All text-analysis features in one fused batch stage."""

    def fused(batch: pa.Table) -> pa.Table:
        batch = add_token_count(batch, text_col)
        batch = add_quality_features(batch, text_col)
        batch = add_lang_id(batch, text_col)
        batch = add_fingerprint(batch, text_col)
        return batch

    return ds.map_batches(fused, batch_format="pyarrow", batch_size=4096)


def add_quality_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Integer quality signals (oracle-friendly: exact-hash stable,
    unlike float ratios): punctuation marks and English stopword hits."""
    text = batch[text_col]
    punct = pc.cast(pc.count_substring_regex(text, _PUNCT_PATTERN), pa.int64())
    stop = pc.cast(
        pc.count_substring_regex(
            pc.utf8_lower(text), r"\b(?:the|and|of|to|in|is|that|for)\b"
        ),
        pa.int64(),
    )
    batch = batch.append_column("punct_count", punct)
    return batch.append_column("stopword_count", stop)


def add_winnowing_fingerprint(
    batch: pa.Table, text_col: str = "text", k: int = 5, window: int = 4
) -> pa.Table:
    """Rolling-hash document fingerprinting (winnowing, Schleimer et al.
    SIGMOD 2003): Rabin-Karp rolling hashes over k-grams of tokens, then
    the minimum hash of each sliding window — position-robust local
    fingerprints (two docs sharing a long passage share its selected
    hashes regardless of where the passage sits).

    Appends ``fp_hashes: list<int64>`` (sorted unique selections).
    """
    B = np.int64(1000003)          # rolling base
    MOD = np.int64((1 << 61) - 1)  # large prime modulus
    texts = batch[text_col].to_pylist()
    out: list[list[int]] = []
    for t in texts:
        toks = (t or "").lower().split()
        if len(toks) < k:
            out.append([])
            continue
        th = np.array([zlib.crc32(w.encode()) for w in toks], dtype=np.int64)
        n = len(toks) - k + 1
        # rolling k-gram hash: h_i = sum_j th[i+j] * B^(k-1-j) mod MOD
        powers = np.array([pow(int(B), k - 1 - j, int(MOD)) for j in range(k)], dtype=np.int64)
        acc = np.zeros(n, dtype=np.int64)
        for j in range(k):
            acc = (acc + (th[j : j + n].astype(object) * int(powers[j])) % int(MOD)) % int(MOD)
        acc = acc.astype(np.int64)
        if n <= window:
            sel = {int(acc.min())}
        else:
            # winnowing: min of each length-`window` sliding window
            from numpy.lib.stride_tricks import sliding_window_view

            mins = sliding_window_view(acc, window).min(axis=1)
            sel = set(int(x) for x in np.unique(mins))
        out.append(sorted(sel))
    return batch.append_column("fp_hashes", pa.array(out, type=pa.list_(pa.int64())))


def add_gopher_quality_flags(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Rule-based document quality filter in the style of the published
    Gopher/MassiveText heuristics (Rae et al. 2021, public paper):
    word-count bounds, mean word length bounds, max symbol-to-word
    ratio, and a minimum stopword-hit requirement.  All integer/boolean
    outputs (oracle-friendly), vectorized per batch.
    """
    text = batch[text_col]
    trimmed = pc.utf8_trim_whitespace(text)
    words = pc.split_pattern_regex(trimmed, r"\s+")
    n_words = pc.cast(pc.list_value_length(words), pa.int64())
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    # mean word length x100 as integer (avoids float-hash drift).
    # TRUE word characters = total chars minus ALL whitespace chars —
    # the old (n_chars - (n_words-1)) form assumed single-space
    # separators, so CRLF lines / indentation inflated the mean and
    # flipped gopher_pass on legitimate prose (review finding)
    denom = pc.max_element_wise(n_words, pa.scalar(1, type=pa.int64()))
    n_ws = pc.cast(pc.count_substring_regex(text, r"\s"), pa.int64())
    mwl100 = pc.cast(
        pc.divide(
            pc.multiply(
                pc.subtract(n_chars, n_ws), pa.scalar(100, type=pa.int64())
            ),
            denom,
        ),
        pa.int64(),
    )
    n_hash = pc.cast(pc.count_substring(text, "#"), pa.int64())
    n_ellipsis = pc.cast(pc.count_substring(text, "..."), pa.int64())
    n_stop = pc.cast(
        pc.count_substring_regex(pc.utf8_lower(text), r"\b(?:the|be|to|of|and|that|have|with)\b"),
        pa.int64(),
    )
    symbol_ratio_1000 = pc.cast(
        pc.divide(pc.multiply(pc.add(n_hash, n_ellipsis), pa.scalar(1000, type=pa.int64())), denom),
        pa.int64(),
    )
    passes = pc.and_(
        pc.and_(
            pc.and_(
                pc.greater_equal(n_words, pa.scalar(50, type=pa.int64())),
                pc.less_equal(n_words, pa.scalar(100_000, type=pa.int64())),
            ),
            pc.and_(
                pc.greater_equal(mwl100, pa.scalar(300, type=pa.int64())),
                pc.less_equal(mwl100, pa.scalar(1000, type=pa.int64())),
            ),
        ),
        pc.and_(
            pc.less_equal(symbol_ratio_1000, pa.scalar(100, type=pa.int64())),
            pc.greater_equal(n_stop, pa.scalar(2, type=pa.int64())),
        ),
    )
    batch = batch.append_column("n_words", n_words)
    batch = batch.append_column("mean_word_len_x100", mwl100)
    batch = batch.append_column("symbol_ratio_x1000", symbol_ratio_1000)
    batch = batch.append_column("stopword_hits", n_stop)
    return batch.append_column("gopher_pass", passes)


# Common UTF-8-decoded-as-Latin-1 artifact SEQUENCES (written as
# escapes so the source can never silently re-encode them).  Each is a
# mangled form of a frequent accented letter / punctuation mark
# ("e-acute" -> U+00C3 U+00A9, smart quotes -> U+00E2 U+20AC prefix,
# NBSP -> U+00C2 U+00A0); single U+00C3/U+00E2 are NOT markers —
# legitimate text contains them ("S\u00e3o", "ch\u00e2teau").
MOJIBAKE_MARKERS: tuple[str, ...] = (
    "\u00e2\u20ac",  # mangled smart quote / dash prefix
    "\u00c3\u00a9",  # mangled e-acute
    "\u00c3\u00a8",  # mangled e-grave
    "\u00c3\u00a4",  # mangled a-umlaut
    "\u00c3\u00b6",  # mangled o-umlaut
    "\u00c3\u00bc",  # mangled u-umlaut
    "\u00c3\u00b1",  # mangled n-tilde
    "\u00c3\u00b3",  # mangled o-acute
    "\u00c2\u00a0",  # mangled non-breaking space
)
_CONTROL_RE = r"[\x00-\x08\x0b\x0c\x0e-\x1f]"


def add_encoding_quality(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Encoding-health signals for crawled text (the pre-filter every
    web pipeline runs before spending tokenizer/LM compute on garbage):
    ``n_replacement_chars`` (U+FFFD — a decoder already gave up),
    ``n_mojibake_markers`` (UTF-8-as-Latin-1 artifact prefixes),
    ``n_control_chars`` (C0 controls minus tab/newline/CR), and the
    combined ``encoding_ok`` verdict.  All pyarrow compute kernels —
    zero-copy, no Python loop."""
    text = pc.fill_null(batch[text_col], "")
    n_repl = pc.cast(pc.count_substring(text, "�"), pa.int64())
    n_moji = pc.cast(pc.count_substring(text, MOJIBAKE_MARKERS[0]), pa.int64())
    for marker in MOJIBAKE_MARKERS[1:]:
        n_moji = pc.add(
            n_moji, pc.cast(pc.count_substring(text, marker), pa.int64())
        )
    n_ctrl = pc.cast(pc.count_substring_regex(text, _CONTROL_RE), pa.int64())
    ok = pc.and_(
        pc.and_(
            pc.equal(n_repl, pa.scalar(0, type=pa.int64())),
            pc.equal(n_moji, pa.scalar(0, type=pa.int64())),
        ),
        pc.equal(n_ctrl, pa.scalar(0, type=pa.int64())),
    )
    batch = batch.append_column("n_replacement_chars", n_repl)
    batch = batch.append_column("n_mojibake_markers", n_moji)
    batch = batch.append_column("n_control_chars", n_ctrl)
    return batch.append_column("encoding_ok", ok)


def add_dup_ngram_stats(
    batch: pa.Table,
    text_col: str = "text",
    top_ns: tuple[int, ...] = (2, 3, 4),
    dup_ns: tuple[int, ...] = (5, 6, 7, 8, 9, 10),
) -> pa.Table:
    """Gopher repeated-n-gram quality signals (Rae et al. 2021, Table A1
    — the half of the rule family ``add_gopher_quality_flags`` doesn't
    cover).  Per document, over whitespace-delimited words:

    * ``top{n}gram_frac_x1000`` (n in ``top_ns``): character coverage of
      the single heaviest n-gram — ``max(count x gram_chars)`` over the
      doc's n-grams, as a fraction of the doc's normalized character
      count (words joined by single spaces), integer x1000, clipped at
      1000 (overlapping repeats can cover more than the doc).
    * ``dup{n}gram_frac_x1000`` (n in ``dup_ns``): summed character
      coverage of every n-gram occurring 2+ times, same scaling.

    Also appends ``total_chars`` (the normalized character count).

    Per-record and fully vectorized: words explode once per batch
    (object-array fill, the ``line_dedup`` pattern), each n reuses the
    same hashed word array via a rolling polynomial combine + one
    pandas ``groupby`` — no shuffle, embarrassingly parallel.  Word =
    a run of ``[^\\t\\n\\f\\r ]`` (RE2's ASCII ``\\s`` complement, so
    pandas and the DuckDB oracle agree on every byte); 64-bit gram-hash
    collisions could only merge two distinct grams within one document
    (~2^-64 per pair — the oracle groups by the gram STRING, so the
    green hash bounds the real collision rate).
    """
    s = batch[text_col].to_pandas().fillna("")
    s.index = pd.RangeIndex(len(s))
    words = s.str.findall(r"[^\t\n\f\r ]+")
    lens = words.str.len().to_numpy(np.int64)
    total = int(lens.sum())
    flat = np.empty(total, dtype=object)
    pos = 0
    for w in words:
        flat[pos : pos + len(w)] = w
        pos += len(w)
    doc = np.arange(len(s), dtype=np.int64).repeat(lens)
    if total:
        fs = pd.Series(flat)
        wlen = fs.str.len().to_numpy(np.int64)
        # hash UTF-8 BYTES: pandas' object-STRING hashing truncates at
        # the first NUL (C-string semantics), which would merge distinct
        # grams on NUL-bearing text and break the string-keyed oracle
        h = pd.util.hash_array(fs.str.encode("utf-8").to_numpy())
    else:
        wlen = np.empty(0, np.int64)
        h = np.empty(0, np.uint64)
    char_sum = np.bincount(doc, weights=wlen, minlength=len(s)).astype(np.int64)
    total_chars = np.where(lens > 0, char_sum + lens - 1, 0)
    cs = np.concatenate([[0], np.cumsum(wlen)])

    batch = batch.append_column("total_chars", pa.array(total_chars, type=pa.int64()))
    for n, kind in [(n, "top") for n in top_ns] + [(n, "dup") for n in dup_ns]:
        m = total - n + 1
        cov_doc = np.zeros(len(s), np.int64)
        if m > 0:
            k = h[0:m].copy()
            for j in range(1, n):
                k = k * np.uint64(1099511628211) ^ h[j : j + m]
            valid = doc[0:m] == doc[n - 1 : total]
            gc = (cs[n : n + m] - cs[0:m]) + (n - 1)
            df = pd.DataFrame(
                {"doc": doc[0:m][valid], "key": k[valid], "gc": gc[valid]}
            )
            if len(df):
                grp = df.groupby(["doc", "key"], sort=False).agg(
                    cnt=("gc", "size"), gc=("gc", "first")
                )
                grp["cov"] = grp["cnt"] * grp["gc"]
                if kind == "top":
                    per = grp.groupby(level=0)["cov"].max()
                else:
                    per = grp.loc[grp["cnt"] >= 2].groupby(level=0)["cov"].sum()
                cov_doc[per.index.to_numpy()] = per.to_numpy()
        frac = np.minimum(1000, cov_doc * 1000 // np.maximum(total_chars, 1))
        batch = batch.append_column(
            f"{kind}{n}gram_frac_x1000", pa.array(frac, type=pa.int64())
        )
    return batch


# Published Gopher repetition thresholds (Rae et al. 2021, Table A1),
# as integer x1000 bounds on the fractions add_dup_ngram_stats emits:
# top-n-gram coverage n=2,3,4 and duplicate-n-gram coverage n=5..10.
GOPHER_REP_THRESHOLDS_X1000: dict[str, int] = {
    "top2gram_frac_x1000": 200,
    "top3gram_frac_x1000": 180,
    "top4gram_frac_x1000": 160,
    "dup5gram_frac_x1000": 150,
    "dup6gram_frac_x1000": 140,
    "dup7gram_frac_x1000": 130,
    "dup8gram_frac_x1000": 120,
    "dup9gram_frac_x1000": 110,
    "dup10gram_frac_x1000": 100,
}


def add_gopher_repetition_flags(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """The repetition half of the Gopher quality rules: compute the
    repeated-n-gram fractions (:func:`add_dup_ngram_stats`) and gate
    each against its published Table-A1 threshold — ``gopher_rep_pass``
    is True iff every fraction is AT OR BELOW its bound (the paper
    removes documents exceeding any).  Composes with
    ``add_gopher_quality_flags`` (the length/symbol/stopword half) for
    the full published rule set."""
    batch = add_dup_ngram_stats(batch, text_col=text_col)
    passes = pa.array([True] * batch.num_rows, type=pa.bool_())
    for col, bound in GOPHER_REP_THRESHOLDS_X1000.items():
        passes = pc.and_(
            passes, pc.less_equal(batch[col], pa.scalar(bound, type=pa.int64()))
        )
    return batch.append_column("gopher_rep_pass", passes)


def dup_ngram_oracle_sql(
    source_sql: str,
    top_ns: tuple[int, ...] = (2, 3, 4),
    dup_ns: tuple[int, ...] = (5, 6, 7, 8, 9, 10),
) -> str:
    """The exactly-equivalent DuckDB form of :func:`add_dup_ngram_stats`
    (grams built by list slicing so order/boundaries match the rolling
    hash; the oracle groups by the gram STRING, so agreement also bounds
    the engine's 64-bit collision rate).  ``source_sql`` must yield
    ``(doc_id, text)``."""
    ws_expr = (
        "string_split_regex(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)),"
        " '\\s+')"
    )
    # string_split_regex('') yields [''] — one empty word; normalize to 0
    tc = "(CASE WHEN ws = [''] THEN 0 ELSE len(array_to_string(ws, ' ')) END)"

    def per_n(n: int, kind: str) -> str:
        agg = (
            "max(cnt * gl)"
            if kind == "top"
            else "sum(CASE WHEN cnt >= 2 THEN cnt * gl ELSE 0 END)"
        )
        return (
            f"SELECT doc_id, {agg} AS cov FROM ("
            f" SELECT doc_id, gram, count(*) AS cnt, len(gram) AS gl FROM ("
            f"  SELECT doc_id, array_to_string(ws[i+1:i+{n}], ' ') AS gram"
            f"  FROM w, unnest(range(0, greatest(len(ws) - {n} + 1, 0))) t(i))"
            f" GROUP BY doc_id, gram) GROUP BY doc_id"
        )

    sel = [
        "d.doc_id",
        f"CAST({tc} AS BIGINT) AS total_chars",
    ]
    joins = ""
    for n, kind in [(n, "top") for n in top_ns] + [(n, "dup") for n in dup_ns]:
        name = f"{kind}{n}gram_frac_x1000"
        joins += f" LEFT JOIN ({per_n(n, kind)}) q{kind}{n} USING (doc_id)"
        sel.append(
            f"CAST(least(1000, COALESCE(q{kind}{n}.cov, 0) * 1000"
            f" // greatest({tc}, 1)) AS BIGINT) AS {name}"
        )
    return (
        f"WITH w AS (SELECT doc_id, {ws_expr} AS ws FROM ({source_sql}))"
        f" SELECT {', '.join(sel)} FROM (SELECT doc_id, ws FROM w) d"
        f"{joins} ORDER BY doc_id"
    )


def word_counts(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    min_count: int = 1,
) -> "ray.data.Dataset":
    """Corpus vocabulary: (word, n) counts — the canonical giant-shuffle
    op done the scale-right way.

    Each batch pre-aggregates its tokens to (distinct word, count)
    BEFORE the shuffle (one ``np.unique`` over the batch's token array),
    so the wide ``groupby(word).sum`` moves one row per distinct word
    per batch instead of one row per token — on natural-language text
    that is a ~10-100x reduction of the exchange.  ``min_count`` prunes
    the long tail after the rollup."""
    import numpy as np

    from ray.data.aggregate import Sum

    def partial_counts(batch: pa.Table) -> pa.Table:
        toks: list = []
        for t in batch[text_col].to_pylist():
            # reserved-NUL exclusion (see lm._tokenize): NUL-prefixed
            # tokens are binary garbage and collide with the LM/BM25
            # sentinel rows built on top of this vocabulary
            toks.extend(
                w for w in (t or "").lower().split() if not w.startswith("\x00")
            )
        if not toks:
            return pa.table(
                {"word": pa.array([], type=pa.string()), "n": pa.array([], type=pa.int64())}
            )
        words, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.table(
            {"word": pa.array(words.tolist(), type=pa.string()),
             "n": pa.array(counts, type=pa.int64())}
        )

    rolled = (
        ds.map_batches(partial_counts, batch_format="pyarrow", batch_size=4096)
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
    )
    if min_count > 1:
        rolled = rolled.filter(expr=f"n >= {min_count}")
    return rolled
