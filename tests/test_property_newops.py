"""Property-based checks for the session's new pure functions (no Ray
session needed — driver-side kernels only)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from fetch_engines_ray.ops.bpe import (
    _EOW,
    decode_pieces,
    encode_word,
    learn_merges,
)
from fetch_engines_ray.ops.urlops import canonicalize_url, registered_domain

WORDS = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=30), st.integers(0, 60))
def test_bpe_roundtrip_any_vocab(words, n_merges):
    """decode(encode(w)) == original text for ANY corpus and merge
    count (losslessness is structural, not data-dependent)."""
    vocab = [(w, 1) for w in sorted(set(words))]
    ranks = {tuple(p): i for i, p in enumerate(learn_merges(vocab, n_merges))}
    text = " ".join(words)
    pieces = [p for w in words for p in encode_word(w, ranks)]
    assert decode_pieces(pieces) == text
    # every piece boundary is sane: pieces of one word concat to word+EOW
    for w in words:
        assert "".join(encode_word(w, ranks)) == w + _EOW


@settings(max_examples=100, deadline=None)
@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + ":/?#[]@!$&'()*+,;=.-_~%",
        max_size=80,
    )
)
def test_canonicalize_idempotent_and_total(url):
    """Canonicalization never raises and is idempotent on arbitrary
    URL-ish strings."""
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once
    assert isinstance(registered_domain(once), str)  # total as well


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(
        st.fixed_dictionaries(
            {
                "url": st.text(alphabet=string.ascii_lowercase + ":/._", max_size=30),
                "html": st.text(
                    alphabet=string.printable, min_size=0, max_size=200
                ),
                "status": st.sampled_from([200, 204, 301, 404, 500]),
                "content_type": st.sampled_from(
                    ["text/html", "text/html; charset=utf-8", "image/png", "text/plain"]
                ),
                "warc_type": st.sampled_from(["response", "request", "metadata"]),
            }
        ),
        max_size=6,
    ),
    chunked=st.booleans(),
)
def test_warc_roundtrip_property(records, chunked):
    """write_warc → split/parse roundtrip for arbitrary record content:
    every record parses back, bodies survive byte-exact, and the HTML
    gate keeps exactly the 2xx text/html responses."""
    import os

    from fetch_engines_ray.sources.warc import (
        parse_http_response,
        split_warc_records,
        write_warc,
    )

    import tempfile

    if chunked:
        records = [dict(r, transfer_encoding="chunked") for r in records]
    path = os.path.join(tempfile.mkdtemp(prefix="warcfuzz"), "f.warc")
    write_warc(records, path)
    with open(path, "rb") as f:
        buf = f.read()
    parsed = list(split_warc_records(buf))
    assert len(parsed) == len(records)
    kept = 0
    for rec, (hdrs, payload) in zip(records, parsed):
        assert hdrs.get("warc-type") == rec["warc_type"]
        status, ctype, body = parse_http_response(payload)
        assert status == rec["status"]
        assert body.decode("utf-8") == rec["html"]  # codings fully undone
        if (
            hdrs.get("warc-type") == "response"
            and 200 <= status < 300
            and "html" in ctype
        ):
            kept += 1
    assert kept == sum(
        1
        for r in records
        if r["warc_type"] == "response"
        and 200 <= r["status"] < 300
        and "html" in r["content_type"]
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(WORDS, min_size=1, max_size=12), min_size=1, max_size=12),
    st.lists(st.lists(WORDS, min_size=1, max_size=12), min_size=1, max_size=6),
    st.sampled_from([2, 4, 8]),
)
def test_fuzzy_probe_matches_bruteforce(doc_words, bench_words, num_bands):
    """The vectorized LSH probe kernel (searchsorted + pair dedup +
    lexsorted argmax) must agree EXACTLY with a brute-force recompute:
    candidates are precisely the (doc, bench) pairs sharing >=1 band
    key; best = max est-Jaccard over candidates, ties -> lowest bench
    index, no candidate -> (0.0, -1)."""
    import numpy as np

    from fetch_engines_ray.ops.decontam import _bench_band_tables, _probe_best
    from fetch_engines_ray.ops.dedup import MinHasher, _fold_band_keys

    texts = [" ".join(ws) for ws in doc_words]
    bench = [" ".join(ws) for ws in bench_words]
    mh = MinHasher(num_perm=16, shingle_size=2, seed=3)
    sigs = mh.signatures(texts)
    bench_sigs = mh.signatures(bench)

    got_best, got_id = _probe_best(
        sigs, bench_sigs, _bench_band_tables(bench_sigs, num_bands)
    )

    keys = _fold_band_keys(sigs, num_bands)
    bkeys = _fold_band_keys(bench_sigs, num_bands)
    collide = (keys[:, None, :] == bkeys[None, :, :]).any(axis=2)  # n x m
    est = (sigs[:, None, :] == bench_sigs[None, :, :]).mean(axis=2)
    for i in range(len(texts)):
        cand = np.nonzero(collide[i])[0]
        if not len(cand):
            assert got_best[i] == 0.0 and got_id[i] == -1, i
            continue
        exp = est[i, cand].max()
        assert got_best[i] == exp, (i, got_best[i], exp)
        assert got_id[i] == cand[est[i, cand] == exp].min(), i


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(WORDS, min_size=0, max_size=120).map(" ".join),
        min_size=1,
        max_size=6,
    ),
    st.integers(2, 40),
    st.integers(0, 39),
)
def test_chunking_invariants(texts, max_tokens, overlap):
    """Structural chunking invariants for ANY corpus/window/overlap:
    per-doc chunk-count formula, window-size bound, exact overlap
    sharing, token coverage in order, and id preservation."""
    import pandas as pd
    import pyarrow as pa

    from fetch_engines_ray.ops.chunking import chunk_batch

    if overlap >= max_tokens:
        overlap = max_tokens - 1
    stride = max_tokens - overlap
    batch = pa.Table.from_pandas(
        pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    )
    out = chunk_batch(batch, max_tokens=max_tokens, overlap=overlap).to_pandas()

    for i, t in enumerate(texts):
        words = t.split()
        rows = out[out["doc_id"] == i].sort_values("chunk_idx")
        want_chunks = 1 + max(0, -(-(max(len(words) - max_tokens, 0)) // stride))
        assert len(rows) == want_chunks
        assert (rows["n_tokens"] <= max_tokens).all()
        # reconstruct: chunk c holds words[c*stride : c*stride+max_tokens]
        for _, r in rows.iterrows():
            lo = int(r["chunk_idx"]) * stride
            assert r["text"].split() == words[lo : lo + max_tokens]
