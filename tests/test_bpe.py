"""BPE training/encoding: determinism, textbook-example parity,
lossless roundtrip, and distributed == driver-side encoding."""

import pyarrow as pa
import pytest

import ray.data

from fetch_engines_ray.ops.bpe import (
    _EOW,
    bpe_encode,
    bpe_train,
    decode_pieces,
    encode_word,
    learn_merges,
)

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the lazy dog sleeps while the quick fox runs",
    "lower newer wider lowest newest widest",
    "low low low low low lower lower newest newest",
    "she sells sea shells on the sea shore",
]


@pytest.fixture(scope="module")
def corpus(ray_session):
    tbl = pa.table(
        {"doc_id": [f"d{i}" for i in range(len(TEXTS))], "text": TEXTS}
    )
    return ray.data.from_arrow(tbl).repartition(3)


def test_learn_merges_textbook_example():
    # the Sennrich et al. 2016 worked example vocabulary
    vocab = [("low", 5), ("lower", 2), ("newest", 6), ("widest", 3)]
    merges = learn_merges(vocab, 4)
    # highest-count pairs merge first: es(9) -> est(9) -> est</w>(9) -> lo(7)
    assert merges == [("e", "s"), ("es", "t"), ("est", _EOW), ("l", "o")]


def test_encode_word_applies_lowest_rank_first():
    ranks = {("e", "s"): 0, ("es", "t"): 1, ("est", _EOW): 2, ("l", "o"): 3}
    assert encode_word("newest", ranks) == ["n", "e", "w", "est" + _EOW]
    assert encode_word("lowest", ranks) == ["lo", "w", "est" + _EOW]
    assert encode_word("unseen", ranks) == ["u", "n", "s", "e", "e", "n", _EOW]


def test_train_is_deterministic_and_partitioning_invariant(corpus):
    a = bpe_train(corpus, n_merges=50)
    b = bpe_train(corpus.repartition(7), n_merges=50)
    assert a == b and len(a) == 50


def test_encode_roundtrips_and_matches_driver_side(corpus):
    merges = bpe_train(corpus, n_merges=30)
    out = bpe_encode(corpus, merges, keep_pieces=True).to_pandas()
    out = out.set_index("doc_id").sort_index()
    ranks = {tuple(p): i for i, p in enumerate(merges)}
    for i, text in enumerate(TEXTS):
        row = out.loc[f"d{i}"]
        # lossless: pieces concatenate back to the normalized text
        assert decode_pieces(list(row["pieces"])) == " ".join(text.lower().split())
        # distributed encode == the plain driver-side algorithm
        want = [p for w in text.lower().split() for p in encode_word(w, ranks)]
        assert list(row["pieces"]) == want
        assert row["n_pieces"] == len(want)
    # more merges => no more pieces (monotone compression)
    fewer = bpe_encode(corpus, merges[:5]).to_pandas()["n_pieces"].sum()
    assert out["n_pieces"].sum() <= fewer


def test_merges_artifact_roundtrip(tmp_path):
    """save_merges/load_merges: the delivery-shipped tokenizer artifact
    round-trips exactly and rejects foreign files."""
    import json

    import pytest as _pytest

    from fetch_engines_ray.ops.bpe import load_merges, save_merges

    merges = [("a", "b"), ("ab", "c</w>"), ("x", "y")]
    p = str(tmp_path / "_tokenizer.json")
    save_merges(merges, p)
    assert load_merges(p) == merges
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as f:
        json.dump({"format": "something-else"}, f)
    with _pytest.raises(ValueError, match="not a fer-bpe-merges"):
        load_merges(bad)


def test_curate_bpe_export_ships_tokenizer(ray_session, tmp_path):
    """curate_corpus(tokenizer='bpe', export_path=...) writes the
    _tokenizer.json artifact, and a trainer-side re-encode with the
    loaded merges reproduces the packed token totals exactly."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.bpe import encode_word, load_merges
    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(5)
    stop = "the a of and to in is it for on with as at by this".split()
    words = stop + [f"tok{i:02d}" for i in range(20)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 80)))}
        for i in range(20)
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = str(tmp_path / "delivery")
    packed = curate_corpus(
        ds, max_tokens=128, tokenizer="bpe", bpe_merges=25,
        export_path=out, n_shards=2,
    ).to_pandas()
    merges = load_merges(out + "/_tokenizer.json")
    assert len(merges) <= 25 and merges
    ranks = {tuple(p): i for i, p in enumerate(merges)}
    text_by_id = {r["doc_id"]: r["text"] for r in rows}
    for _, row in packed.iterrows():
        want = sum(
            len(encode_word(w, ranks))
            for d in row["doc_ids"]
            for w in text_by_id[d].lower().split()
        )
        assert int(row["total_tokens"]) == want


def test_curate_bin_export_delivers_token_shards(ray_session, tmp_path):
    """curate_corpus(tokenizer='bpe', bin_export_path=...) ships the
    binary token-shard delivery next to the parquet one: total real
    tokens across shards equal the corpus BPE piece count + one eos per
    surviving document, and the vocab artifact decodes the streams."""
    import json

    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.binshard import read_token_shards
    from fetch_engines_ray.pipelines.curate import curate_corpus

    rng = np.random.RandomState(11)
    stop = "the a of and to in is it for on with as at by this".split()
    words = stop + [f"tok{i:02d}" for i in range(20)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=rng.randint(60, 80)))}
        for i in range(20)
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = str(tmp_path / "bindelivery")
    packed = curate_corpus(
        ds, max_tokens=128, tokenizer="bpe", bpe_merges=25,
        bin_export_path=out, n_shards=2,
    ).to_pandas()
    n_docs = int(packed["n_docs"].sum())
    n_pieces = int(packed["total_tokens"].sum())
    back = read_token_shards(out).to_pandas()
    assert int(back["n_tokens"].sum()) == n_pieces + n_docs
    with open(out + "/vocab.json") as f:
        vocab = json.load(f)["vocab"]
    eos = vocab.index("<eos>")
    n_eos = sum(int((np.asarray(t)[:n] == eos).sum()) for t, n in zip(back["token_ids"], back["n_tokens"]))
    assert n_eos == n_docs

    import pytest as _pytest

    with _pytest.raises(ValueError, match="requires tokenizer='bpe'"):
        curate_corpus(ds, bin_export_path=out)
