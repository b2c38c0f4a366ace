"""Tests for the training-data operators: dedup finds planted
duplicates, similarity search agrees with brute force, text features
behave, multimodal plumbing has a stable schema."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_with_dups(ray_session):
    import ray.data

    rng = np.random.RandomState(0)
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    rows = []
    for i in range(60):
        text = " ".join(rng.choice(words, size=40))
        rows.append({"doc_id": i, "text": text})
    # exact duplicates: 100/101 copy doc 0; near-dup: 102 = doc 1 with one word changed
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[0]["text"]})
    near = rows[1]["text"].split()
    near[5] = "CHANGED"
    rows.append({"doc_id": 102, "text": " ".join(near)})
    return ray.data.from_pandas(pd.DataFrame(rows))


def test_exact_dedup_finds_planted_dups(docs_with_dups):
    from fetch_engines_ray.ops.dedup import exact_dedup_groups

    out = exact_dedup_groups(docs_with_dups).to_pandas()
    trip = out[out["n_dups"] == 3]
    assert len(trip) == 1
    assert trip.iloc[0]["keep_doc_id"] == 0
    assert (out["n_dups"] >= 1).all()


def test_paragraph_dedup_corpus(ray_session):
    """Paragraph-granularity dedup (MassiveWeb repeated-paragraph rule):
    blank-line-separated paragraphs dedup corpus-wide with internal
    single newlines preserved; line-level differences inside a
    paragraph keep it distinct."""
    import ray.data

    from fetch_engines_ray.ops.dedup import paragraph_dedup

    shared = "first line of shared para\nsecond line of shared para"
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                f"intro one\n\n{shared}\n\noutro one",
                f"{shared}\n\nunique two",
                # same first line, different second -> distinct paragraph
                "first line of shared para\nDIFFERENT second line",
            ],
        }
    )
    out = (
        paragraph_dedup(ray.data.from_pandas(docs))
        .to_pandas()
        .sort_values("doc_id")
        .set_index("doc_id")
    )
    assert out.loc[1, "text"] == f"intro one\n\n{shared}\n\noutro one"
    assert out.loc[1, "n_lines"] == 3  # 3 paragraphs
    assert out.loc[2, "text"] == "unique two"  # shared para lost to doc 1
    assert out.loc[3, "text"] == "first line of shared para\nDIFFERENT second line"


def test_line_dedup_corpus(ray_session):
    """Cross-document line dedup vs a direct DuckDB restatement of the
    rule (same SQL shape as the driver oracle): first occurrence by
    (doc_id, line_no) wins, docs rebuilt in order, all-loser and empty
    docs drop out, within-doc duplicate lines collapse."""
    import duckdb

    import ray.data

    from fetch_engines_ray.ops.dedup import line_dedup

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "alpha\nshared line\nbeta",
                "shared line\ngamma\n\nshared line",
                "delta\nshared line",
                "shared line",
                "",
            ],
        }
    )
    out = (
        line_dedup(ray.data.from_pandas(docs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(
        "WITH parts AS (SELECT doc_id, string_split(text, chr(10)) AS p FROM documents),"
        " lines AS (SELECT doc_id, unnest(p) AS line,"
        "   unnest(range(1, len(p) + 1)) AS line_no FROM parts),"
        " nz AS (SELECT * FROM lines WHERE line <> ''),"
        " w AS (SELECT line, min(doc_id * 4294967296 + line_no) AS k FROM nz GROUP BY line),"
        " keep AS (SELECT nz.doc_id, nz.line_no, nz.line FROM nz JOIN w ON nz.line = w.line"
        "  AND nz.doc_id * 4294967296 + nz.line_no = w.k)"
        " SELECT doc_id, string_agg(line, chr(10) ORDER BY line_no) AS text,"
        " CAST(count(*) AS BIGINT) AS n_lines"
        " FROM keep GROUP BY doc_id ORDER BY doc_id"
    ).df()
    pd.testing.assert_frame_equal(out, want, check_dtype=True)
    # the planted losers really dropped
    assert set(out["doc_id"]) == {1, 2, 3}
    assert out.loc[out["doc_id"] == 2, "text"].iloc[0] == "gamma"


def test_minhash_lsh_finds_exact_and_near_dups(docs_with_dups):
    from fetch_engines_ray.ops.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(docs_with_dups, threshold=0.5)
    found = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 100) in found
    assert (0, 101) in found
    assert (100, 101) in found
    assert (1, 102) in found  # near-dup


def test_simhash_finds_dups(docs_with_dups):
    from fetch_engines_ray.ops.dedup import simhash_pairs

    pairs = simhash_pairs(docs_with_dups, max_hamming=3)
    found = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 100) in found and (0, 101) in found


def test_ngram_jaccard(ray_session):
    import ray.data

    from fetch_engines_ray.ops.dedup import ngram_jaccard_pairs

    texts = {
        0: "a b c d e",
        1: "a b c d e",  # identical to 0
        2: "p q r s t",
        3: "u v w x y",  # disjoint from 2
        4: "h i j k l m n o",
        5: "h i j k l m n CHANGED",  # 5 of 7 distinct 3-grams shared with 4
    }
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())}))
    pairs = ngram_jaccard_pairs(ds, threshold=0.5)
    found = {(a, b): j for a, b, j in zip(pairs["doc_a"], pairs["doc_b"], pairs["jaccard_x1000"])}
    assert found[(0, 1)] == 1000
    assert (2, 3) not in found
    assert found[(4, 5)] == (1000 * 5) // 7
    assert 0 < found[(4, 5)] < 1000
    assert set(found) == {(0, 1), (4, 5)}


@pytest.fixture(scope="module")
def embeddings_ds(ray_session):
    import ray.data

    rng = np.random.RandomState(3)
    mat = rng.randn(300, 16).astype(np.float32)
    mat[200] = mat[0] + rng.randn(16).astype(np.float32) * 0.01  # near-dup of 0
    return ray.data.from_pandas(
        pd.DataFrame({"vec_id": np.arange(300, dtype=np.int64), "embedding": list(map(list, mat))})
    )


def test_knn_bruteforce_matches_numpy(embeddings_ds):
    from fetch_engines_ray.ops.similarity import knn_bruteforce

    out = knn_bruteforce(embeddings_ds, query_ids=[0, 1], k=5)
    rows = embeddings_ds.take_all()
    rows.sort(key=lambda r: r["vec_id"])
    mat = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for qid in (0, 1):
        sims = mat @ mat[qid]
        sims[qid] = -np.inf
        expected = np.argsort(-sims, kind="stable")[:5].tolist()
        got = out[out["query_id"] == qid].sort_values("rank")["neighbor_id"].tolist()
        assert got == expected, (qid, got, expected)


def test_ivf_recall_against_bruteforce(embeddings_ds):
    from fetch_engines_ray.ops.similarity import ivf_knn, knn_bruteforce

    exact = knn_bruteforce(embeddings_ds, query_ids=[0, 1, 2, 3], k=10)
    approx = ivf_knn(embeddings_ds, query_ids=[0, 1, 2, 3], k=10, n_clusters=8, nprobe=4)
    recalls = []
    for qid in (0, 1, 2, 3):
        e = set(exact[exact["query_id"] == qid]["neighbor_id"])
        a = set(approx[approx["query_id"] == qid]["neighbor_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5  # nprobe=4 of 8 clusters


def test_embedding_near_dup_pairs(embeddings_ds):
    from fetch_engines_ray.ops.similarity import embedding_near_dup_pairs

    pairs = embedding_near_dup_pairs(embeddings_ds, threshold=0.95, n_clusters=8).to_pandas()
    found = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 200) in found


def test_near_dup_skewed_cluster_is_bounded(ray_session):
    """One deliberately hot cluster (500 vectors in a tight cone, plus
    exact clones) must be recursively split so no all-pairs leaf exceeds
    max_group_size, while clone pairs still surface."""
    import ray.data

    from fetch_engines_ray.ops.similarity import (
        _bounded_cluster_pairs,
        _normalize,
        embedding_near_dup_pairs,
    )

    rng = np.random.RandomState(5)
    base = rng.randn(16)
    mat = base[None, :] + rng.randn(500, 16) * 0.05  # everything in one cone
    mat[100] = mat[0]  # exact clone
    mat[101] = mat[0]
    ids = np.arange(500, dtype=np.int64)

    stats: dict = {}
    parts = _bounded_cluster_pairs(
        ids, _normalize(mat.astype(np.float64)), 0.9999, max_group=50, stats=stats
    )
    assert 0 < stats["max_leaf"] <= 50
    found = {(a, b) for p in parts for a, b in zip(p["doc_a"], p["doc_b"])}
    assert (0, 100) in found and (0, 101) in found and (100, 101) in found

    # end-to-end: the Dataset path finds the clones through the same bound
    ds = ray.data.from_pandas(
        pd.DataFrame({"vec_id": ids, "embedding": list(map(list, mat))})
    )
    pairs = embedding_near_dup_pairs(
        ds, threshold=0.9999, n_clusters=4, max_group_size=50
    ).to_pandas()
    found2 = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert {(0, 100), (0, 101), (100, 101)} <= found2


def test_text_features(ray_session):
    import ray.data

    from fetch_engines_ray.ops.textstats import text_features_pipeline

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "The quick brown fox jumps over the lazy dog, and it is great for all of us.",
                "Der Hund ist nicht ein Problem und die Katze ist auch nicht da.",
                "",
            ],
        }
    )
    out = text_features_pipeline(ray.data.from_pandas(df)).to_pandas().sort_values("doc_id")
    assert out["token_count"].tolist() == [17, 13, 1]
    assert out["lang_pred"].tolist()[:2] == ["en", "de"]
    assert out["fingerprint"].str.len().eq(32).all()
    assert (out["quality"] >= 0).all()


def test_hll_distinct_accuracy(ray_session):
    import ray.data

    from fetch_engines_ray.ops.sketches import hll_distinct

    ds = ray.data.from_items([{"v": f"item-{i % 4000}", "k": i % 2} for i in range(40000)])
    est = hll_distinct(ds, "v")
    assert abs(est - 4000) / 4000 < 0.05  # p=12 → ~1.6% std error


def test_hll_small_range_linear_counting(ray_session):
    import ray.data

    from fetch_engines_ray.ops.sketches import hll_distinct

    ds = ray.data.from_items([{"v": i % 37} for i in range(5000)])
    assert round(hll_distinct(ds, "v")) == 37  # linear-counting regime is exact-ish


def test_winnowing_fingerprint_position_robust():
    import pyarrow as pa

    from fetch_engines_ray.ops.textstats import add_winnowing_fingerprint

    passage = "the quick brown fox jumps over the lazy dog again and again until done"
    t = pa.table(
        {
            "text": [
                "intro words here . " + passage + " trailing content x",
                "completely different lead-in sentence comes first then " + passage,
                "unrelated text entirely about ray data pipelines and arrow",
            ]
        }
    )
    fa, fb, fc = (set(x) for x in add_winnowing_fingerprint(t)["fp_hashes"].to_pylist())
    assert len(fa & fb) >= 3  # shared passage → shared fingerprints at any offset
    assert not (fa & fc)
    # short-text edge: fewer tokens than k → empty fingerprint, no crash
    short = add_winnowing_fingerprint(pa.table({"text": ["tiny doc"]}))
    assert short["fp_hashes"].to_pylist() == [[]]
    # exact clones produce byte-identical fingerprint lists (the assert
    # the retired doc_winnowing_fingerprints registry query ran per
    # sweep; the dedup consumer relies on it)
    clones = add_winnowing_fingerprint(pa.table({"text": [passage, passage]}))
    a, b = clones["fp_hashes"].to_pylist()
    assert a == b and len(a) >= 3


def test_gopher_quality_flags():
    import pyarrow as pa

    from fetch_engines_ray.ops.textstats import add_gopher_quality_flags

    good = "the quick brown fox likes to be jumping over and around the lazy dog with friends " * 5
    t = pa.table({"text": [good, "too short", "### " * 60, ""]})
    r = add_gopher_quality_flags(t)
    flags = r["gopher_pass"].to_pylist()
    assert flags == [True, False, False, False]
    rows = r.to_pylist()
    assert rows[0]["stopword_hits"] >= 2
    assert rows[2]["symbol_ratio_x1000"] > 100  # symbol-heavy rejected


def test_ngram_jaccard_pairs_exact_verification(docs_with_dups):
    from fetch_engines_ray.ops.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(docs_with_dups, threshold=0.5)
    found = {(a, b): j for a, b, j in zip(pairs["doc_a"], pairs["doc_b"], pairs["jaccard_x1000"])}
    assert found[(0, 100)] == 1000  # exact dup → jaccard exactly 1.0
    assert found[(0, 101)] == 1000
    assert (1, 102) in found and found[(1, 102)] < 1000  # near-dup strictly below 1


def test_dedup_clusters_union_find(docs_with_dups):
    from fetch_engines_ray.ops.dedup import minhash_dedup

    out = minhash_dedup(docs_with_dups, threshold=0.5)
    by_doc = out.set_index("doc_id")
    # 0/100/101 form one cluster represented (and kept) by 0
    assert by_doc.loc[0, "is_kept"] and by_doc.loc[0, "cluster_rep"] == 0
    assert not by_doc.loc[100, "is_kept"] and by_doc.loc[100, "cluster_rep"] == 0
    assert not by_doc.loc[101, "is_kept"] and by_doc.loc[101, "cluster_rep"] == 0
    # 1/102 cluster kept by 1
    assert by_doc.loc[102, "cluster_rep"] == 1 and not by_doc.loc[102, "is_kept"]


def test_dedup_clusters_transitive():
    import pandas as pd

    from fetch_engines_ray.ops.dedup import dedup_clusters

    # a-b and b-c but never a-c: transitivity must still cluster them
    pairs = pd.DataFrame({"doc_a": [1, 2], "doc_b": [2, 3]})
    out = dedup_clusters(pairs).set_index("doc_id")
    assert set(out["cluster_rep"]) == {1}
    assert out["is_kept"].tolist() == [True, False, False]


def test_interval_join_counts_boundaries(ray_session):
    import ray.data

    from fetch_engines_ray.ops.rangejoin import interval_join_counts

    # points 0..99; intervals include boundary-exact and multi-cell spans
    points = ray.data.from_items([{"pid": i, "v": float(i)} for i in range(100)])
    intervals = ray.data.from_items(
        [
            {"iid": 1, "lo": 10.0, "hi": 20.0},   # inclusive both ends -> 11
            {"iid": 2, "lo": 95.0, "hi": 200.0},  # clipped by data -> 5
            {"iid": 3, "lo": 0.0, "hi": 99.0},    # spans many cells -> 100
            {"iid": 4, "lo": 300.0, "hi": 310.0}, # empty -> absent
            {"iid": 5, "lo": 50.0, "hi": 50.0},   # degenerate point interval -> 1
        ]
    )
    out = interval_join_counts(
        points, intervals, point_val="v", point_id="pid",
        lo_col="lo", hi_col="hi", interval_id="iid", cell_width=7.0,
    ).set_index("interval_id")["n_points"].to_dict()
    assert out == {1: 11, 2: 5, 3: 100, 5: 1}


def test_top_docs_per_lang_combiner_across_blocks(ray_session, tmp_path):
    """The per-block top-k combiner must agree with a global ranking
    even when ties and winners are spread across many input files."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fetch_engines_ray.ops.relational import top_docs_per_lang

    d = tmp_path / "documents.parquet"
    d.mkdir()
    # lang 'aa': all-tied n_chars across 4 files -> rank by doc_id asc
    # lang 'bb': strictly decreasing, winners in the LAST file
    rows = []
    for i in range(40):
        rows.append({"doc_id": i, "lang": "aa", "n_chars": 100})
        rows.append({"doc_id": 1000 + i, "lang": "bb", "n_chars": i})
    for part in range(4):
        pq.write_table(
            pa.Table.from_pylist(rows[part::4]), str(d / f"part{part}.parquet")
        )
    out = top_docs_per_lang(str(tmp_path), k=3)
    aa = out[out["lang"] == "aa"]
    bb = out[out["lang"] == "bb"]
    assert aa["doc_id"].tolist() == [0, 1, 2] and aa["rank"].tolist() == [1, 2, 3]
    assert bb["doc_id"].tolist() == [1039, 1038, 1037]
    assert bb["n_chars"].tolist() == [39, 38, 37]


def test_pack_sequences_invariants(ray_session):
    import ray.data

    from fetch_engines_ray.ops.packing import pack_sequences

    docs = [{"doc_id": i, "text": " ".join(["w"] * n)} for i, n in enumerate(
        [100, 200, 250, 600, 10, 480, 30, 5, 512, 1]
    )]
    out = pack_sequences(
        ray.data.from_items(docs), max_tokens=512, batch_size=len(docs)
    ).to_pandas().sort_values("seq_id").reset_index(drop=True)
    # exactly-once coverage
    flat = [d for row in out["doc_ids"] for d in row]
    assert sorted(flat) == list(range(10))
    # budget respected except for flagged oversize singletons
    for _, row in out.iterrows():
        if row["oversize"]:
            assert row["n_docs"] == 1 and row["total_tokens"] > 512
        else:
            assert row["total_tokens"] <= 512
    # greedy in order: [100,200,250]? 100+200=300, +250=550>512 -> seq(0,1),
    # then 250 opens; 600 oversize singleton; 250+10=260, +480>512 ->
    # seq(2,4); 480+30+5=515>512 -> 480+30? 510+5=515>512... check exact:
    seqs = [list(r) for r in out["doc_ids"]]
    assert [0, 1] in seqs and [3] in seqs and [8] in seqs
    # total token conservation
    assert int(out["total_tokens"].sum()) == 100+200+250+600+10+480+30+5+512+1


def test_pii_redaction_planted(ray_session):
    import pyarrow as pa

    from fetch_engines_ray.ops.textstats import add_pii_redacted

    t = pa.table({"doc_id": [1, 2, 3], "text": [
        "mail bob@example.org now", "host 10.0.0.1 up", "clean text only",
    ]})
    out = add_pii_redacted(t)
    red = out["redacted_text"].to_pylist()
    assert red[0] == "mail [EMAIL] now"
    assert red[1] == "host [IP] up"
    assert red[2] == "clean text only"
    assert out["pii_count"].to_pylist() == [1, 1, 0]


def test_dedup_clusters_distributed_matches_union_find(ray_session, docs_with_dups):
    """Label propagation over the distributed pair edges produces the
    exact same (doc_id, cluster_rep, is_kept) table as the driver-side
    union-find — min doc_id representatives are canonical."""
    import ray.data

    from fetch_engines_ray.ops.dedup import (
        dedup_clusters,
        dedup_clusters_distributed,
        minhash_lsh_pairs,
    )

    pairs = minhash_lsh_pairs(docs_with_dups, threshold=0.5)
    assert len(pairs) > 0
    want = dedup_clusters(pairs).reset_index(drop=True)
    got = (
        dedup_clusters_distributed(ray.data.from_pandas(pairs[["doc_a", "doc_b"]]))
        .to_pandas()
        .reset_index(drop=True)
    )
    got["doc_id"] = got["doc_id"].astype(want["doc_id"].dtype)
    got["cluster_rep"] = got["cluster_rep"].astype(want["cluster_rep"].dtype)
    pd.testing.assert_frame_equal(got, want)


def test_dedup_clusters_distributed_chain(ray_session):
    """A 6-node chain (worst-case diameter) converges to one cluster
    rooted at the min id, plus a disjoint 2-cluster."""
    import ray.data

    from fetch_engines_ray.ops.dedup import dedup_clusters_distributed

    edges = pd.DataFrame(
        {"doc_a": [10, 11, 12, 13, 14, 50], "doc_b": [11, 12, 13, 14, 15, 51]}
    )
    out = dedup_clusters_distributed(ray.data.from_pandas(edges)).to_pandas()
    chain = out[out["doc_id"] < 50]
    assert (chain["cluster_rep"] == 10).all()
    assert chain["is_kept"].tolist() == [True] + [False] * 5
    pair = out[out["doc_id"] >= 50]
    assert (pair["cluster_rep"] == 50).all()


def test_approx_quantiles_vs_numpy(ray_session):
    import ray.data

    from fetch_engines_ray.ops.sketches import approx_quantiles

    rng = np.random.RandomState(11)
    vals = np.concatenate([rng.lognormal(3.0, 1.0, 20000), rng.uniform(0, 5, 5000)])
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    qs = [0.1, 0.5, 0.9, 0.99]
    got = approx_quantiles(ds, "v", qs, bins=2048)
    want = np.quantile(vals, qs)
    tol = (vals.max() - vals.min()) / 2048 + 1e-9
    for g, w in zip(got, want):
        assert abs(g - w) <= tol + w * 0.01, (g, w, tol)
    # degenerate: constant column
    one = ray.data.from_pandas(pd.DataFrame({"v": np.full(100, 7.0)}))
    assert approx_quantiles(one, "v", [0.5]) == [7.0]


def test_exact_int_quantiles_vs_numpy(ray_session):
    """EXACT order statistics by histogram narrowing: must equal the
    sorted-array pick bit-for-bit, across skew, negatives, duplicates,
    wide ranges (multi-level narrowing) and constants."""
    import ray.data

    from fetch_engines_ray.ops.sketches import exact_int_quantiles

    rng = np.random.RandomState(17)
    cases = [
        rng.randint(-50, 50, 5000),                          # narrow: width==1 first level
        (rng.lognormal(10, 3, 8000)).astype(np.int64),       # wide + skew: multi-level
        np.concatenate([np.full(7000, 42), rng.randint(0, 10**12, 1000)]),  # hot value
        np.full(500, -9),                                    # constant
    ]
    for vals in cases:
        ds = ray.data.from_pandas(pd.DataFrame({"v": vals.astype(np.int64)})).repartition(6)
        n = len(vals)
        ranks = sorted({0, n // 3, n // 2, (19 * n) // 20, n - 1})
        got = exact_int_quantiles(ds, "v", ranks)
        want = [int(np.sort(vals)[r]) for r in ranks]
        assert got == want, (got, want)


def test_heavy_hitters_finds_planted(ray_session):
    import ray.data

    from fetch_engines_ray.ops.sketches import heavy_hitters

    rng = np.random.RandomState(12)
    # long tail of 5000 rare values + two planted heavies
    tail = [f"rare-{i}" for i in rng.randint(0, 5000, 20000)]
    planted = ["HOT-A"] * 9000 + ["HOT-B"] * 6000
    df = pd.DataFrame({"v": tail + planted})
    ds = ray.data.from_pandas(df.sample(frac=1.0, random_state=3)).repartition(8)
    out = heavy_hitters(ds, "v", k=8)
    # MG guarantee: freq > N/(k+1) must survive; counts undercount by <= N/(k+1)
    n = len(df)
    top = dict(zip(out["value"], out["min_count"]))
    assert "HOT-A" in top and "HOT-B" in top
    assert top["HOT-A"] >= 9000 - n // 9
    assert top["HOT-B"] >= 6000 - n // 9
    assert out.iloc[0]["value"] == "HOT-A"


def test_sample_per_group_deterministic(ray_session):
    import ray.data

    from fetch_engines_ray.ops.textstats import sample_per_group

    rng = np.random.RandomState(21)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(1000),
            "lang": rng.choice(["en", "de", "fr"], 1000, p=[0.8, 0.15, 0.05]),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    out1 = sample_per_group(ds, "lang", 10).to_pandas().sort_values("doc_id")
    out2 = sample_per_group(ds, "lang", 10).to_pandas().sort_values("doc_id")
    assert out1["doc_id"].tolist() == out2["doc_id"].tolist()  # engine-stable
    counts = out1.groupby("lang").size()
    assert (counts == 10).all()
    # matches the closed-form md5 ranking
    import hashlib

    for lang in ("en", "de", "fr"):
        members = df[df["lang"] == lang]["doc_id"]
        want = sorted(
            members, key=lambda i: int(hashlib.md5(str(i).encode()).hexdigest()[:16], 16)
        )[:10]
        got = out1[out1["lang"] == lang]["doc_id"].tolist()
        assert sorted(got) == sorted(want)
    # groups smaller than n come back whole
    tiny = ray.data.from_pandas(df.head(5))
    assert sample_per_group(tiny, "lang", 10).count() == 5


def test_dup_ngram_stats_reference_and_oracle(ray_session):
    """Gopher repeated-n-gram fractions: independent Counter reference
    plus exact DuckDB parity (via the engine's own oracle builder) over
    planted repetition shapes AND the real documents table."""
    from collections import Counter

    import duckdb

    from fetch_engines_ray.ops.textstats import (
        add_dup_ngram_stats,
        dup_ngram_oracle_sql,
    )

    texts = [
        "the cat sat on the mat the cat sat again on the mat",
        "a a a a a a a a",
        "alpha beta gamma delta epsilon zeta",
        "",
        "   \t \n ",
        "one two one two one two one two one two one two",
        "repeat phrase here now repeat phrase here now repeat phrase here now",
        "  spaced   out\twords\nnewline words spaced   out\twords ",
        "solo",
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = add_dup_ngram_stats(pa.Table.from_pandas(df)).to_pandas()

    # independent single-doc reference
    import re

    for i, t in enumerate(texts):
        ws = re.findall(r"[^\t\n\f\r ]+", t)
        total = len(" ".join(ws)) if ws else 0
        assert got.loc[i, "total_chars"] == total
        for n, kind in [(2, "top"), (3, "top"), (4, "top"), (5, "dup"), (10, "dup")]:
            grams = [" ".join(ws[j : j + n]) for j in range(len(ws) - n + 1)]
            c = Counter(grams)
            if kind == "top":
                cov = max((cnt * len(g) for g, cnt in c.items()), default=0)
            else:
                cov = sum(cnt * len(g) for g, cnt in c.items() if cnt >= 2)
            want = min(1000, cov * 1000 // max(total, 1))
            assert got.loc[i, f"{kind}{n}gram_frac_x1000"] == want, (i, n, kind)

    # DuckDB parity over plants + the real corpus (string-keyed oracle
    # also bounds the engine's 64-bit gram-hash collision rate)
    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    real = con.sql(
        f"SELECT doc_id, text FROM read_parquet('{sf}/documents.parquet')"
    ).df()
    plants = df.copy()
    plants["doc_id"] += 7_000_000
    both = pd.concat([real, plants], ignore_index=True)
    eng = (
        add_dup_ngram_stats(pa.Table.from_pandas(both))
        .to_pandas()
        .drop(columns=["text"])
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con.register("bothdocs", both)
    orc = con.sql(dup_ngram_oracle_sql("SELECT doc_id, text FROM bothdocs")).df()
    pd.testing.assert_frame_equal(eng, orc, check_dtype=False)


def test_mix_corpora_recipe(ray_session):
    """Named-source mixing: explicit weights hit their quotas, the
    temperature form rebalances toward small sources, and the selection
    is deterministic across calls."""
    import ray.data

    from fetch_engines_ray.ops.textstats import mix_corpora

    def corpus(name, lo, n):
        return ray.data.from_pandas(
            pd.DataFrame({"doc_id": range(lo, lo + n), "text": [f"{name} doc"] * n})
        )

    sources = {
        "web": corpus("web", 0, 800),
        "books": corpus("books", 10_000, 100),
        "code": corpus("code", 20_000, 100),
    }
    out = mix_corpora(sources, total=200, weights={"web": 0.5, "books": 0.25, "code": 0.25}).to_pandas()
    comp = out["source"].value_counts().to_dict()
    assert comp == {"web": 100, "books": 50, "code": 50}
    again = mix_corpora(sources, total=200, weights={"web": 0.5, "books": 0.25, "code": 0.25}).to_pandas()
    assert sorted(out["doc_id"]) == sorted(again["doc_id"])  # deterministic

    # temperature alpha=0 → uniform over sources despite 8:1:1 sizes
    t = mix_corpora(sources, total=150, alpha=0.0).to_pandas()
    compt = t["source"].value_counts().to_dict()
    assert compt == {"web": 50, "books": 50, "code": 50}

    with pytest.raises(ValueError):
        mix_corpora(sources, total=10)
    with pytest.raises(ValueError):
        mix_corpora(sources, total=10, weights={"web": 1}, alpha=0.5)


def test_encoding_quality_signals(ray_session):
    """Mojibake/encoding health: planted artifact sequences flag, clean
    accented text does not, DuckDB agrees on every count."""
    import duckdb

    from fetch_engines_ray.ops.textstats import MOJIBAKE_MARKERS, add_encoding_quality

    texts = [
        "perfectly clean text with tabs\tand\nnewlines and CR\r fine.",
        "the broken caf\u00c3\u00a9 door",            # mangled e-acute
        "smart quote gone wrong: \u00e2\u20ac\u2122s",  # mangled right quote
        "decoder bailed here: \ufffd\ufffd done",        # U+FFFD x2
        "null byte \x00 and bell \x07 inside",           # C0 controls
        "",
        "S\u00e3o Paulo ch\u00e2teau caf\u00e9 na\u00efve stay clean",
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = add_encoding_quality(pa.Table.from_pandas(df)).to_pandas()
    assert got["encoding_ok"].tolist() == [True, False, False, False, False, True, True]
    assert got.loc[3, "n_replacement_chars"] == 2
    assert got.loc[4, "n_control_chars"] == 2
    assert got.loc[1, "n_mojibake_markers"] == 1
    assert got.loc[2, "n_mojibake_markers"] == 1

    con = duckdb.connect()
    con.register("t", df)
    marker_alt = "|".join(MOJIBAKE_MARKERS)
    orc = con.sql(
        "SELECT len(regexp_extract_all(text, '\ufffd')) AS r,"
        f" len(regexp_extract_all(text, '{marker_alt}')) AS m,"
        " len(regexp_extract_all(text, '[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]')) AS c"
        " FROM t ORDER BY doc_id"
    ).df()
    assert got["n_replacement_chars"].tolist() == orc["r"].astype("int64").tolist()
    assert got["n_mojibake_markers"].tolist() == orc["m"].astype("int64").tolist()
    assert got["n_control_chars"].tolist() == orc["c"].astype("int64").tolist()


def test_gopher_repetition_flags_and_curate_gate(ray_session):
    """Published Table-A1 repetition thresholds: loopy boilerplate
    fails, natural prose passes; curate_corpus(gopher_repetition=True)
    drops the repetitive doc the base Gopher rules let through."""
    import ray.data

    from fetch_engines_ray.ops.textstats import add_gopher_repetition_flags
    from fetch_engines_ray.pipelines.curate import curate_corpus

    # repetitive doc: one 4-word phrase looped — passes the base rules
    # (length/symbols/stopwords fine) but tops every n-gram bound
    loopy = " ".join(["click here to buy the best deal of the day"] * 12)
    natural = (
        "The quick brown fox jumps over one lazy dog while the patient "
        "heron waits beside a quiet river and watches the water flow "
        "past reeds that bend with every breath of wind in the valley "
        "below the old stone bridge near the village market square "
        "where traders have gathered to sell bread and fruit since dawn."
    )
    df = pd.DataFrame({"doc_id": [1, 2], "text": [loopy, natural]})
    out = add_gopher_repetition_flags(pa.Table.from_pandas(df)).to_pandas()
    out = out.set_index("doc_id")
    assert not bool(out.loc[1, "gopher_rep_pass"])
    assert bool(out.loc[2, "gopher_rep_pass"])
    assert out.loc[1, "top4gram_frac_x1000"] > 160

    ds = ray.data.from_pandas(df)
    with_gate = curate_corpus(ds, gopher_repetition=True, max_tokens=10_000).to_pandas()
    without = curate_corpus(ds, max_tokens=10_000).to_pandas()
    ids_with = sorted(i for ids in with_gate["doc_ids"] for i in ids)
    ids_without = sorted(i for ids in without["doc_ids"] for i in ids)
    assert ids_with == [2]
    assert ids_without == [1, 2]


def test_top10_orders_by_price_vs_duckdb(ray_session):
    """Kernel coverage for the retired query slot (its registry entry
    was swapped for doc_dup_ngram_stats under the 50-query cap)."""
    import duckdb

    from fetch_engines_ray.ops.relational import top10_orders_by_price

    sf = "/root/testdata/sf0.001"
    got = top10_orders_by_price(sf)
    want = duckdb.sql(
        "SELECT o_orderkey, round(o_totalprice, 3) AS o_totalprice"
        f" FROM read_parquet('{sf}/orders.parquet')"
        " ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
    ).df()
    assert got["o_orderkey"].tolist() == want["o_orderkey"].tolist()
    assert got["o_totalprice"].tolist() == want["o_totalprice"].tolist()


def test_events_value_by_type_vs_duckdb(ray_session):
    """Kernel coverage for the retired query slot (its registry entry
    was swapped for lineitem_pricing_rollup under the 50-query cap)."""
    import duckdb

    from fetch_engines_ray.ops.relational import events_value_by_type

    sf = "/root/testdata/sf0.001"
    got = events_value_by_type(sf)
    want = duckdb.sql(
        "SELECT event_type, count(*) AS n_events,"
        " round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 3) AS total_value"
        f" FROM read_parquet('{sf}/events.parquet')"
        " GROUP BY event_type ORDER BY event_type"
    ).df()
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["n_events"].tolist() == want["n_events"].tolist()
    assert got["total_value"].tolist() == want["total_value"].tolist()


def test_customer_revenue_by_segment_vs_duckdb(ray_session):
    """Kernel coverage for the retired query slot (its registry entry
    was swapped for jpeg_decode under the 50-query cap)."""
    import duckdb

    from fetch_engines_ray.ops.relational import customer_revenue_by_segment

    sf = "/root/testdata/sf0.001"
    got = customer_revenue_by_segment(sf)
    want = duckdb.sql(
        "SELECT c_mktsegment, count(*) AS n_orders,"
        " round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 3) AS revenue"
        f" FROM read_parquet('{sf}/orders.parquet') o"
        f" JOIN read_parquet('{sf}/customer.parquet') c ON o_custkey = c_custkey"
        " GROUP BY c_mktsegment ORDER BY c_mktsegment"
    ).df()
    assert got["c_mktsegment"].tolist() == want["c_mktsegment"].tolist()
    assert got["n_orders"].tolist() == want["n_orders"].tolist()
    assert got["revenue"].tolist() == want["revenue"].tolist()


def test_retired_rollup_kernels_vs_duckdb(ray_session):
    """Kernel coverage for the two slots retired in favor of
    doc_encoding_quality / customer_order_full_outer."""
    import duckdb

    from fetch_engines_ray.ops.relational import (
        large_parts_by_brand,
        orders_per_month,
    )

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    got = orders_per_month(sf)
    want = con.execute(
        "SELECT strftime(o_orderdate, '%Y-%m') AS month, count(*) AS n_orders"
        f" FROM read_parquet('{sf}/orders.parquet') GROUP BY month ORDER BY month"
    ).fetchdf()
    assert got["month"].tolist() == want["month"].tolist()
    assert got["n_orders"].tolist() == want["n_orders"].astype("int64").tolist()

    got2 = large_parts_by_brand(sf)
    want2 = con.execute(
        "SELECT p_brand, count(*) AS n_parts"
        f" FROM read_parquet('{sf}/part.parquet') WHERE p_size >= 25"
        " GROUP BY p_brand ORDER BY p_brand"
    ).fetchdf()
    assert got2["p_brand"].tolist() == want2["p_brand"].tolist()
    assert got2["n_parts"].tolist() == want2["n_parts"].astype("int64").tolist()


def test_high_value_open_orders_vs_duckdb(ray_session):
    """Kernel coverage for the retired query slot (its registry entry
    was swapped for c4_line_filters under the 50-query cap)."""
    import duckdb

    from fetch_engines_ray.ops.relational import high_value_open_orders

    sf = "/root/testdata/sf0.001"
    got = high_value_open_orders(sf)
    want = duckdb.sql(
        "SELECT o_orderkey, o_orderstatus, round(o_totalprice, 3) AS o_totalprice"
        f" FROM read_parquet('{sf}/orders.parquet')"
        " WHERE o_orderstatus = 'O' AND o_totalprice > 200000.0"
        " ORDER BY o_orderkey"
    ).df()
    assert got["o_orderkey"].tolist() == want["o_orderkey"].tolist()
    assert got["o_totalprice"].tolist() == want["o_totalprice"].tolist()
    assert len(got) > 0


def test_corpus_diff_detects_change_after_nul_byte(ray_session):
    """Regression: pandas' object-string hashing truncates at NUL
    (C-string semantics), which masked any change AFTER an embedded
    \x00; the diff now hashes UTF-8 bytes.  Also covers string ids."""
    import ray.data

    from fetch_engines_ray.ops.diff import corpus_diff

    a = pd.DataFrame(
        {"doc_id": ["x", "y"], "text": ["prefix\x00old tail", "clean"]}
    )
    b = pd.DataFrame(
        {"doc_id": ["x", "y"], "text": ["prefix\x00NEW TAIL", "clean"]}
    )
    d = corpus_diff(ray.data.from_pandas(a), ray.data.from_pandas(b)).to_pandas()
    assert list(zip(d["doc_id"], d["status"])) == [("x", "changed")]


def test_full_outer_join_vs_duckdb(ray_session):
    """Ray-native full_outer join against DuckDB: both sides keep their
    orphans (order-less high-balance customers, high-value orders whose
    customer misses the balance cut)."""
    import duckdb

    from fetch_engines_ray.ops.relational import customer_order_full_outer

    sf = "/root/testdata/sf0.001"
    got = customer_order_full_outer(sf)
    con = duckdb.connect()
    want = con.execute(
        "WITH hc AS (SELECT c_custkey, CAST(round(c_acctbal * 100) AS BIGINT)"
        "   AS c_acctbal_cents"
        f"  FROM read_parquet('{sf}/customer.parquet') WHERE c_acctbal > 7000.0),"
        " hv AS (SELECT o_custkey, count(*) AS n_orders"
        f"  FROM read_parquet('{sf}/orders.parquet')"
        "   WHERE o_totalprice > 400000.0 GROUP BY o_custkey)"
        " SELECT COALESCE(c_custkey, o_custkey) AS custkey,"
        "  COALESCE(c_acctbal_cents, -1) AS c_acctbal_cents,"
        "  COALESCE(n_orders, 0) AS n_orders"
        " FROM hc FULL OUTER JOIN hv ON c_custkey = o_custkey ORDER BY custkey"
    ).fetchdf()
    assert got["custkey"].tolist() == want["custkey"].astype("int64").tolist()
    assert got["c_acctbal_cents"].tolist() == want["c_acctbal_cents"].astype("int64").tolist()
    assert got["n_orders"].tolist() == want["n_orders"].astype("int64").tolist()
    # both orphan classes genuinely present
    assert (got["n_orders"] == 0).any()
    assert (got["c_acctbal_cents"] == -1).any()


def test_word_counts_vocab(ray_session):
    from collections import Counter

    import ray.data

    from fetch_engines_ray.ops.textstats import word_counts

    rng = np.random.RandomState(31)
    words = [f"tok{i}" for i in range(200)]
    texts = [" ".join(rng.choice(words, size=rng.randint(0, 60))) for _ in range(400)]
    texts += ["", "  ", "UPPER upper UpPeR"]
    truth = Counter(tok for t in texts for tok in t.lower().split())

    ds = ray.data.from_pandas(pd.DataFrame({"text": texts})).repartition(6)
    out = word_counts(ds).to_pandas()
    got = dict(zip(out["word"], out["n"]))
    assert got == dict(truth)
    # case folding merged the three 'upper' variants
    assert got["upper"] == 3
    # min_count pruning
    pruned = word_counts(ds, min_count=5).to_pandas()
    assert set(pruned["word"]) == {w for w, c in truth.items() if c >= 5}


def test_embed_texts_end_to_end(ray_session):
    """Batched-inference stage: deterministic embeddings, near-dup texts
    land close in cosine space, and the output feeds the similarity ops
    directly."""
    import ray.data

    from fetch_engines_ray.ops.embed import embed_texts
    from fetch_engines_ray.ops.similarity import knn_bruteforce

    rng = np.random.RandomState(41)
    words = [f"tok{i}" for i in range(500)]
    rows = []
    for i in range(80):
        rows.append({"doc_id": i, "text": " ".join(rng.choice(words, size=60))})
    near = rows[0]["text"].split()
    near[3] = "CHANGED"
    rows.append({"doc_id": 900, "text": " ".join(near)})  # near-dup of 0
    rows.append({"doc_id": 901, "text": rows[0]["text"]})  # exact dup of 0
    ds = ray.data.from_items(rows).repartition(4)

    emb = embed_texts(ds, dim=32, concurrency=2, batch_size=16)
    df = emb.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(df) == 82 and all(len(v) == 32 for v in df["embedding"])

    # determinism across runs/actors
    df2 = embed_texts(ds, dim=32, concurrency=1).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert all(np.allclose(a, b) for a, b in zip(df["embedding"], df2["embedding"]))

    # exact dup -> identical embedding; near-dup -> nearest neighbor of 0
    by_id = {int(r["doc_id"]): np.asarray(r["embedding"]) for _, r in df.iterrows()}
    assert np.allclose(by_id[0], by_id[901])
    knn = knn_bruteforce(
        emb.map_batches(
            lambda b: b.rename_columns(["vec_id", "embedding"]), batch_format="pyarrow"
        ),
        query_ids=[0],
        k=2,
    )
    assert set(knn["neighbor_id"]) == {900, 901}


def test_profile_artifacts_merge_equals_one_pass(ray_session, tmp_path):
    """Cross-run profile merging: profile two disjoint halves into
    artifacts, merge them, and get EXACTLY the one-pass profile of the
    whole table (counts/extrema exact; HLL register max-merge is
    lossless for union, so even the estimate matches bit-for-bit)."""
    import pyarrow.compute as pc_

    from fetch_engines_ray.arrowclean import read_parquet_clean
    from fetch_engines_ray.ops.profile import (
        merge_profile_artifacts,
        profile_table,
        write_profile_artifact,
    )

    sf = "/root/testdata/sf0.001"
    cols = ["l_orderkey", "l_quantity", "l_shipdate", "l_returnflag"]
    full = read_parquet_clean(f"{sf}/lineitem.parquet", columns=cols)
    lo = full.map_batches(
        lambda b: b.filter(pc_.less(b["l_orderkey"], pa.scalar(750))),
        batch_format="pyarrow",
    )
    hi = full.map_batches(
        lambda b: b.filter(pc_.greater_equal(b["l_orderkey"], pa.scalar(750))),
        batch_format="pyarrow",
    )
    p1, p2 = str(tmp_path / "lo.parquet"), str(tmp_path / "hi.parquet")
    r1 = write_profile_artifact(lo, p1, columns=cols)
    write_profile_artifact(hi, p2, columns=cols)
    assert r1["n_rows"].iloc[0] < full.count()  # halves are proper subsets

    merged = merge_profile_artifacts([p1, p2])
    want = profile_table(full, columns=cols)
    pd.testing.assert_frame_equal(merged, want)

    # an EMPTY increment profiles as zero rows and merges as a no-op
    empty = full.map_batches(
        lambda b: b.filter(pc_.less(b["l_orderkey"], pa.scalar(-1))),
        batch_format="pyarrow",
    )
    p3 = str(tmp_path / "empty.parquet")
    r3 = write_profile_artifact(empty, p3, columns=cols)
    assert r3["n_rows"].tolist() == [0, 0, 0, 0]
    merged3 = merge_profile_artifacts([p1, p2, p3])
    pd.testing.assert_frame_equal(merged3, want)


def test_profile_table_duckdb_parity(ray_session):
    """One-pass profiler vs DuckDB ground truth over real testdata:
    exact row/null counts and typed extrema (ints, floats, strings,
    dates, timestamps), HLL distinct within 5% of exact, list columns
    degrade gracefully (no extrema, NaN distinct)."""
    import duckdb

    import ray.data

    from fetch_engines_ray.ops.profile import profile_table

    sf = "/root/testdata/sf0.001"
    for table, cols in [
        ("lineitem", ["l_orderkey", "l_quantity", "l_returnflag", "l_shipdate"]),
        ("events", ["ts", "event_type", "value"]),
    ]:
        ds = ray.data.read_parquet(f"{sf}/{table}.parquet", columns=cols)
        prof = profile_table(ds).set_index("column")
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW t AS SELECT * FROM read_parquet('{sf}/{table}.parquet')"
        )
        for c in cols:
            n, nn, nd, mn, mx = con.execute(
                f"SELECT count(*), count(*) - count({c}), count(DISTINCT {c}),"
                f" min({c}), max({c}) FROM t"
            ).fetchone()
            row = prof.loc[c]
            assert row["n_rows"] == n and row["n_nulls"] == nn, (table, c)
            assert row["min_repr"] == str(mn) and row["max_repr"] == str(mx), (
                table,
                c,
                row["min_repr"],
                str(mn),
            )
            assert abs(row["approx_distinct"] - nd) <= max(1, 0.05 * nd), (table, c)
    # list-typed embedding column: counts still exact, extrema/sketch degrade
    emb = ray.data.read_parquet(f"{sf}/embeddings.parquet")
    prof = profile_table(emb, columns=["vec_id", "embedding"]).set_index("column")
    assert prof.loc["embedding", "min_repr"] == ""
    assert np.isnan(prof.loc["embedding", "approx_distinct"])
    assert prof.loc["vec_id", "n_rows"] == prof.loc["embedding", "n_rows"] > 0


def test_decontamination_duckdb_parity(ray_session):
    """Benchmark n-gram decontamination vs an exact DuckDB restatement:
    per-doc contaminated-ngram counts over real testdata docs, with two
    planted benchmark texts (one verbatim doc excerpt, one novel)."""
    import duckdb

    import ray.data

    from fetch_engines_ray.ops.decontam import flag_contaminated

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    # benchmark = an excerpt of a real doc (guaranteed hits) + a novel text
    excerpt = " ".join(
        con.execute("SELECT text FROM documents WHERE doc_id = 3").fetchone()[0]
        .split()[:10]
    )
    bench = [excerpt, "zz unseen benchmark zz phrase zz never zz in zz corpus"]
    N = 5

    ds = ray.data.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    got = (
        flag_contaminated(ds, bench, n=N)
        .select_columns(["doc_id", "n_contaminated_ngrams", "contaminated"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    con.execute("CREATE TABLE bench (text VARCHAR)")
    for t in bench:
        con.execute("INSERT INTO bench VALUES (?)", [t])
    want = con.execute(
        f"""
        WITH bt AS (SELECT string_split_regex(lower(trim(text)), '\\s+') AS t FROM bench),
        bg AS (SELECT DISTINCT CASE WHEN len(t) < {N} THEN array_to_string(t, ' ')
                 ELSE array_to_string(list_slice(t, i, i + {N} - 1), ' ') END AS g
               FROM bt, range(1, 2000) r(i)
               WHERE i = 1 OR i <= len(t) - {N} + 1),
        dt AS (SELECT doc_id, string_split_regex(lower(trim(text)), '\\s+') AS t FROM documents),
        dg AS (SELECT doc_id, CASE WHEN len(t) < {N} THEN array_to_string(t, ' ')
                 ELSE array_to_string(list_slice(t, i, i + {N} - 1), ' ') END AS g
               FROM dt, range(1, 2000) r(i)
               WHERE i = 1 OR i <= len(t) - {N} + 1)
        SELECT dt.doc_id,
               CAST(coalesce(h.c, 0) AS BIGINT) AS n_contaminated_ngrams,
               coalesce(h.c, 0) > 0 AS contaminated
        FROM dt LEFT JOIN (
          SELECT doc_id, count(*) AS c FROM dg JOIN bg USING (g) GROUP BY doc_id
        ) h USING (doc_id) ORDER BY dt.doc_id
        """
    ).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=True)
    # the planted excerpt really contaminates doc 3, the novel text nothing
    assert got.loc[got["doc_id"] == 3, "contaminated"].iloc[0]
    assert got["contaminated"].sum() >= 1


def test_minhash_incremental_pairs(ray_session, docs_with_dups, tmp_path):
    """Continuous-ingest dedup against a signature checkpoint: a new
    batch finds its clones of OLD docs (new-old) and of itself
    (new-new) without recomputing old signatures; old-old pairs are
    structurally excluded; persisting grows the index so the next
    increment sees the previous batch."""
    import ray.data

    from fetch_engines_ray.ops.dedup import (
        build_minhash_checkpoint,
        minhash_incremental_pairs,
        minhash_lsh_pairs,
    )

    ckpt = str(tmp_path / "sigs")
    build_minhash_checkpoint(docs_with_dups, ckpt)

    old = {r["doc_id"]: r["text"] for r in docs_with_dups.take_all()}
    new1 = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [500, 501, 502, 503],
                "text": [
                    old[0],  # clone of an old doc -> new-old pair
                    "completely novel words nothing shared here at all",
                    old[7],  # new-new clone pair with 503
                    old[7],
                ],
            }
        )
    )
    pairs = minhash_incremental_pairs(new1, ckpt, threshold=0.7)
    found = {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 500) in found  # new-old
    assert (100, 500) in found and (101, 500) in found  # old clones of 0
    assert (502, 503) in found  # new-new
    assert (7, 502) in found and (7, 503) in found
    # old-old pairs are excluded even though they exist in the corpus
    full = minhash_lsh_pairs(docs_with_dups, threshold=0.7)
    assert (0, 100) in {(a, b) for a, b in zip(full["doc_a"], full["doc_b"])}
    assert (0, 100) not in found
    assert not any(a < 500 and b < 500 for a, b in found)

    # the persisted index now contains batch 1: a clone of 501 is found
    new2 = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [600], "text": [
            "completely novel words nothing shared here at all"
        ]})
    )
    pairs2 = minhash_incremental_pairs(new2, ckpt, threshold=0.7, persist_new=False)
    found2 = {(a, b) for a, b in zip(pairs2["doc_a"], pairs2["doc_b"])}
    assert (501, 600) in found2
    assert all(b == 600 for _, b in found2)  # only pairs touching the new doc


def test_sample_mixture_duckdb_parity(ray_session):
    """Mixture sampling vs the exact SQL restatement (md5-rank bottom-n
    per group with per-group quotas): reproducible row selection,
    quota-capped composition, unlisted groups dropped, undersized
    groups contribute everything they have."""
    import duckdb

    import ray.data

    from fetch_engines_ray.ops.textstats import sample_mixture

    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "source"])
    # src0 weighted heavier than its 25 rows can supply at total=120:
    # quota floor(0.5*120)=60 > 25 -> contributes all 25
    weights = {"src0": 0.5, "src1": 0.25, "src2": 0.25}
    got = (
        sample_mixture(ds, weights, total=120)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    con = duckdb.connect()
    want = con.execute(
        f"""
        WITH ranked AS (
          SELECT doc_id, source,
                 row_number() OVER (PARTITION BY source ORDER BY
                   ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT,
                   md5(CAST(doc_id AS VARCHAR))) AS rn
          FROM read_parquet('{sf}/documents.parquet')
          WHERE source IN ('src0', 'src1', 'src2'))
        SELECT doc_id, source FROM ranked
        WHERE (source = 'src0' AND rn <= 60)
           OR (source = 'src1' AND rn <= 30)
           OR (source = 'src2' AND rn <= 30)
        ORDER BY doc_id
        """
    ).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=True)
    sizes = got.groupby("source").size()
    assert sizes["src0"] == 25  # undersized group gives everything
    assert sizes["src1"] == 25 and sizes["src2"] == 25  # quota 30 > 25
    # determinism across a second run
    got2 = (
        sample_mixture(ds, weights, total=120)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2)

    # BINDING quotas (20 of 25 rows per group): the md5-rank cut must
    # select exactly the SQL's bottom-20 rows, not just the right count
    got3 = (
        sample_mixture(ds, {"src3": 0.5, "src4": 0.5}, total=40)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want3 = con.execute(
        f"""
        WITH ranked AS (
          SELECT doc_id, source,
                 row_number() OVER (PARTITION BY source ORDER BY
                   ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT,
                   md5(CAST(doc_id AS VARCHAR))) AS rn
          FROM read_parquet('{sf}/documents.parquet')
          WHERE source IN ('src3', 'src4'))
        SELECT doc_id, source FROM ranked WHERE rn <= 20 ORDER BY doc_id
        """
    ).df()
    pd.testing.assert_frame_equal(got3, want3, check_dtype=True)
    assert (got3.groupby("source").size() == 20).all()


def test_pack_sequences_chunk_oversize(ray_session):
    """chunk_oversize=True: over-budget docs split into full chunks +
    remainder, every sequence fits the budget, token totals conserve,
    and the default path still flags instead of splitting."""
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.packing import pack_sequences

    rows = [
        {"doc_id": 1, "text": "a " * 100},   # 100 tokens -> fits
        {"doc_id": 2, "text": "b " * 1000},  # 1000 -> 3x300 + 100
        {"doc_id": 3, "text": "c " * 50},
        {"doc_id": 4, "text": "d " * 600},   # 600 -> exactly 2x300
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))

    out = pack_sequences(ds, max_tokens=300, chunk_oversize=True).to_pandas()
    assert not out["oversize"].any()
    assert (out["total_tokens"] <= 300).all()
    assert out["total_tokens"].sum() == 1750  # token conservation
    d2 = out[out["seq_id"] == 2].sort_values("chunk_idx")
    assert list(d2["total_tokens"]) == [300, 300, 300, 100]
    assert list(d2["chunk_idx"]) == [0, 1, 2, 3]
    d4 = out[out["seq_id"] == 4]
    assert list(d4.sort_values("chunk_idx")["total_tokens"]) == [300, 300]

    flagged = pack_sequences(ds, max_tokens=300).to_pandas()
    assert flagged["oversize"].sum() == 2  # default path unchanged
    assert (flagged["chunk_idx"] == 0).all()


def test_dedup_families_on_corpus_with_zero_near_dups(ray_session):
    """A corpus of fully-distinct docs (no shared shingles, so ZERO LSH
    bucket collisions) must yield empty pair frames, not the
    schema-less-empty-stream join crash it used to (ArrowInvalid:
    FieldRef doc_a, surfaced through curate_corpus on clean corpora)."""
    import ray.data

    from fetch_engines_ray.ops.dedup import (
        minhash_dedup,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
        simhash_pairs,
    )

    rows = [
        {"doc_id": i, "text": " ".join(f"tok{i}x{j}" for j in range(30))}
        for i in range(24)
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    assert minhash_lsh_pairs(ds).empty
    assert ngram_jaccard_pairs(ds).empty
    sim = simhash_pairs(ds)
    # simhash buckets are 16-bit quarters — spurious collisions possible
    # but must be hamming-verified; fully-distinct docs produce none
    assert sim.empty
    decisions = minhash_dedup(ds)
    assert decisions.empty or decisions["is_kept"].all()


def test_incremental_dedup_with_zero_collisions(ray_session, tmp_path):
    """The incremental path inherits the zero-candidate guard: a new
    batch sharing nothing with the checkpoint (or itself) yields an
    empty pair frame, not a join crash."""
    import ray.data

    from fetch_engines_ray.ops.dedup import (
        build_minhash_checkpoint,
        minhash_incremental_pairs,
    )

    base = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_id": range(10), "text": [" ".join(f"a{i}b{j}" for j in range(25)) for i in range(10)]}
        )
    )
    ckpt = str(tmp_path / "sigs")
    build_minhash_checkpoint(base, ckpt)
    new = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_id": range(100, 108), "text": [" ".join(f"z{i}q{j}" for j in range(25)) for i in range(100, 108)]}
        )
    )
    pairs = minhash_incremental_pairs(new, ckpt, persist_new=False)
    assert pairs.empty


def test_partitioned_attach_inner_left_and_extreme_ids(ray_session):
    """The join-replacement helper: inner and left forms match pandas
    merge exactly, including full-range negative int64 ids (the float64
    corruption trap) and keys missing from the lookup."""
    import pyarrow as pa

    import ray.data

    from fetch_engines_ray.ops.dedup import _partitioned_attach

    big = -(2**62) - 12345  # cannot round-trip float64
    pairs = pd.DataFrame(
        {
            "doc_a": np.array([1, 2, big, 7], dtype=np.int64),
            "doc_b": np.array([5, 6, 8, big], dtype=np.int64),
        }
    )
    lookup = pd.DataFrame(
        {
            "doc_id": np.array([1, 2, big], dtype=np.int64),
            "text": ["t1", "t2", "tbig"],
        }
    )
    for how, expect_rows in (("inner", 3), ("left", 4)):
        out = (
            _partitioned_attach(
                ray.data.from_pandas(pairs).repartition(3),
                ray.data.from_pandas(lookup),
                key_col="doc_a",
                carry=[("doc_a", pa.int64()), ("doc_b", pa.int64())],
                value_col="text",
                value_type=pa.string(),
                out_col="text",
                n_parts=16,
                how=how,
            )
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        assert len(out) == expect_rows, how
        assert out["doc_a"].dtype == np.int64
        by = dict(zip(out["doc_a"], out["text"]))
        assert by[1] == "t1" and by[2] == "t2" and by[big] == "tbig"
        if how == "left":
            assert by[7] is None or (isinstance(by[7], float) and np.isnan(by[7]))


def test_md5_oracle_hash_variants(ray_session):
    """The DuckDB-reproducible hash variants (simhash md5, minhash
    mod-p md5) keep the family contracts: exact clones at hamming 0 /
    est 1.0, near-identical docs found, results deterministic across
    partitionings, and disjoint docs produce no pairs."""
    import ray.data

    from fetch_engines_ray.ops.dedup import minhash_lsh_pairs, simhash_pairs

    base = " ".join(f"word{i:03d}" for i in range(60)) + " seventeen " + " ".join(
        f"tail{i:02d}" for i in range(20)
    )
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},  # exact clone
        {"doc_id": 2, "text": base.replace("seventeen", "eighteen")},  # near dup
        {"doc_id": 3, "text": "completely unrelated words about parquet shuffles"},
        {"doc_id": 4, "text": "zeta eta theta iota kappa lambda mu nu xi omicron"},
    ]
    for parts in (1, 3):
        ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(parts)
        sp = simhash_pairs(ds, hash_fn="md5")
        sh = {(a, b): h for a, b, h in zip(sp["doc_a"], sp["doc_b"], sp["hamming"])}
        assert sh.get((0, 1)) == 0
        assert all(h <= 3 for h in sh.values())
        mp = minhash_lsh_pairs(ds, hash_fn="md5")
        mh = {(a, b): e for a, b, e in zip(mp["doc_a"], mp["doc_b"], mp["est_jaccard"])}
        assert mh.get((0, 1)) == 1.0
        assert (0, 2) in mh and mh[(0, 2)] >= 0.7  # near dup found
        assert not any(3 in p or 4 in p for p in mh)  # disjoint docs clean


def test_md5_modp_signatures_sql_parity():
    """Pin the mod-p affine family against a direct DuckDB recompute on
    one document — the engine-side contract behind the minhash oracle."""
    import duckdb

    from fetch_engines_ray.ops.dedup import _md5_modp_signatures

    text = "alpha beta gamma delta epsilon zeta eta theta"
    sig = _md5_modp_signatures([text], num_perm=8, shingle_size=3)[0]
    got = duckdb.connect().execute(
        "WITH toks AS (SELECT string_split_regex(lower(trim(?)), '\\s+') AS t),"
        " g AS (SELECT DISTINCT unnest(list_transform(generate_series(1, len(t) - 2),"
        "   i -> array_to_string(list_slice(t, i, i + 2), ' '))) AS g FROM toks),"
        " gh AS (SELECT ('0x' || substr(md5(g), 1, 8))::BIGINT % 2147483647 AS h FROM g),"
        " perms AS (SELECT r.i, (2654435761 * (r.i + 1)) % 2147483647 AS a,"
        "   (40503 * (r.i + 1) + 9) % 2147483647 AS b FROM range(0, 8) r(i))"
        " SELECT min((a * h + b) % 2147483647) FROM gh, perms GROUP BY i ORDER BY i",
        [text],
    ).fetchall()
    assert [int(r[0]) for r in got] == [int(v) for v in sig]


def test_fuzzy_decontamination(ray_session):
    """MinHash-LSH fuzzy decontamination: verbatim benchmark copies hit
    est 1.0, a light paraphrase (one token edited) is still flagged,
    unrelated docs get 0.0 / no candidate, and the matched_bench_id
    points at the right benchmark row."""
    import numpy as np
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.decontam import fuzzy_decontaminate

    rng = np.random.RandomState(11)
    vocab = [f"tok{i:03d}" for i in range(80)]
    bench0 = " ".join(rng.choice(vocab, size=90))
    bench1 = " ".join(rng.choice(vocab, size=70))
    near = bench0.split()
    near[10] = "EDITED"
    near = " ".join(near)
    unrelated = " ".join(f"zz{i}" for i in range(60))
    rows = pd.DataFrame(
        {"doc_id": [0, 1, 2, 3], "text": [bench0, near, unrelated, bench1]}
    )
    df = (
        fuzzy_decontaminate(
            ray.data.from_pandas(rows), [bench0, bench1], threshold=0.8
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert df.loc[0, "max_bench_jaccard"] == 1.0
    assert df.loc[0, "matched_bench_id"] == 0 and df.loc[0, "fuzzy_contaminated"]
    assert df.loc[1, "fuzzy_contaminated"] and df.loc[1, "matched_bench_id"] == 0
    assert 0.8 <= df.loc[1, "max_bench_jaccard"] < 1.0
    assert not df.loc[2, "fuzzy_contaminated"]
    assert df.loc[2, "max_bench_jaccard"] == 0.0
    assert df.loc[2, "matched_bench_id"] == -1
    assert df.loc[3, "matched_bench_id"] == 1
    assert df.loc[3, "max_bench_jaccard"] == 1.0

    # empty benchmark set: nothing flagged, columns still present
    clean = fuzzy_decontaminate(
        ray.data.from_pandas(rows), [], threshold=0.8
    ).to_pandas()
    assert not clean["fuzzy_contaminated"].any()
    assert (clean["matched_bench_id"] == -1).all()
    assert (clean["max_bench_jaccard"] == 0.0).all()


def test_corpus_diff(ray_session):
    """Snapshot diff: added/removed/changed verdicts are exact, output
    is change-sized, identical snapshots diff empty, and
    include_unchanged restores the full id space."""
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.diff import corpus_diff

    old = pd.DataFrame(
        {"doc_id": range(10), "text": [f"text of doc {i}" for i in range(10)]}
    )
    new = old[old.doc_id != 3].copy()  # 3 removed
    new.loc[new.doc_id.isin([5, 7]), "text"] = "EDITED"  # 5, 7 changed
    new = pd.concat(
        [new, pd.DataFrame({"doc_id": [100], "text": ["brand new"]})]
    )  # 100 added

    a, b = ray.data.from_pandas(old), ray.data.from_pandas(new)
    got = corpus_diff(a, b).to_pandas().set_index("doc_id")["status"].to_dict()
    assert got == {3: "removed", 5: "changed", 7: "changed", 100: "added"}

    assert corpus_diff(a, a).to_pandas().empty  # identical snapshots

    full = corpus_diff(a, b, include_unchanged=True).to_pandas()
    assert len(full) == 11  # 10 old ids + 1 added
    assert (full[~full.doc_id.isin([3, 5, 7, 100])]["status"] == "unchanged").all()


from hypothesis import given, settings
from hypothesis import strategies as st


def _diff_reference(old_rows, new_rows):
    old = {i: t for i, t in old_rows}
    new = {i: t for i, t in new_rows}
    out = {}
    for i in old.keys() - new.keys():
        out[i] = "removed"
    for i in new.keys() - old.keys():
        out[i] = "added"
    for i in old.keys() & new.keys():
        if old[i] != new[i]:
            out[i] = "changed"
    return out


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.integers(0, 40), st.text(max_size=6), max_size=25),
    st.dictionaries(st.integers(0, 40), st.text(max_size=6), max_size=25),
)
def test_corpus_diff_matches_dict_reference(ray_session, old_map, new_map):
    """corpus_diff == the obvious dict diff for ANY pair of snapshots
    (including empty sides, disjoint id spaces, and equal texts)."""
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.diff import corpus_diff

    def to_ds(m):
        ids = sorted(m)
        return ray.data.from_pandas(
            pd.DataFrame({"doc_id": ids, "text": [m[i] for i in ids]})
            if ids
            else pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                               "text": pd.Series([], dtype="object")})
        )

    got_df = corpus_diff(to_ds(old_map), to_ds(new_map), n_parts=4).to_pandas()
    # a fully-empty pair of snapshots yields a schema-less empty frame
    got = {} if got_df.empty else dict(zip(got_df["doc_id"], got_df["status"]))
    assert got == _diff_reference(old_map.items(), new_map.items())


def test_pack_sequences_bfd(ray_session):
    """Best-fit-decreasing packing: every doc placed exactly once, no
    sequence over budget, deterministic — and on the classic instance
    (sizes 6..1, cap 7) it packs 3 zero-waste bins where in-order
    greedy needs 4."""
    import pandas as pd

    import ray.data

    from fetch_engines_ray.ops.packing import pack_sequences

    df = pd.DataFrame(
        {
            "doc_id": range(6),
            "text": [" ".join(["w"] * n) for n in (6, 5, 4, 3, 2, 1)],
        }
    )
    ds = ray.data.from_pandas(df)
    greedy = pack_sequences(ds, max_tokens=7).to_pandas()
    bfd = pack_sequences(ds, max_tokens=7, strategy="bfd").to_pandas()
    assert len(greedy) == 4 and len(bfd) == 3
    assert (bfd["total_tokens"] == 7).all()  # zero padding waste
    placed = sorted(d for ids in bfd["doc_ids"] for d in ids)
    assert placed == list(range(6))  # every doc exactly once

    # random invariants + determinism + oversize parity with greedy
    rng = np.random.RandomState(13)
    big = pd.DataFrame(
        {
            "doc_id": range(300),
            "text": [" ".join(["w"] * int(n)) for n in rng.randint(1, 120, size=300)],
        }
    )
    big.loc[7, "text"] = " ".join(["w"] * 500)  # oversize doc
    bds = ray.data.from_pandas(big)
    out1 = pack_sequences(bds, max_tokens=128, strategy="bfd").to_pandas()
    out2 = pack_sequences(bds, max_tokens=128, strategy="bfd").to_pandas()
    assert sorted(map(tuple, out1["doc_ids"])) == sorted(map(tuple, out2["doc_ids"]))
    placed = sorted(d for ids in out1["doc_ids"] for d in ids)
    assert placed == list(range(300))
    assert (out1.loc[~out1["oversize"], "total_tokens"] <= 128).all()
    assert out1.loc[out1["oversize"], "seq_id"].tolist() == [7]
    # denser or equal vs greedy on the same shard
    g = pack_sequences(bds, max_tokens=128).to_pandas()
    assert len(out1) <= len(g)

    import pytest as _pytest

    with _pytest.raises(ValueError, match="strategy"):
        pack_sequences(bds, max_tokens=128, strategy="worst-fit").take_all()


def test_mixture_weights_temperature(ray_session):
    """Temperature rebalancing: alpha=1 == natural proportions,
    alpha=0 == uniform, alpha=0.5 matches the closed form, and the
    self-counting wrapper realizes the implied quotas exactly."""
    import math

    import ray.data

    from fetch_engines_ray.ops.textstats import (
        mixture_weights_temperature,
        sample_mixture_temperature,
    )

    counts = {"a": 80, "b": 20}
    w1 = mixture_weights_temperature(counts, alpha=1.0)
    assert abs(w1["a"] - 0.8) < 1e-12 and abs(w1["b"] - 0.2) < 1e-12
    w0 = mixture_weights_temperature(counts, alpha=0.0)
    assert abs(w0["a"] - 0.5) < 1e-12 and abs(w0["b"] - 0.5) < 1e-12
    wh = mixture_weights_temperature(counts, alpha=0.5)
    za, zb = math.sqrt(80), math.sqrt(20)
    assert abs(wh["a"] - za / (za + zb)) < 1e-12
    assert abs(wh["b"] - zb / (za + zb)) < 1e-12
    # zero-count groups drop; negative alpha rejected
    assert "c" not in mixture_weights_temperature({"a": 5, "c": 0}, 0.5)
    assert mixture_weights_temperature({}, 0.5) == {}
    import pytest as _pytest

    with _pytest.raises(ValueError, match="alpha"):
        mixture_weights_temperature(counts, -0.1)

    rows = [{"doc_id": i, "source": "a" if i < 80 else "b"} for i in range(100)]
    ds = ray.data.from_items(rows)
    # sqrt temperature: quotas floor(2/3*30)=20 and floor(1/3*30)=10
    got = sample_mixture_temperature(ds, alpha=0.5, total=30).to_pandas()
    sizes = got.groupby("source").size()
    assert sizes["a"] == 20 and sizes["b"] == 10
    # natural proportions at alpha=1: 24 / 6
    got1 = sample_mixture_temperature(ds, alpha=1.0, total=30).to_pandas()
    sizes1 = got1.groupby("source").size()
    assert sizes1["a"] == 24 and sizes1["b"] == 6
    # uniform at alpha=0: 15 / 15
    got0 = sample_mixture_temperature(ds, alpha=0.0, total=30).to_pandas()
    sizes0 = got0.groupby("source").size()
    assert sizes0["a"] == 15 and sizes0["b"] == 15
    # deterministic row identity across runs
    got_b = sample_mixture_temperature(ds, alpha=0.5, total=30).to_pandas()
    assert sorted(got["doc_id"]) == sorted(got_b["doc_id"])


def test_heavy_hitters_exact_parity(ray_session):
    """heavy_hitters_exact = sketch candidates + exact recount: counts
    match a full value_counts, guarantee flag set when the k-th count
    clears the survival bound."""
    import ray.data

    from fetch_engines_ray.ops.sketches import heavy_hitters_exact

    rng = np.random.RandomState(7)
    ranks = np.clip(rng.zipf(1.3, 30000), 1, 500)
    vals = pd.Series([f"tok{r}" for r in ranks], dtype=object)
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    out = heavy_hitters_exact(ds, "v", k=15, capacity=2048)
    vc = vals.value_counts().reset_index()
    vc.columns = ["value", "count"]
    want = (
        vc.sort_values(["count", "value"], ascending=[False, True])
        .head(15)
        .reset_index(drop=True)
    )
    assert list(out["value"]) == list(want["value"])
    assert list(out["count"]) == list(want["count"])
    assert out.attrs["exact_topk"] is True


def test_heavy_hitters_exact_tight_capacity_counts_still_exact(ray_session):
    """With a sketch capacity too small for the tail, reported counts
    stay EXACT (second pass); only the completeness flag may drop."""
    import ray.data

    from fetch_engines_ray.ops.sketches import heavy_hitters_exact

    rng = np.random.RandomState(11)
    ranks = np.clip(rng.zipf(1.2, 20000), 1, 800)
    vals = pd.Series([f"t{r}" for r in ranks], dtype=object)
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(6)
    out = heavy_hitters_exact(ds, "v", k=5, capacity=32)
    truth = vals.value_counts()
    for v, c in zip(out["value"], out["count"]):
        assert int(truth[v]) == int(c)


def test_heavy_hitters_exact_fewer_values_than_k(ray_session):
    import ray.data

    from fetch_engines_ray.ops.sketches import heavy_hitters_exact

    ds = ray.data.from_pandas(
        pd.DataFrame({"v": pd.Series(["a", "b", "a", "a", "b", "c"], dtype=object)})
    ).repartition(2)
    out = heavy_hitters_exact(ds, "v", k=10, capacity=64)
    assert list(zip(out["value"], out["count"])) == [("a", 3), ("b", 2), ("c", 1)]
    assert out.attrs["exact_topk"] is True

    import pytest as _pytest

    with _pytest.raises(ValueError):
        heavy_hitters_exact(ds, "v", k=100, capacity=10)


def test_decontamination_bloom_probe(ray_session):
    """probe='bloom': never misses a true hit (no false negatives),
    counts upper-bound the exact path, and the broadcast blob is
    several times smaller than the sorted hash array."""
    import ray.data

    from fetch_engines_ray.ops.decontam import (
        benchmark_bloom,
        benchmark_ngram_hashes,
        flag_contaminated,
    )

    sf = "/root/testdata/sf0.001"
    import duckdb

    con = duckdb.connect()
    excerpt = " ".join(
        con.execute(
            f"SELECT text FROM read_parquet('{sf}/documents.parquet') WHERE doc_id = 3"
        ).fetchone()[0].split()[:10]
    )
    bench = [excerpt, "zz unseen benchmark zz phrase zz never zz in zz corpus"]
    ds = ray.data.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    cols = ["doc_id", "n_contaminated_ngrams", "contaminated"]
    exact = (
        flag_contaminated(ds, bench, n=5)
        .select_columns(cols).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    bloom = (
        flag_contaminated(ds, bench, n=5, probe="bloom")
        .select_columns(cols).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # no false negatives: every exact hit is a bloom hit, counts >=
    assert (bloom["n_contaminated_ngrams"] >= exact["n_contaminated_ngrams"]).all()
    assert bool(bloom.loc[exact["contaminated"], "contaminated"].all())
    assert exact["contaminated"].any()  # the planted excerpt really hits
    # compactness: blob beats the 8-byte-per-gram sorted array
    blob, _m, _k = benchmark_bloom(bench, n=5)
    arr = benchmark_ngram_hashes(bench, n=5)
    assert len(blob) < arr.nbytes

    import pytest as _pytest

    with _pytest.raises(ValueError, match="probe"):
        flag_contaminated(ds, bench, n=5, probe="nope")


def test_line_dedup_full_range_int64_doc_ids(ray_session):
    """Blake2b-derived ids span the FULL signed int64 range (the ingest
    bridge's contract): the winner rule and document reconstruction
    must be exact there — the old packed doc_id*2^32+line_no key
    wrapped, corrupting rebuilt ids and merging unrelated docs that
    share their low 32 id bits (review finding)."""
    import numpy as np
    import pandas as pd

    import ray.data
    from fetch_engines_ray.ops.dedup import line_dedup

    lo = -6076574518398440533  # full-range negative id
    hi = lo + (1 << 32)  # shares its low 32 bits with lo
    big = 2**62 + 12345
    rows = [
        {"doc_id": lo, "text": "alpha\nshared line\nbeta"},
        {"doc_id": hi, "text": "gamma\nshared line\ndelta"},
        {"doc_id": big, "text": "epsilon\nshared line"},
        {"doc_id": 7, "text": "zeta\nshared line"},
    ]
    out = (
        line_dedup(ray.data.from_pandas(pd.DataFrame(rows)))
        .to_pandas()
        .set_index("doc_id")
    )
    # every input id round-trips exactly
    assert set(out.index) == {lo, hi, big, 7}
    # the shared line survives exactly once, at the lexicographic-min
    # (doc_id, line_no) — the most NEGATIVE id wins
    assert out.loc[lo, "text"] == "alpha\nshared line\nbeta"
    assert out.loc[hi, "text"] == "gamma\ndelta"
    assert out.loc[big, "text"] == "epsilon"
    assert out.loc[7, "text"] == "zeta"
    assert int(out["n_lines"].sum()) == 7


def test_mix_corpora_remix_and_validation(ray_session):
    """Re-mixing a previous mix (input already tagged 'source') must not
    create a duplicate column; an empty sources dict raises (review
    finding)."""
    import pandas as pd
    import pytest

    import ray.data
    from fetch_engines_ray.ops.textstats import mix_corpora

    a = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(0, 40), "text": ["aa"] * 40})
    )
    b = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(100, 140), "text": ["bb"] * 40})
    )
    first = mix_corpora({"a": a, "b": b}, total=40, weights={"a": 0.5, "b": 0.5})
    # remix the tagged output under a new name
    second = mix_corpora({"remix": first}, total=10, weights={"remix": 1.0})
    out = second.to_pandas()
    assert list(out.columns).count("source") == 1
    assert set(out["source"]) == {"remix"}
    with pytest.raises(ValueError, match="at least one source"):
        mix_corpora({}, total=5, weights={})


def test_supplier_count_by_nation_vs_duckdb(ray_session):
    """Kernel coverage for the retired query slot (its registry entry
    was swapped for supplier_graph_pagerank under the 50-query cap)."""
    import duckdb

    from fetch_engines_ray.ops.relational import supplier_count_by_nation

    sf = "/root/testdata/sf0.001"
    got = supplier_count_by_nation(sf)
    want = duckdb.sql(
        "SELECT n_name, count(*) AS n_suppliers,"
        " round(sum(CAST(round(s_acctbal * 100) AS BIGINT)) / 100.0, 3) AS total_acctbal"
        f" FROM read_parquet('{sf}/supplier.parquet') s"
        f" JOIN read_parquet('{sf}/nation.parquet') n ON s_nationkey = n_nationkey"
        " GROUP BY n_name ORDER BY n_name"
    ).df()
    assert got["n_name"].tolist() == want["n_name"].tolist()
    assert got["n_suppliers"].tolist() == want["n_suppliers"].tolist()
    assert got["total_acctbal"].tolist() == want["total_acctbal"].tolist()


def test_supplier_graph_pagerank_query_properties(ray_session):
    """Structural pins for the new oracled PageRank slot: ranks sum to
    ~1e9 micro-units, region sinks accumulate the most rank, and the
    distributed form matches the broadcast pagerank exactly."""
    import numpy as np

    import __ray_entry__ as E

    out = E.queries()["supplier_graph_pagerank"]("/root/testdata/sf0.001")
    assert abs(int(out["rank_x1e9"].sum()) - 1_000_000_000) < 200
    regions = out[out["node"] >= 2_000_000]
    suppliers = out[out["node"] < 1_000_000]
    assert regions["rank_x1e9"].min() > suppliers["rank_x1e9"].max()
