"""Domain-mixture selection (ops/mixing.py): DuckDB window-cumsum
parity for the md5 kernel, determinism and budget invariants for the
splitmix scale kernel, and the append-stability property the prefix-cut
rule guarantees."""
import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
BUDGETS = {"en": 3000, "de": 2000, "fr": 1500}


def _docs(ray_session):
    from fetch_engines_ray.arrowclean import read_parquet_clean

    return read_parquet_clean(
        f"{SF}/documents.parquet", columns=["doc_id", "lang", "text"]
    )


def test_mixture_matches_duckdb_window(ray_session):
    from fetch_engines_ray.ops.mixing import sample_token_budget

    got = (
        sample_token_budget(
            _docs(ray_session),
            BUDGETS,
            domain_col="lang",
            seed=7,
            hash_fn="md5",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    budget_rows = ", ".join(f"('{k}', {v})" for k, v in BUDGETS.items())
    want = duckdb.sql(
        f"""
        WITH b(lang, budget) AS (VALUES {budget_rows}),
        t AS (SELECT doc_id, lang,
            CAST(array_length(string_split_regex(
              regexp_replace(coalesce(text, ''), '^\\s+|\\s+$', '', 'g'), '\\s+')) AS BIGINT) AS n_tokens,
            ('0x' || substr(md5('7:' || CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT AS pri
          FROM read_parquet('{SF}/documents.parquet')),
        w AS (SELECT t.*, b.budget,
            SUM(n_tokens) OVER (PARTITION BY t.lang ORDER BY pri, doc_id
                                ROWS UNBOUNDED PRECEDING) AS cum
          FROM t JOIN b USING (lang))
        SELECT doc_id, lang, n_tokens FROM w WHERE cum <= budget ORDER BY doc_id
        """
    ).df()
    pd.testing.assert_frame_equal(
        got.astype({"doc_id": "int64", "n_tokens": "int64"}),
        want.astype({"doc_id": "int64", "n_tokens": "int64"}),
    )


def test_mixture_budget_and_determinism(ray_session):
    from fetch_engines_ray.ops.mixing import sample_token_budget

    docs = _docs(ray_session)
    a = sample_token_budget(docs, BUDGETS, domain_col="lang").to_pandas()
    b = sample_token_budget(docs, BUDGETS, domain_col="lang").to_pandas()
    key = ["doc_id"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )
    by = a.groupby("lang")["n_tokens"].sum().to_dict()
    for lang, budget in BUDGETS.items():
        assert 0 < by[lang] <= budget, (lang, by[lang], budget)
    # domains without a budget contribute nothing
    assert set(by) <= set(BUDGETS)
    # a different seed selects a different prefix
    c = sample_token_budget(docs, BUDGETS, domain_col="lang", seed=99).to_pandas()
    assert set(c["doc_id"]) != set(a["doc_id"])


def test_mixture_append_stability(ray_session):
    """The prefix-cut rule: appending new docs only ever displaces
    worse-priority docs — every doc selected from the grown corpus that
    also existed before was either selected before or has better
    priority than something dropped."""
    import ray.data

    from fetch_engines_ray.ops.mixing import sample_token_budget

    rows = [
        {"doc_id": i, "lang": "en", "text": "tok " * 50} for i in range(40)
    ]
    base = ray.data.from_pandas(pd.DataFrame(rows))
    grown = ray.data.from_pandas(
        pd.DataFrame(rows + [{"doc_id": 1000 + i, "lang": "en", "text": "tok " * 50} for i in range(40)])
    )
    budgets = {"en": 500}
    s1 = set(sample_token_budget(base, budgets, domain_col="lang").to_pandas()["doc_id"])
    s2 = set(sample_token_budget(grown, budgets, domain_col="lang").to_pandas()["doc_id"])
    # old docs still selected after the append are a subset of the
    # original selection (new docs can displace, never promote)
    assert {d for d in s2 if d < 1000} <= s1


def test_mixture_validation(ray_session):
    import ray.data

    from fetch_engines_ray.ops.mixing import sample_token_budget

    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": [1], "lang": ["en"], "text": ["x"]}))
    with pytest.raises(ValueError, match="token_budgets"):
        sample_token_budget(ds, {}, domain_col="lang")
    with pytest.raises(ValueError, match="hash_fn"):
        sample_token_budget(ds, {"en": 10}, domain_col="lang", hash_fn="bogus")


def test_mixture_token_count_trims_ascii_whitespace_only(ray_session):
    """Engine token counts equal the oracle SQL's RE2 ``\\s`` rule:
    a leading U+00A0 is token text, not trimmed whitespace."""
    import ray.data

    from fetch_engines_ray.ops.mixing import sample_token_budget

    texts = ["\u00a0 foo", "  bar baz \t", "qux\u2003", None, ""]
    df = pd.DataFrame({"doc_id": range(len(texts)), "lang": "en", "text": texts})
    got = (
        sample_token_budget(ray.data.from_pandas(df), {"en": 10**6}, domain_col="lang")
        .to_pandas()
        .sort_values("doc_id")
    )
    want = duckdb.sql(
        """SELECT doc_id, CAST(array_length(string_split_regex(
             regexp_replace(coalesce(text, ''), '^\\s+|\\s+$', '', 'g'), '\\s+')) AS BIGINT) AS n
           FROM df ORDER BY doc_id"""
    ).df()
    assert got["n_tokens"].tolist() == want["n"].tolist() == [2, 2, 1, 1, 1]


def test_mixture_integer_domain_column(ray_session):
    """Domain columns need not be strings (review finding): an int64
    source_id domain keeps its type end to end."""
    import pyarrow as pa
    import ray.data

    from fetch_engines_ray.ops.mixing import sample_token_budget

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(20), type=pa.int64()),
                "source_id": pa.array([i % 2 for i in range(20)], type=pa.int64()),
                "text": ["tok " * 10] * 20,
            }
        )
    )
    out = sample_token_budget(ds, {0: 50, 1: 30}, domain_col="source_id")
    df = out.to_pandas()
    assert set(df["source_id"]) == {0, 1}
    assert df.groupby("source_id")["n_tokens"].sum().le(50).all()
