"""Incremental re-crawl refresh (pipelines/extract.py::refresh_extract):
only churned pages re-extract; reused rows are byte-identical to the
previous run; removed pages vanish; the refreshed output equals a full
re-extraction of the new corpus."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def corpora(ray_session, tmp_path_factory):
    from fetch_engines_ray.corpus.generate import generate_corpus

    base = tmp_path_factory.mktemp("refresh")
    prev = str(base / "v1")
    generate_corpus(prev, num_docs=40, seed=9, include_fixtures=False, rows_per_file=20)

    # v2 = v1 with 2 docs changed, 1 removed, 1 added
    rows = []
    for f in sorted(__import__("os").listdir(prev)):
        if f.endswith(".parquet"):
            rows.extend(pq.read_table(f"{prev}/{f}").to_pylist())
    rows.sort(key=lambda r: r["doc_id"])
    changed_ids = [rows[3]["doc_id"], rows[7]["doc_id"]]
    removed_id = rows[5]["doc_id"]
    for r in rows:
        if r["doc_id"] in changed_ids:
            for s in r["spans"]:
                if s.get("text"):
                    s["text"] = s["text"] + "<p>A brand new inserted sentence sits here.</p>"
                    break
    new_doc = dict(rows[0])
    new_doc["doc_id"] = "zz-refresh-added"
    rows = [r for r in rows if r["doc_id"] != removed_id] + [new_doc]
    new = str(base / "v2")
    __import__("os").makedirs(new)
    pq.write_table(
        pa.Table.from_pylist(rows, schema=pq.read_schema(f"{prev}/part-00000.parquet")),
        f"{new}/part-00000.parquet",
    )
    return prev, new, set(changed_ids), removed_id


def test_refresh_extract_matches_full_run(corpora, ray_session):
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    prev, new, changed_ids, removed_id = corpora
    prev_out = extract_corpus(prev).materialize()

    refreshed, stats = refresh_extract(prev, new, prev_out)
    assert stats == {"added": 1, "changed": 2, "removed": 1, "reextracted": 3}

    got = refreshed.to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = extract_corpus(new).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # compare on the stable scalar columns (span structs compare via count)
    for col in ("doc_id", "archetype", "route", "n_out_chars"):
        assert got[col].tolist() == want[col].tolist(), col
    assert removed_id not in set(got["doc_id"])
    assert "zz-refresh-added" in set(got["doc_id"])


def test_refresh_no_churn_reuses_everything(corpora, ray_session):
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    prev, _new, _c, _r = corpora
    prev_out = extract_corpus(prev).materialize()
    refreshed, stats = refresh_extract(prev, prev, prev_out)
    assert stats == {"added": 0, "changed": 0, "removed": 0, "reextracted": 0}
    assert refreshed.count() == prev_out.count()


def test_refresh_join_path_matches_broadcast(corpora, ray_session, monkeypatch):
    """A zero broadcast limit forces keep_by_keys onto its partitioned
    path (the 100%-churn/full-re-crawl posture): stats and output must
    be identical to the broadcast path on the same corpora."""
    from fetch_engines_ray.ops import dedup
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    monkeypatch.setattr(dedup, "BROADCAST_KEY_LIMIT", 0)
    prev, new, _c, removed_id = corpora
    prev_out = extract_corpus(prev).materialize()
    refreshed, stats = refresh_extract(prev, new, prev_out)
    assert stats == {"added": 1, "changed": 2, "removed": 1, "reextracted": 3}
    got = refreshed.to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = extract_corpus(new).to_pandas().sort_values("doc_id").reset_index(drop=True)
    for col in ("doc_id", "archetype", "route", "n_out_chars"):
        assert got[col].tolist() == want[col].tolist(), col
    assert removed_id not in set(got["doc_id"])


def test_refresh_full_churn_join_path(ray_session, tmp_path, monkeypatch):
    """A 100% content churn (every doc's spans rewritten under the same
    ids) through the partitioned key filter: everything re-extracts,
    nothing is reused, stats stay exact."""
    import os

    from fetch_engines_ray.corpus.generate import generate_corpus
    from fetch_engines_ray.ops import dedup
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    prev = str(tmp_path / "v1")
    generate_corpus(prev, num_docs=20, seed=4, include_fixtures=False, rows_per_file=10)
    rows = []
    for f in sorted(os.listdir(prev)):
        if f.endswith(".parquet"):
            rows.extend(pq.read_table(f"{prev}/{f}").to_pylist())
    for r in rows:
        for s in r["spans"]:
            if s.get("text"):
                s["text"] = "<main><h1>Rewritten</h1><p>" + s["text"][:40] + " fully rewritten body content here.</p></main>"
                break
    new = str(tmp_path / "v2")
    os.makedirs(new)
    pq.write_table(
        pa.Table.from_pylist(rows, schema=pq.read_schema(f"{prev}/part-00000.parquet")),
        f"{new}/part-00000.parquet",
    )
    prev_out = extract_corpus(prev).materialize()
    monkeypatch.setattr(dedup, "BROADCAST_KEY_LIMIT", 0)
    refreshed, stats = refresh_extract(prev, new, prev_out)
    assert stats["changed"] == 20 and stats["reextracted"] == 20
    assert stats["added"] == 0 and stats["removed"] == 0
    got = refreshed.to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = extract_corpus(new).to_pandas().sort_values("doc_id").reset_index(drop=True)
    for col in ("doc_id", "archetype", "route", "n_out_chars"):
        assert got[col].tolist() == want[col].tolist(), col
