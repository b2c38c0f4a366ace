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
    """A zero broadcast limit forces the diff and keep_by_keys onto
    their partitioned paths (the 100%-churn/full-re-crawl posture): stats and output must
    be identical to the broadcast path on the same corpora."""
    from fetch_engines_ray.ops import exchange
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
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
    from fetch_engines_ray.ops import exchange
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
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    refreshed, stats = refresh_extract(prev, new, prev_out)
    assert stats["changed"] == 20 and stats["reextracted"] == 20
    assert stats["added"] == 0 and stats["removed"] == 0
    got = refreshed.to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = extract_corpus(new).to_pandas().sort_values("doc_id").reset_index(drop=True)
    for col in ("doc_id", "archetype", "route", "n_out_chars"):
        assert got[col].tolist() == want[col].tolist(), col


def test_refresh_reextracts_a_changed_force_route(ray_session, tmp_path):
    """A per-row ``force_route`` override is part of what extraction
    reads, so a row whose override changed (spans untouched) re-extracts:
    the refreshed routes equal a full re-extraction of the new corpus."""
    import os

    from fetch_engines_ray.corpus.generate import INPUT_SCHEMA, make_doc
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    schema = INPUT_SCHEMA.append(pa.field("force_route", pa.string()))
    rows = [make_doc(i, 5) for i in range(40)]

    def write(name, force_route):
        path = str(tmp_path / name)
        os.makedirs(path)
        table = pa.Table.from_pylist([{**r, "force_route": force_route} for r in rows], schema=schema)
        pq.write_table(table, f"{path}/part-00000.parquet")
        return path

    prev, new = write("v1", None), write("v2", "warm")
    prev_out = extract_corpus(prev).materialize()

    _same, stats = refresh_extract(prev, prev, prev_out)
    assert stats == {"added": 0, "changed": 0, "removed": 0, "reextracted": 0}

    refreshed, stats = refresh_extract(prev, new, prev_out)
    assert stats == {"added": 0, "changed": 40, "removed": 0, "reextracted": 40}
    got = refreshed.to_pandas().sort_values("doc_id")
    want = extract_corpus(new).to_pandas().sort_values("doc_id")
    assert got["route"].tolist() == want["route"].tolist() == ["warm"] * 40


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# the change-detection key as a per-row Python loop: the reference the
# Arrow-compute view must reproduce byte for byte
def _reference_view_text(batch: pa.Table) -> list:
    texts = []
    for spans, arch, base in zip(
        batch["spans"].to_pylist(),
        batch["archetype"].to_pylist(),
        batch["base_url"].to_pylist(),
    ):
        parts = [f"{arch or ''}\x1f{base or ''}"]
        for s in spans or []:
            parts.append(
                f"{s.get('kind') or ''}\x1f{s.get('text') or ''}\x1f{s.get('media_ref') or ''}"
            )
        texts.append("\x1e".join(parts))
    return texts


def _reference_hash(texts: list):
    import numpy as np
    import pandas as pd

    return pd.util.hash_array(
        np.asarray([(t or "").encode() for t in texts], dtype=object)
    ).view(np.int64)


_field_text = st.none() | st.text(
    st.sampled_from("\x00\x1d\x1e\x1fa é€𝄞") | st.characters(codec="utf-8"), max_size=6
)
_span = st.fixed_dictionaries(
    {"kind": _field_text, "text": _field_text, "media_ref": _field_text, "offset": st.integers(0, 9)}
)
_row = st.fixed_dictionaries(
    {
        "spans": st.none() | st.lists(_span, max_size=4),
        "archetype": _field_text,
        "base_url": _field_text,
    }
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_row, max_size=12), st.data())
def test_content_view_is_byte_identical_to_the_row_loop(rows, data):
    """The Arrow-compute view and its content hashes equal the per-row
    loop's over null and empty span lists, null fields, NUL bytes and
    non-ASCII text, sliced batches (offset != 0) and multi-chunk
    columns; a null ``force_route`` leaves a row's key unchanged."""
    from fetch_engines_ray.corpus.generate import INPUT_SCHEMA
    from fetch_engines_ray.ops.diff import _content_hash
    from fetch_engines_ray.pipelines.extract import _view_text

    schema = pa.schema([INPUT_SCHEMA.field(c) for c in ("spans", "archetype", "base_url")])
    table = pa.Table.from_pylist(rows, schema=schema)
    lo = data.draw(st.integers(0, len(rows)))
    batch = table.slice(lo, data.draw(st.integers(0, len(rows) - lo)))
    cut = data.draw(st.integers(0, batch.num_rows))
    if data.draw(st.booleans()):
        batch = pa.concat_tables([batch.slice(0, cut), batch.slice(cut)])
    if data.draw(st.booleans()):
        batch = batch.append_column("force_route", pa.nulls(batch.num_rows, pa.string()))

    want = _reference_view_text(batch)
    got = _view_text(batch)
    assert got.to_pylist() == want
    assert _content_hash(got).tolist() == _reference_hash(want).tolist()


def test_refresh_reads_each_corpus_once(corpora, ray_session, both_join_paths, monkeypatch):
    """On both diff paths, refresh reads the old and the new corpus once
    each, and its one key filter is the anti-filter over the previous
    output: the rows to re-extract come from the diff's own pass over
    the new corpus, not from a second read and a semi-filter."""
    from fetch_engines_ray.ops import dedup
    from fetch_engines_ray.pipelines import extract

    prev, new, _c, _r = corpora
    prev_out = extract.extract_corpus(prev).materialize()
    reads, keeps = [], []

    def read_corpus(path, cfg=None):
        reads.append(path)
        return real_read(path, cfg)

    def keep_by_keys(*args, **kwargs):
        keeps.append(kwargs.get("keep", args[3] if len(args) > 3 else None))
        return real_keep(*args, **kwargs)

    real_read, real_keep = extract.read_corpus, dedup.keep_by_keys
    monkeypatch.setattr(extract, "read_corpus", read_corpus)
    monkeypatch.setattr(dedup, "keep_by_keys", keep_by_keys)
    for limit in both_join_paths():
        reads.clear()
        keeps.clear()
        refreshed, stats = extract.refresh_extract(prev, new, prev_out)
        refreshed.materialize()
        assert stats == {"added": 1, "changed": 2, "removed": 1, "reextracted": 3}, limit
        assert reads == [prev, new], limit
        assert keeps == [False], limit


def _reserved(ds) -> bool:
    return ds.context.op_resource_reservation_enabled


def test_refresh_broadcast_union_runs_without_the_reservation(corpora, ray_session, tmp_path):
    """On the broadcast path with churn, the returned union owns a copy
    of the previous output's context and runs map-only, so Ray Data's
    per-operator reservation is off there; the caller's previous output
    and the session context keep it on, before and after execution."""
    from ray.data import DataContext

    from fetch_engines_ray.arrowclean import read_parquet_clean
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    prev, new, _c, _r = corpora
    extract_corpus(prev).write_parquet(str(tmp_path / "out"))
    prev_out = read_parquet_clean(str(tmp_path / "out"))
    assert _reserved(prev_out) and DataContext.get_current().op_resource_reservation_enabled

    refreshed, stats = refresh_extract(prev, new, prev_out)
    assert stats["reextracted"] == 3
    assert not _reserved(refreshed)
    assert refreshed.count() == 40
    assert not _reserved(refreshed)
    assert _reserved(prev_out) and DataContext.get_current().op_resource_reservation_enabled

    # nothing to re-extract: the output is the caller's Dataset or a map
    # sharing its context, which stays as the caller left it
    same, _stats = refresh_extract(prev, prev, prev_out)
    assert _reserved(same) and _reserved(prev_out)


def test_refresh_partitioned_path_keeps_the_reservation(corpora, ray_session, monkeypatch):
    """At ``BROADCAST_BYTES = 0`` the refresh chain holds the partitioned
    key filter, an exchange, so its union takes the session's setting,
    even over a previous output whose own context has it off."""
    from ray.data import DataContext

    from fetch_engines_ray.ops import exchange
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    prev, new, _c, _r = corpora
    prev_out = extract_corpus(prev).materialize()
    assert not _reserved(prev_out)
    refreshed, stats = refresh_extract(prev, new, prev_out)
    assert stats["reextracted"] == 3
    assert _reserved(refreshed)
    assert refreshed.count() == 40
    assert _reserved(refreshed) and DataContext.get_current().op_resource_reservation_enabled
    assert not _reserved(prev_out)


def _spy_detect(monkeypatch):
    """Record, during a refresh: every parquet read's path and
    ``override_num_blocks``; each Dataset ``corpus_diff`` measures, with
    its reservation setting when it executes and that of what
    ``measured`` returns; and the setting of every ``co_group`` output
    of the diff and the key filter."""
    import ray.data

    from fetch_engines_ray.ops import dedup, diff

    seen = {"reads": [], "measured": [], "co_group": []}
    real_read, real_measured, real_diff_cg, real_dedup_cg = (
        ray.data.read_parquet, diff.measured, diff.co_group, dedup.co_group
    )

    def read_parquet(paths, **kwargs):
        seen["reads"].append((paths, kwargs.get("override_num_blocks")))
        return real_read(paths, **kwargs)

    def measured(side):
        out = real_measured(side)
        seen["measured"].append(
            (_reserved(side), None if isinstance(out, pa.Table) else _reserved(out))
        )
        return out

    def co_group(real):
        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            seen["co_group"].append(_reserved(out))
            return out

        return spy

    monkeypatch.setattr(ray.data, "read_parquet", read_parquet)
    monkeypatch.setattr(diff, "measured", measured)
    monkeypatch.setattr(diff, "co_group", co_group(real_diff_cg))
    monkeypatch.setattr(dedup, "co_group", co_group(real_dedup_cg))
    return seen


def test_refresh_detect_reads_take_the_rule_and_run_without_the_reservation(
    corpora, ray_session, monkeypatch
):
    """On the broadcast path both change-detection reads take the one
    read-task rule's count, as ``extract_corpus``'s read does, and both
    map-only passes (the old side's read → key → hash, the new side's
    read → key → hash → broadcast attach → classify) execute without
    the reservation; the session context keeps its setting."""
    from ray.data import DataContext

    from fetch_engines_ray.arrowclean import parquet_files
    from fetch_engines_ray.ops.exchange import read_tasks
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    prev, new, _c, _r = corpora
    seen = _spy_detect(monkeypatch)
    prev_out = extract_corpus(prev).materialize()
    assert seen["reads"] == [(prev, read_tasks(parquet_files(prev)))]
    seen["reads"].clear()

    _out, stats = refresh_extract(prev, new, prev_out)
    assert stats["reextracted"] == 3
    want = [(p, read_tasks(parquet_files(p))) for p in (prev, new)]
    assert seen["reads"] == want and [n for _p, n in want] == [2, 1]
    # both sides came back as driver tables: no exchange anywhere
    assert seen["measured"] == [(False, None), (False, None)]
    assert seen["co_group"] == []
    assert DataContext.get_current().op_resource_reservation_enabled


def test_refresh_partitioned_detect_keeps_the_reservation_for_its_exchanges(
    corpora, ray_session, monkeypatch
):
    """At ``BROADCAST_BYTES = 0`` the old side's hash pass still runs
    without the reservation, but what it returns for the exchange is
    reserved; the new side's pass, which now holds ``attach``'s
    exchange, and every ``co_group`` keep the session's setting."""
    from fetch_engines_ray.ops import exchange
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    prev, new, _c, _r = corpora
    prev_out = extract_corpus(prev).materialize()
    seen = _spy_detect(monkeypatch)
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    refreshed, stats = refresh_extract(prev, new, prev_out)
    assert stats["reextracted"] == 3
    assert [n for _p, n in seen["reads"]] == [2, 1]
    # old side: map-only, returned reserved; new side: reserved
    assert seen["measured"] == [(False, True), (True, True)]
    # attach, the settle step and the anti-filter
    assert seen["co_group"] == [True, True, True]
    assert refreshed.count() == 40 and _reserved(refreshed)
    assert not _reserved(prev_out)
