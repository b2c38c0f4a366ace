"""The one hash-partitioned exchange (ops/exchange.py): routing by key
value, one ``fn`` call per part, and each side's own Arrow schema in
every call; the one join built on it (ops/dedup.attach), checked on its
broadcast and partitioned paths — plus static pins that no other module
hand-rolls the exchange or calls Ray's ``Dataset.join``."""

import ast
import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(t for t in ray.get(ds.to_arrow_refs()) if t.num_columns)


def _calls(fn):
    """Wrap ``fn`` so every output row carries an id of the call that
    produced it."""

    def tagged(*tables):
        out = fn(*tables)
        return out.append_column("call", pa.array([uuid.uuid4().hex] * out.num_rows))

    return tagged


def test_part_of_routes_by_value_not_width():
    from fetch_engines_ray.ops.exchange import part_of

    vals = [0, 1, -5, 2**31 - 1, 17, 123456]
    p64 = part_of(pa.array(vals, pa.int64()), 16)
    assert (part_of(pa.array(vals, pa.int32()), 16) == p64).all()
    assert (part_of(pa.chunked_array([vals[:2], vals[2:]], pa.int64()), 16) == p64).all()
    assert ((p64 >= 0) & (p64 < 16)).all()
    words = ["a", "bb", "ccc", "", "ünïcode"]
    ps = part_of(pa.array(words, pa.string()), 16)
    assert (part_of(pa.array(words, pa.large_string()), 16) == ps).all()
    assert part_of(pa.array([None, 3], pa.int64()), 16)[0] == 0
    assert part_of(pa.array([None, "x"], pa.string()), 16)[0] == 0
    # sequential ids spread over every part
    assert len(np.unique(part_of(pa.array(np.arange(1000)), 16))) == 16


def test_one_side_form_runs_fn_once_per_part(ray_session):
    import ray.data

    from fetch_engines_ray.ops.exchange import co_group

    t = pa.table({"k": pa.array(np.arange(200) % 37, pa.int64()), "v": np.arange(200)})
    ds = ray.data.from_arrow(t).repartition(3)
    out = _collect(co_group([(ds, "k")], 5, _calls(lambda part: part)))
    assert sorted(out["v"].to_pylist()) == list(range(200))
    assert out.schema.field("k").type == pa.int64()
    # every key in exactly one call
    by_key = out.group_by("k").aggregate([("call", "count_distinct")])
    assert set(by_key["call_count_distinct"].to_pylist()) == {1}
    sizes = _collect(co_group([(ds, "k")], 5, lambda part: pa.table({"n": [part.num_rows]})))
    assert sizes.num_rows == 5 and sum(sizes["n"].to_pylist()) == 200


def test_sides_keep_their_own_typed_schema_in_every_part(ray_session):
    """Parts holding rows of only one side still hand ``fn`` a typed
    empty table of the other side's schema."""
    import ray.data

    from fetch_engines_ray.ops.exchange import co_group

    a = pa.table({"k": pa.array([1, 2, 3, 4, 5], pa.int64()), "v": ["a", "b", "c", "d", "e"]})
    b = pa.table({"id": pa.array([3], pa.int64()), "w": pa.array([2.5], pa.float32())})

    def fn(left, right):
        return pa.table(
            {
                "n_left": [left.num_rows],
                "n_right": [right.num_rows],
                "left_schema": [str(left.schema)],
                "right_schema": [str(right.schema)],
            }
        )

    out = _collect(co_group(
        [(ray.data.from_arrow(a), "k"), (ray.data.from_arrow(b), "id")], 8, fn
    ))
    assert out.num_rows == 8  # one call per part
    assert sum(out["n_left"].to_pylist()) == 5 and sum(out["n_right"].to_pylist()) == 1
    assert 0 in out["n_right"].to_pylist()  # some parts hold no right rows
    assert set(out["left_schema"].to_pylist()) == {str(a.schema)}
    assert set(out["right_schema"].to_pylist()) == {str(b.schema)}


def test_schema_less_empty_side_arrives_as_empty_table(ray_session):
    import ray.data

    from fetch_engines_ray.ops.exchange import co_group

    a = pa.table({"k": pa.array([1, 2, 3], pa.int64())})

    def fn(left, right):
        assert right.num_rows == 0 and right.num_columns == 0
        return left

    out = _collect(co_group(
        [(ray.data.from_arrow(a), "k"), (ray.data.from_items([]), "k")], 4, fn
    ))
    assert sorted(out["k"].to_pylist()) == [1, 2, 3]


def test_list_struct_payload_rides_through_unchanged(ray_session):
    import ray.data

    from fetch_engines_ray.ops.exchange import co_group

    span = pa.struct([("kind", pa.string()), ("start", pa.int32()), ("attrs", pa.list_(pa.string()))])
    spans = [
        [{"kind": "p", "start": 0, "attrs": ["x"]}, {"kind": "h1", "start": 9, "attrs": []}],
        [],
        None,
        [{"kind": "li", "start": -1, "attrs": None}],
    ]
    t = pa.table({"doc_id": pa.array([10, 11, 12, 13], pa.int64()), "spans": pa.array(spans, pa.list_(span))})
    ds = ray.data.from_arrow(t).repartition(2)
    out = _collect(co_group([(ds, "doc_id")], 3, lambda part: part))
    assert out.schema == t.schema
    assert out.sort_by("doc_id").equals(t)


def test_part_of_hashes_strings_past_an_embedded_nul(ray_session, monkeypatch):
    """A string key hashes whole, embedded NULs included: each value
    takes the same part in whatever batch order it arrives, so the
    partitioned key filter matches values that differ only after a
    NUL."""
    import ray.data

    from fetch_engines_ray.ops import exchange
    from fetch_engines_ray.ops.dedup import keep_by_keys

    ids = ["image\x00a", "image\x00b", "audio\x00a"]
    forward = exchange.part_of(pa.array(ids), 64)
    assert (exchange.part_of(pa.array(ids[::-1]), 64)[::-1] == forward).all()
    assert [exchange.part_of(pa.array([v]), 64)[0] for v in ids] == forward.tolist()

    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    ds = ray.data.from_arrow(pa.table({"id": ids + ["other"], "n": [0, 1, 2, 3]}))
    keys = ray.data.from_arrow(pa.table({"id": ["image\x00b", "image\x00a"]}))
    kept = _collect(keep_by_keys(ds, keys, "id", keep=True))
    assert sorted(kept["id"].to_pylist()) == ["image\x00a", "image\x00b"]


def test_int32_int64_and_string_flavours_co_locate(ray_session):
    import ray.data

    from fetch_engines_ray.ops.exchange import co_group

    def fn(left, right):
        keys = pa.chunked_array([left["k"].cast(pa.string()), right["k"].cast(pa.string())])
        side = [0] * left.num_rows + [1] * right.num_rows
        return pa.table({"k": keys, "side": side})

    for ltype, rtype, vals in (
        (pa.int32(), pa.int64(), [1, 7, -3, 2**30, 99]),
        (pa.string(), pa.large_string(), ["a", "b", "zz", "", "ñ"]),
    ):
        left = ray.data.from_arrow(pa.table({"k": pa.array(vals, ltype)}))
        right = ray.data.from_arrow(pa.table({"k": pa.array(vals[::-1], rtype)}))
        out = _collect(co_group([(left, "k"), (right, "k")], 16, _calls(fn)))
        assert out.num_rows == 2 * len(vals)
        # each value's left and right rows met in one call
        by_key = out.group_by("k").aggregate([("call", "count_distinct"), ("side", "sum")])
        assert set(by_key["call_count_distinct"].to_pylist()) == {1}
        assert set(by_key["side_sum"].to_pylist()) == {1}


def test_null_keys_reach_fn(ray_session):
    import ray.data

    from fetch_engines_ray.ops.exchange import co_group

    t = pa.table({"k": pa.array([None, 1, None, 2, 3], pa.int64()), "v": [0, 1, 2, 3, 4]})
    ds = ray.data.from_arrow(t).repartition(2)
    out = _collect(co_group([(ds, "k")], 4, _calls(lambda part: part)))
    assert sorted(out["v"].to_pylist()) == [0, 1, 2, 3, 4]
    nulls = out.filter(pc.is_null(out["k"]))
    assert sorted(nulls["v"].to_pylist()) == [0, 2]
    assert len(set(nulls["call"].to_pylist())) == 1


def _hand_rolled_exchanges() -> list[str]:
    """``.groupby("part")`` / ``.groupby("__part")`` calls outside
    ops/exchange.py."""
    found = []
    for path in sorted((ROOT / "fetch_engines_ray").rglob("*.py")):
        if path == ROOT / "fetch_engines_ray" / "ops" / "exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby"
                and any(
                    isinstance(arg, ast.Constant) and arg.value in ("part", "__part")
                    for arg in node.args + [kw.value for kw in node.keywords]
                )
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_only_the_exchange_groups_by_part():
    """Every hash-partitioned exchange goes through ops/exchange.co_group."""
    assert _hand_rolled_exchanges() == []


SF = "/root/testdata/sf0.001"


def _rows(table: pa.Table, cols: list) -> list:
    return sorted(
        zip(*(table[c].to_pylist() for c in cols)),
        key=lambda r: tuple((v is None, v) for v in r),
    )


@pytest.mark.parametrize("how", ["inner", "left", "full"])
def test_attach_matches_duckdb_on_both_paths(ray_session, both_join_paths, how):
    """orders ⋈ customer at sf0.001, plus one order with no customer,
    equals DuckDB's join; the right key is dropped (inner, left) or
    coalesced (full) under the left name."""
    import duckdb

    import ray.data

    from fetch_engines_ray.arrowclean import read_parquet_clean
    from fetch_engines_ray.ops.dedup import attach

    sql_how = {"inner": "JOIN", "left": "LEFT JOIN", "full": "FULL JOIN"}[how]
    want = duckdb.connect().execute(
        "SELECT COALESCE(o_custkey, c_custkey) AS o_custkey, o_orderkey, c_mktsegment"
        f" FROM (SELECT o_custkey, o_orderkey FROM read_parquet('{SF}/orders.parquet')"
        f" UNION ALL SELECT 99999999, -1) o {sql_how}"
        f" read_parquet('{SF}/customer.parquet') c ON o_custkey = c_custkey"
    ).arrow()
    cols = ["o_custkey", "o_orderkey", "c_mktsegment"]
    for limit in both_join_paths():
        orders = read_parquet_clean(f"{SF}/orders.parquet", columns=["o_custkey", "o_orderkey"])
        orphan = ray.data.from_items([{"o_custkey": 99999999, "o_orderkey": -1}])
        cust = read_parquet_clean(f"{SF}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
        got = _collect(attach(orders.union(orphan), cust, "o_custkey", "c_custkey", how=how))
        assert sorted(got.column_names) == sorted(cols), limit
        assert got.num_rows == want.num_rows, limit
        assert _rows(got, cols) == _rows(want, cols), limit
        assert ((99999999, -1, None) in _rows(got, cols)) == (how != "inner"), limit


def test_attach_casts_the_right_key_to_the_left_key_type(ray_session, both_join_paths):
    import ray.data

    from fetch_engines_ray.ops.dedup import attach

    for limit in both_join_paths():
        for ltype, rtype in ((pa.int32(), pa.int64()), (pa.int64(), pa.int32())):
            left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3], ltype), "a": ["x", "y", "z"]}))
            right = ray.data.from_arrow(pa.table({"rk": pa.array([3, 1, 9], rtype), "b": ["R3", "R1", "R9"]}))
            got = _collect(attach(left, right, "k", "rk"))
            assert got.schema.field("k").type == ltype, limit
            assert _rows(got, ["k", "a", "b"]) == [(1, "x", "R1"), (3, "z", "R3")], limit


def test_attach_null_keys_match_nothing(ray_session, both_join_paths):
    import ray.data

    from fetch_engines_ray.ops.dedup import attach

    left = pa.table({"k": pa.array([1, None, 2], pa.int64()), "a": ["x", "n", "y"]})
    right = pa.table({"rk": pa.array([1, None], pa.int64()), "b": ["R1", "RN"]})
    want = {
        "inner": [(1, "x", "R1")],
        "left": [(1, "x", "R1"), (2, "y", None), (None, "n", None)],
        "full": [(1, "x", "R1"), (2, "y", None), (None, "n", None), (None, None, "RN")],
    }
    for limit in both_join_paths():
        for how, rows in want.items():
            got = _collect(
                attach(ray.data.from_arrow(left), ray.data.from_arrow(right), "k", "rk", how=how)
            )
            assert _rows(got, ["k", "a", "b"]) == rows, (how, limit)


def test_attach_empty_right_side(ray_session, both_join_paths):
    """An empty right side, typed or schema-less, keeps no rows (inner)
    or every left row (left), null-padded where its columns are known."""
    import ray.data

    from fetch_engines_ray.ops.dedup import attach

    left = pa.table({"k": pa.array([1, 2], pa.int64()), "a": ["x", "y"]})
    typed = pa.table({"k": pa.array([], pa.int64()), "b": pa.array([], pa.string())})
    for limit in both_join_paths():
        for right in (ray.data.from_arrow(typed), ray.data.from_items([])):
            inner = attach(ray.data.from_arrow(left), right, "k").to_pandas()
            assert len(inner) == 0, limit
            kept = _collect(attach(ray.data.from_arrow(left), right, "k", how="left"))
            assert _rows(kept, ["k", "a"]) == [(1, "x"), (2, "y")], limit
            if "b" in kept.column_names:
                assert kept["b"].null_count == 2, limit
        kept = _collect(attach(ray.data.from_arrow(left), ray.data.from_arrow(typed), "k", how="left"))
        assert kept.schema.field("b").type == pa.string(), limit


@pytest.mark.parametrize("how", ["inner", "left", "full"])
def test_attach_carries_nested_columns_on_both_sides(ray_session, both_join_paths, how):
    """``spans``-typed ``list<struct>`` columns on the left and on the
    right side ride through the join byte for byte (Arrow's hash join
    rejects them as non-key fields), unmatched rows null-padded."""
    import ray.data

    from fetch_engines_ray.ops.dedup import attach

    span = pa.struct([("kind", pa.string()), ("text", pa.string()), ("media_ref", pa.string())])
    spans = [
        [{"kind": "p", "text": "a\x00b", "media_ref": None}, {"kind": "h1", "text": "é", "media_ref": "m"}],
        [],
        None,
        [{"kind": None, "text": None, "media_ref": None}],
    ]
    left = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()), "spans": pa.array(spans, pa.list_(span))})
    right = pa.table(
        {"rk": pa.array([4, 2, 9, 1], pa.int64()), "rspans": pa.array(spans[::-1], pa.list_(span))}
    )
    lspans = dict(zip([1, 2, 3, 4], spans))
    rspans = dict(zip([4, 2, 9, 1], spans[::-1]))
    keys = {"inner": [1, 2, 4], "left": [1, 2, 3, 4], "full": [1, 2, 3, 4, 9]}[how]
    want = [{"k": k, "spans": lspans.get(k), "rspans": rspans.get(k)} for k in keys]
    for limit in both_join_paths():
        got = _collect(attach(ray.data.from_arrow(left), ray.data.from_arrow(right), "k", "rk", how=how))
        assert got.schema.field("spans").type == got.schema.field("rspans").type == pa.list_(span), limit
        assert got.sort_by("k").to_pylist() == want, limit


def test_attach_rejects_bad_input(ray_session, both_join_paths):
    import ray
    import ray.data

    from fetch_engines_ray.ops.dedup import attach

    left = ray.data.from_arrow(pa.table({"k": [1], "a": ["x"]}))
    with pytest.raises(ValueError, match="how must be one of"):
        attach(left, left, "k", how="right")
    clash = ray.data.from_arrow(pa.table({"k": [1], "a": ["dup"]}))
    for _ in both_join_paths():
        with pytest.raises(ray.exceptions.RayTaskError, match="both sides carry columns"):
            attach(left, clash, "k").materialize()


def _ray_joins() -> list[str]:
    """``Dataset.join`` calls (an ``on=`` / ``right_on=`` /
    ``num_partitions=`` keyword; ``pa.Table.join`` takes ``keys=``) and
    imports of the deleted join planner under fetch_engines_ray/."""
    found = []
    for path in sorted((ROOT / "fetch_engines_ray").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and {kw.arg for kw in node.keywords} & {"on", "right_on", "num_partitions"}
            ) or (
                isinstance(node, ast.ImportFrom)
                and "joinplan" in f"{node.module or ''}.{'.'.join(a.name for a in node.names)}"
            ) or (
                isinstance(node, ast.Import) and any("joinplan" in a.name for a in node.names)
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_no_ray_dataset_join_under_the_engine():
    """Every join goes through ops/dedup.attach, so no sparse side can
    reach Ray's hash-join aggregator."""
    assert _ray_joins() == []


def test_every_measured_site_takes_the_exchange_only_at_zero(
    ray_session, both_join_paths, monkeypatch, tmp_path
):
    """``keep_by_keys``, ``attach``, ``corpus_diff`` and
    ``refresh_extract`` all read the one ``exchange.BROADCAST_BYTES``:
    at 0 each of them calls ``co_group``, at the default none does.  A
    site holding its own copy of the threshold would otherwise leave one
    of its paths untested without any test failing."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from fetch_engines_ray.corpus.generate import INPUT_SCHEMA, make_doc
    from fetch_engines_ray.ops import dedup, diff
    from fetch_engines_ray.pipelines.extract import extract_corpus, refresh_extract

    calls = []

    def spying(real):
        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        return spy

    for module in (dedup, diff):
        monkeypatch.setattr(module, "co_group", spying(module.co_group))

    rows = [make_doc(i, 3) for i in range(8)]
    for name, version in (("v1", rows), ("v2", rows[1:])):
        os.makedirs(tmp_path / name)
        pq.write_table(pa.Table.from_pylist(version, schema=INPUT_SCHEMA), tmp_path / name / "part-0.parquet")
    prev, new = str(tmp_path / "v1"), str(tmp_path / "v2")
    prev_out = extract_corpus(prev).materialize()

    data = ray.data.from_arrow(pa.table({"doc_id": [1, 2, 3], "text": ["a", "b", "c"]}))
    edited = ray.data.from_arrow(pa.table({"doc_id": [2, 3], "text": ["b", "C"]}))
    right = ray.data.from_arrow(pa.table({"doc_id": [2], "b": ["B"]}))
    sites = {
        "keep_by_keys": lambda: dedup.keep_by_keys(data, edited, "doc_id", keep=True).materialize(),
        "attach": lambda: dedup.attach(data, right, "doc_id").materialize(),
        "corpus_diff": lambda: diff.corpus_diff(data, edited).to_pandas(),
        "refresh_extract": lambda: refresh_extract(prev, new, prev_out)[0].materialize(),
    }
    for limit in both_join_paths():
        took = {}
        for name, run in sites.items():
            calls.clear()
            run()
            took[name] = bool(calls)
        assert took == dict.fromkeys(sites, limit == 0), limit


def _outside_the_exchange():
    """``(path, ast node)`` of every node in the engine, ``__ray_entry__.py``,
    ``bench.py`` and ``scripts/``, except ``ops/exchange.py``."""
    sources = [
        *(ROOT / "fetch_engines_ray").rglob("*.py"),
        ROOT / "__ray_entry__.py",
        ROOT / "bench.py",
        *(ROOT / "scripts").glob("*.py"),
    ]
    for path in sorted(sources):
        if path == ROOT / "fetch_engines_ray" / "ops" / "exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def _stale_thresholds() -> list[str]:
    """Outside ops/exchange.py, in the engine, ``__ray_entry__.py``,
    ``bench.py`` and ``scripts/``: ``.size_bytes()`` calls and any
    ``BROADCAST_BYTES`` at all — a bare name is an imported or assigned
    copy that a change to the one threshold would not reach, and a read
    of ``exchange.BROADCAST_BYTES`` is a size decision of its own made
    next to ``exchange.measured`` instead of through it."""
    found = []
    for path, node in _outside_the_exchange():
        if (
            (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "size_bytes"
            )
            or (isinstance(node, ast.Name) and node.id == "BROADCAST_BYTES")
            or (isinstance(node, ast.Attribute) and node.attr == "BROADCAST_BYTES")
            or (
                isinstance(node, ast.ImportFrom)
                and any(a.name == "BROADCAST_BYTES" for a in node.names)
            )
        ):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_only_the_exchange_measures_sides():
    """The broadcast-or-partition decision has one home: no other
    source measures a Dataset or keeps its own copy of the threshold."""
    assert _stale_thresholds() == []


# Ray Data settings with one rule each in ops/exchange.py: the read-task
# count (``read_tasks``) and the per-operator reservation (``reservation``)
_EXCHANGE_SETTINGS = {"override_num_blocks", "op_resource_reservation_enabled"}


def _settings_outside_the_exchange() -> list[str]:
    """Outside ops/exchange.py: a keyword argument, an attribute or a
    string (a kwargs key, a ``setattr`` name) naming one of
    :data:`_EXCHANGE_SETTINGS`."""
    found = []
    for path, node in _outside_the_exchange():
        name = (
            node.arg if isinstance(node, ast.keyword)
            else node.attr if isinstance(node, ast.Attribute)
            else node.value if isinstance(node, ast.Constant)
            else None
        )
        if name in _EXCHANGE_SETTINGS:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_only_the_exchange_sizes_reads_and_sets_the_reservation():
    """One read-task rule and one reservation rule: no other source
    passes a read's task count or sets Ray Data's per-operator
    reservation itself."""
    assert _settings_outside_the_exchange() == []


def test_read_tasks_follow_cpus_and_bytes(ray_session, tmp_path, monkeypatch):
    """One read task per cluster CPU, one per ``target_max_block_size``
    of on-disk bytes when that is more, never more than one per file;
    a corpus read runs in that many tasks, and a caller's own read in
    Ray's default, 2 × CPUs here."""
    import os

    import ray
    from ray.data import DataContext

    from fetch_engines_ray.arrowclean import parquet_files, read_parquet_clean
    from fetch_engines_ray.corpus.generate import generate_corpus
    from fetch_engines_ray.ops.exchange import read_tasks
    from fetch_engines_ray.pipelines.extract import read_corpus

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=40, seed=3, include_fixtures=False, rows_per_file=4)
    files = parquet_files(corpus)
    assert len(files) == 10 and ray.cluster_resources()["CPU"] == 4
    assert read_tasks(files) == 4
    assert read_tasks(files[:3]) == 3
    assert read_corpus(corpus).materialize().num_blocks() == 4
    assert read_parquet_clean(corpus).materialize().num_blocks() == 8

    n_bytes = sum(os.path.getsize(f) for f in files)
    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", n_bytes // 6 + 1)
    assert read_tasks(files) == 6
    monkeypatch.setattr(ctx, "target_max_block_size", 1)
    assert read_tasks(files) == 10


def test_a_corpus_uri_keeps_its_schema(ray_session, tmp_path):
    """A corpus path off the local file system (here a ``file://`` URI)
    has no listing, so its read keeps Ray's default task count, but its
    schema still comes from the file's footer: the per-row
    ``force_route`` column is read, not dropped."""
    import pyarrow.parquet as pq

    from fetch_engines_ray.arrowclean import file_schema, parquet_files
    from fetch_engines_ray.pipelines.extract import read_corpus

    path = tmp_path / "corpus.parquet"
    pq.write_table(
        pa.table({
            "doc_id": [1, 2], "spans": [["a"], ["b"]], "archetype": ["x", "y"],
            "base_url": ["u", "v"], "force_route": ["warm", None],
        }),
        path,
    )
    uri = path.as_uri()
    assert parquet_files(uri) is None and parquet_files(str(path)) == [str(path)]
    assert file_schema(uri, None) == file_schema(str(path), [str(path)])
    assert file_schema(str(tmp_path), []) is None
    assert file_schema(str(tmp_path / "missing.parquet"), None) is None
    ds = read_corpus(uri)
    assert "force_route" in ds.schema().names
    assert sorted(ds.to_pandas()["force_route"].fillna("")) == ["", "warm"]


def test_measured_and_co_group_give_an_exchange_the_reservation(ray_session, monkeypatch):
    """A side that ``measured`` materializes and returns as a Dataset,
    and a two-side ``co_group``, run at the session's reservation
    setting, even over a map-only chain that runs without it; that
    chain, and a Dataset the caller materialized, keep their own."""
    import ray.data
    from ray.data import DataContext

    from fetch_engines_ray.ops import exchange

    def unreserved(table):
        # a lazy map over a Dataset the test owns
        ds = exchange.reservation(ray.data.from_arrow(table), map_only=True)
        return ds.map_batches(lambda b: b, batch_format="pyarrow")

    assert DataContext.get_current().op_resource_reservation_enabled
    left = unreserved(pa.table({"k": [1, 2, 3]}))
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    side = exchange.measured(left)
    assert side.context.op_resource_reservation_enabled
    assert not left.context.op_resource_reservation_enabled

    # a Dataset the caller materialized comes back as it is, setting too
    mine = left.materialize()
    assert not mine.context.op_resource_reservation_enabled
    assert exchange.measured(mine) is mine
    assert not mine.context.op_resource_reservation_enabled

    right = unreserved(pa.table({"k": [2, 3, 4]}))
    both = exchange.co_group(
        [(left, "k"), (right, "k")], 4, lambda a, b: pa.table({"n": [a.num_rows + b.num_rows]})
    )
    assert both.context.op_resource_reservation_enabled
    assert not left.context.op_resource_reservation_enabled
    assert sum(both.to_pandas()["n"]) == 6


# the resolver steps of ops/dedup.py and the one function allowed to
# call each of them
_RESOLVER_ONLY = {
    "_lsh_candidate_pairs": "verified_pairs",
    "dedup_clusters": "cluster_verdicts",
    "dedup_clusters_distributed": "cluster_verdicts",
}


def _resolver_bypasses() -> list[str]:
    """Calls under fetch_engines_ray/ of the near-dup resolver's
    candidate and cluster steps from anywhere but their one caller in
    ops/dedup.py (the innermost enclosing function counts)."""
    found = []
    for path in sorted((ROOT / "fetch_engines_ray").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()

        def visit(node, fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in _RESOLVER_ONLY and (rel, fn) != (
                    "fetch_engines_ray/ops/dedup.py",
                    _RESOLVER_ONLY[name],
                ):
                    found.append(f"{rel}:{node.lineno} {name}")
            for child in ast.iter_child_nodes(node):
                visit(child, fn)

        visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_only_the_resolver_builds_and_clusters_pairs():
    """Every near-dup caller goes through ops/dedup.verified_pairs and
    cluster_verdicts: no other function under the engine calls the LSH
    candidate exchange or a cluster resolution, so a second resolver
    cannot grow back."""
    assert _resolver_bypasses() == []
