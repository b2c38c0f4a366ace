"""Multimodal curation pipeline (pipelines/mmcurate.py): distinct-ref
signature semantics, controlled-payload drop sets, and an end-to-end
self-consistency check against brute-force hamming over the planted
fingerprints."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from fetch_engines_ray.ops.imagehash import dhash64
from fetch_engines_ray.ops.png import decode_png, encode_png, planted_png_for_ref
from fetch_engines_ray.pipelines.mmcurate import (
    curate_media,
    media_near_dup_verdicts,
    media_signatures,
)


def _dropped_refs(verdicts) -> set:
    """Non-kept refs of a verdict Dataset (an empty Dataset converts to
    a frame with no columns)."""
    v = verdicts.to_pandas()
    return set(v.loc[~v["is_kept"], "media_ref"]) if len(v) else set()


def _png(seed: int) -> bytes:
    rng = np.random.RandomState(seed)
    return encode_png(rng.randint(0, 256, size=(24, 24), dtype=np.uint8))


def test_media_signatures_payload_path_collapses_refs(ray_session):
    import ray.data

    p = _png(1)
    ds = ray.data.from_items(
        [
            {"media_ref": "m/a", "kind": "image", "payload": p},
            {"media_ref": "m/a", "kind": "image", "payload": p},  # hotlink
            {"media_ref": "m/b", "kind": "image", "payload": _png(2)},
            {"media_ref": "m/c", "kind": "widget", "payload": b"??"},  # unknown kind
        ]
    )
    sigs = media_signatures(ds).to_pandas().set_index("media_ref")
    assert len(sigs) == 3
    assert sigs.loc["m/a", "n_occurrences"] == 2
    assert sigs.loc["m/a", "ok"] == 1
    assert sigs.loc["m/c", "ok"] == 0  # unknown kind -> skip, not h64=0 cluster
    expected = np.uint64(dhash64(decode_png(p)["pixels"])).astype(np.int64).item()
    assert sigs.loc["m/a", "h64"] == expected


def test_media_drop_set_controlled_payloads(ray_session):
    import ray.data

    base = np.random.RandomState(5).randint(40, 200, size=(24, 24), dtype=np.uint8)
    clone = encode_png(base, row_filters=[4, 3, 2, 1, 0])  # re-encoded duplicate
    ds = ray.data.from_items(
        [
            {"media_ref": "img/1", "kind": "image", "payload": encode_png(base)},
            {"media_ref": "img/2", "kind": "image", "payload": clone},
            {"media_ref": "img/3", "kind": "image", "payload": _png(99)},
        ]
    )
    clusters = media_near_dup_verdicts(media_signatures(ds)).to_pandas()
    # the re-encoded clone is an exact-hash twin; img/3 is in no cluster
    assert set(clusters["media_ref"]) == {"img/1", "img/2"}
    assert (clusters["cluster_rep"] == "img/1").all()
    dropped = set(clusters.loc[~clusters["is_kept"], "media_ref"])
    assert dropped == {"img/2"}  # min-ref representative kept


def _docs():
    """Synthetic extracted docs over resolver-planted media; includes a
    hotlinked ref shared by two docs."""

    def span(kind, text="", ref=""):
        return {"kind": kind, "text": text, "media_ref": ref}

    return [
        {
            "doc_id": "d1",
            "out_spans": [
                span("text", "Shared logo appears here first."),
                span("image", ref="media://shared/logo"),
                span("text", "Caption after the first logo."),
                span("audio", ref="media://d1/clip"),
            ],
        },
        {
            "doc_id": "d2",
            "out_spans": [
                span("image", ref="media://shared/logo"),  # hotlink
                span("text", "Second document reuses the logo."),
                span("video", ref="media://d2/anim"),
            ],
        },
        {
            "doc_id": "d3",
            "out_spans": [
                span("text", "Unrelated figure below."),
                span("image", ref="media://d3/fig"),
                span("audio", ref="media://d3/clip"),
            ],
        },
    ]


def _union_find_verdicts(fps: dict, max_hamming: int = 3) -> set:
    """Brute-force verdicts over ``{(ref, kind): h64}``: all-pairs
    hamming within each kind, min-ref union-find over ``(ref, kind)``
    nodes.  Returns ``{(ref, kind, rep, ref == rep)}`` for every node in
    a cluster of two or more."""
    parent = {n: n for n in fps}

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    nodes = sorted(fps)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            d = bin(int(np.uint64(fps[a]) ^ np.uint64(fps[b]))).count("1")
            if a[1] == b[1] and d <= max_hamming:
                ra, rb = sorted((find(a), find(b)))
                parent[rb] = ra
    size: dict = {}
    for n in nodes:
        size[find(n)] = size.get(find(n), 0) + 1
    return {
        (r, k, find((r, k))[0], find((r, k))[0] == r)
        for r, k in nodes
        if size[find((r, k))] > 1
    }


def _expected_drop_set(docs, max_hamming=3):
    """Brute-force: fingerprint every distinct (ref, kind) exactly like
    the pipeline, all-pairs hamming per kind, min-ref union-find."""
    from fetch_engines_ray.ops.gif import decode_gif, planted_gif_for_ref
    from fetch_engines_ray.ops.mediahash import audio_fingerprint64
    from fetch_engines_ray.ops.wav import decode_wav, planted_wav_for_ref

    fps = {}
    for d in docs:
        for s in d["out_spans"]:
            r, k = s["media_ref"], s["kind"]
            if not r or (r, k) in fps:
                continue
            if k == "image":
                fps[(r, k)] = dhash64(decode_png(planted_png_for_ref(r))["pixels"])
            elif k == "audio":
                dec = decode_wav(planted_wav_for_ref(r))
                fps[(r, k)] = audio_fingerprint64(dec["samples"], dec["sample_rate"])
            elif k == "video":
                frames = decode_gif(planted_gif_for_ref(r))["frames"]
                fps[(r, k)] = dhash64(frames[len(frames) // 2])
    return {r for r, _, _, kept in _union_find_verdicts(fps, max_hamming) if not kept}


def test_union_find_oracle_drops_every_star_leaf():
    """The brute-force oracle is a real union-find: on a star a-c, b-c
    with a and b farther apart than max_hamming, both b and c drop (a
    pairwise max() rule would drop only c)."""
    fps = {("a", "image"): 0b0, ("b", "image"): 0b111111, ("c", "image"): 0b111}
    got = _union_find_verdicts(fps)
    assert {r for r, _, _, kept in got if not kept} == {"b", "c"}
    assert {rep for _, _, rep, _ in got} == {"a"}


def _sig_row(ref, kind, h, ok=1):
    return {
        "media_ref": ref,
        "kind": kind,
        "h64": int(np.uint64(h).astype(np.int64)),
        "ok": ok,
        "width": 0,
        "height": 0,
        "duration_ms": 0,
    }


def test_media_near_dup_verdicts_match_bruteforce(ray_session, both_join_paths):
    """media_near_dup_verdicts over synthetic signature rows (no
    decoding) equals a brute-force union-find on the driver and the
    distributed path: a star, a chain, equal hashes under two kinds, one
    ref under two kinds, ok=0 rows, an undecoded kind, and no rows."""
    import ray.data

    from fetch_engines_ray.pipelines.mmcurate import MEDIA_SIG_SCHEMA

    base = [int(x) for x in np.random.RandomState(17).randint(0, 2**63, size=6, dtype=np.int64)]
    rows = [
        # star: s/a-s/c and s/b-s/c close, s/a-s/b at hamming 6
        _sig_row("s/a", "image", base[0]),
        _sig_row("s/b", "image", base[0] ^ 0b111111),
        _sig_row("s/c", "image", base[0] ^ 0b111),
        # chain: each step 2 bits, the ends 6 bits apart
        *(_sig_row(f"c/{i}", "audio", base[1] ^ ((1 << (2 * i)) - 1)) for i in range(4)),
        # equal h64 under two kinds: only the audio twin is a duplicate
        _sig_row("e/img", "image", base[2]),
        _sig_row("e/aud", "audio", base[2]),
        _sig_row("e/aud2", "audio", base[2]),
        # one ref under two kinds, clustered differently in each
        _sig_row("m/x", "image", base[3]),
        _sig_row("m/w", "image", base[3] ^ 1),
        _sig_row("m/x", "video", base[4]),
        _sig_row("m/y", "video", base[4]),
        # failed decodes share the star's hash and the 0 sentinel; an
        # undecoded kind shares the chain's: none of them may cluster
        _sig_row("z/bad1", "image", base[0], ok=0),
        _sig_row("z/bad2", "image", 0, ok=0),
        _sig_row("z/bad3", "image", 0, ok=0),
        _sig_row("w/x", "widget", base[1]),
        _sig_row("w/y", "widget", base[1]),
        # far from everything
        _sig_row("u/1", "image", base[5]),
    ]
    fps = {
        (r["media_ref"], r["kind"]): int(np.int64(r["h64"]).astype(np.uint64))
        for r in rows
        if r["ok"] == 1 and r["kind"] in ("image", "audio", "video")
    }
    expected = _union_find_verdicts(fps)
    assert {r for r, _, _, kept in expected if not kept} == {
        "s/b", "s/c", "c/1", "c/2", "c/3", "e/aud2", "m/x", "m/y"
    }
    sigs = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=MEDIA_SIG_SCHEMA)).repartition(3)
    empty = ray.data.from_arrow(MEDIA_SIG_SCHEMA.empty_table())
    names = ["media_ref", "kind", "cluster_rep", "is_kept"]
    for limit in both_join_paths():
        got = media_near_dup_verdicts(sigs).to_pandas()
        assert list(got.columns) == names, limit
        assert set(map(tuple, got[names].itertuples(index=False))) == expected, limit
        assert len(got) == len(expected), limit
        none = media_near_dup_verdicts(empty)
        assert none.count() == 0 and none.schema().names == names, limit


def test_curate_media_rejects_bad_max_hamming(ray_session):
    """max_hamming outside 0..3 raises, also on a corpus with no media
    (where no kind has a signature to pair)."""
    import ray.data

    ds = ray.data.from_items([{"doc_id": "d", "out_spans": [
        {"kind": "text", "text": "no media at all", "media_ref": ""}]}])
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="max_hamming"):
            curate_media(ds, max_hamming=bad)


def test_curate_media_end_to_end_self_consistent(ray_session):
    import ray.data

    docs = _docs()
    out = curate_media(ray.data.from_items(docs))
    expected_dropped = _expected_drop_set(docs)
    got_dropped = _dropped_refs(out["clusters"])
    assert got_dropped == expected_dropped
    assert out["n_dropped"] == len(expected_dropped)
    pairs = out["pairs"].to_pandas()
    # every surviving occurrence keeps its caption row; dropped refs lose all
    assert not set(pairs["media_ref"]) & expected_dropped
    kept_logo = pairs[pairs["media_ref"] == "media://shared/logo"]
    if "media://shared/logo" not in expected_dropped:
        assert set(kept_logo["doc_id"]) == {"d1", "d2"}  # hotlink keeps BOTH pairs
        d1row = kept_logo[kept_logo["doc_id"] == "d1"].iloc[0]
        assert d1row["caption"] == "Caption after the first logo."
        assert d1row["caption_source"] == "after"


def test_curate_media_empty_corpus(ray_session):
    import ray.data

    ds = ray.data.from_items([{"doc_id": "d", "out_spans": [
        {"kind": "text", "text": "no media at all", "media_ref": ""}]}])
    out = curate_media(ds)
    assert out["n_dropped"] == 0
    assert out["pairs"].count() == 0
    assert out["clusters"].count() == 0
    from fetch_engines_ray.ops.multimodal import media_spans_dataset

    verdicts = media_near_dup_verdicts(media_signatures(media_spans_dataset(ds)))
    assert verdicts.count() == 0
    assert verdicts.schema().names == ["media_ref", "kind", "cluster_rep", "is_kept"]


def test_curate_media_semi_join_matches_broadcast(ray_session, both_join_paths):
    """curate_media keeps exactly the caption rows the brute-force
    drop set allows, at both BROADCAST_BYTES values (the caption
    anti-filter broadcast, then partitioned) — on a doc set with REAL
    near-dups: media://probe/{0,2} are planted refs whose dHashes land
    at hamming 1 of each other (probed offline and re-asserted here so
    a corpus-generation change fails loudly)."""
    import ray.data

    a = dhash64(decode_png(planted_png_for_ref("media://probe/0"))["pixels"])
    b64 = dhash64(decode_png(planted_png_for_ref("media://probe/2"))["pixels"])
    assert bin(int(np.uint64(a) ^ np.uint64(b64))).count("1") <= 3

    def span(kind, text="", ref=""):
        return {"kind": kind, "text": text, "media_ref": ref}

    docs = _docs() + [
        {
            "doc_id": "d4",
            "out_spans": [
                span("text", "First probe image."),
                span("image", ref="media://probe/0"),
                span("video", ref="media://probe-video/5"),
            ],
        },
        {
            "doc_id": "d5",
            "out_spans": [
                span("text", "Near-dup probe image."),
                span("image", ref="media://probe/2"),
                # pre-probed near-dup refs in EVERY kind: a per-kind
                # closure bug (one kind's maps leaking into another —
                # the late-binding regression caught at sf0.1) now
                # shows up as a drop-count mismatch here too
                span("video", ref="media://probe-video/64"),
                span("audio", ref="media://probe-audio/1"),
            ],
        },
        {
            "doc_id": "d6",
            "out_spans": [span("audio", ref="media://probe-audio/30")],
        },
    ]
    expected_dropped = _expected_drop_set(docs)
    key = ["doc_id", "media_ref", "span_index"]
    runs = []
    for limit in both_join_paths():
        out = curate_media(ray.data.from_items(docs))
        v = out["clusters"].to_pandas()
        assert set(v.loc[~v["is_kept"], "media_ref"]) == expected_dropped, limit
        # a probe near-dup must drop in EVERY kind
        assert set(v.loc[~v["is_kept"], "kind"]) == {"image", "audio", "video"}, limit
        assert out["n_dropped"] == len(expected_dropped) >= 3, limit
        pairs = out["pairs"].to_pandas().sort_values(key).reset_index(drop=True)
        assert not set(pairs["media_ref"]) & expected_dropped, limit
        assert "media://probe/2" in expected_dropped
        assert "media://probe/0" in set(pairs["media_ref"])  # min-ref kept
        runs.append(pairs)
    assert list(runs[0].columns) == list(runs[1].columns)
    pd.testing.assert_frame_equal(runs[0], runs[1])


def test_media_quality_gates_unit(ray_session):
    import ray.data

    from fetch_engines_ray.pipelines.mmcurate import apply_media_quality_gates

    rows = [
        {"media_ref": "a", "kind": "image", "h64": 1, "ok": 1,
         "width": 300, "height": 250, "duration_ms": 0},
        {"media_ref": "b", "kind": "image", "h64": 2, "ok": 1,
         "width": 50, "height": 250, "duration_ms": 0},   # too narrow
        {"media_ref": "c", "kind": "image", "h64": 3, "ok": 1,
         "width": 900, "height": 250, "duration_ms": 0},  # aspect 3.6
        {"media_ref": "d", "kind": "audio", "h64": 4, "ok": 1,
         "width": 0, "height": 0, "duration_ms": 40},     # too short
        {"media_ref": "e", "kind": "audio", "h64": 5, "ok": 1,
         "width": 0, "height": 0, "duration_ms": 5000},
        {"media_ref": "f", "kind": "video", "h64": 6, "ok": 1,
         "width": 300, "height": 250, "duration_ms": 5000},
    ]
    out = apply_media_quality_gates(
        ray.data.from_items(rows),
        min_width=200, min_height=200, max_aspect=3.0, min_duration_ms=1000,
    ).to_pandas().set_index("media_ref")
    assert out.loc["a", "gate_ok"] == 1
    assert out.loc["b", "gate_ok"] == 0
    assert out.loc["c", "gate_ok"] == 0
    assert out.loc["d", "gate_ok"] == 0
    assert out.loc["e", "gate_ok"] == 1
    assert out.loc["f", "gate_ok"] == 1


def test_curate_media_gates_end_to_end(ray_session, both_join_paths):
    """Dimension gates over resolver-planted media: expected gated refs
    computed from the same decodes; the broadcast and the partitioned
    caption filter agree."""
    import ray.data

    from fetch_engines_ray.ops.png import decode_png, planted_png_for_ref

    docs = _docs()
    # planted images are tiny (4-16 px wide): min_width=10 splits them
    expected_gated = set()
    for d in docs:
        for s in d["out_spans"]:
            if s["kind"] == "image" and s["media_ref"]:
                dec = decode_png(planted_png_for_ref(s["media_ref"]))
                if dec["width"] < 10:
                    expected_gated.add(s["media_ref"])
    runs = []
    for limit in both_join_paths():
        out = curate_media(ray.data.from_items(docs), min_width=10)
        assert out["n_gated"] == len(expected_gated), limit
        refs = set(out["pairs"].to_pandas()["media_ref"])
        assert not refs & expected_gated, limit
        runs.append((out["n_dropped"], refs))
    assert runs[0] == runs[1]


def test_media_signatures_corrupt_occurrence_does_not_poison_group(ray_session):
    """One corrupt copy of a hotlinked payload must not zero the ref's
    fingerprint — and two refs with corrupt occurrences must NOT end up
    sharing a sentinel hash (the Min(h64) poisoning regression)."""
    import ray.data

    p1, p2 = _png(31), _png(77)
    ds = ray.data.from_items(
        [
            {"media_ref": "m/x", "kind": "image", "payload": p1},
            {"media_ref": "m/x", "kind": "image", "payload": b"truncated"},
            {"media_ref": "m/y", "kind": "image", "payload": p2},
            {"media_ref": "m/y", "kind": "image", "payload": b"also bad"},
            {"media_ref": "m/z", "kind": "image", "payload": b"all bad"},
        ]
    )
    sigs = media_signatures(ds).to_pandas().set_index("media_ref")
    assert sigs.loc["m/x", "ok"] == 1
    assert sigs.loc["m/y", "ok"] == 1
    x_expected = np.uint64(dhash64(decode_png(p1)["pixels"])).astype(np.int64).item()
    assert sigs.loc["m/x", "h64"] == x_expected
    assert sigs.loc["m/x", "h64"] != sigs.loc["m/y", "h64"]
    assert sigs.loc["m/z", "ok"] == 0 and sigs.loc["m/z", "h64"] == 0
    # and no spurious exact-dup cluster between x and y
    clusters = media_near_dup_verdicts(media_signatures(ds)).to_pandas()
    refs = set(clusters["media_ref"]) if len(clusters) else set()
    assert not ({"m/x", "m/y"} <= refs)


def test_quality_gates_pass_decode_failures(ray_session):
    """ok=0 rows (zeroed dims) pass every gate: decode failures keep
    their own taxonomy instead of masquerading as gated media."""
    import ray.data

    from fetch_engines_ray.pipelines.mmcurate import apply_media_quality_gates

    rows = [
        {"media_ref": "bad", "kind": "image", "h64": 0, "ok": 0,
         "width": 0, "height": 0, "duration_ms": 0},
        {"media_ref": "small", "kind": "image", "h64": 1, "ok": 1,
         "width": 5, "height": 5, "duration_ms": 0},
    ]
    out = apply_media_quality_gates(
        ray.data.from_items(rows), min_width=200, min_height=200, min_duration_ms=100
    ).to_pandas().set_index("media_ref")
    assert out.loc["bad", "gate_ok"] == 1
    assert out.loc["small", "gate_ok"] == 0
