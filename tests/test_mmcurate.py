"""Multimodal curation pipeline (pipelines/mmcurate.py): distinct-ref
signature semantics, controlled-payload drop sets, and an end-to-end
self-consistency check against brute-force hamming over the planted
fingerprints."""

import numpy as np
import pandas as pd
import pytest

from fetch_engines_ray.ops.imagehash import dhash64
from fetch_engines_ray.ops.png import decode_png, encode_png, planted_png_for_ref
from fetch_engines_ray.pipelines.mmcurate import (
    curate_media,
    media_near_dup_drop_set,
    media_signatures,
)


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
    pairs, clusters = media_near_dup_drop_set(media_signatures(ds))
    assert set(zip(pairs["ref_a"], pairs["ref_b"])) == {("img/1", "img/2")}
    assert (pairs["hamming"] == 0).all()
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


def _expected_drop_set(docs, max_hamming=3):
    """Brute-force: fingerprint every distinct (ref, kind) exactly like
    the pipeline, all-pairs hamming per kind, min-ref union-find."""
    from fetch_engines_ray.ops.gif import decode_gif, planted_gif_for_ref
    from fetch_engines_ray.ops.mediahash import audio_fingerprint64, video_fingerprint64
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
                fps[(r, k)] = video_fingerprint64(decode_gif(planted_gif_for_ref(r))["frames"])
    dropped = set()
    by_kind: dict = {}
    for (r, k), f in fps.items():
        by_kind.setdefault(k, []).append((r, f))
    for k, items in by_kind.items():
        items.sort()
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                d = bin(int(np.uint64(items[i][1]) ^ np.uint64(items[j][1]))).count("1")
                if d <= max_hamming:
                    dropped.add(max(items[i][0], items[j][0]))
    return dropped


def test_curate_media_end_to_end_self_consistent(ray_session):
    import ray.data

    docs = _docs()
    out = curate_media(ray.data.from_items(docs))
    expected_dropped = _expected_drop_set(docs)
    got_dropped = set(out["clusters"].loc[~out["clusters"]["is_kept"], "media_ref"])
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
    assert out["dup_pairs"].empty and out["clusters"].empty


def test_curate_media_semi_join_matches_broadcast(ray_session, monkeypatch):
    """The Dataset-native semi-join path keeps exactly the same caption
    rows as the broadcast path and reports the same drop count — on a
    doc set with REAL near-dups: media://probe/{0,2} are planted refs
    whose dHashes land at hamming 1 of each other (probed offline and
    re-asserted here so a corpus-generation change fails loudly)."""
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
    b = curate_media(ray.data.from_items(docs))
    s = curate_media(ray.data.from_items(docs), drop_strategy="semi_join")
    assert b["n_dropped"] >= 3  # a probe near-dup must drop in EVERY kind
    assert set(b["clusters"].loc[~b["clusters"]["is_kept"], "kind"]) == {
        "image", "audio", "video",
    }
    assert s["n_dropped"] == b["n_dropped"]
    assert s["dup_pairs"] is None
    key = ["doc_id", "media_ref", "span_index"]
    pb = b["pairs"].to_pandas().sort_values(key).reset_index(drop=True)
    ps = s["pairs"].to_pandas().sort_values(key).reset_index(drop=True)
    assert list(pb.columns) == list(ps.columns)
    pd.testing.assert_frame_equal(pb, ps)
    assert "media://probe/2" not in set(ps["media_ref"])  # min-ref kept
    v = s["clusters"].to_pandas()
    c = b["clusters"]
    assert set(v.loc[~v["is_kept"], "media_ref"]) == set(
        c.loc[~c["is_kept"], "media_ref"]
    )
    # drop set over the broadcast limit: driver frames, but the
    # caption filter takes keep_by_keys' partitioned path — output must
    # stay byte-identical to both other paths
    from fetch_engines_ray.ops import dedup

    monkeypatch.setattr(dedup, "BROADCAST_KEY_LIMIT", 0)
    f = curate_media(ray.data.from_items(docs), drop_strategy="auto")
    assert f["n_dropped"] == b["n_dropped"]
    pf = f["pairs"].to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(pb, pf)


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


def test_curate_media_gates_end_to_end(ray_session):
    """Dimension gates over resolver-planted media: expected gated refs
    computed from the same decodes; both strategies agree."""
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
    b = curate_media(ray.data.from_items(docs), min_width=10)
    assert b["n_gated"] == len(expected_gated)
    pairs_b = b["pairs"].to_pandas()
    assert not set(pairs_b["media_ref"]) & expected_gated
    s = curate_media(ray.data.from_items(docs), min_width=10, drop_strategy="semi_join")
    assert s["n_gated"] == b["n_gated"]
    assert s["n_dropped"] == b["n_dropped"]
    pairs_s = s["pairs"].to_pandas()
    assert set(pairs_s["media_ref"]) == set(pairs_b["media_ref"])


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
    pairs, clusters = media_near_dup_drop_set(media_signatures(ds))
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
