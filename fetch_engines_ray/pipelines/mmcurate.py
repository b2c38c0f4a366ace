"""Multimodal curation: extraction output → deduped media-text pairs.

The composed pipeline a multimodal-training-data user runs after
extraction (the image/audio/video sibling of ``pipelines/curate.py``):

    extraction output (ordered ``out_spans`` per doc)
      ├─ media spans exploded                (doc-local, no shuffle)
      ├─ DISTINCT media refs                  (one (ref, kind) groupby —
      │    hotlinked media decodes ONCE, not once per occurrence)
      ├─ decode + perceptual fingerprint      (actor pool; real PNG/WAV/
      │    GIF codecs; 8-byte hashes out, pixels never shuffled)
      ├─ exact collapse + near-dup resolver   (one pass over all kinds:
      │    ops/dedup.verified_pairs with kind in the band key, lossless
      │    hamming verify, cluster_verdicts)
      ├─ near-dup verdicts                    (a Dataset; the dropped
      │    refs leave through a keep_by_keys anti-filter)
      └─ caption pairs for SURVIVING media    (ops.captions, doc-local)

Keep rule: one representative per visual/audible duplicate cluster
(min media_ref), LAION-style — a kept ref retains ALL its caption
occurrences (the same image in two documents yields two training
pairs), a dropped ref loses all of them.

The reference engine stops at media_ref placeholders
(`src/MarkdownConverter.ts`); everything past the explode is
training-data-tier (SURVEY.md §2.8).
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray

MEDIA_SIG_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("kind", pa.string()),
        ("h64", pa.int64()),
        ("ok", pa.int64()),  # 1 = real decode+fingerprint, 0 = skip
        ("width", pa.int64()),  # image/video; 0 for audio
        ("height", pa.int64()),
        ("duration_ms", pa.int64()),  # audio/video; 0 for image
    ]
)


class MediaRefFingerprinter:
    """Actor-pool stage: ``(media_ref, kind[, payload])`` rows in,
    64-bit perceptual fingerprints out — image dHash / audio band-sign /
    video midframe dHash, dispatched per kind.  Payloads resolve via the
    deterministic planted-payload resolvers when no ``payload`` column
    is present (the corpus's stand-in for the reference's network
    fetch).  Undecodable or unknown-kind rows come back ``ok=0`` and are
    excluded from dedup rather than clustering together at h64=0."""

    def __init__(self) -> None:
        from fetch_engines_ray.ops.gif import (
            GifFormatError,
            decode_gif_frame,
            planted_gif_for_ref,
        )
        from fetch_engines_ray.ops.imagehash import dhash64
        from fetch_engines_ray.ops.mediahash import audio_fingerprint64
        from fetch_engines_ray.ops.png import PngFormatError, decode_png, planted_png_for_ref
        from fetch_engines_ray.ops.wav import WavFormatError, decode_wav, planted_wav_for_ref

        def fp_image(ref: str, payload: Optional[bytes]):
            try:
                dec = decode_png(payload if payload is not None else planted_png_for_ref(ref))
            except PngFormatError:
                return None
            return dhash64(dec["pixels"]), dec["width"], dec["height"], 0

        def fp_audio(ref: str, payload: Optional[bytes]):
            try:
                dec = decode_wav(payload if payload is not None else planted_wav_for_ref(ref))
            except WavFormatError:
                return None
            return (
                audio_fingerprint64(dec["samples"], dec["sample_rate"]),
                0,
                0,
                dec["duration_ms"],
            )

        def fp_video(ref: str, payload: Optional[bytes]):
            # selective decode: LZW-inflate ONLY the middle frame (the
            # fingerprint's input) — the dHash of the full decode's
            # middle frame, (n-1)/n of the LZW cost skipped
            try:
                dec = decode_gif_frame(
                    payload if payload is not None else planted_gif_for_ref(ref)
                )
            except GifFormatError:
                return None
            return dhash64(dec["frame"]), dec["width"], dec["height"], dec["duration_ms"]

        self.dispatch = {"image": fp_image, "audio": fp_audio, "video": fp_video}

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = (
            batch["payload"].to_pylist() if "payload" in batch.column_names else None
        )
        rows = []
        for i, (ref, kind) in enumerate(
            zip(batch["media_ref"].to_pylist(), batch["kind"].to_pylist())
        ):
            fn = self.dispatch.get(kind or "")
            r = fn(ref or "", payloads[i] if payloads is not None else None) if fn else None
            fp, w, h, dur = r if r is not None else (None, 0, 0, 0)
            rows.append(
                {
                    "media_ref": ref or "",
                    "kind": kind or "",
                    "h64": 0 if fp is None else np.uint64(fp).astype(np.int64).item(),
                    "ok": 0 if fp is None else 1,
                    "width": int(w),
                    "height": int(h),
                    "duration_ms": int(dur),
                }
            )
        return pa.Table.from_pylist(rows, schema=MEDIA_SIG_SCHEMA)


def media_signatures(
    media_ds: "ray.data.Dataset", concurrency=(1, 8), batch_size: int = 64
) -> "ray.data.Dataset":
    """One signature row per DISTINCT ``(media_ref, kind)``.

    Resolver path (no ``payload`` column): distinct FIRST via one
    (ref, kind) groupby, so hotlinked media decodes once — then the
    actor-pool fingerprint stage over the distinct rows.  Payload path:
    fingerprint per occurrence (the payload rides the row and cannot
    transit a groupby), then collapse by ``Min(h64)`` — same-ref rows
    carry identical payloads, so the min IS the fingerprint.  Small
    batches — payloads are the largest binaries (BASELINE.md memory
    posture)."""
    from ray.data.aggregate import Count, Max, Min

    def fingerprint(ds):
        return ds.map_batches(
            MediaRefFingerprinter,
            concurrency=concurrency,
            batch_format="pyarrow",
            batch_size=batch_size,
        )

    if "payload" in media_ds.schema().names:
        # collapse per-occurrence rows WITHOUT letting a failed
        # occurrence poison the group: a corrupt copy of one occurrence
        # (truncated re-crawl) emits (h64=0, ok=0), and a bare Min(h64)
        # would hand every such ref the same 0 sentinel — clustering
        # unrelated media as exact dups.  Mask failed rows to INT64_MIN
        # so Max() picks any successful row's values (same-ref valid
        # payloads are identical), then restore the 0 sentinel for
        # groups with no successful decode at all.
        lo = np.iinfo(np.int64).min

        def mask_failed(batch: pa.Table) -> pa.Table:
            okv = batch["ok"].to_numpy(zero_copy_only=False) == 1
            cols = {n: batch[n] for n in ("media_ref", "kind", "ok")}
            for c in ("h64", "width", "height", "duration_ms"):
                v = batch[c].to_numpy(zero_copy_only=False)
                cols[c] = pa.array(np.where(okv, v, lo), type=pa.int64())
            return pa.table(cols)

        rolled = (
            fingerprint(media_ds)
            .map_batches(mask_failed, batch_format="pyarrow", batch_size=8192)
            .groupby(["media_ref", "kind"])
            .aggregate(
                Max("h64", alias_name="h64"),
                Max("ok", alias_name="ok"),
                Max("width", alias_name="width"),
                Max("height", alias_name="height"),
                Max("duration_ms", alias_name="duration_ms"),
                Count(alias_name="n_occurrences"),
            )
        )

        def restore_sentinel(batch: pa.Table) -> pa.Table:
            okv = batch["ok"].to_numpy(zero_copy_only=False) == 1
            cols = {n: batch[n] for n in batch.column_names}
            for c in ("h64", "width", "height", "duration_ms"):
                v = batch[c].to_numpy(zero_copy_only=False)
                cols[c] = pa.array(np.where(okv, v, 0), type=pa.int64())
            return pa.table(cols)

        return rolled.map_batches(
            restore_sentinel, batch_format="pyarrow", batch_size=8192
        )
    distinct = media_ds.groupby(["media_ref", "kind"]).aggregate(
        Count(alias_name="n_occurrences")
    )
    return fingerprint(distinct)


def apply_media_quality_gates(
    sigs: "ray.data.Dataset",
    min_width: Optional[int] = None,
    min_height: Optional[int] = None,
    max_aspect: Optional[float] = None,
    min_duration_ms: Optional[int] = None,
) -> "ray.data.Dataset":
    """LAION-style media quality gates over the signature table: adds a
    ``gate_ok`` int64 column (1 = passes).  Dimension gates apply to
    image/video rows, the duration gate to audio/video; rows of other
    kinds (and ``ok=0`` rows) pass untouched so decode failures keep
    their own taxonomy.  Vectorized numpy over the narrow table."""

    def gate(batch: pa.Table) -> pa.Table:
        kind = np.asarray(batch["kind"].to_pylist(), dtype=object)
        w = batch["width"].to_numpy(zero_copy_only=False)
        h = batch["height"].to_numpy(zero_copy_only=False)
        dur = batch["duration_ms"].to_numpy(zero_copy_only=False)
        # decode failures (ok=0 rows, zeroed dims) pass the gate so they
        # keep their own taxonomy — they are already excluded from dedup
        decoded = batch["ok"].to_numpy(zero_copy_only=False) == 1
        visual = ((kind == "image") | (kind == "video")) & decoded
        timed = ((kind == "audio") | (kind == "video")) & decoded
        ok = np.ones(batch.num_rows, dtype=bool)
        if min_width is not None:
            ok &= ~visual | (w >= min_width)
        if min_height is not None:
            ok &= ~visual | (h >= min_height)
        if max_aspect is not None:
            long_side = np.maximum(w, h)
            short_side = np.maximum(np.minimum(w, h), 1)
            ok &= ~visual | (long_side <= max_aspect * short_side)
        if min_duration_ms is not None:
            ok &= ~timed | (dur >= min_duration_ms)
        return batch.append_column("gate_ok", pa.array(ok.astype(np.int64)))

    return sigs.map_batches(gate, batch_format="pyarrow", batch_size=8192)


_VERDICT_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("kind", pa.string()),
        ("cluster_rep", pa.string()),
        ("is_kept", pa.bool_()),
    ]
)

# the kinds the fingerprinter decodes; each is its own band family, so
# a pair never joins two kinds
_KINDS = ("image", "audio", "video")


def _exact_collapse(t: pa.Table) -> pa.Table:
    """The decoded signature rows of ``t`` with their exact-duplicate
    group: rows sharing ``(kind, h64)`` are one group, whose min
    ``media_ref`` is its rep.  ``doc_id`` = ``<kind>:<rep>`` names the
    group's node for the near-dup resolver (one ref string can occur
    under two kinds); its string order within a kind is the rep's.  (Not
    a NUL separator: pandas' string hashing, which routes exchange
    parts, stops at a NUL, so every node of a kind would share a part.)"""
    import pyarrow.compute as pc

    if not t.num_columns:  # no signature rows at all
        t = MEDIA_SIG_SCHEMA.empty_table()
    t = t.filter(pc.and_(pc.equal(t["ok"], 1), pc.is_in(t["kind"], pa.array(_KINDS))))
    t = t.select(["media_ref", "kind", "h64"])
    groups = t.group_by(["kind", "h64"], use_threads=False).aggregate(
        [("media_ref", "min"), ("media_ref", "count")]
    )
    m = t.join(groups, ["kind", "h64"])
    rep = m["media_ref_min"]
    return pa.table(
        {
            "media_ref": m["media_ref"],
            "kind": m["kind"],
            "h64": m["h64"],
            "n_refs": m["media_ref_count"],
            "is_rep": pc.equal(m["media_ref"], rep),
            "doc_id": pc.binary_join_element_wise(m["kind"], rep, ":"),
        }
    )


def _kind_bands(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    from fetch_engines_ray.ops.imagehash import hamming_bands

    return hamming_bands(batch, pc.index_in(batch["kind"], pa.array(_KINDS)).to_numpy())


def _member_verdicts(batch: pa.Table) -> pa.Table:
    """Verdict rows of the members of exact-duplicate or paired groups:
    each takes its group's cluster root (its own node when unpaired),
    whose rep is the kept ref."""
    import pyarrow.compute as pc

    b = batch.filter(pc.or_(pc.is_valid(batch["cluster_rep"]), pc.greater(batch["n_refs"], 1)))
    root = pc.coalesce(b["cluster_rep"], b["doc_id"])
    rep = pc.list_element(pc.split_pattern(root, ":", max_splits=1), 1)
    return pa.table(
        {
            "media_ref": b["media_ref"],
            "kind": b["kind"],
            "cluster_rep": rep,
            "is_kept": pc.equal(b["media_ref"], rep),
        }
    )


def media_near_dup_verdicts(
    sigs: "ray.data.Dataset", max_hamming: int = 3
) -> "ray.data.Dataset":
    """Near-dup resolution over the signature table of all kinds →
    ref-level keep/drop verdicts as a DATASET; dropped refs are the
    non-kept cluster members (min-ref representative).

    EXACT collapse before the LSH (the same exact-before-near
    composition ``curate_corpus`` uses for text): identical
    fingerprints ARE hamming-0 duplicates, so each (kind, h64) group
    collapses to its min-ref representative first and the hamming LSH
    runs over DISTINCT fingerprints only.  Because every group member
    shares the rep's exact hash, transitive closure over reps equals
    closure over refs — the ref-level verdicts are IDENTICAL to the
    naive all-refs form, but pair expansion is bounded by distinct
    hashes instead of refs (on the sf0.1 planted corpus the naive form
    expanded 1.61M ref-level pairs in 27 s).

    One pass over all kinds: the signature table executes once, and the
    collapse (one group-by on ``(kind, h64)`` that gives each decoded
    member its min-ref rep) runs on the driver or per ``h64`` part of an
    exchange, by the table's measured size.  The reps of all kinds then
    go through the near-dup resolver (``ops/dedup.verified_pairs`` with
    kind in the band key, so pairs never cross kinds, and the lossless
    hamming verify; ``cluster_verdicts``), and one left
    ``ops/dedup.attach`` hands each member its group's cluster root.
    Emits rows ONLY for refs in duplicate groups or LSH clusters: absent
    refs are implicitly kept.  Schema: ``(media_ref, kind, cluster_rep,
    is_kept)``."""
    import ray.data

    from fetch_engines_ray.ops.dedup import _per_key, attach, cluster_verdicts, verified_pairs
    from fetch_engines_ray.ops.imagehash import check_max_hamming, hamming_verify

    check_max_hamming(max_hamming)
    members = _per_key(sigs, "h64", _exact_collapse)
    if members.count() == 0:
        return ray.data.from_arrow(_VERDICT_SCHEMA.empty_table())
    reps = members.filter(expr="is_rep == True").materialize()
    clusters = cluster_verdicts(
        verified_pairs(
            reps, _kind_bands, reps.select_columns(["doc_id", "h64"]), hamming_verify(max_hamming)
        )
    )
    if clusters is None:
        clusters = pa.table(
            {"doc_id": pa.array([], pa.string()), "cluster_rep": pa.array([], pa.string())}
        )
    return attach(members, clusters, "doc_id", how="left").map_batches(
        _member_verdicts, batch_format="pyarrow", batch_size=8192
    )


def curate_media(
    extracted_ds: "ray.data.Dataset",
    max_hamming: int = 3,
    max_caption_chars: int = 400,
    require_caption: bool = False,
    concurrency=(1, 8),
    min_width: Optional[int] = None,
    min_height: Optional[int] = None,
    max_aspect: Optional[float] = None,
    min_duration_ms: Optional[int] = None,
) -> dict:
    """End-to-end multimodal curation over extraction output.

    Returns ``{"pairs": Dataset, "clusters": Dataset, "n_dropped": int,
    "n_gated": int}`` where ``pairs`` streams ``(doc_id, media_ref,
    kind, caption, ...)`` for every occurrence of every KEPT media item
    and ``clusters`` is the :func:`media_near_dup_verdicts` Dataset.

    Optional LAION-style quality gates (``min_width`` / ``min_height``
    / ``max_aspect`` for image+video, ``min_duration_ms`` for
    audio+video) run BEFORE dedup: gated media lose their caption
    pairs and never enter the LSH (no point electing a representative
    the gate would drop anyway).

    The near-dup verdicts stay a Dataset end to end, so nothing
    ref-sized rides the driver.  The dropped refs and the gated refs
    each execute once through ``ops/exchange.measured``, which also
    counts them, and each set leaves the captions through an
    ``ops/dedup.keep_by_keys`` anti-filter, which broadcasts a small
    drop set and partitions a large one.  ``max_hamming`` outside
    ``0..3`` raises before any Ray work."""
    from fetch_engines_ray.ops.captions import mine_caption_pairs
    from fetch_engines_ray.ops.dedup import keep_by_keys
    from fetch_engines_ray.ops.exchange import measured, n_rows
    from fetch_engines_ray.ops.imagehash import check_max_hamming
    from fetch_engines_ray.ops.multimodal import media_spans_dataset

    check_max_hamming(max_hamming)
    spans = media_spans_dataset(extracted_ds)
    sigs = media_signatures(spans, concurrency=concurrency)
    gates_on = any(
        g is not None for g in (min_width, min_height, max_aspect, min_duration_ms)
    )
    drop_sides = []
    if gates_on:
        sigs = apply_media_quality_gates(
            sigs,
            min_width=min_width,
            min_height=min_height,
            max_aspect=max_aspect,
            min_duration_ms=min_duration_ms,
        ).materialize()
        drop_sides.append(measured(sigs.filter(expr="gate_ok == 0").select_columns(["media_ref"])))
        sigs = sigs.filter(expr="gate_ok == 1")
    n_gated = n_rows(drop_sides[0]) if gates_on else 0
    captions = mine_caption_pairs(
        extracted_ds, max_chars=max_caption_chars, require_caption=require_caption
    )
    verdicts = media_near_dup_verdicts(sigs, max_hamming=max_hamming)
    drop_sides.append(
        measured(verdicts.filter(expr="is_kept == False").select_columns(["media_ref"]))
    )
    n_dropped = sum(n_rows(side) for side in drop_sides)
    # gated refs never reach the verdicts, so the two drop sets are
    # disjoint; each leaves through its own anti-filter (an empty one
    # hands the captions back as they are)
    for side in drop_sides:
        captions = keep_by_keys(captions, side, "media_ref", keep=False)
    return {
        "pairs": captions,
        "clusters": verdicts,
        "n_dropped": n_dropped,
        "n_gated": n_gated,
    }
