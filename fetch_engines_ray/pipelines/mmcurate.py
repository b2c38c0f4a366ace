"""Multimodal curation: extraction output → deduped media-text pairs.

The composed pipeline a multimodal-training-data user runs after
extraction (the image/audio/video sibling of ``pipelines/curate.py``):

    extraction output (ordered ``out_spans`` per doc)
      ├─ media spans exploded                (doc-local, no shuffle)
      ├─ DISTINCT media refs                  (one (ref, kind) groupby —
      │    hotlinked media decodes ONCE, not once per occurrence)
      ├─ decode + perceptual fingerprint      (actor pool; real PNG/WAV/
      │    GIF codecs; 8-byte hashes out, pixels never shuffled)
      ├─ per-kind lossless hamming LSH        (ops.imagehash.hamming64_pairs)
      ├─ near-dup drop set                    (pair-bounded, tiny →
      │    broadcast, never a shuffle join)
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
import pandas as pd
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
    is present (the corpus's stand-in for the reference's network fetch,
    same contract as ``ops.multimodal.MediaDecoder``).  Undecodable or
    unknown-kind rows come back ``ok=0`` and are excluded from dedup
    rather than clustering together at h64=0."""

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
            # fingerprint's input) — same hash as video_fingerprint64
            # over the full decode, (n-1)/n of the LZW cost skipped
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


def _kind_rep_level(k_sigs: "ray.data.Dataset", max_hamming: int):
    """Shared per-kind exact-collapse + rep-level LSH (the single
    implementation behind BOTH drop strategies, so they cannot
    diverge): collapse each h64 group to its min-ref representative,
    pair the DISTINCT fingerprints with the lossless hamming LSH, and
    resolve rep-level clusters.

    Returns ``(rep_pairs, affected, rep_root, group_rep)`` — or None
    when the kind has no duplicate structure at all.  ``affected``
    holds only groups needing ref-level expansion (exact-dup groups and
    LSH-paired ones); unique-fingerprint groups are filtered
    DISTRIBUTED before any ``to_pandas``, so driver pull is bounded by
    the duplicate mass."""
    import ray.data
    from ray.data.aggregate import Count, Min

    from fetch_engines_ray.ops.dedup import dedup_clusters, keep_by_keys
    from fetch_engines_ray.ops.imagehash import hamming64_pairs

    if k_sigs.count() == 0:
        return None
    groups = k_sigs.groupby("h64").aggregate(
        Min("media_ref", alias_name="rep"), Count(alias_name="n_refs")
    ).materialize()
    rep_pairs = hamming64_pairs(
        groups, hash_col="h64", id_col="rep", max_hamming=max_hamming
    ).rename(columns={"doc_a": "ref_a", "doc_b": "ref_b"})
    rep_pairs = rep_pairs[rep_pairs["ref_a"] != rep_pairs["ref_b"]]
    paired_reps = frozenset(rep_pairs["ref_a"]) | frozenset(rep_pairs["ref_b"])
    affected = groups.filter(expr="n_refs > 1").to_pandas()
    if paired_reps:
        # distributed filter against the pair-bounded rep set (a bare
        # to_pandas would pull every unique fingerprint)
        in_pairs = keep_by_keys(
            groups,
            ray.data.from_arrow(
                pa.table({"rep": pa.array(sorted(paired_reps), type=pa.string())})
            ),
            "rep",
            keep=True,
        ).to_pandas()  # bounded: one row per paired rep
        affected = pd.concat([affected, in_pairs]).drop_duplicates("h64")
    if rep_pairs.empty and affected.empty:
        return None
    # rep-level clusters; singletons (exact-dup-only groups) join with
    # their own rep as cluster root
    cl = dedup_clusters(
        rep_pairs.rename(columns={"ref_a": "doc_a", "ref_b": "doc_b"})
    ).rename(columns={"doc_id": "rep"})
    rep_root = dict(zip(cl["rep"], cl["cluster_rep"]))
    group_rep = dict(zip(affected["h64"].astype("int64"), affected["rep"]))
    return rep_pairs, affected, rep_root, group_rep


def media_near_dup_drop_set(
    sigs: "ray.data.Dataset", max_hamming: int = 3
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Per-kind near-dup resolution over the signature table →
    ``(pairs, clusters)`` frames; dropped refs are the non-kept cluster
    members (min-ref representative).

    EXACT collapse before the LSH (the same exact-before-near
    composition ``curate_corpus`` uses for text): identical
    fingerprints ARE hamming-0 duplicates, so each (kind, h64) group
    collapses to its min-ref representative first and the hamming LSH
    runs over DISTINCT fingerprints only.  Because every group member
    shares the rep's exact hash, transitive closure over reps equals
    closure over refs — the ref-level verdicts are IDENTICAL to the
    naive all-refs form, but pair expansion is bounded by distinct
    hashes instead of refs.  On the sf0.1 planted corpus (4 543 images
    whose structured patterns collapse heavily) the naive form expanded
    1.61M ref-level pairs in 27 s; the collapsed form emits a spanning
    structure instead: rep-level LSH pairs plus one (rep, member,
    hamming=0) exact row per collapsed ref — every duplicate
    relationship still derivable, nothing quadratic.

    The signature Dataset is materialized ONCE (narrow fixed-width
    rows — the minhash-signature-checkpoint posture) so the per-kind
    sweeps never re-execute the decode stage.  Driver pull is bounded
    by the DUPLICATE mass (affected groups + their members), never the
    corpus: unique-fingerprint groups are filtered out before
    ``to_pandas``."""
    import ray.data

    from fetch_engines_ray.ops.dedup import keep_by_keys

    sigs = sigs.materialize()
    all_pairs, all_clusters = [], []
    for kind in ("image", "audio", "video"):
        k_sigs = sigs.filter(expr=f"kind == '{kind}' and ok == 1")
        rep = _kind_rep_level(k_sigs, max_hamming)
        if rep is None:
            continue
        rep_pairs, affected, rep_root, group_rep = rep
        # members of affected groups (ONE streaming filter over the
        # narrow signature table; driver pull = duplicate mass only)
        members = (
            keep_by_keys(
                k_sigs,
                ray.data.from_arrow(
                    pa.table({"h64": pa.array(affected["h64"].astype("int64"))})
                ),
                "h64",
                keep=True,
            )
            .select_columns(["media_ref", "h64"])
            .to_pandas()
        )
        members["rep"] = members["h64"].astype("int64").map(group_rep)
        members["cluster_rep"] = members["rep"].map(lambda r: rep_root.get(r, r))
        members["is_kept"] = members["media_ref"] == members["cluster_rep"]
        all_clusters.append(
            members[["media_ref", "cluster_rep", "is_kept"]].assign(kind=kind)
        )
        exact_rows = members[members["media_ref"] != members["rep"]]
        exact_pairs = pd.DataFrame(
            {
                "ref_a": exact_rows["rep"].to_numpy(),
                "ref_b": exact_rows["media_ref"].to_numpy(),
                "hamming": 0,
            }
        )
        all_pairs.append(
            pd.concat([rep_pairs, exact_pairs], ignore_index=True).assign(kind=kind)
        )
    empty_p = pd.DataFrame(columns=["ref_a", "ref_b", "hamming", "kind"])
    empty_c = pd.DataFrame(columns=["media_ref", "cluster_rep", "is_kept", "kind"])
    return (
        pd.concat(all_pairs, ignore_index=True) if all_pairs else empty_p,
        pd.concat(all_clusters, ignore_index=True) if all_clusters else empty_c,
    )


def media_near_dup_verdicts(
    sigs: "ray.data.Dataset", max_hamming: int = 3
) -> "ray.data.Dataset":
    """Ref-level keep/drop verdicts as a DATASET — the 100-TB handoff
    for clone-heavy corpora where even the duplicate mass outgrows the
    driver (``media_near_dup_drop_set``'s frames are bounded by dup
    mass; this form is bounded by nothing driver-side except the
    rep-level maps, which are distinct-hash-cluster-sized).

    Same exact-collapse-then-LSH computation as
    :func:`media_near_dup_drop_set` (shared ``_kind_rep_level``);
    member verdicts are emitted in ONE distributed pass with the
    (h64 → rep, rep → cluster root) maps broadcast via ``ray.put``.
    Emits rows ONLY for refs in duplicate groups or LSH clusters:
    absent refs are implicitly kept.
    Schema: ``(media_ref, kind, cluster_rep, is_kept)``."""
    import ray
    import ray.data

    sigs = sigs.materialize()
    out_parts = []
    for kind in ("image", "audio", "video"):
        k_sigs = sigs.filter(expr=f"kind == '{kind}' and ok == 1")
        rep = _kind_rep_level(k_sigs, max_hamming)
        if rep is None:
            continue
        _, _, rep_root, group_rep = rep
        maps_ref = ray.put((group_rep, rep_root))

        # bind per-iteration values as DEFAULTS: the map_batches UDF
        # executes lazily after the loop, when plain closure cells
        # would all hold the LAST kind's maps (caught at sf0.1: only
        # video verdicts were emitted)
        def member_verdicts(
            batch: pa.Table, _maps_ref=maps_ref, k_name=kind
        ) -> pa.Table:
            g_rep, r_root = ray.get(_maps_ref)
            refs, roots = [], []
            for ref, h in zip(
                batch["media_ref"].to_pylist(), batch["h64"].to_pylist()
            ):
                rep = g_rep.get(h)
                if rep is None:
                    continue
                refs.append(ref)
                roots.append(r_root.get(rep, rep))
            return pa.table(
                {
                    "media_ref": pa.array(refs, type=pa.string()),
                    "kind": pa.array([k_name] * len(refs), type=pa.string()),
                    "cluster_rep": pa.array(roots, type=pa.string()),
                    "is_kept": pa.array(
                        [r == c for r, c in zip(refs, roots)], type=pa.bool_()
                    ),
                }
            )

        out_parts.append(
            k_sigs.map_batches(member_verdicts, batch_format="pyarrow", batch_size=8192)
        )
    if not out_parts:
        return ray.data.from_arrow(
            pa.table(
                {
                    "media_ref": pa.array([], type=pa.string()),
                    "kind": pa.array([], type=pa.string()),
                    "cluster_rep": pa.array([], type=pa.string()),
                    "is_kept": pa.array([], type=pa.bool_()),
                }
            )
        )
    ds = out_parts[0]
    for p in out_parts[1:]:
        ds = ds.union(p)
    return ds


def curate_media(
    extracted_ds: "ray.data.Dataset",
    max_hamming: int = 3,
    max_caption_chars: int = 400,
    require_caption: bool = False,
    concurrency=(1, 8),
    drop_strategy: str = "auto",
    min_width: Optional[int] = None,
    min_height: Optional[int] = None,
    max_aspect: Optional[float] = None,
    min_duration_ms: Optional[int] = None,
) -> dict:
    """End-to-end multimodal curation over extraction output.

    Returns ``{"pairs": Dataset, "dup_pairs": DataFrame|None,
    "clusters": DataFrame|Dataset, "n_dropped": int, "n_gated": int}``
    where ``pairs`` streams ``(doc_id, media_ref, kind, caption, ...)``
    for every occurrence of every KEPT media item.

    Optional LAION-style quality gates (``min_width`` / ``min_height``
    / ``max_aspect`` for image+video, ``min_duration_ms`` for
    audio+video) run BEFORE dedup: gated media lose their caption
    pairs and never enter the LSH (no point electing a representative
    the gate would drop anyway).

    ``drop_strategy`` picks where the near-dup verdicts resolve:
    ``"broadcast"`` and ``"auto"`` (default) build the pair and cluster
    frames on the driver (dup-bounded on healthy corpora);
    ``"semi_join"`` keeps the verdicts a DATASET end to end — the
    handoff for clone-heavy corpora where even the dup mass outgrows
    the driver — so ``dup_pairs`` is None there (the pair frame is a
    driver-side observability artifact by contract) and ``clusters``
    is the verdict Dataset.  Either way the dropped and gated refs
    leave the captions through one ``ops/dedup.keep_by_keys``
    anti-filter, which broadcasts a small drop set and partitions a
    large one."""
    import ray
    import ray.data

    from fetch_engines_ray.ops.captions import mine_caption_pairs
    from fetch_engines_ray.ops.dedup import keep_by_keys
    from fetch_engines_ray.ops.multimodal import media_spans_dataset

    if drop_strategy not in ("auto", "broadcast", "semi_join"):
        raise ValueError(
            f"unknown drop_strategy {drop_strategy!r} (auto|broadcast|semi_join)"
        )

    spans = media_spans_dataset(extracted_ds)
    sigs = media_signatures(spans, concurrency=concurrency)
    gates_on = any(
        g is not None for g in (min_width, min_height, max_aspect, min_duration_ms)
    )
    gated_ds = None
    n_gated = 0
    if gates_on:
        sigs = apply_media_quality_gates(
            sigs,
            min_width=min_width,
            min_height=min_height,
            max_aspect=max_aspect,
            min_duration_ms=min_duration_ms,
        ).materialize()
        gated_ds = sigs.filter(expr="gate_ok == 0").select_columns(["media_ref"])
        n_gated = gated_ds.count()
        sigs = sigs.filter(expr="gate_ok == 1")
    captions = mine_caption_pairs(
        extracted_ds, max_chars=max_caption_chars, require_caption=require_caption
    )
    if drop_strategy == "semi_join":
        verdicts = media_near_dup_verdicts(sigs, max_hamming=max_hamming).materialize()
        dropped_ds = verdicts.filter(expr="is_kept == False").select_columns(
            ["media_ref"]
        )
        if gated_ds is not None and n_gated:
            dropped_ds = dropped_ds.union(gated_ds)
        dropped_ds = dropped_ds.materialize()  # counted, then the key side
        n_dropped = dropped_ds.count()
        if n_dropped:
            captions = keep_by_keys(captions, dropped_ds, "media_ref", keep=False)
        return {
            "pairs": captions,
            "dup_pairs": None,
            "clusters": verdicts,
            "n_dropped": n_dropped,
            "n_gated": n_gated,
        }
    dup_pairs, clusters = media_near_dup_drop_set(sigs, max_hamming=max_hamming)
    dropped = (
        frozenset(clusters.loc[~clusters["is_kept"], "media_ref"])
        if len(clusters)
        else frozenset()
    )
    if gated_ds is not None and n_gated:
        # gated refs lose their captions too (bounded by the gated
        # mass; the semi_join strategy keeps even this distributed)
        dropped = dropped | frozenset(gated_ds.to_pandas()["media_ref"])
    if dropped:
        captions = keep_by_keys(
            captions,
            ray.data.from_arrow(
                pa.table({"media_ref": pa.array(sorted(dropped), type=pa.string())})
            ),
            "media_ref",
            keep=False,
        )
    return {
        "pairs": captions,
        "dup_pairs": dup_pairs,
        "clusters": clusters,
        "n_dropped": len(dropped),
        "n_gated": n_gated,
    }
