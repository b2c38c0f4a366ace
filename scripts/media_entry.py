"""``ray job submit`` entry point for the multimodal curation chain
(`pipelines/mmcurate.py::curate_media`) — extraction output in,
deduplicated media-text training pairs out.

On a real cluster:

    ray job submit --working-dir . -- \
        python scripts/media_entry.py \
        --input /data/extracted --output /data/media_text_pairs \
        --min-width 200 --min-height 200 --max-aspect 3.0

Locally (sandbox) it runs the same thing against a local session.  The
script owns the Ray session (the library never calls ray.init).  A
JSON report line (pairs written, media dropped/gated, wall time) goes
to stdout and ``<output>/_REPORT.json``.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))



def _clear_stale_parquet(path: str) -> None:
    """write_parquet APPENDS uniquely-named files — a re-run against an
    existing output dir would silently mix the previous run's parts
    into the delivery (the same hazard bench.py clears for its own
    dirs).  Remove stale .parquet files before writing."""
    import glob as _glob
    import os as _os

    for f in _glob.glob(_os.path.join(path, "**", "*.parquet"), recursive=True):
        _os.remove(f)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="extraction-output parquet dir (doc_id, out_spans)")
    ap.add_argument("--output", required=True, help="media-text pair parquet output dir")
    ap.add_argument("--max-hamming", type=int, default=3)
    ap.add_argument("--max-caption-chars", type=int, default=400)
    ap.add_argument(
        "--require-caption", action="store_true",
        help="drop media with no adjacent text at all",
    )
    ap.add_argument("--min-width", type=int, default=None)
    ap.add_argument("--min-height", type=int, default=None)
    ap.add_argument("--max-aspect", type=float, default=None)
    ap.add_argument("--min-duration-ms", type=int, default=None)
    ap.add_argument("--num-cpus", type=int, default=None, help="local only; omit on a cluster")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)

    from fetch_engines_ray.arrowclean import read_parquet_clean
    from fetch_engines_ray.pipelines.mmcurate import curate_media

    t0 = time.time()
    ext = read_parquet_clean(args.input)
    out = curate_media(
        ext,
        max_hamming=args.max_hamming,
        max_caption_chars=args.max_caption_chars,
        require_caption=args.require_caption,
        min_width=args.min_width,
        min_height=args.min_height,
        max_aspect=args.max_aspect,
        min_duration_ms=args.min_duration_ms,
    )
    if os.path.isdir(args.output):
        _clear_stale_parquet(args.output)
    out["pairs"].write_parquet(args.output)
    import pyarrow.parquet as pq_mod  # noqa: F401  (parquet present by construction)

    n_pairs = read_parquet_clean(args.output).count()
    report = {
        "pairs_written": int(n_pairs),
        "media_dropped": int(out["n_dropped"]),
        "media_gated": int(out.get("n_gated", 0)),
        "wall_sec": round(time.time() - t0, 3),
        "output": args.output,
    }
    with open(os.path.join(args.output, "_REPORT.json"), "w") as f:
        json.dump(report, f)
    print(json.dumps(report))
    ray.shutdown()


if __name__ == "__main__":
    main()
