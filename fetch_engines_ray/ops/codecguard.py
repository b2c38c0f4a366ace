"""Failure-containment boundary for the pure-Python media codecs.

Each codec promises its own ``*FormatError`` on malformed bytes, and the
media fingerprint stage (``pipelines/mmcurate.MediaRefFingerprinter``)
relies on that contract to turn a corrupt payload into an ``ok=0`` row
instead of killing the Ray task.  But a decoder walking untrusted bytes
hits raw ``IndexError`` / ``KeyError`` / ``struct.error`` /
``ZeroDivisionError`` / numpy ``ValueError`` long before any explicit
validity check fires (fuzzing a planted JPEG found ~20 % of truncations
escape as non-``JpegFormatError`` types).  ``guarded`` normalizes every
non-contract exception at the public decode entry points so ONE
malformed payload in a 100-TB media column degrades to a flagged row,
never an aborted pipeline.
"""
from __future__ import annotations

import functools


def guarded(err_cls: type):
    """Decorator: re-raise any non-``err_cls`` exception from a decode
    entry point as ``err_cls`` (original chained via ``from``)."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except err_cls:
                raise
            except (MemoryError, RecursionError):
                # resource exhaustion from an oversized-but-VALID payload
                # is not data corruption: reclassifying it as a
                # *FormatError would make the fingerprinters silently
                # skip the row as "corrupt" and mask the real failure
                raise
            except Exception as exc:
                raise err_cls(
                    f"malformed stream: {type(exc).__name__}: {exc}"
                ) from exc

        return wrapper

    return deco
