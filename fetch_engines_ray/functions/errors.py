"""Typed error taxonomy for extraction dead-letter rows.

Mirrors the reference's stable machine-readable error codes
(/root/reference/src/errors.ts:4-31 ``FetchError.code`` and the code
constants used across src/FetchEngine.ts:32-163 and
src/PlaywrightEngine.ts — e.g. ``ERR_CHALLENGE_PAGE``,
``ERR_NON_HTML_CONTENT``, ``ERR_MARKDOWN_CONVERSION_NON_HTML``,
``ERR_MAX_RETRIES_REACHED``).

In a Ray Data pipeline an error never kills a task: the row becomes a
dead-letter row that keeps flowing with ``error_code`` set to one of
the stable codes below (plus a free-text ``error`` message), so a
downstream consumer can route/critique/retry per code exactly like the
reference's callers catch ``FetchError.code``.
"""

from __future__ import annotations

# Challenge / soft-block page detected (reference ERR_CHALLENGE_PAGE,
# src/PlaywrightEngine.ts challenge detection).
ERR_CHALLENGE_PAGE = "ERR_CHALLENGE_PAGE"
# HTML → Markdown conversion failed; raw text passed through (reference
# ERR_MARKDOWN_CONVERSION_NON_HTML analog; R3 raw passthrough).
ERR_CONVERSION = "ERR_CONVERSION"
# PDF layout stream malformed / unparseable (reference raises
# ERR_PLAYWRIGHT_OPERATION from the browser content path).
ERR_PDF_PARSE = "ERR_PDF_PARSE"
# A span kind the engine cannot serialize to text (reference
# ERR_NON_HTML_CONTENT / ERR_UNSUPPORTED_RAW_CONTENT_TYPE).
ERR_NON_TEXT_CONTENT = "ERR_NON_TEXT_CONTENT"
# Escalation ladder exhausted without reaching the quality bar
# (reference ERR_MAX_RETRIES_REACHED, src/FetchEngine.ts retry loop).
ERR_MAX_RETRIES_REACHED = "ERR_MAX_RETRIES_REACHED"


class ExtractionError(Exception):
    """Error with a stable machine code (reference ``FetchError``,
    /root/reference/src/errors.ts:4-31)."""

    def __init__(self, message: str, code: str, original: Exception | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.original = original
