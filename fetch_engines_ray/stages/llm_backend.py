"""Real OpenAI-compatible HTTP backend for the structured-extraction
LLM slot (A9) — the network-facing counterpart of
``stages/structured.DeterministicRegexBackend``.

Mirrors the reference's provider path,
``/root/reference/src/StructuredContentEngine.ts``:

* API-key resolution and its error contract (ts:176-181): the key
  comes from the environment variable named by
  ``ProviderSpec.api_key_env``, never from the spec itself.  Only a
  spec that names ``OPENAI_API_KEY`` or ``OPENROUTER_API_KEY`` falls
  back to the other of the two; a spec naming any other variable fails
  when it is unset, so a provider key never reaches a custom
  ``base_url`` it was not meant for.
* Provider select by ``baseURL`` (``getOpenAIProvider``, ts:366-384):
  a trailing-slash-normalized custom ``base_url`` is treated as an
  OpenAI-compatible endpoint; the default endpoint is standard OpenAI.
  Both get ``Authorization: Bearer <key>`` here — this module IS the
  client library the reference delegates that handling to — and
  caller headers merge in first so an explicit Authorization wins
  (ts:228-235).
* Prompt construction with per-field guidance lines and the
  data-type admonition (ts:196-216), plus ``custom_prompt`` context.
* Per-model request knobs via ``ProviderSpec.model_options()``
  (``getModelConfig``, ts:389-404).
* Rich schema-mismatch error decoding (``NoObjectGeneratedError``
  handling, ts:258-360): non-JSON responses are excerpted, key
  mismatches (dotted/spaced/unexpected keys) are diagnosed, and
  number-expected-string-received fields get the reference's tip.
* The usage triple (``usage``, ts:49-64) accumulates across the batch
  and feeds the extractor's cumulative token-budget cap.

Transport is stdlib ``urllib`` — no extra dependencies, and no
network traffic unless the caller points ``base_url`` at a live
server (tests drive a local mock; the sandbox has no egress).  One
request per document row: structured extraction is a per-document
call in the reference, and this stage is HTTP-bound, not CPU-bound —
batch-level parallelism comes from the actor pool, exactly like the
warm-render pool (SURVEY §2.4 A1).
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.error
import urllib.request

import pyarrow as pa

from .structured import ProviderSpec

_DEFAULT_OPENAI_BASE_URL = "https://api.openai.com/v1"

_SYSTEM_PROMPT_TEMPLATE = """You are an expert at extracting structured data from web content.
Extract the requested information from the provided markdown content accurately and completely.
Return the data as a valid JSON object matching the exact schema provided.

Field requirements:
{schema_guidance}

IMPORTANT: Pay careful attention to data types:
- Numbers should be returned as numeric values (not strings with currency symbols)
- Strings should be returned as plain text strings
- Follow the exact schema structure and field descriptions provided above

{custom_context}
Content to analyze:
{content}"""


class StructuredExtractionError(ValueError):
    """Raised when the provider's response cannot be decoded into the
    declared schema — message format mirrors the reference's rich
    ``NoObjectGeneratedError`` decoding (ts:258-360)."""


_FALLBACK_KEY_ENVS = ("OPENAI_API_KEY", "OPENROUTER_API_KEY")


def _resolve_api_key(spec: ProviderSpec) -> str:
    fallback = spec.api_key_env in _FALLBACK_KEY_ENVS
    key = os.environ.get(spec.api_key_env)
    if not key and fallback:
        key = os.environ.get("OPENAI_API_KEY") or os.environ.get("OPENROUTER_API_KEY")
    if not key:
        raise ValueError(
            "API key is required for structured content extraction. "
            f"Provide it via the {spec.api_key_env} environment variable"
            + (
                " or set OPENAI_API_KEY or OPENROUTER_API_KEY environment variables"
                if fallback
                else ""
            )
        )
    return key


def _build_prompt(spec: ProviderSpec, fields: list, content: str) -> str:
    guidance = "\n".join(f"- {f.name}: {f.description}" for f in fields)
    custom = (
        f"\nAdditional context: {spec.custom_prompt}\n" if spec.custom_prompt else ""
    )
    return _SYSTEM_PROMPT_TEMPLATE.format(
        schema_guidance=guidance, custom_context=custom, content=content
    )


def _decode_object(text: str, fields: list) -> dict:
    """Parse the model's JSON content into per-field values, with the
    reference's error-decoding shape on mismatch."""
    expected = [f.name for f in fields]
    try:
        parsed = json.loads(text)
    except (json.JSONDecodeError, TypeError):
        excerpt = (text or "")[:300] + ("..." if text and len(text) > 300 else "")
        raise StructuredExtractionError(
            "Failed to extract structured data: response is not valid JSON\n\n"
            f"Model response:\n{excerpt}"
        )
    if not isinstance(parsed, dict):
        raise StructuredExtractionError(
            "Failed to extract structured data: response is not a JSON object\n\n"
            f"Model response:\n{json.dumps(parsed)[:300]}"
        )
    received = list(parsed.keys())
    weird = [
        k
        for k in received
        if k.startswith(".") or " " in k or (expected and k not in expected)
    ]
    if weird and not any(k in parsed for k in expected):
        raise StructuredExtractionError(
            "Failed to extract structured data: schema mismatch\n\n"
            "⚠️  Key mismatch detected:\n"
            f"   Expected: {', '.join(expected)}\n"
            f"   Received: {', '.join(received)}\n\n"
            "   The model returned keys with unexpected format (possibly "
            "prefixed with dots or spaces).\n"
            "   This usually indicates the model doesn't properly support "
            "structured outputs."
        )
    out = {}
    mismatched_numbers = []
    for f in fields:
        val = parsed.get(f.name)
        if val is None:
            out[f.name] = f.default
            continue
        if pa.types.is_integer(f.dtype) or pa.types.is_floating(f.dtype):
            if isinstance(val, str):
                mismatched_numbers.append(f.name)
                continue
        out[f.name] = val
    if mismatched_numbers:
        raise StructuredExtractionError(
            "Failed to extract structured data: type validation failed\n\n"
            "Schema validation errors:\n"
            + "\n".join(
                f"  • {name}: expected number, received string"
                for name in mismatched_numbers
            )
            + "\n\n\U0001f4a1 Tip: Fields ("
            + ", ".join(mismatched_numbers)
            + ") are being returned as strings but expected as numbers."
        )
    return out


class OpenAICompatibleBackend:
    """Drop-in ``backend_factory`` target for
    :class:`..stages.structured.StructuredExtractor`: construct once
    per actor (``__init__`` resolves the key, normalizes the endpoint
    and freezes headers — the expensive-state slot), then
    ``extract(text_array)`` issues one ``chat/completions`` call per
    row and returns typed per-field columns plus the accumulated
    ``(prompt_tokens, completion_tokens)`` usage pair."""

    def __init__(
        self,
        spec: ProviderSpec,
        fields: list,
        timeout_s: float = 30.0,
        max_attempts: int = 3,
        retry_delay_s: float = 0.5,
    ) -> None:
        self.spec = spec
        self.fields = fields
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.retry_delay_s = retry_delay_s
        self.api_key = _resolve_api_key(spec)
        # trailing-slash normalization mirrors getOpenAIProvider
        # (ts:366-384); both the standard and the OpenAI-compatible
        # endpoint get identical treatment here because this module IS
        # the client library the reference delegates auth handling to
        self.base_url = (spec.base_url or _DEFAULT_OPENAI_BASE_URL).rstrip("/")
        headers = dict(spec.headers)
        # caller headers first; Authorization added unless caller set it
        # (ts:228-235 — here we are also the client lib, so the
        # OpenAI-compatible branch gets the bearer header too)
        headers.setdefault("Authorization", f"Bearer {self.api_key}")
        headers.setdefault("Content-Type", "application/json")
        self.headers = headers

    def _request_one(self, content: str) -> tuple[dict, int, int]:
        body = {
            "model": self.spec.model,
            "messages": [
                {"role": "user", "content": _build_prompt(self.spec, self.fields, content)}
            ],
            "response_format": {"type": "json_object"},
        }
        body.update(self.spec.model_options())
        data = json.dumps(body).encode("utf-8")
        url = f"{self.base_url}/chat/completions"
        last_err: Exception | None = None
        for attempt in range(self.max_attempts):
            req = urllib.request.Request(url, data=data, headers=self.headers)
            try:
                with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                    raw = resp.read()
                # a stalled/truncated BODY read raises TimeoutError/OSError
                # and a proxy's HTML 200 raises JSONDecodeError — both are
                # transient-or-environmental, so they take the same retry
                # ladder as connection errors instead of killing the task
                payload = json.loads(raw.decode("utf-8", "replace"))
                break
            except urllib.error.HTTPError as err:
                # retry only transient classes (quota / server errors);
                # auth and client errors surface immediately.  MUST be
                # the first clause: HTTPError < URLError < OSError, so a
                # generic OSError catch above it would swallow the
                # HTTP-specific handling
                if err.code in (429, 500, 502, 503, 504) and attempt + 1 < self.max_attempts:
                    last_err = err
                    time.sleep(self.retry_delay_s * (attempt + 1))
                    continue
                detail = ""
                try:
                    detail = err.read().decode("utf-8", "replace")[:300]
                except Exception:
                    pass
                raise RuntimeError(
                    f"Failed to extract structured data: provider returned "
                    f"HTTP {err.code}: {detail or err.reason}"
                ) from err
            except urllib.error.URLError as err:
                if attempt + 1 < self.max_attempts:
                    last_err = err
                    time.sleep(self.retry_delay_s * (attempt + 1))
                    continue
                raise RuntimeError(
                    f"Failed to extract structured data: {err.reason}"
                ) from err
            except (
                TimeoutError,
                OSError,
                http.client.HTTPException,  # IncompleteRead is NOT an OSError
                json.JSONDecodeError,
            ) as err:
                if attempt + 1 < self.max_attempts:
                    last_err = err
                    time.sleep(self.retry_delay_s * (attempt + 1))
                    continue
                raise RuntimeError(
                    f"Failed to extract structured data: {err}"
                ) from err
        else:  # pragma: no cover - loop always breaks or raises
            raise RuntimeError(f"Failed to extract structured data: {last_err}")
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise StructuredExtractionError(
                "Failed to extract structured data: malformed completion "
                f"payload\n\nModel response:\n{json.dumps(payload)[:300]}"
            )
        values = _decode_object(text, self.fields)
        usage = payload.get("usage") or {}
        return (
            values,
            int(usage.get("prompt_tokens") or 0),
            int(usage.get("completion_tokens") or 0),
        )

    def extract(self, text: "pa.ChunkedArray") -> tuple[dict, tuple[int, int]]:
        per_field: dict = {f.name: [] for f in self.fields}
        p_total = c_total = 0
        for content in text.to_pylist():
            values, p_tok, c_tok = self._request_one(content or "")
            p_total += p_tok
            c_total += c_tok
            for f in self.fields:
                per_field[f.name].append(values.get(f.name))
        cols = {
            f.name: pa.array(per_field[f.name], type=f.dtype) for f in self.fields
        }
        return cols, (p_total, c_total)


def openai_backend_factory(spec: ProviderSpec, fields: list) -> OpenAICompatibleBackend:
    """``backend_factory`` entry point:
    ``structured_extract(..., provider=ProviderSpec(model=..., base_url=...),
    backend_factory=openai_backend_factory, concurrency=N)``."""
    return OpenAICompatibleBackend(spec, fields)


__all__ = [
    "OpenAICompatibleBackend",
    "StructuredExtractionError",
    "openai_backend_factory",
]
