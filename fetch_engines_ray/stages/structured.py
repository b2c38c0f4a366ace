"""Schema-driven structured extraction (A9 analog).

Deterministic re-expression of the reference's third engine,
``StructuredContentEngine.fetchStructuredContent``
(/root/reference/src/StructuredContentEngine.ts:169-364): the caller
declares a typed output schema whose every field carries a description
(validated exactly like ``validateSchemaDescriptions``,
StructuredContentEngine.ts:117-158), the engine extracts one value per
field from each document's text/markdown, and returns a typed Arrow
table.  Where the reference prompts an LLM with the field descriptions,
this engine runs a deterministic per-field extractor (an RE2 regex with
one capture group) — the schema-validation → extract → typed-result
contract is identical, and an LLM-backed extractor could drop into
``StructuredExtractor`` as an actor-pool stage without changing the
pipeline shape.

Everything is vectorized: one ``pcompute.extract_regex`` + ``cast`` per
field per batch, no per-row Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pcompute

import ray.data


@dataclass(frozen=True)
class FieldSpec:
    """One output field: name, REQUIRED human description (the
    reference rejects schemas with description-less fields), an RE2
    regex whose first capture group is the value, the Arrow output
    type, and the fill value when the regex does not match."""

    name: str
    description: str
    # RE2 regex with exactly one NAMED capture group, e.g.
    # r"(?P<value>\d+)" (pyarrow.compute.extract_regex requires named
    # groups; the group name itself is arbitrary)
    pattern: str
    dtype: pa.DataType = pa.string()
    default: object = None


def validate_schema(fields: list[FieldSpec]) -> None:
    """Reject description-less fields, mirroring the reference's
    ``validateSchemaDescriptions`` error contract
    (/root/reference/src/StructuredContentEngine.ts:117-158)."""
    if not fields:
        raise ValueError("Schema must declare at least one field.")
    missing = [f.name for f in fields if not (f.description or "").strip()]
    if missing:
        raise ValueError(
            "All schema fields must have descriptions. "
            f"Missing descriptions for: {', '.join(missing)}"
        )
    names = [f.name for f in fields]
    if len(set(names)) != len(names):
        raise ValueError(f"Duplicate field names in schema: {names}")
    unnamed = [f.name for f in fields if "(?P<" not in f.pattern]
    if unnamed:
        raise ValueError(
            "Field patterns must contain one named capture group "
            f"(?P<value>...); missing for: {', '.join(unnamed)}"
        )


@dataclass(frozen=True)
class ProviderSpec:
    """Backend-selection config, mirroring the reference's
    ``StructuredContentOptions``/``ApiConfig`` surface
    (/root/reference/src/StructuredContentEngine.ts:23-44 — required
    model name, OpenAI-compatible ``baseURL`` override, custom headers,
    API key from an environment variable — and the per-model knobs of
    ``getModelConfig``, ts:389-404) plus a token-budget cap over the
    ``usage`` accounting the reference returns per result (ts:49-64).

    The default backend is deterministic (the per-field RE2 extractor),
    so the engine stays network-free; an LLM-backed
    ``backend_factory`` reads this spec in the actor's ``__init__``.
    The API key itself is never stored here — only the env-var NAME —
    so specs serialize safely into actor constructors.
    """

    model: str = "deterministic/regex-v1"
    base_url: Optional[str] = None
    api_key_env: str = "OPENAI_API_KEY"
    # tuple-of-pairs, not dict: frozen dataclass + hashable + picklable
    headers: tuple = ()
    custom_prompt: Optional[str] = None
    # cumulative per-actor cap on usage.total_tokens; None = unmetered
    max_total_tokens: Optional[int] = None

    def model_options(self) -> dict:
        """Per-model request knobs (``getModelConfig`` analog,
        StructuredContentEngine.ts:389-404)."""
        if self.model.startswith("gpt-5"):
            return {"reasoning_effort": "low"}
        if self.model.startswith("gpt-4.1"):
            return {"temperature": 0}
        return {}


class DeterministicRegexBackend:
    """Default backend: per-field vectorized RE2 extraction (one
    ``extract_regex`` + ``cast`` per field per batch, no per-row
    Python).  Usage accounting is deterministic — prompt tokens =
    whitespace token count of the batch texts, completion tokens = 0 —
    so budget caps are testable without a network."""

    def __init__(self, spec: ProviderSpec, fields: list[FieldSpec]) -> None:
        self.spec = spec
        self.fields = fields

    def extract(self, text: "pa.ChunkedArray") -> tuple[dict, tuple[int, int]]:
        cols: dict = {}
        for f in self.fields:
            # extract_regex yields a struct with one field per capture
            # group; a non-match yields null → filled with the default
            m = pcompute.extract_regex(text, pattern=f.pattern)
            val = pcompute.struct_field(m, 0)
            if not pa.types.is_string(f.dtype):
                val = pcompute.cast(val, f.dtype)
            if f.default is not None:
                val = pcompute.fill_null(val, pa.scalar(f.default, type=f.dtype))
            cols[f.name] = val
        prompt_tokens = int(
            pcompute.sum(
                pcompute.list_value_length(
                    pcompute.split_pattern_regex(
                        pcompute.utf8_trim_whitespace(pcompute.fill_null(text, "")), r"\s+"
                    )
                )
            ).as_py()
            or 0
        )
        return cols, (prompt_tokens, 0)


def _default_backend_factory(spec: ProviderSpec, fields: list[FieldSpec]):
    return DeterministicRegexBackend(spec, fields)


class StructuredExtractor:
    """``map_batches`` callable: text batches in → typed field table out.

    Stateless beyond the validated schema with the default backend, so
    it runs as a task-pool stage by default; pass it as a callable
    CLASS with ``concurrency=`` when the backend holds expensive state
    (an LLM client, a compiled grammar) — the contract stays the same.

    ``provider``/``backend_factory`` is where a real LLM provider plugs
    in: the factory is called once per actor in ``__init__`` with the
    :class:`ProviderSpec` and field list, and must return an object
    with ``extract(text_array) -> (per-field column dict,
    (prompt_tokens, completion_tokens))``.  ``emit_usage=True`` adds the
    reference's usage columns to every output row;
    ``spec.max_total_tokens`` enforces a cumulative per-worker budget
    (exhaustion raises, mirroring a provider quota error surfacing).
    """

    def __init__(
        self,
        fields: list[FieldSpec],
        text_col: str = "text",
        id_col: str = "doc_id",
        provider: Optional[ProviderSpec] = None,
        backend_factory=None,
        emit_usage: bool = False,
    ) -> None:
        validate_schema(fields)
        self.fields = fields
        self.text_col = text_col
        self.id_col = id_col
        self.provider = provider or ProviderSpec()
        self.backend = (backend_factory or _default_backend_factory)(self.provider, self.fields)
        self.emit_usage = emit_usage
        self._spent_tokens = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        values, (p_tok, c_tok) = self.backend.extract(text)
        total = p_tok + c_tok
        cap = self.provider.max_total_tokens
        if cap is not None:
            self._spent_tokens += total
            if self._spent_tokens > cap:
                raise RuntimeError(
                    f"provider token budget exhausted: spent {self._spent_tokens} "
                    f"of max_total_tokens={cap} (model={self.provider.model})"
                )
        cols: dict = {self.id_col: batch[self.id_col]}
        cols.update(values)
        if self.emit_usage:
            n = batch.num_rows
            cols["usage_prompt_tokens"] = pa.array([p_tok] * n, type=pa.int64())
            cols["usage_completion_tokens"] = pa.array([c_tok] * n, type=pa.int64())
            cols["usage_total_tokens"] = pa.array([total] * n, type=pa.int64())
        return pa.table(cols)


# map_batches arguments structured_extract sets itself
_RESERVED_REMOTE_ARGS = {"batch_size", "concurrency", "num_cpus", "batch_format"}


def structured_extract(
    ds: "ray.data.Dataset",
    fields: list[FieldSpec],
    text_col: str = "text",
    id_col: str = "doc_id",
    batch_size: Optional[int] = 4096,
    concurrency: Optional[int] = None,
    extractor_cls: type = StructuredExtractor,
    provider: Optional[ProviderSpec] = None,
    backend_factory=None,
    emit_usage: bool = False,
    ray_remote_args: Optional[dict] = None,
) -> "ray.data.Dataset":
    """Run schema-driven extraction over a document Dataset; returns a
    Dataset of (id, <field>...) with the declared Arrow types.

    ``concurrency=None`` (default) runs the extractor as a task-pool
    stage.  Passing ``concurrency=N`` switches to the ACTOR-POOL form —
    ``extractor_cls`` is constructed once per actor (this is the slot an
    LLM-backed extractor with an expensive client/model in ``__init__``
    drops into, mirroring the reference's provider surface,
    StructuredContentEngine.ts:366-384) and the output contract is
    identical; ``tests/test_structured.py`` pins task-pool == actor-pool
    equality.

    ``ray_remote_args`` forwards to ``map_batches`` — on a cluster this
    is how a provider API key reaches the pool's worker processes
    (``{"runtime_env": {"env_vars": {"OPENAI_API_KEY": ...}}}``): the
    spec carries only the env-var NAME, and driver-local environment
    changes do not propagate to already-started Ray workers.  It may not
    set ``batch_size``, ``concurrency``, ``num_cpus`` or
    ``batch_format``, which this function sets itself."""
    reserved = sorted(set(ray_remote_args or ()) & _RESERVED_REMOTE_ARGS)
    if reserved:
        raise ValueError(
            f"ray_remote_args may not set {', '.join(reserved)}: "
            "structured_extract sets them itself (pass batch_size / "
            "concurrency as its own parameters)"
        )
    kwargs = {"fields": fields, "text_col": text_col, "id_col": id_col}
    # only forward provider kwargs when set, so custom extractor classes
    # with the original three-kwarg signature keep working
    if provider is not None:
        kwargs["provider"] = provider
    if backend_factory is not None:
        kwargs["backend_factory"] = backend_factory
    if emit_usage:
        kwargs["emit_usage"] = emit_usage
    if concurrency is None:
        if provider is not None and provider.max_total_tokens is not None:
            raise ValueError(
                "max_total_tokens requires the actor-pool form (pass "
                "concurrency=N): task-pool workers each mutate their own "
                "deserialized copy of the extractor, so a cumulative "
                "budget cannot accumulate across batches"
            )
        ex = extractor_cls(**kwargs)
        return ds.map_batches(
            ex,
            batch_format="pyarrow",
            batch_size=batch_size,
            **(ray_remote_args or {}),
        )
    return ds.map_batches(
        extractor_cls,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
        **(ray_remote_args or {}),
    )
