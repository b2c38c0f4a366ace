"""Schema-driven structured extraction (A9 analog): validation contract
mirrors reference StructuredContentEngine.ts:117-158, extraction yields
typed columns with defaults on non-match."""

import pyarrow as pa
import pytest


def test_validate_schema_rejects_missing_descriptions():
    from fetch_engines_ray.stages.structured import FieldSpec, validate_schema

    with pytest.raises(ValueError, match="descriptions.*price"):
        validate_schema(
            [
                FieldSpec(name="title", description="doc title", pattern=r"(?P<v>.+)"),
                FieldSpec(name="price", description="", pattern=r"(?P<v>\d+)"),
            ]
        )
    with pytest.raises(ValueError, match="named capture group"):
        validate_schema(
            [FieldSpec(name="t", description="d", pattern=r"(\d+)")]
        )
    with pytest.raises(ValueError, match="at least one field"):
        validate_schema([])


@pytest.mark.parametrize("key", ["batch_size", "concurrency", "num_cpus", "batch_format"])
def test_structured_extract_rejects_reserved_remote_args(key):
    from fetch_engines_ray.stages.structured import FieldSpec, structured_extract

    fields = [FieldSpec(name="t", description="d", pattern=r"(?P<v>.+)")]
    with pytest.raises(ValueError, match=f"ray_remote_args may not set {key}"):
        structured_extract(None, fields, ray_remote_args={key: 2, "max_retries": 1})


def test_structured_extract_typed_fields(ray_session):
    import ray.data

    from fetch_engines_ray.stages.structured import FieldSpec, structured_extract

    ds = ray.data.from_items(
        [
            {"doc_id": "a", "text": "Price: 42 dollars for the widget"},
            {"doc_id": "b", "text": "no numerals in here at all"},
        ]
    )
    fields = [
        FieldSpec(
            name="price",
            description="first integer",
            pattern=r"(?P<v>\d+)",
            dtype=pa.int64(),
            default=-1,
        ),
        FieldSpec(
            name="after_the",
            description="word after 'the'",
            pattern=r"\bthe\s+(?P<v>\w+)",
            default="",
        ),
    ]
    rows = {r["doc_id"]: r for r in structured_extract(ds, fields).take_all()}
    assert rows["a"]["price"] == 42 and rows["a"]["after_the"] == "widget"
    assert rows["b"]["price"] == -1 and rows["b"]["after_the"] == ""


def test_structured_extract_actor_pool_drop_in(ray_session):
    """The actor-pool form is a drop-in for the task-pool form: same
    typed output, expensive __init__ paid once per ACTOR (not per
    batch), concurrency bounded by the pool size.

    The extractor class is defined INSIDE the test so cloudpickle
    serializes it by value — a test-module top-level class is pickled
    by reference and Ray workers cannot import `test_structured`
    (actors crash-loop as perpetually pending).
    """
    import pandas as pd

    import ray.data

    from fetch_engines_ray.stages.structured import FieldSpec, structured_extract

    class ExpensiveStateExtractor:
        """Actor extractor with deliberately expensive __init__ state —
        the LLM-client simulation for the drop-in slot."""

        def __init__(self, fields, text_col="text", id_col="doc_id"):
            import os
            import time

            from fetch_engines_ray.stages.structured import StructuredExtractor

            time.sleep(0.25)  # simulated model/client load
            self._inner = StructuredExtractor(fields, text_col=text_col, id_col=id_col)
            self._ident = f"{os.getpid()}-{id(self)}"
            self.n_batches = 0

        def __call__(self, batch):
            import pyarrow as _pa

            self.n_batches += 1
            out = self._inner(batch)
            return out.append_column(
                "actor_id", _pa.array([self._ident] * out.num_rows)
            )

    rows = [
        {"doc_id": f"d{i:03d}", "text": f"item {i} of the batch costs {i * 3} coins"}
        for i in range(200)
    ]
    ds = ray.data.from_items(rows)
    fields = [
        FieldSpec(
            name="first_number",
            description="first integer",
            pattern=r"(?P<v>\d+)",
            dtype=pa.int64(),
            default=-1,
        ),
        FieldSpec(
            name="after_the",
            description="word after 'the'",
            pattern=r"\bthe\s+(?P<v>\w+)",
            default="",
        ),
    ]
    task_out = (
        structured_extract(ds, fields).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    actor_out = (
        structured_extract(
            ds,
            fields,
            batch_size=16,
            concurrency=2,
            extractor_cls=ExpensiveStateExtractor,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    n_actors = actor_out["actor_id"].nunique()
    n_batches = -(-len(rows) // 16)
    assert 1 <= n_actors <= 2 < n_batches  # init once per actor, not per batch
    pd.testing.assert_frame_equal(task_out, actor_out.drop(columns=["actor_id"]))


def test_provider_spec_model_options():
    """getModelConfig analog (StructuredContentEngine.ts:389-404):
    per-model knobs keyed off the model-name prefix."""
    from fetch_engines_ray.stages.structured import ProviderSpec

    assert ProviderSpec(model="gpt-5-mini").model_options() == {"reasoning_effort": "low"}
    assert ProviderSpec(model="gpt-4.1-nano").model_options() == {"temperature": 0}
    assert ProviderSpec().model_options() == {}
    # frozen + hashable (headers are a tuple of pairs, never a dict)
    spec = ProviderSpec(base_url="https://openrouter.ai/api/v1", headers=(("x-title", "fer"),))
    assert hash(spec) == hash(spec)


def test_provider_usage_columns_and_default_backend(ray_session):
    """emit_usage adds the reference's usage triple; the deterministic
    backend meters prompt tokens as whitespace token counts."""
    import ray.data

    from fetch_engines_ray.stages.structured import FieldSpec, ProviderSpec, structured_extract

    one_block = pa.table({"doc_id": ["a", "b"], "text": ["price 12 coins", "price 7"]})
    fields = [
        FieldSpec(name="price", description="price", pattern=r"(?P<v>\d+)", dtype=pa.int64())
    ]
    out = (
        structured_extract(
            ray.data.from_arrow(one_block),
            fields,
            provider=ProviderSpec(model="deterministic/regex-v1"),
            emit_usage=True,
            batch_size=None,
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["price"].tolist() == [12, 7]
    assert set(out.columns) >= {"usage_prompt_tokens", "usage_completion_tokens", "usage_total_tokens"}
    # both rows were in one batch of 5 whitespace tokens total
    assert out["usage_prompt_tokens"].tolist() == [5, 5]
    assert (out["usage_completion_tokens"] == 0).all()


def test_provider_token_budget_cap(ray_session):
    """max_total_tokens is a per-worker cumulative budget; exhaustion
    surfaces as an error, not silent truncation."""
    import pytest as _pytest
    import ray.exceptions

    from fetch_engines_ray.stages.structured import FieldSpec, ProviderSpec, StructuredExtractor

    fields = [FieldSpec(name="v", description="d", pattern=r"(?P<v>\d+)")]
    ex = StructuredExtractor(fields, provider=ProviderSpec(max_total_tokens=6))
    batch = pa.table({"doc_id": ["a"], "text": ["one two three four"]})
    ex(batch)  # 4 tokens spent, under the cap
    with _pytest.raises(RuntimeError, match="token budget exhausted"):
        ex(batch)  # cumulative 8 > 6


def test_mock_llm_backend_drops_into_actor_pool(ray_session):
    """A mock LLM backend (reads the ProviderSpec in __init__, returns
    per-field columns + usage) drops into the ACTOR-POOL slot through
    backend_factory with no pipeline change.  Factory defined inside
    the test so cloudpickle ships it by value."""
    import ray.data

    from fetch_engines_ray.stages.structured import FieldSpec, ProviderSpec, structured_extract

    def mock_backend_factory(spec, fields):
        class MockLLMBackend:
            def __init__(self):
                # a real backend would build its client here from the
                # spec (endpoint, headers, key from spec.api_key_env)
                self.model = spec.model
                self.opts = spec.model_options()
                self.fields = fields

            def extract(self, text):
                n = len(text)
                cols = {
                    f.name: pa.array([f"{self.model}:{i}" for i in range(n)], type=pa.string())
                    for f in self.fields
                }
                return cols, (n * 10, n * 2)

        return MockLLMBackend()

    rows = [{"doc_id": f"d{i}", "text": f"doc {i}"} for i in range(40)]
    fields = [FieldSpec(name="summary", description="llm summary", pattern=r"(?P<v>.)")]
    out = (
        structured_extract(
            ray.data.from_items(rows),
            fields,
            provider=ProviderSpec(model="gpt-4.1-mini", base_url="https://openrouter.ai/api/v1"),
            backend_factory=mock_backend_factory,
            emit_usage=True,
            batch_size=8,
            concurrency=2,
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    assert len(out) == 40
    assert out["summary"].str.startswith("gpt-4.1-mini:").all()
    # usage triple per row: batches of 8 -> 80 prompt / 16 completion
    assert (out["usage_prompt_tokens"] == 80).all()
    assert (out["usage_total_tokens"] == 96).all()
