"""OpenAI-compatible HTTP backend for the structured-extraction LLM
slot, driven end to end against a local mock server (no external
network): provider request shape, header handling, typed decode, usage
accounting + budget cap through the actor pool, and the reference's
rich error-decoding contract (StructuredContentEngine.ts:169-384).
"""
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pandas as pd
import pyarrow as pa
import pytest

from fetch_engines_ray.stages.llm_backend import (
    OpenAICompatibleBackend,
    StructuredExtractionError,
    openai_backend_factory,
)
from fetch_engines_ray.stages.structured import FieldSpec, ProviderSpec

FIELDS = [
    FieldSpec("title", "The product title", r"(?P<v>.)", pa.string()),
    FieldSpec("price", "The numeric price in dollars", r"(?P<v>.)", pa.float64()),
]


class _MockProvider:
    """Threaded OpenAI-compatible mock: answers chat/completions by
    actually 'extracting' title/price from the prompt's content tail,
    so different documents produce different structured objects.
    Special content markers switch failure modes."""

    def __init__(self):
        self.requests: list = []
        self.throttled = False
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):
                pass

            def do_POST(self):
                body = json.loads(
                    self.rfile.read(int(self.headers["Content-Length"]))
                )
                outer.requests.append(
                    {"path": self.path, "headers": dict(self.headers), "body": body}
                )
                prompt = body["messages"][0]["content"]
                content = prompt.split("Content to analyze:\n", 1)[1]
                if "MODE_HTTP_500" in content:
                    self.send_response(500)
                    self.end_headers()
                    self.wfile.write(b'{"error": "boom"}')
                    return
                if "MODE_RETRY_AFTER_ONCE" in content and not outer.throttled:
                    outer.throttled = True
                    self.send_response(429)
                    self.send_header("Retry-After", "1")
                    self.end_headers()
                    self.wfile.write(b'{"error": "slow down"}')
                    return
                if "MODE_NOT_JSON" in content:
                    obj_text = "sorry, I cannot do that"
                elif "MODE_WEIRD_KEYS" in content:
                    obj_text = json.dumps({".title": "x", "the price": 1})
                elif "MODE_STRING_PRICE" in content:
                    obj_text = json.dumps({"title": "x", "price": "$19.99"})
                else:
                    m = re.search(r"titled (\w+) costing (\d+)", content)
                    obj_text = json.dumps(
                        {"title": m.group(1), "price": float(m.group(2))}
                    )
                payload = {
                    "choices": [
                        {"message": {"content": obj_text}, "finish_reason": "stop"}
                    ],
                    "usage": {
                        "prompt_tokens": 7,
                        "completion_tokens": 3,
                        "total_tokens": 10,
                    },
                }
                data = json.dumps(payload).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}/v1"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def provider(monkeypatch):
    monkeypatch.setenv("FER_TEST_LLM_KEY", "sk-test-123")
    srv = _MockProvider()
    yield srv
    srv.stop()


def _spec(srv, **kw) -> ProviderSpec:
    return ProviderSpec(
        model=kw.pop("model", "gpt-4.1-mini"),
        base_url=srv.base_url,
        api_key_env="FER_TEST_LLM_KEY",
        **kw,
    )


def test_backend_extracts_typed_values_and_usage(provider):
    be = OpenAICompatibleBackend(_spec(provider), FIELDS)
    text = pa.chunked_array(
        [["a product titled Widget costing 12", "one titled Gizmo costing 7"]]
    )
    cols, (p, c) = be.extract(text)
    assert cols["title"].to_pylist() == ["Widget", "Gizmo"]
    assert cols["price"].to_pylist() == [12.0, 7.0]
    assert (p, c) == (14, 6)  # accumulated over both rows
    # request shape: endpoint, bearer auth, json_object response format,
    # gpt-4.1 model knob (temperature 0 — getModelConfig ts:389-404),
    # and the prompt carries the field guidance lines
    req = provider.requests[0]
    assert req["path"] == "/v1/chat/completions"
    assert req["headers"]["Authorization"] == "Bearer sk-test-123"
    assert req["body"]["response_format"] == {"type": "json_object"}
    assert req["body"]["temperature"] == 0
    prompt = req["body"]["messages"][0]["content"]
    assert "- title: The product title" in prompt
    assert "- price: The numeric price in dollars" in prompt


def test_backend_custom_headers_and_prompt(provider):
    be = OpenAICompatibleBackend(
        _spec(
            provider,
            headers=(("X-Org", "acme"),),
            custom_prompt="Prices are USD.",
        ),
        FIELDS,
    )
    be.extract(pa.chunked_array([["a product titled Cog costing 3"]]))
    req = provider.requests[-1]
    assert req["headers"]["X-Org"] == "acme"
    assert req["headers"]["Authorization"] == "Bearer sk-test-123"
    assert "Additional context: Prices are USD." in req["body"]["messages"][0]["content"]


def test_backend_missing_api_key_error(monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    monkeypatch.delenv("OPENROUTER_API_KEY", raising=False)
    monkeypatch.delenv("FER_NO_SUCH_KEY", raising=False)
    with pytest.raises(ValueError, match="API key is required"):
        OpenAICompatibleBackend(
            ProviderSpec(api_key_env="FER_NO_SUCH_KEY", base_url="http://x/v1"),
            FIELDS,
        )


def test_backend_custom_key_env_never_falls_back(provider, monkeypatch):
    """A spec naming its own key variable fails when that variable is
    unset: the OpenAI / OpenRouter keys in the environment never reach
    its custom base_url.  A spec naming one of those two still falls
    back to the other."""
    import dataclasses

    monkeypatch.delenv("FER_TEST_LLM_KEY")
    monkeypatch.setenv("OPENAI_API_KEY", "sk-openai-secret")
    monkeypatch.setenv("OPENROUTER_API_KEY", "sk-router-secret")
    with pytest.raises(ValueError, match="FER_TEST_LLM_KEY environment variable$"):
        OpenAICompatibleBackend(_spec(provider), FIELDS)
    assert provider.requests == []

    monkeypatch.delenv("OPENAI_API_KEY")
    spec = dataclasses.replace(_spec(provider), api_key_env="OPENAI_API_KEY")
    OpenAICompatibleBackend(spec, FIELDS).extract(
        pa.chunked_array([["a product titled Cog costing 3"]])
    )
    assert provider.requests[-1]["headers"]["Authorization"] == "Bearer sk-router-secret"


def test_backend_error_decoding(provider):
    be = OpenAICompatibleBackend(_spec(provider), FIELDS)
    with pytest.raises(StructuredExtractionError, match="not valid JSON"):
        be.extract(pa.chunked_array([["MODE_NOT_JSON"]]))
    with pytest.raises(StructuredExtractionError, match="Key mismatch detected"):
        be.extract(pa.chunked_array([["MODE_WEIRD_KEYS"]]))
    with pytest.raises(
        StructuredExtractionError, match="returned as strings but expected as numbers"
    ):
        be.extract(pa.chunked_array([["MODE_STRING_PRICE"]]))
    with pytest.raises(RuntimeError, match="HTTP 500"):
        # 500 retries max_attempts times, then surfaces
        OpenAICompatibleBackend(_spec(provider), FIELDS, retry_delay_s=0.0).extract(
            pa.chunked_array([["MODE_HTTP_500"]])
        )


def test_backend_waits_for_retry_after(provider):
    """A 429 carrying ``Retry-After: 1`` waits at least that long, not
    the (much shorter) ladder step, then the retry succeeds."""
    import time

    be = OpenAICompatibleBackend(_spec(provider), FIELDS, retry_delay_s=0.01)
    t0 = time.monotonic()
    cols, _ = be.extract(
        pa.chunked_array([["MODE_RETRY_AFTER_ONCE titled Widget costing 12"]])
    )
    assert time.monotonic() - t0 >= 1.0
    assert cols["title"].to_pylist() == ["Widget"]
    assert len(provider.requests) == 2


def test_actor_pool_extraction_with_usage_and_budget(provider, ray_session):
    """The full A9 slot: structured_extract drives the HTTP backend
    through the actor pool with usage columns, and the cumulative
    token-budget cap trips exactly as with the deterministic backend."""
    import ray.data

    from fetch_engines_ray.stages.structured import structured_extract

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3],
                "text": [
                    "a product titled Widget costing 12",
                    "a product titled Gizmo costing 7",
                    "a product titled Cog costing 3",
                ],
            }
        )
    )
    # actors are separate processes: the key ships via runtime_env, the
    # same mechanism a real cluster uses (driver-local env changes do
    # not propagate to already-started Ray workers)
    env_args = {
        "runtime_env": {"env_vars": {"FER_TEST_LLM_KEY": "sk-test-123"}}
    }
    out = (
        structured_extract(
            docs,
            FIELDS,
            provider=_spec(provider),
            backend_factory=openai_backend_factory,
            emit_usage=True,
            concurrency=1,
            batch_size=2,
            ray_remote_args=env_args,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["title"].tolist() == ["Widget", "Gizmo", "Cog"]
    assert out["price"].tolist() == [12.0, 7.0, 3.0]
    # usage is per-batch: total = 10 tokens/row accumulated per batch
    assert set(out["usage_total_tokens"]) <= {10, 20}

    import ray as ray_mod

    capped = structured_extract(
        docs,
        FIELDS,
        provider=_spec(provider, max_total_tokens=15),
        backend_factory=openai_backend_factory,
        concurrency=1,
        batch_size=1,
        ray_remote_args=env_args,
    )
    with pytest.raises(ray_mod.exceptions.RayTaskError, match="token budget exhausted"):
        capped.to_pandas()
