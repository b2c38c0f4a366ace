"""The closed loop: crawl archive → extraction → documents table →
curation chain → packed sequences."""

import numpy as np

import ray.data

from fetch_engines_ray.pipelines.curate import curate_corpus
from fetch_engines_ray.pipelines.ingest import (
    DOCUMENTS_SCHEMA,
    extracted_to_documents,
    ingest_corpus,
)
from fetch_engines_ray.sources.warc import read_warc, write_warc


def _pages(n=12, seed=4):
    rng = np.random.RandomState(seed)
    stop = "the be to of and that have with".split()
    words = stop + [f"word{i:03d}xx" for i in range(40)]
    recs = []
    for i in range(n):
        body = " ".join(rng.choice(words, size=rng.randint(60, 90)))
        recs.append(
            {
                "url": f"https://ex.com/p{i}",
                "html": f"<html><head><title>P{i}</title></head><body><main>"
                f"<h1>Page {i}</h1><p>{body}</p></main></body></html>",
            }
        )
    return recs


def test_warc_to_packed_sequences(ray_session, tmp_path):
    recs = _pages()
    # an exact duplicate page (same URL: M22's injected Source line is
    # part of the text, so only a true re-crawl is an exact dup)
    recs.append(dict(recs[0]))
    # and a NEAR duplicate (same URL, one word changed) — exercises the
    # near-dup drop keyed on the bridge's doc_int_id column
    recs.append(dict(recs[1], html=recs[1]["html"].replace("word", "ward", 1)))
    write_warc(recs, str(tmp_path / "crawl.warc"))

    docs = ingest_corpus(read_warc(str(tmp_path / "crawl.warc")))
    assert docs.schema().names == DOCUMENTS_SCHEMA.names
    table = docs.to_pandas()
    assert len(table) == len(recs)
    assert (table["n_chars"] > 0).all()
    assert table["doc_int_id"].is_unique
    # page body text survived extraction into the flat text
    text0 = table.set_index("doc_id").loc["crawl.warc:0", "text"]
    # heading + M22 source-URL injection both survive the flatten
    assert text0.startswith("# Page 0") and "Source: https://ex.com/p0" in text0

    packed = curate_corpus(
        docs, max_tokens=128, id_col="doc_int_id"
    ).to_pandas()
    packed_ids = sorted(d for ids in packed["doc_ids"] for d in ids)
    # exact clone collapsed AND near-dup dropped: two docs gone
    assert len(packed_ids) == len(recs) - 2
    assert len(set(packed_ids)) == len(packed_ids)
    # exactly one of the near-dup pair survives
    iid = table.set_index("doc_id")["doc_int_id"]
    near_pair = {iid["crawl.warc:1"], iid[f"crawl.warc:{len(recs) - 1}"]}
    assert len(near_pair & set(packed_ids)) == 1
    ok = packed[~packed["oversize"]]
    assert (ok["total_tokens"] <= 128).all()


def test_extracted_to_documents_handles_missing_base_url(ray_session):
    import pyarrow as pa

    tbl = pa.table(
        {
            "doc_id": ["x"],
            "out_spans": [
                [
                    {"kind": "text", "text": "hello world", "media_ref": "", "order": 0},
                    {"kind": "image", "text": "", "media_ref": "m1", "order": 1},
                    {"kind": "text", "text": "tail", "media_ref": "", "order": 2},
                ]
            ],
        }
    )
    out = extracted_to_documents(ray.data.from_arrow(tbl)).take_all()
    assert out[0]["text"] == "hello world\n\ntail"  # media spans excluded
    assert out[0]["base_url"] == ""
