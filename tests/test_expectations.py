"""Data-quality gates (ops/expectations.py): each check fires on a
planted violation and passes on clean data."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def dirty_ds(ray_session):
    import ray.data

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3, 3],  # duplicate id
            "lang": ["en", "de", "xx", "en", None],  # null
            "score": [0.5, 1.5, 0.2, 0.9, 0.1],
        }
    )
    return ray.data.from_pandas(df).repartition(3)


def test_checks_fire_on_planted_violations(dirty_ds):
    from fetch_engines_ray.ops import expectations as ex

    report = ex.validate(
        dirty_ds,
        [
            ex.not_null("lang"),
            ex.unique("doc_id"),
            ex.row_count(1, 100),
            ex.row_count(6),
        ],
    )
    by = dict(zip(report["check"], report["ok"]))
    assert not by["not_null(lang)"]
    assert not by["unique(doc_id)"]
    assert by["row_count[1,100]"]
    assert not by[f"row_count[6,{1 << 62}]"]
    obs = dict(zip(report["check"], report["observed"]))
    assert obs["not_null(lang)"] == 1
    assert obs["unique(doc_id)"] == 1  # one duplicate


def test_clean_data_passes(ray_session):
    import ray.data

    from fetch_engines_ray.ops import expectations as ex

    df = pd.DataFrame({"doc_id": range(50), "score": np.linspace(0, 1, 50)})
    ds = ray.data.from_pandas(df).repartition(4)
    report = ex.validate(
        ds, [ex.not_null("doc_id"), ex.unique("doc_id"), ex.row_count(50, 50)]
    )
    assert report["ok"].all()


def test_gate_between_pipeline_stages(ray_session):
    """The intended composition: the gates ``scripts/job_entry.py``'s
    datacard runs pass on a real documents table."""
    import ray.data

    from fetch_engines_ray.ops import expectations as ex

    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    report = ex.validate(
        docs,
        [
            ex.not_null("doc_id"),
            ex.unique("doc_id"),
            ex.not_null("text"),
            ex.row_count(1, 10_000_000),
        ],
    )
    assert report["ok"].all()
