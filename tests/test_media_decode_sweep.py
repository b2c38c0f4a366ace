"""Every-sweep media-decode assertions over extraction output (the
retired ``media_decode`` registry slot made room for the SQL-oracled
``neardup_cluster_verdicts``).

ALL image/audio/video spans of the synthetic extraction corpus must
decode and fingerprint through ``curate_media``'s fingerprint stage
(the PNG / RIFF-PCM / GIF-LZW codecs actually parsed the planted
payloads — a silent fallback to ``ok=0`` fails here).
"""
import pytest


@pytest.fixture(scope="module")
def extracted(ray_session, tmp_path_factory):
    from fetch_engines_ray.corpus.generate import generate_corpus
    from fetch_engines_ray.pipelines.extract import extract_corpus

    path = str(tmp_path_factory.mktemp("mdsweep") / "corpus")
    generate_corpus(path, num_docs=120, seed=42, rows_per_file=60)
    return extract_corpus(path).materialize()


def test_media_decode_all_real(extracted, ray_session):
    from fetch_engines_ray.ops.multimodal import media_spans_dataset
    from fetch_engines_ray.pipelines.mmcurate import MediaRefFingerprinter

    spans = media_spans_dataset(extracted)
    out = spans.map_batches(
        MediaRefFingerprinter, batch_format="pyarrow", batch_size=64, concurrency=2
    ).to_pandas()
    img = out[out["kind"] == "image"]
    assert len(img) > 0 and (img["ok"] == 1).all(), img["ok"].value_counts().to_dict()
    assert (img["width"] > 0).all() and (img["height"] > 0).all()
    aud = out[out["kind"] == "audio"]
    assert len(aud) > 0 and (aud["ok"] == 1).all()
    assert (aud["duration_ms"] > 0).all()
    vid = out[out["kind"] == "video"]
    assert len(vid) > 0 and (vid["ok"] == 1).all(), vid["ok"].value_counts().to_dict()
    assert (vid["width"] > 0).all() and (vid["height"] > 0).all()
    assert (vid["duration_ms"] > 0).all()
