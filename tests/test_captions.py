"""Caption mining (ops/captions.py)."""

from fetch_engines_ray.ops.captions import _clip_head, _clip_tail, mine_caption_pairs


def _span(kind, text="", media_ref=""):
    return {"kind": kind, "text": text, "media_ref": media_ref}


def _docs_ds():
    import ray.data

    return ray.data.from_items(
        [
            {
                "doc_id": "d1",
                "out_spans": [
                    _span("text", "Intro paragraph before the figure."),
                    _span("image", media_ref="media://d1/1"),
                    _span("text", "Figure 1: the caption right after."),
                    _span("video", media_ref="media://d1/3"),
                ],
            },
            {
                "doc_id": "d2",
                "out_spans": [
                    _span("image", media_ref="media://d2/0"),  # no text at all
                ],
            },
            {
                "doc_id": "d3",
                "out_spans": [
                    _span("text", "Only text, no media."),
                ],
            },
        ]
    )


def test_mine_caption_pairs_adjacency(ray_session):
    out = mine_caption_pairs(_docs_ds()).to_pandas().set_index("media_ref")
    img = out.loc["media://d1/1"]
    assert img["caption_before"] == "Intro paragraph before the figure."
    assert img["caption_after"] == "Figure 1: the caption right after."
    assert img["caption"] == img["caption_after"] and img["caption_source"] == "after"
    vid = out.loc["media://d1/3"]
    # nothing after the trailing video -> falls back to the preceding text
    assert vid["caption"] == "Figure 1: the caption right after."
    assert vid["caption_source"] == "before"
    lonely = out.loc["media://d2/0"]
    assert lonely["caption"] == "" and lonely["caption_source"] == "none"
    assert "d3" not in set(out["doc_id"])  # text-only docs emit nothing


def test_mine_caption_pairs_require_caption(ray_session):
    out = mine_caption_pairs(_docs_ds(), require_caption=True).to_pandas()
    assert "media://d2/0" not in set(out["media_ref"])
    assert len(out) == 2


def test_caption_clipping_word_boundaries():
    text = "alpha beta gamma delta epsilon"
    assert _clip_head(text, 12) == "alpha beta"
    assert _clip_tail(text, 14) == "delta epsilon"
    assert _clip_head("short", 100) == "short"
    assert _clip_tail("  padded  ", 100) == "padded"


def test_mine_caption_pairs_kind_filter(ray_session):
    out = mine_caption_pairs(_docs_ds(), kinds=("image",)).to_pandas()
    assert set(out["kind"]) == {"image"}
