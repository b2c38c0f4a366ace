"""Perceptual image hashing (ops/imagehash.py): pooling parity vs a
naive reference, dHash invariances, and lossless hamming LSH pairing
with planted duplicate images."""

import numpy as np
import pytest

from fetch_engines_ray.ops.imagehash import dhash64, hamming64, pool_mean, to_grayscale
from fetch_engines_ray.ops.png import encode_png, planted_pixels


def _naive_pool(g, oh, ow):
    h, w = g.shape
    out = np.zeros((oh, ow), dtype=np.int64)
    for i in range(oh):
        for j in range(ow):
            y0, y1 = (i * h) // oh, ((i + 1) * h) // oh
            x0, x1 = (j * w) // ow, ((j + 1) * w) // ow
            cell = g[y0:y1, x0:x1].astype(np.int64)
            out[i, j] = cell.sum() // cell.size
    return out


def test_pool_mean_matches_naive_reference():
    rng = np.random.RandomState(7)
    for h, w in [(8, 9), (16, 18), (23, 31), (100, 64), (9, 10)]:
        g = rng.randint(0, 256, size=(h, w), dtype=np.uint8).astype(np.int64)
        for oh, ow in [(8, 9), (8, 8), (4, 4)]:
            assert np.array_equal(pool_mean(g, oh, ow), _naive_pool(g, oh, ow)), (h, w, oh, ow)


def test_pool_mean_upsamples_small_images():
    g = np.arange(12, dtype=np.int64).reshape(3, 4)  # smaller than the grid
    out = pool_mean(g, 8, 9)
    assert out.shape == (8, 9)
    assert out.min() >= 0 and out.max() <= 11


def test_grayscale_bt601_integer():
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 0, 0)
    rgb[0, 1] = (0, 255, 0)
    rgb[1, 0] = (0, 0, 255)
    rgb[1, 1] = (255, 255, 255)
    g = to_grayscale(rgb)
    assert g[0, 0] == (299 * 255) // 1000
    assert g[0, 1] == (587 * 255) // 1000
    assert g[1, 0] == (114 * 255) // 1000
    assert g[1, 1] == 255


def test_dhash_deterministic_and_64bit():
    px = planted_pixels(17)
    h1, h2 = dhash64(px), dhash64(px.copy())
    assert h1 == h2
    assert 0 <= h1 < 2**64


def test_dhash_invariant_to_uniform_brightness_shift():
    """Gradients are preserved by a uniform shift without clipping."""
    rng = np.random.RandomState(3)
    px = rng.randint(40, 200, size=(32, 48), dtype=np.uint8)
    shifted = (px.astype(np.int64) + 20).astype(np.uint8)
    assert dhash64(px) == dhash64(shifted)


def test_dhash_invariant_to_reencoding():
    """Same pixels through different PNG row-filter encodings decode
    identically, so the hash cannot move."""
    from fetch_engines_ray.ops.png import decode_png

    rng = np.random.RandomState(5)
    px = rng.randint(0, 256, size=(24, 24), dtype=np.uint8)
    h_direct = dhash64(px)
    for filters in [[0], [2], [4, 3, 2, 1, 0]]:
        dec = decode_png(encode_png(px, row_filters=filters))
        assert dhash64(dec["pixels"]) == h_direct


def test_dhash_separates_distinct_content():
    rng = np.random.RandomState(11)
    a = rng.randint(0, 256, size=(32, 32), dtype=np.uint8)
    b = rng.randint(0, 256, size=(32, 32), dtype=np.uint8)
    d = hamming64(np.array([np.uint64(dhash64(a)).astype(np.int64)]),
                  np.array([np.uint64(dhash64(b)).astype(np.int64)]))[0]
    assert d > 3  # independent noise images land far apart


def test_hamming64_vectorized_popcount():
    a = np.array([0, -1, 0b1011], dtype=np.int64)
    b = np.array([0, -1, 0b0011], dtype=np.int64)
    assert hamming64(a, b).tolist() == [0, 0, 1]
    assert hamming64(np.array([0], dtype=np.int64), np.array([-1], dtype=np.int64))[0] == 64


def test_hamming64_pairs_rejects_lossy_threshold():
    import ray.data

    from fetch_engines_ray.ops.imagehash import hamming64_pairs

    with pytest.raises(ValueError):
        hamming64_pairs(ray.data.from_items([{"doc_id": 1, "dhash": 0}]), max_hamming=4)


def test_pairs_compose_with_dedup_clusters(ray_session):
    """The pair frame feeds the existing cluster resolution unchanged."""
    import ray.data

    from fetch_engines_ray.ops.dedup import dedup_clusters
    from fetch_engines_ray.ops.imagehash import hamming64_pairs
    from fetch_engines_ray.ops.png import decode_png

    base = planted_pixels(41)
    big = np.tile(base, (8, 8))  # big enough for stable pooling
    payloads = {
        10: encode_png(big),
        11: encode_png(big, row_filters=[1]),
        12: encode_png(np.tile(planted_pixels(97), (8, 8))),
    }
    rows = [
        {"doc_id": d, "dhash": int(np.uint64(dhash64(decode_png(p)["pixels"])).astype(np.int64))}
        for d, p in payloads.items()
    ]
    pairs = hamming64_pairs(ray.data.from_items(rows))
    clusters = dedup_clusters(pairs)
    lab = dict(zip(clusters["doc_id"], clusters["cluster_rep"]))
    assert lab.get(10) == lab.get(11)
    assert 12 not in lab or lab[12] != lab[10]


def test_hamming64_pairs_lossless_vs_bruteforce(ray_session):
    """Pigeonhole losslessness: banded LSH pairs == exact all-pairs
    hamming <= 3 on random hashes with planted low-distance perturbations."""
    import ray.data

    from fetch_engines_ray.ops.imagehash import hamming64_pairs

    rng = np.random.RandomState(71)
    hashes = rng.randint(-(2**63), 2**63, size=60, dtype=np.int64)
    # plant perturbations at hamming 1..4 of earlier rows (4 must NOT pair)
    for i, flips in [(50, 1), (51, 2), (52, 3), (53, 4)]:
        h = np.uint64(hashes[i - 50])
        for b in rng.choice(64, size=flips, replace=False):
            h ^= np.uint64(1) << np.uint64(int(b))
        hashes[i] = np.int64(h)
    ds = ray.data.from_items(
        [{"doc_id": int(i), "dhash": int(h)} for i, h in enumerate(hashes)]
    )
    got = hamming64_pairs(ds, hash_col="dhash", max_hamming=3)
    got_set = {(int(a), int(b)) for a, b in zip(got["doc_a"], got["doc_b"])}
    expect = set()
    u = hashes.view(np.uint64)
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if bin(int(u[i] ^ u[j])).count("1") <= 3:
                expect.add((i, j))
    assert got_set == expect
    assert {(0, 50), (1, 51), (2, 52)} <= expect and (3, 53) not in expect
