"""Training-data ops: dedup / similarity / text analysis / multimodal."""

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_translate_ray.functions import dedup, multimodal, similarity, text


@pytest.fixture()
def docs_ds(ray_session, sf_dir):
    import ray.data as rd
    return rd.read_parquet(f"{sf_dir}/documents.parquet")


@pytest.fixture()
def emb_ds(ray_session, sf_dir):
    import ray.data as rd
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet")


def test_exact_dedup_removes_duplicates(ray_session):
    import ray.data as rd
    tbl = pa.table({"doc_id": [3, 1, 2, 4],
                    "text": ["same", "same", "other", "third"]})
    out = dedup.exact_dedup(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2, 4]   # min-id kept


def test_exact_dedup_no_dupes_is_identity(docs_ds):
    n = docs_ds.count()
    assert dedup.exact_dedup(docs_ds).count() == n


def test_minhash_finds_near_duplicates(ray_session):
    import ray.data as rd
    base = "the quick brown fox jumps over the lazy dog again and again ok"
    near = base.replace("lazy", "sleepy")
    far = "completely different content about ray data pipelines at scale"
    tbl = pa.table({"doc_id": [1, 2, 3], "text": [base, near, far]})
    ds = rd.from_arrow(tbl)
    deduped, dropped = dedup.minhash_dedup(ds, threshold=0.5, concurrency=1)
    assert dropped == [2]
    assert sorted(deduped.to_pandas()["doc_id"]) == [1, 3]


def simhash64(text: str) -> int:
    """Scalar 64-bit SimHash over one text: the reference the banded
    SimHash pairs are checked against."""
    wh, _ = dedup._hash_words_batch([text])
    if not len(wh):
        return 0
    bits = ((wh[:, None] >> np.arange(64, dtype=np.uint64)) &
            np.uint64(1)).astype(np.int64)          # T × 64
    acc = (2 * bits - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) <<
                np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


def test_simhash_near_texts_close(ray_session):
    a = simhash64("the quick brown fox jumps over the lazy dog")
    b = simhash64("the quick brown fox jumps over the sleepy dog")
    c = simhash64("entirely unrelated words about databases and planes")
    assert hamming64(a, b) < hamming64(a, c)


def test_simhash_dataset_column(docs_ds):
    out = dedup.simhash_dataset(docs_ds.limit(50)).to_pandas()
    assert out["simhash"].nunique() > 1


def test_ngram_jaccard_pairs(ray_session):
    import ray.data as rd
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    near = "alpha beta gamma delta epsilon zeta eta theta iota lambda"
    tbl = pa.table({"doc_id": [1, 2, 3],
                    "text": [base, near, "unrelated text entirely here now"]})
    pairs = dedup.ngram_jaccard_pairs(rd.from_arrow(tbl), threshold=0.4,
                                      concurrency=1)
    assert {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])} == {(1, 2)}


def test_brute_force_topk_matches_numpy(emb_ds):
    tbl = emb_ds.to_pandas()
    m = np.stack(tbl["embedding"].to_numpy())
    q = m[0]
    got = similarity.brute_force_topk(emb_ds, q, k=5)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    want_ids = tbl["vec_id"].to_numpy()[np.argsort(-(mn @ qn))[:5]]
    assert got["vec_id"].tolist() == want_ids.tolist()
    assert got["score"].iloc[0] == pytest.approx(1.0, abs=1e-5)


def test_lsh_topk_contains_self(emb_ds):
    tbl = emb_ds.to_pandas()
    q = np.stack(tbl["embedding"].to_numpy())[0]
    got = similarity.lsh_topk(emb_ds, q, k=5, n_planes=6, concurrency=1)
    assert int(tbl["vec_id"].iloc[0]) in got["vec_id"].tolist()


def test_token_count(docs_ds):
    out = text.token_count_dataset(docs_ds.limit(20)).to_pandas()
    row = out.iloc[0]
    assert row["n_tokens_ws"] == len(row["text"].split())
    assert row["n_tokens_bpe"] >= row["n_tokens_ws"]


def test_quality_scores_bounded(docs_ds):
    out = text.quality_dataset(docs_ds.limit(50)).to_pandas()
    assert ((out["quality_score"] >= 0) & (out["quality_score"] <= 1)).all()
    assert ((out["punct_ratio"] >= 0) & (out["stop_ratio"] >= 0)).all()


def test_langid_heuristic(ray_session):
    import ray.data as rd
    tbl = pa.table({"text": [
        "the cat and the dog sat with you",
        "der Hund und die Katze ist nicht da",
        "le chat est avec la souris je pense",
        "el perro y los gatos no es una cosa",
        "你好世界这是中文",
        "zzz qqq",
    ]})
    out = text.langid_dataset(rd.from_arrow(tbl)).to_pandas()
    assert out["lang_pred"].tolist() == ["en", "de", "fr", "es", "zh", "und"]


def test_fingerprint_deterministic(docs_ds):
    a = text.fingerprint_dataset(docs_ds.limit(10)).to_pandas()
    b = text.fingerprint_dataset(docs_ds.limit(10)).to_pandas()
    assert a["fingerprint"].tolist() == b["fingerprint"].tolist()
    assert a["fingerprint"].nunique() == 10


def make_fake_media(n: int, seed: int = 42,
                    payload_size: int = 4096) -> pa.Table:
    """Deterministic synthetic media table (random payload bytes)."""
    rng = np.random.RandomState(seed)
    payloads = [rng.randint(0, 256, payload_size).astype(np.uint8).tobytes()
                for _ in range(n)]
    types = np.array(["image", "audio", "video"])[rng.randint(0, 3, n)]
    return pa.table({
        "media_id": pa.array(np.arange(n), type=pa.int64()),
        "payload": pa.array(payloads, type=pa.binary()),
        "media_type": pa.array(types.astype(object), type=pa.string()),
        "width": pa.array(rng.randint(16, 512, n), type=pa.int32()),
        "height": pa.array(rng.randint(16, 512, n), type=pa.int32()),
        "sample_rate": pa.array(rng.choice([8000, 16000, 44100], n),
                                type=pa.int32()),
    }, schema=multimodal.MEDIA_SCHEMA)


def encode_wav(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """int16 mono samples → 16-bit PCM WAV."""
    body = samples.astype("<i2").tobytes()
    hdr = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(body),
                      b"WAVE", b"fmt ", 16, 1, 1, sample_rate,
                      sample_rate * 2, 2, 16, b"data", len(body))
    return hdr + body


def resized(ds, **kw) -> pd.DataFrame:
    """``ResizeStage`` over a Dataset, as ``q_multimodal_real_decode``
    runs it."""
    return ds.map_batches(multimodal.ResizeStage(**kw),
                          batch_format="pyarrow",
                          batch_size=multimodal.DEFAULT_MEDIA_BATCH_SIZE) \
        .to_pandas()


def test_multimodal_decode_stage(ray_session):
    import ray.data as rd
    media = make_fake_media(100)
    ds = rd.from_arrow(media)
    out = multimodal.decode_features_dataset(ds).to_pandas()
    assert len(out) == 100
    assert (out["payload_bytes"] == 4096).all()
    assert out["features"].map(len).eq(8).all()
    # deterministic across runs
    out2 = multimodal.decode_features_dataset(rd.from_arrow(media)) \
        .to_pandas()
    assert out["payload_digest"].tolist() == out2["payload_digest"].tolist()


def test_multimodal_resize_stage(ray_session):
    import ray.data as rd
    out = resized(rd.from_arrow(make_fake_media(20)), max_side=128)
    assert (out[["resized_width", "resized_height"]].max(axis=1) <= 128).all()


def test_resize_metadata_path_null_dims():
    """Null/zero metadata dims must yield 0, never NaN→int32 garbage
    (ADVICE r3 — the guard now covers the metadata-only branch too)."""
    tbl = pa.table({
        "media_id": pa.array([1, 2, 3], type=pa.int64()),
        "payload": pa.array([b"x", b"y", b"z"], type=pa.binary()),
        "media_type": pa.array(["image"] * 3),
        "width": pa.array([None, 0, 100], type=pa.int32()),
        "height": pa.array([50, 0, 200], type=pa.int32()),
        "sample_rate": pa.nulls(3, pa.int32()),
    })
    out = multimodal.ResizeStage(max_side=64)(tbl)
    assert out["resized_width"].to_pylist() == [0, 0, 32]
    assert out["resized_height"].to_pylist() == [0, 0, 64]


def test_multimodal_real_codecs_gated():
    """The gate is now per-PAYLOAD: uncompressed formats decode for real,
    compressed codec payloads still raise clearly."""
    stage = multimodal.DecodeFeatureStage(use_real_codecs=True)
    with pytest.raises(NotImplementedError):
        stage._real_features(b"\xff\xd8\xff\xe0 fake jpeg bytes")


def test_embedding_neardup_matches_bruteforce(emb_ds):
    import numpy as np
    from logstash_filter_translate_ray.functions.similarity import (
        embedding_neardup_pairs)
    got = embedding_neardup_pairs(emb_ds, threshold=0.4)
    tbl = emb_ds.to_pandas()
    m = np.stack(tbl["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    s = m @ m.T
    ids = tbl["vec_id"].to_numpy()
    want = sorted((int(ids[i]), int(ids[j]))
                  for i in range(len(ids)) for j in range(len(ids))
                  if ids[i] < ids[j] and s[i, j] >= 0.4)
    assert list(zip(got["id_a"], got["id_b"])) == want


def test_csv_json_transcript_sources(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.csv as pacsv
    import json as _json
    from logstash_filter_translate_ray.sources import make_transcripts
    from logstash_filter_translate_ray.sources.readers import (
        read_transcripts_csv, read_transcripts_json)
    from logstash_filter_translate_ray.pipelines import build_enriched_dataset

    tbl = make_transcripts(500, seed=7)
    csv_path = str(tmp_path / "t.csv")
    pacsv.write_csv(tbl, csv_path)
    out_csv = build_enriched_dataset(read_transcripts_csv(csv_path)).to_pandas()
    assert len(out_csv) == 500 and "route" in out_csv.columns

    json_path = str(tmp_path / "t.jsonl")
    with open(json_path, "w") as f:
        for r in tbl.to_pylist():
            r["ts"] = r["ts"].isoformat()
            f.write(_json.dumps(r) + "\n")
    out_json = build_enriched_dataset(read_transcripts_json(json_path)).to_pandas()
    assert len(out_json) == 500
    assert sorted(out_json["conv_id"]) == sorted(out_csv["conv_id"])


def test_ivf_topk_contains_self_and_close_to_exact(emb_ds):
    from logstash_filter_translate_ray.functions.similarity import (
        brute_force_topk, ivf_topk)
    tbl = emb_ds.to_pandas()
    q = np.stack(tbl["embedding"].to_numpy())[0]
    approx = ivf_topk(emb_ds, q, k=5, n_cells=8, n_probe=3)
    exact = brute_force_topk(emb_ds, q, k=5)
    assert int(tbl["vec_id"].iloc[0]) in approx["vec_id"].tolist()
    # decent recall on a small table with 3/8 cells probed
    overlap = set(approx["vec_id"]) & set(exact["vec_id"])
    assert len(overlap) >= 2


def test_winnow_shared_substring_guarantee(ray_session):
    from logstash_filter_translate_ray.functions.text import winnow_fingerprints
    k, w = 5, 4
    a = "prefix AAA the quick brown fox jumps ZZZ suffix"
    b = "other START the quick brown fox jumps END tail!"
    fa = set(winnow_fingerprints(a, k, w))
    fb = set(winnow_fingerprints(b, k, w))
    assert fa & fb            # shared substring ≥ w+k-1 chars ⇒ shared print
    c = "completely disjoint characters 0123456789"
    assert not (fa & set(winnow_fingerprints(c, k, w)))
    # deterministic
    assert winnow_fingerprints(a, k, w) == winnow_fingerprints(a, k, w)


def test_winnow_dataset_column(docs_ds):
    from logstash_filter_translate_ray.functions.text import winnow_dataset
    out = winnow_dataset(docs_ds.limit(20)).to_pandas()
    assert out["fingerprints"].map(len).gt(0).all()


def test_langid_and_winnow_null_text(ray_session):
    """null ⇔ absent: langid(null) = null (the SQL CASE is guarded the
    same way) and winnow(null) = null list, not []."""
    import ray.data as rd
    from logstash_filter_translate_ray.functions.text import (
        langid_batch, winnow_dataset, winnow_fingerprints)
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                    "text": ["the cat and the hat", None, ""]})
    out = langid_batch(tbl)
    assert out["lang_pred"].to_pylist() == ["en", None, "und"]
    fps = {}                    # arrow iteration: Ray's pandas conversion
    for b in winnow_dataset(rd.from_arrow(tbl)) \
            .iter_batches(batch_format="pyarrow"):   # trips on null lists
        fps.update(zip(b["doc_id"].to_pylist(),
                       b["fingerprints"].to_pylist()))
    assert fps[1] is not None and len(fps[1]) > 0
    assert fps[2] is None                       # null text → null list
    assert fps[3] is not None and len(fps[3]) == 0   # "" → real []
    assert winnow_fingerprints(None) is None    # scalar path parity


def test_embedding_neardup_exact_is_distributed_blockwise(emb_ds):
    """Exact pairs via the block cross-product must equal a local all-pairs
    reference (no driver matrix materialization in the path)."""
    from logstash_filter_translate_ray.functions.similarity import (
        embedding_neardup_pairs)
    got = embedding_neardup_pairs(emb_ds, threshold=0.4, max_blocks=4)
    tbl = emb_ds.to_pandas()
    m = np.stack(tbl["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = tbl["vec_id"].to_numpy()
    sc = m @ m.T
    want = set()
    iu, ju = np.triu_indices(len(ids), 1)
    for i, j in zip(iu[sc[iu, ju] >= 0.4], ju[sc[iu, ju] >= 0.4]):
        want.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    assert {(a, b) for a, b in zip(got["id_a"], got["id_b"])} == want


def test_embedding_neardup_lsh_recall(emb_ds):
    """LSH-blocked variant: ≥90% recall vs exact at the default params, and
    every reported pair must be a true pair with its true cosine
    (precision is exact by construction)."""
    from logstash_filter_translate_ray.functions.similarity import (
        embedding_neardup_pairs, embedding_neardup_pairs_lsh)
    exact = embedding_neardup_pairs(emb_ds, threshold=0.4)
    # the LSH path normalizes in float32 → scores differ by ~1e-7; compare
    # against a slightly loosened exact set for the precision claim
    loose = embedding_neardup_pairs(emb_ds, threshold=0.4 - 1e-5)
    # params matched to the LOW test threshold (c=0.4 → p≈0.63): r=2, L=16
    # gives 1-(1-p²)^L ≈ 0.999 expected recall. The r=4/L=12 defaults are
    # tuned for real near-dup thresholds (c≥0.9).
    approx = embedding_neardup_pairs_lsh(emb_ds, threshold=0.4,
                                         planes_per_table=2, n_tables=16)
    exact_pairs = {(a, b): c for a, b, c in
                   zip(exact["id_a"], exact["id_b"], exact["cosine"])}
    loose_pairs = {(a, b): c for a, b, c in
                   zip(loose["id_a"], loose["id_b"], loose["cosine"])}
    approx_pairs = {(a, b): c for a, b, c in
                    zip(approx["id_a"], approx["id_b"], approx["cosine"])}
    assert set(approx_pairs) <= set(loose_pairs)          # exact precision
    for p, c in approx_pairs.items():
        assert abs(c - loose_pairs[p]) < 1e-5
    recall = len(approx_pairs) / max(1, len(exact_pairs))
    assert recall >= 0.9, f"LSH recall {recall:.3f} < 0.9 ({len(approx_pairs)}/{len(exact_pairs)})"


def test_ivf_centroid_cache_skips_kmeans(emb_ds):
    """Second ivf_topk with the same cache_key must reuse centroids
    (provably: a poisoned cache entry is what the second call returns)."""
    import numpy as np
    from logstash_filter_translate_ray.functions import similarity

    similarity._IVF_CENTROID_CACHE.clear()
    c1 = similarity.build_ivf_centroids(emb_ds, n_cells=4, cache_key="fp-x")
    assert len(similarity._IVF_CENTROID_CACHE) == 1
    c2 = similarity.build_ivf_centroids(emb_ds, n_cells=4, cache_key="fp-x")
    assert c2 is c1                      # same object → k-means skipped
    # poisoned entry is returned verbatim → the cache is authoritative
    key = next(iter(similarity._IVF_CENTROID_CACHE))
    poisoned = np.zeros_like(c1)
    similarity._IVF_CENTROID_CACHE[key] = poisoned
    assert similarity.build_ivf_centroids(emb_ds, n_cells=4,
                                          cache_key="fp-x") is poisoned
    # different fingerprint → rebuild
    c3 = similarity.build_ivf_centroids(emb_ds, n_cells=4, cache_key="fp-y")
    assert c3 is not poisoned and np.allclose(c3, c1)
    similarity._IVF_CENTROID_CACHE.clear()


def test_minlabel_components_matches_union_find(ray_session):
    """Distributed min-label propagation == driver union-find on a random
    graph (chains force multi-round propagation)."""
    import ray.data as rd
    rng = np.random.RandomState(7)
    # several chains + stars + singleton pairs
    pairs = []
    base = 0
    for clen in [2, 3, 5, 8, 13]:          # chains: diameter forces rounds
        for i in range(clen - 1):
            pairs.append((base + i, base + i + 1))
        base += clen
    for _ in range(30):                     # random extra edges
        a, b = rng.randint(0, base, 2)
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    tbl = pa.table({"id_a": pa.array([p[0] for p in pairs], type=pa.int64()),
                    "id_b": pa.array([p[1] for p in pairs], type=pa.int64())})
    comp = dedup.connected_components(pairs)
    roots = {x: r for x, r in comp.items()}
    got = dedup.minlabel_components(rd.from_arrow(tbl)).to_pandas()
    got_map = dict(zip(got["node"], got["label"]))
    assert set(got_map) == set(roots)
    for node, label in got_map.items():
        assert label == roots[node], (node, label, roots[node])


def test_minhash_dedup_distributed_cc_matches_driver(ray_session):
    """cc='distributed' (min-label + anti-join filter) keeps the same
    survivors as the default driver union-find."""
    import ray.data as rd
    base = "the quick brown fox jumps over the lazy dog again and again ok"
    texts = [base, base.replace("lazy", "sleepy"), base.replace("dog", "cat"),
             "completely different content about ray data pipelines at scale",
             "another unrelated document speaking of benchmarks and engines"]
    tbl = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
                    "text": texts})
    ds = rd.from_arrow(tbl)
    kept_drv, drop_drv = dedup.minhash_dedup(ds, threshold=0.5, concurrency=1)
    kept_dist, drop_dist = dedup.minhash_dedup(ds, threshold=0.5,
                                               concurrency=1,
                                               cc="distributed")
    a = sorted(kept_drv.to_pandas()["doc_id"])
    b = sorted(kept_dist.to_pandas()["doc_id"])
    assert a == b
    assert sorted(drop_dist.to_pandas()["node"]) == drop_drv


def test_simhash_pairs_banding_recall(ray_session):
    """Pigeonhole guarantee: hamming ≤ bands-1 pairs ALWAYS share an exact
    band — banded candidates + popcount verify find exactly the brute-force
    hamming ≤ 3 pair set."""
    import itertools
    import ray.data as rd
    base = "the quick brown fox jumps over the lazy dog again and again"
    texts = [base,
             base.replace("lazy", "sleepy"),
             base.replace("dog", "cat").replace("quick", "swift"),
             "completely different content about ray pipelines at scale ok",
             base]                              # exact dup of doc 0
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                    "text": texts})
    got = dedup.simhash_pairs(rd.from_arrow(tbl), max_hamming=3,
                              hot_cap=None).to_pandas()
    sims = {i: simhash64(t) for i, t in enumerate(texts)}
    want = {(a, b): hamming64(sims[a], sims[b])
            for a, b in itertools.combinations(range(len(texts)), 2)
            if hamming64(sims[a], sims[b]) <= 3}
    got_map = {(a, b): h for a, b, h in
               zip(got["id_a"], got["id_b"], got["hamming"])}
    assert got_map == want
    assert (0, 4) in got_map and got_map[(0, 4)] == 0   # the exact dup


# ---------------------------------------------------------------------------
# round-3: arbitrary-k shingles, batch Jaccard, auto CC, convergence warning
# ---------------------------------------------------------------------------

def test_shingle_hashes_arbitrary_k():
    """k > 8 must work (ADVICE r3): multipliers beyond the fixed table come
    from splitmix64; k <= 8 hashes are unchanged by the extension."""
    text = "a b c d e f g h i j k l m n o p"
    for k in (3, 8, 12, 20):    # 20 > word count → single combined shingle
        sh, _ = dedup.shingle_hashes_batch([text], k=k)
        words = len(text.split())
        assert len(sh) == max(words - k + 1, 1)
    # pinned: extending the table must not change small-k hashes
    assert dedup._kgram_mult(3).tolist() == dedup._KGRAM_MULT[:3].tolist()
    assert dedup._kgram_mult(12)[:8].tolist() == dedup._KGRAM_MULT.tolist()
    # distinct positions get distinct odd multipliers
    m = dedup._kgram_mult(32)
    assert len(set(m.tolist())) == 32 and all(v % 2 == 1 for v in m.tolist())


def test_batch_jaccard_matches_scalar():
    """Segmented batch Jaccard == per-pair scalar on every edge shape."""
    rng = np.random.RandomState(7)
    blobs = []
    for _ in range(30):
        n = rng.randint(0, 12)
        vals = np.unique(rng.randint(0, 20, size=n).astype(np.uint64))
        blobs.append(vals.tobytes())
    blobs.append(b"")            # empty set
    a = [blobs[rng.randint(len(blobs))] for _ in range(40)] + [b"", b"x8bytes!"]
    b = [blobs[rng.randint(len(blobs))] for _ in range(40)] + [b"", b""]
    got = dedup._batch_jaccard_from_blobs(a, b)
    want = np.array([dedup._jaccard_from_blobs(x, y) for x, y in zip(a, b)])
    np.testing.assert_allclose(got, want)
    assert dedup._batch_jaccard_from_blobs([], []).shape == (0,)


def test_minhash_dedup_auto_cc(ray_session):
    """cc='auto' picks the driver path under the pair threshold and the
    distributed path above it, with identical survivors."""
    import ray.data as rd
    base = "the quick brown fox jumps over the lazy dog again and again ok"
    rows = {"doc_id": [1, 2, 3],
            "text": [base, base.replace("lazy", "sleepy"),
                     "completely different content about ray data pipelines"]}
    ds = rd.from_arrow(pa.table(rows))
    kept_auto, drop_auto = dedup.minhash_dedup(ds, threshold=0.5,
                                               concurrency=1)  # auto→driver
    assert drop_auto == [2]                    # driver path: a plain list
    # force the distributed branch by dropping the threshold to 0
    old = dedup._CC_DRIVER_MAX_PAIRS
    dedup._CC_DRIVER_MAX_PAIRS = 0
    try:
        kept_dist, drop_dist = dedup.minhash_dedup(ds, threshold=0.5,
                                                   concurrency=1)
    finally:
        dedup._CC_DRIVER_MAX_PAIRS = old
    assert hasattr(drop_dist, "to_pandas")     # distributed path: a Dataset
    assert sorted(kept_dist.to_pandas()["doc_id"]) == \
        sorted(kept_auto.to_pandas()["doc_id"]) == [1, 3]


def test_minlabel_components_warns_when_unconverged(ray_session):
    """A chain whose diameter exceeds max_iters must WARN, not silently
    return under-merged labels (ADVICE r3)."""
    import ray.data as rd
    chain = pa.table({"id_a": [1, 2, 3, 4, 5, 6, 7],
                      "id_b": [2, 3, 4, 5, 6, 7, 8]})
    with pytest.warns(RuntimeWarning, match="did not converge"):
        dedup.minlabel_components(rd.from_arrow(chain), max_iters=1)


def test_winnow_batch_matches_scalar():
    """Batched winnowing == per-doc winnow_fingerprints on every edge
    shape (empty, sub-k, window-sized, long, repeated substrings)."""
    import random, string
    rng = random.Random(42)

    def rand_text(n):
        return "".join(rng.choice("ab cd" + string.ascii_lowercase[:6])
                       for _ in range(n))
    texts = ["", "a", "ab", "abcd", "abcde", "hello world hello world",
             "x" * 3, "x" * 50] + \
        [rand_text(rng.randint(0, 80)) for _ in range(120)]
    for k, w in [(5, 4), (3, 2), (7, 5)]:
        vals, ptr = text.winnow_batch(texts, k, w)
        for i, t in enumerate(texts):
            assert vals[ptr[i]:ptr[i + 1]].tolist() == \
                text.winnow_fingerprints(t, k, w), (i, repr(t), k, w)


def test_ivf_centroid_cache_invalidates_on_file_change(emb_ds, tmp_path):
    """ADVICE r3: the cache key folds (mtime, size) of the cache_key path,
    so regenerating a dataset at the same path rebuilds centroids."""
    import os
    import time
    p = tmp_path / "ds.parquet"
    p.write_bytes(b"v1 contents")
    similarity._IVF_CENTROID_CACHE.clear()
    c1 = similarity.build_ivf_centroids(emb_ds, cache_key=str(p))
    assert len(similarity._IVF_CENTROID_CACHE) == 1
    c2 = similarity.build_ivf_centroids(emb_ds, cache_key=str(p))
    assert c1 is c2                        # unchanged file ⇒ cache hit
    p.write_bytes(b"v2 contents longer")   # new size+mtime ⇒ new key
    os.utime(p, (time.time() + 5, time.time() + 5))
    c3 = similarity.build_ivf_centroids(emb_ds, cache_key=str(p))
    assert c3 is not c2
    assert len(similarity._IVF_CENTROID_CACHE) == 2
    # the cache is bounded
    assert similarity._IVF_CACHE_MAX >= 2


# ---------------------------------------------------------------------------
# cross-dataset (incremental) dedup: exact content-hash anti-join
# ---------------------------------------------------------------------------

def test_incremental_dedup_exact(ray_session):
    import ray.data as rd
    seen = rd.from_arrow(pa.table({"doc_id": [1, 2],
                                   "text": ["alpha", "beta"]}))
    new = rd.from_arrow(pa.table({"doc_id": [10, 11, 12, 13],
                                  "text": ["alpha", "gamma", "beta",
                                           "delta"]}))
    out = dedup.incremental_dedup(new, seen).to_pandas()
    assert sorted(out["doc_id"]) == [11, 13]        # gamma, delta survive
    assert sorted(out.columns) == ["doc_id", "text"]


def test_incremental_dedup_empty_edges(ray_session):
    """Empty seen ⇒ identity; empty new ⇒ empty (Acero rejects zero-column
    empty join operands, so both short-circuit)."""
    import ray.data as rd
    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "text": pa.array([], type=pa.string())}))
    new = rd.from_arrow(pa.table({"doc_id": [1, 2], "text": ["a", "b"]}))
    assert sorted(dedup.incremental_dedup(new, empty)
                  .to_pandas()["doc_id"]) == [1, 2]
    assert dedup.incremental_dedup(empty, new).count() == 0


# ---------------------------------------------------------------------------
# deterministic sampling / splitting / mixing
# ---------------------------------------------------------------------------

def test_hash_sample_deterministic_and_fractional(docs_ds):
    from logstash_filter_translate_ray.functions import sampling
    a = sorted(sampling.hash_sample(docs_ds, fraction=0.2)
               .to_pandas()["doc_id"])
    b = sorted(sampling.hash_sample(docs_ds, fraction=0.2)
               .to_pandas()["doc_id"])
    assert a == b and len(a) > 0            # same rows every run
    n = docs_ds.count()
    assert abs(len(a) / n - 0.2) < 0.1      # near the target fraction
    # monotone: a smaller fraction is a SUBSET (same bucket rule)
    small = set(sampling.hash_sample(docs_ds, fraction=0.05)
                .to_pandas()["doc_id"])
    assert small <= set(a)


def test_hash_sample_fraction_one_keeps_nulls(ray_session):
    import ray.data as rd
    from logstash_filter_translate_ray.functions.sampling import (
        hash_sample, weighted_mix)
    tbl = pa.table({"doc_id": pa.array([1, 2, None, 4], type=pa.int64())})
    assert hash_sample(rd.from_arrow(tbl), fraction=1.0).count() == 4
    # a rate-1.0 part in weighted_mix is a true no-op
    mixed = weighted_mix([(rd.from_arrow(tbl), 1.0)])
    assert mixed.count() == 4


def test_split_column_partition_and_stability(docs_ds):
    from logstash_filter_translate_ray.functions import sampling
    df = sampling.split_column(docs_ds).to_pandas()
    n = len(df)
    counts = df["split"].value_counts()
    assert set(counts.index) <= {"train", "val", "test"}
    assert counts.sum() == n
    assert counts["train"] > counts.get("val", 0)
    # membership is per-row stable: recompute on a shuffled subset
    sub = df.sample(frac=0.5, random_state=0)
    import ray.data as rd
    import pyarrow as pa
    re_split = sampling.split_column(
        rd.from_arrow(pa.table({"doc_id": sub["doc_id"]}))).to_pandas()
    merged = sub.merge(re_split, on="doc_id", suffixes=("_a", "_b"))
    assert (merged["split_a"] == merged["split_b"]).all()


def test_weighted_mix_rates(docs_ds):
    from logstash_filter_translate_ray.functions import sampling
    mixed = sampling.weighted_mix([(docs_ds, 0.5), (docs_ds, 0.1)])
    df = mixed.to_pandas()
    n = docs_ds.count()
    # 0.1-sample ⊂ 0.5-sample (same rule) ⇒ every 0.1 row appears twice
    from collections import Counter
    c = Counter(df["doc_id"])
    assert abs(len([k for k in c if c[k] >= 1]) / n - 0.5) < 0.1
    assert abs(len([k for k in c if c[k] == 2]) / n - 0.1) < 0.05


def test_knn_join_matches_numpy(emb_ds):
    """Exact k-NN join == local numpy reference (incl. id-asc tie-break)."""
    from logstash_filter_translate_ray.functions.similarity import knn_join
    got = knn_join(emb_ds, k=3)
    t = emb_ds.to_pandas()
    ids = t["vec_id"].to_numpy()
    m = np.stack(t["embedding"].to_numpy())
    mn = (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float64)
    s = mn @ mn.T
    np.fill_diagonal(s, -np.inf)
    g = got.set_index(["vec_id", "nn_rank"])["neighbor_id"]
    for r in range(len(ids)):
        order = np.lexsort((ids, -s[r]))[:3]
        for rank, nb in enumerate(order, 1):
            assert g.loc[(ids[r], rank)] == ids[nb]


# ---------------------------------------------------------------------------
# real pure-numpy codecs (uncompressed formats)
# ---------------------------------------------------------------------------

def test_ppm_bmp_wav_roundtrip():
    rng = np.random.RandomState(3)
    img = rng.randint(0, 256, (13, 7, 3)).astype(np.uint8)
    assert np.array_equal(multimodal.decode_ppm(multimodal.encode_ppm(img)),
                          img)
    assert np.array_equal(multimodal.decode_bmp(multimodal.encode_bmp(img)),
                          img)
    samples = (rng.randn(1234) * 3000).astype(np.int16)
    out, rate = multimodal.decode_wav(encode_wav(samples, 8000))
    assert rate == 8000 and np.array_equal(out, samples)
    # comment + multi-space PPM headers parse too
    hdr = b"P6\n# a comment\n7  13\n255\n" + img.tobytes()
    assert np.array_equal(multimodal.decode_ppm(hdr), img)


def test_real_decode_and_resize_through_ray(ray_session):
    """REAL decode + pixel resize over mixed-format payloads."""
    import ray.data as rd
    rng = np.random.RandomState(5)
    img_big = rng.randint(0, 256, (64, 48, 3)).astype(np.uint8)
    img_small = rng.randint(0, 256, (8, 8, 3)).astype(np.uint8)
    wav = (rng.randn(16000) * 8000).astype(np.int16)
    tbl = pa.table({
        "media_id": pa.array([1, 2, 3], type=pa.int64()),
        "payload": pa.array([multimodal.encode_ppm(img_big),
                             multimodal.encode_bmp(img_small),
                             encode_wav(wav, 16000)],
                            type=pa.binary()),
        "media_type": pa.array(["image", "image", "audio"]),
        "width": pa.array([48, 8, None], type=pa.int32()),
        "height": pa.array([64, 8, None], type=pa.int32()),
        "sample_rate": pa.array([None, None, 16000], type=pa.int32()),
    })
    ds = rd.from_arrow(tbl)
    feats = multimodal.decode_features_dataset(
        ds, use_real_codecs=True).to_pandas() \
        .set_index("media_id")
    # image features: channel means in [0,1]; audio: duration == 1.0 s
    f1 = feats.loc[1, "features"]
    assert 0.3 < f1[0] < 0.7 and abs(f1[0] - img_big[..., 0].mean() / 255) < 1e-3
    f3 = feats.loc[3, "features"]
    assert abs(f3[2] - 1.0) < 1e-6              # 16000 samples @ 16 kHz
    out = resized(ds, max_side=32, use_real_codecs=True) \
        .set_index("media_id")
    out_img = multimodal.decode_ppm(out.loc[1, "payload"])
    assert out_img.shape == (32, 24, 3)         # 64x48 → fit 32
    assert (out.loc[1, "resized_width"],
            out.loc[1, "resized_height"]) == (24, 32)
    # nearest-neighbor: every output pixel exists in the source
    assert np.array_equal(out_img[0, 0],
                          img_big[0, 0])        # corner maps to corner
    small_out = multimodal.decode_bmp(out.loc[2, "payload"])
    assert small_out.shape == (8, 8, 3)         # under max_side: unchanged
    assert bytes(out.loc[3, "payload"])[:4] == b"RIFF"  # passthrough


def test_incremental_dedup_join_path_matches_broadcast(ray_session):
    """The shuffle-join path (big seen sets) keeps the same survivors as
    the broadcast semi-join path."""
    import ray.data as rd
    seen = rd.from_arrow(pa.table({"doc_id": [1, 2],
                                   "text": ["alpha", "beta"]}))
    new = rd.from_arrow(pa.table({"doc_id": [10, 11, 12, 13],
                                  "text": ["alpha", "gamma", "beta",
                                           "delta"]}))
    a = sorted(dedup.incremental_dedup(new, seen).to_pandas()["doc_id"])
    old = dedup._BROADCAST_MAX_SEEN
    dedup._BROADCAST_MAX_SEEN = 0            # force the join path
    try:
        b = sorted(dedup.incremental_dedup(new, seen)
                   .to_pandas()["doc_id"])
    finally:
        dedup._BROADCAST_MAX_SEEN = old
    assert a == b == [11, 13]


@pytest.mark.parametrize("bound", [10, 1, 0])
def test_incremental_dedup_matches_not_exists(ray_session, monkeypatch,
                                              bound):
    """Every path tells dropped rows apart by content, never by id: a
    null id, or an id shared by a seen and an unseen text, must not
    change which rows survive. With 2 distinct seen texts and 1 of them
    in the new side, the bound picks the broadcast probe (10), the
    dropped-hash broadcast (1) or the hash anti join (0); each must
    equal SQL ``NOT EXISTS``."""
    import duckdb
    import ray.data as rd
    new_t = pa.table({"doc_id": pa.array([None, 1, 2, 1, None, 3],
                                         type=pa.int64()),
                      "text": ["a", "a", "b", "b", None, "a"]})
    seen_t = pa.table({"doc_id": [7, 8, 9], "text": ["a", "z", None]})
    want = duckdb.sql(
        "SELECT * FROM new_t d WHERE NOT EXISTS "
        "(SELECT 1 FROM seen_t s WHERE s.text = d.text)").arrow()
    monkeypatch.setattr(dedup, "_BROADCAST_MAX_SEEN", bound)
    got = dedup.incremental_dedup(rd.from_arrow(new_t),
                                  rd.from_arrow(seen_t))
    assert got.schema().names == ["doc_id", "text"]
    rows = sorted(((r["doc_id"], r["text"]) for r in got.take_all()),
                  key=repr)
    assert rows == sorted(zip(want["doc_id"].to_pylist(),
                              want["text"].to_pylist()), key=repr)
    assert rows == [(1, "b"), (2, "b"), (None, None)]
    # every row already seen: an empty result that keeps its columns
    none_left = dedup.incremental_dedup(rd.from_arrow(seen_t.slice(0, 2)),
                                        rd.from_arrow(seen_t))
    assert none_left.count() == 0
    assert none_left.schema().names == ["doc_id", "text"]


def test_repetition_scores():
    t = pa.table({"doc_id": [1, 2, 3],
                  "text": ["a a a b",               # 2/4 words duplicated
                           "x\ny\nx\nx",            # 2/4 lines duplicated
                           "all distinct words"]})
    out = text.repetition_batch(t)
    assert out["dup_word_frac"].to_pylist() == [0.5, 0.5, 0.0]
    assert out["dup_line_frac"].to_pylist() == [0.0, 0.5, 0.0]


def test_incremental_dedup_drop_broadcast_path(ray_session):
    """Big-seen / small-dropped regime: the slim inner join finds dropped
    ids and broadcasts them back — the text column never joins."""
    import ray.data as rd
    seen = rd.from_arrow(pa.table({"doc_id": [1, 2, 3],
                                   "text": ["alpha", "beta", "gamma"]}))
    new = rd.from_arrow(pa.table({"doc_id": [10, 11],
                                  "text": ["beta", "delta"]}))
    old = dedup._BROADCAST_MAX_SEEN
    dedup._BROADCAST_MAX_SEEN = 2      # seen(3) > 2 → join; drop(1) ≤ 2
    try:
        out = sorted(dedup.incremental_dedup(new, seen)
                     .to_pandas()["doc_id"])
    finally:
        dedup._BROADCAST_MAX_SEEN = old
    assert out == [11]


def test_png_round_trip_all_filters_and_color_types():
    """REAL pure-numpy+zlib PNG codec: encode/decode round-trips exactly
    for gray, RGB and RGBA across ALL five spec filter types (the encoder
    can emit each filter so every unfilter path is driven with
    spec-defined inputs, not just the filter-0 fast path)."""
    rng = np.random.RandomState(3)
    for shape in [(13, 7), (13, 7, 3), (13, 7, 4), (1, 1, 3), (2, 300, 3)]:
        img = rng.randint(0, 256, shape).astype(np.uint8)
        for f in range(5):
            p = multimodal.encode_png(img, row_filter=f)
            assert multimodal.sniff_format(p) == "png"
            assert np.array_equal(multimodal.decode_png(p), img), (shape, f)
    # smooth gradient: filter deltas are non-trivial numbers here
    grad = np.tile(np.arange(256, dtype=np.uint8), (8, 1))[:, :, None] \
        .repeat(3, 2)
    for f in range(5):
        assert np.array_equal(
            multimodal.decode_png(multimodal.encode_png(grad, row_filter=f)),
            grad)


def test_png_external_fixture_and_gates():
    """An externally-published minimal 1x1 RGBA PNG decodes (independent
    of our own encoder); unsupported variants raise the honest gate."""
    import base64

    import pytest
    p = base64.b64decode(
        "iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAYAAAAfFcSJAAAADUlEQVR42mNkYPhf"
        "DwAChwGA60e6kgAAAABJRU5ErkJggg==")
    img = multimodal.decode_png(p)
    assert img.shape == (1, 1, 4) and img.dtype == np.uint8
    # palette PNG (color type 3) → honest NotImplementedError
    import struct
    import zlib
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 3, 0, 0, 0)
    bad = (b"\x89PNG\r\n\x1a\n"
           + struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
           + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF))
    with pytest.raises(NotImplementedError, match="PNG"):
        multimodal.decode_png(bad)


def test_png_through_feature_and_resize_stages(ray_session):
    """PNG payloads flow through the REAL-codec feature and resize stages
    like PPM/BMP: features come from decoded pixels (gray expands to 3
    channels, RGBA drops alpha), resize re-encodes PNG preserving the
    color type."""
    import ray.data as rd
    rng = np.random.RandomState(9)
    rgb = rng.randint(0, 256, (40, 60, 3)).astype(np.uint8)
    gray = rng.randint(0, 256, (32, 16)).astype(np.uint8)
    rgba = rng.randint(0, 256, (20, 20, 4)).astype(np.uint8)
    tbl = pa.table({
        "media_id": pa.array([0, 1, 2], type=pa.int64()),
        "payload": pa.array([multimodal.encode_png(x)
                             for x in (rgb, gray, rgba)], type=pa.binary()),
        "media_type": pa.array(["image"] * 3, type=pa.string()),
        "width": pa.array([60, 16, 20], type=pa.int32()),
        "height": pa.array([40, 32, 20], type=pa.int32()),
        "sample_rate": pa.array([None] * 3, type=pa.int32()),
    }, schema=multimodal.MEDIA_SCHEMA)
    feats = multimodal.decode_features_dataset(
        rd.from_arrow(tbl), use_real_codecs=True).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    want_mean = rgb[:, :, 0].astype(np.float64).mean() / 255.0
    assert abs(feats.loc[0, "features"][0] - want_mean) < 1e-6
    gray_mean = gray.astype(np.float64).mean() / 255.0
    for c in range(3):      # gray replicates across channels
        assert abs(feats.loc[1, "features"][c] - gray_mean) < 1e-6

    out = resized(rd.from_arrow(tbl), max_side=16, use_real_codecs=True) \
        .sort_values("media_id").reset_index(drop=True)
    out0 = multimodal.decode_png(out.loc[0, "payload"])
    assert out0.shape == (10, 16, 3)            # 60x40 → 16x10, still RGB
    out2 = multimodal.decode_png(out.loc[2, "payload"])
    assert out2.shape == (16, 16, 4)            # RGBA preserved
    assert (out.loc[0, "resized_width"],
            out.loc[0, "resized_height"]) == (16, 10)


def test_bucket_candidate_pairs_skip_counter(ray_session):
    """hot_cap skips are no longer silent: the counter actor receives the
    skipped bucket/row totals (VERDICT r3 #4)."""
    import ray
    import ray.data as rd
    tbl = pa.table({"doc_id": pa.array(np.arange(10, dtype=np.int64)),
                    "bucket": pa.array(np.zeros(10, dtype=np.int64))})
    ctr = dedup.make_skip_counter()
    out = dedup.bucket_candidate_pairs(rd.from_arrow(tbl), "bucket",
                                       "doc_id", hot_cap=4,
                                       skip_counter=ctr).to_pandas()
    assert len(out) == 0                     # the one bucket was hot
    totals = ray.get(ctr.totals.remote())
    assert totals["buckets"] == 1 and totals["rows"] == 10
    # and with the cap off, the pairs come back
    out2 = dedup.bucket_candidate_pairs(rd.from_arrow(tbl), "bucket",
                                        "doc_id", hot_cap=None).to_pandas()
    assert len(out2) == 45


def test_join_empty_first_block(ray_session, monkeypatch):
    """An operand whose FIRST block is empty once lost Ray 2.49's
    hash-join schema broadcast (zero-column partitions, ArrowInvalid at
    finalize — an intermittent minhash-pipeline CI flake). The joins now
    run on the keyed exchange, whose output is at most G non-empty blocks
    (its bucket count) whatever the input layout."""
    import ray.data as rd
    from logstash_filter_translate_ray import rayutil
    from logstash_filter_translate_ray.rayutil import keyed_join
    empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                      "id_b": pa.array([], type=pa.int64())})
    pairs = pa.table({"id_a": pa.array([0, 1], type=pa.int64()),
                      "id_b": pa.array([2, 3], type=pa.int64())})
    docs = pa.table({"doc_id": pa.array(np.arange(4, dtype=np.int64)),
                     "text": pa.array(["aaa bbb ccc ddd"] * 4)})
    # pairs dataset whose FIRST block is empty — the trigger shape
    pairs_ds = rd.from_arrow([empty, pairs])
    out = dedup.verified_jaccard_pairs(pairs_ds,
                                       rd.from_arrow(docs)).to_pandas()
    assert sorted(zip(out["id_a"], out["id_b"])) == [(0, 2), (1, 3)]
    assert (out["jaccard"] == 1.0).all()      # identical texts

    # empty pairs operand short-circuits to a schema'd empty result
    out2_ds = dedup.verified_jaccard_pairs(rd.from_arrow(empty),
                                           rd.from_arrow(docs))
    assert out2_ds.count() == 0
    assert out2_ds.schema().names == ["id_a", "id_b", "jaccard"]

    # output invariant: no empty blocks, ≤ G blocks (here G = 8)
    monkeypatch.setattr(rayutil, "_GROUP_BYTES", 1)
    monkeypatch.setattr(rayutil, "_MAX_GROUPS", 8)
    jo = keyed_join(pairs_ds, rd.from_arrow(docs), ["id_a"], ["doc_id"])
    sizes = [b.num_rows for b in jo.iter_batches(batch_format="pyarrow",
                                                 batch_size=None)]
    assert sum(sizes) == 2 and all(s > 0 for s in sizes)
    assert len(sizes) <= 8
