"""knn_join, knn_join_ivf, exact and LSH embedding near-dup pairs and
the IVF centroid build (functions/similarity.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_translate_ray.functions import dedup, similarity


def _rand_emb(n: int, dim: int = 16, seed: int = 7, dups: int = 0):
    rng = np.random.RandomState(seed)
    m = rng.randn(n, dim)
    for i in range(dups):          # identical vectors → score ties
        m[n - 1 - i] = m[i]
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    offs = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
    emb = pa.ListArray.from_arrays(offs, pa.array(m.reshape(-1)))
    return pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                     "embedding": emb}), m


def _knn_reference(m: np.ndarray, k: int) -> pd.DataFrame:
    """O(N²) numpy oracle with the (cosine DESC, id ASC) tie rule."""
    s = m @ m.T
    np.fill_diagonal(s, -np.inf)
    rows = []
    for i in range(len(m)):
        order = [j for j in np.lexsort((np.arange(len(m)), -s[i]))[:k]
                 if np.isfinite(s[i, j])]       # self never a neighbor
        for r, j in enumerate(order, 1):
            rows.append((i, r, int(j)))
    return pd.DataFrame(rows, columns=["vec_id", "nn_rank", "neighbor_id"])


def _emb_table(n, dim=16, seed=0, dups=()):
    rng = np.random.RandomState(seed)
    m = rng.randn(n, dim).astype(np.float32)
    for dst, src in dups:
        m[dst] = m[src]
    flat = pa.array(m.reshape(-1))
    return pa.table({
        "vec_id": pa.array(np.arange(n), type=pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(flat, dim)
        .cast(pa.list_(pa.float32()))}), m


def test_knn_join_multiblock_matches_reference(ray_session):
    """Tiny target_block_rows forces the running per-block top-k merge
    (the r4 bounded-memory kernel) through many fold steps; ties from
    duplicated vectors must break to the smaller neighbor id."""
    import ray.data as rd
    tbl, m = _rand_emb(200, dups=5)
    got = similarity.knn_join(rd.from_arrow(tbl), k=4, target_block_rows=16)
    want = _knn_reference(m, k=4)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype("int64"),
        want.astype("int64"))


def test_knn_join_small_n_multiblock_rank_order(ray_session):
    """N ≤ k split across several blocks: the running width never exceeds
    the fold trigger, so only the unconditional final sort keeps ranks in
    (score DESC, id ASC) order."""
    import ray.data as rd
    tbl, m = _rand_emb(4, dups=1)
    got = similarity.knn_join(rd.from_arrow(tbl), k=5, target_block_rows=2)
    want = _knn_reference(m, k=5)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype("int64"), want.astype("int64"))


def test_knn_join_as_dataset_streams(ray_session):
    """as_dataset=True returns a Dataset built from the result refs (no
    driver concat) with the same rows as the pandas path."""
    import ray.data as rd
    tbl, m = _rand_emb(120)
    ds_out = similarity.knn_join(rd.from_arrow(tbl), k=3,
                                 target_block_rows=32, as_dataset=True)
    import ray.data
    assert isinstance(ds_out, ray.data.Dataset)
    got = ds_out.to_pandas().sort_values(["vec_id", "nn_rank"]) \
        .reset_index(drop=True)
    want = similarity.knn_join(rd.from_arrow(tbl), k=3,
                               target_block_rows=32)
    pd.testing.assert_frame_equal(got.astype("int64"),
                                  want.astype("int64"))


def test_knn_join_empty_and_skewed_blocks(ray_session):
    """Empty input returns the typed empty frame (the r4 block-count
    rewrite briefly repartitioned an empty dataset into one empty block →
    ZeroDivisionError in _batch_matrix); a skewed layout (one giant block,
    right total count) still re-splits to the target_block_rows bound and
    matches the oracle."""
    import ray.data as rd
    dim = 16
    empty = pa.table({
        "vec_id": pa.array([], type=pa.int64()),
        "embedding": pa.ListArray.from_arrays(
            pa.array([0], type=pa.int32()),
            pa.array([], type=pa.float64()))})
    out = similarity.knn_join(rd.from_arrow(empty), k=3)
    assert len(out) == 0
    assert list(out.columns) == ["vec_id", "nn_rank", "neighbor_id"]
    ds_out = similarity.knn_join(rd.from_arrow(empty), k=3, as_dataset=True)
    assert ds_out.count() == 0

    # skew: 90 rows in one block + 10 in another, target 25 rows/block —
    # block COUNT alone can look fine while one block dwarfs the bound
    tbl, m = _rand_emb(100, dim=dim)
    skewed = rd.from_arrow([tbl.slice(0, 90), tbl.slice(90, 10)])
    got = similarity.knn_join(skewed, k=3, target_block_rows=25)
    want = _knn_reference(m, k=3)
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


def test_knn_join_single_gemm_column_position_ties(ray_session):
    """Found by fresh-seed embedding fuzz: dgemm scores IDENTICAL columns
    differently depending on column POSITION within one call
    (remainder-lane FMA order, measured 1-ulp spread on a 6-column
    matmul), so the per-block top-k selection dropped a quantized-equal
    candidate with a SMALLER id before the fold could tie-break.
    _select_topk_cols now band-detects quantized boundary ties."""
    import ray.data as rd
    from logstash_filter_translate_ray.functions.similarity import knn_join

    dup = [0.5, -1.0, -0.5, 0.5, 0.5, 2.0, -1.0, -1.0]
    other = [0.5, 1.0, 2.0, -1.0, 1.0, 0.0, -0.5, 0.0]
    neg = [-x for x in dup]
    full = [dup, dup, dup, other, dup, neg]
    n = len(full)
    flat = pa.array(np.asarray(full, dtype=np.float32).reshape(-1),
                    type=pa.float32())
    offs = pa.array(np.arange(0, (n + 1) * 8, 8, dtype=np.int32))
    tbl = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                    "embedding": pa.ListArray.from_arrays(offs, flat)})
    out = knn_join(rd.from_arrow(tbl), k=3)
    # query 5 (the negation): rank 1 = vec 3, then the 4-way tie
    # {0,1,2,4} at cosine -1 must resolve id-ASC → 0, 1 (NOT 4)
    q5 = out[out.vec_id == 5].sort_values("nn_rank")
    assert q5.neighbor_id.tolist() == [3, 0, 1]
    # single-block and multi-block layouts agree
    split = knn_join(rd.from_arrow([tbl.slice(0, 3), tbl.slice(3)]), k=3)
    pd.testing.assert_frame_equal(out, split)


def test_knn_join_rejects_ragged_and_null_vectors(ray_session):
    """Every row must be a non-null vector of one length. A ragged column
    used to reshape silently into a wrong matrix (wrong neighbors), and a
    null row failed with numpy's bare reshape error."""
    import ray.data as rd
    msg = "'embedding': every row must be a non-null vector of one length"
    for vecs in ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0], [1.0] + [0.0] * 5],
                 [[1.0, 0.0], None, [0.0, 1.0]]):
        tbl = pa.table({"vec_id": pa.array([0, 1, 2], type=pa.int64()),
                        "embedding": pa.array(vecs,
                                              type=pa.list_(pa.float32()))})
        with pytest.raises(ValueError, match=msg):
            similarity.knn_join(rd.from_arrow(tbl), k=2)


def test_vector_blocks_bound_block_size(ray_session, monkeypatch):
    """A skewed layout (one 90-row block, one 10-row block) re-splits into
    non-empty blocks of at most target_rows rows, and exact near-dup
    pairs over it equal the single-block result."""
    import ray
    import ray.data as rd
    tbl, _ = _rand_emb(100, dups=3)
    skewed = rd.from_arrow([tbl.slice(0, 90), tbl.slice(90, 10)])
    refs = similarity._vector_blocks(skewed, "vec_id", "embedding",
                                     target_rows=25, max_blocks=64)
    sizes = [len(ray.get(r)) for r in refs]
    assert sum(sizes) == 100 and all(0 < s <= 25 for s in sizes)
    whole = similarity.embedding_neardup_pairs(rd.from_arrow(tbl),
                                               threshold=0.5)
    monkeypatch.setattr(similarity, "_TILE_ROWS", 25)
    split = similarity.embedding_neardup_pairs(skewed, threshold=0.5)
    assert len(whole) > 3
    pd.testing.assert_frame_equal(split, whole)


def test_embedding_neardup_exact_threshold_tie(ray_session):
    """Found by fresh-seed embedding fuzz: these two dyadic vectors have
    cosine exactly 2/5, but dgemm over this 8-row block scores the pair
    0.39999999999999997 (over a 2-row block, 0.4), so a raw ``>= 0.4``
    dropped it depending on the block layout. A tie with the threshold
    now always counts."""
    import ray.data as rd
    z = [0.0] * 8
    v2 = [0.5, 2.0, -0.5, 1.0, 0.5, 0.0, -0.5, 2.0]
    v7 = [0.5, 0.5, 0.0, 0.5, -1.0, 0.5, 0.5, 0.5]
    tbl = pa.table({"vec_id": pa.array(range(8), type=pa.int64()),
                    "embedding": pa.array([z, z, v2, z, z, z, z, v7],
                                          type=pa.list_(pa.float32()))})
    for threshold, want in ((0.4, [(2, 7)]), (0.4 + 1e-9, [])):
        got = similarity.embedding_neardup_pairs(rd.from_arrow(tbl),
                                                 threshold=threshold)
        assert list(zip(got["id_a"], got["id_b"])) == want


def test_embedding_neardup_as_dataset_matches(ray_session):
    import ray.data as rd
    tbl, m = _rand_emb(100, dups=3)
    want = similarity.embedding_neardup_pairs(rd.from_arrow(tbl),
                                              threshold=0.8)
    ds_out = similarity.embedding_neardup_pairs(rd.from_arrow(tbl),
                                                threshold=0.8,
                                                as_dataset=True)
    got = ds_out.to_pandas().sort_values(["id_a", "id_b"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["id_a", "id_b"]].astype("int64"),
                                  want[["id_a", "id_b"]].astype("int64"))


def test_embedding_lsh_as_dataset_matches(ray_session):
    """as_dataset=True on the LSH path returns the distinct-pairs Dataset
    (streaming, unsorted) with the same pair set as the pandas path."""
    import ray.data as rd
    tbl, m = _rand_emb(150, dups=4)
    want = similarity.embedding_neardup_pairs_lsh(rd.from_arrow(tbl),
                                                  threshold=0.8)
    ds_out = similarity.embedding_neardup_pairs_lsh(rd.from_arrow(tbl),
                                                    threshold=0.8,
                                                    as_dataset=True)
    import ray.data
    assert isinstance(ds_out, ray.data.Dataset)
    got = ds_out.to_pandas().sort_values(["id_a", "id_b"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["id_a", "id_b"]].astype("int64"),
                                  want[["id_a", "id_b"]].astype("int64"))


def test_embedding_lsh_skip_counter(ray_session):
    import ray
    import ray.data as rd
    tbl, _ = _rand_emb(60)
    ctr = dedup.make_skip_counter()
    # hot_cap=1 skips every bucket with ≥2 members → zero pairs, counted
    out = similarity.embedding_neardup_pairs_lsh(
        rd.from_arrow(tbl), threshold=-1.0, n_tables=1,
        planes_per_table=1, hot_cap=1, skip_counter=ctr)
    assert len(out) == 0
    totals = ray.get(ctr.totals.remote())
    assert totals["buckets"] >= 1 and totals["rows"] >= 2


def test_ivf_centroids_order_independent(ray_session):
    """The hash-sample centroid build must not depend on row order
    (VERDICT r3 #5 — ds.limit() sampled one stratum)."""
    import ray.data as rd
    tbl, m = _rand_emb(400)
    perm = np.random.RandomState(3).permutation(400)
    shuffled = tbl.take(pa.array(perm))
    c1 = similarity.build_ivf_centroids(rd.from_arrow(tbl), n_cells=8,
                                        sample_n=128)
    c2 = similarity.build_ivf_centroids(rd.from_arrow(shuffled), n_cells=8,
                                        sample_n=128)
    assert np.allclose(c1, c2)
    # the per-block sample tasks pick the same rows whether the blocks
    # come from a lazy plan or from a materialized Dataset
    c3 = similarity.build_ivf_centroids(rd.from_arrow(tbl).materialize(),
                                        n_cells=8, sample_n=128)
    np.testing.assert_array_equal(c1, c3)


def test_knn_join_ivf_full_probe_equals_exact(ray_session):
    """n_probe == n_cells searches every cell — the approximate join must
    then equal the exact kernel bit-for-bit (ranks, ties, order)."""
    import ray.data as rd
    from logstash_filter_translate_ray.functions.similarity import (
        knn_join, knn_join_ivf)
    tbl, _ = _emb_table(600, dups=[(100, 200), (300, 400)])
    ds = rd.from_arrow(tbl)
    exact = knn_join(ds, k=4)
    full = knn_join_ivf(rd.from_arrow(tbl), k=4, n_cells=8, n_probe=8)
    pd.testing.assert_frame_equal(full, exact)


def test_knn_join_ivf_recall_and_block_invariance(ray_session):
    import ray.data as rd
    from logstash_filter_translate_ray.functions.similarity import (
        knn_join, knn_join_ivf)
    tbl, _ = _emb_table(1200)
    exact = knn_join(rd.from_arrow(tbl), k=5)
    e = set(map(tuple, exact[["vec_id", "neighbor_id"]].to_numpy()))
    approx = knn_join_ivf(rd.from_arrow(tbl), k=5, n_cells=16, n_probe=4)
    a = set(map(tuple, approx[["vec_id", "neighbor_id"]].to_numpy()))
    assert len(a & e) / len(e) >= 0.5          # the gate's asserted bound
    # block-split invariance: same result from a 3-block layout
    split = rd.from_arrow([tbl.slice(0, 137), tbl.slice(137, 500),
                           tbl.slice(637)])
    approx2 = knn_join_ivf(split, k=5, n_cells=16, n_probe=4)
    pd.testing.assert_frame_equal(approx, approx2)
    # raising n_probe can only widen each query's candidate set
    wider = knn_join_ivf(rd.from_arrow(tbl), k=5, n_cells=16, n_probe=8)
    w = set(map(tuple, wider[["vec_id", "neighbor_id"]].to_numpy()))
    assert len(w & e) >= len(a & e)


def test_knn_join_ivf_chunked_fold_matches_unchunked(ray_session,
                                                    monkeypatch):
    """A tiny _TILE_ROWS forces the per-cell running fold through many
    query and member tile boundaries — results must not depend on the
    tiling."""
    import ray.data as rd
    tbl, _ = _emb_table(400, dups=[(10, 20), (30, 40), (50, 60)])
    big = similarity.knn_join_ivf(rd.from_arrow(tbl), k=3, n_cells=4,
                                  n_probe=2)
    monkeypatch.setattr(similarity, "_TILE_ROWS", 7)
    tiny = similarity.knn_join_ivf(rd.from_arrow(tbl), k=3, n_cells=4,
                                   n_probe=2)
    pd.testing.assert_frame_equal(big, tiny)


def test_knn_join_ivf_edges(ray_session):
    import ray.data as rd
    from logstash_filter_translate_ray.functions.similarity import (
        knn_join_ivf)
    empty = pa.table({"vec_id": pa.array([], type=pa.int64()),
                      "embedding": pa.array([], type=pa.list_(pa.float32()))})
    out = knn_join_ivf(rd.from_arrow(empty), k=3)
    assert len(out) == 0
    assert list(out.columns) == ["vec_id", "nn_rank", "neighbor_id"]
    assert knn_join_ivf(rd.from_arrow(empty), k=3,
                        as_dataset=True).count() == 0
    # single vector: no OTHER vectors -> zero rows, not a crash
    one = pa.table({"vec_id": pa.array([7], type=pa.int64()),
                    "embedding": pa.array([[1.0, 0.0]],
                                          type=pa.list_(pa.float32()))})
    assert len(knn_join_ivf(rd.from_arrow(one), k=3, n_cells=4)) == 0
    # as_dataset streaming return matches the pandas return
    tbl, _ = _emb_table(300)
    pdf = knn_join_ivf(rd.from_arrow(tbl), k=3, n_cells=8, n_probe=3)
    dsr = knn_join_ivf(rd.from_arrow(tbl), k=3, n_cells=8, n_probe=3,
                       as_dataset=True).to_pandas() \
        .sort_values(["vec_id", "nn_rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(pdf, dsr)


def test_knn_join_ivf_route_chunk_invariance(ray_session, monkeypatch):
    import ray.data as rd
    from logstash_filter_translate_ray.functions import similarity as sim

    tbl, _ = _emb_table(500, dups=[(10, 20), (30, 40)])
    whole = sim.knn_join_ivf(rd.from_arrow(tbl), k=3, n_cells=8, n_probe=3)
    # dim=16, np_eff=3 → rows_per = max(1, 96 // 48) = 2: every block
    # routes through ~250 replica chunks
    monkeypatch.setattr(sim, "_ROUTE_CHUNK_ELEMS", 96)
    chunked = sim.knn_join_ivf(rd.from_arrow(tbl), k=3, n_cells=8,
                               n_probe=3)
    pd.testing.assert_frame_equal(chunked, whole)
    # the default sizes the cell exchange from the routed bytes (one
    # group at this size); an explicit count still works
    explicit = sim.knn_join_ivf(rd.from_arrow(tbl), k=3, n_cells=8,
                                n_probe=3, num_groups=7)
    pd.testing.assert_frame_equal(explicit, whole)
    # one group for every cell and query, and a three-block input
    one = sim.knn_join_ivf(rd.from_arrow(tbl), k=3, n_cells=8, n_probe=3,
                           num_groups=1)
    pd.testing.assert_frame_equal(one, whole)
    split = [tbl.slice(0, 7), tbl.slice(7, 200), tbl.slice(207)]
    pd.testing.assert_frame_equal(
        sim.knn_join_ivf(rd.from_arrow(split), k=3, n_cells=8, n_probe=3),
        whole)


def _dyadic_rows(seed: int, n: int = 40, dim: int = 6):
    """Dyadic vectors (exact dot products, so every chunking scores a pair
    bit-identically) with shuffled sparse ids: a block of 12 copies of one
    vector puts many exact ties at the k boundary, plus negations and zero
    vectors."""
    rng = np.random.RandomState(seed)
    m = rng.randint(-4, 5, size=(n, dim)) / 2.0
    m[1:13] = m[0]                          # 13 identical rows
    m[13:16] = -m[0]                        # their negations
    m[16:19] = 0.0                          # zero vectors: all-tie rows
    m[19:22] = m[25]
    order = rng.permutation(n)
    ids = rng.choice(10 * n, size=n, replace=False).astype(np.int64)
    return ids, m[order]


def _topk_reference(q_ids, q_m, ids, m, k):
    """Per query: (round(score, 12) DESC, id ASC), self excluded."""
    s = q_m @ m.T
    counts, nbr = [], []
    for r in range(len(q_ids)):
        keep = np.flatnonzero(ids != q_ids[r])
        o = keep[np.lexsort((ids[keep], -np.round(s[r, keep], 12)))][:k]
        counts.append(len(o))
        nbr.extend(ids[o])
    return np.array(counts), np.array(nbr, dtype=np.int64)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_running_topk_chunk_invariance(seed, k):
    """The fold (per-chunk selection, the running floor that screens later
    chunks, the k-wide sort) gives identical (counts, ids, scores) for one
    chunk, 1-3-row chunks and those chunks in reverse order, and the
    (score DESC, id ASC) reference neighbors."""
    ids, m = _dyadic_rows(seed)
    rng = np.random.RandomState(100 + seed)
    cuts = [0]
    while cuts[-1] < len(ids):
        cuts.append(min(len(ids), cuts[-1] + rng.randint(1, 4)))
    small = [(ids[a:b], m[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    whole = similarity._running_topk(ids, m, [(ids, m)], k)
    for chunks in (small, small[::-1]):
        got = similarity._running_topk(ids, m, chunks, k)
        for g, w in zip(got, whole):
            np.testing.assert_array_equal(g, w)
    counts, nbr = _topk_reference(ids, m, ids, m, k)
    np.testing.assert_array_equal(whole[0], counts)
    np.testing.assert_array_equal(whole[1], nbr)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_topk_cols_matches_reference(seed):
    """The selected column set is the first kk columns under
    (round(score, 12) DESC, column position), with exact ties, 1-ulp
    noise around them and -inf (self) columns."""
    ids, m = _dyadic_rows(seed)
    s = m @ m.T
    s[np.arange(len(s)), np.arange(len(s))] = -np.inf
    rng = np.random.RandomState(seed)
    noisy = s.copy()
    flip = rng.rand(*s.shape) < 0.3
    noisy[flip] = np.nextafter(noisy[flip], np.inf)
    for mat in (s, noisy):
        for kk in (1, 3, 7, 12, 13, 20):
            sel = similarity._select_topk_cols(mat, kk)
            for r in range(len(mat)):
                want = np.lexsort((np.arange(mat.shape[1]),
                                   -np.round(mat[r], 12)))[:kk]
                assert sorted(sel[r]) == sorted(want), (kk, r)


def _no_executor(monkeypatch):
    """Make any Ray Data streaming-executor run raise."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    def boom(*a, **kw):
        raise AssertionError("Ray Data execution")

    monkeypatch.setattr(StreamingExecutor, "execute", boom)


def test_knn_join_ivf_runs_no_dataset_op_after_read(ray_session,
                                                    monkeypatch):
    """Over a Dataset that already is data, knn_join_ivf runs no Ray Data
    execution at all: with the streaming executor (and map_batches,
    iter_batches and to_pandas) patched to raise it still returns the
    reference result, through the sampled centroid path and the Dataset
    return."""
    import ray
    import ray.data as rd
    tbl, m = _rand_emb(200, dups=5)
    want = _knn_reference(m, k=4)
    part = similarity.knn_join_ivf(rd.from_arrow(tbl), k=4, n_cells=8,
                                   n_probe=3, sample_n=64)

    def boom(*a, **kw):
        raise AssertionError("Ray Data execution after the read")

    for name in ("map_batches", "iter_batches", "to_pandas"):
        monkeypatch.setattr(rd.Dataset, name, boom)
    _no_executor(monkeypatch)
    full = similarity.knn_join_ivf(rd.from_arrow(tbl), k=4, n_cells=8,
                                   n_probe=8, sample_n=64)
    pd.testing.assert_frame_equal(full.astype("int64"), want.astype("int64"))
    again = similarity.knn_join_ivf(rd.from_arrow(tbl), k=4, n_cells=8,
                                    n_probe=3, sample_n=64)
    pd.testing.assert_frame_equal(again, part)
    ds_out = similarity.knn_join_ivf(rd.from_arrow(tbl), k=4, n_cells=8,
                                     n_probe=3, sample_n=64, as_dataset=True)
    assert sum(map(len, ray.get(ds_out.to_arrow_refs()))) == len(part)


def _write_parts(d, tbl: pa.Table, sizes) -> str:
    """``tbl``'s rows as consecutive parquet files of ``sizes`` rows."""
    import os
    import pyarrow.parquet as pq
    os.makedirs(d, exist_ok=True)
    start = 0
    for i, n in enumerate(sizes):
        pq.write_table(tbl.slice(start, n), os.path.join(d, f"p{i}.parquet"))
        start += n
    return str(d)


def test_knn_joins_over_local_parquet_run_no_executor(ray_session, tmp_path,
                                                      monkeypatch):
    """A kNN join over a plain local parquet read is plain tasks from the
    read on: with Ray Data's streaming executor patched to raise, both
    joins still equal the reference, as frames and as Datasets."""
    import ray
    import ray.data as rd
    tbl, m = _rand_emb(200, dups=5)
    path = _write_parts(tmp_path / "in", tbl, [70, 0, 130])
    want = _knn_reference(m, k=4).astype("int64")
    _no_executor(monkeypatch)
    exact = similarity.knn_join(rd.read_parquet(path), k=4,
                                target_block_rows=64)
    pd.testing.assert_frame_equal(exact.astype("int64"), want)
    ivf = similarity.knn_join_ivf(rd.read_parquet(path), k=4, n_cells=8,
                                  n_probe=8, sample_n=64)
    pd.testing.assert_frame_equal(ivf.astype("int64"), want)
    for fn, kw in ((similarity.knn_join, {}),
                   (similarity.knn_join_ivf, {"n_cells": 8, "n_probe": 8})):
        out = fn(rd.read_parquet(path), k=4, as_dataset=True, **kw)
        got = pa.concat_tables(ray.get(out.to_arrow_refs())).to_pandas()
        pd.testing.assert_frame_equal(
            got.sort_values(["vec_id", "nn_rank"]).reset_index(drop=True)
            .astype("int64"), want)


def _case_read(tmp_path, case: str, monkeypatch):
    """The input Dataset of one ``test_knn_join_fallback_cases`` case."""
    import os
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd
    tbl, _ = _rand_emb(120, dups=3)
    d = tmp_path / case
    if case == "hive_partitioned":
        _write_parts(d / "part=a", tbl.slice(0, 50), [50])
        _write_parts(d / "part=b", tbl.slice(50), [70])
        return rd.read_parquet(str(d))
    if case == "all_empty":
        return rd.read_parquet(_write_parts(d, tbl.slice(0, 0), [0, 0]))
    if case == "empty_file":
        return rd.read_parquet(_write_parts(d, tbl, [40, 0, 80]))
    if case == "over_max_block_size":
        from ray.data.context import DataContext
        monkeypatch.setattr(DataContext.get_current(),
                            "target_max_block_size", 4096)
        return rd.read_parquet(_write_parts(d, tbl, [120]))
    path = _write_parts(d, tbl, [60, 60])
    if case == "filter":
        return rd.read_parquet(path, filter=pc.field("vec_id") >= 7)
    if case == "schema":
        return rd.read_parquet(path, schema=pq.read_schema(
            os.path.join(path, "p0.parquet")))
    if case == "derived_filter":
        return rd.read_parquet(path).filter(lambda r: r["vec_id"] % 3 != 0)
    assert case == "over_target_block_rows"
    return rd.read_parquet(path)


@pytest.mark.parametrize("case", [
    "filter", "hive_partitioned", "schema", "derived_filter",
    "over_target_block_rows", "over_max_block_size", "empty_file",
    "all_empty"])
def test_knn_join_fallback_cases(ray_session, tmp_path, monkeypatch, case):
    """Over each input shape — reads Ray Data transforms (filter, hive
    partition columns, schema), a derived Dataset, files that re-split or
    slice, 0-row files — both joins give the frames they give over the
    same input's materialize(); an all-empty input keeps the kNN
    schema. Only the plain reads are read by plain tasks, and those slice
    a file larger than target_max_block_size as Ray's read does."""
    from logstash_filter_translate_ray import rayutil
    plain = case in ("over_target_block_rows", "over_max_block_size",
                     "empty_file", "all_empty")
    ds = _case_read(tmp_path / "c", case, monkeypatch)
    read = rayutil.plain_parquet_read(ds._logical_plan.dag)
    assert (read is not None) == plain
    if case == "over_max_block_size":
        sizes = [m.size_bytes for b in rayutil.materialized(
            ds, ["vec_id", "embedding"]).iter_internal_ref_bundles()
            for _, m in b.blocks]
        assert len(sizes) > 1 and max(sizes) <= 4096
    for fn, kw in ((similarity.knn_join, {"target_block_rows": 32}),
                   (similarity.knn_join_ivf, {"n_cells": 6, "n_probe": 3,
                                              "sample_n": 48})):
        got = fn(_case_read(tmp_path / "a", case, monkeypatch), k=3, **kw)
        want = fn(_case_read(tmp_path / "b", case, monkeypatch)
                  .materialize(), k=3, **kw)
        pd.testing.assert_frame_equal(got, want)
        assert list(got.columns) == similarity._KNN_SCHEMA.names
        assert (len(got) == 0) == (case == "all_empty")


def test_knn_join_columns_read_lacking_vector_keeps_error(ray_session,
                                                          tmp_path):
    """A columns= read without the vector column fails as it did through
    Ray Data's column projection."""
    import ray
    import ray.data as rd
    tbl, _ = _rand_emb(30)
    path = _write_parts(tmp_path / "in", tbl, [30])
    for fn in (similarity.knn_join, similarity.knn_join_ivf):
        with pytest.raises(ray.exceptions.UserCodeException):
            fn(rd.read_parquet(path, columns=["vec_id"]), k=2)
