"""Similarity search over an embedding column (``list<float>``).

- :func:`brute_force_topk` — exact cosine top-k: the query matrix is
  ``ray.put`` ONCE (broadcast), every batch does one numpy matmul, emits
  only its local top-k, and the driver merges tiny partials (never the
  full score matrix).
- :class:`LshIndexStage` / :func:`lsh_topk` — the scale path: seeded
  random-hyperplane signatures bucket vectors; queries probe only their
  own bucket (+ optional hamming-1 neighbors). Bucketing is a plain
  ``map_batches`` + filter, no shuffle.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np
import pyarrow as pa

# knn_join_ivf.route() replicates each vector n_probe-fold; it emits the
# replicas in chunks of at most this many flat float32 list elements
# (8M ≈ 32 MB) so the transient copy is bounded and the int32 list
# offsets stay far below 2^31 for ANY input block size. Module-level so
# tests can shrink it to force multi-chunk routing on small data.
_ROUTE_CHUNK_ELEMS = 8_000_000


def _batch_matrix(tbl: pa.Table, vec_col: str) -> np.ndarray:
    if len(tbl) == 0:
        # dim is inferred from the data, so an empty block yields (0, 0) —
        # callers must short-circuit before mixing with a non-empty side
        return np.zeros((0, 0), dtype=np.float32)
    col = tbl[vec_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float32)
    dim = len(flat) // len(tbl)
    return flat.reshape(len(tbl), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def brute_force_topk(ds, query: np.ndarray, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id"):
    """Exact cosine top-k of ``query`` (1 × D or Q × D) against the dataset.
    Returns a pandas frame (query_idx, vec_id, score) of Q×k rows.

    Deterministic order = the SQL mirror's ``ORDER BY cosine DESC, id
    ASC``: float64 math (the oracle computes doubles from the stored
    float32 values), 1e-12-quantized ORDERING (same BLAS ulp-noise
    collapse as knn_join), and an id tie-break in BOTH the per-block
    selection and the driver merge — score ties (zero query vector,
    duplicate vectors at the k boundary) previously resolved to
    argpartition/arrival order (r4 review)."""
    import ray

    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    qn = _normalize(q)
    q_ref = ray.put(qn)

    def local_topk(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:     # e.g. an IVF probe-filter emptied the block
            return pa.table({"query_idx": pa.array([], type=pa.int32()),
                             id_col: tbl[id_col].slice(0, 0),
                             "score": pa.array([], type=pa.float64())})
        qm = ray.get(q_ref)                       # zero-copy per node
        m = _normalize(_batch_matrix(tbl, vec_col).astype(np.float64))
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        scores = qm @ m.T                          # Q × B
        kk = min(k, scores.shape[1])
        # per-row (score DESC, id ASC) top-kk: one shared id pre-sort,
        # then a stable per-row argsort over the quantized scores
        o1 = np.argsort(ids, kind="stable")
        ids1 = ids[o1]
        s1 = scores[:, o1]
        o2 = np.argsort(-np.rint(s1 * 1e12), axis=1, kind="stable")[:, :kk]
        nq = scores.shape[0]
        return pa.table({
            "query_idx": pa.array(np.repeat(np.arange(nq, dtype=np.int32),
                                            kk)),
            id_col: pa.array(ids1[o2].reshape(-1)),
            "score": pa.array(np.take_along_axis(s1, o2, axis=1)
                              .reshape(-1), type=pa.float64())})

    partials = ds.map_batches(local_topk, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    # quantize the merge ordering too: identical vectors in different
    # blocks can score 1 ulp apart (shape-dependent gemm summation)
    partials["_q"] = np.rint(partials["score"].to_numpy() * 1e12)
    out = partials.sort_values(["query_idx", "_q", id_col],
                               ascending=[True, False, True]) \
        .groupby("query_idx", as_index=False).head(k) \
        .drop(columns="_q").reset_index(drop=True)
    return out


def _pairs_from_scores(ids_a: np.ndarray, ids_b: np.ndarray,
                       scores: np.ndarray, threshold: float,
                       upper_only: bool) -> pa.Table:
    """Vectorized (id_a < id_b, cosine) extraction from a score matrix."""
    hits = scores >= threshold
    if upper_only:
        hits &= np.triu(np.ones_like(hits, dtype=bool), 1)
    ri, ci = np.nonzero(hits)
    a = ids_a[ri]
    b = ids_b[ci]
    sc = scores[ri, ci]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keep = lo != hi
    return pa.table({"id_a": pa.array(lo[keep].astype(np.int64)),
                     "id_b": pa.array(hi[keep].astype(np.int64)),
                     "cosine": pa.array(sc[keep].astype(np.float64))})


def embedding_neardup_pairs(ds, threshold: float = 0.9,
                            vec_col: str = "embedding",
                            id_col: str = "vec_id",
                            max_blocks: int = 64,
                            as_dataset: bool = False):
    """EXACT embedding-cosine near-duplicate pairs: all (id_a < id_b) with
    cosine ≥ threshold.

    Distributed block cross-product: the (id, vector) blocks stay in the
    object store (``to_arrow_refs``); every block PAIR is scored by one Ray
    task (B·(B+1)/2 tasks, each a single float64 matmul). The driver holds
    only block refs and the resulting PAIRS — never a vector matrix. The
    O(N²) compute is inherent to exactness; at scale route through
    :func:`embedding_neardup_pairs_lsh` (same in-bucket kernel, candidate
    set shrunk by the banded LSH blocking).

    ``as_dataset=True`` returns a (lazy-composable) ``ray.data.Dataset``
    built straight from the result-block refs — the pair tables never land
    on the driver, so downstream stages (dedup, CC, sinks) stream. The
    default pandas return is for the small oracle-checked paths.
    """
    import ray

    sub = ds.select_columns([id_col, vec_col]).materialize()
    refs = sub.to_arrow_refs()
    if len(refs) > max_blocks:           # bound the quadratic task count
        # repartition the MATERIALIZED handle: repartitioning the lazy
        # dataset would re-execute the whole read/select a second time
        refs = sub.repartition(max_blocks).to_arrow_refs()
    if not refs:
        import pandas as pd
        empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                              "id_b": pd.Series([], dtype="int64"),
                              "cosine": pd.Series([], dtype="float64")})
        if as_dataset:
            import ray.data as rd
            return rd.from_pandas(empty)
        return empty

    @ray.remote
    def cross(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        if len(ta) == 0 or len(tb) == 0:   # empty block: no pairs (and
            return pa.table(               # _batch_matrix can't infer dim)
                {"id_a": pa.array([], type=pa.int64()),
                 "id_b": pa.array([], type=pa.int64()),
                 "cosine": pa.array([], type=pa.float64())})
        ma = _normalize(_batch_matrix(ta, vec_col).astype(np.float64))
        mb = ma if same else _normalize(
            _batch_matrix(tb, vec_col).astype(np.float64))
        ids_a = ta[id_col].to_numpy(zero_copy_only=False)
        ids_b = ids_a if same else tb[id_col].to_numpy(zero_copy_only=False)
        return _pairs_from_scores(ids_a, ids_b, ma @ mb.T, threshold,
                                  upper_only=same)

    futures = [cross.remote(refs[i], refs[j], i == j)
               for i in range(len(refs)) for j in range(i, len(refs))]
    if as_dataset:
        import ray.data as rd
        return rd.from_arrow_refs(futures)
    out = pa.concat_tables(ray.get(futures)).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _rowwise_sort_desc_tiebreak(s: np.ndarray, ids: np.ndarray,
                                width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sort by (score DESC, id ASC), trimmed to ``width`` columns —
    two stable argsorts (id pass then score pass), fully vectorized.
    Identical scores (duplicate vectors) break to the smaller id, the same
    ORDER BY cosine DESC, id ASC the SQL mirror uses.

    The ORDERING pass runs on 1e-12-quantized scores: BLAS dgemm summation
    order varies with matrix shape, so an identical vector pair scored
    from two DIFFERENT blocks can differ by 1 ulp and flip the tie rule
    against the oracle's exact tie (r4 fuzz). Quantizing here — on the
    ≤(4k+k)-wide running candidate arrays, not the B×B block matrices
    (np.round there measured 2× the matmul itself) — collapses the noise
    where cross-block candidates actually meet; within one block,
    identical columns get bit-identical scores from the same gemm call.
    Raw scores are returned so repeated folds stay idempotent."""
    q = np.rint(s * 1e12)               # order-only; ±inf ride through
    o1 = np.argsort(ids, axis=1, kind="stable")
    q1 = np.take_along_axis(q, o1, axis=1)
    s1 = np.take_along_axis(s, o1, axis=1)
    i1 = np.take_along_axis(ids, o1, axis=1)
    o2 = np.argsort(-q1, axis=1, kind="stable")[:, :width]
    return (np.take_along_axis(s1, o2, axis=1),
            np.take_along_axis(i1, o2, axis=1))


_TIE_BAND = 2e-12   # superset of the 1e-12 quantized-equality rule


def _select_topk_cols(s: np.ndarray, kk: int) -> np.ndarray:
    """Per-row indices of the top-``kk`` SCORE SET of matrix ``s`` via O(B)
    argpartition; rows whose kth-score tie straddles the boundary get an
    exact fix-up under the fold's rule (round(score,12) DESC, then column
    position) — with columns pre-sorted by id, taking the FIRST equal
    columns resolves ties to the smallest ids.

    The boundary check must be BANDED, not raw equality: dgemm scores
    IDENTICAL columns differently depending on column POSITION within one
    call (remainder-lane FMA order — measured 1-ulp spread on a 6-column
    matmul), so a quantized-equal candidate with a smaller id can sit
    strictly below the raw kth score. Rounding is monotonic, so any pair
    the quantized rule ties across the raw boundary lies within 1e-12 of
    the raw kth — the 2e-12 band detects a superset, and only those rows
    pay the exact per-row re-selection. Rare except duplicate vectors."""
    B = s.shape[1]
    if kk >= B:
        return np.broadcast_to(np.arange(B), s.shape).copy()
    kth = np.partition(s, B - kk, axis=1)[:, B - kk]
    sel = np.argpartition(s, B - kk, axis=1)[:, B - kk:]
    n_gt = (s > kth[:, None]).sum(axis=1)
    with np.errstate(invalid="ignore"):     # -inf - -inf → nan: not a tie
        # one B×B temporary, reused in place for the abs
        d = np.subtract(s, kth[:, None])
        np.abs(d, out=d)
        near = d <= _TIE_BAND
        del d
    n_eq = (near | (s == kth[:, None])).sum(axis=1)
    for r in np.nonzero(n_gt + n_eq > kk)[0]:
        qs = np.round(s[r], 12)
        qkth = np.partition(qs, B - kk)[B - kk]
        gt = np.nonzero(qs > qkth)[0]
        eq = np.nonzero(qs == qkth)[0][: kk - len(gt)]
        sel[r] = np.concatenate([gt, eq])
    return sel


def knn_join(ds, k: int = 3, vec_col: str = "embedding",
             id_col: str = "vec_id", max_blocks: int = 64,
             target_block_rows: int = 4096,
             as_dataset: bool = False):
    """EXACT cosine k-NN join: for every vector, its k nearest OTHER
    vectors (the kNN-graph builder behind near-dup clustering and
    diversity sampling). Deterministic order: cosine DESC, neighbor id ASC.

    Shape: one Ray task per row-block; each task pulls the other blocks
    out of the object store ONE AT A TIME (nested refs — neither the
    driver nor the task ever holds more than one other-block), scores
    block × other-block with a float64 matmul and folds it into a RUNNING
    per-row top-k. Peak task memory is O(block_rows × other_block_rows)
    for the transient score matrix plus O(block_rows × k) for the running
    state — NOT O(block_rows × N_total) (the r3 full-width concatenation
    this replaces). O(N²) compute is inherent to exactness — at scale use
    the LSH bucketing (:func:`embedding_neardup_pairs_lsh`) to build the
    graph approximately.

    Returns a pandas frame (vec_id, nn_rank, neighbor_id) by default;
    ``as_dataset=True`` returns a Dataset built from the result-block refs
    (N×k rows never land on the driver — the streaming path at scale).
    """
    import ray

    sub = ds.select_columns([id_col, vec_col]).materialize()
    n_total = sub.count()
    import pandas as pd
    if n_total == 0:
        empty = pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                              "nn_rank": pd.Series([], dtype="int64"),
                              "neighbor_id": pd.Series([], dtype="int64")})
        if as_dataset:
            import ray.data as rd
            return rd.from_pandas(empty)
        return empty
    # block width caps the transient score matrix at target_block_rows² ×
    # 8 B per task (128 MB at the 4096 default) REGARDLESS of N — more
    # rows means more blocks/tasks, never bigger matrices. The bound is on
    # block SIZE (per-block rows from the materialized metadata, no block
    # fetch): a skewed layout with a plausible block COUNT but one giant
    # block must re-split — but a layout already under the cap keeps its
    # (usually better load-balanced) granularity; a measured forced
    # re-split 64→49 blocks at 200k vectors cost 1.4× wall time on 32
    # CPUs (uneven last wave). Empty blocks re-split too (a 0-row table
    # would div-by-zero in _batch_matrix's dim inference).
    desired = max(1, -(-n_total // target_block_rows))
    sizes = [m.num_rows for b in sub.iter_internal_ref_bundles()
             for m in b.metadata]
    oversize = any(s is None or s > target_block_rows or s == 0
                   for s in sizes)
    if oversize or len(sizes) > max(desired, max_blocks):
        sub = sub.repartition(desired).materialize()
    refs = sub.to_arrow_refs()

    @ray.remote
    def block_topk(ta: pa.Table, other_refs: list) -> pa.Table:
        if len(ta) == 0:      # defense: _batch_matrix infers dim by division
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "nn_rank": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64())})
        ma = _normalize(_batch_matrix(ta, vec_col).astype(np.float64))
        ids_a = ta[id_col].to_numpy(zero_copy_only=False)
        n = len(ma)
        run_s = np.empty((n, 0), dtype=np.float64)
        run_i = np.empty((n, 0), dtype=np.int64)
        for ref in other_refs:
            tb = ray.get(ref)                 # one other-block at a time
            if len(tb) == 0:
                continue
            mb = _normalize(_batch_matrix(tb, vec_col).astype(np.float64))
            ids_b = tb[id_col].to_numpy(zero_copy_only=False)
            # COLUMNS pre-sorted by id (one 1-D sort): boundary score ties
            # then resolve to the smallest ids by taking the FIRST equal
            # columns — no O(B log B) per-row argsort anywhere in the
            # block pass (the 200k probe spent 3× the matmul time there)
            o = np.argsort(ids_b, kind="stable")
            ids_b = ids_b[o]
            # raw scores here; _select_topk_cols band-detects quantized
            # boundary ties (identical columns do NOT score bit-identically
            # even in ONE gemm call — remainder-lane FMA order), and
            # cross-block noise collapses at the fold/final sort over the
            # k-wide candidate arrays (see _rowwise_sort_desc_tiebreak)
            s = ma @ mb[o].T
            s[ids_a[:, None] == ids_b[None, :]] = -np.inf   # exclude self
            sel = _select_topk_cols(s, min(k, s.shape[1]))
            run_s = np.concatenate(
                [run_s, np.take_along_axis(s, sel, axis=1)], axis=1)
            run_i = np.concatenate([run_i, ids_b[sel]], axis=1)
            if run_s.shape[1] > 4 * k:        # fold: width stays ≤ 5k
                run_s, run_i = _rowwise_sort_desc_tiebreak(run_s, run_i, k)
        # ALWAYS final-sort: per-block candidate sets are unordered, and a
        # run whose total width never exceeded the fold trigger (N ≤ 4k
        # across several blocks) must still emit ranks in (score DESC,
        # id ASC) order
        run_s, run_i = _rowwise_sort_desc_tiebreak(
            run_s, run_i, min(k, run_s.shape[1]))
        valid = run_s > -np.inf               # self-only columns drop out
        counts = valid.sum(axis=1)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ranks = np.arange(int(counts.sum())) - np.repeat(starts, counts) + 1
        return pa.table({
            "vec_id": pa.array(np.repeat(ids_a, counts), type=pa.int64()),
            "nn_rank": pa.array(ranks, type=pa.int64()),
            "neighbor_id": pa.array(run_i[valid], type=pa.int64())})

    # nested-list refs are NOT auto-dereferenced by Ray — each task fetches
    # other blocks lazily inside its loop, so the object store can evict
    others = list(refs)
    futures = [block_topk.remote(refs[i], others) for i in range(len(refs))]
    if as_dataset:
        import ray.data as rd
        return rd.from_arrow_refs(futures)
    out = pa.concat_tables(ray.get(futures)).to_pandas()
    return out.sort_values(["vec_id", "nn_rank"]).reset_index(drop=True)


def _topk_against(q_ids: np.ndarray, q_m: np.ndarray, m_ids: np.ndarray,
                  m_m: np.ndarray, k: int, qchunk: int, mchunk: int):
    """Exact (score DESC, id ASC) top-k of every query row against the
    member matrix, self-pairs excluded. Memory is bounded at
    qchunk × mchunk × 8 B for the transient score matrix plus the ≤5k-wide
    running fold — NEVER len(q) × len(m) — so one hot IVF cell cannot blow
    a worker's heap. Returns (vec_id, neighbor_id, score) 1-D arrays."""
    o = np.argsort(m_ids, kind="stable")        # columns id-sorted once:
    m_ids = m_ids[o]                            # boundary ties resolve to
    m_m = m_m[o]                                # the smallest ids
    out_q, out_i, out_s = [], [], []
    for qs in range(0, len(q_ids), qchunk):
        qi = q_ids[qs:qs + qchunk]
        qm = q_m[qs:qs + qchunk]
        nq = len(qi)
        run_s = np.empty((nq, 0), dtype=np.float64)
        run_i = np.empty((nq, 0), dtype=np.int64)
        for ms in range(0, len(m_ids), mchunk):
            mi = m_ids[ms:ms + mchunk]
            s = qm @ m_m[ms:ms + mchunk].T
            s[qi[:, None] == mi[None, :]] = -np.inf     # exclude self
            sel = _select_topk_cols(s, min(k, s.shape[1]))
            run_s = np.concatenate(
                [run_s, np.take_along_axis(s, sel, axis=1)], axis=1)
            run_i = np.concatenate([run_i, mi[sel]], axis=1)
            if run_s.shape[1] > 4 * k:          # fold: width stays ≤ 5k
                run_s, run_i = _rowwise_sort_desc_tiebreak(run_s, run_i, k)
        run_s, run_i = _rowwise_sort_desc_tiebreak(
            run_s, run_i, min(k, run_s.shape[1]))
        valid = run_s > -np.inf
        counts = valid.sum(axis=1)
        out_q.append(np.repeat(qi, counts))
        out_i.append(run_i[valid])
        out_s.append(run_s[valid])
    if not out_q:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), np.empty(0, dtype=np.float64)
    return (np.concatenate(out_q), np.concatenate(out_i),
            np.concatenate(out_s))


def knn_join_ivf(ds, k: int = 3, n_cells: int = 16, n_probe: int = 4,
                 seed: int = 42, vec_col: str = "embedding",
                 id_col: str = "vec_id", num_groups: "Optional[int]" = None,
                 sample_n: int = 2048, cache_key: Optional[str] = None,
                 qchunk: int = 4096, mchunk: int = 8192,
                 as_dataset: bool = False):
    """IVF-partitioned APPROXIMATE cosine k-NN join — the 100 TB path the
    exact :func:`knn_join` cannot be (its compute is inherently O(N²)).

    Shape (every step is a Dataset op; nothing materializes on the driver):

    1. Coarse centroids via :func:`build_ivf_centroids` (driver k-means on
       a ≤``sample_n`` deterministic hash sample; broadcast via
       ``ray.put``).
    2. One ``map_batches`` pass routes each vector to its ``n_probe``
       nearest cells (one matmul per batch against the broadcast
       centroids). The row is a *member* only of its NEAREST cell and a
       *query* in all probed cells — so a (query, neighbor) pair can meet
       in exactly ONE cell (the neighbor's home) and the join emits no
       duplicate pairs by construction. Shuffle volume is
       n_probe × (id + raw float32 vector) per row.
    3. Hash-bucketed ``groupby(cell)`` (``num_groups`` group calls —
       defaults to a SIZE-BASED value so one map_groups task holds ~200k
       routed rows rather than a fixed 1/64 of the dataset): per cell,
       exact chunked top-k of the cell's queries against the cell's
       members (:func:`_topk_against` — the score matrix is bounded at
       qchunk × mchunk per task). Residual memory risk: a single cell is
       atomic (its members can't be split without breaking within-cell
       exactness), so one HOT cell larger than the group target still
       lands in one task — pick n_cells ≈ √N so expected cell size ≈ √N,
       and raise n_cells if k-means leaves a mega-cell.
    4. Hash-bucketed ``groupby(vec_id)`` merge: each query's ≤ n_probe × k
       candidates fold to the global top-k with the canonical
       (1e-12-quantized score DESC, id ASC) rule, ranks assigned 1..k.

    Compute is O(N²/n_cells × n_probe) instead of O(N²): pick
    n_cells ≈ √N at scale. Recall < 1.0 by design (a true neighbor whose
    home cell the query does not probe is missed); raise ``n_probe`` to
    trade compute for recall. Output schema matches :func:`knn_join`
    (vec_id, nn_rank, neighbor_id); ``as_dataset=True`` streams.
    """
    import ray
    import pandas as pd
    import ray.data as rd
    import pyarrow.compute as pc

    from .dedup import _group_of
    from ..rayutil import anchor_empty_schema

    # materialize ONCE (mirrors knn_join): the lazy plan would otherwise
    # re-execute the whole upstream chain three times — count(), the
    # centroid-sample pass, and the route map_batches
    sub = ds.select_columns([id_col, vec_col]).materialize()
    n_total = sub.count()
    if n_total == 0:            # Ray's empty to_pandas loses the schema —
        empty = pd.DataFrame(   # short-circuit before the centroid sample
            {"vec_id": pd.Series([], dtype="int64"),
             "nn_rank": pd.Series([], dtype="int64"),
             "neighbor_id": pd.Series([], dtype="int64")})
        return rd.from_pandas(empty) if as_dataset else empty
    cent = build_ivf_centroids(sub, n_cells, sample_n=sample_n, seed=seed,
                               vec_col=vec_col, id_col=id_col,
                               cache_key=cache_key)
    cent_ref = ray.put(cent)
    np_eff = min(n_probe, len(cent))
    if num_groups is None:
        # size-based: one cell-bucket map_groups task holds ~200k routed
        # rows (≈ 200k × dim × 12 B after the float64 normalize) instead
        # of a fixed 1/64 of N·n_probe, which grows linearly with N.
        # Result-invariant: per_cell_group/merge_group work per cell /
        # per query WITHIN a bucket, so bucketing only sizes tasks.
        num_groups = max(64, -(-(n_total * np_eff) // 200_000))
    chunk_elems = _ROUTE_CHUNK_ELEMS   # snapshot into the route closure

    def route(t: pa.Table) -> pa.Table:
        empty_vecs = pa.ListArray.from_arrays(
            pa.array([0], type=pa.int32()),
            pa.array([], type=pa.float32())).slice(0, 0)
        if len(t) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "_cell": pa.array([], type=pa.int32()),
                             "_member": pa.array([], type=pa.bool_()),
                             "_nvec": empty_vecs})
        c = ray.get(cent_ref)
        raw = _batch_matrix(t, vec_col)              # stored float32, exact
        m = _normalize(raw.astype(np.float64))
        n, dim = m.shape
        # stable argsort ⇒ probe[0] == np.argmax ⇒ the member cell matches
        # ivf_topk's assignment rule exactly
        order = (np.argsort(-(m @ c.T), axis=1, kind="stable")[:, :np_eff]
                 .astype(np.int32))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        # ship the RAW float32 values (zero loss) and normalize in float64
        # inside the cell — normalizing here and rounding back to float32
        # would perturb scores ~1e-8 vs the exact kernel's math and could
        # flip near-tied rankings (full-probe == exact would no longer be
        # bit-for-bit). Replicate in CHUNKS: the n_probe-fold np.repeat on
        # a whole block would hold np_eff copies of it transiently AND its
        # int32 list offsets overflow past 2^31 flat elements (review r5)
        rows_per = max(1, chunk_elems // (np_eff * dim))
        parts = []
        for s0 in range(0, n, rows_per):
            e0 = min(n, s0 + rows_per)
            nn = e0 - s0
            member = np.zeros(nn * np_eff, dtype=bool)
            member[::np_eff] = True
            rep = np.ascontiguousarray(np.repeat(raw[s0:e0], np_eff,
                                                 axis=0))
            offs = pa.array(np.arange(0, (nn * np_eff + 1) * dim, dim,
                                      dtype=np.int32))
            vecs = pa.ListArray.from_arrays(offs,
                                            pa.array(rep.reshape(-1)))
            parts.append(pa.table(
                {id_col: pa.array(np.repeat(ids[s0:e0], np_eff),
                                  type=pa.int64()),
                 "_cell": pa.array(order[s0:e0].reshape(-1)),
                 "_member": pa.array(member),
                 "_nvec": vecs}))
        return pa.concat_tables(parts)

    def add_gb(t: pa.Table) -> pa.Table:
        cells = t["_cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_gb", pa.array(_group_of(cells, num_groups)))

    def per_cell_group(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], type=pa.int64()),
                          "_nid": pa.array([], type=pa.int64()),
                          "_score": pa.array([], type=pa.float64())})
        if len(t) == 0:
            return empty
        idx = pc.sort_indices(t, sort_keys=[("_cell", "ascending"),
                                            (id_col, "ascending")])
        t = t.take(idx)
        cells = t["_cell"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        member = t["_member"].to_numpy(zero_copy_only=False)
        # raw float32 → float64 → normalize: the exact kernel's math,
        # bit-for-bit (see the route() shipping comment)
        m = _normalize(_batch_matrix(t, "_nvec").astype(np.float64))
        starts = np.nonzero(np.concatenate(
            ([True], cells[1:] != cells[:-1])))[0]
        ends = np.concatenate((starts[1:], [len(t)]))
        parts = []
        for s, e in zip(starts, ends):
            mem = member[s:e]
            if not mem.any():
                continue
            qs, ni, sc = _topk_against(ids[s:e], m[s:e],
                                       ids[s:e][mem], m[s:e][mem],
                                       k, qchunk, mchunk)
            if len(qs):
                parts.append(pa.table({id_col: pa.array(qs, type=pa.int64()),
                                       "_nid": pa.array(ni, type=pa.int64()),
                                       "_score": pa.array(sc,
                                                          type=pa.float64())}))
        return pa.concat_tables(parts) if parts else empty

    def add_qb(t: pa.Table) -> pa.Table:
        q = t[id_col].to_numpy(zero_copy_only=False)
        return t.append_column("_qb", pa.array(_group_of(q, num_groups)))

    def merge_group(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "nn_rank": pa.array([], type=pa.int64()),
                             "neighbor_id": pa.array([], type=pa.int64())})
        q = t[id_col].to_numpy(zero_copy_only=False)
        nid = t["_nid"].to_numpy(zero_copy_only=False)
        # 1e-12-quantized ORDERING + id tie-break: pairs score in exactly
        # one cell, but two DIFFERENT neighbors at a true cosine tie may
        # have been scored in different gemm shapes (1-ulp noise)
        sq = np.rint(t["_score"].to_numpy(zero_copy_only=False) * 1e12)
        order = np.lexsort((nid, -sq, q))
        qo = q[order]
        seg = np.concatenate(([True], qo[1:] != qo[:-1]))
        seg_start = np.nonzero(seg)[0]
        pos = np.arange(len(qo)) - np.repeat(
            seg_start, np.diff(np.concatenate((seg_start, [len(qo)]))))
        keep = pos < k
        return pa.table({
            "vec_id": pa.array(qo[keep], type=pa.int64()),
            "nn_rank": pa.array(pos[keep] + 1, type=pa.int64()),
            "neighbor_id": pa.array(nid[order][keep], type=pa.int64())})

    routed = sub.map_batches(route, batch_format="pyarrow", batch_size=None)
    cand = anchor_empty_schema(
        routed.map_batches(add_gb, batch_format="pyarrow", batch_size=None)
        .groupby("_gb").map_groups(per_cell_group, batch_format="pyarrow"),
        pa.schema([(id_col, pa.int64()), ("_nid", pa.int64()),
                   ("_score", pa.float64())]))
    merged = anchor_empty_schema(
        cand.map_batches(add_qb, batch_format="pyarrow", batch_size=None)
        .groupby("_qb").map_groups(merge_group, batch_format="pyarrow"),
        pa.schema([("vec_id", pa.int64()), ("nn_rank", pa.int64()),
                   ("neighbor_id", pa.int64())]))
    if as_dataset:
        return merged
    out = merged.to_pandas()
    if "vec_id" not in out.columns:     # fully-empty: schema-less to_pandas
        out = pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                            "nn_rank": pd.Series([], dtype="int64"),
                            "neighbor_id": pd.Series([], dtype="int64")})
    return out.sort_values(["vec_id", "nn_rank"]).reset_index(drop=True)


class _BandedExplode:
    """Banded random-hyperplane LSH explode: each vector → ``n_tables``
    rows of (id, table-salted bucket, normalized vec). Planes are drawn
    lazily from the first batch's dim with a fixed seed, so per-worker
    rebuilds are identical and cost ~µs — safe to closure-capture into a
    task pool (see the dedup minhash task-vs-actor measurement)."""

    _SALT = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, vec_col: str, id_col: str, n_tables: int,
                 planes_per_table: int, seed: int):
        self.vec_col, self.id_col = vec_col, id_col
        self.n_tables, self.planes_per_table = n_tables, planes_per_table
        self.seed = seed
        self.planes = None  # dim inferred from the first batch

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if len(t) == 0:
            empty_vecs = pa.ListArray.from_arrays(
                pa.array([0], type=pa.int32()),
                pa.array([], type=pa.float32())).slice(0, 0)
            return pa.table({self.id_col: t[self.id_col].slice(0, 0),
                             "bucket": pa.array([], type=pa.int64()),
                             "_nvec": empty_vecs})
        m = _normalize(_batch_matrix(t, self.vec_col).astype(np.float32))
        n, dim = m.shape
        L, r = self.n_tables, self.planes_per_table
        if self.planes is None:
            rng = np.random.RandomState(self.seed)
            self.planes = rng.randn(dim, L * r).astype(np.float32)
        bits = (m @ self.planes) > 0              # n × (L·r)
        bits = bits.reshape(n, L, r)
        sig = (bits @ (1 << np.arange(r))).astype(np.uint64)
        tids = np.arange(L, dtype=np.uint64)[None, :]
        bucket = ((sig | (tids << np.uint64(8))) * self._SALT).view(np.int64)
        idx = np.repeat(np.arange(n), L)
        ids = t[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        rep = np.ascontiguousarray(m[idx])
        offs = pa.array(np.arange(0, (len(idx) + 1) * dim, dim,
                                  dtype=np.int32))
        vecs = pa.ListArray.from_arrays(offs, pa.array(rep.reshape(-1)))
        return pa.table({self.id_col: pc.take(ids, pa.array(idx, type=pa.int64())),
                         "bucket": pa.array(bucket.reshape(-1)),
                         "_nvec": vecs})


def embedding_neardup_pairs_lsh(ds, threshold: float = 0.9,
                                vec_col: str = "embedding",
                                id_col: str = "vec_id",
                                n_tables: int = 12,
                                planes_per_table: int = 4,
                                seed: int = 42, num_groups: int = 64,
                                hot_cap: int = 8192, skip_counter=None,
                                as_dataset: bool = False):
    """Approximate near-dup pairs — the 100 TB path: banded random-
    hyperplane LSH. Each vector explodes into ``n_tables`` rows
    (table, bucket, id, normalized vec); pairs are scored ONLY inside a
    (table, bucket) segment (one matmul per segment, hash-bucketed groups =
    ``num_groups`` vectorized group calls); a native max-aggregate dedupes
    pairs found by several tables.

    Recall for a pair at cosine c: with p = 1 - arccos(c)/π,
    P(candidate) = 1 - (1 - p^r)^L  (r = planes_per_table, L = n_tables);
    defaults give ≈0.99 at c = 0.9. Precision is exact (scores are real
    cosines; the threshold filter runs in-bucket). ``as_dataset=True``
    returns the distinct-pairs Dataset unsorted (the streaming path)."""
    import pandas as pd
    import ray.data  # noqa: F401  (Dataset ops used via ds)

    from .dedup import _group_of

    def add_gb(t: pa.Table) -> pa.Table:
        b = t["bucket"].to_numpy(zero_copy_only=False)
        return t.append_column("_gb", pa.array(_group_of(b, num_groups)))

    def per_group(t: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                          "id_b": pa.array([], type=pa.int64()),
                          "cosine": pa.array([], type=pa.float64())})
        if len(t) == 0:
            return empty
        import pyarrow.compute as pc
        idx = pc.sort_indices(t, sort_keys=[("bucket", "ascending"),
                                            (id_col, "ascending")])
        t = t.take(idx)
        buckets = t["bucket"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        m = _batch_matrix(t, "_nvec").astype(np.float64)  # already normalized
        starts = np.nonzero(np.concatenate(
            ([True], buckets[1:] != buckets[:-1])))[0]
        ends = np.concatenate((starts[1:], [len(t)]))
        parts = []
        skipped_b = skipped_r = 0
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            if hot_cap is not None and e - s > hot_cap:
                skipped_b += 1
                skipped_r += e - s
                continue
            seg_ids = ids[s:e]
            seg_m = m[s:e]
            parts.append(_pairs_from_scores(seg_ids, seg_ids,
                                            seg_m @ seg_m.T, threshold,
                                            upper_only=True))
        from .dedup import _report_skips
        _report_skips("embedding_neardup_pairs_lsh", hot_cap, skipped_b,
                      skipped_r, skip_counter)
        return pa.concat_tables(parts) if parts else empty

    # task pool: the lazily-built plane matrix is seeded + deterministic,
    # so per-worker rebuilds are identical and cost ~µs (dim × L·r floats);
    # actor spawn would dominate (see the dedup minhash measurement)
    ex = _BandedExplode(vec_col, id_col, n_tables, planes_per_table, seed)
    exploded = ds.map_batches(lambda t, _s=ex: _s(t),
                              batch_format="pyarrow", batch_size=None)
    from ..rayutil import anchor_empty_schema
    pairs = anchor_empty_schema(
        exploded.map_batches(add_gb, batch_format="pyarrow",
                             batch_size=None)
        .groupby("_gb").map_groups(per_group, batch_format="pyarrow"),
        pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                   ("cosine", pa.float64())]))
    # a pair found by several tables scores IDENTICALLY in each (same
    # normalized vectors) → first-wins bucket dedupe (vectorized; Ray's
    # native multi-key max-agg is ~30× slower per distinct_pairs note)
    from .dedup import distinct_pairs
    deduped = distinct_pairs(pairs, carry=("cosine",),
                             carry_types={"cosine": pa.float64()})
    if as_dataset:
        return deduped
    out = deduped.to_pandas()
    if "id_a" not in out.columns:      # zero groups → schema-less empty df
        out = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                            "id_b": pd.Series([], dtype="int64"),
                            "cosine": pd.Series([], dtype="float64")})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


class LshIndexStage:
    """Random-hyperplane signature stage: ``__init__`` draws the (seeded)
    hyperplanes once per actor; ``__call__`` adds a bucket column."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 42,
                 vec_col: str = "embedding"):
        rng = np.random.RandomState(seed)
        self.planes = rng.randn(dim, n_planes).astype(np.float32)
        self.vec_col = vec_col

    def signature(self, m: np.ndarray) -> np.ndarray:
        return ((m @ self.planes) > 0) @ (1 << np.arange(self.planes.shape[1]))

    def __call__(self, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl.append_column("lsh_bucket",
                                     pa.array([], type=pa.int64()))
        m = _batch_matrix(tbl, self.vec_col)
        sig = self.signature(m).astype(np.int64)
        return tbl.append_column("lsh_bucket", pa.array(sig))


_IVF_CENTROID_CACHE: dict = {}
_IVF_CACHE_MAX = 32                      # bound the in-process cache


def _ivf_cache_sig(cache_key: str) -> tuple:
    """Fold a cheap content signal into the cache key: when the key names
    an existing file or directory, its (mtime_ns, size) joins the key so a
    regenerated dataset at the same path invalidates stale centroids."""
    import os
    try:
        st = os.stat(cache_key)
        return (cache_key, st.st_mtime_ns, st.st_size)
    except OSError:
        return (cache_key,)


def _centroid_sample(ds, sample_n: int, id_col: str, vec_col: str):
    """Deterministic ORDER-INDEPENDENT sample for centroid training: rows
    whose md5-bucketed id falls under the sample fraction (the same
    row-local rule as ``functions.sampling``), sorted by (bucket, id) and
    trimmed to ``sample_n``. Unlike the previous ``ds.limit(sample_n)``
    (first-N rows — one stratum on source/time-ordered data), membership
    does not depend on row order, block layout or which node reads first,
    so centroids are reproducible across repartitions and cluster sizes."""
    from .sampling import md5_bucket_array

    total = ds.count()
    if total <= sample_n:
        df = ds.to_pandas()
        b = md5_bucket_array(pa.array(df[id_col]))
        return df.iloc[np.lexsort((df[id_col].to_numpy(), b))]
    # 30% overshoot: Binomial(total, frac) lands under sample_n with
    # negligible probability at sample_n ≥ a few hundred; trim after sort.
    # Bucket count scales with 1/frac so the integer cut tracks frac to
    # ≤ ~6% relative error — with a FIXED bucket count, cut clamps to ≥ 1
    # bucket and the driver pull grows as total/buckets (unbounded in N)
    # instead of staying ≈ 1.3 × sample_n.
    frac = min(1.0, sample_n / total * 1.3)
    buckets = max(10_000, int(np.ceil(8.0 / frac)))
    cut = max(1, int(round(frac * buckets)))

    def keep(t: pa.Table) -> pa.Table:
        b = md5_bucket_array(t[id_col], buckets)
        t = t.filter(pa.array(b < cut))
        return t

    df = ds.map_batches(keep, batch_format="pyarrow",
                        batch_size=None).to_pandas()
    b = md5_bucket_array(pa.array(df[id_col]), buckets)
    return df.iloc[np.lexsort((df[id_col].to_numpy(), b))].head(sample_n)


def build_ivf_centroids(ds, n_cells: int = 16, sample_n: int = 2048,
                        iters: int = 10, seed: int = 42,
                        vec_col: str = "embedding",
                        id_col: str = "vec_id",
                        cache_key: Optional[str] = None) -> np.ndarray:
    """Driver-side k-means on a deterministic hash sample → IVF coarse
    centroids.

    The sample (≤ sample_n rows, md5-bucket rule — see
    :func:`_centroid_sample`) is the only data pulled to the driver; Lloyd
    iterations are numpy matmuls. Deterministic AND order-independent
    (seeded init, no wall-clock, no first-N bias). Pass ``cache_key`` (a
    dataset fingerprint — e.g. its source path) to persist centroids
    in-process: repeated ``ivf_topk`` calls against the same dataset skip
    both the sample pull and the k-means pass entirely."""
    if cache_key is not None:
        ck = _ivf_cache_sig(cache_key) + (n_cells, sample_n, iters, seed,
                                          vec_col, id_col)
        hit = _IVF_CENTROID_CACHE.get(ck)
        if hit is not None:
            return hit
    sample = _centroid_sample(ds, sample_n, id_col, vec_col)
    m = _normalize(np.stack(sample[vec_col].to_numpy()).astype(np.float64))
    rng = np.random.RandomState(seed)
    cent = m[rng.choice(len(m), size=min(n_cells, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(len(cent)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    if cache_key is not None:
        while len(_IVF_CENTROID_CACHE) >= _IVF_CACHE_MAX:
            _IVF_CENTROID_CACHE.pop(next(iter(_IVF_CENTROID_CACHE)))
        _IVF_CENTROID_CACHE[ck] = cent
    return cent


def ivf_topk(ds, query: np.ndarray, k: int = 10, n_cells: int = 16,
             n_probe: int = 4, seed: int = 42,
             vec_col: str = "embedding", id_col: str = "vec_id",
             cache_key: Optional[str] = None):
    """IVF approximate top-k: assign every vector to its nearest coarse
    centroid (one matmul per batch against the broadcast centroids), search
    only the ``n_probe`` cells nearest the query. The scale path for ANN:
    candidate set shrinks ~n_cells/n_probe-fold; centroids build once per
    ``cache_key`` (dataset fingerprint) and are reused across calls."""
    import ray

    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    qn = _normalize(q)
    cent = build_ivf_centroids(ds, n_cells, seed=seed, vec_col=vec_col,
                               id_col=id_col, cache_key=cache_key)
    cent_ref = ray.put(cent)
    probe_cells = set(np.argsort(-(qn @ cent.T))[0][:n_probe].tolist())
    probe_ref = ray.put(probe_cells)

    def keep_probed(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl
        c = ray.get(cent_ref)
        cells = ray.get(probe_ref)
        m = _normalize(_batch_matrix(tbl, vec_col).astype(np.float64))
        assign = np.argmax(m @ c.T, axis=1)
        mask = pa.array(np.isin(assign, list(cells)))
        return tbl.filter(mask)

    cand = ds.map_batches(keep_probed, batch_format="pyarrow",
                          batch_size=None)
    return brute_force_topk(cand, q, k, vec_col, id_col)


def lsh_topk(ds, query: np.ndarray, k: int = 10, dim: Optional[int] = None,
             n_planes: int = 8, seed: int = 42, probe_hamming1: bool = True,
             vec_col: str = "embedding", id_col: str = "vec_id",
             concurrency: int = 2):
    """Approximate cosine top-k: probe only the query's LSH bucket (and its
    hamming-1 neighbors). Recall < 1.0 by design; n_planes trades recall
    for candidate-set size."""
    q = np.atleast_2d(np.asarray(query, dtype=np.float32))
    if dim is None:
        dim = q.shape[1]
    # task pool: the stage holds a dim × n_planes float32 plane matrix
    # (~KBs) — closure-capture beats actor spawn (see minhash note)
    stage = LshIndexStage(dim, n_planes, seed, vec_col)
    bucketed = ds.map_batches(
        lambda t, _s=stage: _s(t),
        batch_format="pyarrow", batch_size=None, concurrency=concurrency)
    q_sig = int(stage.signature(_normalize(q))[0])
    probes = {q_sig}
    if probe_hamming1:
        probes |= {q_sig ^ (1 << b) for b in range(n_planes)}

    import pyarrow.compute as pc
    probe_arr = pa.array(sorted(probes), type=pa.int64())
    cand = bucketed.map_batches(
        lambda t: t.filter(pc.is_in(t["lsh_bucket"], value_set=probe_arr)),
        batch_format="pyarrow", batch_size=None)
    return brute_force_topk(cand, q, k, vec_col, id_col)
