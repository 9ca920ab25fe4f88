"""Similarity search over an embedding column (``list<float>``).

- :func:`brute_force_topk` — exact cosine top-k: the query matrix is
  ``ray.put`` ONCE (broadcast), every batch does one numpy matmul, emits
  only its local top-k, and the driver merges tiny partials (never the
  full score matrix).
- :func:`knn_join` / :func:`knn_join_ivf` — exact and IVF-partitioned
  kNN joins, both scored by one running top-k fold
  (:func:`_running_topk`) over tiles of at most ``_TILE_ROWS`` rows.
- :class:`LshIndexStage` / :func:`lsh_topk` — the scale path: seeded
  random-hyperplane signatures bucket vectors; queries probe only their
  own bucket (+ optional hamming-1 neighbors). Bucketing is a plain
  ``map_batches`` + filter, no shuffle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import (block_meta, group_count, keyed_groups, map_blocks,
                       materialized, _wrap)

# knn_join_ivf.route() replicates each vector n_probe-fold; it emits the
# replicas in chunks of at most this many flat float32 list elements
# (8M ≈ 32 MB) so the transient copy is bounded and the int32 list
# offsets stay far below 2^31 for ANY input block size. Module-level so
# tests can shrink it to force multi-chunk routing on small data.
_ROUTE_CHUNK_ELEMS = 8_000_000

# The exact-scoring tile, in rows: the block width of knn_join (default)
# and of exact embedding_neardup_pairs, and knn_join_ivf's per-cell tile
# on both the query and the member side. One task's transient score
# matrix is at most _TILE_ROWS² × 8 B (128 MB) whatever N, the input
# block layout or the hottest IVF cell. Module-level so tests can shrink
# it to force many tiles on small data.
_TILE_ROWS = 4096

_TIE_BAND = 2e-12   # superset of the 1e-12 quantized-equality rule

_KNN_SCHEMA = pa.schema([("vec_id", pa.int64()), ("nn_rank", pa.int64()),
                         ("neighbor_id", pa.int64())])
_PAIR_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                          ("cosine", pa.float64())])


def _batch_matrix(tbl: pa.Table, vec_col: str) -> np.ndarray:
    if len(tbl) == 0:
        # dim is inferred from the data, so an empty block yields (0, 0) —
        # callers must short-circuit before mixing with a non-empty side
        return np.zeros((0, 0), dtype=np.float32)
    col = tbl[vec_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lens = pc.min_max(pc.list_value_length(col))
    if col.null_count or lens["min"] != lens["max"]:
        raise ValueError(
            f"vector column {vec_col!r}: every row must be a non-null "
            f"vector of one length (found {col.null_count} null rows, "
            f"lengths {lens['min']}..{lens['max']})")
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float32)
    return flat.reshape(len(tbl), lens["max"].as_py())


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _unit_rows(tbl: pa.Table, vec_col: str) -> np.ndarray:
    """The stored float32 vectors as float64 unit rows — the exact
    kernels' math (zero vectors stay zero)."""
    return _normalize(_batch_matrix(tbl, vec_col).astype(np.float64))


def _list_column(m: np.ndarray) -> pa.ListArray:
    """The rows of a 2-D float32 matrix as one ``list<float32>`` column."""
    n, dim = m.shape
    offs = pa.array(np.arange(n + 1, dtype=np.int64) * dim, type=pa.int32())
    return pa.ListArray.from_arrays(
        offs, pa.array(np.ascontiguousarray(m).reshape(-1)))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """1-based positions within consecutive runs of the given lengths."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts) + 1


def _result(out, schema: pa.Schema, as_dataset: bool):
    """The one return path of the joins: ``out`` is a list of per-task
    ``(table, block_meta)`` ref pairs, or a Dataset. Returns a Dataset
    (of the tables that have rows; none has: one 0-row ``schema`` block),
    or a pandas frame of ``schema`` sorted by its first two columns."""
    import ray

    if isinstance(out, list):
        if as_dataset:
            return _wrap(out, lambda: schema)
        out = [t for t, _ in out]
    elif as_dataset:
        return out
    else:
        out = out.to_arrow_refs()     # then one ray.get, no batch iterator
    tables = ray.get(out)             # the task results, no Dataset trip
    # an all-empty Dataset can hand back schema-less zero-row blocks
    tbl = pa.concat_tables([t for t in tables if len(t)]
                           or [schema.empty_table()])
    return tbl.to_pandas().sort_values(schema.names[:2]) \
        .reset_index(drop=True)


def _vector_blocks(ds, id_col: str, vec_col: str, target_rows: int,
                   max_blocks: int) -> list:
    """The blocks of ``ds`` (``rayutil.materialized``: at least its id and
    vector columns) as refs to tables of 1..``target_rows`` rows each (no
    refs for an empty ``ds``), so a block-pair task's transient score
    matrix stays ≤ target_rows² × 8 B REGARDLESS of N — more rows means
    more blocks, never bigger matrices.

    The bound is on block SIZE (per-block rows from the blocks'
    metadata, no block fetch): a skewed layout with a plausible block
    COUNT but one giant block must re-split, and so must an empty block
    (``_batch_matrix`` cannot infer its dim). A layout already under the
    cap keeps its (usually better load-balanced) granularity unless it
    has more than max(ceil(N / target_rows), max_blocks) blocks; a
    measured forced re-split 64→49 blocks at 200k vectors cost 1.4× wall
    time on 32 CPUs (uneven last wave). The re-split cuts the rows into
    ceil(N / target_rows) even ranges, one task per range."""
    import ray

    from ..rayutil import _concat

    sub = materialized(ds, [id_col, vec_col])
    blocks = [bl for b in sub.iter_internal_ref_bundles() for bl in b.blocks]
    sizes = np.array([m.num_rows for _, m in blocks], dtype=np.int64)
    n_total = int(sizes.sum())
    if n_total == 0:
        return []
    desired = -(-n_total // target_rows)
    if (len(sizes) <= max(desired, max_blocks)
            and ((sizes > 0) & (sizes <= target_rows)).all()):
        return sub.to_arrow_refs()

    @ray.remote
    def row_range(offset: int, n: int, *parts) -> pa.Table:
        from ray.data.block import BlockAccessor
        return _concat([BlockAccessor.for_block(p).to_arrow()
                        for p in parts]).slice(offset, n)

    ends = np.cumsum(sizes)
    starts = ends - sizes
    bounds = np.arange(desired + 1) * n_total // desired
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        hit = [i for i in range(np.searchsorted(ends, lo, side="right"),
                                np.searchsorted(starts, hi))
               if sizes[i]]
        out.append(row_range.remote(int(lo - starts[hit[0]]), int(hi - lo),
                                    *[blocks[i][0] for i in hit]))
    return out


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
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        # per-row (score DESC, id ASC) top-kk, as _running_topk selects:
        # columns pre-sorted by id, the shared selection, then a sort of
        # the kk-wide candidates (quantized there, never on Q × B)
        o = np.argsort(ids, kind="stable")
        ids = ids[o]
        scores = qm @ _unit_rows(tbl, vec_col)[o].T      # Q × B
        kk = min(k, scores.shape[1])
        sel = _select_topk_cols(scores, kk)
        top_s, top_i = _rowwise_sort_desc_tiebreak(
            np.take_along_axis(scores, sel, axis=1), ids[sel], kk)
        return pa.table({
            "query_idx": pa.array(np.repeat(
                np.arange(len(qm), dtype=np.int32), kk)),
            id_col: pa.array(top_i.reshape(-1)),
            "score": pa.array(top_s.reshape(-1), type=pa.float64())})

    partials = map_blocks(ds, local_topk).to_pandas()
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
    """Vectorized (id_a < id_b, cosine) extraction from a score matrix.
    A cosine within ``_TIE_BAND`` below the threshold counts as equal to
    it: an exact tie (2/5 from dyadic vectors at threshold 0.4) comes out
    of dgemm 1 ulp either side depending on the matrix shape, so a raw
    compare made the pair set depend on the block layout (fuzz)."""
    hits = scores >= threshold - _TIE_BAND
    if upper_only:
        hits &= np.triu(np.ones_like(hits, dtype=bool), 1)
    ri, ci = np.nonzero(hits)
    a = ids_a[ri]
    b = ids_b[ci]
    sc = scores[ri, ci]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keep = lo != hi
    return pa.Table.from_arrays([lo[keep], hi[keep], sc[keep]],
                                schema=_PAIR_SCHEMA)


def embedding_neardup_pairs(ds, threshold: float = 0.9,
                            vec_col: str = "embedding",
                            id_col: str = "vec_id",
                            max_blocks: int = 64,
                            as_dataset: bool = False):
    """EXACT embedding-cosine near-duplicate pairs: all (id_a < id_b) with
    cosine ≥ threshold.

    Distributed block cross-product: the (id, vector) blocks stay in the
    object store (:func:`_vector_blocks`: at most ``_TILE_ROWS`` rows per
    block, so each task's score matrix is bounded whatever the input
    layout); every block PAIR is scored by one Ray task (B·(B+1)/2 tasks,
    each a single float64 matmul). The driver holds only block refs and
    the resulting PAIRS — never a vector matrix. The O(N²) compute is
    inherent to exactness; at scale route through
    :func:`embedding_neardup_pairs_lsh` (same in-bucket kernel, candidate
    set shrunk by the banded LSH blocking).

    ``as_dataset=True`` returns a (lazy-composable) ``ray.data.Dataset``
    built straight from the result-block refs — the pair tables never land
    on the driver, so downstream stages (dedup, CC, sinks) stream. The
    default pandas return is for the small oracle-checked paths.
    """
    import ray

    refs = _vector_blocks(ds, id_col, vec_col, _TILE_ROWS, max_blocks)

    @ray.remote(num_returns=2)
    def cross(ta: pa.Table, tb: pa.Table, same: bool):
        ma = _unit_rows(ta, vec_col)
        mb = ma if same else _unit_rows(tb, vec_col)
        ids_a = ta[id_col].to_numpy(zero_copy_only=False)
        ids_b = ids_a if same else tb[id_col].to_numpy(zero_copy_only=False)
        out = _pairs_from_scores(ids_a, ids_b, ma @ mb.T, threshold,
                                 upper_only=same)
        return out, block_meta(out)

    return _result([cross.remote(refs[i], refs[j], i == j)
                    for i in range(len(refs)) for j in range(i, len(refs))],
                   _PAIR_SCHEMA, as_dataset)


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
    the raw kth. A row can need the re-selection only when more than
    ``kk`` columns score ≥ kth − 2e-12 (one compare detects a superset),
    and only those rows pay the exact per-row re-selection. Rare except
    duplicate vectors; a -inf kth (the self column) always re-selects."""
    B = s.shape[1]
    if kk >= B:
        return np.broadcast_to(np.arange(B), s.shape).copy()
    sel = np.argpartition(s, B - kk, axis=1)[:, B - kk:]
    kth = s[np.arange(len(s)), sel[:, 0]]
    n_near = (s >= (kth - _TIE_BAND)[:, None]).sum(axis=1)
    for r in np.nonzero(n_near > kk)[0]:
        qs = np.round(s[r], 12)
        qkth = np.partition(qs, B - kk)[B - kk]
        gt = np.nonzero(qs > qkth)[0]
        eq = np.nonzero(qs == qkth)[0][: kk - len(gt)]
        sel[r] = np.concatenate([gt, eq])
    return sel


def _running_topk(q_ids: np.ndarray, q_m: np.ndarray, chunks, k: int):
    """Exact (score DESC, id ASC) top-k of every query row (ids ``q_ids``,
    unit rows ``q_m``) against the member rows streamed in as ``chunks``,
    an iterable of ``(ids, unit_matrix)``; self-pairs are excluded. Only
    one chunk's score matrix (len(q_ids) × chunk rows × 8 B) and the
    k-wide running state (≤5k wide while a chunk folds in) are held at a
    time — the fold is associative, so how the members are chunked does
    not change the result.

    After each chunk the state is every row's k best candidates in
    (score DESC, id ASC) order, and the raw score of the k-th is the row's
    FLOOR: a column scoring below floor − ``_TIE_BAND`` quantizes strictly
    below every candidate, so it cannot enter. A later chunk hands the
    fold only the columns at or above that band (usually none); a row
    with more than 4k columns in the band (duplicates, zero vectors), or
    with fewer than k real candidates so far (floor -inf, e.g. the first
    chunk), takes the per-chunk top-k selection instead.

    Returns (per-query neighbor counts, neighbor ids, raw scores); the
    last two are flat, query by query, in rank order."""
    n = len(q_ids)
    run_s = np.empty((n, 0), dtype=np.float64)
    run_i = np.empty((n, 0), dtype=np.int64)
    floor = np.full(n, -np.inf)
    for ids, m in chunks:
        if n == 0 or len(ids) == 0:
            continue
        # COLUMNS pre-sorted by id (one 1-D sort): boundary score ties
        # then resolve to the smallest ids by taking the FIRST equal
        # columns — no O(B log B) per-row argsort anywhere in the
        # chunk pass (the 200k probe spent 3× the matmul time there)
        o = np.argsort(ids, kind="stable")
        ids = ids[o]
        # raw scores here; _select_topk_cols band-detects quantized
        # boundary ties (identical columns do NOT score bit-identically
        # even in ONE gemm call — remainder-lane FMA order), and
        # cross-chunk noise collapses at the fold over the k-wide
        # candidate arrays (see _rowwise_sort_desc_tiebreak)
        s = q_m @ m[o].T
        s[q_ids[:, None] == ids[None, :]] = -np.inf     # exclude self
        kk = min(k, s.shape[1])
        hit = s >= (floor - _TIE_BAND)[:, None]
        cnt = np.count_nonzero(hit, axis=1)
        full = cnt > 4 * k              # the fold stays ≤ 5k wide
        cnt[full] = 0
        width = max(int(cnt.max()), kk if full.any() else 0)
        if width == 0:                  # nothing reaches any row's floor
            continue
        cs = np.full((n, width), -np.inf)
        ci = np.zeros((n, width), dtype=np.int64)
        rows = np.flatnonzero(cnt)
        r, c = np.nonzero(hit[rows])    # row-major: each row's run
        r = rows[r]
        pos = _ranks(cnt) - 1
        cs[r, pos] = s[r, c]
        ci[r, pos] = ids[c]
        if full.any():
            sf = s if full.all() else s[full]   # no copy of a whole tile
            sel = _select_topk_cols(sf, kk)
            cs[full, :kk] = np.take_along_axis(sf, sel, axis=1)
            ci[full, :kk] = ids[sel]
        run_s, run_i = _rowwise_sort_desc_tiebreak(
            np.concatenate([run_s, cs], axis=1),
            np.concatenate([run_i, ci], axis=1), k)
        if run_s.shape[1] == k:
            floor = run_s[:, k - 1]
    valid = run_s > -np.inf                     # self-only columns drop out
    return valid.sum(axis=1), run_i[valid], run_s[valid]


def knn_join(ds, k: int = 3, vec_col: str = "embedding",
             id_col: str = "vec_id", max_blocks: int = 64,
             target_block_rows: int = _TILE_ROWS,
             as_dataset: bool = False):
    """EXACT cosine k-NN join: for every vector, its k nearest OTHER
    vectors (the kNN-graph builder behind near-dup clustering and
    diversity sampling). Deterministic order: cosine DESC, neighbor id ASC.

    Shape: one Ray task per row-block (:func:`_vector_blocks`, at most
    ``target_block_rows`` rows each); each task pulls the other blocks
    out of the object store ONE AT A TIME (nested refs — neither the
    driver nor the task ever holds more than one other-block) and folds
    them into a RUNNING per-row top-k (:func:`_running_topk`). Peak task
    memory is O(target_block_rows²) for the transient score matrix plus
    O(block_rows × k) for the running state — NOT O(block_rows × N_total)
    (the r3 full-width concatenation this replaces). O(N²) compute is
    inherent to exactness — at scale use :func:`knn_join_ivf`.

    The input's blocks come from ``rayutil.materialized``: a local parquet
    read is one plain read task per file, a Dataset that already is data
    is used as it is, and only another plan runs Ray Data (one
    ``materialize()``). After that there is no Ray Data execution.

    Returns a pandas frame (vec_id, nn_rank, neighbor_id) by default;
    ``as_dataset=True`` returns a Dataset built from the result-block refs
    (N×k rows never land on the driver — the streaming path at scale).
    """
    import ray

    refs = _vector_blocks(ds, id_col, vec_col, target_block_rows,
                          max_blocks)

    @ray.remote(num_returns=2)
    def block_topk(ta: pa.Table, other_refs: list):
        ids_a = ta[id_col].to_numpy(zero_copy_only=False)
        others = ((tb[id_col].to_numpy(zero_copy_only=False),
                   _unit_rows(tb, vec_col))
                  for tb in map(ray.get, other_refs))  # one at a time
        counts, nbr, _ = _running_topk(ids_a, _unit_rows(ta, vec_col),
                                       others, k)
        out = pa.Table.from_arrays(
            [np.repeat(ids_a, counts), _ranks(counts), nbr],
            schema=_KNN_SCHEMA)
        return out, block_meta(out)

    # nested-list refs are NOT auto-dereferenced by Ray — each task fetches
    # other blocks lazily inside its loop, so the object store can evict
    return _result([block_topk.remote(r, refs) for r in refs], _KNN_SCHEMA,
                   as_dataset)


def knn_join_ivf(ds, k: int = 3, n_cells: int = 16, n_probe: int = 4,
                 seed: int = 42, vec_col: str = "embedding",
                 id_col: str = "vec_id", num_groups: "Optional[int]" = None,
                 sample_n: int = 2048, cache_key: Optional[str] = None,
                 as_dataset: bool = False):
    """IVF-partitioned APPROXIMATE cosine k-NN join — the 100 TB path the
    exact :func:`knn_join` cannot be (its compute is inherently O(N²)).

    Shape (the input's blocks come from ``rayutil.materialized``, as in
    :func:`knn_join`: a local parquet read runs no Ray Data execution at
    all; the rest are plain tasks and keyed-group task exchanges, and no
    table is collected into the calling process):

    1. Coarse centroids via :func:`build_ivf_centroids` (driver k-means on
       a ≤``sample_n`` deterministic hash sample, one sample task per
       input block; broadcast via ``ray.put``).
    2. Each vector routes to its ``n_probe`` nearest cells (one matmul
       per block against the broadcast centroids), inside step 3's split
       task (``keyed_groups(pre=route)``), not as a Dataset op. The row
       is a *member* only of its NEAREST cell and a *query* in all probed
       cells — so a (query, neighbor) pair can meet in exactly ONE cell
       (the neighbor's home) and the join emits no duplicate pairs by
       construction. Shuffle volume is n_probe × (id + raw float32
       vector) per row.
    3. Keyed-group exchange on the cell (``rayutil.keyed_groups``: one
       split task per input block, one reduce task per non-empty bucket
       of ``num_groups`` — by default ``rayutil.group_count`` of the
       routed bytes, the input's × ``n_probe``; the exchange runs at call
       time). Per cell, the exact running top-k fold
       (:func:`_running_topk`, the exact join's kernel) of the cell's
       queries against the cell's members, both in tiles of
       ``_TILE_ROWS`` rows — the transient score matrix
       is bounded at ``_TILE_ROWS``² × 8 B per task, the same bound as
       :func:`knn_join`. Residual memory risk: a single cell's routed
       rows still land in one task, so one HOT cell larger than the group
       target is held whole — pick n_cells ≈ √N so expected cell size ≈
       √N, and raise n_cells if k-means leaves a mega-cell.
    4. A second exchange (``num_groups``, by default sized from its own
       input), on ``vec_id``, ordered by (1e-12-quantized score DESC, id
       ASC), reading step 3's reduce outputs directly: each
       query's ≤ n_probe × k candidates arrive in the canonical order, and
       the first k get ranks 1..k.

    Compute is O(N²/n_cells × n_probe) instead of O(N²): pick
    n_cells ≈ √N at scale. Recall < 1.0 by design (a true neighbor whose
    home cell the query does not probe is missed); raise ``n_probe`` to
    trade compute for recall. Output schema matches :func:`knn_join`
    (vec_id, nn_rank, neighbor_id); ``as_dataset=True`` returns the
    merge's reduce outputs as a Dataset without fetching them.
    """
    import ray

    # the blocks once (mirrors knn_join): count(), the centroid sample and
    # the routing split read them, and their metadata, with no Ray Data
    # execution (each one costs more than the plain tasks it would run)
    sub = materialized(ds, [id_col, vec_col])
    n_total = sub.count()
    if n_total == 0:            # no rows to sample centroids from
        return _result([], _KNN_SCHEMA, as_dataset)
    cent = build_ivf_centroids(sub, n_cells, sample_n=sample_n, seed=seed,
                               vec_col=vec_col, id_col=id_col,
                               cache_key=cache_key)
    cent_ref = ray.put(cent)
    np_eff = min(n_probe, len(cent))
    # route() replicates each row np_eff times: size the cell exchange
    # from the routed bytes. Result-invariant: per_cell_group/merge_group
    # work per cell / per query WITHIN a bucket, so bucketing only sizes
    # tasks.
    cell_groups = num_groups or group_count(sub.size_bytes() * np_eff)
    # snapshot the module knobs into the closures (workers import fresh)
    chunk_elems, tile = _ROUTE_CHUNK_ELEMS, _TILE_ROWS
    route_schema = pa.schema([(id_col, pa.int64()), ("_cell", pa.int32()),
                              ("_member", pa.bool_()),
                              ("_nvec", pa.list_(pa.float32()))])
    cand_schema = pa.schema([(id_col, pa.int64()), ("_nid", pa.int64()),
                             ("_negq", pa.float64())])

    def route(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return route_schema.empty_table()
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
            member = np.zeros((e0 - s0) * np_eff, dtype=bool)
            member[::np_eff] = True
            parts.append(pa.Table.from_arrays(
                [np.repeat(ids[s0:e0], np_eff), order[s0:e0].reshape(-1),
                 member, _list_column(np.repeat(raw[s0:e0], np_eff, axis=0))],
                schema=route_schema))
        return pa.concat_tables(parts)

    def per_cell_group(t: pa.Table, starts) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        member = t["_member"].to_numpy(zero_copy_only=False)
        # raw float32 → float64 → normalize: the exact kernel's math,
        # bit-for-bit (see the route() shipping comment)
        m = _unit_rows(t, "_nvec")
        out_q, out_i, out_s = [], [], []
        for s, e in zip(starts, np.append(starts[1:], len(t))):
            mem = member[s:e]
            m_ids, m_m = ids[s:e][mem], m[s:e][mem]
            for q0 in range(s, e, tile):
                q1 = min(e, q0 + tile)
                counts, nbr, sc = _running_topk(
                    ids[q0:q1], m[q0:q1],
                    ((m_ids[j:j + tile], m_m[j:j + tile])
                     for j in range(0, len(m_ids), tile)), k)
                out_q.append(np.repeat(ids[q0:q1], counts))
                out_i.append(nbr)
                out_s.append(sc)
        # the merge orders by this 1e-12-quantized NEGATED score, then id:
        # pairs score in exactly one cell, but two DIFFERENT neighbors at
        # a true cosine tie may have been scored in different gemm shapes
        # (1-ulp noise). 0.0 - x keeps an exact-zero score at +0.0.
        return pa.Table.from_arrays(
            [np.concatenate(out_q), np.concatenate(out_i),
             0.0 - np.rint(np.concatenate(out_s) * 1e12)],
            schema=cand_schema)

    def merge_group(t: pa.Table, starts) -> pa.Table:
        rank = _ranks(np.diff(np.append(starts, len(t))))
        keep = pa.array(rank <= k)
        return pa.Table.from_arrays(
            [t[id_col].filter(keep), pa.array(rank).filter(keep),
             t["_nid"].filter(keep)], schema=_KNN_SCHEMA)

    cand = keyed_groups(sub, ["_cell"], per_cell_group, cand_schema,
                        cell_groups, order_by=[id_col], pre=route)
    merged = keyed_groups(cand, [id_col], merge_group, _KNN_SCHEMA,
                          num_groups, order_by=["_negq", "_nid"])
    return _result(merged, _KNN_SCHEMA, as_dataset)


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
        if len(t) == 0:
            return pa.table({self.id_col: t[self.id_col].slice(0, 0),
                             "bucket": pa.array([], type=pa.int64()),
                             "_nvec": pa.array([], pa.list_(pa.float32()))})
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
        return pa.table({self.id_col: pc.take(ids, pa.array(idx, type=pa.int64())),
                         "bucket": pa.array(bucket.reshape(-1)),
                         "_nvec": _list_column(m[idx])})


def embedding_neardup_pairs_lsh(ds, threshold: float = 0.9,
                                vec_col: str = "embedding",
                                id_col: str = "vec_id",
                                n_tables: int = 12,
                                planes_per_table: int = 4,
                                seed: int = 42, hot_cap: int = 8192,
                                skip_counter=None, as_dataset: bool = False):
    """Approximate near-dup pairs — the 100 TB path: banded random-
    hyperplane LSH. Each vector explodes into ``n_tables`` rows
    (table, bucket, id, normalized vec); pairs are scored ONLY inside a
    (table, bucket) segment (one matmul per segment, hash-bucketed groups,
    one vectorized call per bucket); :func:`distinct_pairs` dedupes pairs
    found by several tables.

    Recall for a pair at cosine c: with p = 1 - arccos(c)/π,
    P(candidate) = 1 - (1 - p^r)^L  (r = planes_per_table, L = n_tables);
    defaults give ≈0.99 at c = 0.9. Precision is exact (scores are real
    cosines; the threshold filter runs in-bucket). ``as_dataset=True``
    returns the distinct-pairs Dataset unsorted (the streaming path)."""
    from .dedup import _report_skips, distinct_pairs

    def per_group(t: pa.Table, starts) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        m = _batch_matrix(t, "_nvec").astype(np.float64)  # already normalized
        ends = np.append(starts[1:], len(t))
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
        _report_skips("embedding_neardup_pairs_lsh", hot_cap, skipped_b,
                      skipped_r, skip_counter)
        return pa.concat_tables(parts) if parts else _PAIR_SCHEMA.empty_table()

    # task pool: the lazily-built plane matrix is seeded + deterministic,
    # so per-worker rebuilds are identical and cost ~µs (dim × L·r floats);
    # actor spawn would dominate (see the dedup minhash measurement)
    ex = _BandedExplode(vec_col, id_col, n_tables, planes_per_table, seed)
    exploded = map_blocks(ds, lambda t, _s=ex: _s(t))
    pairs = keyed_groups(exploded, ["bucket"], per_group, _PAIR_SCHEMA,
                         order_by=[id_col])
    # a pair found by several tables scores within an ulp or two in each
    # (dgemm rounds by matrix shape) → keep the lowest, whatever the
    # layout (vectorized; Ray's native multi-key max-agg is ~30× slower
    # per distinct_pairs note)
    deduped = distinct_pairs(pairs, carry=("cosine",),
                             carry_types={"cosine": pa.float64()})
    return _result(deduped, _PAIR_SCHEMA, as_dataset)


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


def _sample_rows(t: pa.Table, id_col: str, buckets: int,
                 cut: int) -> pa.Table:
    """The rows of one block in the centroid sample: md5 bucket of the id
    (of ``buckets``) below ``cut``."""
    from .sampling import md5_bucket_array

    return t.filter(pa.array(md5_bucket_array(t[id_col], buckets) < cut))


def _centroid_sample(ds, sample_n: int, id_col: str) -> pa.Table:
    """Deterministic ORDER-INDEPENDENT sample for centroid training: rows
    whose md5-bucketed id falls under the sample fraction (the same
    row-local rule as ``functions.sampling``), sorted by (bucket, id) and
    trimmed to ``sample_n``. Unlike the previous ``ds.limit(sample_n)``
    (first-N rows — one stratum on source/time-ordered data), membership
    does not depend on row order, block layout or which node reads first,
    so centroids are reproducible across repartitions and cluster sizes.

    Each non-empty block of ``ds`` is filtered by one plain task as it
    streams out of ``iter_internal_ref_bundles``: a materialized ``ds``
    runs no Ray Data execution, a lazy one runs only its own plan."""
    import ray

    from ..rayutil import _concat
    from .sampling import md5_bucket_array

    total = ds.count()
    # 30% overshoot: Binomial(total, frac) lands under sample_n with
    # negligible probability at sample_n ≥ a few hundred; trim after sort.
    # Bucket count scales with 1/frac so the integer cut tracks frac to
    # ≤ ~6% relative error — with a FIXED bucket count, cut clamps to ≥ 1
    # bucket and the driver pull grows as total/buckets (unbounded in N)
    # instead of staying ≈ 1.3 × sample_n. A dataset of ≤ sample_n rows
    # has frac 1: every row with an id is kept.
    frac = min(1.0, sample_n / total * 1.3)
    buckets = max(10_000, int(np.ceil(8.0 / frac)))
    cut = max(1, int(round(frac * buckets)))
    task = ray.remote(_sample_rows)
    refs = [task.remote(ref, id_col, buckets, cut)
            for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0]
    t = _concat([t for t in ray.get(refs) if len(t)])
    b = md5_bucket_array(t[id_col], buckets)
    return t.take(np.lexsort((t[id_col].to_numpy(), b))[:sample_n])


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
    sample = _centroid_sample(ds, sample_n, id_col)
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
        m = _unit_rows(tbl, vec_col)
        assign = np.argmax(m @ c.T, axis=1)
        mask = pa.array(np.isin(assign, list(cells)))
        return tbl.filter(mask)

    cand = map_blocks(ds, keep_probed)
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
    bucketed = map_blocks(ds, lambda t, _s=stage: _s(t),
                          concurrency=concurrency)
    q_sig = int(stage.signature(_normalize(q))[0])
    probes = {q_sig}
    if probe_hamming1:
        probes |= {q_sig ^ (1 << b) for b in range(n_planes)}

    probe_arr = pa.array(sorted(probes), type=pa.int64())
    cand = map_blocks(bucketed, lambda t: t.filter(
        pc.is_in(t["lsh_bucket"], value_set=probe_arr)))
    return brute_force_topk(cand, q, k, vec_col, id_col)
