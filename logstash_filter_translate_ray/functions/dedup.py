"""Deduplication operators over the ``documents`` table.

- exact:   content-hash → keyed exchange → per-group first
- minhash: shingle → minhash signature → banded LSH buckets → candidate
           pairs → DISTRIBUTED Jaccard verify → connected components
- simhash: 64-bit simhash, banded for hamming-distance blocking
- ngram_jaccard: shared-shingle candidate generation + exact Jaccard verify

Scale shape (SURVEY 'Aggregation at scale'): signatures are computed
embarrassingly-parallel in ``map_batches`` with batch-wide vectorized
shingling (one ``pd.util.hash_array`` per batch, one chunked ``(P × S)``
modmul + ``minimum.reduceat`` per block — no per-doc Python hashing). The
shuffles are

1. a keyed-group shuffle (``rayutil.keyed_groups``) on the band key — a
   bounded number of vectorized group calls (sized from the input's
   bytes), not one scheduling unit per LSH bucket;
2. a second keyed-group shuffle on (id_a, id_b) that dedupes the pairs;
3. two inner joins on the same exchange (``rayutil.keyed_join``) that
   attach each candidate doc's shingle-set blob to its pairs, so the
   exact-Jaccard verify runs inside ``map_batches`` over the joined pairs.

No whole-dataset ``to_pandas()`` / driver text dict anywhere. Connected
components pick their path automatically (``cc='auto'``): driver union-find
over the VERIFIED pair list while it is driver-sized (≤ 1M pairs), min-label
propagation (all-distributed) above.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import keyed_aggregate, keyed_groups, keyed_join, map_blocks

_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)   # splitmix64 / golden-ratio odd
# one odd 64-bit multiplier per k-gram position (order-sensitive combine)
_KGRAM_MULT = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                        0x165667B19E3779F9, 0x27D4EB2F165667C5,
                        0x85EBCA77C2B2AE63, 0x2545F4914F6CDD1D,
                        0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53],
                       dtype=np.uint64)
_EMPTY_SHINGLE = np.uint64(0x9E3779B97F4A7C15)  # stands in for "" (no words)


def _kgram_mult(k: int) -> np.ndarray:
    """Per-position odd multipliers for ARBITRARY k: the first 8 come from
    the fixed table (pins existing shingle hashes and every oracle built on
    them), positions ≥ 8 from splitmix64 of the position index, forced odd
    (an even multiplier would drop low bits under uint64 wraparound)."""
    if k <= len(_KGRAM_MULT):
        return _KGRAM_MULT[:k]
    idx = np.arange(len(_KGRAM_MULT), k, dtype=np.uint64)
    z = (idx + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return np.concatenate([_KGRAM_MULT, z | np.uint64(1)])


def _hash_words_batch(texts) -> tuple[np.ndarray, np.ndarray]:
    """All words of all docs hashed deterministically (fixed-key siphash —
    stable across processes/nodes), tokenized in C: Arrow
    ``utf8_split_whitespace`` (empties filtered for str.split parity) +
    ``dictionary_encode`` so only the VOCABULARY is hashed and token
    hashes come from a gather (4–5× over per-token Python hashing).
    ``texts`` may be a Python list OR an Arrow array/chunked column.
    MEASURED (500k docs, in-process A/B): passing the PLASMA-BACKED
    column zero-copy is ~30% SLOWER than a process-local rebuild (15.2 s
    vs 11.6 s warm) — the heavy split/encode kernels page-fault through
    the shared-memory mapping; a pylist round-trip and a C-level copy
    (binary_join_element_wise) both land at local-heap speed, so callers
    pass ``to_pylist()`` output. The array path remains for
    process-local arrays.
    Returns (word_hashes uint64, word_ptr int64[n+1])."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(texts, type=pa.string())
    n = len(arr)
    lists = pc.utf8_split_whitespace(arr)
    lens = pc.fill_null(pc.list_value_length(lists), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(lists)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    doc_of = np.repeat(np.arange(n), lens)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    if not keep.all():              # leading/trailing whitespace artifacts
        flat = flat.filter(pa.array(keep))
        doc_of = doc_of[keep]
    counts = np.bincount(doc_of, minlength=n).astype(np.int64)
    enc = flat.dictionary_encode()
    if len(flat):
        uniq = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        wh = pd.util.hash_array(uniq)[
            enc.indices.to_numpy(zero_copy_only=False)]
    else:
        wh = np.empty(0, np.uint64)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return wh, ptr


def shingle_hashes_batch(texts: list, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Word k-shingle hashes for a whole batch, vectorized: hash every word
    once, then combine k consecutive word hashes with per-position odd
    multipliers (uint64 wrap). Docs with < k words contribute ONE shingle
    combining all their words ('' → a fixed constant) — same edge semantics
    as the reference-style per-doc shingler.
    Returns (shingles uint64 concat, shingle_ptr int64[n+1])."""
    n = len(texts)
    mult = _kgram_mult(k)
    wh, wptr = _hash_words_batch(texts)
    counts = np.diff(wptr)
    total = int(counts.sum())
    sh_counts = np.maximum(counts - k + 1, 1)
    sh_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sh_counts, out=sh_ptr[1:])
    sh = np.empty(int(sh_counts.sum()), dtype=np.uint64)
    big = counts >= k
    if big.any():
        # global vectorized combine: acc[p] = Σ_j MULT[j] * wh[p+j]; a start
        # position p is valid iff p and p+k-1 fall in the same doc — in doc
        # order those valid positions ARE the big docs' shingles.
        m = total - k + 1
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            acc += wh[j:m + j] * mult[j]
        doc_of = np.repeat(np.arange(n), counts)
        valid = doc_of[:m] == doc_of[k - 1:]
        slot_doc = np.repeat(np.arange(n), sh_counts)
        sh[big[slot_doc]] = acc[valid]
    if not big.all():
        small = np.nonzero(~big)[0]
        vals = np.zeros(len(small), dtype=np.uint64)
        for j in range(k - 1):
            has = counts[small] > j
            if has.any():
                vals[has] += wh[wptr[small[has]] + j] * mult[j]
        vals[counts[small] == 0] = _EMPTY_SHINGLE
        sh[sh_ptr[small]] = vals
    return sh, sh_ptr


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

_CONTENT_HASH_KEY = "lftr-content-h16"   # 16-char alternate siphash key


def add_content_hash(tbl: pa.Table, col: str = "text",
                     out: str = "content_hash") -> tuple[pa.Table, np.ndarray]:
    """Append a 128-bit content hash as TWO uint64 columns ``out``/``out2``
    (two independent fixed-key siphash passes via ``pd.util.hash_array`` —
    fully vectorized, no per-row Python hashing; collision odds ~1e-18 at
    10^10 docs). null text hashes to its OWN group, distinct from "" (SQL
    ``GROUP BY text`` keeps NULL apart from the empty string — a fuzz-found
    divergence; null rows get a fixed post-hash XOR salt). Returns
    (table, first-hash array) — the first hash doubles as the bucket key."""
    arr = tbl[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    vals = np.asarray(pc.fill_null(arr, "").to_pylist(), dtype=object)
    h1 = pd.util.hash_array(vals) if len(vals) else np.empty(0, np.uint64)
    h2 = pd.util.hash_array(vals, hash_key=_CONTENT_HASH_KEY) \
        if len(vals) else np.empty(0, np.uint64)
    nulls = np.asarray(pc.is_null(arr)) if len(vals) else None
    if nulls is not None and nulls.any():
        h1 = h1.copy(); h2 = h2.copy()
        h1[nulls] ^= np.uint64(0x9E3779B97F4A7C15)
        h2[nulls] ^= np.uint64(0xC2B2AE3D27D4EB4F)
    tbl = tbl.append_column(out, pa.array(h1, type=pa.uint64()))
    tbl = tbl.append_column(out + "2", pa.array(h2, type=pa.uint64()))
    return tbl, h1


_CONTENT_KEYS = ["content_hash", "content_hash2"]


def _min_id_rows(ds, col: str, id_col: str, keep):
    """The min-id row per distinct content of ``ds``, with the columns
    ``keep`` (None: every input column). One keyed group on the 128-bit
    content hash (a bounded number of vectorized group calls, not one
    per distinct content), ordered by id: each key segment's first row
    survives — no per-group pandas frames or aggregates. Only the hash
    and the kept columns ride the exchange. An empty result keeps the
    hashed input's columns, less the hash."""
    def hashed(t: pa.Table) -> pa.Table:
        t = add_content_hash(t, col)[0]
        return t if keep is None else t.select([*_CONTENT_KEYS, *keep])

    def first_rows(t: pa.Table, starts) -> pa.Table:
        return t.take(pa.array(starts)).drop_columns(_CONTENT_KEYS)

    return keyed_groups(
        map_blocks(ds, hashed), _CONTENT_KEYS, first_rows,
        lambda s: s.empty_table().drop_columns(_CONTENT_KEYS).schema,
        order_by=[id_col])


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id"):
    """Keep the min-id row per distinct content, as FULL rows (see
    :func:`_min_id_rows`); for id-only consumers see
    :func:`exact_dedup_ids`. Runs ``ds`` at call time."""
    return _min_id_rows(ds, col, id_col, None)


def exact_dedup_ids(ds, col: str = "text", id_col: str = "doc_id"):
    """Surviving ids only: the min id per 128-bit content hash, with only
    the hash and the id riding the keyed exchange (the 10^8-group shape).
    Runs ``ds`` at call time."""
    return _min_id_rows(ds, col, id_col, [id_col])


# ---------------------------------------------------------------------------
# cross-dataset (incremental-ingest) dedup: drop rows of a NEW dataset whose
# content already exists in a SEEN dataset
# ---------------------------------------------------------------------------

_BROADCAST_MAX_SEEN = 2_000_000   # distinct seen hashes (~32 MB) below
# which the semi-join broadcasts instead of running through the exchange


def incremental_dedup(ds_new, ds_seen, col: str = "text",
                      id_col: str = "doc_id"):
    """EXACT cross-dataset dedup — the shape of incremental corpus ingest:
    keep only the rows of ``ds_new`` whose content does not appear in
    ``ds_seen``, by 128-bit content hash. The seen side is reduced to
    DISTINCT hashes at call time; the new side is then a lazy broadcast
    probe, or past ``_BROADCAST_MAX_SEEN`` an eager semi join of slim hash
    rows — the text rides an exchange only in the worst case. Rows are
    told apart by content, never by ``id_col`` (kept for signature
    compatibility): ids may be null or repeated.

    NULL content never matches (SQL equality semantics: ``s.text = d.text``
    is never true when either side is NULL, so the oracle keeps every
    null-text new row) — null rows are excluded from the seen hash set and
    from the droppable new side."""
    import ray

    def hashes(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[col]))
        return add_content_hash(t, col)[0].select(_CONTENT_KEYS)

    def without(drop) -> "ray.data.Dataset":
        # broadcast anti-join: the distinct hash set ``drop`` rides the
        # object store once (16 bytes/hash, sorted by (h1, h2)) and each
        # batch probes EXACT 128-bit membership with two searchsorted
        # passes — no exchange for the new side. Measured at sf0.1: 3.7 s
        # (a shuffle join) → sub-second.
        parts = [(b["content_hash"].to_numpy(zero_copy_only=False),
                  b["content_hash2"].to_numpy(zero_copy_only=False))
                 for b in drop.iter_batches(batch_format="pyarrow")]
        s1 = np.concatenate([p[0] for p in parts])
        s2 = np.concatenate([p[1] for p in parts])
        order = np.lexsort((s2, s1))
        ref = ray.put((s1[order], s2[order]))

        def keep(t: pa.Table) -> pa.Table:
            s1s, s2s = ray.get(ref) if isinstance(ref, ray.ObjectRef) \
                else ref
            t2, a = add_content_hash(t, col)
            b = t2["content_hash2"].to_numpy(zero_copy_only=False)
            lo = np.searchsorted(s1s, a, side="left")
            hi = np.searchsorted(s1s, a, side="right")
            hit = np.zeros(len(a), dtype=bool)
            one = hi - lo == 1                    # the common case
            hit[one] = s2s[np.minimum(lo[one], len(s2s) - 1)] == b[one]
            for i in np.nonzero(hi - lo > 1)[0]:  # h1-collision runs: rare
                hit[i] = b[i] in s2s[lo[i]:hi[i]]
            hit &= np.asarray(pc.is_valid(t[col]))  # NULL never matches
            return t.filter(pa.array(~hit))

        return map_blocks(ds_new, keep)

    flagged = keyed_aggregate(map_blocks(ds_seen, hashes), _CONTENT_KEYS, {})
    n_seen = flagged.count()
    if n_seen == 0:
        return ds_new
    if n_seen <= _BROADCAST_MAX_SEEN:
        return without(flagged)
    # big-seen path: the distinct seen hashes that occur in ds_new, from a
    # semi join of SLIM hash rows — the text never rides an exchange (the
    # module's core movement claim). They are the minority in incremental
    # ingest, so they broadcast back through the same probe; if a
    # degenerate corpus makes them outgrow the broadcast bound, a hash
    # anti join drops them instead.
    dropped = keyed_join(flagged, map_blocks(ds_new, hashes),
                         _CONTENT_KEYS, how="left semi")
    n_drop = dropped.count()
    if n_drop == 0:
        return ds_new
    if n_drop <= _BROADCAST_MAX_SEEN:
        return without(dropped)

    def keyed(t: pa.Table) -> pa.Table:
        # null text gets null keys, which a left anti join always keeps
        t, _ = add_content_hash(t, col)
        null = pc.is_null(t[col])
        for k in _CONTENT_KEYS:
            t = t.set_column(t.column_names.index(k), k, pc.if_else(
                null, pa.scalar(None, pa.uint64()), t[k]))
        return t

    # worst case (most of the new corpus is already seen): the full rows
    # ride one exchange, unavoidable once neither side fits a broadcast
    out = keyed_join(map_blocks(ds_new, keyed),
                     dropped, _CONTENT_KEYS, how="left anti")
    return map_blocks(out, lambda t: t.drop_columns(_CONTENT_KEYS))


# ---------------------------------------------------------------------------
# minhash signatures (batched: chunked (P × S) modmul + segmented min)
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1
_SIG_CHUNK_SHINGLES = 250_000     # bounds the (num_perm × chunk) temp array


def _perm_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64)
    return a, b


def minhash_signatures_batch(sh: np.ndarray, sh_ptr: np.ndarray,
                             a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n_docs × num_perm) signature matrix from concatenated shingles: one
    (P × S_chunk) modmul + ``np.minimum.reduceat`` per doc-aligned chunk —
    no per-doc Python. ONE preallocated chunk buffer + in-place ufuncs:
    the naive expression allocates three ~100 MB temporaries per chunk and
    this VM charges ~50 µs/page on first touch (mmap'd temps are returned
    to the OS on free, so EVERY chunk would re-fault) — measured 10×."""
    n = len(sh_ptr) - 1
    total = int(sh_ptr[-1])
    sigs = np.empty((n, len(a)), dtype=np.int64)
    buf = np.empty((len(a), min(_SIG_CHUNK_SHINGLES, max(total, 1))),
                   dtype=np.int64)
    a2, b2 = a[:, None], b[:, None]
    d0 = 0
    while d0 < n:
        d1 = d0 + 1
        while d1 < n and sh_ptr[d1 + 1] - sh_ptr[d0] <= buf.shape[1]:
            d1 += 1
        x = sh[sh_ptr[d0]:sh_ptr[d1]].astype(np.int64)
        if len(x) > buf.shape[1]:          # one doc larger than the chunk
            hv = (a2 * x[None, :] + b2) % _MERSENNE
        else:
            hv = buf[:, :len(x)]
            np.multiply(a2, x[None, :], out=hv)
            np.add(hv, b2, out=hv)
            np.mod(hv, _MERSENNE, out=hv)
        rel = (sh_ptr[d0:d1] - sh_ptr[d0]).astype(np.int64)
        sigs[d0:d1] = np.minimum.reduceat(hv, rel, axis=1).T
        d0 = d1
    return sigs


class MinHashStage:
    """Batch stage: permutation params built once (on the driver — ~1 KB,
    closure-captured into warm TASK workers; an actor pool here pays more
    in spawn than the init saves, measured in minhash_candidate_pairs);
    each batch → (id, bucket) rows, ``bands`` per doc, fully vectorized
    (band hashes are a positional-multiplier mix of the signature
    segment — no per-doc crc32)."""

    def __init__(self, col: str = "text", id_col: str = "doc_id",
                 k: int = 3, num_perm: int = 64, bands: int = 16, seed: int = 42):
        assert num_perm % bands == 0
        self.col, self.id_col = col, id_col
        self.k, self.num_perm, self.bands = k, num_perm, bands
        self.rows_per_band = num_perm // bands
        self.a, self.b = _perm_params(num_perm, seed)
        rng = np.random.RandomState(seed + 1)
        self.band_mult = rng.randint(1, 2**63 - 1,
                                     size=self.rows_per_band).astype(np.uint64) | np.uint64(1)
        self.band_salt = (np.arange(bands, dtype=np.uint64) * _HASH_MIX)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        texts = tbl[self.col].to_pylist()
        nd = len(texts)
        sh, sh_ptr = shingle_hashes_batch(texts, self.k)
        sigs = minhash_signatures_batch(sh, sh_ptr, self.a, self.b)
        segs = sigs.reshape(nd, self.bands, self.rows_per_band).astype(np.uint64)
        mixed = (segs * self.band_mult[None, None, :]).sum(axis=2)   # nd × bands
        bucket = (mixed ^ self.band_salt[None, :]).view(np.int64).reshape(-1)
        ids = tbl[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idx = pa.array(np.repeat(np.arange(nd), self.bands), type=pa.int64())
        return pa.table({self.id_col: pc.take(ids, idx),
                         "bucket": pa.array(bucket)})


# ---------------------------------------------------------------------------
# candidate-pair generation inside hash-bucketed groups
# ---------------------------------------------------------------------------

def make_skip_counter():
    """Cluster-wide counter for hot-bucket skips (``num_cpus=0`` — it costs
    no scheduling slot). Pass the handle as ``skip_counter=`` to
    :func:`bucket_candidate_pairs` /
    :func:`~..similarity.embedding_neardup_pairs_lsh`; read totals after the
    pipeline with ``ray.get(h.totals.remote())``. NO silent caps: even
    without a counter, every skipping group logs a warning.

    Semantics: AT-LEAST-ONCE observability, not an exact ledger — a group
    task retried after a worker loss, or a lazy dataset consumed twice,
    re-reports its skips (totals can only OVERstate, never hide a skip).
    Call ``reset()`` between runs when reusing one handle."""
    import ray

    @ray.remote(num_cpus=0)
    class _SkipCounter:
        def __init__(self):
            self.buckets = 0
            self.rows = 0

        def add(self, buckets: int, rows: int) -> None:
            self.buckets += buckets
            self.rows += rows

        def reset(self) -> None:
            self.buckets = 0
            self.rows = 0

        def totals(self) -> dict:
            return {"buckets": self.buckets, "rows": self.rows}

    return _SkipCounter.remote()


def _report_skips(where: str, hot_cap, skipped_buckets: int,
                  skipped_rows: int, skip_counter) -> None:
    """Surface hot-cap skips (VERDICT r3 #4): a degenerate bucket (template
    text, all-zero vectors) silently costing recall is worse than the log
    noise."""
    if not skipped_buckets:
        return
    import logging
    logging.getLogger(__name__).warning(
        "%s: hot_cap=%s skipped %d bucket(s) totalling %d member rows — "
        "pairs inside them were NOT generated (recall trade; pass "
        "hot_cap=None to disable, skip_counter= to aggregate)",
        where, hot_cap, skipped_buckets, skipped_rows)
    if skip_counter is not None:
        import ray
        # synchronous ack: the actor has folded this group's skips BEFORE
        # the group task completes, so "pipeline returned ⇒ totals() is
        # consistent". One actor RTT, and only on the rare skip path —
        # fire-and-forget here raced the driver's totals() read.
        ray.get(skip_counter.add.remote(skipped_buckets, skipped_rows))


def bucket_candidate_pairs(bucketed_ds, bucket_col: str, id_col: str,
                           hot_cap: Optional[int] = 200,
                           payload_col: Optional[str] = None,
                           skip_counter=None):
    """(id_a < id_b) pairs sharing a ``bucket_col`` value. ONE keyed-group
    shuffle (a bounded number of vectorized group calls); inside a group,
    buckets are key segments and pairs come from
    ``np.triu_indices`` — no per-bucket scheduling, no Python pair loops.
    ``hot_cap`` skips degenerate hot buckets (> cap members): a documented
    recall/scale trade — pass ``None`` to disable when the input is bounded.
    ``payload_col`` (a small fixed-width numeric column, e.g. a simhash)
    is carried onto the pairs as ``pl_a``/``pl_b`` so the verify can run
    right here with no join."""
    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())]
                       + ([("pl_a", pa.uint64()), ("pl_b", pa.uint64())]
                          if payload_col is not None else []))

    def per_group(t: pa.Table, starts) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        payload = (t[payload_col].to_numpy(zero_copy_only=False)
                   .astype(np.uint64) if payload_col is not None else None)
        ends = np.append(starts[1:], len(t))
        out_a, out_b, out_pa, out_pb = [], [], [], []
        skipped_b = skipped_r = 0
        for s, e in zip(starts, ends):
            seg, seg_idx = np.unique(ids[s:e], return_index=True)
            m = len(seg)                       # a doc may collide into a
            if m < 2:                          # bucket twice across bands
                continue
            if hot_cap is not None and m > hot_cap:
                skipped_b += 1
                skipped_r += m
                continue
            iu, ju = np.triu_indices(m, 1)
            out_a.append(seg[iu])
            out_b.append(seg[ju])
            if payload is not None:
                pl = payload[s:e][seg_idx]
                out_pa.append(pl[iu])
                out_pb.append(pl[ju])
        _report_skips("bucket_candidate_pairs", hot_cap, skipped_b,
                      skipped_r, skip_counter)
        if not out_a:
            return schema.empty_table()
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        cols = {}
        # in-group pair dedupe BEFORE the global distinct shuffle: a pair
        # sharing many buckets in one group would otherwise be emitted once
        # per bucket (hot-vocab inputs blow up ~100×); pack to one uint64
        # when ids fit 32 bits so np.unique does it in one pass
        if len(a) and 0 <= a.min() and max(a.max(), b.max()) < 2**31:
            packed, pidx = np.unique(
                (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64),
                return_index=True)
            a = (packed >> np.uint64(32)).astype(np.int64)
            b = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)
            if payload_col is not None:
                cols["pl_a"] = pa.array(np.concatenate(out_pa)[pidx])
                cols["pl_b"] = pa.array(np.concatenate(out_pb)[pidx])
        elif payload_col is not None:
            cols["pl_a"] = pa.array(np.concatenate(out_pa))
            cols["pl_b"] = pa.array(np.concatenate(out_pb))
        return pa.table({"id_a": pa.array(a, type=pa.int64()),
                         "id_b": pa.array(b, type=pa.int64()), **cols})

    return keyed_groups(bucketed_ds, [bucket_col], per_group, schema,
                        order_by=[id_col])


def distinct_pairs(pairs_ds, carry: tuple = (),
                   carry_types: "Optional[dict]" = None):
    """Distributed pair dedupe: ONE keyed-group shuffle on (id_a, id_b),
    keeping each pair segment's first row. (Ray's native multi-key count
    aggregate measured ~30× slower on a 2M-row/124k-group pair list than
    this shape — per-group accumulator overhead.) ``carry`` columns keep
    the smallest ``carry`` tuple among a pair's rows, whatever the block
    layout or bucket count (callers carry a value equal, or equal up to
    float rounding, across a pair's duplicates, e.g. a score);
    ``carry_types`` declares their arrow types so the empty-input schema
    anchor stays exact (a wrong anchor type would silently promote the
    non-empty result at concat)."""
    cols = ["id_a", "id_b", *carry]
    ct = carry_types or {}

    def first_rows(t: pa.Table, starts) -> pa.Table:
        return t.select(cols).take(pa.array(starts))

    if all(c in ct for c in carry):
        schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())]
                           + [(c, ct[c]) for c in carry])
    else:
        def schema(s):      # undeclared carry types: read from the input
            return pa.schema([s.field(c) for c in cols])
    return keyed_groups(pairs_ds, ["id_a", "id_b"], first_rows, schema,
                        order_by=carry)


def minhash_candidate_pairs(ds, col: str = "text", id_col: str = "doc_id",
                            k: int = 3, num_perm: int = 64, bands: int = 16,
                            concurrency: int = 4,
                            hot_cap: Optional[int] = 200,
                            skip_counter=None):
    """Banded-LSH candidate pairs: (id_a, id_b) with id_a < id_b that share
    at least one band bucket (distinct — band-level duplicates removed by a
    native hash aggregate)."""
    # TASK pool, not actor pool (measured, 100k docs × 64 perms, 32 CPUs):
    # warm task workers 2.7 s vs fresh actor pool 13–24 s. MinHashStage's
    # __init__ builds ~1 KB of permutation params — build ONCE on the
    # driver and closure-capture it; an actor pool only pays off when
    # per-actor setup (model load, big dict compile) rivals actor spawn.
    stage = MinHashStage(col=col, id_col=id_col, k=k,
                         num_perm=num_perm, bands=bands)
    banded = map_blocks(ds, lambda t, _s=stage: _s(t),
                        concurrency=concurrency)
    pairs = bucket_candidate_pairs(banded, "bucket", id_col, hot_cap=hot_cap,
                                   skip_counter=skip_counter)
    return distinct_pairs(pairs)


# ---------------------------------------------------------------------------
# distributed exact-Jaccard verify (join shingle-set blobs onto pairs)
# ---------------------------------------------------------------------------

def shingle_set_dataset(ds, col: str = "text", id_col: str = "doc_id",
                        k: int = 3, out: str = "sh_set"):
    """(id, shingle-SET blob) per doc: per-doc unique shingle hashes packed
    as a sorted uint64 binary blob (Acero joins carry binary payloads;
    list columns they don't). Dedup is one global lexsort per batch."""

    def fn(t: pa.Table) -> pa.Table:
        texts = t[col].to_pylist()
        n = len(texts)
        sh, sh_ptr = shingle_hashes_batch(texts, k)
        doc_of = np.repeat(np.arange(n), np.diff(sh_ptr))
        order = np.lexsort((sh, doc_of))
        sd, shs = doc_of[order], sh[order]
        keep = np.ones(len(shs), dtype=bool)
        keep[1:] = (sd[1:] != sd[:-1]) | (shs[1:] != shs[:-1])
        sd, shs = sd[keep], shs[keep]
        kept_counts = np.bincount(sd, minlength=n)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offs[1:])
        blob = shs.tobytes()
        blobs = [blob[offs[i] * 8: offs[i + 1] * 8] for i in range(n)]
        return pa.table({id_col: t[id_col],
                         out: pa.array(blobs, type=pa.binary())})

    return map_blocks(ds, fn)


def _jaccard_from_blobs(a: bytes, b: bytes) -> float:
    sa = np.frombuffer(a or b"", dtype=np.uint64)
    sb = np.frombuffer(b or b"", dtype=np.uint64)
    if not len(sa) and not len(sb):
        return 1.0
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    return inter / max(1, len(sa) + len(sb) - inter)


def _batch_jaccard_from_blobs(a_blobs: list, b_blobs: list) -> np.ndarray:
    """Exact Jaccard for a batch of (set-blob, set-blob) pairs.

    MEASURED decision (round 3): a whole-batch segmented rewrite — global
    (pair, value) lexsort, and a padded-2D row-sort variant — was built and
    benchmarked against this per-pair loop on the jaccard_pairs shape
    (9000 pairs × ~120-element sets): per-pair 50 ms vs lexsort 450 ms
    warm / 3.1 s cold (first-touch page cost on the ~50 MB temporaries,
    see BASELINE.md) vs padded-2D 226 ms. Each pair's work is already a
    few hundred elements of C sort in L1, so the ~5 µs/pair call overhead
    is the cheapest part; the batch forms are memory-bound. Keeping the
    per-pair numpy loop is the faster vectorization here."""
    n = len(a_blobs)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    return np.fromiter((_jaccard_from_blobs(a, b)
                        for a, b in zip(a_blobs, b_blobs)),
                       dtype=np.float64, count=n)


def verified_jaccard_pairs(pairs_ds, docs_ds, col: str = "text",
                           id_col: str = "doc_id", k: int = 3):
    """Attach both docs' shingle sets to every candidate pair via two
    inner joins (run at call time), then compute EXACT Jaccard in a lazy
    map_batches — the driver never sees a text. Returns a Dataset
    (id_a, id_b, jaccard)."""
    # materialized once: both joins read it
    sig = shingle_set_dataset(docs_ds, col, id_col, k).materialize()
    j1 = keyed_join(pairs_ds, sig, ["id_a"], [id_col])
    j2 = keyed_join(
        map_blocks(j1, lambda t: t.rename_columns(
            [{"sh_set": "_sh_a"}.get(c, c) for c in t.column_names])),
        sig, ["id_b"], [id_col])

    def jac(t: pa.Table) -> pa.Table:
        vals = _batch_jaccard_from_blobs(t["_sh_a"].to_pylist(),
                                         t["sh_set"].to_pylist())
        return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                         "jaccard": pa.array(vals)})

    return map_blocks(j2, jac)


def connected_components(pairs: Iterable[tuple]) -> dict:
    """Driver-side union-find over VERIFIED candidate PAIRS (not docs).
    Valid while the verified-duplicate pair set fits the driver (sparse
    duplicates — at extreme dup rates run the min-label-propagation groupby
    variant instead)."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in list(parent)}


def minlabel_components(pairs_ds, max_iters: int = 25):
    """DISTRIBUTED connected components over a candidate-pair Dataset
    (id_a, id_b) by min-label propagation: every node repeatedly adopts the
    minimum label among itself and its neighbors (two inner joins and one
    keyed min aggregate per round, all run at call time; rounds =
    component diameter, shallow for near-dup clusters). Returns a Dataset
    (node, label) covering every node that appears in a pair, label = min
    node id of its component.

    This is the scale path for :func:`connected_components` when the
    verified pair list outgrows the driver; for small pair lists the
    driver union-find is cheaper (no exchanges)."""
    import pyarrow.compute as _pc

    def _both(t: pa.Table) -> pa.Table:
        a = t["id_a"].combine_chunks() if isinstance(t["id_a"], pa.ChunkedArray) else t["id_a"]
        b = t["id_b"].combine_chunks() if isinstance(t["id_b"], pa.ChunkedArray) else t["id_b"]
        return pa.table({"src": pa.concat_arrays([a, b]),
                         "dst": pa.concat_arrays([b, a])})

    # materialized once: every round joins it
    edges = map_blocks(pairs_ds, _both).materialize()

    def _init(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["src"],
                         "label": _pc.min_element_wise(t["src"],
                                                       t["min_dst"])})

    labels = map_blocks(keyed_aggregate(
        edges, ["src"], {"min_dst": ("dst", "min")}), _init)

    changed: "int | None" = None       # None ⇒ zero rounds ran
    for _ in range(max_iters):
        nbr = keyed_aggregate(keyed_join(edges, labels, ["dst"], ["node"]),
                              ["src"], {"min_label": ("label", "min")})
        merged = keyed_join(nbr, labels, ["src"], ["node"])

        def _step(t: pa.Table) -> pa.Table:
            new = _pc.min_element_wise(t["min_label"], t["label"])
            changed = _pc.sum(_pc.cast(_pc.less(new, t["label"]),
                                       pa.int64())).as_py() or 0
            return pa.table({"node": t["src"], "label": new,
                             "_changed": pa.array([changed] * len(t),
                                                  type=pa.int64())})

        stepped = map_blocks(merged, _step).materialize()
        # one row per block, summed here: Dataset.sum runs Ray's
        # groupby(None) AllToAll aggregate for a handful of integers
        changed = sum(r["c"] for r in map_blocks(stepped, lambda t: pa.table(
            {"c": pa.array([t["_changed"][0].as_py() if len(t) else 0],
                           type=pa.int64())})).take_all())
        labels = stepped.drop_columns(["_changed"])
        if not changed:
            break
    else:
        # the loop exhausted max_iters with labels still moving: a chain
        # whose diameter exceeds the round budget — the returned labels
        # would silently under-merge components, so make it loud.
        import warnings
        moving = "unknown (0 rounds ran)" if changed is None else changed
        warnings.warn(
            f"minlabel_components did not converge in {max_iters} rounds "
            f"({moving} labels still changing) — components with diameter "
            f"> max_iters are under-merged; raise max_iters",
            RuntimeWarning, stacklevel=2)
    return labels


_CC_DRIVER_MAX_PAIRS = 1_000_000   # verified-pair count above which the
# driver union-find (one to_pandas of the pair list + a Python loop) gives
# way to minlabel_components' joins and aggregates on the keyed exchange;
# ~16 MB of int64 pair ids at the cut.


def minhash_dedup(ds, col: str = "text", id_col: str = "doc_id",
                  k: int = 3, num_perm: int = 64, bands: int = 16,
                  threshold: float = 0.8, concurrency: int = 4,
                  cc: str = "auto", skip_counter=None):
    """Full near-dup pipeline: LSH candidates → distributed Jaccard verify
    (join-attached shingle sets, see :func:`verified_jaccard_pairs`) →
    keep min-id per component, all run at call time. Returns
    (deduped_dataset, dropped_ids).

    ``cc='driver'``: union-find over the VERIFIED pair list on the driver
    (sparse-duplicate assumption); ``dropped_ids`` is a sorted Python list
    and the survivor filter a lazy broadcast-set filter.
    ``cc='distributed'``: :func:`minlabel_components` + an eager ``left
    anti`` join survivor filter — nothing pair-shaped ever reaches the
    driver; ``dropped_ids`` is a Dataset of (node, label). ``cc='auto'``
    (default): picks by the verified pair count — driver below
    ``_CC_DRIVER_MAX_PAIRS`` (1M pairs ≈ 16 MB of ids), distributed
    above."""
    import ray

    # materialize the PAIR LIST (small by construction) so the empty case is
    # detectable and the verify doesn't recompute the LSH pipeline
    cand = minhash_candidate_pairs(ds, col, id_col, k, num_perm, bands,
                                   concurrency,
                                   skip_counter=skip_counter).materialize()
    if cand.count() == 0:
        return ds, ([] if cc != "distributed" else cand)
    ver_ds = verified_jaccard_pairs(cand, ds, col, id_col, k)

    thr = map_blocks(ver_ds, lambda t: t.filter(
        pc.greater_equal(t["jaccard"], threshold)).select(["id_a", "id_b"])
    ).materialize()
    n_verified = thr.count()
    if cc == "auto":
        cc = "driver" if n_verified <= _CC_DRIVER_MAX_PAIRS else "distributed"

    if cc == "distributed":
        if n_verified == 0:
            return ds, thr
        labels = minlabel_components(thr)
        dropped = map_blocks(labels, lambda t: t.filter(
            pc.not_equal(t["node"], t["label"]))).materialize()
        kept = keyed_join(ds, dropped.select_columns(["node"]), [id_col],
                          ["node"], how="left anti")
        return kept, dropped

    if n_verified == 0:
        return ds, []
    verified = thr.to_pandas()      # already thresholded + driver-sized
    comp = connected_components(zip(verified["id_a"], verified["id_b"]))
    drop = sorted(x for x, root in comp.items() if root != x)
    drop_ref = ray.put(pa.array(drop))     # broadcast once, vectorized is_in

    def keep(t: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        mask = pc.invert(pc.is_in(t[id_col], value_set=d))
        return t.filter(mask)

    return map_blocks(ds, keep), drop


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def _md5_word_hashes(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """md5-lower64 per word (matches DuckDB ``md5_number_lower`` — see
    text.md5_lower64) so SimHash is SQL-verifiable; slower than the default
    siphash batch, intended for bounded/oracle runs."""
    from .text import md5_lower64
    toks = [(t or "").split() for t in texts]
    counts = np.fromiter((len(x) for x in toks), dtype=np.int64,
                         count=len(toks))
    wh = np.fromiter((md5_lower64(w.encode()) for x in toks for w in x),
                     dtype=np.uint64, count=int(counts.sum()))
    ptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return wh, ptr


def simhash_batch(tbl: pa.Table, col: str = "text",
                  out: str = "simhash", word_hash: str = "sip") -> pa.Table:
    """Batch-vectorized SimHash: ONE token-hash pass for the whole batch,
    then a single (T × 64) bit matrix and a segmented sum per doc
    (np.add.at) instead of per-word Python. ``word_hash='md5'`` swaps the
    token hash for DuckDB's md5_number_lower (SQL-verifiable; slower)."""
    texts = tbl[col].to_pylist()
    n = len(texts)
    fn = _md5_word_hashes if word_hash == "md5" else _hash_words_batch
    wh, wptr = fn(texts)
    if not len(wh):
        return tbl.append_column(out, pa.array(np.zeros(n, dtype=np.uint64)))
    doc_of = np.repeat(np.arange(n), np.diff(wptr))
    nw = np.diff(wptr).astype(np.float64)
    # per-bit weighted bincount instead of a (T × 64) sign matrix: the
    # matrix form needs ~2 × T × 512 B of fresh temporaries per batch
    # (first-touch page faults dominate on this host) and an unbuffered
    # np.add.at; bit j is set iff Σbits_j > T_doc/2 (exactly acc > 0)
    vals = np.zeros(n, dtype=np.uint64)
    for j in range(64):
        bit = ((wh >> np.uint64(j)) & np.uint64(1)).astype(np.float64)
        s = np.bincount(doc_of, weights=bit, minlength=n)
        vals |= (2.0 * s > nw).astype(np.uint64) << np.uint64(j)
    return tbl.append_column(out, pa.array(vals))     # uint64 (SQL UBIGINT)


def simhash_dataset(ds, col: str = "text", word_hash: str = "sip"):
    return map_blocks(ds, lambda t: simhash_batch(t, col, word_hash=word_hash))


_POPCOUNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                           axis=1).sum(axis=1).astype(np.uint8)


def hamming64_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit hamming distance via a byte popcount table."""
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    return _POPCOUNT8[x.view(np.uint8).reshape(-1, 8)] \
        .sum(axis=1).astype(np.int64)


def simhash_pairs(ds, col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3, bands: int = 4,
                  word_hash: str = "sip",
                  hot_cap: Optional[int] = 1000, skip_counter=None):
    """Near-duplicate pairs by SimHash banding: the 64-bit simhash splits
    into ``bands`` equal bit-bands; by pigeonhole a pair with hamming ≤
    ``bands - 1`` differing bits shares ≥1 EXACT band, so candidate recall
    is PERFECT for ``max_hamming ≤ bands - 1`` (modulo ``hot_cap``). The
    8-byte simhash rides along as the pair payload, so the verify is one
    vectorized popcount — no join, no driver. Returns a Dataset
    (id_a, id_b, hamming ≤ max_hamming)."""
    assert 64 % bands == 0 and max_hamming <= bands - 1
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)
    sim = simhash_dataset(ds.select_columns([id_col, col]), col,
                          word_hash=word_hash)

    def explode(t: pa.Table) -> pa.Table:
        sh = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(t)
        parts = np.stack([(sh >> np.uint64(j * width)) & mask
                          for j in range(bands)], axis=1)        # n × bands
        bid = np.arange(bands, dtype=np.uint64)[None, :]
        bucket = (parts | (bid << np.uint64(58))).view(np.int64).reshape(-1)
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        idx = pa.array(np.repeat(np.arange(n), bands), type=pa.int64())
        return pa.table({id_col: pc.take(ids, idx),
                         "bucket": pa.array(bucket),
                         "simhash": pa.array(np.repeat(sh, bands))})

    exploded = map_blocks(sim, explode)
    pairs = bucket_candidate_pairs(exploded, "bucket", id_col,
                                   hot_cap=hot_cap, payload_col="simhash",
                                   skip_counter=skip_counter)
    pairs = distinct_pairs(pairs, carry=("pl_a", "pl_b"),
                           carry_types={"pl_a": pa.uint64(),
                                        "pl_b": pa.uint64()})

    def verify(t: pa.Table) -> pa.Table:
        h = hamming64_batch(t["pl_a"].to_numpy(zero_copy_only=False),
                            t["pl_b"].to_numpy(zero_copy_only=False))
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                        "hamming": pa.array(h)})
        return out.filter(pa.array(h <= max_hamming))

    return map_blocks(pairs, verify)


# ---------------------------------------------------------------------------
# n-gram Jaccard near-dup (shared-shingle blocking + distributed verify)
# ---------------------------------------------------------------------------

class ShingleExplode:
    def __init__(self, col: str = "text", id_col: str = "doc_id", k: int = 3,
                 sample_mod: int = 4):
        self.col, self.id_col, self.k = col, id_col, k
        self.sample_mod = sample_mod  # keep 1/mod shingles (cheap blocking)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        texts = tbl[self.col].to_pylist()
        n = len(texts)
        sh, sh_ptr = shingle_hashes_batch(texts, self.k)
        doc_of = np.repeat(np.arange(n), np.diff(sh_ptr))
        if self.sample_mod > 1:
            keep = sh % np.uint64(self.sample_mod) == 0
            sh, doc_of = sh[keep], doc_of[keep]
        ids = tbl[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({self.id_col: pc.take(ids, pa.array(doc_of, type=pa.int64())),
                         "shingle": pa.array(sh.view(np.int64))})


def ngram_jaccard_pairs(ds, col: str = "text", id_col: str = "doc_id",
                        k: int = 3, threshold: float = 0.5,
                        concurrency: int = 4, sample_mod: int = 1,
                        hot_cap: Optional[int] = 200, skip_counter=None):
    """Candidate pairs sharing ≥1 (sampled) shingle, then DISTRIBUTED exact
    Jaccard (join-attached shingle sets) — returns a pandas frame
    (id_a, id_b, jaccard ≥ threshold); only the thresholded result reaches
    the driver. Default ``sample_mod=1`` blocks on EVERY shingle — perfect
    candidate recall for any threshold > 0 (modulo ``hot_cap``, which skips
    degenerate hot buckets; pass ``None`` on bounded inputs). Raise
    ``sample_mod`` at scale to cut the blocking shuffle 1/mod-fold at a
    quantified recall cost."""
    # task pool for the same reason as minhash_candidate_pairs: the stage
    # holds 4 scalars — actor spawn would dominate
    ex_stage = ShingleExplode(col=col, id_col=id_col, k=k,
                              sample_mod=sample_mod)
    exploded = map_blocks(ds, lambda t, _s=ex_stage: _s(t),
                          concurrency=concurrency)
    pairs = distinct_pairs(bucket_candidate_pairs(
        exploded, "shingle", id_col, hot_cap=hot_cap,
        skip_counter=skip_counter)).materialize()  # pair list only (small)
    if pairs.count() == 0:
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    ver = verified_jaccard_pairs(pairs, ds, col, id_col, k).to_pandas()
    out = ver[ver["jaccard"] >= threshold]
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
