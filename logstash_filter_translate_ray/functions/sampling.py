"""Deterministic sampling / splitting / mixing — the corpus-assembly ops a
training-data pipeline runs after curation.

Everything keys off one rule: ``md5_lower64(str(id)) % buckets`` — a
deterministic, data-independent bucket per row that is EXACTLY DuckDB's
``md5_number_lower(CAST(id AS VARCHAR)) % buckets`` (same parity as the
fingerprint op), so every operator here is SQL-oracle-checkable and
reproducible across runs, processes and nodes. No RNG state, no
``random_shuffle`` (an all-to-all at scale); sampling is a stateless
row-local filter that composes with any upstream stage.

The md5-per-row loop is a C digest over short id strings (measured on the
fingerprint op: the digest is not the bottleneck at batch sizes; see
functions/text.py fingerprint_batch).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import rayutil
from .text import md5_lower64

DEFAULT_BUCKETS = 10_000


def md5_bucket_array(col, buckets: int = DEFAULT_BUCKETS) -> np.ndarray:
    """Per-row deterministic bucket in [0, buckets): md5-lower64 of the
    value's string form (ints print like DuckDB CAST(x AS VARCHAR))."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.to_pylist()
    return np.fromiter(
        (md5_lower64(str(v).encode()) % buckets if v is not None else buckets
         for v in vals),
        dtype=np.int64, count=len(vals))


def hash_sample_block_fn(col: str = "doc_id", fraction: float = 0.1,
                         buckets: int = DEFAULT_BUCKETS):
    """:func:`hash_sample` as a block function (``pa.Table`` →
    ``pa.Table``); ``fraction ≥ 1.0`` is the identity."""
    if fraction >= 1.0:
        return lambda t: t
    cut = int(round(fraction * buckets))

    def fn(t: pa.Table) -> pa.Table:
        b = md5_bucket_array(t[col], buckets)
        return t.filter(pa.array(b < cut))

    return fn


def hash_sample(ds, col: str = "doc_id", fraction: float = 0.1,
                buckets: int = DEFAULT_BUCKETS):
    """Deterministic ``fraction`` sample: keep rows whose id bucket falls
    below ``fraction × buckets``. Same row set every run; null ids never
    sampled (md5 of NULL is NULL in the SQL mirror too). Mirrors
    ``WHERE md5_number_lower(CAST(col AS VARCHAR)) % buckets < cut``.

    ``fraction ≥ 1.0`` short-circuits to the UNfiltered dataset — "keep
    everything" keeps null-id rows as well (a rate-1.0 part in
    ``weighted_mix`` must be a no-op; its SQL mirror is the bare SELECT)."""
    if fraction >= 1.0:
        return ds
    return rayutil.map_blocks(
        ds, hash_sample_block_fn(col, fraction, buckets))


def split_block_fn(col: str = "doc_id",
                   fractions: Sequence[float] = (0.8, 0.1, 0.1),
                   names: Sequence[str] = ("train", "val", "test"),
                   buckets: int = DEFAULT_BUCKETS, out: str = "split"):
    """:func:`split_column` as a block function (``pa.Table`` →
    ``pa.Table``); bad fractions fail here, at build time."""
    if len(fractions) != len(names) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must match names and sum to 1")
    cuts = np.cumsum(np.round(np.array(fractions) * buckets)).astype(np.int64)
    cuts[-1] = buckets + 1                     # nulls (bucket==buckets) too
    name_arr = np.array(names, dtype=object)

    def fn(t: pa.Table) -> pa.Table:
        b = md5_bucket_array(t[col], buckets)
        idx = np.searchsorted(cuts, b, side="right")
        return t.append_column(out, pa.array(name_arr[idx], type=pa.string()))

    return fn


def split_column(ds, col: str = "doc_id",
                 fractions: Sequence[float] = (0.8, 0.1, 0.1),
                 names: Sequence[str] = ("train", "val", "test"),
                 buckets: int = DEFAULT_BUCKETS, out: str = "split"):
    """Append a deterministic train/val/test ``split`` column: cumulative
    bucket thresholds over the id hash, so membership is stable under
    re-runs, repartitioning and incremental ingest (a row's split never
    depends on which other rows are present). Rows with null ids get the
    LAST split (they fall past every threshold)."""
    return rayutil.map_blocks(
        ds, split_block_fn(col, fractions, names, buckets, out))


def weighted_mix(parts: Sequence[tuple], col: str = "doc_id",
                 buckets: int = DEFAULT_BUCKETS):
    """Deterministic corpus mixing: ``parts`` is [(dataset, rate), ...];
    each dataset contributes its ``rate`` hash-sample and the results are
    unioned (a streaming concat — no shuffle). The standard way to
    down-weight a huge crawl against a small high-quality corpus without a
    random state. Mirrors a UNION ALL of the per-part sampled SELECTs.
    Ray's union plan knows no schema; the parts' common one, when they
    all know it, is recorded on it."""
    if not parts:
        raise ValueError("weighted_mix needs at least one (dataset, rate)")
    sampled = [hash_sample(ds, col=col, fraction=rate, buckets=buckets)
               for ds, rate in parts]
    if len(sampled) == 1:
        return sampled[0]
    schemas = [rayutil._arrow_schema(s.schema(fetch_if_missing=False))
               for s in sampled]
    out = sampled[0].union(*sampled[1:])
    if schemas[0] is not None and all(
            s is not None and s.equals(schemas[0], check_metadata=False)
            for s in schemas):
        rayutil._record_schema(out, schemas[0])
    return out
