"""Small shared Ray Data helpers, and the engine's one keyed-group step.

``keyed_groups`` is the only keyed group in the package. Every operator
that needs "all rows of a key in one place" (exact dedup, LSH/shingle
candidate pairs, pair dedupe, the IVF kNN cells and merge, the window
operators, the quantile fallback) passes it its key columns and a
per-group function; this module owns the rest:

- **Grouping.** Rows whose key tuples are equal reach the same ``fn``
  call, nulls counting as equal (SQL ``GROUP BY``). The key hashes into
  at most ``num_groups`` buckets, so the exchange makes a bounded number
  of vectorized group calls, not one per key.
- **Bucket rule.** Nulls are filled with the type's zero token BEFORE
  hashing: ``to_numpy`` promotes an int64 block WITH nulls to float64
  while a null-free block stays int64, and the two hash differently, so
  an unfilled key would scatter across buckets depending on which block
  it rode in. Integer columns are used as they are, other types reduce
  through ``pd.util.hash_array`` (a fixed-key siphash, stable across
  processes), multi-column keys fold into one uint64, and
  :func:`_group_of`'s multiply-shift maps the value to a bucket.
- **Exchange.** The bucket id is known per row, so there is no sampling,
  range partitioning or sort shuffle. Split: one task per non-empty
  input block, submitted as the block streams out of ``ds``, stably
  sorts it by bucket and returns one zero-copy slice per bucket plus the
  bucket row counts. Reduce: one task per non-empty bucket concatenates
  that bucket's slices, sorts them and calls ``fn``. The result wraps the
  reduce outputs that have rows, known from each reduce's row count, so
  no table is fetched into the calling process.
- **Eager.** ``keyed_groups`` runs ``ds`` when called and returns a
  materialized Dataset, like ``materialize()``, not a lazy plan.
- **What ``fn`` sees.** ``fn(table, starts)`` gets one bucket's rows
  sorted by ``(*keys, *order_by)`` plus the key-segment start offsets.
  Segments come from null-aware Arrow adjacency on the raw values (never
  ``to_numpy``, which would merge distinct int64 keys ≥ 2^53 once nulls
  promote the column to float64). ``fn`` is never called with an empty
  table.
- **Schema anchor.** When every group is empty (a fully filtered input,
  or ``fn`` emitting no rows) the result is one zero-row block of the
  declared output schema, so the sink keeps its column list
  (``to_pandas()`` would otherwise return a 0-column frame and
  ``write_parquet`` an empty directory). A callable schema is derived
  from the input schema ``ds.schema()`` resolves, read off the
  exchange's own stream, so it runs no extra upstream block.
  ``schema=None`` anchors nothing.

The anchor schema must EXACTLY match the non-empty output's types: a
later concatenation would otherwise silently promote (an int64 column
unified with a float64 anchor comes back float64, changing the values an
oracle comparison hashes). Callers derive it from the input schema or
from the literal types their group fn emits — never from a guess. The
same holds for :func:`anchor_empty_schema`, which other operators union
onto a lazy output.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)    # splitmix64 / golden-ratio odd
_FOLD_MIX = np.uint64(0xC2B2AE3D27D4EB4F)


def _arrow_schema(sch) -> Optional[pa.Schema]:
    """``sch`` as a non-empty ``pa.Schema`` (a ``ray.data.Schema`` is
    unwrapped), else None — a zero-row block from a row-UDF stage can carry
    no columns at all, and a pandas block schema is not an arrow one."""
    base = getattr(sch, "base_schema", sch)
    return base if isinstance(base, pa.Schema) and len(base) else None


def input_arrow_schema(ds) -> Optional[pa.Schema]:
    """The dataset's arrow schema, executing at most ONE upstream block
    (``fetch_if_missing=True``); None when it cannot be resolved. Call this
    on pre-shuffle datasets only — on a groupby/sort output the first block
    costs the whole exchange."""
    try:
        return _arrow_schema(ds.schema(fetch_if_missing=True))
    except Exception:
        return None


def anchor_empty_schema(out_ds, schema: Optional[pa.Schema]):
    """Union a zero-row block of ``schema`` onto ``out_ds`` (see module
    docstring). ``schema=None`` (resolution failed) is a pass-through."""
    if schema is None:
        return out_ds
    import ray.data as rd

    return out_ds.union(rd.from_arrow(schema.empty_table()))


def anchor_from_input(out_ds, in_ds, schema_of):
    """Anchor ``out_ds``'s schema derived from ``in_ds``'s (pre-shuffle)
    schema: ``schema_of(input_schema) -> output pa.Schema``. Any failure
    in resolution or derivation (e.g. a keyed column missing from the
    input) degrades to a pass-through — the anchor is a best-effort guard
    for the all-blocks-empty case, never a correctness gate."""
    in_sch = input_arrow_schema(in_ds)
    try:
        anchor = schema_of(in_sch) if in_sch is not None else None
    except Exception:
        anchor = None
    return anchor_empty_schema(out_ds, anchor)


def zero_token(t: pa.DataType) -> pa.Scalar:
    """A valid in-domain token of type ``t``, used ONLY as filler for null
    keys (hash buckets here, and the shuffle keys of
    ``stages.aggregate.mask_null_keys``, whose flag column disambiguates)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pa.scalar("", type=t)
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return pa.scalar(b"", type=t)
    if pa.types.is_boolean(t):
        return pa.scalar(False, type=t)
    return pa.scalar(0, type=t)    # ints / floats / decimals / ts / duration


def _group_of(bucket: np.ndarray, num_groups: int) -> np.ndarray:
    """Deterministic value→group assignment (avalanched so low-entropy
    values such as small cell ids still spread)."""
    b = bucket.astype(np.uint64, copy=False)
    return (((b * _HASH_MIX) >> np.uint64(33)) %
            np.uint64(num_groups)).astype(np.int64)


def _key_values(col) -> np.ndarray:
    """One key column as uint64 bucket input (see the module docstring's
    bucket rule)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0 or pa.types.is_null(col.type):
        return np.zeros(len(col), dtype=np.uint64)
    filled = pc.fill_null(col, zero_token(col.type)) \
        .to_numpy(zero_copy_only=False)
    if pa.types.is_integer(col.type):
        return filled.astype(np.uint64)
    if pa.types.is_floating(col.type):
        filled = filled + 0.0          # -0.0 == 0.0 must share a bucket
    return pd.util.hash_array(np.asarray(filled))


def _bucket_of(t: pa.Table, keys: Sequence[str], num_groups: int):
    h = _key_values(t[keys[0]])
    for k in keys[1:]:
        h = (h * _HASH_MIX) ^ (_key_values(t[k]) * _FOLD_MIX)
    return _group_of(h, num_groups)


def _segment_starts(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Start offsets of the equal-key runs of a key-sorted table. Adjacency
    is computed IN ARROW on the raw values; ``pc.equal`` yields null where
    either side is null, so adjacent nulls are made equal by the explicit
    mask while null-vs-value stays a boundary (SQL's single NULL group).
    A null-typed key column is one segment."""
    n = len(t)
    boundary = np.zeros(n, dtype=bool)
    boundary[:1] = True
    for k in keys:
        col = t[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if n < 2 or pa.types.is_null(col.type):
            continue
        eq = pc.fill_null(pc.equal(col.slice(1), col.slice(0, n - 1)),
                          False).to_numpy(zero_copy_only=False)
        isnull = pc.is_null(col).to_numpy(zero_copy_only=False)
        boundary[1:] |= ~(eq | (isnull[1:] & isnull[:-1]))
    return np.flatnonzero(boundary)


@ray.remote
def _split_block(block, keys: List[str], num_groups: int):
    """One input block → its ``num_groups`` bucket slices (zero-copy views
    of one stably bucket-sorted copy) plus the per-bucket row counts. A
    zero-row block may carry no key columns, so it is returned as it is."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    if t.num_rows == 0:
        return (*[t] * num_groups, np.zeros(num_groups, dtype=np.int64))
    group = _bucket_of(t, keys, num_groups)
    counts = np.bincount(group, minlength=num_groups)
    t = t.take(np.argsort(group, kind="stable"))
    ends = np.cumsum(counts)
    return (*[t.slice(e - c, c) for e, c in zip(ends, counts)], counts)


@ray.remote(num_returns=2)
def _reduce_bucket(fn, keys: List[str], sort_keys, *parts):
    """One bucket: its non-empty slices from every split, concatenated
    (Ray Data's schema-unifying concat), sorted by ``(*keys, *order_by)``
    and handed to ``fn``; returns ``fn``'s table and its row count."""
    from ray.data._internal.arrow_ops.transform_pyarrow import concat

    t = concat(list(parts))
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    out = fn(t, _segment_starts(t, keys))
    return out, out.num_rows


def keyed_groups(ds, keys: Sequence[str],
                 fn: Callable[[pa.Table, np.ndarray], pa.Table],
                 schema: Union[Optional[pa.Schema],
                               Callable[[pa.Schema], pa.Schema]],
                 num_groups: int, order_by: Sequence[str] = ()):
    """``fn(table, starts)`` over every key group of ``ds`` (see the module
    docstring for the contract and the exchange). Runs ``ds`` at call time
    and returns a materialized Dataset. ``schema`` is the output schema of
    ``fn``, used only when every group is empty: a literal ``pa.Schema``
    (None: no anchor), or ``schema_of(input_schema)`` derived from the
    schema ``ds``'s blocks carry."""
    import ray.data as rd

    keys = list(keys)
    sort_keys = [(c, "ascending") for c in [*keys, *order_by]]
    in_schema = _arrow_schema(ds.schema(fetch_if_missing=False))
    splits = []
    for bundle in ds.iter_internal_ref_bundles():
        if in_schema is None:
            in_schema = _arrow_schema(bundle.schema)
        for ref, meta in bundle.blocks:
            if meta.num_rows != 0:
                splits.append(_split_block.options(
                    num_returns=num_groups + 1).remote(ref, keys, num_groups))
    counts = np.array(ray.get([s[-1] for s in splits]),
                      dtype=np.int64).reshape(len(splits), num_groups)
    fn_ref = ray.put(fn)
    outs = [_reduce_bucket.remote(fn_ref, keys, sort_keys,
                                  *[s[g] for s, c in zip(splits, counts)
                                    if c[g]])
            for g in np.flatnonzero(counts.sum(axis=0))]
    rows = ray.get([n for _, n in outs])
    tables = [t for (t, _), n in zip(outs, rows) if n]
    if not tables:
        if callable(schema):
            try:
                schema = schema(in_schema) if in_schema is not None else None
            except Exception:          # e.g. a keyed column the input lacks
                schema = None
        if schema is not None:
            tables = [ray.put(schema.empty_table())]
    return rd.from_arrow_refs(tables)
