"""Small shared Ray Data helpers, and the engine's one keyed-group step.

``keyed_groups`` is the only ``groupby(...).map_groups`` call in the
package. Every operator that needs "all rows of a key in one place"
(exact dedup, LSH/shingle candidate pairs, pair dedupe, the IVF kNN
cells and merge, the window operators, the quantile fallback) passes it
its key columns and a per-group function; this module owns the rest:

- **Grouping.** Rows whose key tuples are equal reach the same ``fn``
  call, nulls counting as equal (SQL ``GROUP BY``). The key hashes into
  at most ``num_groups`` buckets, so the shuffle makes a bounded number
  of vectorized group calls, not one per key.
- **Bucket rule.** Nulls are filled with the type's zero token BEFORE
  hashing: ``to_numpy`` promotes an int64 block WITH nulls to float64
  while a null-free block stays int64, and the two hash differently, so
  an unfilled key would scatter across buckets depending on which block
  it rode in. Integer columns are used as they are, other types reduce
  through ``pd.util.hash_array`` (a fixed-key siphash, stable across
  processes), multi-column keys fold into one uint64, and
  :func:`_group_of`'s multiply-shift maps the value to a bucket.
- **What ``fn`` sees.** ``fn(table, starts)`` gets one bucket's rows
  sorted by ``(*keys, *order_by)`` with the bucket column dropped, plus
  the key-segment start offsets. Segments come from null-aware Arrow
  adjacency on the raw values (never ``to_numpy``, which would merge
  distinct int64 keys ≥ 2^53 once nulls promote the column to float64).
  ``fn`` is never called with an empty table.
- **Schema anchor.** Ray 2.49 never calls the group fn when the input to
  ``map_groups`` is EMPTY, and the result then has no schema at all
  (``schema() is None``) — a fully filtered pipeline loses its column
  list at the sink (``to_pandas()`` returns a 0-column frame,
  ``write_parquet`` an empty directory with no schema). Unioning a
  zero-row block of the declared output schema is a data no-op and a
  schema anchor for the empty case.

The anchor schema must EXACTLY match the non-empty output's block types:
Arrow/pandas concatenation would otherwise silently promote (e.g. an int64
result column unified with a float64 anchor comes back float64, changing
the driver's value hash). Callers therefore derive the anchor from the
input dataset's fetched schema or from the same literal types their group
fn emits — never from a guess.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)    # splitmix64 / golden-ratio odd
_FOLD_MIX = np.uint64(0xC2B2AE3D27D4EB4F)
_BUCKET = "_gb"


def input_arrow_schema(ds) -> Optional[pa.Schema]:
    """The dataset's arrow schema, executing at most ONE upstream block
    (``fetch_if_missing=True``); None when it cannot be resolved. Call this
    on pre-shuffle datasets only — on a groupby/sort output the first block
    costs the whole exchange."""
    try:
        sch = ds.schema(fetch_if_missing=True)
    except Exception:
        return None
    base = getattr(sch, "base_schema", sch)
    return base if isinstance(base, pa.Schema) else None


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


def keyed_groups(ds, keys: Sequence[str],
                 fn: Callable[[pa.Table, np.ndarray], pa.Table],
                 schema: Union[Optional[pa.Schema],
                               Callable[[pa.Schema], pa.Schema]],
                 num_groups: int, order_by: Sequence[str] = ()):
    """``fn(table, starts)`` over every key group of ``ds`` (see the module
    docstring for the contract). ``schema`` is the output schema of ``fn``:
    a literal ``pa.Schema`` (None when unresolvable: no anchor), or
    ``schema_of(input_schema)`` derived from ``ds``'s pre-shuffle schema
    (fetching it runs ≤ 1 upstream block)."""
    keys = list(keys)
    sort_keys = [(c, "ascending") for c in [*keys, *order_by]]

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(_BUCKET,
                               pa.array(_bucket_of(t, keys, num_groups)))

    # Ray calls the group fn once per non-empty bucket of a sorted block
    # (an empty block has no group boundaries), so ``t`` is never empty
    def per_group(t: pa.Table) -> pa.Table:
        t = t.drop_columns([_BUCKET])
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        return fn(t, _segment_starts(t, keys))

    out = ds.map_batches(add_bucket, batch_format="pyarrow",
                         batch_size=None) \
        .groupby(_BUCKET).map_groups(per_group, batch_format="pyarrow")
    if callable(schema):
        return anchor_from_input(out, ds, schema)
    return anchor_empty_schema(out, schema)
