"""Time-shaped operators over event streams (guide: 'Streaming-shaped
workloads') — tumbling windows, per-key previous-event gaps (as-of style),
and inactivity-gap sessionization.

Partitioning contract (documented per north_rule): the per-key operators
co-locate each key's rows via ``rayutil.keyed_groups`` — a hash-bucketed
shuffle of the full rows — which orders them by (key, ts, id) INSIDE the
group. At 10^12-row scale the shuffle is the dominant cost; mitigate by
pre-filtering columns (only key, ts, id move) and, for skewed keys,
falling back to the combiner pattern where the per-key computation allows
it (counts do; gaps don't — a gap needs its neighbor, so a hot key's rows
genuinely must meet).

The tumbling-window count needs NO per-key shuffle at all: the bucket is a
row-local function of ts, so it composes with the combiner aggregate.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import keyed_groups, map_blocks
from .aggregate import grouped_counts


def add_time_bucket(tbl: pa.Table, ts_col: str = "ts",
                    unit: str = "hour", out: str = "bucket") -> pa.Table:
    """Row-local tumbling-window assignment (floor to the window start)."""
    b = pc.floor_temporal(tbl[ts_col], unit=unit)
    return tbl.append_column(out, b)


def tumbling_counts(ds, keys=("event_type",), ts_col: str = "ts",
                    unit: str = "hour", driver_merge: bool = False):
    """Tumbling-window counts per key — a row-local bucket (no per-key
    shuffle), then the combiner-style grouped count."""
    bucketed = map_blocks(ds, functools.partial(
        add_time_bucket, ts_col=ts_col, unit=unit))
    return grouped_counts(bucketed, ["bucket", *keys],
                          driver_merge=driver_merge)


def _ts_to_epoch_us(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Explicit µs normalization: cast to timestamp[us] FIRST so the int64
    epoch value is µs regardless of the column's storage unit (a bare
    ``astype('int64')`` silently yields ns under ns-defaulting pandas
    conversions — 1000× off vs an epoch_us oracle)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_timestamp(col.type):
        col = pc.cast(col, pa.timestamp("us"))
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


def _key_boundary(n: int, starts) -> np.ndarray:
    boundary = np.zeros(n, dtype=bool)
    boundary[starts] = True
    return boundary


def prev_event_gap(ds, key: str = "user_id", ts_col: str = "ts",
                   id_col: str = "event_id", out: str = "gap_us"):
    """Per-key previous-event gap (as-of/self-lag): for each row, µs since
    the key's previous event ordered by (ts, id); null for the first.

    Scale shape: ONE keyed-group shuffle (one group call per bucket),
    then a segmented np.diff inside each bucket — per-group call cost is
    O(buckets), not O(distinct keys). A hot key's rows still meet in one
    bucket (inherent: a gap needs its neighbor)."""

    def per_bucket(t: pa.Table, starts) -> pa.Table:
        ts_us = _ts_to_epoch_us(t[ts_col])
        gap = np.empty(len(t), dtype=np.float64)
        np.subtract(ts_us[1:], ts_us[:-1], out=gap[1:], casting="unsafe")
        gap[starts] = np.nan
        # float64 with NaN→null: nullable-BIGINT window results come back as
        # float64 from SQL engines too, so the driver sees identical values
        return pa.table({id_col: t[id_col],
                         out: pa.array(gap, from_pandas=True)})

    return keyed_groups(ds, [key], per_bucket,
                        lambda s: pa.schema([(id_col, s.field(id_col).type),
                                             (out, pa.float64())]),
                        order_by=[ts_col, id_col])


def session_counts(ds, key: str = "user_id", ts_col: str = "ts",
                   id_col: str = "event_id",
                   gap: "pd.Timedelta | str" = "30min"):
    """Inactivity-gap sessionization: a new session starts when the gap to
    the key's previous event exceeds ``gap``; returns sessions per key.
    Same bucketed-segmented shape as prev_event_gap (no per-key frames)."""
    gap_us = int(pd.Timedelta(gap).value // 1000)

    def per_bucket(t: pa.Table, starts) -> pa.Table:
        ts_us = _ts_to_epoch_us(t[ts_col])
        boundary = _key_boundary(len(t), starts)
        # float64 diff: a null ts makes ts_us float64-with-NaN (Arrow's
        # nullable-int64 promotion) and an int64 out buffer raised a
        # casting TypeError (same hazard prev_event_gap guards). A NaN
        # diff (either edge has an unknown time) STARTS a session — the
        # lag-based SQL mirror counts `gap_us IS NULL` as a session start,
        # and the pre-fix `NaN > gap → False` silently absorbed null-ts
        # rows into the previous session, diverging from the registered
        # oracle (r4 fuzz find; null-ts rows sort last both sides).
        diff = np.zeros(len(t), dtype=np.float64)
        np.subtract(ts_us[1:], ts_us[:-1], out=diff[1:], casting="unsafe")
        with np.errstate(invalid="ignore"):
            new_session = boundary | (diff > gap_us) | np.isnan(diff)
        seg = np.cumsum(boundary) - 1          # dense key index in sort order
        counts = np.bincount(seg[new_session], minlength=len(starts))
        return pa.table({key: t[key].take(pa.array(starts)),
                         "n_sessions": pa.array(counts, type=pa.int64())})

    return keyed_groups(ds, [key], per_bucket,
                        lambda s: pa.schema([(key, s.field(key).type),
                                             ("n_sessions", pa.int64())]),
                        order_by=[ts_col, id_col])


def event_paths(ds, key: str = "user_id", ts_col: str = "ts",
                id_col: str = "event_id", val_col: str = "event_type",
                sep: str = ">", out: str = "path"):
    """Per-key ordered value-sequence reconstruction (the conversation-
    assembly shape: one row per key with its values joined in (ts, id)
    order). Same bucketed-segmented plan as prev_event_gap; the join is
    ``pc.binary_join`` over a ListArray — no per-key Python string work."""

    def per_bucket(t: pa.Table, starts) -> pa.Table:
        # null values are SKIPPED, not poisoning: pc.binary_join nulls the
        # whole joined string when any list element is null, but the SQL
        # mirror (string_agg ... ORDER BY) ignores NULL elements and a key
        # whose values are ALL null gets a null path. Segment offsets are
        # rebuilt over the valid-only rows; keys that lose every row stay
        # in the output via the all-keys start list.
        vals = t[val_col]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        valid = np.asarray(pc.is_valid(vals))
        seg = np.cumsum(_key_boundary(len(t), starts)) - 1
        kept_per_key = np.bincount(seg[valid], minlength=len(starts))
        offs = np.zeros(len(starts) + 1, dtype=np.int32)
        np.cumsum(kept_per_key, out=offs[1:])
        kept_vals = pc.cast(vals.filter(pa.array(valid)), pa.string())
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offs), kept_vals), sep)
        if (kept_per_key == 0).any():          # all-null keys → null path
            joined = pc.if_else(pa.array(kept_per_key > 0), joined,
                                pa.scalar(None, type=pa.string()))
        return pa.table({key: t[key].take(pa.array(starts)), out: joined})

    return keyed_groups(ds, [key], per_bucket,
                        lambda s: pa.schema([(key, s.field(key).type),
                                             (out, pa.string())]),
                        order_by=[ts_col, id_col])
