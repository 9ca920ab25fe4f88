"""Aggregate stage — per-sink counts, matched/unmatched counters, and the
salted per-conversation aggregate for skewed conv_id distributions.

Scale design (SURVEY §4): a bare ``groupby(key).count()`` shuffles every
row. All aggregates here PRE-AGGREGATE inside ``map_batches`` — each batch
emits one row per key — so what moves after the map phase is
``O(distinct keys × blocks)`` partial rows instead of ``O(N)`` events.

Two merge paths for the partials, chosen by key cardinality:

- **driver merge** (default for route/matched counters, ≤ ~10^5 keys):
  the partial blocks are streamed to the driver and merged with one pandas
  groupby. At 10^12 rows the partials are still only (#blocks × #keys)
  rows — a per-sink counter never needs a cluster-wide shuffle, and
  skipping Ray's all-to-all barrier keeps the whole pipeline streaming.
- **distributed merge** (conv_id and other high-cardinality keys): the
  partials go through ``groupby().aggregate(Sum)``. The per-batch partials
  ARE the skew salt: a hot conversation appearing in B blocks contributes
  B one-row partials regardless of its row count, so no reducer sees more
  than B rows per key (the north_rule's salted repartitioning realized
  combiner-style).
"""

from __future__ import annotations

from typing import Optional, Sequence

import pandas as pd
import pyarrow as pa
import ray
from ray.data.aggregate import Sum

from ..rayutil import anchor_from_input, keyed_groups, zero_token

NULL_LABEL = "(null)"   # null group keys → label (Ray's sort-shuffle groupby
                        # can't order null keys; oracle SQL uses COALESCE)


def _knull(key: str) -> str:
    return f"__knull_{key}"


def mask_null_keys(keys: Sequence[str]):
    """map_batches fn: for each key column add an int8 ``__knull_<k>`` flag
    and fill the key's nulls with the type's zero token.

    Why: Ray 2.49's sort-based shuffle (``Dataset.sort`` / ``groupby`` /
    ``unique``) range-partitions by comparing RAW key values across block
    boundaries (np.searchsorted over object arrays once nulls force an
    object dtype), so a null key in a multi-block dataset raises
    ``TypeError: '<' not supported`` depending on which boundary values get
    sampled — an input-dependent, scheduling-dependent crash (r4 fuzz).
    Grouping/sorting by ``(filled, flag)`` is bijective with the original
    key and never ships a None through the comparator."""
    import pyarrow.compute as pc

    def _fn(t: pa.Table) -> pa.Table:
        for k in keys:
            col = t[k]
            if pa.types.is_null(col.type):
                # untyped all-null column: give it a concrete carrier type
                # (int8) so zero-fill is possible; unmask restores nulls
                col = col.cast(pa.int8())
            flag = pc.cast(pc.is_null(col), pa.int8())
            filled = pc.fill_null(col, zero_token(col.type))
            t = t.set_column(t.column_names.index(k), k, filled)
            t = t.append_column(_knull(k), flag)
        return t
    return _fn


def unmask_null_keys(keys: Sequence[str]):
    """Inverse of :func:`mask_null_keys`: restore nulls where the flag is
    set and drop the flag columns."""
    import pyarrow.compute as pc

    def _fn(t: pa.Table) -> pa.Table:
        for k in keys:
            f = _knull(k)
            isnull = pc.cast(t[f], pa.bool_())
            col = pc.if_else(isnull, pa.scalar(None, type=t[k].type), t[k])
            t = t.set_column(t.column_names.index(k), k, col)
            t = t.drop_columns([f])
        return t
    return _fn


def null_safe_groupby_aggregate(ds: "ray.data.Dataset",
                                keys: Sequence[str], *aggs):
    """``ds.groupby(keys).aggregate(*aggs)`` that tolerates null group keys
    (see :func:`mask_null_keys` for why bare Ray groupby cannot). The flag
    columns ride the shuffle as secondary group keys and are stripped on
    the way out, so output rows carry REAL null keys — same convention as
    the driver-merge paths (and SQL GROUP BY)."""
    masked = ds.map_batches(mask_null_keys(keys), batch_format="pyarrow",
                            batch_size=None)
    out = masked.groupby(list(keys) + [_knull(k) for k in keys]) \
        .aggregate(*aggs)
    return out.map_batches(unmask_null_keys(keys), batch_format="pyarrow",
                           batch_size=None)


def null_safe_sort(ds: "ray.data.Dataset", cols: Sequence[str],
                   descending: Sequence[bool]):
    """``ds.sort`` that tolerates nulls in the sort keys. Nulls order LAST
    within each key regardless of direction (DuckDB's default NULLS LAST),
    via the flag column sorting ascending immediately before its key."""
    masked = ds.map_batches(mask_null_keys(cols), batch_format="pyarrow",
                            batch_size=None)
    sort_cols, sort_desc = [], []
    for c, d in zip(cols, descending):
        sort_cols += [_knull(c), c]
        sort_desc += [False, d]
    out = masked.sort(sort_cols, descending=sort_desc)
    return out.map_batches(unmask_null_keys(cols), batch_format="pyarrow",
                           batch_size=None)


def _partial_counts(keys: Sequence[str], count_name: str):
    import pyarrow.compute as pc

    def _fn(batch: pa.Table) -> pa.Table:
        sub = batch.select(list(keys))
        for i, k in enumerate(keys):
            col = sub[k]
            if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                sub = sub.set_column(i, k, pc.fill_null(col, NULL_LABEL))
        return sub.group_by(list(keys)).aggregate([([], "count_all")]) \
            .rename_columns(list(keys) + [count_name])
    return _fn


def grouped_counts(ds: "ray.data.Dataset", keys: Sequence[str],
                   count_name: str = "n",
                   driver_merge: bool = True):
    """Two-phase grouped row count (see module docstring for the merge-path
    trade-off). Returns pandas (driver merge) or a Dataset (distributed)."""
    partial = ds.map_batches(_partial_counts(keys, count_name),
                             batch_format="pyarrow", batch_size=None)
    if driver_merge:
        frames = [b.to_pandas() for b in
                  partial.iter_batches(batch_format="pyarrow")]
        if not frames:
            return pd.DataFrame(columns=[*keys, count_name])
        merged = pd.concat(frames, ignore_index=True)
        # dropna=False: non-string keys (timestamps, ints) can be null and
        # the NULL_LABEL fill above only covers string columns — pandas'
        # default would silently drop the whole null-keyed group (r3 review)
        return merged.groupby(list(keys), as_index=False, sort=True,
                              dropna=False)[count_name].sum()
    # null-safe: non-string keys (ints, timestamps) can still be null here
    # (only string keys get the NULL_LABEL fill above) and bare Ray groupby
    # crashes on null keys in multi-block inputs (see mask_null_keys)
    out = null_safe_groupby_aggregate(
        partial, list(keys), Sum(count_name, alias_name=count_name))
    # schema anchor: an all-empty input yields zero groupby output blocks
    # and the result loses its column list (Ray 2.49 drops empty blocks)
    return anchor_from_input(
        out, ds, lambda s: pa.schema(
            [(k, s.field(k).type) for k in keys]
            + [(count_name, pa.int64())]))


def grouped_topk(ds: "ray.data.Dataset", keys: Sequence[str], k: int = 10,
                 count_name: str = "n") -> pd.DataFrame:
    """Top-``k`` groups by row count WITHOUT a full distributed sort
    (VERDICT r4 #5): exact distributed grouped counts (combiner partials +
    null-safe groupby), then every counts BLOCK emits its local
    (count DESC, keys ASC, NULLS LAST) top-k and the driver folds the
    ≤ num_blocks × k partial rows. Replaces sort+limit's all-to-all range
    partition with one map_batches + a tiny driver merge — the global
    answer is exact because a group's total count lives in exactly one
    block after the groupby."""
    import pyarrow.compute as pc

    counts = grouped_counts(ds, keys, count_name=count_name,
                            driver_merge=False)
    sort_keys = [(count_name, "descending")] \
        + [(kk, "ascending") for kk in keys]

    def block_topk(t: pa.Table) -> pa.Table:
        if len(t) <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=sort_keys,
                              null_placement="at_end")
        return t.take(idx.slice(0, k))

    parts_ds = counts.map_batches(block_topk, batch_format="pyarrow",
                                  batch_size=None)
    # driver fold stays in ARROW: to_pandas() promotes a nullable int64
    # key to float64, collapsing distinct keys >= 2^53 (the same cliff
    # rayutil._segment_starts guards against) — the selection, tie-break
    # and returned key values must all be exact int64
    import ray as _ray
    tables = [t for t in _ray.get(parts_ds.to_arrow_refs()) if len(t)]
    if not tables:                        # fully-empty input
        return pd.DataFrame(columns=[*keys, count_name])
    merged = pa.concat_tables(tables)
    idx = pc.sort_indices(merged, sort_keys=sort_keys,
                          null_placement="at_end")
    top = merged.take(idx.slice(0, k))
    # plain to_pandas on the final k rows: if a null key made the top-k,
    # the int64 key renders float64 — EXACTLY like the DuckDB oracle's
    # .df(), which the driver value-hashes against (representation-
    # sensitive); the fold above already made selection/tie-break exact
    return top.to_pandas().reset_index(drop=True)


def sink_counts(ds: "ray.data.Dataset", route_col: str = "route",
                by: Optional[Sequence[str]] = None) -> pd.DataFrame:
    """Per-sink aggregate counts (north_rule 'matching the reference's
    per-sink aggregate counts'). Low cardinality ⇒ driver merge."""
    keys = [route_col] + list(by or [])
    return grouped_counts(ds, keys, driver_merge=True)


def matched_counts(ds: "ray.data.Dataset",
                   matched_col: str = "translate_matched") -> pd.DataFrame:
    """matched/unmatched counters — the filter_matched bookkeeping (S15)."""
    return grouped_counts(ds, [matched_col], driver_merge=True)


def conv_turn_counts(ds: "ray.data.Dataset", conv_col: str = "conv_id",
                     driver_merge: bool = False):
    """Turns per conversation — high-cardinality key ⇒ distributed merge of
    the per-batch partials (skew-safe, see module docstring)."""
    return grouped_counts(ds, [conv_col], count_name="turns",
                          driver_merge=driver_merge)


def _cents(col) -> "pa.Array":
    """value → integer cents with DuckDB's tie rule. ``pc.round`` defaults
    to half_to_even while DuckDB ``round()`` is half-away-from-zero
    (Arrow 12.5→12, DuckDB 12.5→13), so every cents computation that is
    mirrored by a ``round(value*100)`` oracle must pass
    ``half_towards_infinity`` or ties diverge."""
    import pyarrow.compute as pc
    return pc.cast(pc.round(pc.multiply(col, 100.0),
                            round_mode="half_towards_infinity"), pa.int64())


_FALLBACK_GROUPS = 64     # group calls of grouped_quantiles' distributed merge


def _quantiles_from_hist(cents_sorted, cum, qs: "tuple[float, ...]") -> dict:
    """quantile_disc rule off a cumulative histogram: the sorted multiset's
    element at index ceil(q·n)−1."""
    import math

    import numpy as np
    n = int(cum[-1])
    row = {}
    for q in qs:
        target = max(math.ceil(q * n), 1)
        row[f"p{int(round(q * 100))}"] = int(
            cents_sorted[np.searchsorted(cum, target)])
    return row


def grouped_quantiles(ds, key: str = "event_type", val: str = "value",
                      qs: "tuple[float, ...]" = (0.5, 0.95, 0.99),
                      driver_partial_rows_max: int = 2_000_000):
    """EXACT per-key discrete quantiles (p50/p95/p99 — the log-latency
    staple) over integer cents, shuffle-light: each batch pre-aggregates a
    (key, cents, cnt) HISTOGRAM partial (bounded by the block's distinct
    value count, not its row count), a native sum merges the partials, and
    the quantiles come off the merged histogram — no global sort, no
    whole-column materialization. Quantile rule = the sorted multiset's
    element at index ceil(q·n)−1, exactly DuckDB ``quantile_disc``.

    Null semantics match ``quantile_disc``: null VALUES are ignored, a null
    GROUP KEY is a real group (pandas merges run dropna=False).

    Merge path by partial size: ≤ ``driver_partial_rows_max`` partial rows
    (the bounded-cents-domain common case) merge on the driver with one
    pandas groupby and return a small pandas frame; above it — an
    unbounded value domain where the histogram itself is big — the merge
    is a distributed keyed-group shuffle (``rayutil.keyed_groups``) and a
    Dataset of its reduce outputs comes back instead (the guard VERDICT
    r3 #9 asked for)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        # null cents are KEPT as (key, null) histogram rows: quantile_disc
        # ignores null VALUES but SQL GROUP BY still emits a group whose
        # values are all null (with NULL quantiles) — filtering them here
        # made such groups vanish from the output entirely (r4 fuzz)
        cents = _cents(t[val])
        sub = pa.table({key: t[key], "cents": cents})
        return sub.group_by([key, "cents"]).aggregate([([], "count_all")]) \
            .rename_columns([key, "cents", "cnt"])

    # partials are Σ-distinct-cents-per-block rows — the heavy reduction
    # happens inside map_batches; materialize them ONCE so the size check
    # and the chosen merge don't re-execute the scan
    parts_ds = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=None).materialize()
    if parts_ds.count() == 0:
        # all-empty input: to_pandas of an empty dataset loses the column
        # list (Ray 2.49) and the histogram merge would KeyError on it
        return pd.DataFrame(columns=[key] + [f"p{int(round(q * 100))}"
                                             for q in qs])
    if parts_ds.count() > driver_partial_rows_max:
        # distributed fallback: one keyed-group shuffle over the partials;
        # each key's histogram rows arrive sorted by cents (nulls last), so
        # the quantiles come straight off the un-merged cumulative counts
        # (equal cents rows are adjacent). A null group key is a real null
        # group here, as in the driver merge and the quantile_disc oracle.
        names = [f"p{int(round(q * 100))}" for q in qs]

        def per_key(t: pa.Table, starts) -> pa.Table:
            valid = t["cents"].is_valid().to_numpy(zero_copy_only=False)
            cents = pc.fill_null(t["cents"], 0).to_numpy(zero_copy_only=False)
            cnt = t["cnt"].to_numpy(zero_copy_only=False)
            cols = {p: [] for p in names}
            for s, e in zip(starts, np.append(starts[1:], len(t))):
                v = valid[s:e]
                # all-null values: NULL quantiles, like quantile_disc
                row = (_quantiles_from_hist(cents[s:e][v],
                                            np.cumsum(cnt[s:e][v]), qs)
                       if v.any() else {})
                for p in names:
                    cols[p].append(row.get(p))
            return pa.table({key: t[key].take(pa.array(starts)),
                             **{p: pa.array(cols[p], type=pa.int64())
                                for p in names}})

        return keyed_groups(
            parts_ds, [key], per_key,
            lambda s: pa.schema([(key, s.field(key).type)]
                                + [(p, pa.int64()) for p in names]),
            _FALLBACK_GROUPS, order_by=["cents"])
    parts = parts_ds.to_pandas()
    # dropna=False: a null group KEY must survive the merge like the
    # quantile_disc oracle's NULL group; null CENTS rows keep all-null
    # groups in the output (dropped per group at extraction, = the
    # quantile_disc ignore-NULL-values rule)
    hist = parts.groupby([key, "cents"], as_index=False, dropna=False)["cnt"] \
        .sum().sort_values([key, "cents"])
    out_rows = []
    for k, g in hist.groupby(key, sort=True, dropna=False):
        gv = g.dropna(subset=["cents"])
        if len(gv) == 0:
            row = {key: k,
                   **{f"p{int(round(q * 100))}": None for q in qs}}
        else:
            row = {key: k,
                   **_quantiles_from_hist(gv["cents"].to_numpy(),
                                          gv["cnt"].cumsum().to_numpy(), qs)}
        out_rows.append(row)
    return pd.DataFrame(out_rows)


def zscore_outliers(ds, key: str = "event_type", val: str = "value",
                    threshold: float = 2.0, id_col: str = "event_id"):
    """Per-key z-score anomaly flag (two-pass, broadcast stats):

    pass 1 — combiner partials (count, Σcents, Σcents²) per key inside
    ``map_batches`` (exact int64 sums on cents, so the merged statistics
    are order-independent), tiny driver merge (low-cardinality key);
    pass 2 — broadcast the per-key (mean, std) and compute
    ``z = (cents - mean) / std`` vectorized per batch, keeping |z| > t.

    Population std from exact integer sums, so the float math is
    bit-reproducible and SQL-mirrorable: mean = Σc/n;
    var = Σc²/n − mean²; z = (c − mean)/std — same op order in the oracle.
    """
    import numpy as np
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents(t[val])
        sub = pa.table({key: t[key], "c": cents,
                        "c2": pc.multiply(cents, cents)})
        return sub.group_by([key]).aggregate(
            [("c", "count"), ("c", "sum"), ("c2", "sum")]) \
            .rename_columns([key, "cnt", "s1", "s2"])

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None).to_pandas()
    stats = parts.groupby(key, as_index=False)[["cnt", "s1", "s2"]].sum()
    mean = stats["s1"].astype("float64") / stats["cnt"]
    var = stats["s2"].astype("float64") / stats["cnt"] - mean * mean
    # broadcast ARRAYS, looked up per batch with one pc.index_in — no
    # per-row Python dict lookups in the flag stage
    ref = ray.put((pa.array(stats[key]), mean.to_numpy(),
                   np.sqrt(var.to_numpy())))

    def flag(t: pa.Table) -> pa.Table:
        keys_arr, ms_all, ss_all = \
            ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        if len(keys_arr) == 0:
            # no non-null-keyed rows at all: stats is empty (and keys_arr
            # is NULL-typed, which index_in would reject) — nothing can be
            # an outlier; emit the empty table with the output schema
            return pa.table({id_col: t[id_col].slice(0, 0),
                             key: t[key].slice(0, 0),
                             "z": pa.array([], type=pa.float64())})
        cents = _cents(t[val]).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        # a NULL key never reaches the z computation: the stats merge drops
        # the null group (pandas dropna) exactly like the oracle's inner
        # ``JOIN st USING (key)`` drops null-key rows, so index_in yields
        # null for them — mask those rows out instead of letting the
        # NaN→int64 cast fabricate an index (it is platform-UB and was an
        # IndexError/garbage-z on null-keyed inputs)
        idx_arr = pc.index_in(t[key], value_set=keys_arr)
        has_stats = pc.is_valid(idx_arr).to_numpy(zero_copy_only=False)
        idx = pc.fill_null(idx_arr, 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ms, ss = ms_all[idx], ss_all[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (cents - ms) / ss
        keep = has_stats & (np.abs(z) > threshold)
        out = pa.table({id_col: t[id_col], key: t[key],
                        "z": pa.array(z)})
        return out.filter(pa.array(keep & np.isfinite(z)))

    # schema anchor: when EVERY block filters to zero outliers Ray drops
    # the empty blocks and the result loses its column list (r4 fuzz) —
    # union a typed zero-row block so downstream keeps the column list
    out_ds = ds.map_batches(flag, batch_format="pyarrow", batch_size=None)
    return anchor_from_input(
        out_ds, ds,
        lambda s: pa.schema([(id_col, s.field(id_col).type),
                             (key, s.field(key).type),
                             ("z", pa.float64())]))
