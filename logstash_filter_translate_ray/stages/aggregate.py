"""Aggregate stage — per-sink counts, matched/unmatched counters, grouped
counts, quantiles and z-scores.

Scale design (SURVEY §4): a bare ``groupby(key).count()`` shuffles every
row. All aggregates here PRE-AGGREGATE inside ``map_batches`` — each batch
emits one row per key — so what moves after the map phase is
``O(distinct keys × blocks)`` partial rows instead of ``O(N)`` events.

Two merge paths for the partials, chosen by key cardinality:

- **driver merge** (default for route/matched counters, ≤ ~10^5 keys):
  the partial blocks are streamed to the driver and merged with one pandas
  groupby. At 10^12 rows the partials are still only (#blocks × #keys)
  rows — a per-sink counter never needs a cluster-wide shuffle, and
  skipping the exchange's barrier keeps the whole pipeline streaming.
- **distributed merge** (conv_id and other high-cardinality keys): the
  partials go through the engine's one keyed exchange
  (``rayutil.keyed_aggregate``: a hash split, then an Arrow sum per
  bucket). The per-batch partials ARE the skew salt: a hot conversation
  appearing in B blocks contributes B one-row partials regardless of its
  row count, so no reducer sees more than B rows per key (the
  north_rule's salted repartitioning realized combiner-style).
"""

from __future__ import annotations

from typing import Optional, Sequence

import pandas as pd
import pyarrow as pa
import ray

from .. import rayutil
from ..rayutil import keyed_aggregate, keyed_groups, topk_rows

NULL_LABEL = "(null)"   # null STRING group keys → label, mirroring the
                        # oracle SQL's COALESCE(key, '(null)')


def _partial_counts(keys: Sequence[str], count_name: str,
                    null_label: str = NULL_LABEL):
    """Per-batch row counts by ``keys``; null strings become ``null_label``."""
    import pyarrow.compute as pc

    def _fn(batch: pa.Table) -> pa.Table:
        sub = batch.select(list(keys))
        for i, k in enumerate(keys):
            col = sub[k]
            if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                sub = sub.set_column(i, k, pc.fill_null(col, null_label))
        return sub.group_by(list(keys)).aggregate([([], "count_all")]) \
            .rename_columns(list(keys) + [count_name])
    return _fn


def merge_partials(tables, keys: Sequence[str], count_name: str = "n"):
    """Driver merge of count partials: one pandas groupby sum."""
    frames = [t.to_pandas() for t in tables]
    if not frames:
        return pd.DataFrame(columns=[*keys, count_name])
    merged = pd.concat(frames, ignore_index=True)
    # dropna=False: non-string keys (timestamps, ints) can be null and
    # the NULL_LABEL fill only covers string columns — pandas' default
    # would silently drop the whole null-keyed group (r3 review)
    return merged.groupby(list(keys), as_index=False, sort=True,
                          dropna=False)[count_name].sum()


def grouped_counts(ds: "ray.data.Dataset", keys: Sequence[str],
                   count_name: str = "n",
                   driver_merge: bool = True):
    """Two-phase grouped row count (see module docstring for the merge-path
    trade-off). Returns pandas (driver merge) or a Dataset (distributed).
    The distributed merge runs ``ds`` at call time (the keyed exchange is
    eager) and returns a materialized Dataset."""
    partial = rayutil.map_blocks(ds, _partial_counts(keys, count_name))
    if driver_merge:
        return merge_partials(partial.iter_batches(batch_format="pyarrow"),
                              keys, count_name)
    return keyed_aggregate(partial, keys, {count_name: (count_name, "sum")})


def grouped_topk(ds: "ray.data.Dataset", keys: Sequence[str], k: int = 10,
                 count_name: str = "n") -> pd.DataFrame:
    """Top-``k`` groups by row count WITHOUT a full distributed sort
    (VERDICT r4 #5): exact distributed grouped counts (combiner partials +
    the keyed exchange), then every counts BLOCK keeps its local
    (count DESC, keys ASC, NULLS LAST) top-k and the driver folds the
    ≤ buckets × k partial rows (``rayutil.topk_rows``). The global
    answer is exact because a group's total count lives in exactly one
    block after the exchange. Runs ``ds`` at call time."""
    counts = grouped_counts(ds, keys, count_name=count_name,
                            driver_merge=False)
    top = topk_rows(counts, [(count_name, "descending")]
                    + [(kk, "ascending") for kk in keys], k)
    if top is None:                       # fully-empty input
        return pd.DataFrame(columns=[*keys, count_name])
    # plain to_pandas on the final k rows: if a null key made the top-k,
    # the int64 key renders float64 — EXACTLY like the DuckDB oracle's
    # .df(), which the driver value-hashes against (representation-
    # sensitive); the Arrow fold already made selection/tie-break exact
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


def _cents(col) -> "pa.Array":
    """value → integer cents with DuckDB's tie rule. ``pc.round`` defaults
    to half_to_even while DuckDB ``round()`` is half-away-from-zero
    (Arrow 12.5→12, DuckDB 12.5→13), so every cents computation that is
    mirrored by a ``round(value*100)`` oracle must pass
    ``half_towards_infinity`` or ties diverge."""
    import pyarrow.compute as pc
    return pc.cast(pc.round(pc.multiply(col, 100.0),
                            round_mode="half_towards_infinity"), pa.int64())


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
    parts_ds = rayutil.map_blocks(ds, partial).materialize()
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
            order_by=["cents"])
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

    parts = rayutil.map_blocks(ds, partial).to_pandas()
    if parts.columns.empty:           # no block at all (0-row input)
        parts = pd.DataFrame(columns=[key, "cnt", "s1", "s2"])
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

    return rayutil.map_blocks(ds, flag)
