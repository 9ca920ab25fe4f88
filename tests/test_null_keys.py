"""Null group/sort keys through the engine's keyed exchange.

Every grouped aggregate, keyed group and top-k in the engine runs on
``rayutil.keyed_groups``/``keyed_aggregate``: the bucket hash fills null
keys with a zero token, and the grouping itself (null-aware segments,
Arrow's hash aggregate, null-last top-k folds) keeps a null key as ONE
group, distinct from that token — SQL ``GROUP BY`` semantics. These tests
pin SQL parity on inputs with null keys spread across several blocks
(Ray's own sort-based shuffle once crashed on exactly this input), for
the aggregates, the windows, the grouped_quantiles fallback and the
grouped top-k.
"""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entry_mod

MIXED_ROWS = [
    ("click", 1, 1, 1.0, "k=1"),
    (None, None, None, None, None),
    ("error", 2, None, 2.0, None),
    (None, 3, 2, None, "x9"),
    ("click", 4, 1, -3.5, "k=2"),
    (None, 5, None, 0.005, ""),
] * 3


@pytest.fixture(scope="module")
def null_sf_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("nullsf")
    rows = MIXED_ROWS
    n = len(rows)
    tbl = pa.table({
        "event_id": pa.array(np.arange(1, n + 1), type=pa.int64()),
        "ts": pa.array([None if r[1] is None else r[1] * 1_000_000
                        for r in rows], type=pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "value": pa.array([r[3] for r in rows], type=pa.float64()),
        "props": pa.array([r[4] for r in rows], type=pa.string()),
    })
    pq.write_table(tbl, os.path.join(str(d), "events.parquet"))
    return str(d)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        nulls = pd.isna(df[c])
        df[c] = df[c].astype(str)
        df.loc[nulls, c] = "<null>"
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _oracle(null_sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{os.path.join(null_sf_dir, 'events.parquet')}')")
    return con.execute(sql).df()


def _to_pandas(res) -> pd.DataFrame:
    import ray.data
    if isinstance(res, ray.data.Dataset):
        df = res.to_pandas()
        if not len(df.columns):
            # Ray 2.49 to_pandas drops the (known) schema of a fully-empty
            # dataset; rebuild the column list from Dataset.schema()
            sch = res.schema()
            df = pd.DataFrame(columns=list(sch.names) if sch else [])
        return df
    return res.to_pandas() if hasattr(res, "to_pandas") else res


EVENT_QUERIES = [
    "translate_exact", "translate_exact_nofallback", "translate_regex",
    "route_counts", "matched_counts", "parse_extract", "agg_value_by_type",
    "user_event_counts", "zscore_outliers", "quantiles", "event_paths",
    "events_pipeline", "filter_pushdown", "topk_users",
    "tumbling_counts", "window_quantiles", "prev_event_gap",
    "session_counts", "distinct_types", "translate_file_dict",
    "translate_iterate_maps"]


@pytest.mark.parametrize("name", EVENT_QUERIES)
def test_null_key_queries_match_oracle(ray_session, null_sf_dir, name):
    got = _to_pandas(entry_mod.queries()[name](null_sf_dir))
    want = _oracle(null_sf_dir, entry_mod.oracle_sql()[name])
    g, w = _canon(got), _canon(want)
    assert list(g.columns) == list(w.columns)
    assert len(g) == len(w), (name, g, w)
    pd.testing.assert_frame_equal(g, w, check_dtype=False, obj=name)


def test_keyed_aggregate_null_keys_multiblock(ray_session):
    import ray.data as rd

    from logstash_filter_translate_ray.rayutil import keyed_aggregate
    tbl = pa.table({"k": ["a", None, "b", None, "a", ""] * 4,
                    "v": list(range(24))})
    out = keyed_aggregate(
        rd.from_arrow(tbl).repartition(5), ["k"],
        {"s": ("v", "sum")}).to_pandas()
    want = tbl.to_pandas().groupby("k", dropna=False, as_index=False)["v"] \
        .sum().rename(columns={"v": "s"})

    def canon(df):
        # one null spelling on both sides (the engine's None, pandas' NaN)
        df = df.sort_values("k", na_position="last").reset_index(drop=True)
        return df.astype(object).where(df.notna(), None)

    pd.testing.assert_frame_equal(canon(out), canon(want), check_dtype=False)
    # the "" zero-token group stays distinct from the null group
    assert set(out["s"][out["k"] == ""].tolist()) != set()


def test_grouped_quantiles_distributed_null_timestamp_key(ray_session):
    """The distributed fallback now restores null keys of ANY type (the
    old string-sentinel contract excluded timestamp/int keys)."""
    import ray.data as rd

    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    tbl = pa.table({
        "bucket": pa.array([0, 0, None, None, 3_600_000_000, None],
                           type=pa.timestamp("us")),
        "value": [1.0, 2.0, 5.0, 7.0, 4.0, None],
    })
    driver = grouped_quantiles(rd.from_arrow(tbl).repartition(3),
                               key="bucket", qs=(0.5,))
    fb = grouped_quantiles(rd.from_arrow(tbl).repartition(3), key="bucket",
                           qs=(0.5,), driver_partial_rows_max=0).to_pandas()
    d = driver.sort_values("bucket", na_position="last") \
        .reset_index(drop=True)
    f = fb.sort_values("bucket", na_position="last").reset_index(drop=True)
    assert pd.isna(f.loc[len(f) - 1, "bucket"])
    assert list(d["p50"].fillna(-1)) == list(f["p50"].fillna(-1))


def test_similarity_tolerates_empty_blocks(ray_session):
    """_batch_matrix infers dim by division — an empty block (tiny inputs
    repartitioned, or an IVF probe-filter emptying a block) raised
    ZeroDivisionError in the exact-pairs / brute-force paths (r4 fuzz)."""
    import ray.data as rd

    from logstash_filter_translate_ray.functions.similarity import (
        brute_force_topk, embedding_neardup_pairs, ivf_topk)
    tbl = pa.table({"vec_id": pa.array([0, 1, 2], type=pa.int64()),
                    "embedding": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]]})
    ds = rd.from_arrow(tbl).repartition(5)      # 3 rows in 5 blocks → empties
    pairs = embedding_neardup_pairs(ds, threshold=0.9)
    assert [(r.id_a, r.id_b) for r in pairs.itertuples()] == [(0, 2)]
    bf = brute_force_topk(ds, np.array([[1.0, 0.0]]), k=2)
    assert bf["vec_id"].tolist() == [0, 2]
    out = ivf_topk(ds, np.array([[1.0, 0.0]]), k=1, n_cells=2, n_probe=1)
    assert len(out) == 1


def test_brute_force_topk_tie_break_and_zero_query(ray_session):
    """(r4 review) brute_force_topk must order by (cosine DESC, id ASC)
    like the SQL mirror: a zero query vector scores 0 against everything
    (engine convention), so the top-k is exactly the k smallest ids; and
    duplicate vectors tied at the k boundary break to the smaller id even
    across blocks."""
    import ray.data as rd

    from logstash_filter_translate_ray.functions.similarity import (
        brute_force_topk)
    vecs = [[float(i % 3), float((i * 7) % 5), 1.0] for i in range(20)]
    tbl = pa.table({"vec_id": pa.array(range(20), type=pa.int64()),
                    "embedding": pa.array(vecs,
                                          type=pa.list_(pa.float32()))})
    out = brute_force_topk(rd.from_arrow(tbl).repartition(3),
                           np.zeros((1, 3)), k=10)
    assert out["vec_id"].tolist() == list(range(10))
    dup = [[1.0, 0.0]] * 6 + [[0.9, 0.1]] * 6
    tbl2 = pa.table({"vec_id": pa.array(range(12), type=pa.int64()),
                     "embedding": pa.array(dup,
                                           type=pa.list_(pa.float32()))})
    out2 = brute_force_topk(rd.from_arrow(tbl2).repartition(4),
                            np.array([[1.0, 0.0]]), k=4)
    assert out2["vec_id"].tolist() == [0, 1, 2, 3]


def test_knn_join_cross_block_duplicate_tie(ray_session):
    """A vector and its exact duplicate in DIFFERENT blocks must tie and
    rank by neighbor id ASC: BLAS dgemm summation order varies with matrix
    shape, so without score rounding the duplicate scored from another
    block can land 1 ulp higher and steal the lower rank (r4 fuzz)."""
    import ray.data as rd

    from logstash_filter_translate_ray.functions.similarity import knn_join
    v5 = [1.0, 1.0, 2.0, 0.0, 0.5, 0.5, 0.0, 1.0]
    v6 = [1.0, 0.0, -0.5, 0.0, 0.5, 0.0, 0.0, 0.0]
    vecs = [[0.0] * 8] * 5 + [v5, v6, [0.0] * 8, [-0.0] * 8,
                              list(v5), [-x for x in v5]]
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
        "embedding": pa.array(
            [[np.float32(x) for x in v] for v in vecs],
            type=pa.list_(pa.float32()))})
    out = knn_join(rd.from_arrow(tbl).repartition(4), k=3,
                   target_block_rows=3)
    mine = out[out["vec_id"] == 6].sort_values("nn_rank")
    # v5 (id 5) and its copy (id 9) tie exactly; id 5 must rank first
    assert mine["neighbor_id"].tolist()[:2] == [5, 9]


def test_spec_fully_filtered_keeps_schema(ray_session, tmp_path):
    """A spec whose filters drop every row must still return a dataset
    with its (statically derived) column list — Ray 2.49 drops all-empty
    blocks and schema() would otherwise be None (unwritable sink)."""
    import pyarrow.parquet as pq_mod
    import ray.data  # noqa: F401

    from logstash_filter_translate_ray.pipelines.spec import build_from_spec
    p = str(tmp_path / "events.parquet")
    pq_mod.write_table(pa.table({
        "event_id": pa.array([1, 2], type=pa.int64()),
        "event_type": pa.array(["click", None], type=pa.string()),
        "props": pa.array(["k=1", None], type=pa.string())}), p)
    spec = {"input": {"path": p},
            "filters": [
                {"translate": {"source": "event_type", "target": "label",
                               "dictionary": {"click": "C"},
                               "fallback": "?", "override": True}},
                {"extract": {"out": "k_value", "source": "props",
                             "pattern": r"(\d+)", "cast": "int64"}},
                {"keep": {"column": "event_id", "op": ">", "value": 99}}],
            "route": {"routes": {"click": "hot"}, "key": "event_type",
                      "default": "ops"}}
    ds = build_from_spec(spec)
    assert ds.count() == 0
    assert list(ds.schema().names) == [
        "event_id", "event_type", "props", "label", "k_value", "route"]


def test_grouped_counts_distributed_empty_keeps_schema(ray_session):
    import ray.data as rd

    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_counts, grouped_quantiles)
    tbl = pa.table({"k": pa.array([], type=pa.string()),
                    "value": pa.array([], type=pa.float64())})
    out = grouped_counts(rd.from_arrow(tbl), ["k"], driver_merge=False)
    assert out.count() == 0
    assert sorted(out.schema().names) == ["k", "n"]
    q = grouped_quantiles(rd.from_arrow(tbl), key="k", qs=(0.5,))
    assert len(q) == 0 and list(q.columns) == ["k", "p50"]


def test_zscore_outliers_all_null_keys_empty(ray_session):
    import ray.data as rd

    from logstash_filter_translate_ray.stages.aggregate import (
        zscore_outliers)
    tbl = pa.table({"event_id": [1, 2], "event_type": pa.array(
        [None, None], type=pa.string()), "value": [1.0, 2.0]})
    out = zscore_outliers(rd.from_arrow(tbl).repartition(2))
    assert out.count() == 0
    # the schema anchor keeps the column list on a fully-empty result
    # (Ray's to_pandas still returns a bare frame there — known quirk)
    assert list(out.schema().names) == ["event_id", "event_type", "z"]


# --------------------------------------------------------------------------
# ADVICE r4 #1: window segment boundaries must not merge distinct int64
# keys >= 2^53 when the key column carries nulls (float64 promotion)
# --------------------------------------------------------------------------

def test_window_segments_large_int_keys_with_nulls(ray_session):
    import ray.data as rd
    from logstash_filter_translate_ray.stages.window import prev_event_gap

    k1 = 9007199254740992          # 2^53
    k2 = 9007199254740993          # 2^53 + 1: equal in float64!
    tbl = pa.table({
        "user_id": pa.array([k1, k1, k2, k2, None, None], type=pa.int64()),
        "event_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
        "ts": pa.array([100, 200, 300, 400, 500, 600],
                       type=pa.timestamp("us")),
    })
    out = prev_event_gap(rd.from_arrow(tbl), num_buckets=1).to_pandas() \
        .set_index("event_id")["gap_us"]
    # k1 and k2 are DISTINCT keys: each key's first event has a null gap
    assert pd.isna(out[1]) and out[2] == 100.0
    assert pd.isna(out[3]) and out[4] == 100.0      # would be 100,100 only
    # null keys form ONE segment (SQL GROUP BY null-group convention)
    assert pd.isna(out[5]) and out[6] == 100.0


def test_window_segments_null_type_key(ray_session):
    """An all-null (null-typed) key column is one segment, not a crash."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.window import prev_event_gap
    tbl = pa.table({
        "user_id": pa.array([None, None, None], type=pa.null()),
        "event_id": pa.array([1, 2, 3], type=pa.int64()),
        "ts": pa.array([10, 20, 40], type=pa.timestamp("us")),
    })
    out = prev_event_gap(rd.from_arrow(tbl), num_buckets=1).to_pandas() \
        .set_index("event_id")["gap_us"]
    assert pd.isna(out[1]) and out[2] == 10.0 and out[3] == 20.0


def test_grouped_quantiles_fallback_null_key_parity(ray_session):
    """The distributed fallback must emit the SAME null group key as the
    driver merge (a real null, not the shuffle sentinel) — output must not
    change shape with data volume."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    tbl = pa.table({
        "event_type": ["a", "a", None, None],
        "value": [1.0, 2.0, 5.0, 7.0],
    })
    driver = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5,)) \
        .sort_values("event_type", na_position="last").reset_index(drop=True)
    fb = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5,),
                           driver_partial_rows_max=0).to_pandas() \
        .sort_values("event_type", na_position="last").reset_index(drop=True)
    # normalize None vs NaN in the object key column — pandas treats the
    # mismatch as a FutureWarning today and a failure tomorrow
    for df in (driver, fb):
        df["event_type"] = df["event_type"].astype(object).where(
            df["event_type"].notna(), None)
    pd.testing.assert_frame_equal(fb[driver.columns], driver,
                                  check_dtype=False)
    assert pd.isna(fb.loc[1, "event_type"])     # not the "(null)" sentinel


def test_grouped_quantiles_null_group_kept(ray_session):
    """A null group KEY survives (quantile_disc keeps the NULL group);
    null VALUES are ignored within a group (ADVICE r3)."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    tbl = pa.table({
        "event_type": ["a", "a", None, None, "a", None],
        "value": [1.0, 2.0, 5.0, 7.0, None, None],
    })
    out = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5,))
    out = out.sort_values("event_type", na_position="last") \
        .reset_index(drop=True)
    assert len(out) == 2
    # group 'a': values {100, 200} (null value ignored) → p50 = 100
    assert out.loc[0, "event_type"] == "a" and out.loc[0, "p50"] == 100
    # null group: values {500, 700} → p50 = 500
    assert pd.isna(out.loc[1, "event_type"]) and out.loc[1, "p50"] == 500


def test_grouped_quantiles_distributed_fallback(ray_session, sf_dir):
    """Forcing the partial-row threshold to 0 routes the merge through the
    distributed groupby path; values must equal the driver merge
    (VERDICT r3 #9)."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    driver = grouped_quantiles(ds) \
        .sort_values("event_type").reset_index(drop=True)
    fb = grouped_quantiles(ds, driver_partial_rows_max=0)
    import ray.data
    assert isinstance(fb, ray.data.Dataset)
    fb = fb.to_pandas().sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(fb[driver.columns], driver,
                                  check_dtype=False)


def test_grouped_quantiles_all_null_value_group_kept(ray_session):
    """A group whose values are ALL null must still appear, with NULL
    quantiles — SQL GROUP BY keeps the group and quantile_disc returns
    NULL over all-NULL values; the histogram partials used to filter null
    cents and such groups vanished entirely (r4 fuzz). Both merge paths."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    tbl = pa.table({"event_type": ["a", "a", "b", None],
                    "value": pa.array([1.0, 2.0, None, None],
                                      type=pa.float64())})
    for kwargs in ({}, {"driver_partial_rows_max": 0}):
        out = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5,), **kwargs)
        if hasattr(out, "to_pandas"):
            out = out.to_pandas()
        out = out.fillna({"event_type": "(n)"}) \
            .sort_values("event_type").reset_index(drop=True)
        assert out["event_type"].tolist() == ["(n)", "a", "b"]
        assert pd.isna(out.loc[0, "p50"]) and pd.isna(out.loc[2, "p50"])
        # quantile_disc rule: element at ceil(0.5*2)-1 = index 0 -> 100
        assert out.loc[1, "p50"] == 100


def test_session_counts_null_ts_matches_sql_oracle(ray_session):
    """A null ts promotes the epoch array to float64-with-NaN; the int64
    diff buffer raised a casting TypeError. A NaN gap STARTS a session —
    the registered lag-based SQL counts `gap_us IS NULL` as a session
    start, and the earlier `NaN > gap → False` silently absorbed null-ts
    rows into the previous session (r4 fuzz find). Null-ts rows sort last
    on both sides, so the parity holds row-for-row."""
    import duckdb
    import ray.data as rd
    from logstash_filter_translate_ray.stages.window import session_counts
    ts = pa.array([1_000_000, 10_000_000_000_000, None, 500_000, None, None],
                  type=pa.timestamp("us"))
    tbl = pa.table({"user_id": ["u1", "u1", "u1", "u2", "u3", "u3"],
                    "event_id": pa.array([1, 2, 3, 4, 5, 6],
                                         type=pa.int64()),
                    "ts": ts})
    out = session_counts(rd.from_arrow(tbl), gap="30min").to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    # u1: two real events far apart + a null-ts row → 3; u3: two null-ts
    # rows → 2 (each unknown-time edge is a new session, like the SQL)
    assert out["user_id"].tolist() == ["u1", "u2", "u3"]
    assert out["n_sessions"].tolist() == [3, 1, 2]
    con = duckdb.connect()
    con.register("events", tbl)
    want = con.execute(
        "WITH g AS (SELECT user_id, epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS gap_us FROM events) "
        "SELECT user_id, CAST(SUM(CASE WHEN gap_us IS NULL OR "
        "gap_us > 1800000000 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions "
        "FROM g GROUP BY user_id ORDER BY user_id").df()
    assert out["n_sessions"].tolist() == want["n_sessions"].tolist()


def test_event_paths_null_values_skipped(ray_session):
    """Null path elements are SKIPPED like string_agg (one null event_type
    must not null the whole path); an all-null key emits a null path."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.window import event_paths
    tbl = pa.table({
        "user_id": ["a", "a", "a", "b", "b"],
        "event_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2], type=pa.timestamp("us")),
        "event_type": ["x", None, "y", None, None],
    })
    out = event_paths(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert out.loc[0, "path"] == "x>y"          # null element skipped
    assert pd.isna(out.loc[1, "path"])          # all-null key → null

    # parity with the SQL the oracle uses
    import duckdb
    want = duckdb.connect().execute(
        "SELECT user_id, string_agg(event_type, '>' ORDER BY ts, event_id)"
        " AS path FROM tbl GROUP BY user_id ORDER BY user_id").df()
    pd.testing.assert_frame_equal(out[["user_id", "path"]], want,
                                  check_dtype=False)


# --------------------------------------------------------------------------
# VERDICT r4 #5: grouped-partial top-k (no full range-partition sort)
# --------------------------------------------------------------------------

def test_grouped_topk(ray_session):
    import duckdb
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import grouped_topk

    # ties at the k boundary + null keys + multi-block spread of one key
    tbl = pa.table({"user_id": pa.array(
        [1] * 5 + [2] * 5 + [None] * 5 + [3] * 3 + [4] * 3 + [5] * 1,
        type=pa.int64())})
    split = rd.from_arrow([tbl.slice(0, 7), tbl.slice(7, 8), tbl.slice(15)])
    out = grouped_topk(split, ["user_id"], k=4)
    want = duckdb.connect().execute(
        "SELECT user_id, COUNT(*) AS n FROM tbl GROUP BY user_id "
        "ORDER BY n DESC, user_id LIMIT 4").df()
    assert out["n"].tolist() == want["n"].tolist()
    # same groups in the same order; null sorts LAST within its n-tie
    got_ids = [None if pd.isna(v) else int(v) for v in out["user_id"]]
    want_ids = [None if pd.isna(v) else int(v) for v in want["user_id"]]
    assert got_ids == want_ids == [1, 2, None, 3]

    # k larger than the group count: all groups, still exact
    allg = grouped_topk(rd.from_arrow(tbl), ["user_id"], k=100)
    assert len(allg) == 6 and allg["n"].sum() == len(tbl)

    # empty input: typed empty frame, no crash
    empty = grouped_topk(rd.from_arrow(tbl.slice(0, 0)), ["user_id"], k=3)
    assert len(empty) == 0 and list(empty.columns) == ["user_id", "n"]


def test_grouped_topk_large_int_keys_with_nulls(ray_session):
    """Driver fold must stay in Arrow: a pandas fold promotes a nullable
    int64 key to float64, collapsing distinct keys >= 2^53 and corrupting
    the returned key values (round-5 review finding)."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import grouped_topk

    k1 = 9007199254740992          # 2^53
    k2 = 9007199254740993          # 2^53 + 1: equal in float64
    tbl = pa.table({"user_id": pa.array(
        [k1, k1, k2, k2, None, 7], type=pa.int64())})
    split = rd.from_arrow([tbl.slice(0, 3), tbl.slice(3)])
    out = grouped_topk(split, ["user_id"], k=3)
    # count-tied at n=2: exact int64 ascending tie-break, k1 before k2,
    # and BOTH survive as distinct groups with exact values; at the n=1
    # tie, 7 beats the null group (NULLS LAST). No null in the top-3 ⇒
    # the returned column stays int64 with exact values.
    assert out["user_id"].dtype == np.int64
    assert out["user_id"].tolist() == [k1, k2, 7]
    assert out["n"].tolist() == [2, 2, 1]
    # k=4 pulls the null group in: selection order stays exact (the fold
    # is Arrow-side); rendering goes float64, matching DuckDB's .df()
    out4 = grouped_topk(split, ["user_id"], k=4)
    assert out4["n"].tolist() == [2, 2, 1, 1]
    assert pd.isna(out4["user_id"].iloc[3])
