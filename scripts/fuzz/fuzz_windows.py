"""Differential fuzz: window ops vs DuckDB on adversarial tables (null
ts, null keys, duplicate (ts,id) neighborhoods, single-row keys)."""
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from hypothesis import given, settings, strategies as st, HealthCheck

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from logstash_filter_translate_ray.stages.window import (
    event_paths, prev_event_gap, session_counts)

row = st.tuples(
    st.one_of(st.none(), st.sampled_from(["u1", "u2", "u3"])),   # user_id
    st.one_of(st.none(), st.integers(0, 4_000)),                 # ts seconds
    st.one_of(st.none(), st.sampled_from(["a", "b", "c"])))      # event_type

S = settings(max_examples=60, deadline=None,
             suppress_health_check=[HealthCheck.too_slow,
                                    HealthCheck.filter_too_much])

def build(rows):
    n = len(rows)
    return pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.string()),
        "event_id": pa.array(np.arange(1, n + 1), type=pa.int64()),
        "ts": pa.array([None if r[1] is None else r[1] * 1_000_000
                        for r in rows], type=pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], type=pa.string())})

@S
@given(rows=st.lists(row, min_size=1, max_size=25))
def fuzz_sessions(rows):
    tbl = build(rows)
    got = session_counts(rd.from_arrow(tbl), gap="30min").to_pandas()
    con = duckdb.connect(); con.register("events", tbl)
    want = con.execute(
        "WITH g AS (SELECT user_id, epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS gap_us FROM events) "
        "SELECT user_id, CAST(SUM(CASE WHEN gap_us IS NULL OR "
        "gap_us > 1800000000 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions "
        "FROM g GROUP BY user_id").df()
    g = got.fillna({"user_id": "(null)"}).sort_values("user_id").reset_index(drop=True)
    w = want.fillna({"user_id": "(null)"}).sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)

@S
@given(rows=st.lists(row, min_size=1, max_size=25))
def fuzz_gaps(rows):
    tbl = build(rows)
    got = prev_event_gap(rd.from_arrow(tbl)).to_pandas()
    con = duckdb.connect(); con.register("events", tbl)
    want = con.execute(
        "SELECT event_id, CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS DOUBLE) AS gap_us "
        "FROM events").df()
    g = got.sort_values("event_id").reset_index(drop=True)
    w = want.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g[["event_id", "gap_us"]],
                                  w[["event_id", "gap_us"]],
                                  check_dtype=False)

@S
@given(rows=st.lists(row, min_size=1, max_size=25))
def fuzz_paths(rows):
    tbl = build(rows)
    got = event_paths(rd.from_arrow(tbl)).to_pandas()
    con = duckdb.connect(); con.register("events", tbl)
    want = con.execute(
        "SELECT user_id, string_agg(event_type, '>' ORDER BY ts, event_id) "
        "AS path FROM events GROUP BY user_id").df()
    g = got.fillna({"user_id": "(null)"}).sort_values("user_id").reset_index(drop=True)
    w = want.fillna({"user_id": "(null)"}).sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)

# r5 (ADVICE #1 class): int64 keys AT the float64 precision cliff (2^53,
# 2^53±1) mixed with nulls — numpy-side adjacency would merge them; the
# Arrow-side boundary must not
BIGK = 9007199254740992          # 2^53
int_row = st.tuples(
    st.one_of(st.none(), st.sampled_from([1, 2, BIGK - 1, BIGK, BIGK + 1])),
    st.one_of(st.none(), st.integers(0, 4_000)),
    st.one_of(st.none(), st.sampled_from(["a", "b"])))


def build_int(rows):
    n = len(rows)
    return pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "event_id": pa.array(np.arange(1, n + 1), type=pa.int64()),
        "ts": pa.array([None if r[1] is None else r[1] * 1_000_000
                        for r in rows], type=pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], type=pa.string())})


@S
@given(rows=st.lists(int_row, min_size=1, max_size=25))
def fuzz_gaps_bigint_keys(rows):
    tbl = build_int(rows)
    got = prev_event_gap(rd.from_arrow(tbl)).to_pandas()
    con = duckdb.connect(); con.register("events", tbl)
    want = con.execute(
        "SELECT event_id, CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS DOUBLE) AS gap_us "
        "FROM events").df()
    g = got.sort_values("event_id").reset_index(drop=True)
    w = want.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g[["event_id", "gap_us"]],
                                  w[["event_id", "gap_us"]],
                                  check_dtype=False)


if __name__ == "__main__":
    fuzz_sessions(); print("fuzz_sessions OK")
    fuzz_gaps(); print("fuzz_gaps OK")
    fuzz_paths(); print("fuzz_paths OK")
    fuzz_gaps_bigint_keys(); print("fuzz_gaps_bigint_keys OK")
    ray.shutdown()
