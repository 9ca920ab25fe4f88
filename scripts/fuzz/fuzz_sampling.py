"""Differential fuzz: md5 bucket sampling vs DuckDB.

Pins the load-bearing parity claim in functions/sampling.py: for every id
representable in our tables (utf-8 strings incl. unicode/empty, int64,
nulls), ``md5_lower64(str(v).encode()) % buckets`` equals DuckDB's
``md5_number_lower(CAST(id AS VARCHAR)) % buckets``, and the derived
hash_sample filter / split_column assignment match the SQL mirrors row for
row. Pure-kernel (no Ray): exercises md5_bucket_array + the cut/searchsorted
logic directly.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
import duckdb
import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray.functions.sampling import md5_bucket_array

# DuckDB VARCHAR cannot hold NUL or lone surrogates.
sid = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00",
                           exclude_categories=("Cs",)),
    max_size=16)
iid = st.integers(min_value=-2**63, max_value=2**63 - 1)


def _sql_buckets(tbl: pa.Table, buckets: int) -> np.ndarray:
    con = duckdb.connect()
    con.register("t", tbl)
    df = con.execute(
        f"SELECT CASE WHEN id IS NULL THEN {buckets} ELSE "
        f"CAST(md5_number_lower(CAST(id AS VARCHAR)) % {buckets} AS BIGINT) "
        "END AS b FROM t").df()
    return df["b"].to_numpy(dtype=np.int64)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ids=st.lists(st.one_of(st.none(), sid), min_size=1, max_size=30),
       buckets=st.sampled_from([2, 7, 100, 10_000]))
def fuzz_bucket_str(ids, buckets):
    tbl = pa.table({"id": pa.array(ids, type=pa.string())})
    got = md5_bucket_array(tbl["id"], buckets)
    want = _sql_buckets(tbl, buckets)
    assert (got == want).all(), (ids, got, want)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ids=st.lists(st.one_of(st.none(), iid), min_size=1, max_size=30),
       buckets=st.sampled_from([2, 7, 100, 10_000]))
def fuzz_bucket_int(ids, buckets):
    tbl = pa.table({"id": pa.array(ids, type=pa.int64())})
    got = md5_bucket_array(tbl["id"], buckets)
    want = _sql_buckets(tbl, buckets)
    assert (got == want).all(), (ids, got, want)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ids=st.lists(st.one_of(st.none(), sid), min_size=1, max_size=30),
       fr=st.sampled_from([0.0, 0.1, 0.333, 0.5, 0.999]))
def fuzz_sample_filter(ids, fr):
    """hash_sample's `bucket < cut` filter == the SQL WHERE mirror."""
    buckets = 10_000
    tbl = pa.table({"id": pa.array(ids, type=pa.string())})
    cut = int(round(fr * buckets))
    got = tbl.filter(pa.array(md5_bucket_array(tbl["id"], buckets) < cut))
    con = duckdb.connect()
    con.register("t", tbl)
    want = con.execute(
        f"SELECT id FROM t WHERE md5_number_lower(CAST(id AS VARCHAR)) "
        f"% {buckets} < {cut}").arrow()
    assert got["id"].to_pylist() == want["id"].to_pylist()


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ids=st.lists(st.one_of(st.none(), sid), min_size=1, max_size=30))
def fuzz_split_assign(ids):
    """split_column's cumulative-cut searchsorted == a SQL CASE ladder
    (nulls land in the LAST split)."""
    buckets = 10_000
    fractions, names = (0.8, 0.1, 0.1), ("train", "val", "test")
    cuts = np.cumsum(np.round(np.array(fractions) * buckets)).astype(np.int64)
    cuts[-1] = buckets + 1
    tbl = pa.table({"id": pa.array(ids, type=pa.string())})
    b = md5_bucket_array(tbl["id"], buckets)
    got = np.array(names, dtype=object)[np.searchsorted(cuts, b, side="right")]
    con = duckdb.connect()
    con.register("t", tbl)
    want = con.execute(
        "SELECT CASE WHEN id IS NULL THEN 'test' "
        f"WHEN md5_number_lower(CAST(id AS VARCHAR)) % {buckets} < 8000 "
        "THEN 'train' "
        f"WHEN md5_number_lower(CAST(id AS VARCHAR)) % {buckets} < 9000 "
        "THEN 'val' ELSE 'test' END AS s FROM t").df()["s"].to_numpy()
    assert (got == want).all(), (ids, list(got), list(want))


if __name__ == "__main__":
    fuzz_bucket_str(); print("fuzz_bucket_str OK")
    fuzz_bucket_int(); print("fuzz_bucket_int OK")
    fuzz_sample_filter(); print("fuzz_sample_filter OK")
    fuzz_split_assign(); print("fuzz_split_assign OK")
