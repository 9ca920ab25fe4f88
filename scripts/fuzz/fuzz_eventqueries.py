"""Differential fuzz: the REAL events-table queries() entries vs their
registered oracle_sql() over adversarial events tables.

Companion to fuzz_docqueries.py: hypothesis-generated events with null /
empty / unicode / dictionary-near-miss event_types, null and duplicate
timestamps, null user_ids, tie-prone and extreme values, and props
strings that hit the parse regex in odd ways (no digits, huge digit runs,
digits split by unicode). Runs every sf_dir-parameterized query that
reads ONLY the events table. Owns a Ray session.
"""
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from hypothesis import HealthCheck, given, settings, strategies as st

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as entry_mod
from fuzz_common import compare_result

QUERIES = ["translate_exact", "translate_exact_nofallback",
           "translate_regex", "route_counts", "matched_counts",
           "parse_extract", "agg_value_by_type", "user_event_counts",
           "zscore_outliers", "quantiles", "event_paths",
           "events_pipeline", "filter_pushdown", "topk_users",
           "tumbling_counts", "window_quantiles",
           "prev_event_gap", "session_counts", "distinct_types",
           "translate_file_dict", "translate_iterate_maps"]
# full run is ~15 min; FUZZ_SLICE="i/n" checks the i-th of n query
# shards against the SAME derandomized tables, so n short runs give
# full coverage (e.g. FUZZ_SLICE=0/2 then 1/2)
_slice = os.environ.get("FUZZ_SLICE")
if _slice:
    i, n = (int(x) for x in _slice.split("/"))
    QUERIES = QUERIES[i::n]

# dictionary keys, near-misses, regex-feature strings, unicode
ETYPES = ["click", "error", "purchase", "signup", "view", "Click",
          "click ", " click", "", "sign", "si", "rr", "e", "err",
          "xrrx", "日本si", "a.b*c", "?!", "\\S+", "si\nrr"]
etype = st.one_of(st.none(), st.sampled_from(ETYPES))
# seconds → µs timestamps; clusters force shared windows/sessions
tsec = st.one_of(st.none(), st.integers(0, 4000),
                 st.sampled_from([0, 1, 1799, 1800, 1801, 3600]))
uid = st.one_of(st.none(), st.integers(0, 3))
val = st.one_of(st.none(),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                st.sampled_from([0.005, -0.005, 2.675, -0.0, 0.0,
                                 999999.995]))
props = st.one_of(st.none(), st.sampled_from(
    ["", "k=123", "no digits", "42", "007", "1 2 3", "火99火",
     "9" * 25, "-5", "3.14", "\n12\n"]))

row = st.tuples(etype, tsec, uid, val, props)


def _mk_sfdir(rows) -> str:
    d = tempfile.mkdtemp(prefix="fuzz_evq_")
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
    pq.write_table(tbl, os.path.join(d, "events.parquet"))
    return d


def _compare(sf_dir: str, names) -> None:
    qs, sqls = entry_mod.queries(), entry_mod.oracle_sql()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{os.path.join(sf_dir, 'events.parquet')}')")
    for name in names:
        got = qs[name](sf_dir)
        want = con.execute(sqls[name]).df()
        compare_result(name, got, want)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(row, min_size=1, max_size=24))
def fuzz_event_queries(rows):
    d = _mk_sfdir(rows)
    try:
        _compare(d, QUERIES)
    finally:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    fuzz_event_queries(); print("fuzz_event_queries OK")
    ray.shutdown()
