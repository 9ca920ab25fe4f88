"""Differential fuzz: grouped_quantiles (driver merge and distributed
fallback) vs DuckDB on adversarial values (negative, .005 ties, nulls,
null keys)."""
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

from logstash_filter_translate_ray.stages.aggregate import grouped_quantiles

val = st.one_of(st.none(),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.sampled_from([0.005, -0.005, 1.115, 2.675, -2.675, 0.0,
                                 -0.0, 99.995]))
row = st.tuples(st.one_of(st.none(), st.sampled_from(["a", "b"])), val)

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(rows=st.lists(row, min_size=1, max_size=30))
def fuzz_q(rows):
    tbl = pa.table({"event_type": pa.array([r[0] for r in rows],
                                           type=pa.string()),
                    "value": pa.array([r[1] for r in rows],
                                      type=pa.float64())})
    con = duckdb.connect(); con.register("events", tbl)
    want = con.execute(
        "SELECT event_type, "
        "quantile_disc(CAST(round(value*100) AS BIGINT), 0.5) AS p50, "
        "quantile_disc(CAST(round(value*100) AS BIGINT), 0.95) AS p95 "
        "FROM events GROUP BY event_type").df()
    w = want.fillna({"event_type": "(nul)"}).sort_values("event_type").reset_index(drop=True)
    # both merge paths: the driver frame and the distributed fallback
    for kw in ({}, {"driver_partial_rows_max": 0}):
        got = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5, 0.95), **kw)
        if not isinstance(got, pd.DataFrame):
            got = got.to_pandas()
        got = got.reset_index(drop=True)
        g = got.fillna({"event_type": "(nul)"}).sort_values("event_type").reset_index(drop=True)
        pd.testing.assert_frame_equal(g[["event_type", "p50", "p95"]],
                                      w[["event_type", "p50", "p95"]],
                                      check_dtype=False)

if __name__ == "__main__":
    fuzz_q(); print("fuzz_quantiles OK")
    ray.shutdown()
