"""Differential fuzz: sprintf_column (vectorized) vs sprintf_row (oracle)
over tables with int/float/string/bool/timestamp/list/struct columns,
nested refs, unresolved refs, unicode literals."""
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
import datetime
import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray.sprintf import sprintf_column, sprintf_row

LIT = st.text(alphabet="ab 日é%{}!.", max_size=6).filter(
    lambda s: "%{" not in s)
REFS = ["s", "i", "f", "b", "lst", "stru", "[stru][x]", "missing", "ts"]
seg = st.one_of(LIT, st.sampled_from(["%{" + r + "}" for r in REFS]))
template = st.lists(seg, min_size=0, max_size=5).map("".join)

s_cell = st.one_of(st.none(), st.text(alphabet="xyé日 ", max_size=8))
i_cell = st.one_of(st.none(), st.integers(-10**6, 10**6))
f_cell = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32),
                   st.just(2.0), st.just(-0.0))
b_cell = st.one_of(st.none(), st.booleans())
lst_cell = st.one_of(st.none(), st.lists(st.one_of(st.none(), st.text(alphabet="pq", max_size=3)), max_size=3))
stru_cell = st.one_of(st.none(), st.fixed_dictionaries(
    {"x": st.one_of(st.none(), st.text(alphabet="mn", max_size=3))}))
ts_cell = st.one_of(st.none(), st.integers(0, 2_000_000_000).map(
    lambda s: datetime.datetime(2024, 1, 1) + datetime.timedelta(seconds=s)))

@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(tpl=template,
       rows=st.lists(st.tuples(s_cell, i_cell, f_cell, b_cell, lst_cell,
                               stru_cell, ts_cell),
                     min_size=1, max_size=12))
def fuzz(tpl, rows):
    cols = list(zip(*rows))
    tbl = pa.table({
        "s": pa.array(cols[0], type=pa.string()),
        "i": pa.array(cols[1], type=pa.int64()),
        "f": pa.array(cols[2], type=pa.float64()),
        "b": pa.array(cols[3], type=pa.bool_()),
        "lst": pa.array(cols[4], type=pa.list_(pa.string())),
        "stru": pa.array(cols[5], type=pa.struct([("x", pa.string())])),
        "ts": pa.array(cols[6], type=pa.timestamp("us")),
    })
    got = sprintf_column(tpl, tbl).to_pylist()
    events = tbl.to_pylist()
    # columnar convention: null cell == absent field (row oracle side)
    for ev in events:
        for k in list(ev):
            if ev[k] is None:
                del ev[k]
        if "stru" in ev and ev["stru"].get("x") is None:
            ev["stru"].pop("x")
    want = [sprintf_row(tpl, ev) for ev in events]
    assert got == want, (tpl, got, want, events)

if __name__ == "__main__":
    fuzz()
    print("fuzz_sprintf OK (400 examples)")
