"""Block-composition invariance fuzz: translating a table in one piece
must equal translating random slices and concatenating — same schema
(types!), same values. This is the bug class behind several past fixes
(all-excluded fast paths, fallback unify, large_string normalization).

The same slices then run as the blocks of one Ray Dataset through
``translate_dataset`` (broadcast snapshot, worker snapshot cache); on half
of the examples its config carries the prebuilt snapshot instead of the
dict. Owns a Ray session."""
import dataclasses
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
import pyarrow as pa
import ray
import ray.data as rd
from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray import (DictSnapshot, TranslateConfig,
                                           translate_table)
from logstash_filter_translate_ray.stages.translate_stage import \
    translate_dataset

NASTY = "ab01 é日%{}"
cell = st.one_of(st.none(), st.text(alphabet=NASTY, max_size=8))
vals = st.one_of(st.none(), st.text(alphabet=NASTY, max_size=8),
                 st.integers(-99, 99), st.booleans(),
                 # classes pa.array() silently coerces or chokes on — the
                 # unify decision is dict-level so the OUTPUT type must
                 # stay block-composition-invariant for these too
                 st.sampled_from([0.0, 2.5, 2**70, 2**53 + 1,
                                  b"\x00b", b"\xff"]),
                 st.lists(st.one_of(st.integers(-9, 9), st.booleans(),
                                    st.sampled_from([0.5, None])),
                          max_size=2))

def start_ray():
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = True   # blocks back in order

def split_points(n):
    return st.lists(st.integers(0, n), max_size=4).map(
        lambda ps: sorted(set([0] + ps + [n])))

@settings(max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much, HealthCheck.data_too_large])
@given(data=st.data(),
       d=st.dictionaries(st.text(alphabet="ab01é", min_size=1, max_size=4),
                         vals, max_size=6),
       rows=st.lists(cell, min_size=1, max_size=24),
       shape=st.sampled_from(["single", "values", "maps"]),
       strategy=st.sampled_from(["exact", "exact_regex", "regex_union"]),
       fallback=st.one_of(st.none(), st.just("fb"), st.just("%{s}-x")),
       override=st.booleans(), nilp=st.booleans(),
       nested=st.booleans())
def fuzz(data, d, rows, shape, strategy, fallback, override, nilp, nested):
    n = len(rows)
    if shape == "single":
        tbl = pa.table({"s": pa.array(rows, type=pa.string())})
        cfg = TranslateConfig(
            source="s", target="[meta][t]" if nested else "t", dictionary=d,
            fallback=fallback, override=override, nil_is_present=nilp,
            exact=strategy != "regex_union", regex=strategy == "exact_regex")
    elif shape == "values":
        lists = [None if v is None else [v, None, v + "x"] for v in rows]
        tbl = pa.table({"foo": pa.array(lists, type=pa.list_(pa.string())),
                        "s": pa.array(rows, type=pa.string())})
        cfg = TranslateConfig(
            source="foo", iterate_on="foo", target="baz", dictionary=d,
            fallback=fallback, nil_is_present=nilp,
            exact=strategy != "regex_union", regex=strategy == "exact_regex")
    else:
        maps = [None if v is None else [{"src": v}, {"src": None}]
                for v in rows]
        tbl = pa.table({"maps": pa.array(
            maps, type=pa.list_(pa.struct([("src", pa.string())]))),
            "s": pa.array(rows, type=pa.string())})
        cfg = TranslateConfig(
            source="[src]", iterate_on="maps", target="[dst]", dictionary=d,
            fallback=fallback,
            exact=strategy != "regex_union", regex=strategy == "exact_regex")
    snap = DictSnapshot(d)
    try:
        whole = translate_table(tbl, cfg, snap)
    except Exception as e:
        # if the whole-table path raises (documented columnar constraints),
        # every slice path must raise too — no silent divergence
        for lo, hi in [(0, n)]:
            pass
        return
    pts = data.draw(split_points(n))
    parts = []
    for lo, hi in zip(pts, pts[1:]):
        parts.append(translate_table(tbl.slice(lo, hi - lo), cfg, snap))
    cat = pa.concat_tables(parts)   # raises on schema drift
    assert cat.schema.equals(whole.schema), (cat.schema, whole.schema)
    assert cat.to_pylist() == whole.to_pylist()
    ray_cfg = dataclasses.replace(cfg, dictionary=snap) \
        if data.draw(st.booleans(), label="prebuilt") else cfg
    ds = rd.from_arrow([tbl.slice(lo, hi - lo)
                        for lo, hi in zip(pts, pts[1:])])
    got = pa.concat_tables(ray.get(translate_dataset(ds, ray_cfg)
                                   .to_arrow_refs()))
    assert got.schema.equals(whole.schema), (got.schema, whole.schema)
    assert got.to_pylist() == whole.to_pylist()

if __name__ == "__main__":
    start_ray()
    fuzz()
    print("fuzz_blocks OK")
    ray.shutdown()
