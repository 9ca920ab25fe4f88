"""Differential fuzz: the declarative spec DSL (the Logstash-migration
surface, pipelines/spec.py) vs DuckDB, over random step chains on
adversarial events tables.

Chains draw from translate / extract / keep / sample filters plus an
optional route clause and an optional terminal counts aggregate (both
merge paths). Because every filter is conjunctive and every enrich step
adds a row-wise derived column, the SQL mirror composes as one SELECT
with derived expressions and an AND of the keep/sample predicates —
regardless of the chain order the spec executes them in. Owns a Ray
session.
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
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from hypothesis import HealthCheck, given, settings, strategies as st

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from fuzz_common import compare_result
from logstash_filter_translate_ray.pipelines.spec import build_from_spec

LABELS = {"click": "Click", "error": "Err", "purchase": "Buy"}
ROUTES = {"click": "hot", "error": "alerts"}

ETYPES = ["click", "error", "purchase", "view", "", "Click", "日本", None]
PROPS = ["k=12", "", "no digits", "9" * 25, None, "7 8"]

etype = st.sampled_from(ETYPES)
props = st.sampled_from(PROPS)
val = st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 2.0, 99.5]))
uid = st.one_of(st.none(), st.integers(0, 2))
row = st.tuples(etype, props, val, uid)

_label_case = ("CASE WHEN event_type IS NULL THEN NULL "
               + " ".join(f"WHEN event_type = '{k}' THEN '{v}'"
                          for k, v in LABELS.items())
               + " ELSE 'unknown' END")
_route_case = ("CASE WHEN event_type IS NULL THEN NULL "
               + " ".join(f"WHEN event_type = '{k}' THEN '{v}'"
                          for k, v in ROUTES.items())
               + " ELSE 'ops' END")
_kval = ("TRY_CAST(nullif(regexp_extract(props, '(\\d+)', 1), '') "
         "AS BIGINT)")

# (spec filter block, adds-column | None, SQL expr | None, predicate | None)
STEPS = {
    "translate": ({"translate": {"source": "event_type", "target": "label",
                                 "dictionary": dict(LABELS),
                                 "fallback": "unknown", "override": True}},
                  ("label", _label_case), None),
    "extract": ({"extract": {"out": "k_value", "source": "props",
                             "pattern": r"(\d+)", "cast": "int64"}},
                ("k_value", _kval), None),
    "keep_type": ({"keep": {"column": "event_type", "op": "in",
                            "value": ["click", "error", ""]}},
                  None, "COALESCE(event_type IN ('click','error',''), FALSE)"),
    "keep_val": ({"keep": {"column": "value", "op": ">=", "value": 0.0}},
                 None, "COALESCE(value >= 0.0, FALSE)"),
    "keep_id": ({"keep": {"column": "event_id", "op": "<", "value": 9}},
                None, "COALESCE(event_id < 9, FALSE)"),
    "sample": ({"sample": {"col": "event_id", "fraction": 0.5}},
               None,
               "md5_number_lower(CAST(event_id AS VARCHAR)) % 10000 < 5000"),
    "grok": ({"grok": {"source": "props",
                       "pattern": r"k=(?P<kv>\d+)",
                       "casts": {"kv": "int64"}}},
             ("kv", "TRY_CAST(nullif(regexp_extract(props, 'k=(\\d+)', 1),"
                    " '') AS BIGINT)"), None),
}

step_names = st.lists(st.sampled_from(sorted(STEPS)), max_size=4,
                      unique=True)
agg_choice = st.sampled_from([None, ("event_type", True),
                              ("event_type", False), ("user_id", False),
                              ("label", True), ("route", True),
                              "quantiles"])


def _mk_path(rows) -> str:
    d = tempfile.mkdtemp(prefix="fuzz_spec_")
    n = len(rows)
    tbl = pa.table({
        "event_id": pa.array(np.arange(1, n + 1), type=pa.int64()),
        "user_id": pa.array([r[3] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "value": pa.array([r[2] for r in rows], type=pa.float64()),
        "props": pa.array([r[1] for r in rows], type=pa.string()),
    })
    path = os.path.join(d, "events.parquet")
    pq.write_table(tbl, path)
    return path


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(row, min_size=1, max_size=16),
       names=step_names, use_route=st.booleans(), agg=agg_choice,
       use_post=st.booleans())
def fuzz_spec(rows, names, use_route, agg, use_post):
    if isinstance(agg, tuple) and agg[0] == "label" \
            and "translate" not in names:
        names = names + ["translate"]
    path = _mk_path(rows)
    spec = {"input": {"path": path},
            "filters": [STEPS[n][0] for n in names]}
    cols = ["event_id", "user_id", "event_type", "value", "props"]
    derived = [f"{sql} AS {col}" for n in names
               if STEPS[n][1] for col, sql in [STEPS[n][1]]]
    derived_names = [col for n in names
                     if STEPS[n][1] for col, _ in [STEPS[n][1]]]
    preds = [STEPS[n][2] for n in names if STEPS[n][2]]
    if use_route or (isinstance(agg, tuple) and agg[0] == "route"):
        spec["route"] = {"routes": dict(ROUTES), "key": "event_type",
                         "default": "ops"}
        derived.append(f"{_route_case} AS route")
        derived_names.append("route")
    sel = ", ".join(cols + derived)
    where = (" WHERE " + " AND ".join(preds)) if preds else ""
    sql = f"SELECT {sel} FROM read_parquet('{path}'){where}"
    if use_post:
        # r5 clauses: exact dedup (min-id per distinct props) then
        # post_filters = keep + select (drop the dedup content column) —
        # mirrored as a window QUALIFY + outer projection
        spec["dedup"] = {"kind": "exact", "col": "props",
                         "id_col": "event_id"}
        keep_cols = [c for c in cols + derived_names if c != "props"]
        spec["post_filters"] = [
            {"keep": {"column": "event_id", "op": "<", "value": 12}},
            {"select": {"columns": keep_cols}},
        ]
        sql = (f"SELECT {', '.join(keep_cols)} FROM ("
               f"SELECT *, MIN(event_id) OVER (PARTITION BY props) AS _m "
               f"FROM ({sql})) WHERE event_id = _m AND event_id < 12")
    if agg == "quantiles":
        spec["aggregate"] = {"kind": "quantiles", "key": "event_type",
                             "val": "value", "qs": [0.5, 0.95]}
        sql = ("WITH c AS (SELECT event_type, CAST(round(value * 100) AS "
               f"BIGINT) AS cents FROM ({sql})) "
               "SELECT event_type, quantile_disc(cents, 0.5) AS p50, "
               "quantile_disc(cents, 0.95) AS p95 FROM c GROUP BY 1")
    elif agg:
        key, driver_merge = agg
        spec["aggregate"] = {"kind": "counts", "group_by": [key],
                             "driver_merge": driver_merge}
        # string keys ride grouped_counts' '(null)' sentinel on BOTH
        # merge paths; int keys keep real nulls
        kexpr = key if key == "user_id" else f"COALESCE({key}, '(null)')"
        sql = (f"SELECT {kexpr} AS {key}, COUNT(*) AS n FROM ({sql}) "
               "GROUP BY 1")
    try:
        got = build_from_spec(spec)
        want = duckdb.connect().execute(sql).df()
        compare_result("spec", got, want)
    finally:
        shutil.rmtree(os.path.dirname(path), ignore_errors=True)


def _route_rows(out_dir) -> dict:
    """{route directory: its rows sorted by event_id} of a routed sink."""
    import pyarrow.dataset as pads

    return {d: pads.dataset(os.path.join(out_dir, d), format="parquet")
            .to_table().sort_by("event_id").combine_chunks()
            for d in sorted(os.listdir(out_dir))}


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(files=st.lists(st.lists(row, max_size=10), min_size=1, max_size=5),
       names=step_names)
def fuzz_spec_routed_sink(files, names):
    """``run_spec``'s routed parquet sink, which writes a parquet-input
    spec on the file runner (one task per input file), vs the block path
    over the same spec's ``materialize()``: the same ``route=``
    directories (a null event_type routes to hive's null directory) with
    the same rows, over file sets with 0-row files."""
    from logstash_filter_translate_ray.pipelines.spec import run_spec
    from logstash_filter_translate_ray.rayutil import file_chain
    from logstash_filter_translate_ray.stages.route import write_routed

    path = _mk_path([r for rows in files for r in rows])
    d = os.path.dirname(path)
    tbl = pq.read_table(path)
    os.remove(path)
    src = os.path.join(d, "in")
    os.makedirs(src)
    start = 0
    for i, rows in enumerate(files):
        pq.write_table(tbl.slice(start, len(rows)),
                       os.path.join(src, f"f{i}.parquet"))
        start += len(rows)
    spec = {"input": {"path": src},
            "filters": [STEPS[n][0] for n in names],
            "route": {"routes": dict(ROUTES), "key": "event_type",
                      "default": "ops"}}
    try:
        assert file_chain(build_from_spec(spec)) is not None
        run_spec({**spec, "output": {"path": os.path.join(d, "runner")}})
        write_routed(build_from_spec(spec).materialize(),
                     os.path.join(d, "blocks"))
        runner = os.path.join(d, "runner")
        blocks = os.path.join(d, "blocks")
        want = _route_rows(blocks) if os.path.isdir(blocks) else {}
        got = _route_rows(runner)
        assert list(got) == list(want), (list(got), list(want))
        for route, rows in want.items():
            assert got[route].equals(rows), route
    finally:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    fuzz_spec(); print("fuzz_spec OK")
    fuzz_spec_routed_sink(); print("fuzz_spec_routed_sink OK")
    ray.shutdown()
