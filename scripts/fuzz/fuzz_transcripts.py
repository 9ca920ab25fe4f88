"""Differential fuzz: the FLAGSHIP transcripts DAG (parse → enrich →
route → per-sink counts) vs a DuckDB reconstruction, over adversarial
transcript tables — null / unicode / case-shifted roles, tool strings
probing the ``^\\s*([a-z_]+)`` extraction (leading blanks, uppercase,
digits, unicode letters, embedded newlines), texts hitting the
redaction/word/status enrich stages, and null ts/conv ids. Each table also
runs through ``run_resumable``: its summed manifest ``route_counts`` and
``matched_counts`` must equal the same mirror (a null route is the hive
default partition label there).

The SQL mirror is the same one test_entry.py validates against the real
synthetic transcripts; the fuzz stresses its edges. Owns a Ray session.
FUZZ_SLICE is not needed — one comparison per example.
"""
import os
import shutil
import sys
import tempfile

sys.path.insert(0, "/root/repo")
sys.path.insert(0, "/root/repo/scripts/fuzz")
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

from fuzz_common import compare_result
from logstash_filter_translate_ray.pipelines.transcripts import (
    ROLE_ROUTES, TOOL_DICT, run_pipeline, run_resumable)
from logstash_filter_translate_ray.stages.route import NULL_ROUTE_DIR

ROLES = ["user", "assistant", "system", "tool", "User", "tool ", "",
         "日本", "assistant\n", None]
TOOLS = [None, "", "search", "code", "calc", "browser", "search(q=1)",
         "  code", "\tcalc", "CODE", "calc_", "web search", "_x", "x_y",
         "search\ncode", "123", "çode", "tool:", " ", "a" * 40]
TEXTS = [None, "", "merci error 200", "ok retry", "the 404 page",
         "status is 503", "200", "éàç merci", "error" * 10, "\n\n",
         "no status here", "2xx 3.. ^5"]
TS = [None, 0, 1_700_000_000_000_000]

role = st.sampled_from(ROLES)
tool = st.sampled_from(TOOLS)
text = st.sampled_from(TEXTS)
tsv = st.sampled_from(TS)
row = st.tuples(role, tool, text, tsv)


def _mk_path(rows) -> str:
    d = tempfile.mkdtemp(prefix="fuzz_tr_")
    n = len(rows)
    tbl = pa.table({
        "conv_id": pa.array([f"conv-{i % 3:08d}" if i % 5 else None
                             for i in range(n)], type=pa.string()),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
        "role": pa.array([r[0] for r in rows], type=pa.string()),
        "text": pa.array([r[2] for r in rows], type=pa.string()),
        "tool": pa.array([r[1] for r in rows], type=pa.string()),
        "ts": pa.array([r[3] for r in rows], type=pa.timestamp("us")),
    })
    path = os.path.join(d, "transcripts.parquet")
    pq.write_table(tbl, path)
    return path


def _mirror_sql(path: str) -> str:
    route_case = " ".join(f"WHEN role = '{k}' THEN '{v}'"
                          for k, v in ROLE_ROUTES.items())
    tool_case = " ".join(f"WHEN tn = '{k}' THEN '{v}'"
                         for k, v in TOOL_DICT.items())
    return (
        f"WITH t AS (SELECT role, tool FROM read_parquet('{path}')), "
        "e AS (SELECT "
        f"CASE WHEN role IS NULL THEN NULL {route_case} ELSE 'other' END "
        "AS route, "
        "CASE WHEN tool IS NULL OR NOT regexp_matches(tool, "
        "'^\\s*[a-z_]+') THEN NULL ELSE regexp_extract(tool, "
        "'^\\s*([a-z_]+)', 1) END AS tn FROM t) "
        "SELECT COALESCE(route, '(null)') AS route, "
        f"COALESCE(CASE WHEN tn IS NULL THEN NULL {tool_case} "
        "ELSE 'no tool' END, '(null)') AS tool_label, COUNT(*) AS n "
        "FROM e GROUP BY 1, 2")


def _matched_sql(path: str) -> str:
    """status_matched bookkeeping (S15): status parses from text with
    \\b([1-5][0-9]{2})\\b (RE2 on both engines), matched = a STATUS_REGEX
    dict key matched — the fallback does not count, a null status never
    matched."""
    return (
        f"WITH t AS (SELECT text FROM read_parquet('{path}')), "
        "s AS (SELECT nullif(regexp_extract(text, "
        "'\\b([1-5][0-9]{2})\\b', 1), '') AS status FROM t) "
        "SELECT COALESCE(status IS NOT NULL AND ("
        "regexp_matches(status, '^2[0-9][0-9]$') OR "
        "regexp_matches(status, '^3..') OR "
        "regexp_matches(status, '^4..') OR "
        "regexp_matches(status, '^5..')), FALSE) AS status_matched, "
        "COUNT(*) AS n FROM s GROUP BY 1")


def _convs_sql(path: str) -> str:
    # string group key → grouped_counts' '(null)' sentinel
    return (f"SELECT COALESCE(conv_id, '(null)') AS conv_id, "
            f"COUNT(*) AS turns FROM read_parquet('{path}') GROUP BY 1")


def _check_resumable(path: str, con) -> None:
    res = run_resumable(path, os.path.join(os.path.dirname(path), "ckpt"))
    routes: dict = {}
    for route, n in con.execute(
            f"SELECT route, sum(n) FROM ({_mirror_sql(path)}) "
            "GROUP BY 1").fetchall():
        routes[NULL_ROUTE_DIR if route == "(null)" else route] = int(n)
    matched = {str(m): int(n) for m, n in
               con.execute(_matched_sql(path)).fetchall()}
    assert res["route_counts"] == routes, (res["route_counts"], routes)
    assert res["matched_counts"] == matched, (res["matched_counts"], matched)
    assert res["rows_out"] == sum(routes.values()), res


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(row, min_size=1, max_size=24))
def fuzz_transcripts(rows):
    path = _mk_path(rows)
    try:
        res = run_pipeline(path)
        con = duckdb.connect()
        compare_result("sink_counts", res["sink_counts"],
                       con.execute(_mirror_sql(path)).df())
        compare_result("status_matched_counts",
                       res["status_matched_counts"],
                       con.execute(_matched_sql(path)).df())
        compare_result("conv_turn_counts", res["conv_turn_counts"],
                       con.execute(_convs_sql(path)).df())
        _check_resumable(path, con)
    finally:
        shutil.rmtree(os.path.dirname(path), ignore_errors=True)


if __name__ == "__main__":
    fuzz_transcripts(); print("fuzz_transcripts OK")
    ray.shutdown()
