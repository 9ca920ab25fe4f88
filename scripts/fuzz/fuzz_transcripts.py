"""Differential fuzz: the FLAGSHIP transcripts DAG (parse → enrich →
route → per-sink counts) vs a DuckDB reconstruction, over adversarial
transcript tables — null / unicode / case-shifted roles, tool strings
probing the ``^\\s*([a-z_]+)`` extraction (leading blanks, uppercase,
digits, unicode letters, embedded newlines), texts hitting the
redaction/word/status enrich stages, and null ts/conv ids. ``run_pipeline``
runs with and without a sink (its counts are the write tasks' partials
either way). Each table also runs through ``run_resumable``: its summed manifest ``route_counts`` and
``matched_counts`` must equal the same mirror (a null route is the hive
default partition label there). And each table is written by
``write_routed`` twice more, through the block path (parquet, a Dataset
derived from the chain) and the JSON runner (the chain itself): the rows
per ``route=`` directory of both must equal the mirror's route counts.

A second harness, ``fuzz_read_differential``, reads generated file sets
(0-row files, nested directories, and in some examples one file over
``MAX_BATCH_ROWS`` rows in several row groups) through
``read_transcripts`` (the engine's parquet source) and through
``rd.read_parquet(..., columns=TRANSCRIPT_COLUMNS, batch_size=None)``:
the schemas and the sorted rows must be equal.

A third harness, ``fuzz_writer_differential``, writes generated tables
(0 rows, one route, many routes, null routes, odd labels; string, int,
bool and float route columns) with the routed sink's block writer
(``route._write_routes``: one sort by route, ``pq.write_table`` per
route) and with Arrow's hive ``pyarrow.dataset.write_dataset``, which it
replaced: the directory names and each file's bytes must be equal. A
table in several chunks must give the same rows, in order, with the same
schema and metadata (``write_dataset`` writes a row group per chunk, the
block writer one per file). A route spelled ``__HIVE_DEFAULT_PARTITION__``
next to a null route is left out: ``write_dataset`` writes two files into
that directory, the block writer one.

The SQL mirror is the same one test_entry.py validates against the real
synthetic transcripts; the fuzz stresses its edges. Owns a Ray session.
FUZZ_SLICE is not needed — one comparison per example.
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
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
from hypothesis import HealthCheck, given, settings, strategies as st

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from fuzz_common import compare_result
from logstash_filter_translate_ray.pipelines.transcripts import (
    ROLE_ROUTES, TOOL_DICT, TRANSCRIPT_COLUMNS, build_enriched_dataset,
    read_transcripts, run_pipeline, run_resumable)
from logstash_filter_translate_ray.stages.route import (MAX_BATCH_ROWS,
                                                        NULL_ROUTE_DIR,
                                                        _write_routes,
                                                        write_routed)

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


def _table(rows, start: int = 0) -> pa.Table:
    """The transcript table of ``rows``; ``turn_idx`` counts from
    ``start``."""
    n = len(rows)
    return pa.table({
        "conv_id": pa.array([f"conv-{i % 3:08d}" if i % 5 else None
                             for i in range(n)], type=pa.string()),
        "turn_idx": pa.array(np.arange(start, start + n, dtype=np.int32)),
        "role": pa.array([r[0] for r in rows], type=pa.string()),
        "text": pa.array([r[2] for r in rows], type=pa.string()),
        "tool": pa.array([r[1] for r in rows], type=pa.string()),
        "ts": pa.array([r[3] for r in rows], type=pa.timestamp("us")),
    })


def _mk_path(rows) -> str:
    d = tempfile.mkdtemp(prefix="fuzz_tr_")
    path = os.path.join(d, "transcripts.parquet")
    pq.write_table(_table(rows), path)
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


def _route_counts(path: str, con) -> dict:
    """The mirror's rows per route label (a null route under the hive
    default partition label)."""
    return {NULL_ROUTE_DIR if route == "(null)" else route: int(n)
            for route, n in con.execute(
                f"SELECT route, sum(n) FROM ({_mirror_sql(path)}) "
                "GROUP BY 1").fetchall()}


def _sink_counts(out_dir: str) -> dict:
    """Rows per ``route=`` directory label of a routed parquet or JSON
    sink."""
    counts = {}
    for d in os.listdir(out_dir):
        n = 0
        for f in os.listdir(os.path.join(out_dir, d)):
            p = os.path.join(out_dir, d, f)
            if f.endswith(".parquet"):
                n += pq.read_metadata(p).num_rows
            else:
                with open(p) as fh:
                    n += sum(1 for line in fh if line.strip())
        counts[d.partition("=")[2]] = n
    return counts


def _check_sinks(path: str, con) -> None:
    routes = _route_counts(path, con)
    d = os.path.dirname(path)
    # materialize(): a plan write_routed runs block by block
    blocks = build_enriched_dataset(read_transcripts(path)).materialize()
    write_routed(blocks, os.path.join(d, "blocks"))
    write_routed(build_enriched_dataset(read_transcripts(path)),
                 os.path.join(d, "json"), file_format="json")
    for out in ("blocks", "json"):
        got = _sink_counts(os.path.join(d, out))
        assert got == routes, (out, got, routes)


def _check_resumable(path: str, con) -> None:
    res = run_resumable(path, os.path.join(os.path.dirname(path), "ckpt"))
    routes = _route_counts(path, con)
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
        con = duckdb.connect()
        for out_dir in (None, os.path.join(os.path.dirname(path), "sink")):
            res = run_pipeline(path, out_dir)
            compare_result("sink_counts", res["sink_counts"],
                           con.execute(_mirror_sql(path)).df())
            compare_result("status_matched_counts",
                           res["status_matched_counts"],
                           con.execute(_matched_sql(path)).df())
            compare_result("conv_turn_counts", res["conv_turn_counts"],
                           con.execute(_convs_sql(path)).df())
        _check_resumable(path, con)
        _check_sinks(path, con)
    finally:
        shutil.rmtree(os.path.dirname(path), ignore_errors=True)


def _sorted_rows(ds) -> pa.Table:
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables).sort_by("turn_idx").combine_chunks()


# (rows, subdirectory) per file; turn_idx is unique across a file set
file_spec = st.tuples(st.lists(row, max_size=12),
                      st.sampled_from(["", "nested", "nested/deeper"]))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(files=st.lists(file_spec, min_size=1, max_size=6),
       big=st.one_of(st.none(), st.tuples(st.lists(row, min_size=1,
                                                   max_size=8),
                                          st.integers(1, 70_000),
                                          st.sampled_from([9_000, 50_000]))))
def fuzz_read_differential(files, big):
    d = tempfile.mkdtemp(prefix="fuzz_read_")
    try:
        start = 0
        for i, (rows, sub) in enumerate(files):
            os.makedirs(os.path.join(d, sub), exist_ok=True)
            pq.write_table(_table(rows, start),
                           os.path.join(d, sub, f"f{i}.parquet"))
            start += len(rows)
        if big is not None:
            # one file over the read batch, in several row groups
            rows, extra, row_group = big
            n = MAX_BATCH_ROWS + extra
            pq.write_table(_table([rows[i % len(rows)] for i in range(n)],
                                  start),
                           os.path.join(d, "big.parquet"),
                           row_group_size=row_group)
            start += n
        open(os.path.join(d, "_SUCCESS"), "w").close()
        ours = read_transcripts(d)
        ref = ray.data.read_parquet(d, columns=TRANSCRIPT_COLUMNS,
                                    batch_size=None)
        assert ours.schema().base_schema.equals(ref.schema().base_schema,
                                                check_metadata=True)
        if start:
            got, want = _sorted_rows(ours), _sorted_rows(ref)
            assert got.num_rows == start, (got.num_rows, start)
            assert got.equals(want)
    finally:
        shutil.rmtree(d, ignore_errors=True)


LABELS = {"str": (st.sampled_from(["a", "b", "", "%", "/", "=", "é", "~",
                                   " ", "a b", "日本", "x" * 30, "+", "?",
                                   "a%2Fb"]), pa.string()),
          "int": (st.integers(-2**63, 2**63 - 1), pa.int64()),
          "bool": (st.booleans(), pa.bool_()),
          "float": (st.floats(allow_nan=False), pa.float64())}


def _files(out_dir: str) -> dict:
    """{route directory/file name: path} of a routed parquet sink."""
    if not os.path.isdir(out_dir):
        return {}
    return {os.path.join(d, f): os.path.join(out_dir, d, f)
            for d in os.listdir(out_dir)
            for f in os.listdir(os.path.join(out_dir, d))}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), kind=st.sampled_from(sorted(LABELS)),
       n=st.sampled_from([0, 1, 5, 40, 300]),
       distinct=st.integers(1, 12), nulls=st.booleans(),
       chunks=st.integers(1, 3))
def fuzz_writer_differential(data, kind, n, distinct, nulls, chunks):
    values, type_ = LABELS[kind]
    pool = data.draw(st.lists(values, min_size=1, max_size=distinct,
                              unique=True)) + ([None] if nulls else [])
    rows = [data.draw(st.sampled_from(pool)) for _ in range(n)]
    tbl = pa.table({
        "route": pa.array(rows, type=type_),
        "v": pa.array(range(n), type=pa.int64()),
        "text": pa.array([data.draw(text) for _ in range(n)],
                         type=pa.string())})
    bounds = sorted(data.draw(st.lists(st.integers(0, n),
                                       max_size=chunks - 1)))
    tbl = pa.concat_tables(tbl.slice(lo, hi - lo) for lo, hi
                           in zip([0, *bounds], [*bounds, n]))
    d = tempfile.mkdtemp(prefix="fuzz_writer_")
    try:
        ours, ref = os.path.join(d, "ours"), os.path.join(d, "ref")
        _write_routes(tbl, ours, "route", "parquet", "block")
        pads.write_dataset(tbl, ref, format="parquet",
                           partitioning=["route"],
                           partitioning_flavor="hive",
                           basename_template="block-{i}.parquet",
                           existing_data_behavior="overwrite_or_ignore")
        got, want = _files(ours), _files(ref)
        assert sorted(got) == sorted(want), (sorted(got), sorted(want))
        for name, path in want.items():
            if tbl["route"].num_chunks <= 1:
                with open(path, "rb") as a, open(got[name], "rb") as b:
                    assert a.read() == b.read(), name
            else:
                a, b = pq.read_table(path), pq.read_table(got[name])
                assert b.equals(a, check_metadata=True), name
    finally:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    fuzz_transcripts(); print("fuzz_transcripts OK")
    fuzz_read_differential(); print("fuzz_read_differential OK")
    fuzz_writer_differential(); print("fuzz_writer_differential OK")
    ray.shutdown()
