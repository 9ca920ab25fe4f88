"""Round-5 regression tests: the three r4 ADVICE findings plus the
round-5 VERDICT tasks (missing_file_ok, grouped-partial top-k,
spill-pressure smoke) as they land. The IVF kNN join tests live in
tests/test_similarity.py and its spec clause test in
tests/test_pipeline.py; the missing_file_ok translate_dataset test
lives in tests/test_translate_stage.py; the window-segment null-key tests
live in tests/test_null_keys.py."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# --------------------------------------------------------------------------
# VERDICT r4 #3: missing_file_ok — opt-in ENOENT parity with
# dictionary/file.rb:54-58 (register with an empty dict, refresh later)
# --------------------------------------------------------------------------

def test_missing_file_ok(tmp_path):
    from logstash_filter_translate_ray.config import TranslateConfig
    from logstash_filter_translate_ray.dictionary import (FileDictionary,
                                                          create_dictionary)
    from logstash_filter_translate_ray.errors import DictionaryFileError
    from logstash_filter_translate_ray.kernel import translate_table

    missing = tmp_path / "nope.csv"
    # default: first load of a missing file fails LOUDLY (S13 deviation)
    with pytest.raises(DictionaryFileError, match="when loading dictionary"):
        FileDictionary(str(missing), refresh_interval=-1)

    # opt-in: registers with an EMPTY dictionary (reference rescue path)
    d = FileDictionary(str(missing), refresh_interval=-1,
                       missing_file_ok=True)
    assert d.snapshot.map == {} and d.version == 1
    # a reload while the file is still missing keeps the empty dict
    assert d.reload(force=True) is False and d.version == 1

    # translate through the empty dict: nothing matches, fallback applies
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary_path=str(missing), refresh_interval=-1,
                          fallback="none", missing_file_ok=True)
    backend = create_dictionary(cfg)
    tbl = pa.table({"status": ["a", "b"]})
    out = translate_table(tbl, cfg, backend.snapshot)
    assert out["translation"].to_pylist() == ["none", "none"]

    # the file appearing later is picked up by refresh (merge semantics)
    missing.write_text("a,1\n")
    assert d.reload(force=True) is True and d.version == 2
    assert d.snapshot.map == {"a": "1"}


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


# --------------------------------------------------------------------------
# VERDICT r4 #6: multi-node-shaped smoke — tiny object store + 1 MB blocks
# force the streaming executor through backpressure; outputs stay
# oracle-exact. Subprocess: it needs its own (small) Ray session.
# --------------------------------------------------------------------------

def test_spill_pressure_smoke():
    import json
    import subprocess
    import sys
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "spill_smoke.py"),
         "/root/testdata/sf0.001"],
        capture_output=True, text=True, timeout=600, cwd=repo)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["ok"] is True
    assert all(q["match"] for q in out["queries"].values()), out


# --------------------------------------------------------------------------
# VERDICT r4 #8: spec DSL covers the LLM-operator stages — the curation
# flagship and the kNN joins are declarative now
# --------------------------------------------------------------------------

def test_spec_curation_flagship(ray_session):
    """The whole curation flagship (quality → keep ≥0.5 → langid → keep en
    → exact dedup → tokens → select) expressed as a SPEC must equal the
    Python-API flagship query bit-for-bit."""
    import __ray_entry__ as m
    from logstash_filter_translate_ray.pipelines.spec import build_from_spec

    sf = "/root/testdata/sf0.001"
    spec = {
        "input": {"path": os.path.join(sf, "documents.parquet"),
                  "columns": ["doc_id", "text"]},
        "filters": [
            {"quality": {}},
            {"keep": {"column": "quality_score", "op": ">=", "value": 0.5}},
            {"langid": {}},
            {"keep": {"column": "lang_pred", "op": "==", "value": "en"}},
        ],
        "dedup": {"kind": "exact"},
        "post_filters": [
            {"tokens": {}},
            {"select": {"columns": ["doc_id", "quality_score", "lang_pred",
                                    "n_tokens_ws", "n_tokens_bpe"]}},
        ],
    }
    got = build_from_spec(spec).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = m.queries()["curation_pipeline"](sf).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


# --------------------------------------------------------------------------
# ADVICE r4 #3: _coerce_plain_scalar is thread-safe (thread-local
# SafeConstructor — concurrent FileDictionary loads in one process)
# --------------------------------------------------------------------------

def test_scalar_coercion_thread_safety():
    import threading
    from logstash_filter_translate_ray.dictionary import _coerce_plain_scalar

    results, errors = {}, []

    def work(i):
        try:
            results[i] = [_coerce_plain_scalar(str(j)) for j in range(2000)]
        except Exception as e:          # pragma: no cover
            errors.append(e)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(results[i] == list(range(2000)) for i in range(8))
    # typing parity retained
    assert _coerce_plain_scalar("yes") is True
    assert _coerce_plain_scalar("1e3") == "1e3"
    # YAML 1.1 floats need a SIGNED exponent — '1.5e3' stays a string
    assert _coerce_plain_scalar("1.5e+3") == 1500.0


def test_value_array_rejects_silent_arrow_coercions():
    """pa.array()'s Python→Arrow coercion is insertion-order-dependent and
    silently value-corrupting for some mixes ([0.0, False] → double
    [0.0, 0.0], while the reversed order raises) — found by the fuzz_hard
    differential. Such dictionaries must take the stringify (non-unify)
    path, and >int64 values must not crash the probe (OverflowError)."""
    from logstash_filter_translate_ray import DictSnapshot

    # value-corrupting mixes → non-unify
    assert DictSnapshot({"0": 0.0, "1": False}).value_array is None
    assert DictSnapshot({"a": [0.0], "b": [False]}).value_array is None
    assert DictSnapshot({"a": {"x": 0.0}, "b": {"x": False}}).value_array is None
    assert DictSnapshot({"a": "x", "b": b"y"}).value_array is None
    # >int64 int raised OverflowError (uncaught) pre-fix
    assert DictSnapshot({"a": 2 ** 70, "b": 1}).value_array is None
    # int promoted to float is a category drift too: {'a': 1, 'b': 2.5}
    # with a fallback would render 1 as '1.0' through the unified double
    # column — mixed numeric dicts stringify per-value instead
    assert DictSnapshot({"a": 1, "b": 2.5}).value_array is None
    assert DictSnapshot({"a": [1], "b": [2.5]}).value_array is None
    # homogeneous / value-preserving dictionaries still unify (fast path)
    assert DictSnapshot({"a": 1, "b": 2}).value_array is not None
    assert DictSnapshot({"a": 1.0, "b": 2.5}).value_array is not None
    assert DictSnapshot({"a": 1, "b": None}).value_array is not None
    assert DictSnapshot({"a": [1, 2], "b": [3]}).value_array is not None
    assert DictSnapshot({"a": True, "b": False}).value_array is not None


def test_translate_bool_float_dict_values_exact():
    """The fuzz_hard falsifying example: dict {'0': 0.0, '1': False} with
    a fallback returned '0.0' for key '1' (False coerced to 0.0 inside the
    unified value array). Both kernel and row oracle must agree on the
    stringified values."""
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
    from test_kernel import run_both

    from logstash_filter_translate_ray import TranslateConfig

    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"0": 0.0, "1": False}, fallback="fb")
    out = run_both(cfg, [{"s": "1"}, {"s": "0"}, {"s": "zz"}])
    assert [r["t"] for r in out] == ["false", "0.0", "fb"]
    # huge-int dict value: stringify path, no crash
    cfg2 = TranslateConfig(source="s", target="t",
                           dictionary={"a": 2 ** 70, "b": 1})
    out2 = run_both(cfg2, [{"s": "a"}, {"s": "b"}])
    assert [r["t"] for r in out2] == [str(2 ** 70), "1"]


def test_spec_post_filters_keep_schema_on_empty(ray_session, tmp_path):
    """A keep/select post_filter over an all-empty dataset must re-anchor
    the statically-derived schema (found by the spec fuzz: dedup +
    post_filters + distributed counts returned schema() None)."""
    import pyarrow.parquet as pq

    from logstash_filter_translate_ray.pipelines.spec import build_from_spec

    tbl = pa.table({
        "event_id": pa.array([2], type=pa.int64()),
        "user_id": pa.array([None], type=pa.int64()),
        "event_type": pa.array(["view"], type=pa.string()),
        "props": pa.array([None], type=pa.string()),
    })
    path = str(tmp_path / "events.parquet")
    pq.write_table(tbl, path)
    spec = {"input": {"path": path},
            "filters": [{"keep": {"column": "event_type", "op": "in",
                                  "value": ["click"]}}],
            "dedup": {"kind": "exact", "col": "props",
                      "id_col": "event_id"},
            "post_filters": [
                {"keep": {"column": "event_id", "op": "<", "value": 12}},
                {"select": {"columns": ["event_id", "user_id"]}},
            ]}
    ds = build_from_spec(spec)
    sch = ds.schema()
    assert sch is not None and sch.names == ["event_id", "user_id"]
    spec["aggregate"] = {"kind": "counts", "group_by": ["user_id"],
                         "driver_merge": False}
    agg = build_from_spec(spec)
    sch2 = agg.schema()
    assert sch2 is not None and sch2.names == ["user_id", "n"]


def test_translate_bytes_dict_values():
    """Bytes dictionary values (found by the widened fuzz_hard): the
    fallback-unify branch crashed on non-utf8 bytes (Arrow's binary→string
    cast rejects invalid utf-8), and ruby_to_s rendered the Python repr
    (b'...') instead of the decoded text. Canonical rule everywhere:
    utf-8 with U+FFFD replacement."""
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
    from test_kernel import run_both

    from logstash_filter_translate_ray import TranslateConfig

    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"0": b"\x00bin"}, fallback="fb")
    out = run_both(cfg, [{"s": "0"}, {"s": "x"}])
    assert [r["t"] for r in out] == ["\x00bin", "fb"]
    # invalid utf-8: no crash, replacement chars
    cfg2 = TranslateConfig(source="s", target="t",
                           dictionary={"a": b"\xff\xfe"}, fallback="fb")
    out2 = run_both(cfg2, [{"s": "a"}, {"s": "zz"}])
    assert [r["t"] for r in out2] == ["��", "fb"]
    # homogeneous bytes, no fallback: binary column preserved raw
    cfg3 = TranslateConfig(source="s", target="t",
                           dictionary={"a": b"hi"})
    assert run_both(cfg3, [{"s": "a"}])[0]["t"] == b"hi"
    # bytes+str mix: non-unify stringify path, decoded consistently
    cfg4 = TranslateConfig(source="s", target="t",
                           dictionary={"a": b"hi", "b": "yo"})
    out4 = run_both(cfg4, [{"s": "a"}, {"s": "b"}])
    assert [r["t"] for r in out4] == ["hi", "yo"]


def test_mixed_numeric_dict_renders_per_value():
    """Review finding: {'a': 1, 'b': 2.5} with a fallback rendered 1 as
    '1.0' (int promoted to double by the unified value array, then cast).
    Mixed int/float dictionaries are heterogeneous Ruby objects — they
    stringify per-value ('1', '2.5') on every path."""
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
    from test_kernel import run_both

    from logstash_filter_translate_ray import TranslateConfig

    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"a": 1, "b": 2.5}, fallback="fb")
    out = run_both(cfg, [{"s": "a"}, {"s": "b"}, {"s": "zz"}])
    assert [r["t"] for r in out] == ["1", "2.5", "fb"]
    # pure-float dicts keep Ruby float rendering
    cfg2 = TranslateConfig(source="s", target="t",
                           dictionary={"a": 1.0}, fallback="fb")
    assert run_both(cfg2, [{"s": "a"}])[0]["t"] == "1.0"


def test_merge_into_existing_binary_target():
    """Review finding: writing string values into a PRE-EXISTING binary
    target column crashed on invalid utf-8 (plain pc.cast in the merge
    unify branch) — both sides now go through _cast_to_string."""
    from logstash_filter_translate_ray import (DictSnapshot,
                                               TranslateConfig,
                                               translate_table)

    tbl = pa.table({"s": pa.array(["a", "x"]),
                    "t": pa.array([b"\xff\xfe", b"ok"], type=pa.binary())})
    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"a": "hit"}, override=True)
    out = translate_table(tbl, cfg, DictSnapshot(cfg.dictionary))
    rows = out.to_pylist()
    assert rows[0]["t"] == "hit"
    assert rows[1]["t"] == "ok"   # unwritten binary decoded, not crashed
