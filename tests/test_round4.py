"""Round-4 review fixes: sampling fraction-1.0, resize metadata NaN
guard, %{+timeformat} sprintf reject. The DictionaryService
cross-handle consistency test lives in tests/test_dictionary.py; the
knn_join, exact/LSH near-dup and IVF centroid tests live in
tests/test_similarity.py; the grouped_quantiles null/distributed guards
and the window null-key tests live in tests/test_null_keys.py; the
hot-cap skip-counter and join-operand tests live in
tests/test_functions.py; the five kernel schema / value-unify tests
live in tests/test_kernel.py; the JSON fan-out sink test lives in
tests/test_route.py. 15 tests remain here."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_hash_sample_fraction_one_keeps_nulls(ray_session):
    import ray.data as rd
    from logstash_filter_translate_ray.functions.sampling import (
        hash_sample, weighted_mix)
    tbl = pa.table({"doc_id": pa.array([1, 2, None, 4], type=pa.int64())})
    assert hash_sample(rd.from_arrow(tbl), fraction=1.0).count() == 4
    # a rate-1.0 part in weighted_mix is a true no-op
    mixed = weighted_mix([(rd.from_arrow(tbl), 1.0)])
    assert mixed.count() == 4


def test_resize_metadata_path_null_dims(ray_session):
    """Null/zero metadata dims must yield 0, never NaN→int32 garbage
    (ADVICE r3 — the guard now covers the metadata-only branch too)."""
    from logstash_filter_translate_ray.functions.multimodal import (
        ResizeStage)
    tbl = pa.table({
        "media_id": pa.array([1, 2, 3], type=pa.int64()),
        "payload": pa.array([b"x", b"y", b"z"], type=pa.binary()),
        "media_type": pa.array(["image"] * 3),
        "width": pa.array([None, 0, 100], type=pa.int32()),
        "height": pa.array([50, 0, 200], type=pa.int32()),
        "sample_rate": pa.nulls(3, pa.int32()),
    })
    out = ResizeStage(max_side=64)(tbl)
    assert out["resized_width"].to_pylist() == [0, 0, 32]
    assert out["resized_height"].to_pylist() == [0, 0, 64]


def test_sprintf_timeformat_rejected():
    """%{+...} (Logstash @timestamp Joda formatting) is rejected loudly —
    at row/column sprintf AND at config validation (VERDICT r3 #7)."""
    from logstash_filter_translate_ray.config import TranslateConfig
    from logstash_filter_translate_ray.errors import ConfigurationError
    from logstash_filter_translate_ray.sprintf import (sprintf_column,
                                                       sprintf_row)
    with pytest.raises(ConfigurationError, match="date-format"):
        sprintf_row("ts=%{+yyyy-MM-dd}", {"a": 1})
    with pytest.raises(ConfigurationError, match="date-format"):
        sprintf_column("ts=%{+yyyy-MM-dd}",
                       pa.table({"a": pa.array(["x"])}))
    with pytest.raises(ConfigurationError, match="date-format"):
        TranslateConfig(source="a", dictionary={"k": "v"},
                        fallback="no hit at %{+HH:mm}")
    # the supported subset is untouched
    assert sprintf_row("v=%{a}", {"a": 7}) == "v=7"
    assert sprintf_column("v=%{a}", pa.table({"a": pa.array(["x"])})) \
        .to_pylist() == ["v=x"]
    cfg = TranslateConfig(source="a", dictionary={"k": "v"},
                          fallback="missed %{a}")
    assert cfg.fallback == "missed %{a}"


def test_ruby_regex_m_flag_and_class_constructs():
    """Ruby inline 'm' is DOT-ALL (Onigmo), not Python MULTILINE — the
    shim must rewrite it to 's'; class intersection/nesting have no
    faithful Python form and must reject loudly; ']' first-in-class stays
    a literal for the scanner."""
    import re as _re
    from logstash_filter_translate_ray.errors import ConfigurationError
    from logstash_filter_translate_ray.regex_dialect import (
        compile_ruby_regex, ruby_regex_to_python)
    assert ruby_regex_to_python(r"(?m)a.b") == r"(?s)a.b"
    assert ruby_regex_to_python(r"(?m:a.b)c") == r"(?s:a.b)c"
    assert ruby_regex_to_python(r"(?i-m:x)") == r"(?i-s:x)"
    assert compile_ruby_regex(r"(?m)a.b").search("a\nb")   # Ruby semantics
    assert ruby_regex_to_python(r"(?i)x") == r"(?i)x"      # i untouched
    for bad in (r"[a-w&&[^c-g]]", r"[a[bc]]", r"(?u)x", r"(?s)x"):
        with pytest.raises(ConfigurationError):
            ruby_regex_to_python(bad)
    # ']' immediately after '[' or '[^' is a literal in both dialects —
    # the scanner must not close the class there ('\h' is still in-class)
    assert ruby_regex_to_python(r"[]\h]") == r"[]0-9a-fA-F]"
    assert _re.fullmatch(ruby_regex_to_python(r"[]a]"), "]")


def test_sprintf_container_rendering():
    """Arrays interpolate as ','-joined (Logstash StringInterpolation),
    hashes as compact JSON — identically on the row and column paths
    (str() gave the Python repr; the column path crashed on list cols)."""
    from logstash_filter_translate_ray.sprintf import (sprintf_column,
                                                       sprintf_row)
    ev = {"tags": ["a", None, "b"], "meta": {"k": 1}}
    assert sprintf_row("t=%{tags}", ev) == "t=a,,b"
    assert sprintf_row("m=%{meta}", ev) == 'm={"k":1}'
    tbl = pa.table({"tags": pa.array([["a", None, "b"], None]),
                    "meta": pa.array([{"k": 1}, {"k": 2}])})
    col = sprintf_column("t=%{tags}", tbl).to_pylist()
    assert col[0] == "t=a,,b"
    assert col[1] == "t=%{tags}"          # null cell → literal (absent)
    assert sprintf_column("m=%{meta}", tbl).to_pylist() == \
        ['m={"k":1}', 'm={"k":2}']
    # unresolved-only template still returns an n-length constant array
    out = sprintf_column("x=%{nope}", tbl)
    assert out.to_pylist() == ["x=%{nope}", "x=%{nope}"]


def test_yaml_limit_allowed_with_inline_dictionary():
    """translate.rb:196-207 scopes the yaml_dictionary_code_point_limit
    check inside `if @dictionary_path` — an inline dict with a stray limit
    registers fine; a CSV path with one still errors."""
    from logstash_filter_translate_ray.config import TranslateConfig
    from logstash_filter_translate_ray.errors import ConfigurationError
    cfg = TranslateConfig(source="s", dictionary={"a": "b"},
                          yaml_dictionary_code_point_limit=1000)
    assert cfg.yaml_dictionary_code_point_limit == 1000
    with pytest.raises(ConfigurationError, match="remove"):
        TranslateConfig(source="s", dictionary_path="/tmp/x.csv",
                        yaml_dictionary_code_point_limit=1000)


def test_streaming_yaml_octal_matches_one_shot():
    """YAML 1.1 leading-zero octals: one_shot (SafeLoader) reads '0755' as
    493; the streaming coercion returned float 755.0 (int(x,0) rejects
    bare leading zeros → float fallthrough). '09' is neither octal nor
    YAML-decimal → stays a STRING on both paths."""
    import yaml
    from logstash_filter_translate_ray.dictionary import (
        _coerce_plain_scalar, streaming_yaml_pairs)
    text = "a: 0755\nb: 010\nc: 09\nd: 0x1F\ne: 12\nf: -017\ng: 1.5\n"
    stream = dict(streaming_yaml_pairs(text))
    one_shot = yaml.safe_load(text)
    assert stream == one_shot
    assert stream["a"] == 493 and stream["b"] == 8
    assert stream["c"] == "09"
    assert stream["f"] == -15
    assert _coerce_plain_scalar("00") == 0


def test_run_spec_aggregate_sink_and_json_format(ray_session, tmp_path):
    """route + aggregate: the reduced frame has no route column, so the
    sink writes flat (previously write_parquet(partition_cols=['route'])
    crashed); format: json without route writes JSONL."""
    import glob
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.pipelines.spec import run_spec
    src = tmp_path / "in.parquet"
    pq.write_table(pa.table({
        "conv_id": ["c1", "c1"], "turn_idx": [0, 1],
        "role": ["user", "assistant"], "text": ["hi", "yo"],
        "tool": ["", ""],
        "ts": pa.array([1, 2], type=pa.timestamp("us"))}), str(src))
    spec = {"input": {"path": str(src)},
            "route": {"key": "role", "routes": {"user": "u"},
                      "default_route": "other"},
            "aggregate": {"group_by": ["role"]},
            "output": {"path": str(tmp_path / "agg_out")}}
    run_spec(spec)
    got = pq.read_table(str(tmp_path / "agg_out")).to_pylist()
    assert sorted(r["role"] for r in got) == ["assistant", "user"]
    spec2 = {"input": {"path": str(src)},
             "output": {"path": str(tmp_path / "json_out"),
                        "format": "json"}}
    run_spec(spec2)
    files = glob.glob(str(tmp_path / "json_out" / "*"))
    assert files and all(not f.endswith(".parquet") for f in files)


def test_malformed_field_ref_raises():
    from logstash_filter_translate_ray.errors import ConfigurationError
    from logstash_filter_translate_ray.fieldref import parse_field_ref
    assert parse_field_ref("[foo][0][baz]") == ["foo", 0, "baz"]
    assert parse_field_ref("plain") == ["plain"]
    for bad in ("[foo]bar[baz]", "[]", "[a][]"):
        with pytest.raises(ConfigurationError):
            parse_field_ref(bad)


def test_error_isolation_fallback_preserves_schema(monkeypatch):
    """The row-level fallback must emit the SAME schema as clean blocks:
    original column types survive (from_pylist re-inference broke int32 /
    timestamp[ms] / all-null string) and a chained stage doesn't duplicate
    translate_error / matched columns."""
    import logstash_filter_translate_ray.stages.translate_stage as ts
    from logstash_filter_translate_ray.config import TranslateConfig
    from logstash_filter_translate_ray.kernel import DictSnapshot

    cfg = TranslateConfig(source="s", target="t", dictionary={"x": "X"})
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({
        "s": pa.array(["x", "y"]),
        "i32": pa.array([1, 2], type=pa.int32()),
        "ts": pa.array([1, 2], type=pa.timestamp("ms")),
        "allnull": pa.array([None, None], type=pa.string()),
    })
    real = ts.translate_table
    clean = ts.safe_translate_batch(tbl, cfg, snap, "translate_matched",
                                    error_isolation=True)
    monkeypatch.setattr(ts, "translate_table",
                        lambda *a, **k: (_ for _ in ()).throw(
                            RuntimeError("boom")))
    fb = ts.safe_translate_batch(tbl, cfg, snap, "translate_matched",
                                 error_isolation=True)
    for name in ("i32", "ts", "allnull"):
        assert fb.schema.field(name).type == tbl.schema.field(name).type, name
    # chaining: feeding an error-isolated output back through the stage
    # must not grow a second translate_error / translate_matched column
    fb2 = ts.safe_translate_batch(fb, cfg, snap, "translate_matched",
                                  error_isolation=True)
    assert fb2.column_names.count(ts.ERROR_COL) == 1
    assert fb2.column_names.count("translate_matched") == 1
    monkeypatch.setattr(ts, "translate_table", real)
    clean2 = ts.safe_translate_batch(clean, cfg, snap, "translate_matched",
                                     error_isolation=True)
    assert clean2.column_names.count(ts.ERROR_COL) == 1


def test_parse_rule_validation_and_casts(ray_session):
    """Build-time rejection of un-bindable patterns, escaped-paren-safe
    group injection, cast-typed nulls for missing sources, and
    replace-not-duplicate on re-parse."""
    from logstash_filter_translate_ray.errors import ConfigurationError
    from logstash_filter_translate_ray.stages.parse import (ExtractRule,
                                                            ParseConfig,
                                                            _compile_plan,
                                                            parse_batch)
    # already-correctly-named group: fine
    plan = _compile_plan(ParseConfig(rules=(
        ExtractRule(out="num", source="s", pattern=r"(?P<num>\d+)"),)))
    out = parse_batch(pa.table({"s": ["a12"]}), plan)
    assert out["num"].to_pylist() == ["12"]
    # named to something ELSE: loud build-time error, not a worker crash
    with pytest.raises(ConfigurationError, match="no unnamed capture"):
        _compile_plan(ParseConfig(rules=(
            ExtractRule(out="num", source="s", pattern=r"(?P<other>\d+)"),)))
    # escaped paren before the real group: injection must skip the literal
    plan = _compile_plan(ParseConfig(rules=(
        ExtractRule(out="num", source="s", pattern=r"\(x\) (\d+)"),)))
    out = parse_batch(pa.table({"s": ["(x) 42"]}), plan)
    assert out["num"].to_pylist() == ["42"]
    # missing source honors cast (schema-stable across blocks)
    plan = _compile_plan(ParseConfig(rules=(
        ExtractRule(out="n", source="absent", pattern=r"(\d+)",
                    cast="int64"),)))
    out = parse_batch(pa.table({"s": ["a"]}), plan)
    assert out.schema.field("n").type == pa.int64()
    # re-parsing replaces, never duplicates
    plan = _compile_plan(ParseConfig(rules=(
        ExtractRule(out="w", source="s", pattern=r"(\w+)"),)))
    out = parse_batch(parse_batch(pa.table({"s": ["hi"]}), plan), plan)
    assert out.column_names.count("w") == 1


def test_csv_quoted_empty_vs_unquoted_null(ray_session, tmp_path):
    """Postgres-style CSV null split: unquoted empty cell → null (absent),
    quoted \"\" → the empty string (a legal, lookupable tool value)."""
    from logstash_filter_translate_ray.sources.readers import (
        read_transcripts_csv)
    p = tmp_path / "t.csv"
    p.write_text(
        "conv_id,turn_idx,role,text,tool,ts\n"
        'c1,0,user,hello,,2024-01-01T00:00:00\n'
        'c1,1,assistant,hi,"",2024-01-01T00:00:01\n')
    out = read_transcripts_csv(str(p)).to_pandas().sort_values("turn_idx")
    tools = out["tool"].tolist()
    assert pd.isna(tools[0])               # unquoted empty → null
    assert tools[1] == ""                  # quoted "" survives


def test_langid_and_winnow_null_text(ray_session):
    """null ⇔ absent: langid(null) = null (the SQL CASE is guarded the
    same way) and winnow(null) = null list, not []."""
    import ray.data as rd
    from logstash_filter_translate_ray.functions.text import (
        langid_batch, winnow_dataset, winnow_fingerprints)
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                    "text": ["the cat and the hat", None, ""]})
    out = langid_batch(tbl)
    assert out["lang_pred"].to_pylist() == ["en", None, "und"]
    fps = {}                    # arrow iteration: Ray's pandas conversion
    for b in winnow_dataset(rd.from_arrow(tbl)) \
            .iter_batches(batch_format="pyarrow"):   # trips on null lists
        fps.update(zip(b["doc_id"].to_pylist(),
                       b["fingerprints"].to_pylist()))
    assert fps[1] is not None and len(fps[1]) > 0
    assert fps[2] is None                       # null text → null list
    assert fps[3] is not None and len(fps[3]) == 0   # "" → real []
    assert winnow_fingerprints(None) is None    # scalar path parity


def test_zscore_outliers_null_key_rows_dropped_like_oracle(ray_session):
    """A null group key must behave like the oracle's inner ``JOIN st USING
    (key)``: its rows are excluded from the output (no stats row exists for
    them). Before the r4 fix the null index_in result went through a
    NaN→int64 cast — platform-UB that indexed the stats arrays with
    garbage (IndexError or a fabricated z)."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import zscore_outliers

    rng = np.random.default_rng(7)
    n = 400
    keys = np.array(["a", "b", "c", None], dtype=object)[
        rng.integers(0, 4, size=n)]
    vals = np.round(rng.normal(10, 3, size=n), 2)
    tbl = pa.table({"event_id": pa.array(np.arange(n)),
                    "event_type": pa.array(keys),
                    "value": pa.array(vals)})
    got = zscore_outliers(rd.from_arrow(tbl), key="event_type", val="value",
                          threshold=2.0).to_pandas()
    assert got["event_type"].notna().all()

    con = duckdb.connect()
    con.register("events", tbl)
    want = con.execute(
        "WITH c AS (SELECT event_id, event_type, "
        "CAST(round(value * 100) AS BIGINT) AS cents FROM events), "
        "s AS (SELECT event_type, COUNT(cents) AS cnt, SUM(cents) AS s1, "
        "SUM(cents * cents) AS s2 FROM c GROUP BY event_type), "
        "st AS (SELECT event_type, CAST(s1 AS DOUBLE)/cnt AS mean, "
        "sqrt(CAST(s2 AS DOUBLE)/cnt - (CAST(s1 AS DOUBLE)/cnt) * "
        "(CAST(s1 AS DOUBLE)/cnt)) AS std FROM s) "
        "SELECT c.event_id, c.event_type, "
        "(CAST(c.cents AS DOUBLE) - st.mean)/st.std AS z "
        "FROM c JOIN st USING (event_type) "
        "WHERE isfinite((CAST(c.cents AS DOUBLE) - st.mean)/st.std) "
        "AND abs((CAST(c.cents AS DOUBLE) - st.mean)/st.std) > 2.0").df()
    g = got.sort_values("event_id").reset_index(drop=True)
    w = want.sort_values("event_id").reset_index(drop=True)
    assert list(g["event_id"]) == list(w["event_id"])
    np.testing.assert_allclose(g["z"].to_numpy(), w["z"].to_numpy(),
                               rtol=1e-12)


def test_sprintf_container_null_members_absent_both_paths():
    """null ⇔ absent applies INSIDE containers too: a struct child that was
    never written materializes as a None member in to_pylist, and both
    sprintf implementations must render it as absent ({} not {"x":null},
    recursively). Found by differential fuzz (%{stru} over a struct column
    with a null child). List slots keep nils (Ruby Array#join → '')."""
    import pyarrow as pa
    from logstash_filter_translate_ray.sprintf import (sprintf_column,
                                                       sprintf_row)

    tbl = pa.table({"stru": pa.array(
        [{"x": None}, {"x": "m"}, None],
        type=pa.struct([("x", pa.string())]))})
    got = sprintf_column("v=%{stru}", tbl).to_pylist()
    assert got == ['v={}', 'v={"x":"m"}', "v=%{stru}"]
    assert sprintf_row("v=%{stru}", {"stru": {"x": None}}) == "v={}"
    # recursive: nested dict members strip too; list slots keep nil as ''
    assert sprintf_row("%{d}", {"d": {"a": {"b": None, "c": 1},
                                      "l": ["p", None, "q"]}}) \
        == '{"a":{"c":1},"l":["p",null,"q"]}'
