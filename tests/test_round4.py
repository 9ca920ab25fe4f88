"""Round-4 review fixes: hot-cap skip counters, grouped_quantiles
null/distributed guards, sampling fraction-1.0, resize metadata NaN
guard, %{+timeformat} sprintf reject. The DictionaryService
cross-handle consistency test lives in tests/test_dictionary.py; the
knn_join, exact/LSH near-dup and IVF centroid tests live in
tests/test_similarity.py."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_translate_ray.functions import dedup


def test_grouped_quantiles_fallback_null_key_parity(ray_session):
    """The distributed fallback must emit the SAME null group key as the
    driver merge (a real null, not the shuffle sentinel) — output must not
    change shape with data volume."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    tbl = pa.table({
        "event_type": ["a", "a", None, None],
        "value": [1.0, 2.0, 5.0, 7.0],
    })
    driver = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5,)) \
        .sort_values("event_type", na_position="last").reset_index(drop=True)
    fb = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5,),
                           driver_partial_rows_max=0).to_pandas() \
        .sort_values("event_type", na_position="last").reset_index(drop=True)
    # normalize None vs NaN in the object key column — pandas treats the
    # mismatch as a FutureWarning today and a failure tomorrow
    for df in (driver, fb):
        df["event_type"] = df["event_type"].astype(object).where(
            df["event_type"].notna(), None)
    pd.testing.assert_frame_equal(fb[driver.columns], driver,
                                  check_dtype=False)
    assert pd.isna(fb.loc[1, "event_type"])     # not the "(null)" sentinel


def test_bucket_candidate_pairs_skip_counter(ray_session):
    """hot_cap skips are no longer silent: the counter actor receives the
    skipped bucket/row totals (VERDICT r3 #4)."""
    import ray
    import ray.data as rd
    tbl = pa.table({"doc_id": pa.array(np.arange(10, dtype=np.int64)),
                    "bucket": pa.array(np.zeros(10, dtype=np.int64))})
    ctr = dedup.make_skip_counter()
    out = dedup.bucket_candidate_pairs(rd.from_arrow(tbl), "bucket",
                                       "doc_id", hot_cap=4,
                                       skip_counter=ctr).to_pandas()
    assert len(out) == 0                     # the one bucket was hot
    totals = ray.get(ctr.totals.remote())
    assert totals["buckets"] == 1 and totals["rows"] == 10
    # and with the cap off, the pairs come back
    out2 = dedup.bucket_candidate_pairs(rd.from_arrow(tbl), "bucket",
                                        "doc_id", hot_cap=None).to_pandas()
    assert len(out2) == 45


def test_join_operand_empty_first_block(ray_session):
    """Ray 2.49's hash-join schema broadcast rides only the FIRST block of
    each operand and is silently swallowed when that block is empty —
    partitions with no rows from that side then finalize zero-column and
    pa.Table.join raises ArrowInvalid (the intermittent minhash-pipeline
    CI flake). _join_operand squashes operands to nonempty blocks; the
    raw shape must fail-or-match and the guarded one must always work."""
    import ray.data as rd
    empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                      "id_b": pa.array([], type=pa.int64())})
    pairs = pa.table({"id_a": pa.array([0, 1], type=pa.int64()),
                      "id_b": pa.array([2, 3], type=pa.int64())})
    docs = pa.table({"doc_id": pa.array(np.arange(4, dtype=np.int64)),
                     "text": pa.array(["aaa bbb ccc ddd"] * 4)})
    # pairs dataset whose FIRST block is empty — the trigger shape
    pairs_ds = rd.from_arrow([empty, pairs])
    out = dedup.verified_jaccard_pairs(pairs_ds, rd.from_arrow(docs),
                                       num_partitions=8).to_pandas()
    assert sorted(zip(out["id_a"], out["id_b"])) == [(0, 2), (1, 3)]
    assert (out["jaccard"] == 1.0).all()      # identical texts

    # empty pairs operand short-circuits to a schema'd empty result
    out2_ds = dedup.verified_jaccard_pairs(rd.from_arrow(empty),
                                           rd.from_arrow(docs))
    assert out2_ds.count() == 0
    assert out2_ds.schema().names == ["id_a", "id_b", "jaccard"]

    # _join_operand invariant: no empty blocks, ≤ num_partitions blocks
    jo = dedup._join_operand(pairs_ds, 8)
    sizes = [b.num_rows for b in jo.iter_batches(batch_format="pyarrow",
                                                 batch_size=None)]
    assert sum(sizes) == 2 and all(s > 0 for s in sizes)


def test_grouped_quantiles_null_group_kept(ray_session):
    """A null group KEY survives (quantile_disc keeps the NULL group);
    null VALUES are ignored within a group (ADVICE r3)."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    tbl = pa.table({
        "event_type": ["a", "a", None, None, "a", None],
        "value": [1.0, 2.0, 5.0, 7.0, None, None],
    })
    out = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5,))
    out = out.sort_values("event_type", na_position="last") \
        .reset_index(drop=True)
    assert len(out) == 2
    # group 'a': values {100, 200} (null value ignored) → p50 = 100
    assert out.loc[0, "event_type"] == "a" and out.loc[0, "p50"] == 100
    # null group: values {500, 700} → p50 = 500
    assert pd.isna(out.loc[1, "event_type"]) and out.loc[1, "p50"] == 500


def test_grouped_quantiles_distributed_fallback(ray_session, sf_dir):
    """Forcing the partial-row threshold to 0 routes the merge through the
    distributed groupby path; values must equal the driver merge
    (VERDICT r3 #9)."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    driver = grouped_quantiles(ds) \
        .sort_values("event_type").reset_index(drop=True)
    fb = grouped_quantiles(ds, driver_partial_rows_max=0)
    import ray.data
    assert isinstance(fb, ray.data.Dataset)
    fb = fb.to_pandas().sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(fb[driver.columns], driver,
                                  check_dtype=False)


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


def test_kernel_fast_path_schema_matches_hit_blocks():
    """An all-excluded block must come out with the SAME schema as a block
    with hits: nested targets materialize the struct child, and an
    existing differently-typed target unifies — else pa.concat_tables of
    the two blocks crashes (the r4 block-invariance finding)."""
    from logstash_filter_translate_ray import (DictSnapshot, TranslateConfig,
                                               translate_table)
    snap = DictSnapshot({"x": "X"})
    # (a) nested target
    cfg = TranslateConfig(source="s", target="[meta][cls]",
                          dictionary={"x": "X"})
    hit = translate_table(pa.table({"s": ["x"]}), cfg, snap)
    excl = translate_table(pa.table({"s": pa.array([None], pa.string())}),
                           cfg, snap)
    assert hit.schema == excl.schema
    pa.concat_tables([hit, excl])          # must not raise
    # (b) existing int64 target + string dict values
    cfg2 = TranslateConfig(source="s", target="t", dictionary={"x": "X"},
                           override=True)
    hit2 = translate_table(pa.table({"s": ["x"],
                                     "t": pa.array([7], pa.int64())}),
                           cfg2, snap)
    excl2 = translate_table(pa.table({"s": pa.array([None], pa.string()),
                                      "t": pa.array([9], pa.int64())}),
                            cfg2, snap)
    assert hit2.schema == excl2.schema
    merged = pa.concat_tables([hit2, excl2])
    assert merged["t"].to_pylist() == ["X", "9"]   # excluded value kept


def test_values_shape_null_scalar_and_nested_target():
    """CoerceOther Array(nil) == [] (row-oracle parity under
    nil_is_present) and a nested target writes the struct child, not a
    literal '[meta][labels]' column."""
    from logstash_filter_translate_ray import TranslateConfig
    from tests.test_kernel import run_both
    cfg = TranslateConfig(source="v", target="out", iterate_on="v",
                          dictionary={"a": "A"}, nil_is_present=True)
    out = run_both(cfg, [{"v": "a"}, {"v": None}, {"v": "zz"}])
    assert out[0]["out"] == ["A"]
    assert out[1]["out"] == []             # Array(nil) == [], matched False
    cfg2 = TranslateConfig(source="v", target="[meta][labels]",
                           iterate_on="v", dictionary={"a": "A"})
    out2 = run_both(cfg2, [{"v": ["a", "b"]}, {"v": ["c"]}])
    assert out2[0]["meta"]["labels"] == ["A", None]
    assert "[meta][labels]" not in out2[0]


def test_maps_shape_large_string_child_kept():
    """A large_string existing target child must unify (cast), not get
    null-wiped on unwritten elements (_cast_to_string passed large_string
    through and the type comparison fell to the nulls branch)."""
    from logstash_filter_translate_ray import (DictSnapshot, TranslateConfig,
                                               translate_table)
    elems = pa.array([[{"k": "a", "t": "keepme"}, {"k": "zz", "t": "old"}]],
                     type=pa.list_(pa.struct([("k", pa.string()),
                                              ("t", pa.large_string())])))
    tbl = pa.table({"evs": elems})
    cfg = TranslateConfig(source="k", target="t", iterate_on="evs",
                          dictionary={"a": "A"}, override=True)
    out = translate_table(tbl, cfg, DictSnapshot(cfg.dictionary))
    evs = out["evs"].to_pylist()[0]
    assert evs[0]["t"] == "A"              # written
    assert evs[1]["t"] == "old"            # KEPT, not wiped to null


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


def test_write_routed_json_null_routes_and_identical_blocks(
        ray_session, tmp_path):
    """Null-route rows must land in the hive null partition (they were
    silently written NOWHERE: pc.equal(col, None) is an all-null mask that
    filter drops) and two blocks with byte-identical payloads must yield
    two files (content-hash-only names collapsed them → row loss)."""
    import glob
    import json
    import ray.data as rd
    from logstash_filter_translate_ray.stages.route import (NULL_ROUTE_DIR,
                                                            write_routed)
    blk = pa.table({"route": pa.array(["a", None]),
                    "v": pa.array([1, 2], type=pa.int64())})
    ds = rd.from_arrow([blk, blk])        # two identical blocks
    out = str(tmp_path / "sink")
    write_routed(ds, out, file_format="json")
    rows = []
    for f in glob.glob(f"{out}/route=*/*.jsonl"):
        with open(f) as fh:
            rows += [json.loads(l) for l in fh if l.strip()]
    assert len(rows) == 4                  # nothing dropped
    null_rows = [r for r in rows if r["route"] is None]
    assert len(null_rows) == 2
    assert len(glob.glob(f"{out}/route={NULL_ROUTE_DIR}/*.jsonl")) == 2


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


def test_session_counts_null_ts_matches_sql_oracle(ray_session):
    """A null ts promotes the epoch array to float64-with-NaN; the int64
    diff buffer raised a casting TypeError. A NaN gap STARTS a session —
    the registered lag-based SQL counts `gap_us IS NULL` as a session
    start, and the earlier `NaN > gap → False` silently absorbed null-ts
    rows into the previous session (r4 fuzz find). Null-ts rows sort last
    on both sides, so the parity holds row-for-row."""
    import duckdb
    import ray.data as rd
    from logstash_filter_translate_ray.stages.window import session_counts
    ts = pa.array([1_000_000, 10_000_000_000_000, None, 500_000, None, None],
                  type=pa.timestamp("us"))
    tbl = pa.table({"user_id": ["u1", "u1", "u1", "u2", "u3", "u3"],
                    "event_id": pa.array([1, 2, 3, 4, 5, 6],
                                         type=pa.int64()),
                    "ts": ts})
    out = session_counts(rd.from_arrow(tbl), gap="30min").to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    # u1: two real events far apart + a null-ts row → 3; u3: two null-ts
    # rows → 2 (each unknown-time edge is a new session, like the SQL)
    assert out["user_id"].tolist() == ["u1", "u2", "u3"]
    assert out["n_sessions"].tolist() == [3, 1, 2]
    con = duckdb.connect()
    con.register("events", tbl)
    want = con.execute(
        "WITH g AS (SELECT user_id, epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS gap_us FROM events) "
        "SELECT user_id, CAST(SUM(CASE WHEN gap_us IS NULL OR "
        "gap_us > 1800000000 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions "
        "FROM g GROUP BY user_id ORDER BY user_id").df()
    assert out["n_sessions"].tolist() == want["n_sessions"].tolist()


def test_event_paths_null_values_skipped(ray_session):
    """Null path elements are SKIPPED like string_agg (one null event_type
    must not null the whole path); an all-null key emits a null path."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.window import event_paths
    tbl = pa.table({
        "user_id": ["a", "a", "a", "b", "b"],
        "event_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2], type=pa.timestamp("us")),
        "event_type": ["x", None, "y", None, None],
    })
    out = event_paths(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert out.loc[0, "path"] == "x>y"          # null element skipped
    assert pd.isna(out.loc[1, "path"])          # all-null key → null

    # parity with the SQL the oracle uses
    import duckdb
    want = duckdb.connect().execute(
        "SELECT user_id, string_agg(event_type, '>' ORDER BY ts, event_id)"
        " AS path FROM tbl GROUP BY user_id ORDER BY user_id").df()
    pd.testing.assert_frame_equal(out[["user_id", "path"]], want,
                                  check_dtype=False)


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


def test_heterogeneous_dict_with_fallback_unifies_to_string():
    """The block-invariant fallback-unify rule (SURVEY §8) must also hold
    when the dictionary's values DON'T unify to one Arrow type (value_array
    is None → the Python materialize path): fuzz found {'0': '', '1': 0}
    with a fallback raising ConfigurationError instead of stringifying.
    All three shapes route through _materialize_values."""
    from logstash_filter_translate_ray import TranslateConfig
    from tests.test_kernel import run_both

    het = {"0": "", "1": 0, "2": True, "3": 2.0}
    # scalar shape — the original falsifying example plus typed extras
    cfg = TranslateConfig(source="s", target="t", dictionary=het,
                          fallback="fb")
    out = run_both(cfg, [{"s": v} for v in
                         [None, "1", "0", "2", "3", "miss"]])
    assert [r.get("t") for r in out] == [None, "0", "", "true", "2.0", "fb"]

    # iterate_values shape
    cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                          dictionary=het, fallback="fb")
    out = run_both(cfg, [{"foo": ["1", "miss", "3"]}, {"foo": None}])
    assert out[0]["baz"] == ["0", "fb", "2.0"]

    # iterate_maps shape
    cfg = TranslateConfig(source="[src]", iterate_on="maps", target="[dst]",
                          dictionary=het, fallback="fb")
    out = run_both(cfg, [{"maps": [{"src": "1"}, {"src": "miss"}]}])
    assert [m["dst"] for m in out[0]["maps"]] == ["0", "fb"]

    # no fallback: heterogeneous dicts ALSO stringify (dataset-invariant —
    # the pre-r4 typed writes drifted across blocks: int64 from an all-int
    # block vs string from a mixed one, or a block-composition-dependent
    # ConfigurationError when one batch mixed)
    cfg = TranslateConfig(source="s", target="t", dictionary=het)
    out = run_both(cfg, [{"s": "1"}, {"s": "0"}, {"s": "miss"}])
    assert [r.get("t") for r in out] == ["0", "", None]


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


def test_block_invariance_regressions_r4_fuzz():
    """Deterministic repros of the r4 block-composition fuzz finds: each
    slice pair must concat with identical schema to the whole-table run."""
    import pyarrow as pa
    from logstash_filter_translate_ray import (DictSnapshot, TranslateConfig,
                                               translate_table)

    def check(tbl, cfg):
        snap = DictSnapshot(cfg.dictionary)
        whole = translate_table(tbl, cfg, snap)
        cat = pa.concat_tables(
            [translate_table(tbl.slice(i, 1), cfg, snap)
             for i in range(len(tbl))])
        assert cat.schema.equals(whole.schema), (cat.schema, whole.schema)
        assert cat.to_pylist() == whole.to_pylist()
        return whole

    # empty dict, no fallback: all-miss block typed string like the
    # all-excluded fast path (was null-typed)
    t = pa.table({"s": pa.array([None, ""], type=pa.string())})
    check(t, TranslateConfig(source="s", target="t", dictionary={}))

    # maps shape: all-excluded block must still add the dst child
    maps = pa.table({"maps": pa.array(
        [None, [{"src": "a"}]],
        type=pa.list_(pa.struct([("src", pa.string())])))})
    out = check(maps, TranslateConfig(source="[src]", iterate_on="maps",
                                      target="[dst]", dictionary={"a": "A"}))
    assert out["maps"][1][0]["dst"].as_py() == "A"

    # regex_union with a non-string-valued dict: gsub writes strings, the
    # fast path must type string too (was bool)
    t = pa.table({"s": pa.array([None, "0"], type=pa.string())})
    check(t, TranslateConfig(source="s", target="t",
                             dictionary={"0": False}, exact=False))

    # values shape, boolean dict, zero-element block: truthy &= empty
    # float64 crashed on the nil_is_present CoerceArray [] path
    t = pa.table({"foo": pa.array([None, ["0"]],
                                  type=pa.list_(pa.string()))})
    check(t, TranslateConfig(source="foo", iterate_on="foo", target="baz",
                             dictionary={"0": False}, nil_is_present=True))


def test_grouped_quantiles_all_null_value_group_kept(ray_session):
    """A group whose values are ALL null must still appear, with NULL
    quantiles — SQL GROUP BY keeps the group and quantile_disc returns
    NULL over all-NULL values; the histogram partials used to filter null
    cents and such groups vanished entirely (r4 fuzz). Both merge paths."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_quantiles)
    tbl = pa.table({"event_type": ["a", "a", "b", None],
                    "value": pa.array([1.0, 2.0, None, None],
                                      type=pa.float64())})
    for kwargs in ({}, {"driver_partial_rows_max": 0}):
        out = grouped_quantiles(rd.from_arrow(tbl), qs=(0.5,), **kwargs)
        if hasattr(out, "to_pandas"):
            out = out.to_pandas()
        out = out.fillna({"event_type": "(n)"}) \
            .sort_values("event_type").reset_index(drop=True)
        assert out["event_type"].tolist() == ["(n)", "a", "b"]
        assert pd.isna(out.loc[0, "p50"]) and pd.isna(out.loc[2, "p50"])
        # quantile_disc rule: element at ceil(0.5*2)-1 = index 0 -> 100
        assert out.loc[1, "p50"] == 100
