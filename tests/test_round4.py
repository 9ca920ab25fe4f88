"""Round-4 review fixes: %{+timeformat} sprintf reject, Ruby regex
flags, sprintf containers, YAML and CSV parsing, field refs, error
isolation, parse rules. The resize metadata NaN guard,
hash_sample fraction-1.0 and langid/winnow null-text tests live in
tests/test_functions.py; the run_spec aggregate/JSON sink test lives in
tests/test_pipeline.py; the DictionaryService
cross-handle consistency test lives in tests/test_dictionary.py; the
knn_join, exact/LSH near-dup and IVF centroid tests live in
tests/test_similarity.py; the grouped_quantiles null/distributed guards
and the window null-key tests live in tests/test_null_keys.py; the
hot-cap skip-counter and join-operand tests live in
tests/test_functions.py; the five kernel schema / value-unify tests
live in tests/test_kernel.py; the JSON fan-out sink test lives in
tests/test_route.py; the zscore null-key test lives in
tests/test_null_keys.py and the CSV null-split test in
tests/test_pipeline.py. 9 tests remain here."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


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
