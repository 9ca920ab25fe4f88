"""Behavioral conformance corpus — every example of translate_spec.rb §2.5
run against BOTH the vectorized Arrow kernel (translate_table) and the
row-oriented oracle (translate_row), plus a differential property test."""

import numpy as np
import pyarrow as pa
import pytest

from logstash_filter_translate_ray import (DictSnapshot, TranslateConfig,
                                           translate_row, translate_table)


def run_both(cfg, rows, dictionary=None):
    """Run kernel + oracle on the same rows; assert they agree; return the
    kernel's output rows (list of dicts, without the matched column)."""
    snap = DictSnapshot(dictionary if dictionary is not None else cfg.dictionary)
    # oracle
    oracle_rows = []
    oracle_matched = []
    for r in rows:
        ev = {k: (list(v) if isinstance(v, list) else v) for k, v in r.items()}
        import copy
        ev = copy.deepcopy(r)
        m = translate_row(ev, cfg, snap)
        oracle_rows.append(ev)
        oracle_matched.append(m)
    # kernel — build a table with unified columns
    cols = []
    for r in rows:
        cols.extend(k for k in r if k not in cols)
    tbl = pa.table({c: pa.array([r.get(c) for r in rows]) for c in cols})
    out = translate_table(tbl, cfg, snap)
    out_rows = out.to_pylist()
    k_matched = [r.pop("translate_matched") for r in out_rows]
    assert k_matched == oracle_matched, (k_matched, oracle_matched)
    # Documented columnar deviation (SURVEY §8): non-string dict values
    # with a fallback OR a dictionary whose values don't unify to one
    # Arrow type ⇒ the kernel unifies the whole column to string
    # (block-invariant output type); the oracle writes heterogeneous Ruby
    # objects. Compare through ruby_to_s in that case.
    d = dictionary if dictionary is not None else cfg.dictionary
    unify = (cfg.fallback is not None or snap.value_array is None) and any(
        v is not None and not isinstance(v, str) for v in (d or {}).values())
    for kr, orr in zip(out_rows, oracle_rows):
        for key, val in orr.items():
            assert _agree(kr.get(key), val, unify), (key, kr, orr)
    return out_rows


def _agree(kv, val, unify):
    """Kernel value ``kv`` vs oracle value ``val``. Under ``unify`` a
    CONTAINER dict value (values that don't unify) is rendered
    Logstash-style into the string slot — the whole value in the single
    shape, each element of the values shape's list, the target child of
    the maps shape — while the oracle writes the raw Ruby object: compare
    through the same renderer the kernel uses."""
    if unify and isinstance(val, (list, dict)) and isinstance(kv, str):
        from logstash_filter_translate_ray.sprintf import _to_s
        return kv == _to_s(val)
    if isinstance(val, list) and isinstance(kv, list):
        return len(kv) == len(val) and all(
            _agree(k, v, unify) for k, v in zip(kv, val))
    if isinstance(val, dict) and isinstance(kv, dict):
        kd = {k: x for k, x in kv.items() if x is not None}
        vd = {k: x for k, x in val.items() if x is not None}
        return kd.keys() == vd.keys() and all(
            _agree(kd[k], vd[k], unify) for k in kd)
    return _norm(kv, unify) == _norm(val, unify)


def _norm(v, stringify=False):
    """Engine convention: absent ⇔ null (SURVEY §2.5 S1 note), so a struct
    child holding None compares equal to a missing dict key. With
    ``stringify``, scalar leaves compare via ruby_to_s (the fallback-unify
    deviation)."""
    if isinstance(v, list):
        return [_norm(x, stringify) for x in v]
    if isinstance(v, dict):
        return {k: _norm(x, stringify) for k, x in v.items() if x is not None}
    if stringify and v is not None and not isinstance(v, str):
        from logstash_filter_translate_ray import ruby_to_s
        return ruby_to_s(v)
    return v


HTTP_DICT = {"200": "OK", "300": "Redirect", "400": "Client Error",
             "500": "Server Error"}


def test_exact_translation_int_coercion():
    # translate_spec.rb:25-46 (S3)
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary=HTTP_DICT, exact=True, regex=False)
    out = run_both(cfg, [{"status": 200}])
    assert out[0]["translation"] == "OK"


def test_regex_keys_do_not_match_when_regex_false():
    # translate_spec.rb:49-71 (S4)
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary={"^2\\d\\d": "OK", "^3\\d\\d": "Redirect"},
                          exact=True, regex=False)
    out = run_both(cfg, [{"status": 200}])
    assert out[0].get("translation") is None


def test_multi_translation_union():
    # translate_spec.rb:73-118 (S6)
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary=HTTP_DICT, exact=False, regex=False)
    out = run_both(cfg, [{"status": "200 & 500"}, {"status": "nothing here"}])
    assert out[0]["translation"] == "OK & Server Error"
    assert out[1].get("translation") is None


def test_regex_translation():
    # translate_spec.rb:120-165 (S5)
    cfg = TranslateConfig(
        source="status", target="translation", exact=True, regex=True,
        dictionary={"^2[0-9][0-9]$": "OK", "^3[0-9][0-9]$": "Redirect",
                    "^4[0-9][0-9]$": "Client Error",
                    "^5[0-9][0-9]$": "Server Error"})
    out = run_both(cfg, [{"status": "200"}, {"status": "666"}])
    assert out[0]["translation"] == "OK"
    assert out[1].get("translation") is None


def test_regex_first_match_wins_insertion_order():
    # memory.rb:26 detect — S5 ordering
    cfg = TranslateConfig(source="s", target="t", exact=True, regex=True,
                          dictionary={"a": "first", "ab": "second"})
    out = run_both(cfg, [{"s": "ab"}])
    assert out[0]["t"] == "first"


def test_fallback_static():
    # translate_spec.rb:167-189
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary={}, fallback="no match")
    out = run_both(cfg, [{"status": "200"}])
    assert out[0]["translation"] == "no match"


def test_fallback_sprintf():
    # translate_spec.rb:191-207 (S7)
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary={}, fallback="%{missing_translation}")
    out = run_both(cfg, [{"status": "200",
                          "missing_translation": "missing no match"}])
    assert out[0]["translation"] == "missing no match"


def test_fallback_not_applied_when_source_missing():
    # S1 — missing source ⇒ no-op even with fallback
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary={}, fallback="no match")
    out = run_both(cfg, [{"other": "x", "status": None}])
    assert out[0].get("translation") is None


def test_skip_when_target_present_without_override():
    # S2 — single_value_update.rb:29
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary=HTTP_DICT)
    out = run_both(cfg, [{"status": "200", "translation": "keep me"}])
    assert out[0]["translation"] == "keep me"


def test_override_replaces_existing_target():
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary=HTTP_DICT, override=True)
    out = run_both(cfg, [{"status": "200", "translation": "old"}])
    assert out[0]["translation"] == "OK"


def test_in_place_override():
    # translate_spec.rb:451-471
    d = {"nine": "val-9-1|val-9-2"}
    cfg = TranslateConfig(field="foo", destination="foo", override=True,
                          dictionary=d, ecs_compatibility="disabled")
    out = run_both(cfg, [{"foo": "nine"}])
    assert out[0]["foo"] == "val-9-1|val-9-2"


def test_typed_values_preserved():
    # S11 — spec:236-239 (int result via yml dict)
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary={"a": 1, "b": 2, "c": 3})
    out = run_both(cfg, [{"status": "a"}])
    assert out[0]["translation"] == 1


def test_iterate_on_array_of_values():
    # translate_spec.rb:404-412 (S8)
    d = {"nine": "val-9-1|val-9-2", "eight": "val-8-1|val-8-2",
         "seven": "val-7-1|val-7-2"}
    cfg = TranslateConfig(iterate_on="foo", source="foo", target="baz",
                          fallback="nooo", dictionary=d)
    out = run_both(cfg, [{"foo": ["nine", "eight", "seven"]}])
    assert out[0]["baz"] == ["val-9-1|val-9-2", "val-8-1|val-8-2",
                            "val-7-1|val-7-2"]


def test_iterate_on_array_of_values_int_coercion():
    # translate_spec.rb:414-423
    cfg = TranslateConfig(iterate_on="foo", source="foo", target="baz",
                          fallback="nooo", dictionary=HTTP_DICT)
    out = run_both(cfg, [{"foo": [200, 300, 400]}])
    assert out[0]["baz"] == ["OK", "Redirect", "Client Error"]


def test_iterate_on_array_of_values_fallback_fills_misses():
    # array_of_values_update.rb:32-44
    cfg = TranslateConfig(iterate_on="foo", source="foo", target="baz",
                          fallback="nope", dictionary=HTTP_DICT)
    out = run_both(cfg, [{"foo": ["200", "xxx"]}])
    assert out[0]["baz"] == ["OK", "nope"]


def test_iterate_on_array_of_values_no_fallback_nil_on_miss():
    cfg = TranslateConfig(iterate_on="foo", source="foo", target="baz",
                          dictionary=HTTP_DICT)
    out = run_both(cfg, [{"foo": ["200", "xxx"]}])
    assert out[0]["baz"] == ["OK", None]


def test_iterate_on_array_of_maps():
    # translate_spec.rb:425-435 (S9)
    d = {"two": "val-2-1|val-2-2", "one": "val-1-1|val-1-2",
         "six": "val-6-1|val-6-2"}
    cfg = TranslateConfig(iterate_on="foo", source="bar", target="baz",
                          fallback="nooo", dictionary=d)
    out = run_both(cfg, [{"foo": [{"bar": "two"}, {"bar": "one"},
                                  {"bar": "six"}]}])
    assert [e["baz"] for e in out[0]["foo"]] == \
        ["val-2-1|val-2-2", "val-1-1|val-1-2", "val-6-1|val-6-2"]


def test_iterate_on_array_of_maps_int_coercion():
    # translate_spec.rb:437-448
    cfg = TranslateConfig(iterate_on="foo", source="bar", target="baz",
                          fallback="nooo", dictionary=HTTP_DICT)
    out = run_both(cfg, [{"foo": [{"bar": 200}, {"bar": 300}, {"bar": 400}]}])
    assert [e["baz"] for e in out[0]["foo"]] == ["OK", "Redirect", "Client Error"]


def test_iterate_on_array_of_maps_fallback_per_element():
    cfg = TranslateConfig(iterate_on="foo", source="bar", target="baz",
                          fallback="nooo", dictionary=HTTP_DICT)
    out = run_both(cfg, [{"foo": [{"bar": "200"}, {"bar": "zzz"}]}])
    assert [e["baz"] for e in out[0]["foo"]] == ["OK", "nooo"]


def test_empty_dictionary_fallback():
    # S14 — translate_spec.rb:628-682
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary={}, fallback="no match")
    out = run_both(cfg, [{"status": "a"}])
    assert out[0]["translation"] == "no match"


def test_union_empty_dictionary_never_matches():
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary={}, exact=False)
    out = run_both(cfg, [{"status": "200"}])
    assert out[0].get("translation") is None


def test_array_source_uses_first_element():
    # single_value_update.rb:9 CoerceArray
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary=HTTP_DICT)
    out = run_both(cfg, [{"status": ["200", "500"]}])
    assert out[0]["translation"] == "OK"


def test_matched_column_semantics():
    # S15
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary=HTTP_DICT, fallback="fb")
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({"status": ["200", "xxx", None]})
    out = translate_table(tbl, cfg, snap).to_pylist()
    assert [r["translate_matched"] for r in out] == [True, True, False]
    cfg2 = TranslateConfig(source="status", target="translation",
                           dictionary=HTTP_DICT)
    out2 = translate_table(tbl, cfg2, snap).to_pylist()
    assert [r["translate_matched"] for r in out2] == [True, False, False]


def test_differential_random_strings():
    """Differential fuzz: random rows, all three strategies, kernel == oracle."""
    rng = np.random.RandomState(7)
    vocab = ["200", "300", "abc", "", "200 & 500", "zzz 400", "a", None]
    for strategy_kw in [dict(exact=True, regex=False),
                        dict(exact=True, regex=True),
                        dict(exact=False, regex=False)]:
        d = {"200": "OK", "300": "Redirect", "a.c": "dotmatch"}
        for fallback in [None, "fb %{other}"]:
            cfg = TranslateConfig(source="s", target="t", dictionary=d,
                                  fallback=fallback, **strategy_kw)
            rows = [{"s": vocab[rng.randint(len(vocab))],
                     "other": "o%d" % rng.randint(3)} for _ in range(40)]
            run_both(cfg, rows)


def test_duplicate_keys_last_value_first_position():
    # Ruby Hash semantics via DictSnapshot
    snap = DictSnapshot([("a", 1), ("b", 2), ("a", 3)])
    assert snap.keys == ["a", "b"]
    assert snap.map["a"] == 3


def test_union_sequential_fast_path_equivalence():
    """The vectorized sequential-replace fast path must equal the
    single-pass re.sub oracle on eligible dictionaries."""
    from logstash_filter_translate_ray.pipelines.transcripts import REDACT_DICT
    snap = DictSnapshot(REDACT_DICT)
    assert snap.union_sequential_safe
    cfg = TranslateConfig(source="s", target="t", exact=False,
                          dictionary=dict(REDACT_DICT))
    rows = [{"s": "saw error 503 and 404404 merci merci"},
            {"s": "200200200"}, {"s": "nothing here"}, {"s": ""},
            {"s": "err or 50 3"}]
    run_both(cfg, rows)


def test_union_fast_path_ineligible_dicts():
    # containment: 'b' inside 'abc'
    assert not DictSnapshot({"abc": "X", "b": "Y"}).union_sequential_safe
    # cross overlap: suffix '3' of '503' is prefix of '301'
    assert not DictSnapshot({"503": "X", "301": "Y"}).union_sequential_safe
    # value contains a key
    assert not DictSnapshot({"a": "bb", "bb": "c"}).union_sequential_safe
    # overlap case must still produce single-pass semantics via re path
    cfg = TranslateConfig(source="s", target="t", exact=False,
                          dictionary={"503": "X", "301": "Y"})
    out = run_both(cfg, [{"s": "50301"}])
    assert out[0]["t"] == "X01"


def test_nested_struct_source():
    """Nested source read: source="[meta][code]" over a struct column."""
    cfg = TranslateConfig(source="[meta][code]", target="t",
                          dictionary=HTTP_DICT)
    out = run_both(cfg, [{"meta": {"code": "200"}},
                         {"meta": {"code": "zzz"}},
                         {"meta": None}])
    assert out[0]["t"] == "OK"
    assert out[1].get("t") is None
    assert out[2].get("t") is None


def test_nested_struct_target_write():
    """Nested target write: target="[meta][class]" adds a struct child."""
    cfg = TranslateConfig(source="status", target="[meta][class]",
                          dictionary=HTTP_DICT, override=True)
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({
        "status": ["200", "x"],
        "meta": pa.array([{"k": 1}, {"k": 2}],
                         type=pa.struct([("k", pa.int64())])),
    })
    out = translate_table(tbl, cfg, snap).to_pylist()
    assert out[0]["meta"] == {"k": 1, "class": "OK"}
    assert out[1]["meta"] == {"k": 2, "class": None}
    assert [r["translate_matched"] for r in out] == [True, False]


def test_nested_target_creates_struct_column():
    cfg = TranslateConfig(source="status", target="[meta][class]",
                          dictionary=HTTP_DICT, override=True)
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({"status": ["200", "x"]})
    out = translate_table(tbl, cfg, snap).to_pylist()
    assert out[0]["meta"] == {"class": "OK"}
    assert out[1]["meta"] is None   # unwritten rows keep a null struct


def test_nested_target_respects_override_skip():
    # S2 against a nested target
    cfg = TranslateConfig(source="status", target="[meta][class]",
                          dictionary=HTTP_DICT)   # override False
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({
        "status": ["200", "200"],
        "meta": pa.array([{"class": "keep"}, {"class": None}],
                         type=pa.struct([("class", pa.string())])),
    })
    out = translate_table(tbl, cfg, snap).to_pylist()
    assert out[0]["meta"]["class"] == "keep"
    assert out[1]["meta"]["class"] == "OK"


def test_exact_regex_grouped_large_dict():
    """>32 regex keys takes the grouped-alternation path; results must equal
    the row oracle (insertion-order first-match-wins preserved)."""
    d = {f"^key{i:04d}$": f"v{i}" for i in range(200)}
    # overlapping patterns exercising ordering across group boundaries
    d["^key01"] = "prefix-early"      # inserted AFTER ^key0100$ etc → later
    cfg = TranslateConfig(source="s", target="t", regex=True, dictionary=d)
    rows = [{"s": "key0000"}, {"s": "key0100"}, {"s": "key0199"},
            {"s": "key0150x"}, {"s": "nothing"}, {"s": None}]
    out = run_both(cfg, rows)
    assert out[0]["t"] == "v0"
    assert out[1]["t"] == "v100"     # exact key beats later prefix key
    assert out[3]["t"] == "prefix-early"   # only the prefix key matches
    assert out[4].get("t") is None


def test_exact_regex_grouped_perf_sanity():
    import time
    d = {f"^pat{i:05d}": f"v{i}" for i in range(5000)}
    snap = DictSnapshot(d)
    src = pa.array([f"pat{(i * 7) % 5000:05d}" for i in range(5000)] +
                   ["no-match"] * 45000)
    from logstash_filter_translate_ray.kernel import lookup_exact_regex
    lookup_exact_regex(src, snap)          # compile + warm
    t0 = time.perf_counter()
    matched, vals, idx = lookup_exact_regex(src, snap)
    dt = time.perf_counter() - t0
    assert matched.sum() == 5000
    # grouped path: ~156 alternation passes over 50k rows; the naive path
    # would need 5000 passes. Loose bound to avoid flaky CI.
    assert dt < 20.0, dt


def test_array_form_dictionary():
    """Logstash flat-array dictionary form (translate_spec.rb:31-34)."""
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary=["200", "OK", "300", "Redirect",
                                      "400", "Client Error",
                                      "500", "Server Error"])
    out = run_both(cfg, [{"status": 200}])
    assert out[0]["translation"] == "OK"
    import pytest as _pt
    from logstash_filter_translate_ray import ConfigurationError
    with _pt.raises(ConfigurationError, match="even number"):
        TranslateConfig(source="s", dictionary=["a", "1", "b"])


def test_fallback_sprintf_nested_ref():
    cfg = TranslateConfig(source="status", target="t", dictionary={},
                          fallback="miss %{[meta][code]}")
    snap = DictSnapshot({})
    tbl = pa.table({
        "status": ["x", "y"],
        "meta": pa.array([{"code": "abc"}, None],
                         type=pa.struct([("code", pa.string())])),
    })
    out = translate_table(tbl, cfg, snap).to_pylist()
    assert out[0]["t"] == "miss abc"
    assert out[1]["t"] == "miss %{[meta][code]}"   # unresolved → literal


def test_union_keys_are_literal_escaped():
    # Regexp.union escapes literals: "a.c" must not match "abc" (S6)
    cfg = TranslateConfig(source="s", target="t", exact=False,
                          dictionary={"a.c": "X"})
    out = run_both(cfg, [{"s": "abc"}, {"s": "xa.cx"}])
    assert out[0].get("t") is None
    assert out[1]["t"] == "xXx"


def test_iterate_on_nil_element_coerced_to_empty_string():
    """A nil list ELEMENT is looked up as "" (array_of_values_update.rb:38
    inner.to_s), unlike a nil scalar source which is absent (S1)."""
    cfg = TranslateConfig(iterate_on="foo", source="foo", target="baz",
                          dictionary={"": "EMPTY", "a": "A"}, fallback="fb")
    out = run_both(cfg, [{"foo": ["a", None, "x"]}])
    assert out[0]["baz"] == ["A", "EMPTY", "fb"]
    # regex mode: pattern matching "" matches a nil element too
    cfg2 = TranslateConfig(iterate_on="foo", source="foo", target="baz",
                           regex=True, dictionary={"^$": "BLANK"})
    out2 = run_both(cfg2, [{"foo": [None, "x"]}])
    assert out2[0]["baz"] == ["BLANK", None]


# --------------------------------------------------------------------------
# Round-2 ADVICE regressions: typed dict values + fallback, array_of_maps
# in-place matched flag (translate.rb:267)
# --------------------------------------------------------------------------

def test_typed_values_fallback_block_invariant_type():
    """ADVICE r3 (high): the target type must NOT depend on block
    composition. dict {'a': 100} + string fallback ⇒ the target is string in
    EVERY block — an all-hit block and a block with a miss concat cleanly
    and identical rows get identical values."""
    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"a": 100, "b": 200}, fallback="fb")
    snap = DictSnapshot(cfg.dictionary)
    all_hit = translate_table(pa.table({"s": ["a", "a"]}), cfg, snap)
    with_miss = translate_table(pa.table({"s": ["a", "zz"]}), cfg, snap)
    assert all_hit["t"].type == with_miss["t"].type == pa.string()
    both = pa.concat_tables([all_hit, with_miss])   # must not raise
    assert both["t"].to_pylist() == ["100", "100", "100", "fb"]


def test_typed_values_no_fallback_keeps_type():
    """Without a fallback there is no type conflict: typed dict values are
    written exactly (translate.rb writes the Ruby object)."""
    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"a": 100, "b": 200})
    out = run_both(cfg, [{"s": "a"}, {"s": "b"}, {"s": None}])
    assert out[0]["t"] == 100 and out[1]["t"] == 200


def test_typed_values_fallback_with_miss_unifies_to_string():
    """Documented columnar deviation: a batch that actually needs the string
    fallback unifies that batch's written values to string (an Arrow column
    is single-typed; the reference writes heterogeneous values per event)."""
    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"a": 100}, fallback="fb")
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({"s": ["a", "zzz"]})
    out = translate_table(tbl, cfg, snap)
    assert out["t"].to_pylist() == ["100", "fb"]


def test_typed_values_fallback_iterate_values_unifies():
    """List shape, same block-invariant rule: fallback configured ⇒ string
    elements regardless of whether any element missed."""
    cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                          dictionary={"a": 7, "b": 9}, fallback="fb")
    out = run_both(cfg, [{"foo": ["a", "b"]}, {"foo": ["b"]}])
    assert out[0]["baz"] == ["7", "9"] and out[1]["baz"] == ["9"]


def test_typed_values_no_fallback_iterate_values_keeps_type():
    cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                          dictionary={"a": 7, "b": 9})
    out = run_both(cfg, [{"foo": ["a", "b"]}, {"foo": ["b"]}])
    assert out[0]["baz"] == [7, 9] and out[1]["baz"] == [9]


def test_typed_values_fallback_iterate_maps_unifies():
    cfg = TranslateConfig(source="bar", iterate_on="foo", target="baz",
                          dictionary={"a": 7}, fallback="fb")
    out = run_both(cfg, [{"foo": [{"bar": "a"}, {"bar": None}]}])
    assert out[0]["foo"][0]["baz"] == "7"


def test_typed_values_no_fallback_iterate_maps_keeps_type():
    cfg = TranslateConfig(source="bar", iterate_on="foo", target="baz",
                          dictionary={"a": 7})
    out = run_both(cfg, [{"foo": [{"bar": "a"}, {"bar": None}]}])
    assert out[0]["foo"][0]["baz"] == 7


def test_array_of_maps_in_place_matched_without_writes():
    """translate.rb:267 `update(event) || @source == @target`: with
    iterate_on set and source == target, an included event with ZERO written
    elements still fires filter_matched."""
    cfg = TranslateConfig(source="bar", target="bar", iterate_on="foo",
                          dictionary={"x": "y"})
    snap = DictSnapshot(cfg.dictionary)
    rows = [{"foo": [{"bar": "nomatch"}]}, {"foo": None}]
    out = run_both(cfg, rows)
    tbl = pa.table({"foo": pa.array([r["foo"] for r in rows],
                                    type=pa.list_(pa.struct([("bar", pa.string())])))})
    res = translate_table(tbl, cfg, snap).to_pylist()
    assert res[0]["translate_matched"] is True      # included, in-place
    assert res[1]["translate_matched"] is False     # iterate_on absent


# --------------------------------------------------------------------------
# Round-3: opt-in nil_is_present (Event#include? parity,
# single_value_update.rb:29-31) — closes the last documented deviation for
# the single-value shape
# --------------------------------------------------------------------------

def test_nil_is_present_source_looked_up_as_empty():
    """Present-but-nil source: Ruby include? says present, CoerceOther
    fetches nil.to_s == ''. Default mode skips the row entirely."""
    d = {"": "EMPTY", "a": "A"}
    on = TranslateConfig(source="s", target="t", dictionary=dict(d),
                         nil_is_present=True)
    out = run_both(on, [{"s": None}, {"s": "a"}, {"s": "zz"}])
    assert out[0]["t"] == "EMPTY" and out[1]["t"] == "A"
    assert out[2].get("t") is None
    off = TranslateConfig(source="s", target="t", dictionary=dict(d))
    out = run_both(off, [{"s": None}, {"s": "a"}])
    assert out[0].get("t") is None and out[1]["t"] == "A"


def test_nil_is_present_target_blocks_without_override():
    """Present-but-nil target blocks translation unless override — the
    exact single_value_update.rb:29-31 behavior."""
    cfg = TranslateConfig(source="s", target="t", dictionary={"a": "A"},
                          nil_is_present=True)
    out = run_both(cfg, [{"s": "a", "t": None}])
    assert out[0].get("t") is None          # blocked: t present (nil)
    cfg_ov = TranslateConfig(source="s", target="t", dictionary={"a": "A"},
                             nil_is_present=True, override=True)
    out = run_both(cfg_ov, [{"s": "a", "t": None}])
    assert out[0]["t"] == "A"


def test_nil_is_present_nested_parent_chain():
    """Nested: presence follows the PARENT chain — null struct ⇒ absent,
    valid struct with null child ⇒ present-but-nil."""
    d = {"": "EMPTY", "x": "X"}
    cfg = TranslateConfig(source="[meta][code]", target="[meta][cls]",
                          dictionary=dict(d), override=True,
                          nil_is_present=True)
    rows = [{"meta": {"code": "x"}},   # valid chain, hit
            {"meta": {"code": None}},  # present-but-nil → lookup ""
            {"meta": None}]            # null parent → absent → skipped
    out = run_both(cfg, rows)
    assert out[0]["meta"]["cls"] == "X"
    assert out[1]["meta"]["cls"] == "EMPTY"
    assert (out[2].get("meta") or {}).get("cls") is None


def test_nil_is_present_fuzz_vs_oracle():
    """Differential fuzz with the flag on (rows always carry both keys so
    the dict oracle and the fixed-schema table agree on key existence)."""
    import random
    rnd = random.Random(7)
    d = {"": "E", "a": "A", "b": "B"}
    for override in (False, True):
        cfg = TranslateConfig(source="s", target="t", dictionary=dict(d),
                              override=override, nil_is_present=True,
                              fallback="fb")
        rows = [{"s": rnd.choice([None, "a", "b", "zz"]),
                 "t": rnd.choice([None, "keep"])} for _ in range(64)]
        run_both(cfg, rows)


def test_nil_is_present_iterate_shapes():
    """nil_is_present extends to the iterate shapes: a present-but-nil
    list is included as CoerceArray [] — the values shape writes an empty
    target list (array_of_values_update.rb:23-27 + CoerceArray)."""
    cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                          dictionary={"a": "A"}, nil_is_present=True)
    out = run_both(cfg, [{"foo": ["a", "zz"]}, {"foo": None}])
    assert out[0]["baz"] == ["A", None] and out[1]["baz"] == []
    # default mode: null list row is skipped entirely
    cfg_off = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                              dictionary={"a": "A"})
    out = run_both(cfg_off, [{"foo": ["a"]}, {"foo": None}])
    assert out[1].get("baz") is None
    # maps shape: null list included, zero elements → no writes, no crash
    cfg_m = TranslateConfig(source="bar", iterate_on="foo", target="baz",
                            dictionary={"a": "A"}, nil_is_present=True)
    out = run_both(cfg_m, [{"foo": [{"bar": "a"}]}, {"foo": None}])
    assert out[0]["foo"][0]["baz"] == "A"


# --------------------------------------------------------------------------
# Round-3 package-review regressions (pre-existing kernel/stage bugs)
# --------------------------------------------------------------------------

def test_union_sequential_unsafe_when_value_completes_key():
    """{"x": "ab", "abc": "q"} on "xc": the sequential replace path would
    create a new "abc" match the single-pass union never sees — the safety
    check must reject it and both engines must return "abc"."""
    cfg = TranslateConfig(source="s", target="t", exact=False,
                          dictionary={"x": "ab", "abc": "q"})
    snap = DictSnapshot(cfg.dictionary)
    assert not snap.union_sequential_safe
    out = run_both(cfg, [{"s": "xc"}, {"s": "abc"}, {"s": "zx"}])
    assert out[0]["t"] == "abc"
    # prefix-side variant: value's prefix completes a key's suffix
    cfg2 = TranslateConfig(source="s", target="t", exact=False,
                          dictionary={"x": "bc", "abc": "q"})
    assert not DictSnapshot(cfg2.dictionary).union_sequential_safe
    out = run_both(cfg2, [{"s": "ax"}])
    assert out[0]["t"] == "abc"


def test_typed_dict_no_fallback_all_excluded_block_type():
    """Review r3: an all-excluded block must append target nulls of the
    VALUE type, not string — concat with a matching block must not raise."""
    cfg = TranslateConfig(source="s", target="t", dictionary={"a": 100})
    snap = DictSnapshot(cfg.dictionary)
    t_null = translate_table(pa.table({"s": pa.array([None, None],
                                                     type=pa.string())}),
                             cfg, snap)
    t_hit = translate_table(pa.table({"s": ["a"]}), cfg, snap)
    both = pa.concat_tables([t_null, t_hit])    # must not raise
    assert both["t"].to_pylist() == [None, None, 100]


def test_maps_pass_through_keeps_existing_child():
    """Review r3: non-unifying dict values (value_array None) + a batch
    with zero element writes must NOT wipe an existing target child.
    Since the r4 dataset-invariant unify rule the child is STRING whenever
    the dictionary is heterogeneous (the pre-r4 'keep int in no-match
    blocks' behavior was block-composition-dependent: a matching block
    coerced or crashed), so the preserved value survives as its string
    form."""
    cfg = TranslateConfig(source="bar", iterate_on="foo", target="label",
                          dictionary={"a": 1, "b": "two"})
    out = run_both(cfg, [{"foo": [{"bar": "nomatch", "label": 7}]}])
    assert out[0]["foo"][0]["label"] == "7"
    # homogeneous typed dicts still pass existing children through untouched
    cfg = TranslateConfig(source="bar", iterate_on="foo", target="label",
                          dictionary={"a": 1, "b": 2})
    out = run_both(cfg, [{"foo": [{"bar": "nomatch", "label": 7}]}])
    assert out[0]["foo"][0]["label"] == 7


def test_nested_iterate_values_translates():
    """Review r3: nested iterate_on == source resolves through the struct
    path instead of silently no-opping."""
    cfg = TranslateConfig(source="[m][tags]", iterate_on="[m][tags]",
                          target="baz", dictionary={"a": "A"})
    out = run_both(cfg, [{"m": {"tags": ["a", "zz"]}}, {"m": None}])
    assert out[0]["baz"] == ["A", None]


def test_nested_iterate_maps_raises_clearly():
    from logstash_filter_translate_ray.errors import ConfigurationError
    cfg = TranslateConfig(source="bar", iterate_on="[m][items]",
                          target="baz", dictionary={"a": "A"})
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({"m": [{"items": [{"bar": "a"}]}]})
    with pytest.raises(ConfigurationError, match="nested field"):
        translate_table(tbl, cfg, snap)


def test_list_source_null_first_element_coerces_to_empty():
    """Review r3: CoerceArray source [None, 'x'] fetches nil.to_s == ''."""
    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"": "EMPTY", "x": "X"})
    out = run_both(cfg, [{"s": [None, "x"]}, {"s": ["x"]}, {"s": []}])
    assert out[0]["t"] == "EMPTY" and out[1]["t"] == "X"
    assert out[2]["t"] == "EMPTY"


def test_dict_values_inconsistent_key_order_stringify_in_own_order():
    """Struct unification orders fields first-seen, so a dict value whose
    keys come in another order must take the stringify path and render in
    its OWN order, like the row oracle's _to_s."""
    d = {"a": {"x": 1, "y": 2}, "b": {"y": 3, "x": 4}}
    snap = DictSnapshot(d)
    assert snap.value_array is None
    assert DictSnapshot({"a": {"x": 1}, "b": {"x": 2, "y": 3}}).value_array \
        is not None                       # order-consistent subsets unify
    cfg = TranslateConfig(source="s", target="t", dictionary=d, fallback="fb")
    out = translate_table(pa.table({"s": ["a", "b", "zz"]}), cfg, snap)
    assert out["t"].to_pylist() == ['{"x":1,"y":2}', '{"y":3,"x":4}', "fb"]
    run_both(cfg, [{"s": "a"}, {"s": "b"}, {"s": "zz"}])


def test_array_of_maps_nested_target():
    """[iterate_on][i][target] composition (S9): a nested target writes a
    nested child of each element, not a top-level child named after the
    last path part."""
    for fallback in (None, "fb"):
        cfg = TranslateConfig(iterate_on="items", source="k",
                              target="[meta][v]", dictionary={"a": "A"},
                              fallback=fallback)
        out = run_both(cfg, [{"items": [{"k": "a"}, {"k": "zz"}, {"k": None}]},
                             {"items": None}, {"items": []}])
        assert out[0]["items"][0] == {"k": "a", "meta": {"v": "A"}}


def _concat_of_slices(tbl, cfg, snap, pts):
    return pa.concat_tables([translate_table(tbl.slice(lo, hi - lo), cfg, snap)
                             for lo, hi in zip(pts, pts[1:])])


def test_values_partial_write_into_existing_int_list_target():
    """Kept rows of an existing list<int64> target under a list<string>
    result read as their ruby_to_s strings; the result does not depend on
    how the rows are split into blocks."""
    tbl = pa.table({
        "foo": pa.array([["a", "x"], ["a"], None, ["x"], ["a"]],
                        type=pa.list_(pa.string())),
        "baz": pa.array([None, [1, 2], [3], None, [4, None]],
                        type=pa.list_(pa.int64()))})
    for fallback, first in ((None, ["A", None]), ("fb", ["A", "fb"])):
        cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                              dictionary={"a": "A"}, fallback=fallback)
        snap = DictSnapshot(cfg.dictionary)
        out = translate_table(tbl, cfg, snap)
        assert out.schema.field("baz").type == pa.list_(pa.string())
        assert out["baz"].to_pylist()[:3] == [first, ["1", "2"], ["3"]]
        assert out["baz"].to_pylist()[4] == ["4", None]
        for pts in ([0, 2, 5], [0, 1, 3, 4, 5], [0, 0, 5]):
            assert _concat_of_slices(tbl, cfg, snap, pts).equals(out)


def test_array_of_maps_every_row_excluded():
    """A maps block whose every list row is null still declares the target
    child, typed as a block with hits would, so the blocks concatenate."""
    st_t = pa.list_(pa.struct([("src", pa.string())]))
    for d, fallback, target in (({"a": 1}, None, "[dst]"),
                                ({"a": 1}, "fb", "[dst]"),
                                ({"a": "A"}, None, "[m][dst]")):
        cfg = TranslateConfig(source="src", iterate_on="maps", target=target,
                              dictionary=d, fallback=fallback)
        snap = DictSnapshot(d)
        empty = translate_table(pa.table({"maps": pa.array([None, None],
                                                           type=st_t)}),
                                cfg, snap)
        hits = translate_table(pa.table({"maps": pa.array(
            [[{"src": "a"}], None], type=st_t)}), cfg, snap)
        assert empty.schema.equals(hits.schema), (empty.schema, hits.schema)
        assert empty["maps"].to_pylist() == [None, None]
        assert empty["translate_matched"].to_pylist() == [False, False]
        run_both(cfg, [{"maps": None}, {"maps": None}])


def test_list_shapes_null_rows_match_oracle():
    """Null list rows in both list shapes, with and without a fallback,
    against the row oracle."""
    rows_values = [{"foo": ["a", "x"]}, {"foo": None}, {"foo": []},
                   {"foo": [None, "a"]}, {"foo": None}]
    rows_maps = [{"foo": [{"bar": "a"}, {"bar": "x"}]}, {"foo": None},
                 {"foo": []}, {"foo": [{"bar": None}, {"bar": "a"}]},
                 {"foo": None}]
    for fallback in (None, "fb", "fb %{tag}"):
        for d in ({"a": "A"}, {"a": 1}, {"a": True, "x": False}):
            cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                                  dictionary=d, fallback=fallback)
            out = run_both(cfg, [dict(r, tag="t") for r in rows_values])
            assert out[1]["baz"] is None and out[4]["baz"] is None
            cfg = TranslateConfig(source="bar", iterate_on="foo", target="baz",
                                  dictionary=d, fallback=fallback)
            out = run_both(cfg, [dict(r, tag="t") for r in rows_maps])
            assert out[1]["foo"] is None and out[4]["foo"] is None


def test_list_shapes_no_per_row_python(monkeypatch):
    """Both list shapes on a null-bearing block with a unified dictionary
    stay vectorized: per-row Python round-trips a list column through
    Python objects and back through pa.array(<python list>), so that call
    is made to raise. (pyarrow array types are immutable, so their
    to_pylist cannot be patched.)"""
    n = 2000
    rng = np.random.default_rng(3)
    lens = rng.integers(0, 4, n)
    offsets = pa.array(np.concatenate(([0], np.cumsum(lens))), type=pa.int32())
    keys = pa.array([f"k{i}" for i in rng.integers(0, 20, lens.sum())])
    null_rows = pa.array(rng.random(n) < 0.05)
    values = pa.ListArray.from_arrays(offsets, keys, mask=null_rows)
    maps = pa.ListArray.from_arrays(
        offsets, pa.StructArray.from_arrays([keys], ["k"]), mask=null_rows)
    existing = pa.array([None if i % 3 else [i] for i in range(n)],
                        type=pa.list_(pa.int64()))
    tbl = pa.table({"vals": values, "maps": maps, "old": existing})
    d = {f"k{i}": f"v{i}" for i in range(10)}
    snap = DictSnapshot(d)
    cfgs = [TranslateConfig(source=s, iterate_on=it, target=t, dictionary=d,
                            fallback=fb)
            for fb in (None, "fb")
            for s, it, t in (("vals", "vals", "new"), ("vals", "vals", "old"),
                             ("vals", "vals", "[m][new]"),
                             ("k", "maps", "v"), ("k", "maps", "[m][v]"))]
    want = [translate_table(tbl, cfg, snap) for cfg in cfgs]

    real_array = pa.array

    def no_python_rows(obj, *args, **kwargs):
        if isinstance(obj, (list, tuple)) or (
                isinstance(obj, np.ndarray) and obj.dtype == object):
            raise AssertionError("per-row Python on a list path")
        return real_array(obj, *args, **kwargs)

    monkeypatch.setattr(pa, "array", no_python_rows)
    for cfg, w in zip(cfgs, want):
        assert translate_table(tbl, cfg, snap).equals(w)


def test_values_any_judges_dictionary_values_not_their_strings():
    """Ruby target.any?: a false dictionary value is falsy even where the
    column unifies to string and holds "false" (fresh-seed fuzz finding)."""
    for d, fallback in (({"a": False, "b": ""}, None), ({"a": False}, "fb"),
                        ({"a": False, "b": 1.5}, "fb")):
        cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                              dictionary=d, fallback=fallback)
        out = run_both(cfg, [{"foo": ["a"]}, {"foo": ["a", "z"]}, {"foo": ["b"]}])
        assert out[0]["baz"] == ["false"]


def test_values_container_values_render_per_element():
    """A non-unifying container dictionary value lands in the values
    shape's list<string> rendered Logstash-style, element by element
    (fresh-seed fuzz finding: the harness compared only whole values)."""
    cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                          dictionary={"0": [2 ** 70], "1": {"k": 1}})
    out = run_both(cfg, [{"foo": ["0", "1", "x"]}])
    assert out[0]["baz"] == [str(2 ** 70), '{"k":1}', None]
