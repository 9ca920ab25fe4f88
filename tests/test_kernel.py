"""Behavioral conformance corpus — every example of translate_spec.rb §2.5
run against BOTH the vectorized Arrow kernel (translate_table) and the
row-oriented oracle (translate_row), plus a differential property test."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
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
    out = translate_table(_rows_table(rows), cfg, snap)
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


def _rows_table(rows):
    """The rows as a table with one column per key (missing keys null)."""
    cols = []
    for r in rows:
        cols.extend(k for k in r if k not in cols)
    return pa.table({c: pa.array([r.get(c) for r in rows]) for c in cols})


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
    from logstash_filter_translate_ray.kernel import _lookup
    _lookup("exact_regex", src, snap)          # compile + warm
    t0 = time.perf_counter()
    matched, vals, idx = _lookup("exact_regex", src, snap)
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


def test_value_array_all_str_skips_round_trip(monkeypatch):
    """An all-str dictionary is a string array without the round-trip
    check; str mixed with bytes, None or int still takes it and types as
    before (bytes and int do not unify, None is a null)."""
    import logstash_filter_translate_ray.kernel as K
    real = K._roundtrip_exact
    checked = []

    def top_level(orig, back):      # value_array passes the values list
        if type(orig) is list:
            checked.append(orig)
        return real(orig, back)

    monkeypatch.setattr(K, "_roundtrip_exact", top_level)
    strs = DictSnapshot({"a": "x", "b": "", "c": "é"}).value_array
    assert strs.type == pa.string() and strs.to_pylist() == ["x", "", "é"]
    assert checked == []
    assert DictSnapshot({"a": "x", "b": b"y"}).value_array is None
    with_null = DictSnapshot({"a": "x", "b": None}).value_array
    assert with_null.type == pa.string()
    assert with_null.to_pylist() == ["x", None]
    assert DictSnapshot({"a": "x", "b": 1}).value_array is None
    assert checked == [["x", b"y"], ["x", None]]   # int fails in pa.array


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


# --------------------------------------------------------------------------
# Arrow-native snapshot: what pickling ships and what a worker rebuilds
# --------------------------------------------------------------------------

def _pickle5(obj):
    """Pickle protocol 5 with out-of-band buffers, as ``ray.put`` ships an
    object: (loaded copy, in-band byte count)."""
    import pickle
    bufs = []
    blob = pickle.dumps(obj, protocol=5, buffer_callback=bufs.append)
    return pickle.loads(blob, buffers=bufs), len(blob)


def _same(a, b):
    """Category-exact equality: the same Python type at every level, dict
    keys in the same order, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b or (a != a and b != b)


def _same_arrow(a, b):
    """Arrow arrays or tables of one type with category-exact values
    (``equals`` would tell NaN apart from NaN)."""
    return (a.type if hasattr(a, "type") else a.schema) == \
        (b.type if hasattr(b, "type") else b.schema) \
        and _same(a.to_pylist(), b.to_pylist())


_LAZY_VIEWS = {"map", "keys", "values"}


def test_snapshot_pickles_as_out_of_band_arrays():
    """The 100k-key all-str snapshot ships as two Arrow arrays, out of
    band: a few hundred bytes in-band, and no Python copy of the
    dictionary rides along (nor any cache the sender had built)."""
    from logstash_filter_translate_ray.pipelines.transcripts import \
        make_conv_segment_dict
    snap = DictSnapshot(make_conv_segment_dict(100_000))
    assert not _LAZY_VIEWS & vars(snap).keys()
    snap.map, snap.union_re, snap.values_str    # built on the sender
    loaded, inband = _pickle5(snap)
    assert inband <= 4096, inband
    assert set(vars(loaded)) == {"version", "key_array", "value_array",
                                 "_py_values"}
    assert loaded._py_values is None
    assert loaded.key_array.equals(snap.key_array)
    assert loaded.value_array.equals(snap.value_array)
    assert len(loaded) == 100_000
    assert loaded.map["conv-00000008"] == "pro"
    assert _LAZY_VIEWS <= vars(loaded).keys()


_STRUCTS = {"a": {"x": 1}, "b": {"y": "s"}}   # unify with null fields


_KINDS = [
    {"a": "x", "b": "", "c": "é"},
    {"a": 1, "b": -2, "c": None},
    {"a": 1.5, "b": float("nan"), "c": 0.0},
    {"a": True, "b": False},
    {"a": [1, 2], "b": [], "c": None},
    _STRUCTS,
    "dict.yml",
    {"a": 1, "b": "x", "c": [1], "d": 2 ** 70},      # no unified type
    {"a": b"\xff", "b": b"y"},
    [(1, "int"), ("1", "str"), (True, "bool"), ("true", "str true"),
     (1.0, "float"), (None, "nil"), ("", "empty")],   # keys collide
]
_KIND_IDS = ["str", "int", "float", "bool", "list", "struct", "dict.yml",
             "non_unifying", "bytes", "colliding_keys"]
_STRATEGIES = [dict(), dict(fallback="fb"), dict(regex=True),
               dict(exact=False), dict(iterate_on="l", source="l")]


def _kind_items(items):
    if items == "dict.yml":
        import os

        from logstash_filter_translate_ray.dictionary import load_yaml_items
        items = list(load_yaml_items(os.path.join(
            os.path.dirname(__file__), "fixtures", "dict.yml")))
    return items


def _kind_table(snap):
    keys = snap.keys + ["miss", "x1.0y"]
    return pa.table({"s": keys, "l": [[k, "miss"] for k in keys]})


@pytest.mark.parametrize("items", _KINDS, ids=_KIND_IDS)
def test_snapshot_round_trip_is_category_exact(items):
    """A loaded snapshot rebuilds the sender's keys, values and map
    exactly, and every strategy translates the same through it."""
    items = _kind_items(items)
    snap = DictSnapshot(items)
    loaded, _ = _pickle5(snap)
    assert not _LAZY_VIEWS & vars(loaded).keys()
    for view in ["map", "keys", "values"]:
        assert _same(getattr(loaded, view), getattr(snap, view)), view
    if snap.value_array is None:
        assert loaded.value_array is None
    else:
        assert _same_arrow(loaded.value_array, snap.value_array)
    # the values list ships only when the arrays may not give it back
    # (NaN != NaN counts as may not; struct unification adds null fields)
    assert (loaded._py_values is None) == (
        snap.value_array is not None
        and snap.value_array.to_pylist() == snap.values)
    assert items is not _STRUCTS or loaded._py_values is not None
    tbl = _kind_table(snap)
    for kw in _STRATEGIES:
        cfg = TranslateConfig(**{"source": "s", "target": "t",
                                 "dictionary": {}, **kw})
        assert _same_arrow(translate_table(tbl, cfg, loaded),
                           translate_table(tbl, cfg, snap)), kw


@pytest.mark.parametrize("items", _KINDS, ids=_KIND_IDS)
def test_config_snapshot_translates_like_config_dict(items):
    """A config may carry a prebuilt snapshot instead of a dict:
    ``as_snapshot`` hands that very object to the kernel, and every
    strategy gives the same output as the config holding the dict (for
    key lists, the snapshot's own coerced map)."""
    from logstash_filter_translate_ray import as_snapshot
    items = _kind_items(items)
    snap = DictSnapshot(items)
    as_dict = items if isinstance(items, dict) else snap.map
    tbl = _kind_table(snap)
    for kw in _STRATEGIES:
        base = {"source": "s", "target": "t", **kw}
        by_snap = TranslateConfig(dictionary=snap, **base)
        by_dict = TranslateConfig(dictionary=as_dict, **base)
        assert as_snapshot(by_snap.dictionary) is snap
        assert _same_arrow(
            translate_table(tbl, by_snap, as_snapshot(by_snap.dictionary)),
            translate_table(tbl, by_dict, as_snapshot(by_dict.dictionary))), kw


def test_truthy_hits_judged_once_per_entry():
    """The values shape's matched flag is Ruby ``target.any?`` over the
    result slots; with nil/false/0/"" values (no unified type, so the
    string-unify path) it reads each entry's truthiness from
    ``DictSnapshot.truthy``. Over 32k+ elements it agrees with the row
    oracle."""
    d = {"nil": None, "false": False, "zero": 0, "empty": "", "x": "x"}
    snap = DictSnapshot(d)
    assert snap.value_array is None
    assert snap.truthy.tolist() == [False, False, True, True, True]
    rng = np.random.default_rng(7)
    keys = list(d) + ["miss"]
    rows = [{"foo": [keys[i] for i in rng.integers(0, len(keys),
                                                   rng.integers(0, 10))]}
            for _ in range(8_000)]
    assert sum(len(r["foo"]) for r in rows) >= 32_000
    cfg = TranslateConfig(iterate_on="foo", source="foo", target="baz",
                          dictionary=d)
    run_both(cfg, rows)
    matched = translate_table(_rows_table(rows), cfg, snap)[
        "translate_matched"].to_pylist()
    assert 0 < sum(matched) < len(rows)


def test_snapshot_keys_collide_after_coercion():
    """Keys coerce with Ruby ``to_s``: colliding keys keep their first
    position and last value, and True/1/1.0/None stay distinct."""
    snap = DictSnapshot([(1, "a"), (True, "b"), (1.0, "c"), (None, "d"),
                         ("1", "e"), ("", "f")])
    loaded, _ = _pickle5(snap)
    for s in (snap, loaded):
        assert s.keys == ["1", "true", "1.0", ""]
        assert s.map == {"1": "e", "true": "b", "1.0": "c", "": "f"}


# --------------------------------------------------------------------------
# Per-distinct value functions: a repeating block runs each lookup once per
# distinct value (kernel._per_distinct) and must equal both the row oracle
# and the per-row path over the same rows
# --------------------------------------------------------------------------

def _rows_path(col, fn, rows_fn=None):
    """_per_distinct with its gate always failing: every value function
    runs over the rows as they are (the path a non-repeating block takes)."""
    from logstash_filter_translate_ray import kernel
    return (rows_fn or fn)(kernel._as_array(col))


def _check_per_distinct(cfg, rows, monkeypatch, distinct=True):
    """``rows`` repeat their values. The kernel must take the distinct
    path (a value function sees fewer values than its column holds) iff
    ``distinct``, agree with translate_row (run_both), and give the same
    table as the same rows through the per-row path."""
    from logstash_filter_translate_ray import kernel
    monkeypatch.undo()               # the real helper, not an earlier patch
    real = kernel._per_distinct
    shrunk = []

    def spy(col, fn, rows_fn=None):
        def rec(values):
            shrunk.append(len(values) < len(col))
            return fn(values)
        return real(col, rec, rows_fn)

    monkeypatch.setattr(kernel, "_per_distinct", spy)
    out = run_both(cfg, rows)
    assert any(shrunk) == distinct, shrunk
    snap = DictSnapshot(cfg.dictionary)
    tbl = _rows_table(rows)
    whole = translate_table(tbl, cfg, snap)
    monkeypatch.setattr(kernel, "_per_distinct", _rows_path)
    per_row = translate_table(tbl, cfg, snap)
    assert whole.schema == per_row.schema
    assert whole.to_pylist() == per_row.to_pylist()
    return out


def _repeat(values, n=96):
    return [values[i % len(values)] for i in range(n)]


def test_per_distinct_exact_small_and_100k(monkeypatch):
    """A 4-key dictionary hashes its keys and the rows probe them; a
    100k-key one hashes the block's distinct values and the keys probe
    those (the reverse probe), null rows and misses included."""
    small = {"search": "Web Search", "code": "Code", "calc": "Calc",
             "browser": "Browser"}
    cfg = TranslateConfig(source="s", target="t", dictionary=small,
                          fallback="no tool", override=True)
    rows = [{"s": v} for v in _repeat(["search", "code", None, "zz"])]
    out = _check_per_distinct(cfg, rows, monkeypatch, distinct=False)
    assert [r.get("t") for r in out[:4]] == ["Web Search", "Code", None,
                                             "no tool"]
    big = {f"conv-{i:08d}": ("pro", "free", "edu")[i % 3]
           for i in range(100_000)}
    cfg = TranslateConfig(source="s", target="t", dictionary=big,
                          fallback="anon", override=True)
    vals = ["conv-00000007", "conv-00099999", None, "conv-x",
            "conv-00000000"]
    out = _check_per_distinct(cfg, [{"s": v} for v in _repeat(vals)],
                              monkeypatch)
    assert [r.get("t") for r in out[:5]] == ["free", "pro", None, "anon",
                                             "pro"]


def test_per_distinct_exact_regex_re2_and_lookaround(monkeypatch):
    """Ordered first-match-wins over the distinct values, with RE2 keys
    and a lookbehind key that only Python ``re`` can run."""
    d = {"^2[0-9][0-9]$": "OK", "(?<=x)5": "after-x", "^4..": "Client",
         "5": "five"}
    snap = DictSnapshot(d)
    assert [ok for _, _, ok in snap.regex_rows] == [True, False, True, True]
    cfg = TranslateConfig(source="s", target="t", regex=True, dictionary=d,
                          fallback="unknown %{s}", override=True)
    vals = ["200", "x5", "404", "5", None, "999", "2000"]
    out = _check_per_distinct(cfg, [{"s": v} for v in _repeat(vals)],
                              monkeypatch)
    assert [r.get("t") for r in out[:7]] == [
        "OK", "after-x", "Client", "five", None, "unknown 999", "unknown 2000"]


def test_per_distinct_regex_union(monkeypatch):
    """gsub over a low-cardinality column runs once per distinct value,
    for the vectorized (sequential-safe) and the re.sub dictionaries."""
    for d in ({"a": "[A]", "bc": "[BC]"}, {"ab": "1", "b": "2"}):
        cfg = TranslateConfig(source="s", target="t", exact=False,
                              dictionary=d)
        vals = ["abc", "xbcx", "zz", None, "ab"]
        _check_per_distinct(cfg, [{"s": v} for v in _repeat(vals)],
                            monkeypatch)


def test_per_distinct_override_false_and_nil_is_present(monkeypatch):
    """The inclusion mask (an existing target blocks the write) and
    nil_is_present's "" lookup apply after the gather, as on the row path.
    More keys than rows: exact takes the reverse probe, exact_regex its
    grouped-alternation path and regex_union the re.sub path."""
    d = {"": "EMPTY", "a": "A", "b": "B",
         **{f"pad{i}": "P" for i in range(200)}}
    for strategy in (dict(), dict(regex=True), dict(exact=False)):
        for nil_p in (False, True):
            # under nil_is_present every row's top-level target is
            # present, so only override lets it write
            cfg = TranslateConfig(source="s", target="t", dictionary=d,
                                  nil_is_present=nil_p, override=nil_p,
                                  **strategy)
            rows = [{"s": s, "t": t} for s, t in
                    _repeat([("a", None), ("a", "keep"), (None, None),
                             ("b", None), ("zz", "keep"), (None, "keep")])]
            _check_per_distinct(cfg, rows, monkeypatch)


def test_per_distinct_iterate_shapes(monkeypatch):
    """The list shapes look up the flattened elements once per distinct
    element; nil elements look up "", null lists stay untouched."""
    d = {"a": "A", "": "EMPTY", "b": False,
         **{f"pad{i}": "P" for i in range(500)}}
    cfg = TranslateConfig(source="l", iterate_on="l", target="out",
                          dictionary=d, fallback="fb")
    rows = [{"l": v} for v in _repeat([["a", "zz"], None, ["b", None],
                                       ["a", "a", "b"]])]
    _check_per_distinct(cfg, rows, monkeypatch)
    cfg = TranslateConfig(source="k", iterate_on="m", target="t",
                          dictionary=d)
    rows = [{"m": v} for v in _repeat([[{"k": "a"}, {"k": "zz"}], None,
                                       [{"k": "b"}, {"k": None}]])]
    _check_per_distinct(cfg, rows, monkeypatch)


def test_per_distinct_gate_keeps_unique_columns_on_row_path():
    """A column whose leading rows are mostly distinct never encodes:
    the value function sees the whole column."""
    from logstash_filter_translate_ray import kernel
    seen = []

    def upper(v):
        seen.append(len(v))
        return pc.utf8_upper(v)

    kernel._per_distinct(pa.array([f"v{i}" for i in range(3000)]), upper)
    out = kernel._per_distinct(pa.array(["a", None, "a", "b"] * 8), upper)
    assert seen == [3000, 2]
    assert out.to_pylist() == ["A", None, "A", "B"] * 8


def test_materialize_values_per_distinct_entry_32k():
    """A dictionary whose values don't unify (int / str / list / None)
    renders each used entry once; a 32k-row block equals translate_row
    row by row."""
    import random
    from logstash_filter_translate_ray.sprintf import _to_s
    d = {"i": 7, "s": "str", "l": [1, "x", None], "n": None, "f": 2.0,
         "m": {"k": "v"}}
    snap = DictSnapshot(d)
    assert snap.value_array is None
    rnd = random.Random(3)
    keys = [rnd.choice(list(d) + ["miss", None]) for _ in range(32_000)]
    for fallback in (None, "fb"):
        cfg = TranslateConfig(source="s", target="t", dictionary=d,
                              fallback=fallback)
        out = translate_table(pa.table({"s": pa.array(keys, pa.string())}),
                              cfg, snap)
        for k, got in zip(keys, out["t"].to_pylist()):
            ev = {"s": k}
            translate_row(ev, cfg, snap)
            want = ev.get("t")
            assert got == (None if want is None else _to_s(want)), (k, got)


def test_float_cast_per_distinct_keeps_nan_and_null():
    """Floats render once per distinct value: NaN stays a value ('nan'),
    null stays null, -0.0 and 0.0 stay apart, halffloat widens exactly."""
    from logstash_filter_translate_ray.sprintf import _cast_to_string
    vals = [0.0, -0.0, float("nan"), None, 1.0, 2.5] * 100
    for t in (pa.float64(), pa.float32()):
        got = _cast_to_string(pa.array(vals, type=t)).to_pylist()
        assert got == ["0.0", "-0.0", "nan", None, "1.0", "2.5"] * 100
    half = pa.array(np.array([1 / 3, 1.0] * 8, dtype=np.float16))
    assert _cast_to_string(half).to_pylist()[:2] == [
        str(float(np.float16(1 / 3))), "1.0"]


# --------------------------------------------------------------------------
# Kernel regressions from the round-4/5 reviews and fuzz sweeps
# --------------------------------------------------------------------------

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


def test_heterogeneous_dict_with_fallback_unifies_to_string():
    """The block-invariant fallback-unify rule (SURVEY §8) must also hold
    when the dictionary's values DON'T unify to one Arrow type (value_array
    is None → the Python materialize path): fuzz found {'0': '', '1': 0}
    with a fallback raising ConfigurationError instead of stringifying.
    All three shapes route through _materialize_values."""
    from logstash_filter_translate_ray import TranslateConfig

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


def test_translate_bool_float_dict_values_exact():
    """The fuzz_hard falsifying example: dict {'0': 0.0, '1': False} with
    a fallback returned '0.0' for key '1' (False coerced to 0.0 inside the
    unified value array). Both kernel and row oracle must agree on the
    stringified values."""
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


def test_translate_bytes_dict_values():
    """Bytes dictionary values (found by the widened fuzz_hard): the
    fallback-unify branch crashed on non-utf8 bytes (Arrow's binary→string
    cast rejects invalid utf-8), and ruby_to_s rendered the Python repr
    (b'...') instead of the decoded text. Canonical rule everywhere:
    utf-8 with U+FFFD replacement."""
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
