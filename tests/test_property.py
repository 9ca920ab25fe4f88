"""Property-based differential testing: for random dictionaries, configs and
rows, the vectorized Arrow kernel must agree exactly with the row-oriented
oracle (which is a direct transcription of the reference semantics)."""

import string

import pyarrow as pa
from hypothesis import given, settings, strategies as st

from logstash_filter_translate_ray import (DictSnapshot, TranslateConfig,
                                           translate_row, translate_table)
from tests.test_kernel import run_both

keys = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1,
               max_size=6)
str_values = st.text(alphabet=string.ascii_letters + string.digits + " []",
                     max_size=10)
# one Python type per column (Arrow columns are single-typed)
int_vals = st.one_of(st.none(), st.integers(min_value=-1000, max_value=10_000))
str_vals = st.one_of(st.none(), st.text(
    alphabet=string.ascii_lowercase + string.digits + " &", max_size=12))
source_cols = st.one_of(
    st.lists(int_vals, min_size=1, max_size=12),
    st.lists(str_vals, min_size=1, max_size=12),
)


@settings(max_examples=60, deadline=None)
@given(
    d=st.dictionaries(keys, str_values, max_size=8),
    rows=source_cols,
    strategy=st.sampled_from(["exact", "exact_regex", "regex_union"]),
    fallback=st.one_of(st.none(), st.just("fb"), st.just("fb %{other}")),
    override=st.booleans(),
)
def test_kernel_equals_oracle_single(d, rows, strategy, fallback, override):
    cfg = TranslateConfig(
        source="s", target="t", dictionary=d, fallback=fallback,
        override=override,
        exact=strategy != "regex_union", regex=strategy == "exact_regex")
    run_both(cfg, [{"s": v, "other": "x"} for v in rows])


@settings(max_examples=40, deadline=None)
@given(
    d=st.dictionaries(keys, str_values, max_size=6),
    rows=st.one_of(
        st.lists(st.one_of(st.none(), st.lists(int_vals, max_size=5)),
                 min_size=1, max_size=8),
        st.lists(st.one_of(st.none(), st.lists(str_vals, max_size=5)),
                 min_size=1, max_size=8),
    ),
    fallback=st.one_of(st.none(), st.just("fb")),
    strategy=st.sampled_from(["exact", "exact_regex", "regex_union"]),
)
def test_kernel_equals_oracle_array_of_values(d, rows, fallback, strategy):
    cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                          dictionary=d, fallback=fallback,
                          exact=strategy != "regex_union",
                          regex=strategy == "exact_regex")
    run_both(cfg, [{"foo": v} for v in rows])


@settings(max_examples=40, deadline=None)
@given(
    d=st.dictionaries(keys, str_values, max_size=6),
    rows=st.one_of(
        st.lists(st.one_of(st.none(), st.lists(int_vals, max_size=5)),
                 min_size=1, max_size=8),
        st.lists(st.one_of(st.none(), st.lists(str_vals, max_size=5)),
                 min_size=1, max_size=8),
        st.lists(int_vals, min_size=1, max_size=8),       # scalar CoerceOther
    ),
    fallback=st.one_of(st.none(), st.just("fb")),
    nil_p=st.booleans(),
    target=st.sampled_from(["baz", "[meta][labels]", "[a][b][c]"]),
)
def test_kernel_equals_oracle_values_nested_target(d, rows, fallback,
                                                   nil_p, target):
    """The r4 nested-list write path (values shape × nested target) and
    Array(nil) == [] under nil_is_present, differentially fuzzed."""
    cfg = TranslateConfig(source="foo", iterate_on="foo", target=target,
                          dictionary=d, fallback=fallback,
                          nil_is_present=nil_p)
    run_both(cfg, [{"foo": v} for v in rows])


@settings(max_examples=40, deadline=None)
@given(
    d=st.dictionaries(keys, str_values, min_size=1, max_size=6),
    rows=st.one_of(
        st.lists(st.one_of(st.none(), st.lists(st.fixed_dictionaries(
            {"bar": int_vals}), max_size=4)), min_size=1, max_size=6),
        st.lists(st.one_of(st.none(), st.lists(st.fixed_dictionaries(
            {"bar": str_vals}), max_size=4)), min_size=1, max_size=6),
    ),
    fallback=st.one_of(st.none(), st.just("fb")),
    strategy=st.sampled_from(["exact", "exact_regex", "regex_union"]),
    target=st.sampled_from(["baz", "[meta][baz]"]),
)
def test_kernel_equals_oracle_array_of_maps(d, rows, fallback, strategy,
                                            target):
    cfg = TranslateConfig(source="bar", iterate_on="foo", target=target,
                          dictionary=d, fallback=fallback,
                          exact=strategy != "regex_union",
                          regex=strategy == "exact_regex")
    run_both(cfg, [{"foo": v} for v in rows])


# Non-string dictionary VALUES (int/bool): with no fallback the kernel must
# write the typed value exactly; with a fallback the column unifies to
# string BLOCK-INVARIANTLY (run_both compares through ruby_to_s then —
# the documented columnar deviation, test_kernel pins it).
# one value type per dictionary (heterogeneous values hit the documented
# columnar must-unify constraint, which is its own test)
typed_dicts = st.one_of(
    st.dictionaries(keys, st.integers(min_value=-1000, max_value=10_000),
                    min_size=1, max_size=8),
    st.dictionaries(keys, st.booleans(), min_size=1, max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(
    d=typed_dicts,
    rows=source_cols,
    strategy=st.sampled_from(["exact", "exact_regex", "regex_union"]),
    override=st.booleans(),
)
def test_kernel_equals_oracle_typed_values(d, rows, strategy, override):
    cfg = TranslateConfig(
        source="s", target="t", dictionary=d, fallback=None,
        override=override,
        exact=strategy != "regex_union", regex=strategy == "exact_regex")
    run_both(cfg, [{"s": v} for v in rows])


@settings(max_examples=40, deadline=None)
@given(
    d=st.dictionaries(keys, st.integers(min_value=0, max_value=9999),
                      min_size=1, max_size=8),
    data=st.data(),
    shape=st.sampled_from(["single", "array_of_values", "array_of_maps"]),
)
def test_kernel_typed_values_fallback_all_hit(d, data, shape):
    """Rows drawn from the key set: fallback configured, all hits — the
    unified string values must equal ruby_to_s of the oracle's typed values
    in every shape (run_both's unify comparison)."""
    ks = sorted(d)
    if shape == "single":
        cfg = TranslateConfig(source="s", target="t", dictionary=d,
                              fallback="fb")
        rows = [{"s": k} for k in
                data.draw(st.lists(st.sampled_from(ks), min_size=1, max_size=8))]
    elif shape == "array_of_values":
        cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                              dictionary=d, fallback="fb")
        rows = [{"foo": v} for v in data.draw(st.lists(
            st.lists(st.sampled_from(ks), min_size=1, max_size=4),
            min_size=1, max_size=6))]
    else:
        cfg = TranslateConfig(source="bar", iterate_on="foo", target="baz",
                              dictionary=d, fallback="fb")
        rows = [{"foo": [{"bar": k} for k in v]} for v in data.draw(st.lists(
            st.lists(st.sampled_from(ks), min_size=1, max_size=4),
            min_size=1, max_size=6))]
    run_both(cfg, rows)


@settings(max_examples=40, deadline=None)
@given(
    d=st.dictionaries(keys, str_values, min_size=1, max_size=6),
    codes=st.lists(st.one_of(st.none(), keys), min_size=1, max_size=8),
    fallback=st.one_of(st.none(), st.just("fb")),
)
def test_kernel_equals_oracle_nested_source_target(d, codes, fallback):
    """Nested struct source + nested target vs the row oracle."""
    cfg = TranslateConfig(source="[meta][code]", target="[meta][cls]",
                          dictionary=d, fallback=fallback, override=True)
    rows = [{"meta": ({"code": c} if c is not None else None)} for c in codes]
    run_both(cfg, rows)


@settings(max_examples=40, deadline=None)
@given(
    d=st.dictionaries(keys, str_values, min_size=1, max_size=6),
    codes=st.lists(st.one_of(st.none(), keys), min_size=1, max_size=8),
    metas=st.data(),
    fallback=st.one_of(st.none(), st.just("fb")),
    override=st.booleans(),
)
def test_kernel_equals_oracle_nil_is_present_nested(d, codes, metas,
                                                    fallback, override):
    """nil_is_present fuzz over nested struct paths: null struct = absent,
    valid struct with null child = present-but-nil ('' lookup)."""
    cfg = TranslateConfig(source="[meta][code]", target="[meta][cls]",
                          dictionary=d, fallback=fallback,
                          override=override, nil_is_present=True)
    rows = []
    for c in codes:
        shape = metas.draw(st.sampled_from(["null", "code_null", "code"]))
        if shape == "null":
            rows.append({"meta": None})
        elif shape == "code_null":
            rows.append({"meta": {"code": None, "cls": None}})
        else:
            rows.append({"meta": {"code": c, "cls": None}})
    run_both(cfg, rows)


# ---------------------------------------------------------------------------
# Block-composition invariance (review r4): translating a table in one
# piece must equal translating slices and concatenating — same schema
# (types!), same values. This is the recurring bug class behind the
# all-excluded fast paths, fallback unify and large_string fixes.
# ---------------------------------------------------------------------------

_bc_cell = st.one_of(st.none(), st.text(
    alphabet=string.ascii_lowercase + "01é", max_size=8))
_bc_vals = st.one_of(st.none(), st.text(
    alphabet=string.ascii_lowercase + "01", max_size=8),
    st.integers(-99, 99), st.booleans())


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    d=st.dictionaries(keys, _bc_vals, max_size=6),
    rows=st.lists(_bc_cell, min_size=1, max_size=20),
    shape=st.sampled_from(["single", "values", "maps"]),
    strategy=st.sampled_from(["exact", "exact_regex", "regex_union"]),
    fallback=st.one_of(st.none(), st.just("fb"), st.just("%{s}-x")),
    override=st.booleans(),
    nilp=st.booleans(),
    nested=st.booleans(),
)
def test_block_composition_invariant(data, d, rows, shape, strategy,
                                     fallback, override, nilp, nested):
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
            source="foo", iterate_on="foo",
            target="[meta][baz]" if nested else "baz", dictionary=d,
            fallback=fallback, nil_is_present=nilp,
            exact=strategy != "regex_union", regex=strategy == "exact_regex")
    else:
        maps = [None if v is None else [{"src": v}, {"src": None}]
                for v in rows]
        tbl = pa.table({"maps": pa.array(
            maps, type=pa.list_(pa.struct([("src", pa.string())]))),
            "s": pa.array(rows, type=pa.string())})
        cfg = TranslateConfig(
            source="[src]", iterate_on="maps",
            target="[m][dst]" if nested else "[dst]", dictionary=d,
            fallback=fallback,
            exact=strategy != "regex_union", regex=strategy == "exact_regex")
    snap = DictSnapshot(d)
    whole = translate_table(tbl, cfg, snap)
    # duplicates kept deliberately: (x, x) pairs produce ZERO-ROW slices,
    # which must also come out schema-identical
    pts = sorted([0, n] + data.draw(st.lists(st.integers(0, n), max_size=4)))
    parts = [translate_table(tbl.slice(lo, hi - lo), cfg, snap)
             for lo, hi in zip(pts, pts[1:])]
    cat = pa.concat_tables(parts)   # raises on schema drift
    assert cat.schema.equals(whole.schema), (cat.schema, whole.schema)
    assert cat.to_pylist() == whole.to_pylist()


# ---------------------------------------------------------------------------
# sprintf column vs row differential (review r4): the vectorized renderer
# must agree with the row oracle over every column type incl. containers.
# ---------------------------------------------------------------------------

_sp_refs = ["s", "i", "f", "lst", "stru", "[stru][x]", "missing"]
_sp_seg = st.one_of(
    st.text(alphabet="ab 日é%!.", max_size=5).filter(lambda s: "%{" not in s),
    st.sampled_from(["%{" + r + "}" for r in _sp_refs]))
_sp_template = st.lists(_sp_seg, min_size=0, max_size=4).map("".join)


@settings(max_examples=120, deadline=None)
@given(
    tpl=_sp_template,
    rows=st.lists(st.tuples(
        st.one_of(st.none(), st.text(alphabet="xyé", max_size=6)),
        st.one_of(st.none(), st.integers(-10**6, 10**6)),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False,
                                       width=32), st.just(2.0)),
        st.one_of(st.none(), st.lists(st.one_of(st.none(), st.text(
            alphabet="pq", max_size=3)), max_size=3)),
        st.one_of(st.none(), st.fixed_dictionaries(
            {"x": st.one_of(st.none(), st.text(alphabet="mn", max_size=3))})),
    ), min_size=1, max_size=8),
)
def test_sprintf_column_equals_row(tpl, rows):
    from logstash_filter_translate_ray.sprintf import (sprintf_column,
                                                       sprintf_row)
    cols = list(zip(*rows))
    tbl = pa.table({
        "s": pa.array(cols[0], type=pa.string()),
        "i": pa.array(cols[1], type=pa.int64()),
        "f": pa.array(cols[2], type=pa.float64()),
        "lst": pa.array(cols[3], type=pa.list_(pa.string())),
        "stru": pa.array(cols[4], type=pa.struct([("x", pa.string())])),
    })
    got = sprintf_column(tpl, tbl).to_pylist()
    events = tbl.to_pylist()
    for ev in events:       # columnar convention: null cell == absent field
        for k in list(ev):
            if ev[k] is None:
                del ev[k]
        if "stru" in ev and ev["stru"].get("x") is None:
            ev["stru"].pop("x")
    assert got == [sprintf_row(tpl, ev) for ev in events]


# ---------------------------------------------------------------------------
# streaming YAML vs one_shot differential (review r4): same items for any
# safe_dump-able document, either flow style.
# ---------------------------------------------------------------------------

_y_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="abc 01:#-\"'{}[]%é\n\t._", max_size=10),
    st.sampled_from(["0755", "09", "0x1f", "1e3", "null", "true", "yes",
                     "~", "0.5", "---", ":", "a: b", "2024-01-02", "1:30"]))
_y_value = st.recursive(
    _y_scalar,
    lambda ch: st.one_of(st.lists(ch, max_size=3),
                         st.dictionaries(st.text(alphabet="kxy01", min_size=1,
                                                 max_size=4), ch, max_size=3)),
    max_leaves=6)


@settings(max_examples=120, deadline=None)
@given(d=st.dictionaries(
    st.one_of(st.text(alphabet="abc01 :#é", min_size=1, max_size=6),
              st.integers(-999, 999),
              st.sampled_from(["0755", "09", "true", "null", "1.5"])),
    _y_value, max_size=8),
    flow=st.booleans())
def test_streaming_yaml_equals_one_shot(d, flow):
    import yaml
    from logstash_filter_translate_ray.dictionary import (
        _yaml_one_shot_load, _yaml_top_level_items, streaming_yaml_pairs)
    text = yaml.safe_dump(d, default_flow_style=flow, allow_unicode=True,
                          sort_keys=False)
    one_shot = _yaml_top_level_items(_yaml_one_shot_load(text), "x.yml")
    assert list(streaming_yaml_pairs(text)) == one_shot
