"""Round-5 regression tests: the three r4 ADVICE findings plus the
round-5 VERDICT tasks (missing_file_ok) as they land. The IVF kNN join
tests live in tests/test_similarity.py and its spec clause, post-filter
schema and spill-pressure smoke tests in tests/test_pipeline.py; the
missing_file_ok translate_dataset test lives in
tests/test_translate_stage.py; the value_array coercion test in
tests/test_kernel.py; the window-segment null-key and
grouped-partial top-k tests live in tests/test_null_keys.py."""

import os

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
