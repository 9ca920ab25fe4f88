"""Round-5 regression tests: the three r4 ADVICE findings plus the
round-5 VERDICT tasks (missing_file_ok) as they land. The IVF kNN join
tests live in tests/test_similarity.py and its spec clause, post-filter
schema and spill-pressure smoke tests in tests/test_pipeline.py; the
missing_file_ok translate_dataset test lives in
tests/test_translate_stage.py; the value_array coercion test in
tests/test_kernel.py; the window-segment null-key and
grouped-partial top-k tests live in tests/test_null_keys.py; the four
dictionary-value rendering tests (bool/float, bytes, mixed numeric,
binary merge) in tests/test_kernel.py. 3 tests remain here."""

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
