"""Pinned falsifiers from scripts/fuzz/fuzz_docqueries.py (adversarial
documents corpora vs the registered oracle_sql): zero-word docs pair at
J(∅,∅)=1 in jaccard/minhash (oracle [''] singleton, not NULL 0/0);
winnow's fp8 renders an EMPTY fingerprint list as NULL like DuckDB's
array_to_string([]); hash_sample and incremental_dedup keep their
projected column list when the result is empty; vocab_topk returns a
typed 0-row table on an all-null corpus."""

import os
import shutil
import tempfile

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

import __ray_entry__ as entry_mod


def _mk_sfdir(texts) -> str:
    d = tempfile.mkdtemp(prefix="fuzzreg_")
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * len(texts), type=pa.string()),
        "source": pa.array(["fuzz"] * len(texts), type=pa.string()),
        "n_chars": pa.array([len(t) if t else 0 for t in texts],
                            type=pa.int64()),
    })
    pq.write_table(tbl, os.path.join(d, "documents.parquet"))
    return d


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _compare(sf_dir: str, names) -> None:
    qs, sqls = entry_mod.queries(), entry_mod.oracle_sql()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{os.path.join(sf_dir, 'documents.parquet')}')")
    for name in names:
        got = qs[name](sf_dir)
        want = con.execute(sqls[name]).df()
        if isinstance(got, ray.data.Dataset):
            if len(want) == 0:
                # Ray drops ALL columns of a fully-empty dataset at
                # to_pandas/write time; the engine contract on empties is
                # Dataset.schema() — the rayutil docstring's schema rule
                sch = got.schema()
                assert sch is not None, f"{name}: empty result lost schema"
                assert sorted(sch.names) == sorted(want.columns), \
                    (name, sch.names, list(want.columns))
                assert got.count() == 0, name
                continue
            got = got.to_pandas()
        elif isinstance(got, pa.Table):
            got = got.to_pandas()
        g, w = _canon(got), _canon(want)
        assert list(g.columns) == list(w.columns), (name, g.columns)
        assert len(g) == len(w), (name, len(g), len(w))
        pd.testing.assert_frame_equal(g, w, check_dtype=False,
                                      check_like=True, obj=name)


@pytest.mark.parametrize("texts,queries", [
    # three '\t' docs + two '\t tail' docs: zero-word docs share
    # _EMPTY_SHINGLE and pair at J=1 — oracle must agree ([''] singleton)
    (["\t", "ꋶwF偅Ó", "de <tag> la", "\t", "\t tail",
      "\t", "\t tail"], ["jaccard_pairs", "minhash_pairs"]),
    # '' text: fp8 NULL (array_to_string([]) is NULL in DuckDB), and the
    # single-doc corpus exercises langid/quality/token edges alongside
    ([""], ["winnow", "token_count", "langid", "quality_scores"]),
    # doc '0' hash-samples OUT → empty Dataset must keep ['doc_id']
    (["0"], ["hash_sample"]),
    # all-null corpus → vocab_topk returns a typed 0-row arrow table
    ([None], ["vocab_topk", "winnow", "dedup_exact", "curation_pipeline"]),
    # \x0b and NBSP are whitespace to utf8_split_whitespace but NOT to
    # RE2's \s — the oracles must use text.UNICODE_TOKEN_RE; 'a\xa0a a'
    # and 'a a a' tokenize identically, and 'a\x0ba a' has a duplicate
    # word only under the Unicode split
    ([None, "\x0bword", "a\xa0a a", "a a a", "a\x0ba a"],
     ["vocab_topk", "simhash", "repetition_scores", "jaccard_pairs",
      "minhash_pairs"]),
    # doc '' is in its own seen set (doc_id < 250) → every row dropped →
    # the empty Dataset must keep ['doc_id']
    ([""], ["incremental_dedup"]),
])
def test_fuzz_falsifiers_pinned(ray_session, texts, queries):
    d = _mk_sfdir(texts)
    try:
        _compare(d, queries)
    finally:
        shutil.rmtree(d, ignore_errors=True)


def test_unicode_token_re_matches_arrow_split():
    """text.UNICODE_WS_CLASS must equal Arrow utf8_split_whitespace's
    whitespace set EXACTLY — enumerated over the BMP + SMP start (the
    Unicode White_Space property has no members above 0x3000)."""
    import pyarrow.compute as pc

    from logstash_filter_translate_ray.functions.text import UNICODE_WS_CLASS

    chars = [chr(c) for c in range(0x20000) if not (0xD800 <= c <= 0xDFFF)]
    arr = pa.array([f"a{c}b" for c in chars])
    lens = pc.list_value_length(pc.utf8_split_whitespace(arr)).to_numpy()
    arrow_ws = {chars[i] for i in range(len(chars)) if lens[i] >= 2}
    con = duckdb.connect()
    got = con.execute(
        "SELECT c FROM (SELECT unnest(?) AS c) "
        f"WHERE regexp_matches(c, '^{UNICODE_WS_CLASS}$')", [chars])
    duck_ws = {r[0] for r in got.fetchall()}
    assert duck_ws == arrow_ws, sorted(
        hex(ord(c)) for c in duck_ws ^ arrow_ws)
