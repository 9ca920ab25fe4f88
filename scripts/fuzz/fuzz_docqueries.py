"""Differential fuzz: the REAL document-table queries() entries vs their
registered oracle_sql() over adversarial text.

The driver and test_entry.py only ever compare on the well-behaved
synthetic corpus; this harness re-runs the same comparison on
hypothesis-generated documents tables — unicode garbage, empty strings,
nulls, whitespace exotica (NBSP, vertical tab, unicode spaces), regex
metacharacters, newline-only docs, duplicate texts (dedup paths), and
near-duplicate word soups (jaccard/minhash paths).

Runs every sf_dir-parameterized query that reads ONLY the documents table.
Owns a Ray session.
"""
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from hypothesis import given, settings, strategies as st, HealthCheck

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as entry_mod
from fuzz_common import compare_result

QUERIES = ["token_count", "langid", "quality_scores", "fingerprint",
           "dedup_exact", "curation_pipeline", "winnow",
           "repetition_scores", "vocab_topk", "jaccard_pairs", "simhash",
           "minhash_pairs", "hash_sample", "split_counts", "weighted_mix",
           "incremental_dedup"]
# full run is ~15 min; FUZZ_SLICE="i/n" checks the i-th of n query shards
# against the SAME derandomized tables (full coverage in n short runs)
_slice = os.environ.get("FUZZ_SLICE")
if _slice:
    i, n = (int(x) for x in _slice.split("/"))
    QUERIES = QUERIES[i::n]

# word soup biased toward stopwords/ascii (hits langid+quality branches)
WORDS = ["the", "and", "is", "de", "la", "el", "und", "der", "le", "et",
         "data", "Ray", "x", "α", "ß", "日本", "ёж", "a.b", "?!", "--",
         "<tag>", "\\S+", "(x)", "[a]", "0", "42", "3.14"]
word_text = st.lists(st.sampled_from(WORDS), min_size=0, max_size=25).map(
    " ".join)
raw_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00",
                           exclude_categories=("Cs",)),
    max_size=40)
ws_text = st.lists(
    st.sampled_from(["", " ", "\t", "\n", " ", " ", "\x0b",
                     "word", "line one\nline one\nline two"]),
    max_size=6).map("".join)
doc_text = st.one_of(st.none(), word_text, raw_text, ws_text)


def _mk_sfdir(texts) -> str:
    d = tempfile.mkdtemp(prefix="fuzz_docq_")
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


def _compare(sf_dir: str, names) -> None:
    qs, sqls = entry_mod.queries(), entry_mod.oracle_sql()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{os.path.join(sf_dir, 'documents.parquet')}')")
    for name in names:
        got = qs[name](sf_dir)
        want = con.execute(sqls[name]).df()
        compare_result(name, got, want)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(texts=st.lists(doc_text, min_size=1, max_size=12),
       dup_idx=st.lists(st.integers(min_value=0, max_value=11), max_size=6))
def fuzz_doc_queries(texts, dup_idx):
    # splice in duplicates of existing rows so dedup/jaccard/minhash see
    # identical and near-identical texts
    full = list(texts)
    for i in dup_idx:
        if i < len(texts) and texts[i] is not None:
            full.append(texts[i])
            full.append(texts[i] + " tail")
    d = _mk_sfdir(full)
    try:
        _compare(d, QUERIES)
    finally:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    fuzz_doc_queries(); print("fuzz_doc_queries OK")
    ray.shutdown()
