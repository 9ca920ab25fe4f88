"""Differential fuzz: the exact embedding queries (ann_topk, knn_join,
embedding_neardup) vs their DuckDB oracles over adversarial vectors —
ZERO vectors (engine convention: cosine 0 to everything; DuckDB's raw
list_cosine_similarity says -1 — the oracles carry the CASE mirror),
duplicate and negated vectors (exact score ties → id tie-break), scaled
copies (cosine 1), and a query vector (vec_id 0) that may itself be zero.
On the same tables, for k in 1, 3 and 7: exact knn_join at two-row
blocks and full-probe knn_join_ivf (default and two-row tiles) must
equal the default knn_join.

Entries are dyadic rationals so float32 storage and the engine's float64
math agree bit-for-bit on equality of tied scores. Owns a Ray session.
"""
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from hypothesis import HealthCheck, given, settings, strategies as st

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as entry_mod
from fuzz_common import compare_result

QUERIES = ["ann_topk", "knn_join", "embedding_neardup"]
KS = (1, 3, 7)        # k of the knn self-comparisons
DIM = 8

entry = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0])
vec = st.lists(entry, min_size=DIM, max_size=DIM)


def _mk_sfdir(vecs) -> str:
    d = tempfile.mkdtemp(prefix="fuzz_emb_")
    n = len(vecs)
    flat = pa.array(np.asarray(vecs, dtype=np.float32).reshape(-1),
                    type=pa.float32())
    offs = pa.array(np.arange(0, (n + 1) * DIM, DIM, dtype=np.int32))
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.ListArray.from_arrays(offs, flat),
        "label": pa.array(np.zeros(n, dtype=np.int32)),
    })
    pq.write_table(tbl, os.path.join(d, "embeddings.parquet"))
    return d


def _compare(sf_dir: str, names) -> None:
    qs, sqls = entry_mod.queries(), entry_mod.oracle_sql()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{os.path.join(sf_dir, 'embeddings.parquet')}')")
    for name in names:
        got = qs[name](sf_dir)
        want = con.execute(sqls[name]).df()
        compare_result(name, got, want)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(vecs=st.lists(vec, min_size=1, max_size=12),
       dup_idx=st.lists(st.integers(0, 11), max_size=4),
       zero_first=st.booleans())
def fuzz_emb_queries(vecs, dup_idx, zero_first):
    full = list(vecs)
    for i in dup_idx:                       # exact ties and negations
        if i < len(vecs):
            full.append(list(vecs[i]))
            full.append([-x for x in vecs[i]])
    if zero_first:                          # a zero QUERY vector too
        full[0] = [0.0] * DIM
    d = _mk_sfdir(full)
    try:
        _compare(d, QUERIES)
        # the IVF kNN join at FULL probe must equal the exact kernel
        # bit-for-bit on any input (ties, zeros, negations, duplicates) —
        # exactness is layout-independent, unlike the recall gate — and so
        # must both joins at the smallest tiles (two-row blocks for the
        # exact join, two-row query/member tiles inside the IVF cells)
        import ray.data as rd
        from logstash_filter_translate_ray.functions import similarity
        p = os.path.join(d, "embeddings.parquet")

        def read():
            return rd.read_parquet(p, columns=["vec_id", "embedding"])

        # k=7 sets each row's running floor only after several tiles
        for k in KS:
            exact = similarity.knn_join(read(), k=k)
            pd.testing.assert_frame_equal(
                similarity.knn_join(read(), k=k, target_block_rows=2), exact)
            pd.testing.assert_frame_equal(
                similarity.knn_join_ivf(read(), k=k, n_cells=4, n_probe=4),
                exact)
            tile = similarity._TILE_ROWS
            similarity._TILE_ROWS = 2
            try:
                fullp = similarity.knn_join_ivf(read(), k=k, n_cells=4,
                                                n_probe=4)
            finally:
                similarity._TILE_ROWS = tile
            pd.testing.assert_frame_equal(fullp, exact)
    finally:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    fuzz_emb_queries(); print("fuzz_emb_queries OK")
    ray.shutdown()
