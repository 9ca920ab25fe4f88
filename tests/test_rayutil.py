"""The keyed-group step (``rayutil.keyed_groups``) and its consumers.

Every operator that groups by key goes through one helper, so one
adversarial input per consumer pins the whole contract: null keys, int64
keys 2^53 and 2^53+1 (equal once promoted to float64), and one hot key.
Each consumer's sorted output must not depend on the group count or on how
the input is split into blocks, and an input filtered to zero rows must
keep the output schema."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_translate_ray import rayutil

K1, K2 = 2**53, 2**53 + 1          # distinct int64, equal as float64
HOT = 30


def test_single_int_key_keeps_group_assignment():
    """A single integer key is bucketed by the multiply-shift alone: the
    IVF join's 32 cells spread 5/4/4/4/4/4/4/3 over 8 groups (a plain
    ``hash_array % 8`` gives 5/6/5/2/6/5/1/2 and slows the per-cell
    stage)."""
    t = pa.table({"_cell": pa.array(np.arange(32), type=pa.int32())})
    groups = rayutil._bucket_of(t, ["_cell"], 8)
    assert sorted(np.bincount(groups, minlength=8).tolist(),
                  reverse=True) == [5, 4, 4, 4, 4, 4, 4, 3]
    # nulls take the zero token's bucket in every block layout
    with_null = pa.table({"k": pa.array([0, None, K1], type=pa.int64())})
    no_null = pa.table({"k": pa.array([0, K1], type=pa.int64())})
    g1 = rayutil._bucket_of(with_null, ["k"], 64)
    g2 = rayutil._bucket_of(no_null, ["k"], 64)
    assert g1[1] == g1[0] and g1[2] == g2[1]


def test_segment_starts_null_aware():
    t = pa.table({"k": pa.array([K1, K2, K2, None, None], type=pa.int64()),
                  "s": pa.array(["a", "a", "b", None, None])})
    assert rayutil._segment_starts(t, ["k"]).tolist() == [0, 1, 3]
    assert rayutil._segment_starts(t, ["k", "s"]).tolist() == [0, 1, 2, 3]
    nt = pa.table({"k": pa.array([None, None], type=pa.null())})
    assert rayutil._segment_starts(nt, ["k"]).tolist() == [0]


def _events() -> pa.Table:
    uid = [K1, K1, K2, K2, None, None, 7] + [3] * HOT
    n = len(uid)
    rng = np.random.RandomState(0)
    ts = (rng.randint(0, 4 * 3600, n) * 1_000_000).tolist()
    ts[5] = None
    etype = [f"e{i % 3}" for i in range(n)]
    etype[1] = None
    value = rng.randint(0, 500, n).astype(float).tolist()
    value[2] = None
    return pa.table({"user_id": pa.array(uid, type=pa.int64()),
                     "event_id": pa.array(np.arange(n), type=pa.int64()),
                     "ts": pa.array(ts, type=pa.timestamp("us")),
                     "event_type": pa.array(etype),
                     "value": pa.array(value, type=pa.float64())})


def _docs() -> pa.Table:
    texts = (["hot words repeated here again and again"] * HOT
             + [None, None, "", "alpha beta gamma delta epsilon zeta",
                "alpha beta gamma delta epsilon eta",
                "unrelated words entirely here now"])
    ids = [K1, K2] + list(range(100, 100 + len(texts) - 2))
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts)})


def _buckets() -> pa.Table:
    bucket = [K1, K1, K2, K2, None, None] + [0] * HOT
    ids = [1, 2, 3, K1, 5, K2] + list(range(10, 10 + HOT))
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "bucket": pa.array(bucket, type=pa.int64())})


def _pairs() -> pa.Table:
    a = [K1, K1, K1, None, None, 5] + [1] * HOT
    b = [K2, K2, 4, 5, 5, None] + [2] * HOT
    score = [0.5, 0.5, 0.25, 0.75, 0.75, 0.125] + [1.0] * HOT
    return pa.table({"id_a": pa.array(a, type=pa.int64()),
                     "id_b": pa.array(b, type=pa.int64()),
                     "score": pa.array(score, type=pa.float64())})


def _vectors() -> pa.Table:
    rng = np.random.RandomState(1)
    m = rng.randn(60, 8).astype(np.float32)
    m[:HOT] = m[0]                        # one hot LSH bucket / IVF cell
    ids = [K1, K2] + list(range(2, 60))
    return pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array(list(m), type=pa.list_(pa.float32()))})


def _groups_kw(name: str, groups):
    return {} if groups is None else {name: groups}


def _run(op: str, ds, groups, monkeypatch):
    from logstash_filter_translate_ray.functions import dedup, similarity
    from logstash_filter_translate_ray.stages import aggregate, window
    g = _groups_kw("num_groups", groups)
    if op == "exact_dedup":
        return dedup.exact_dedup(ds, **g)
    if op == "bucket_candidate_pairs":
        return dedup.bucket_candidate_pairs(ds, "bucket", "doc_id", **g)
    if op == "distinct_pairs":
        return dedup.distinct_pairs(ds, carry=("score",),
                                    carry_types={"score": pa.float64()}, **g)
    if op == "simhash_pairs":
        return dedup.simhash_pairs(ds, **g)
    if op == "ngram_jaccard_pairs":
        return dedup.ngram_jaccard_pairs(ds, threshold=0.3, concurrency=1,
                                         **g)
    if op == "embedding_neardup_pairs_lsh":
        return similarity.embedding_neardup_pairs_lsh(
            ds, threshold=0.5, as_dataset=True, **g)
    if op == "knn_join_ivf":
        return similarity.knn_join_ivf(ds, k=3, n_cells=4, n_probe=2,
                                       as_dataset=True, **g)
    if op == "grouped_quantiles":
        if groups is not None:
            monkeypatch.setattr(aggregate, "_FALLBACK_GROUPS", groups)
        return aggregate.grouped_quantiles(ds, key="user_id", qs=(0.5, 0.9),
                                           driver_partial_rows_max=0)
    fn = getattr(window, op)
    return fn(ds, **_groups_kw("num_buckets", groups))


CASES = {
    "exact_dedup": _docs, "simhash_pairs": _docs,
    "ngram_jaccard_pairs": _docs,
    "bucket_candidate_pairs": _buckets, "distinct_pairs": _pairs,
    "embedding_neardup_pairs_lsh": _vectors, "knn_join_ivf": _vectors,
    "prev_event_gap": _events, "session_counts": _events,
    "event_paths": _events, "grouped_quantiles": _events,
}


def _rows(out) -> list:
    """Order-free, exact rows: Python values from Arrow (int64 keys stay
    exact even next to nulls, unlike a pandas float64 column)."""
    rows = out.to_dict("records") if isinstance(out, pd.DataFrame) \
        else out.take_all()
    return sorted(repr(sorted(r.items())) for r in rows)


def _schema(out):
    """(names, types); a pandas result (e.g. grouped_quantiles on an
    all-empty input) has names only."""
    if isinstance(out, pd.DataFrame):
        return list(out.columns), None
    sch = out.schema()
    return sch.names, [str(t) for t in sch.types]


@pytest.mark.parametrize("op", sorted(CASES))
def test_keyed_group_consumers_layout_invariant(ray_session, monkeypatch, op):
    import ray.data as rd
    tbl = CASES[op]()
    n = len(tbl)
    # the first cut splits the K2 rows between a null-free block and a
    # block with nulls (the layout that once scattered a key's bucket)
    blocks = [tbl.slice(0, 3), tbl.slice(3, n // 2 - 3),
              tbl.slice(n // 2)]
    base = _run(op, rd.from_arrow(tbl), None, monkeypatch)
    want = _rows(base)
    assert want, op                       # the input exercises the op
    assert _rows(_run(op, rd.from_arrow(tbl), 1, monkeypatch)) == want
    assert _rows(_run(op, rd.from_arrow(blocks), None, monkeypatch)) == want
    # an expression filter keeps the input schema on its empty blocks; a
    # row-UDF filter that drops every row leaves Ray with no input schema
    # at all, which only the literal-schema consumers could anchor
    no_rows = rd.from_arrow(tbl).filter(expr=f"{tbl.column_names[0]} < 0")
    empty = _run(op, no_rows, None, monkeypatch)
    assert _rows(empty) == []
    (names, types), (want_names, want_types) = _schema(empty), _schema(base)
    assert names == want_names
    assert types is None or types == want_types
