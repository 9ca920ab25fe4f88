"""The keyed exchange (``rayutil.keyed_groups``/``keyed_aggregate``/
``keyed_join``) and its consumers.

Every operator that groups by key goes through one helper, so one
adversarial input per consumer pins the whole contract: null keys, int64
keys 2^53 and 2^53+1 (equal once promoted to float64), and one hot key.
Each consumer's sorted output must not depend on the group count or on how
the input is split into blocks, and an input filtered to zero rows must
keep the output schema, with Ray's own join/repartition/groupby/sort/
unique patched to raise. The exchange itself (split task per block, reduce
task per bucket) is pinned directly: one group, mostly-empty buckets,
schema-less empty upstream blocks, all-empty inputs and a reduce worker
that dies once; so is the join's SQL contract."""

import logging
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_translate_ray import rayutil

K1, K2 = 2**53, 2**53 + 1          # distinct int64, equal as float64
HOT = 30
_GROUP_BYTES, _MAX_GROUPS = rayutil._GROUP_BYTES, rayutil._MAX_GROUPS
_SPLIT_ALL = rayutil._split_all
MANY = 64                          # group bytes that give test inputs G > 1


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


def _run(op: str, ds, group_bytes, monkeypatch, seen=None):
    """``op`` over ``ds`` with the exchange sized at ``group_bytes`` per
    group (None: the real rule, one group at these sizes); each G the
    exchange splits by is appended to ``seen``."""
    from logstash_filter_translate_ray.functions import (dedup, similarity,
                                                         text)
    from logstash_filter_translate_ray.stages import aggregate, window
    import ray.data as rd
    monkeypatch.setattr(rayutil, "_GROUP_BYTES", group_bytes or _GROUP_BYTES)

    def recorded(blocks, keys, num_groups, pre=None):
        if seen is not None:
            seen.append(num_groups)
        return _SPLIT_ALL(blocks, keys, num_groups, pre)

    monkeypatch.setattr(rayutil, "_split_all", recorded)
    # every keyed operator runs on the package's own exchange
    for name in ("join", "repartition", "groupby", "sort", "unique"):
        def banned(*a, _name=name, **kw):
            raise AssertionError(f"Dataset.{_name} called")
        monkeypatch.setattr(rd.Dataset, name, banned)
    if op == "exact_dedup":
        return dedup.exact_dedup(ds)
    if op == "bucket_candidate_pairs":
        return dedup.bucket_candidate_pairs(ds, "bucket", "doc_id")
    if op == "distinct_pairs":
        return dedup.distinct_pairs(ds, carry=("score",),
                                    carry_types={"score": pa.float64()})
    if op == "simhash_pairs":
        return dedup.simhash_pairs(ds)
    if op == "ngram_jaccard_pairs":
        return dedup.ngram_jaccard_pairs(ds, threshold=0.3, concurrency=1)
    if op == "embedding_neardup_pairs_lsh":
        return similarity.embedding_neardup_pairs_lsh(
            ds, threshold=0.5, as_dataset=True)
    if op == "knn_join_ivf":
        return similarity.knn_join_ivf(ds, k=3, n_cells=4, n_probe=2,
                                       as_dataset=True)
    if op == "exact_dedup_ids":
        return dedup.exact_dedup_ids(ds)
    if op == "vocab_topk":
        return text.vocab_topk(ds, k=5)
    if op == "grouped_counts":
        return aggregate.grouped_counts(ds, ["user_id"], driver_merge=False)
    if op == "grouped_topk":
        return aggregate.grouped_topk(ds, ["user_id"], k=3)
    if op == "minhash_dedup":
        return dedup.minhash_dedup(ds, cc="distributed", concurrency=1)[0]
    if op == "incremental_dedup":
        # no broadcast: both the semi and the anti join run
        monkeypatch.setattr(dedup, "_BROADCAST_MAX_SEEN", 0)
        return dedup.incremental_dedup(ds, ds.filter(expr="doc_id < 104"))
    if op == "knn_join":                  # the re-split into 16-row blocks
        return similarity.knn_join(ds, k=3, target_block_rows=16)
    if op == "grouped_quantiles":
        return aggregate.grouped_quantiles(ds, key="user_id", qs=(0.5, 0.9),
                                           driver_partial_rows_max=0)
    return getattr(window, op)(ds)


CASES = {
    "exact_dedup": _docs, "simhash_pairs": _docs,
    "ngram_jaccard_pairs": _docs,
    "bucket_candidate_pairs": _buckets, "distinct_pairs": _pairs,
    "embedding_neardup_pairs_lsh": _vectors, "knn_join_ivf": _vectors,
    "prev_event_gap": _events, "session_counts": _events,
    "event_paths": _events, "grouped_quantiles": _events,
    "exact_dedup_ids": _docs, "vocab_topk": _docs,
    "grouped_counts": _events, "grouped_topk": _events,
    "minhash_dedup": _docs, "incremental_dedup": _docs, "knn_join": _vectors,
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
    many, one = [], []
    base = _run(op, rd.from_arrow(tbl), MANY, monkeypatch, many)
    want = _rows(base)
    assert want, op                       # the input exercises the op
    assert _rows(_run(op, rd.from_arrow(tbl), None, monkeypatch, one)) \
        == want
    assert _rows(_run(op, rd.from_arrow(blocks), MANY, monkeypatch)) == want
    # the exchanges ran at many groups, then at one (knn_join runs none)
    assert set(one) <= {1}
    assert max(many) > 1 if op != "knn_join" else not many
    # an expression filter keeps the input schema on its empty blocks; a
    # row-UDF filter that drops every row leaves Ray with no input schema
    # at all, which only the literal-schema consumers could anchor
    no_rows = rd.from_arrow(tbl).filter(expr=f"{tbl.column_names[0]} < 0")
    empty = _run(op, no_rows, MANY, monkeypatch)
    assert _rows(empty) == []
    (names, types), (want_names, want_types) = _schema(empty), _schema(base)
    assert names == want_names
    assert types is None or types == want_types


# --------------------------------------------------------------------------
# The exchange's own contract, with one per-key fn: row count and the
# smallest ``v`` of each key (the first row under ``order_by=["v"]``)
# --------------------------------------------------------------------------

_KV_SCHEMA = pa.schema([("k", pa.int64()), ("n", pa.int64()),
                        ("first", pa.int64())])
SCHEMAS = {
    "literal": _KV_SCHEMA,
    "callable": lambda s: pa.schema([s.field("k"), ("n", pa.int64()),
                                     s.field("v").with_name("first")]),
    "none": None,
}


def _kv(n: int, seed: int = 0) -> pa.Table:
    rng = np.random.RandomState(seed)
    k = [None if i % 9 == 4 else int(x)
         for i, x in enumerate(rng.randint(0, 7, n))]
    return pa.table({"k": pa.array(k, type=pa.int64()),
                     "v": pa.array(rng.permutation(n), type=pa.int64())})


def _key_counts_fn():
    """The per-key fn as a closure: cloudpickle ships it by value, since
    the workers cannot import this test module by name."""
    def key_counts(t: pa.Table, starts) -> pa.Table:
        idx = pa.array(starts)
        return pa.table({"k": t["k"].take(idx),
                         "n": pa.array(np.diff(np.append(starts, len(t))),
                                       type=pa.int64()),
                         "first": t["v"].take(idx)})
    return key_counts


def _want(t: pa.Table) -> list:
    agg = {}
    for k, v in zip(t["k"].to_pylist(), t["v"].to_pylist()):
        n, first = agg.get(k, (0, v))
        agg[k] = (n + 1, min(first, v))
    return sorted(repr(sorted({"k": k, "n": n, "first": f}.items()))
                  for k, (n, f) in agg.items())


def _groups(ds, schema, num_groups, fn=None):
    return rayutil.keyed_groups(ds, ["k"], fn or _key_counts_fn(), schema,
                                num_groups, order_by=["v"])


def test_keyed_groups_one_group(ray_session):
    import ray.data as rd
    t = _kv(60)
    out = _groups(rd.from_arrow([t.slice(0, 25), t.slice(25)]), _KV_SCHEMA, 1)
    assert _rows(out) == _want(t)
    assert out.num_blocks() == 1                  # one reduce task


def test_keyed_groups_pre_block_fn(ray_session, monkeypatch):
    """``pre`` maps each input block inside its split task, before the
    bucketing: the groups are those of the mapped rows, and over a
    materialized input the exchange runs no Ray Data execution."""
    import pyarrow.compute as pc
    import ray.data as rd
    t = _kv(60)

    def pre(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["v"], 10))
        return b.set_column(1, "v", pc.negate(b["v"]))

    ds = rd.from_arrow([t.slice(0, 25), t.slice(25)]).materialize()
    with monkeypatch.context() as mp:
        for name in ("map_batches", "iter_batches", "to_pandas"):
            mp.setattr(rd.Dataset, name, None)
        out = rayutil.keyed_groups(ds, ["k"], _key_counts_fn(), _KV_SCHEMA,
                                   4, order_by=["v"], pre=pre)
    assert _rows(out) == _want(pre(t))


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_keyed_groups_more_groups_than_rows(ray_session, kind):
    """5 rows over 64 buckets: most buckets are empty and get no reduce
    task; the schema argument only matters when every bucket is empty."""
    import ray.data as rd
    t = _kv(5)
    out = _groups(rd.from_arrow([t.slice(0, 2), t.slice(2)]), SCHEMAS[kind],
                  64)
    assert _rows(out) == _want(t)
    assert out.schema().base_schema == _KV_SCHEMA
    assert out.num_blocks() <= len({*t["k"].to_pylist()})


def test_keyed_groups_schemaless_empty_upstream_blocks(ray_session):
    """A row-UDF stage may emit zero-row blocks with no columns at all;
    they pass the split without their key columns being read, and the
    callable anchor still comes from a block that has a schema."""
    import ray
    import ray.data as rd
    t = _kv(40)
    drop = [i % 3 == 1 for i in range(4)]
    blocks = [t.slice(10 * i, 10).append_column(
        "drop", pa.array([d] * 10)) for i, d in enumerate(drop)]

    def drop_some(b: pa.Table) -> pa.Table:
        return pa.table({}) if b["drop"][0].as_py() \
            else b.drop_columns(["drop"])

    ds = rd.from_arrow(blocks).map_batches(drop_some, batch_format="pyarrow",
                                           batch_size=None)
    kept = pa.concat_tables([b.drop_columns(["drop"])
                             for b, d in zip(blocks, drop) if not d])
    assert _rows(_groups(ds, SCHEMAS["callable"], 8)) == _want(kept)
    # a block whose metadata does not mark it empty reaches the split task
    *_, counts = ray.get(rayutil._split_block.options(num_returns=3).remote(
        pa.table({}), ["k"], 2))
    assert counts.tolist() == [0, 0]
    # every block schema-less: only a literal schema can anchor
    none_left = rd.from_arrow(blocks).map_batches(
        lambda b: pa.table({}), batch_format="pyarrow", batch_size=None)
    assert _groups(none_left, SCHEMAS["callable"], 8).schema() is None
    assert _groups(none_left, _KV_SCHEMA, 8).schema().base_schema \
        == _KV_SCHEMA


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_keyed_groups_all_empty_input_keeps_schema(ray_session, kind):
    """An expression filter keeps the input schema on its empty blocks, so
    the literal and the derived anchor both survive; None anchors
    nothing. A fn that emits no rows for any group anchors the same."""
    import ray.data as rd
    t = _kv(30)
    no_rows = rd.from_arrow(t).filter(expr="v < 0")
    outs = [_groups(no_rows, SCHEMAS[kind], 8),
            _groups(rd.from_arrow(t), SCHEMAS[kind], 8,
                    fn=lambda tb, starts: _KV_SCHEMA.empty_table())]
    for out in outs:
        assert out.take_all() == []
        sch = out.schema()
        assert (sch is None) if kind == "none" \
            else sch.base_schema == _KV_SCHEMA


def test_keyed_groups_exactly_once_under_task_retry(ray_session, tmp_path):
    """One reduce task's worker dies on its first attempt; Ray retries the
    task from the split outputs, and the result equals a no-fault run."""
    import ray.data as rd
    t = _kv(200)
    blocks = [t.slice(i, 50) for i in range(0, 200, 50)]
    clean = _rows(_groups(rd.from_arrow(blocks), _KV_SCHEMA, 4))
    assert clean == _want(t)

    marker = str(tmp_path / "died_once")
    key_counts = _key_counts_fn()

    def die_once(tb: pa.Table, starts) -> pa.Table:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return key_counts(tb, starts)
        os.close(fd)
        os._exit(1)

    retried = _groups(rd.from_arrow(blocks), _KV_SCHEMA, 4, fn=die_once)
    assert os.path.exists(marker)               # the fault did fire
    assert _rows(retried) == clean


# --------------------------------------------------------------------------
# keyed_join: Arrow's hash join per bucket, SQL semantics
# --------------------------------------------------------------------------

BIG = 2**63 + 5                       # a uint64 key above int64's range


def _join_sides():
    left = pa.table({"k": pa.array([1, 2, None, BIG, BIG + 1, 2],
                                   type=pa.uint64()),
                     "v": pa.array(np.arange(6), type=pa.int64())})
    right = pa.table({"kk": pa.array([2, None, BIG, 9], type=pa.uint64()),
                      "w": pa.array(["a", "b", "c", "d"])})
    return left, right


def _join(left, right, how):
    import ray.data as rd
    return rayutil.keyed_join(
        rd.from_arrow([left.slice(0, 2), left.slice(2)]),
        rd.from_arrow(right), ["k"], ["kk"], how=how)


@pytest.mark.parametrize("how,want", [
    ("inner", [(2, 1, "a"), (2, 5, "a"), (BIG, 3, "c")]),
    ("left semi", [(2, 1), (2, 5), (BIG, 3)]),
    ("left anti", [(1, 0), (None, 2), (BIG + 1, 4)]),
])
def test_keyed_join_sql_semantics(ray_session, monkeypatch, how, want):
    """A null key never matches (so the anti join keeps it), and uint64
    keys ≥ 2^63 join exactly; one group gives the same rows."""
    left, right = _join_sides()
    for num_groups in (4, 1, None):
        # a forced G (one group per byte, at most num_groups), or the rule
        monkeypatch.setattr(rayutil, "_GROUP_BYTES",
                            1 if num_groups else _GROUP_BYTES)
        monkeypatch.setattr(rayutil, "_MAX_GROUPS",
                            num_groups or _MAX_GROUPS)
        out = _join(left, right, how)
        got = sorted((tuple(r.values()) for r in out.take_all()),
                     key=repr)
        assert got == sorted(want, key=repr), (how, num_groups)
        assert out.num_blocks() <= (
            num_groups or rayutil.group_count(left.nbytes + right.nbytes))


def test_group_count_rule(ray_session, monkeypatch):
    """G = clamp(ceil(bytes / _GROUP_BYTES), 1, _MAX_GROUPS), from the
    bytes the input blocks report; a join sizes one G from both sides."""
    import ray.data as rd
    gb = rayutil._GROUP_BYTES
    assert rayutil.group_count(0) == 1
    assert rayutil.group_count(gb) == 1
    assert rayutil.group_count(gb + 1) == 2
    assert rayutil.group_count(10**15) == rayutil._MAX_GROUPS

    left, right = _join_sides()
    lds = rd.from_arrow([left.slice(0, 2), left.slice(2)])
    rds = rd.from_arrow(right)
    lbytes = rayutil._input_blocks(lds)[1]
    rbytes = rayutil._input_blocks(rds)[1]
    assert lbytes and rbytes
    # each side alone fits one group; the two together need two
    monkeypatch.setattr(rayutil, "_GROUP_BYTES", max(lbytes, rbytes))
    seen = []
    monkeypatch.setattr(rayutil, "_split_all", lambda blocks, keys, g:
                        seen.append(g) or _SPLIT_ALL(blocks, keys, g))
    out = rayutil.keyed_join(lds, rds, ["k"], ["kk"])
    assert seen == [2, 2]
    assert sorted(r["v"] for r in out.take_all()) == [1, 3, 5]


@pytest.mark.parametrize("how", ["inner", "left semi", "left anti"])
def test_keyed_join_empty_side_anchors_schema(ray_session, how):
    """With either side filtered to zero rows the result keeps the schema
    of Arrow's own join over the two empty tables."""
    left, right = _join_sides()
    want = left.schema.empty_table().join(
        right.schema.empty_table(), keys=["k"], right_keys=["kk"],
        join_type=how).schema
    for l, r in ((left.slice(0, 0), right), (left, right.slice(0, 0))):
        out = _join(l, r, how)
        if how == "left anti" and len(l):
            assert out.count() == len(l)          # nothing to subtract
        else:
            assert out.take_all() == []
        assert out.schema().base_schema == want


def test_concat_pandas_metadata_no_schema_hash(caplog):
    """Slices of a table carrying pandas schema metadata concatenate
    without Ray's schema-unify path, whose schema hash fails on it."""
    t = pa.Table.from_pandas(pd.DataFrame({"a": [1, 2, 3]}))
    assert b"pandas" in t.schema.metadata
    logger = logging.getLogger("ray.data")
    logger.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING):
            out = rayutil._concat([t.slice(0, 1), t.slice(1)])
    finally:
        logger.removeHandler(caplog.handler)
    assert out.equals(t)
    assert "Failed to hash" not in caplog.text


def test_dataset_from_is_data(ray_session, monkeypatch):
    """_dataset_from pins the Ray Data internals it builds on: the Dataset
    reports its rows, unified schema and blocks from the given metadata,
    hands back the same refs with no executor run, and a map_batches over
    it works — with no from_arrow metadata task anywhere."""
    import ray
    import ray.data as rd
    from ray.data import read_api
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)
    from ray.data._internal.util import get_table_block_metadata_schema

    tables = [pa.table({"a": [1, 2, 3], "b": [None, None, None]}),
              pa.table({"a": [4], "b": ["x"]})]
    refs = [ray.put(t) for t in tables]
    remote_fns, cached = [], read_api.cached_remote_fn
    monkeypatch.setattr(read_api, "cached_remote_fn",
                        lambda fn, **kw: remote_fns.append(fn)
                        or cached(fn, **kw))
    with monkeypatch.context() as m:
        def boom(*a, **kw):
            raise AssertionError("Ray Data execution")
        m.setattr(StreamingExecutor, "execute", boom)
        ds = rayutil._dataset_from(
            [(r, rayutil.block_meta(t)) for r, t in zip(refs, tables)])
        assert ds.count() == 4
        assert ds.num_blocks() == 2
        assert ds.schema().base_schema == pa.schema(
            [("a", pa.int64()), ("b", pa.string())])
        assert ds.to_arrow_refs() == refs
    doubled = ds.map_batches(
        lambda t: t.set_column(0, "a", pa.compute.multiply(t["a"], 2)),
        batch_format="pyarrow", batch_size=None)
    assert sorted(r["a"] for r in doubled.take_all()) == [2, 4, 6, 8]
    assert get_table_block_metadata_schema not in remote_fns


def test_map_blocks_schema_is_recorded(ray_session, monkeypatch, tmp_path):
    """map_blocks records its schema in the slot Ray's ``schema()`` reads
    first (``ExecutionPlan.cache_schema``): a chain over either parquet
    read, or over a filter of a read or of a 0-row data plan, built and
    asked for its schema, runs no Ray Data execution, and neither does a
    routed spec's route check before its write."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from logstash_filter_translate_ray.pipelines import spec
    from logstash_filter_translate_ray.sources.readers import ParquetFiles

    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"a": [1, 2], "role": ["user", "bot"]}), path)
    routed = {"input": {"path": path},
              "filters": [{"keep": {"column": "a", "op": ">", "value": 0}}],
              "route": {"key": "role", "routes": {"user": "u"}},
              "output": {"path": str(tmp_path / "out")}}
    writes = []
    monkeypatch.setattr(spec, "write_routed",
                        lambda ds, out, **kw: writes.append(out))
    with monkeypatch.context() as m:
        def boom(*a, **kw):
            raise AssertionError("Ray Data execution")
        m.setattr(StreamingExecutor, "execute", boom)
        empty = pa.table({"a": pa.array([], pa.int64())})
        for read in (rd.read_datasource(ParquetFiles(path, ["a"])),
                     rd.read_parquet(path, columns=["a"]),
                     rd.read_parquet(path, columns=["a"]).filter(
                         expr="a > 5"),
                     rd.from_arrow(empty).filter(expr="a > 5")):
            ds = rayutil.map_blocks(read, lambda t: t.append_column(
                "b", pa.compute.multiply(t["a"], 2)))
            ds = rayutil.map_blocks(ds, lambda t: t.select(["b"]))
            assert ds.schema().base_schema == pa.schema([("b", pa.int64())])
        ds = spec.build_from_spec(routed)
        assert "route" in ds.schema().names
        spec._write_sink(ds, routed, routed["output"]["path"])
    assert writes == [routed["output"]["path"]]


ROUTES = {"user": "u", "assistant": "a", "tool": "t"}


def _chain_input(src) -> str:
    """Transcript files of 0, 300 and 500 rows; every 7th role is null (a
    null route)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from logstash_filter_translate_ray.sources.transcripts import (
        make_transcripts)

    tbl = make_transcripts(800, seed=5)
    tbl = tbl.set_column(
        tbl.column_names.index("role"), "role",
        pc.if_else(pa.array([i % 7 == 0 for i in range(len(tbl))]),
                   pa.scalar(None, pa.string()), tbl["role"]))
    os.makedirs(src)
    for i, (start, n) in enumerate([(0, 0), (0, 300), (300, 500)]):
        pq.write_table(tbl.slice(start, n), os.path.join(src, f"p{i}.parquet"))
    return str(src)


def _routed(out_dir) -> dict:
    """{route directory: (its schema, its rows sorted by conv_id and
    turn_idx)} of a routed parquet sink."""
    import pyarrow.dataset as pads

    got = {}
    for d in sorted(os.listdir(out_dir)):
        t = pads.dataset(os.path.join(out_dir, d), format="parquet") \
            .to_table()
        got[d] = (t.schema, t.sort_by([("conv_id", "ascending"),
                                       ("turn_idx", "ascending")]))
    return got


def _assert_same_sink(got: dict, want: dict) -> None:
    assert list(got) == list(want) and want
    for d, (schema, rows) in want.items():
        assert got[d][0].equals(schema, check_metadata=True), d
        assert got[d][1].equals(rows), d


def _routed_spec(src: str) -> dict:
    return {"input": {"path": src},
            "filters": [
                {"translate": {"source": "tool", "target": "tool_label",
                               "dictionary": {"search": "Web Search"},
                               "fallback": "none"}},
                {"keep": {"column": "turn_idx", "op": ">=", "value": 1}}],
            "route": {"key": "role", "routes": dict(ROUTES)}}


def _stages(read):
    from logstash_filter_translate_ray.config import TranslateConfig
    from logstash_filter_translate_ray.stages import (
        ParseConfig, parse_dataset, route_dataset, translate_dataset)

    ds = parse_dataset(read, ParseConfig.transcripts())
    ds = translate_dataset(ds, TranslateConfig(
        source="tool", target="tool_label",
        dictionary={"search": "Web Search"}, fallback="none"))
    return route_dataset(ds, ROUTES)


def _chain_builders():
    """{name: (route column, builder of the Dataset from an input dir and
    a read kind)} of the plans the file runner takes."""
    import ray.data as rd

    from logstash_filter_translate_ray.pipelines import spec
    from logstash_filter_translate_ray.pipelines import transcripts as T
    from logstash_filter_translate_ray.stages import route_dataset

    def read(src, kind):
        return T.read_transcripts(src) if kind == "source" else \
            rd.read_parquet(src, columns=T.TRANSCRIPT_COLUMNS)

    return {
        "enriched": ("route", lambda src, kind: T.build_enriched_dataset(
            read(src, kind), T.TranscriptPipelineConfig(routes=ROUTES))),
        "stages": ("route", lambda src, kind: _stages(read(src, kind))),
        "bare_read": ("role", read),
        "spec": ("route", lambda src, kind: spec.build_from_spec(
            _routed_spec(src))),
        # a map whose function returns a dict of arrays, which Ray Data
        # makes a table before the next map
        "dict_batches": ("route", lambda src, kind: route_dataset(
            read(src, kind).map_batches(
                lambda t: {c: t[c].to_numpy(zero_copy_only=False)
                           for c in t.column_names},
                batch_format="pyarrow"), ROUTES)),
    }


@pytest.mark.parametrize("kind", ["source", "read_parquet"])
@pytest.mark.parametrize("chain", ["enriched", "stages", "bare_read",
                                   "spec", "dict_batches"])
def test_file_chains_run_no_ray_data(ray_session, monkeypatch, tmp_path,
                                     chain, kind):
    """``rayutil.file_chain`` reads the runner's files and function from
    the plan alone: the transcript chain, the stage wrappers, a bare read,
    a map returning a dict of arrays and a routed parquet-input spec
    (``build_from_spec`` and ``run_spec``) are written by ``write_routed``
    with no Ray Data execution, into the same directories, schemas and
    rows as their ``materialize()`` forms take through the block path. A
    spec reads with ``rd.read_parquet`` whatever the kind."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from logstash_filter_translate_ray.pipelines import spec
    from logstash_filter_translate_ray.stages.route import write_routed

    src = _chain_input(tmp_path / "in")
    route_col, build = _chain_builders()[chain]
    write_routed(build(src, kind).materialize(), str(tmp_path / "blocks"),
                 route_col=route_col)
    want = _routed(tmp_path / "blocks")
    with monkeypatch.context() as m:
        def boom(*a, **kw):
            raise AssertionError("Ray Data execution")
        m.setattr(StreamingExecutor, "execute", boom)
        ds = build(src, kind)
        assert rayutil.file_chain(ds) is not None
        write_routed(ds, str(tmp_path / "runner"), route_col=route_col)
        if chain == "spec":
            spec.run_spec({**_routed_spec(src),
                           "output": {"path": str(tmp_path / "run_spec")}})
    _assert_same_sink(_routed(tmp_path / "runner"), want)
    if chain == "spec":
        _assert_same_sink(_routed(tmp_path / "run_spec"), want)


def _refused(src, case):
    """A routed chain over ``src`` with one thing the file runner must
    refuse. Its functions are local, so workers unpickle them by value
    (a worker cannot import a test module)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from logstash_filter_translate_ray.stages import route_dataset

    class Identity:
        def __call__(self, t):
            return t

    kw = {"batch_format": "pyarrow"}
    if case == "hive_input":
        return route_dataset(rd.read_parquet(src), ROUTES)
    if case == "filter_read":
        return route_dataset(rd.read_parquet(
            src, filter=pc.field("turn_idx") >= 2), ROUTES)
    read = rd.read_parquet(src)
    if case == "callable_class":
        ds = read.map_batches(Identity, concurrency=1, **kw)
    elif case == "concurrency":
        ds = read.map_batches(lambda t: t, concurrency=2, **kw)
    elif case == "num_cpus":
        ds = read.map_batches(lambda t: t, num_cpus=0.5, **kw)
    elif case == "fn_kwargs":
        ds = read.map_batches(lambda t, k: t, fn_kwargs={"k": 1}, **kw)
    elif case == "pandas":
        ds = read.map_batches(lambda df: df, batch_format="pandas")
    elif case == "filter_between":
        ds = read.map_batches(lambda t: t, **kw).filter(expr="turn_idx >= 2")
    else:
        assert case == "select_between"
        ds = read.map_batches(lambda t: t, **kw).select_columns(
            ["conv_id", "turn_idx", "role", "text"])
    return route_dataset(ds, ROUTES)


@pytest.mark.parametrize("case", [
    "callable_class", "concurrency", "num_cpus", "fn_kwargs", "pandas",
    "filter_between", "select_between", "hive_input", "filter_read"])
def test_file_chain_refusals_take_block_path(ray_session, tmp_path, case):
    """A plan with anything the file runner cannot run as it is (an actor
    UDF, a task limit, remote args, function arguments, a non-Arrow batch
    format, a filter or projection between the maps, hive partition
    columns or a filtered read) is no file chain, and ``write_routed``
    writes it block by block into the same directories, schemas and rows
    as its ``materialize()`` form."""
    import shutil

    from logstash_filter_translate_ray.stages.route import write_routed

    src = _chain_input(tmp_path / "in")
    if case == "hive_input":
        for i, name in enumerate(sorted(os.listdir(src))):
            os.makedirs(os.path.join(src, f"part={i % 2}"), exist_ok=True)
            shutil.move(os.path.join(src, name),
                        os.path.join(src, f"part={i % 2}", name))
    ds = _refused(src, case)
    assert rayutil.file_chain(ds) is None
    write_routed(ds, str(tmp_path / "blocks"))
    write_routed(_refused(src, case).materialize(), str(tmp_path / "ref"))
    want = _routed(tmp_path / "ref")
    _assert_same_sink(_routed(tmp_path / "blocks"), want)


def test_file_chain_map_batch_size_bounds_its_batches(ray_session,
                                                      monkeypatch, tmp_path):
    """On the file runner a map given a ``batch_size`` is handed slices
    of at most that many rows, never a whole file, and the rows are the
    block path's but for the batch sizes the map saw."""
    import pyarrow.compute as pc
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from logstash_filter_translate_ray.pipelines import transcripts as T
    from logstash_filter_translate_ray.stages import route_dataset
    from logstash_filter_translate_ray.stages.route import write_routed

    src = _chain_input(tmp_path / "in")       # files of 0, 300, 500 rows

    def build():
        return route_dataset(T.read_transcripts(src).map_batches(
            lambda t: t.append_column(
                "n", pa.array([t.num_rows] * t.num_rows, pa.int64())),
            batch_format="pyarrow", batch_size=128), ROUTES)

    write_routed(build().materialize(), str(tmp_path / "blocks"))
    with monkeypatch.context() as m:
        def boom(*a, **kw):
            raise AssertionError("Ray Data execution")
        m.setattr(StreamingExecutor, "execute", boom)
        write_routed(build(), str(tmp_path / "runner"))
    got, want = _routed(tmp_path / "runner"), _routed(tmp_path / "blocks")
    sizes = set()
    for d in want:
        sizes |= set(got[d][1]["n"].to_pylist())
        assert pc.max(want[d][1]["n"]).as_py() <= 128
        assert got[d][1].drop_columns(["n"]).equals(
            want[d][1].drop_columns(["n"])), d
    assert list(got) == list(want)
    assert sizes == {128, 300 - 256, 500 - 384}


def test_file_task_modules_load_no_ray_data():
    """The modules a file task unpickles import no Ray Data: its import
    costs every fresh worker ~0.4 s, so Ray Data internals are imported
    inside the functions that use them."""
    import subprocess
    import sys

    mods = ["rayutil", "stages.route", "stages.parse",
            "stages.translate_stage"]
    code = ("import sys\n"
            + "".join(f"import logstash_filter_translate_ray.{m}\n"
                      for m in mods)
            + "print(sorted(m for m in sys.modules if m == 'ray.data' or "
            "m.startswith('ray.data.')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, cwd=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
    assert out.stdout.strip() == "[]"


def _dataset_layers_after(code: str) -> list:
    """Which of Arrow's dataset layer and Ray Data a fresh interpreter,
    run from the repo root, has loaded after running ``code``."""
    import subprocess
    import sys

    probe = ("\nimport sys\nprint([m for m in ('pyarrow._dataset', "
             "'ray.data') if m in sys.modules])")
    out = subprocess.run(
        [sys.executable, "-c", code + probe], capture_output=True,
        text=True, check=True, cwd=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
    return out.stdout.strip().splitlines()[-1]


def test_file_write_task_loads_no_dataset_layer(tmp_path):
    """A file task with a sink (``_write_source``'s function: read a
    transcript file, run the chain, write the routed parquet files) does
    its Arrow IO with ``pq.ParquetFile`` and ``pq.write_table``: it loads
    neither ``pyarrow.dataset``, whose writer's IO threads cost each
    worker ~35 MB, nor Ray Data."""
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.sources.transcripts import (
        make_transcripts)

    src, out = str(tmp_path / "in.parquet"), str(tmp_path / "out")
    pq.write_table(make_transcripts(500, seed=3), src)
    code = f"""
from logstash_filter_translate_ray.stages.route import _write_source

def chain(t):
    return t.append_column("route", t["role"])

_write_source._function(chain, ["conv_id", "role", "text"], {src!r},
                        {out!r}, "route", "parquet", "task", ())
"""
    assert _dataset_layers_after(code) == "[]"
    assert len(os.listdir(out)) > 1


def test_split_task_over_arrow_block_loads_no_ray_data():
    """An exchange split task (``_split_block``'s function) over an Arrow
    block uses it as it is: no Ray Data import, no dataset layer."""
    code = """
import pyarrow as pa
from logstash_filter_translate_ray.rayutil import _split_block

*parts, counts = _split_block._function(
    pa.table({"k": list(range(20))}), ["k"], 4)
assert sum(counts) == 20 == sum(p.num_rows for p in parts)
"""
    assert _dataset_layers_after(code) == "[]"
