"""Small shared Ray Data helpers, and the engine's one keyed exchange.

``keyed_groups`` (a function per group), ``keyed_aggregate`` (an Arrow
hash aggregate per group) and ``keyed_join`` (an Arrow hash join per
bucket) are the package's only keyed operators: it runs no Ray
``groupby``/``sort``/``unique``/``join``/``repartition``, so no Ray
AllToAll operator. Callers pass key columns and a group function,
aggregate spec or join type; this module owns the rest:

- **Grouping.** Rows whose key tuples are equal reach the same ``fn``
  call, nulls counting as equal (SQL ``GROUP BY``). The key hashes into
  at most G buckets, so the exchange makes a bounded number of
  vectorized group calls, not one per key.
- **Bucket count.** G is :func:`group_count` of the bytes the input
  blocks' metadata reports (a join: both sides'). No operator takes a
  group count; ``keyed_groups``' ``num_groups`` is the override the IVF
  join and the tests set.
- **Bucket rule.** Nulls are filled with the type's zero token BEFORE
  hashing: ``to_numpy`` promotes an int64 block WITH nulls to float64
  while a null-free block stays int64, and the two hash differently, so
  an unfilled key would scatter across buckets depending on which block
  it rode in. Integer columns are used as they are, other types reduce
  through ``pd.util.hash_array`` (a fixed-key siphash, stable across
  processes), multi-column keys fold into one uint64, and
  :func:`_group_of`'s multiply-shift maps the value to a bucket.
- **Exchange.** The bucket id is known per row, so there is no sampling,
  range partitioning or sort shuffle, and no null key ever reaches a
  comparator. Split: one task per non-empty input block, submitted once
  all are known (G needs their bytes), applies the caller's block
  function ``pre`` if any (``keyed_groups``), stably sorts it by bucket
  and returns one zero-copy slice per bucket plus the bucket row counts.
  Reduce: one task per non-empty bucket concatenates its slices, sorts
  them and calls ``fn`` (a join: splits both sides, and runs Arrow's
  ``Table.join`` per bucket). Each reduce returns its table and its
  :func:`block_meta` (rows, bytes, schema); the result is built from the
  outputs that have rows by :func:`_dataset_from`, with no metadata task
  and no table fetched into the calling process: at most G non-empty
  blocks.
- **Eager.** All three run their inputs when called and return a
  materialized Dataset whose plan is data, like ``materialize()``'s, not
  a lazy plan: a later exchange, ``topk_rows`` or ``to_arrow_refs``
  reads its blocks and metadata with no Ray Data execution. An input
  whose plan is data costs the split none either (:func:`materialized`
  brings a local parquet read to that form with plain read tasks).
- **What ``fn`` sees.** ``fn(table, starts)`` gets one bucket's rows
  sorted by ``(*keys, *order_by)`` plus the key-segment start offsets.
  Segments come from null-aware Arrow adjacency on the raw values (never
  ``to_numpy``, which would merge distinct int64 keys ≥ 2^53 once nulls
  promote the column to float64). ``fn`` is never called with an empty
  table.
- **Empty result.** When every group is empty (a fully filtered input,
  or ``fn`` emitting no rows) the result is one zero-row block of the
  declared output schema. A callable schema is derived from the input
  schema ``ds.schema()`` knows without running it (see the schema rule
  below), else from the first block of the exchange's own stream that
  carries one. ``schema=None`` gives no block.

**Schema rule.** Ray Data takes a Dataset's schema from its blocks, and a
``map_batches`` over no rows emits none: its ``schema()`` runs a
``limit(1)`` and still finds nothing. Every whole-block map of the package
therefore goes through :func:`map_blocks`, which records the map's schema
as ``fn`` applied to a zero-row table of the input's schema, where the
input's plan knows it (a read, a data plan, a filter of either, an
earlier ``map_blocks``).
``schema()`` then answers with no execution, over empty input too, and the
next ``map_blocks`` or exchange derives its own schema from it. Only the
schema is recorded: a fully empty result still has no blocks, so its
``to_pandas()`` has no columns and ``write_parquet`` writes no file. A
recorded schema must EXACTLY match the non-empty output's types, or a
later concatenation silently promotes (an int64 column unified with a
float64 one comes back float64, changing the values an oracle comparison
hashes): derive it by running the block function, never by hand.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)    # splitmix64 / golden-ratio odd
_FOLD_MIX = np.uint64(0xC2B2AE3D27D4EB4F)

# the exchange's bucket count: one group per _GROUP_BYTES of input, at
# most _MAX_GROUPS; read at call time (tests monkeypatch them)
_GROUP_BYTES = 8 << 20
_MAX_GROUPS = 256


def _arrow_schema(sch) -> Optional[pa.Schema]:
    """``sch`` as a non-empty ``pa.Schema`` (a ``ray.data.Schema`` is
    unwrapped), else None — a zero-row block from a row-UDF stage can carry
    no columns at all, and a pandas block schema is not an arrow one."""
    base = getattr(sch, "base_schema", sch)
    return base if isinstance(base, pa.Schema) and len(base) else None


def run_chain(fns: tuple, batch: pa.Table) -> pa.Table:
    """The block functions ``fns`` applied in order: a pipeline's stages
    composed into one function (``functools.partial(run_chain, fns)``)."""
    for fn in fns:
        batch = fn(batch)
    return batch


def _record_schema(ds, schema: pa.Schema):
    """Record ``schema`` as ``ds``'s, in the slot Ray 2.49 fills after its
    own ``limit(1)`` schema fetch (``Dataset.schema``); returns ``ds``."""
    ds._plan.cache_schema(schema)
    return ds


def _plan_schema(ds) -> Optional[pa.Schema]:
    """The arrow schema ``ds``'s plan knows, found with no execution:
    ``schema(fetch_if_missing=False)``'s (a read, a recorded map), else,
    through any filters (a filter keeps its input's columns), a read's or
    a data plan's first block schema (Ray's own skips 0-row blocks). Ray
    2.49 logical operators, imported here as in :func:`_dataset_from`."""
    from ray.data._internal.logical.interfaces import SourceOperator
    from ray.data._internal.logical.operators.map_operator import Filter

    schema = _arrow_schema(ds.schema(fetch_if_missing=False))
    op = ds._logical_plan.dag
    while schema is None and isinstance(op, Filter):
        op = op.input_dependencies[0]
        schema = _arrow_schema(op.infer_schema())
    if schema is None and isinstance(op, SourceOperator) \
            and op.output_data() is not None:
        schema = next((s for s in map(_arrow_schema, (
            b.schema for b in op.output_data())) if s is not None), None)
    return schema


def map_blocks(ds, fn: Callable[[pa.Table], pa.Table],
               concurrency: Optional[int] = None,
               batch_size: Optional[int] = None):
    """``fn`` over every whole block of ``ds``, as an Arrow table, with the
    result's schema recorded as ``fn`` over a zero-row table of ``ds``'s
    schema (see the module docstring's schema rule). Nothing is recorded
    when ``ds``'s plan does not know its schema, or when ``fn`` cannot run
    on zero rows. ``concurrency``, ``batch_size``: ``map_batches``'.
    A ``sources.readers.ParquetPlan`` (the class is imported here, on the
    driver: no file task may import its module) is extended instead, with
    no Ray Data object; its Dataset form builds this same map."""
    from .sources.readers import ParquetPlan

    if isinstance(ds, ParquetPlan) and concurrency is None:
        return ds.then(fn, batch_size, record_schema=True)
    out = ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                         concurrency=concurrency)
    schema = _plan_schema(ds)
    if schema is not None:
        try:
            _record_schema(out, fn(schema.empty_table()).schema)
        except Exception:
            pass
    return out


def zero_token(t: pa.DataType) -> pa.Scalar:
    """A valid in-domain token of type ``t``, used ONLY as the filler for
    null keys in the bucket hash (the grouping itself keeps nulls apart:
    segments and Arrow's hash aggregate treat null as its own key)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pa.scalar("", type=t)
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return pa.scalar(b"", type=t)
    if pa.types.is_boolean(t):
        return pa.scalar(False, type=t)
    return pa.scalar(0, type=t)    # ints / floats / decimals / ts / duration


def _group_of(bucket: np.ndarray, num_groups: int) -> np.ndarray:
    """Deterministic value→group assignment (avalanched so low-entropy
    values such as small cell ids still spread)."""
    b = bucket.astype(np.uint64, copy=False)
    return (((b * _HASH_MIX) >> np.uint64(33)) %
            np.uint64(num_groups)).astype(np.int64)


def _key_values(col) -> np.ndarray:
    """One key column as uint64 bucket input (see the module docstring's
    bucket rule)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0 or pa.types.is_null(col.type):
        return np.zeros(len(col), dtype=np.uint64)
    filled = pc.fill_null(col, zero_token(col.type)) \
        .to_numpy(zero_copy_only=False)
    if pa.types.is_integer(col.type):
        return filled.astype(np.uint64)
    if pa.types.is_floating(col.type):
        filled = filled + 0.0          # -0.0 == 0.0 must share a bucket
    return pd.util.hash_array(np.asarray(filled))


def _bucket_of(t: pa.Table, keys: Sequence[str], num_groups: int):
    h = _key_values(t[keys[0]])
    for k in keys[1:]:
        h = (h * _HASH_MIX) ^ (_key_values(t[k]) * _FOLD_MIX)
    return _group_of(h, num_groups)


def _segment_starts(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Start offsets of the equal-key runs of a key-sorted table. Adjacency
    is computed IN ARROW on the raw values; ``pc.equal`` yields null where
    either side is null, so adjacent nulls are made equal by the explicit
    mask while null-vs-value stays a boundary (SQL's single NULL group).
    A null-typed key column is one segment."""
    n = len(t)
    boundary = np.zeros(n, dtype=bool)
    boundary[:1] = True
    for k in keys:
        col = t[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if n < 2 or pa.types.is_null(col.type):
            continue
        eq = pc.fill_null(pc.equal(col.slice(1), col.slice(0, n - 1)),
                          False).to_numpy(zero_copy_only=False)
        isnull = pc.is_null(col).to_numpy(zero_copy_only=False)
        boundary[1:] |= ~(eq | (isnull[1:] & isnull[:-1]))
    return np.flatnonzero(boundary)


def _arrow(block) -> pa.Table:
    """A Ray Data block, or a ``map_batches`` function's output (a frame, a
    dict of arrays), as the ``pa.Table`` Ray Data makes of it; Ray Data is
    imported only for a non-table, so a task over Arrow never loads it."""
    if isinstance(block, pa.Table):
        return block
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(
        BlockAccessor.batch_to_block(block)).to_arrow()


def read_parquet_file(path: str, columns: Optional[List[str]]) -> pa.Table:
    """A local parquet file's ``columns`` (None: all), read on this thread
    through ``pq.ParquetFile``, not the dataset layer ``pq.read_table``
    goes through: the same table, metadata included. A column the file
    lacks raises ``pa.ArrowInvalid``, as ``pq.read_table`` does (a bare
    ``ParquetFile.read`` would drop it)."""
    import pyarrow.parquet as pq

    with pq.ParquetFile(path) as f:
        missing = [c for c in columns or () if c not in f.schema_arrow.names]
        if missing:
            raise pa.ArrowInvalid(
                f"No match for FieldRef.Name({missing[0]}) in {path}")
        return f.read(columns=columns)


@ray.remote
def _split_block(block, keys: List[str], num_groups: int,
                 pre: Optional[Callable[[pa.Table], pa.Table]] = None):
    """One input block, mapped by ``pre`` when given, → its ``num_groups``
    bucket slices (zero-copy views of one stably bucket-sorted copy) plus
    the per-bucket row counts. A zero-row block may carry no key columns,
    so it is returned as it is."""
    t = _arrow(block)
    if pre is not None:
        t = pre(t)
    if t.num_rows == 0:
        return (*[t] * num_groups, np.zeros(num_groups, dtype=np.int64))
    group = _bucket_of(t, keys, num_groups)
    counts = np.bincount(group, minlength=num_groups)
    t = t.take(np.argsort(group, kind="stable"))
    ends = np.cumsum(counts)
    return (*[t.slice(e - c, c) for e, c in zip(ends, counts)], counts)


def _concat(parts: Sequence[pa.Table]) -> pa.Table:
    """``pa.concat_tables`` when the schemas are equal up to metadata,
    else Ray Data's unifying ``concat`` (which fails to hash a schema with
    pandas metadata, logs a warning and takes its slow path)."""
    if all(p.schema.equals(parts[0].schema, check_metadata=False)
           for p in parts[1:]):
        return pa.concat_tables(parts)
    from ray.data._internal.arrow_ops.transform_pyarrow import concat

    return concat(list(parts))


def group_count(nbytes: int) -> int:
    """The exchange's bucket count G for ``nbytes`` of input: one group
    per ``_GROUP_BYTES``, at least 1, at most ``_MAX_GROUPS``."""
    return min(max(1, -(-nbytes // _GROUP_BYTES)), _MAX_GROUPS)


def _input_blocks(ds) -> tuple:
    """``ds``'s non-empty ``(ref, meta)`` blocks, their bytes and its
    arrow schema or None, from its bundles' metadata."""
    schema = _arrow_schema(ds.schema(fetch_if_missing=False))
    blocks = []
    for bundle in ds.iter_internal_ref_bundles():
        if schema is None:
            schema = _arrow_schema(bundle.schema)
        for ref, meta in bundle.blocks:
            if meta.num_rows != 0:
                blocks.append((ref, meta))
    return blocks, sum(meta.size_bytes for _, meta in blocks), schema


def _split_all(blocks: list, keys: List[str], num_groups: int, pre=None):
    """One ``_split_block`` per block → (slice refs, blocks × ``num_groups``
    row counts); ``blocks`` is emptied, so each frees with its split."""
    pre_ref = None if pre is None else ray.put(pre)
    splits = []
    for ref, _ in blocks:
        splits.append(_split_block.options(
            num_returns=num_groups + 1).remote(ref, keys, num_groups,
                                               pre_ref))
    blocks.clear()
    counts = np.array(ray.get([s[-1] for s in splits]),
                      dtype=np.int64).reshape(len(splits), num_groups)
    return splits, counts


def _bucket_parts(splits, counts, g: int) -> list:
    return [s[g] for s, c in zip(splits, counts) if c[g]]


def block_meta(t: pa.Table) -> tuple:
    """The ``(rows, bytes, schema)`` a task returns beside its table, from
    which :func:`_dataset_from` builds a Dataset with no further task."""
    return t.num_rows, t.nbytes, t.schema


def _dataset_from(blocks: list):
    """A materialized Dataset of ``blocks``, ``(table ref, block_meta)``
    pairs. It runs no task (Ray's ``from_arrow`` of refs runs one metadata
    task per table), and reading it back starts no executor: its plan is
    data, like a ``materialize()`` output's. Ray 2.49 internals, used in
    this module's few Ray-internal helpers only, and imported in the
    function: every file task unpickles this module, and importing Ray
    Data costs it ~0.4 s."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import (
        InputData)
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import BlockMetadata
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    ctx = DataContext.get_current().copy()
    bundles = [RefBundle([(ref, BlockMetadata(num_rows=rows,
                                              size_bytes=nbytes,
                                              input_files=None,
                                              exec_stats=None))],
                         owns_blocks=False, schema=schema)
               for ref, (rows, nbytes, schema) in blocks]
    op = InputData(input_data=bundles)
    plan = ExecutionPlan(DatasetStats(metadata={}, parent=None), ctx)
    ds = MaterializedDataset(plan, LogicalPlan(op, ctx))
    # the output plan.execute() records for a data plan, recorded here:
    # execute() also queries the cluster on every call (its resources,
    # and object store stats through a new GCS client). The schema is the
    # blocks' unified one, as Ray's from_arrow Dataset reports.
    plan._snapshot_bundle = RefBundle(
        [blk for b in bundles for blk in b.blocks], owns_blocks=False,
        schema=op.infer_schema())
    plan._snapshot_operator = op
    plan._snapshot_stats = plan._in_stats
    return ds


def _bundle_blocks(bundles) -> list:
    """The ``(ref, block_meta)`` pairs of Ray Data ``RefBundle``s."""
    return [(ref, (meta.num_rows, meta.size_bytes, bundle.schema))
            for bundle in bundles for ref, meta in bundle.blocks]


def plain_parquet_read(op) -> Optional[tuple]:
    """``(files, columns)`` (sorted; None: all columns) when the logical
    operator ``op`` reads the engine's parquet source
    (``sources.readers.ParquetFiles``) or is a ``rd.read_parquet`` of
    local files Ray Data would not transform: no ``filter`` (or scanner
    argument but ``batch_size``), ``schema``, block UDF, ``include_paths``
    or hive partition columns. Else None. :func:`read_parquet_file` of
    each file then gives the rows the read would."""
    import os

    import pyarrow.fs as pafs
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource)
    from ray.data._internal.logical.operators.read_operator import Read
    from ray.data.datasource.partitioning import (Partitioning,
                                                  PathPartitionParser)

    from .sources.readers import ParquetFiles

    src = getattr(op, "_datasource", None)
    if not isinstance(op, Read):
        return None
    if type(src) is ParquetFiles:
        return src.files, src.columns
    if type(src) is not ParquetDatasource:
        return None
    if (src._block_udf is not None or src._read_schema is not None
            or src._include_paths
            or set(src._to_batches_kwargs) - {"batch_size"}
            or not isinstance(src._filesystem, pafs.LocalFileSystem)
            or src._partitioning not in (None, Partitioning("hive"))):
        return None
    files = sorted(src._pq_paths)
    if src._partitioning is not None:
        parse = PathPartitionParser(src._partitioning)
        if any(parse(f) for f in files):
            return None
    if not all(os.path.isfile(f) for f in files):
        return None
    return files, src._data_columns


def _in_batches(fn, size: Optional[int], table: pa.Table) -> pa.Table:
    """``fn``'s outputs over ``table`` in slices of at most ``size`` rows
    (None: one slice), each made a table (:func:`_arrow`), concatenated."""
    step = size or max(1, table.num_rows)
    return _concat([_arrow(fn(table.slice(start, step)))
                    for start in range(0, table.num_rows, step) or [0]])


def file_chain(ds) -> Optional[tuple]:
    """``(files, columns, fn)`` of a ``sources.readers.ParquetPlan``, its
    steps as they are, or of a Dataset whose plan is zero or more Arrow
    ``map_batches`` of a plain function (no class, generator,
    ``concurrency``, remote or function args) over a
    :func:`plain_parquet_read`; ``fn`` composes the maps, each in batches
    of at most its ``batch_size`` (:func:`_in_batches`). Else None."""
    import functools
    import inspect

    from .sources.readers import ParquetPlan

    if isinstance(ds, ParquetPlan):
        read = ds.source.files, ds.source.columns
        steps = [(fn, batch_size) for fn, batch_size, _ in ds.steps]
    else:
        from ray.data._internal.compute import TaskPoolStrategy
        from ray.data._internal.logical.operators.map_operator import (
            MapBatches)

        op, steps = ds._logical_plan.dag, []
        while type(op) is MapBatches:
            if (op._batch_format != "pyarrow"
                    or op._compute != TaskPoolStrategy()
                    or any((op._fn_args, op._fn_kwargs,
                            op._fn_constructor_args,
                            op._fn_constructor_kwargs, op._ray_remote_args,
                            op._ray_remote_args_fn))
                    or inspect.isclass(op._fn)
                    or inspect.isgeneratorfunction(op._fn)):
                return None
            # the plan runs from its last map
            steps.insert(0, (op._fn, op._batch_size))
            op = op.input_dependencies[0]
        read = plain_parquet_read(op)
    fns = tuple(functools.partial(_in_batches, *step) for step in steps)
    return read and (*read, functools.partial(run_chain, fns))


@ray.remote(num_returns="streaming")
def _read_parquet_file(path: str, columns: List[str], max_bytes: int):
    """One local parquet file's ``columns``: its table in slices of at
    most ``max_bytes`` (a 0-row file: none), then their metas."""
    t = read_parquet_file(path, columns)
    n = -(-t.nbytes // max_bytes) if t.num_rows else 0
    metas = []
    for i in range(n):
        lo = i * t.num_rows // n
        s = t.slice(lo, (i + 1) * t.num_rows // n - lo)
        metas.append(block_meta(s))
        yield s
    yield metas


def materialized(ds, columns: List[str]):
    """``ds``'s blocks as a Dataset whose plan is data (reading it back
    starts no executor), as cheaply as ``ds``'s plan allows:

    - a plan that already is arrow data (``rd.from_arrow``, a
      ``materialize()`` output) gives its blocks as they are, all their
      columns kept: callers read ``columns`` by name;
    - a plain local parquet read (:func:`plain_parquet_read`) that has
      ``columns`` is one :func:`read_parquet_file` task per file.
      A file larger than ``target_max_block_size`` comes back in slices
      no larger, as Ray's read returns it; a 0-row file gives no block;
    - anything else runs ``ds.select_columns(columns)`` through Ray Data
      once, as ``materialize()`` would (so a read lacking a column raises
      Ray's error)."""
    from ray.data._internal.logical.interfaces import SourceOperator
    from ray.data.context import DataContext

    op = ds._logical_plan.dag
    schema = _arrow_schema(ds.schema(fetch_if_missing=False))
    if (isinstance(op, SourceOperator) and op.output_data() is not None
            and schema is not None):
        return _dataset_from(_bundle_blocks(op.output_data()))
    read = plain_parquet_read(op)
    if (read is None or schema is None
            or not set(columns) <= set(schema.names)):
        return _dataset_from(_bundle_blocks(
            ds.select_columns(list(columns)).iter_internal_ref_bundles()))
    max_bytes = DataContext.get_current().target_max_block_size
    blocks = []
    for gen in [_read_parquet_file.remote(f, list(columns), max_bytes)
                for f in read[0]]:
        *refs, metas = gen
        blocks += zip(refs, ray.get(metas))
    return _dataset_from(blocks)


def _wrap(outs, anchor: Callable[[], Optional[pa.Schema]]):
    """A Dataset of the ``(table, block_meta)`` task outputs that have
    rows; when none has, one zero-row block of ``anchor()`` (None: no
    block)."""
    metas = ray.get([m for _, m in outs])
    blocks = [(t, m) for (t, _), m in zip(outs, metas) if m[0]]
    if not blocks:
        try:
            schema = anchor()
        except Exception:              # e.g. a keyed column the input lacks
            schema = None
        if schema is not None:
            empty = schema.empty_table()
            blocks = [(ray.put(empty), block_meta(empty))]
    return _dataset_from(blocks)


@ray.remote(num_returns=2)
def _reduce_bucket(fn, keys: List[str], sort_keys, *parts):
    """One bucket: its non-empty slices from every split, concatenated,
    sorted by ``(*keys, *order_by)`` and handed to ``fn``; returns
    ``fn``'s table and its :func:`block_meta`."""
    t = _concat(parts)
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    out = fn(t, _segment_starts(t, keys))
    return out, block_meta(out)


def keyed_groups(ds, keys: Sequence[str],
                 fn: Callable[[pa.Table, np.ndarray], pa.Table],
                 schema: Union[Optional[pa.Schema],
                               Callable[[pa.Schema], pa.Schema]],
                 num_groups: Optional[int] = None,
                 order_by: Sequence[str] = (),
                 pre: Optional[Callable[[pa.Table], pa.Table]] = None):
    """``fn(table, starts)`` over every key group of ``ds`` (see the module
    docstring for the contract and the exchange). Runs ``ds`` at call time
    and returns a materialized Dataset. ``schema`` is the output schema of
    ``fn``, used only when every group is empty: a literal ``pa.Schema``
    (None: no anchor), or ``schema_of(input_schema)`` derived from the
    schema ``ds``'s blocks carry. ``pre`` is a block function each split
    task applies to its input block before bucketing: a map fused into the
    exchange, so a materialized ``ds`` runs no Ray Data execution (a
    callable ``schema`` still sees ``ds``'s schema, not ``pre``'s)."""
    keys = list(keys)
    sort_keys = [(c, "ascending") for c in [*keys, *order_by]]
    blocks, nbytes, in_schema = _input_blocks(ds)
    splits, counts = _split_all(blocks, keys,
                                num_groups or group_count(nbytes), pre)
    fn_ref = ray.put(fn)
    outs = [_reduce_bucket.remote(fn_ref, keys, sort_keys,
                                  *_bucket_parts(splits, counts, g))
            for g in np.flatnonzero(counts.sum(axis=0))]
    return _wrap(outs, lambda: in_schema and schema(in_schema)
                 if callable(schema) else schema)


_JOIN_TYPES = ("inner", "left semi", "left anti")


def _join_tables(left: pa.Table, right: pa.Table, left_on, right_on,
                 how: str) -> pa.Table:
    # the call Ray Data's own join makes per partition: same columns
    return left.join(right, keys=left_on, right_keys=right_on,
                     join_type=how)


@ray.remote(num_returns=2)
def _join_bucket(how: str, left_on, right_on, n_left: int, *parts):
    """One bucket: ``n_left`` left slices, then the right ones (none: an
    anti join keeps the left rows as they are)."""
    left = _concat(parts[:n_left])
    if n_left < len(parts):
        left = _join_tables(left, _concat(parts[n_left:]), left_on,
                            right_on, how)
    return left, block_meta(left)


def keyed_join(left, right, left_on: Sequence[str],
               right_on: Optional[Sequence[str]] = None, how: str = "inner"):
    """``left`` joined to ``right`` on ``left_on`` = ``right_on`` (default
    ``left_on``), ``how`` one of ``"inner"``, ``"left semi"``, ``"left
    anti"``: Arrow's hash join per bucket that has the rows ``how`` needs.
    SQL semantics: a null key never matches (``left anti`` keeps it);
    uint64 keys join natively. Eager; ≤ G non-empty blocks. The empty
    result is anchored by the same join over the input schemas' empty
    tables."""
    if how not in _JOIN_TYPES:
        raise ValueError(f"keyed_join: how must be one of {_JOIN_TYPES}, "
                         f"got {how!r}")
    left_on = list(left_on)
    right_on = list(right_on or left_on)
    lblocks, lbytes, lschema = _input_blocks(left)
    rblocks, rbytes, rschema = _input_blocks(right)
    g = group_count(lbytes + rbytes)
    lsplits, lcounts = _split_all(lblocks, left_on, g)
    rsplits, rcounts = _split_all(rblocks, right_on, g)
    rrows, outs = rcounts.sum(axis=0), []
    for b in np.flatnonzero(lcounts.sum(axis=0)):
        if rrows[b] or how == "left anti":
            lparts = _bucket_parts(lsplits, lcounts, b)
            outs.append(_join_bucket.remote(
                how, left_on, right_on, len(lparts), *lparts,
                *_bucket_parts(rsplits, rcounts, b)))
    return _wrap(outs, lambda: _join_tables(
        lschema.empty_table(), rschema.empty_table(), left_on, right_on,
        how).schema)


def _hash_aggregate(t: pa.Table, keys: List[str], aggs: dict) -> pa.Table:
    """Arrow's hash aggregate, columns renamed to ``(*keys, *aggs)``."""
    return t.group_by(keys).aggregate(list(aggs.values())) \
        .rename_columns([*keys, *aggs])


def keyed_aggregate(ds, keys: Sequence[str], aggs: dict):
    """``GROUP BY keys`` over ``ds``: :func:`keyed_groups` with an Arrow
    ``Table.group_by().aggregate`` per bucket. ``aggs`` maps each output
    column to an Arrow aggregate spec, e.g. ``{"n": ("n", "sum")}``,
    ``{"n": ([], "count_all")}``, or ``{}`` for DISTINCT keys. Output
    columns are the keys, then ``aggs``' keys in order; a null key is one
    group, as in SQL. Eager, like ``keyed_groups``. The empty-result
    anchor is the same aggregate over the input schema's empty table, so
    its types match the non-empty output by construction."""
    keys = list(keys)

    def fn(t: pa.Table, starts) -> pa.Table:
        return _hash_aggregate(t, keys, aggs)

    return keyed_groups(
        ds, keys, fn,
        lambda s: _hash_aggregate(s.empty_table(), keys, aggs).schema)


def _sorted_head(t: pa.Table, sort_keys, k: int) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=sort_keys,
                                  null_placement="at_end")[:k])


_head_task = ray.remote(_sorted_head)


def topk_rows(ds, sort_keys, k: int) -> Optional[pa.Table]:
    """The first ``k`` rows of ``ds`` under ``sort_keys`` (Arrow
    ``(column, order)`` pairs, nulls last), with no global sort: one task
    per block keeps the block's top-``k`` and the calling process folds
    the ≤ blocks × ``k`` survivors. Meant for the ≤ G blocks of a keyed
    exchange's output. The fold stays in Arrow: ``to_pandas`` would
    promote a nullable int64 key to float64 and collapse distinct keys
    ≥ 2^53. None when ``ds`` has no rows."""
    tables = [t for t in ray.get([_head_task.remote(ref, sort_keys, k)
                                  for ref in ds.to_arrow_refs()]) if len(t)]
    if not tables:
        return None
    return _sorted_head(pa.concat_tables(tables), sort_keys, k)
