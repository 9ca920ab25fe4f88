"""Route + fan-out sinks.

Routing is itself a translate: a dictionary from route key (role, tool, …)
to sink name with a fallback route — so it reuses the exact-match kernel.
Fan-out is single-pass: a task sorts each batch by route once and writes
each route's slice into its hive ``route=<label>`` directory on its own
thread (no per-sink filter re-scans, SURVEY §3.4), by ``pq.write_table``
or as JSON lines. No task uses ``pyarrow.dataset``: its writer encodes on
Arrow's IO threads and left each worker ~35 MB heavier (docs/SCALE.md).

Every routed write runs as plain Ray tasks through that one block writer.
A *file chain* gets one task per input file: read, run the maps'
functions in ``MAX_BATCH_ROWS``-row slices (a map's own ``batch_size``,
if any, bounds its slices further), write. A file chain is the plan
value ``sources.readers.ParquetPlan`` (the transcript chain and the stage
wrappers over ``read_transcripts``), whose steps the runner takes as
they are, building no Ray Data Dataset; or a Dataset whose plan
``rayutil.file_chain`` reads alone (plain Arrow ``map_batches`` over a
plain local parquet read: a parquet spec's filters and route). That
skips Ray Data's streaming executor, whose fixed costs (a 100 ms
scheduling tick, held-back first-wave admission) outweighed the few-ms
block functions (docs/SCALE.md, "Executor fixed costs"); over a plan,
Ray Data runs and builds nothing, so its stats actor never starts.
Every other Dataset runs through Ray Data up to its blocks, then gets
one write task per non-empty block.

Each task returns every count partial as its table and its
``rayutil.block_meta``, so a caller builds a Dataset of them with no
metadata task (``rayutil._dataset_from``)."""

from __future__ import annotations

import json
import os
import uuid
from typing import Callable, Optional
from urllib.parse import quote

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..config import TranslateConfig
from ..kernel import as_snapshot
from ..rayutil import (_arrow, block_meta, file_chain, map_blocks,
                       read_parquet_file)

# the label of a null route value: hive's default partition
NULL_ROUTE_DIR = "__HIVE_DEFAULT_PARTITION__"

# Arrow's scanner batch: the most rows a whole-file parquet read
# (batch_size=None) hands a block function at once
MAX_BATCH_ROWS = 1 << 17


def file_batches(path: str, columns: Optional[list[str]]) -> list[pa.Table]:
    """A local parquet file's ``columns``, read whole, in the batches a
    block function is handed: slices of at most ``MAX_BATCH_ROWS`` rows
    (a 0-row file: one 0-row slice)."""
    tbl = read_parquet_file(path, columns)
    return [tbl.slice(start, MAX_BATCH_ROWS)
            for start in range(0, tbl.num_rows, MAX_BATCH_ROWS) or [0]]


def route_block_fn(routes: dict[str, str], *, key: str = "role",
                   route_col: str = "route", default_route: str = "other",
                   regex: bool = False):
    """The route stage as a block function (``pa.Table`` → ``pa.Table``);
    the arguments are :func:`route_dataset`'s."""
    from .translate_stage import make_translate_batch_fn

    snap_ref = ray.put(as_snapshot(dict(routes)))
    # slim-cfg rule (CLAUDE.md): the snapshot is the broadcast; the closure
    # must not ALSO pickle the full route table per task
    slim_cfg = TranslateConfig(source=key, target=route_col, dictionary={},
                               fallback=default_route, override=True,
                               regex=regex)
    # make_translate_batch_fn reads the snapshot through the worker-process
    # cache, so each worker deserializes it and compiles its lookup
    # structures once, not once per block
    return make_translate_batch_fn(slim_cfg, snap_ref, matched_col=None,
                                   error_isolation=False)


def route_dataset(ds: "ray.data.Dataset", routes: dict[str, str], *,
                  key: str = "role", route_col: str = "route",
                  default_route: str = "other",
                  regex: bool = False) -> "ray.data.Dataset":
    """Add a ``route`` column from a route-key dictionary (broadcast).
    ``regex=True`` routes by ordered regex patterns over the key column
    (first match wins — the exact_regex strategy)."""
    return map_blocks(ds, route_block_fn(
        routes, key=key, route_col=route_col, default_route=default_route,
        regex=regex))


def route_labels(values: "pa.Array | pa.ChunkedArray") -> list[str]:
    """Each route value's hive directory label, as Arrow (so Ray's sink)
    writes it for every type: cast to string by Arrow (``true``; ``1`` for
    1.0), null as :data:`NULL_ROUTE_DIR`, URI-escaped."""
    return [quote(v, safe="") for v in pc.fill_null(
        pc.cast(values, pa.string()), NULL_ROUTE_DIR).to_pylist()]


def _write_routes(table: pa.Table, out_dir: str, route_col: str,
                  file_format: str, name: str) -> None:
    """Write ``table`` into one file per route label (:func:`route_labels`)
    under ``<route_col>=<label>``, on this thread: one stable sort by
    label, one ``take``, zero-copy slices. A parquet file is the bytes
    Arrow's hive ``write_dataset`` writes for the slice. File names
    depend on ``name`` only, so a rewrite overwrites the first."""
    enc = pc.fill_null(pc.cast(table[route_col], pa.string()),
                       NULL_ROUTE_DIR).combine_chunks().dictionary_encode()
    ids = enc.indices.to_numpy()
    counts = np.bincount(ids)
    table = table.take(np.argsort(ids, kind="stable"))
    for label, end, n in zip(route_labels(enc.dictionary), np.cumsum(counts),
                             counts):
        part = table.slice(end - n, n)
        d = os.path.join(out_dir, f"{route_col}={label}")
        os.makedirs(d, exist_ok=True)
        if file_format == "parquet":
            pq.write_table(part.drop_columns([route_col]),
                           os.path.join(d, f"{name}-0.parquet"))
            continue
        path = os.path.join(d, f"{name}.jsonl")
        with open(path + ".tmp", "w") as f:
            f.writelines(json.dumps(row, default=str) + "\n"
                         for row in part.to_pylist())
        os.replace(path + ".tmp", path)


@ray.remote
def _write_source(fn: Optional[Callable[[pa.Table], pa.Table]],
                  columns: Optional[list[str]], source,
                  out_dir: Optional[str], route_col: str, file_format: str,
                  name: str, partials: tuple):
    """Write one source (unless ``out_dir`` is None) and return each of
    ``partials`` over it, as its table and its ``block_meta``: with
    ``fn``, a file chain's input file through ``fn`` (:func:`file_batches`:
    a 0-row file is one 0-row slice); else one block as it is."""
    batches = ([_arrow(source)] if fn is None
               else map(fn, file_batches(source, columns)))
    outs: list = [[] for _ in partials]
    for b, batch in enumerate(batches):
        if out_dir is not None:
            _write_routes(batch, out_dir, route_col, file_format,
                          f"{name}_{b:06}")
        for out, partial in zip(outs, partials):
            out.append(partial(batch))
    tables = [pa.concat_tables(o, promote_options="default") for o in outs]
    return tuple(x for t in tables for x in (t, block_meta(t))) or None


def _sources(ds: "ray.data.Dataset", out_dir: Optional[str]):
    """The ``(fn, columns, source, out_dir)`` of each write task: a file
    chain's files (``rayutil.file_chain``: a plan, or a Dataset's plain
    maps over a plain read), else the Dataset's non-empty blocks (module
    docstring)."""
    chain = file_chain(ds)
    if chain is None:
        return ((None, None, ref, out_dir)
                for bundle in ds.iter_internal_ref_bundles()
                for ref, meta in bundle.blocks if meta.num_rows != 0)
    files, columns, fn = chain
    if out_dir is not None:
        # the sink directory exists even when every input is empty
        os.makedirs(out_dir, exist_ok=True)
    fn_ref = ray.put(fn)
    return ((fn_ref, columns, f, out_dir) for f in files)


def write_routed(ds: "ray.data.Dataset", out_dir: Optional[str], *,
                 route_col: str = "route", file_format: str = "parquet",
                 partials: tuple = ()) -> list[list]:
    """Single-pass fan-out sink: hive-partitioned output by route
    (parquet default; JSON-lines for downstream text consumers), written
    by plain tasks, one per input file of a file chain, else one per
    non-empty block (module docstring). A task's error propagates (the
    rest are cancelled); a dead worker's task is retried by Ray and
    rewrites its files under the same names. ``partials`` are block
    functions each task also runs over its batches; returns, per partial,
    one ``(table, block_meta)`` ref pair per task, from which
    ``rayutil._dataset_from`` builds a Dataset with no task (Ray keeps a
    retried task's last return only, so no row counts twice).
    ``out_dir=None`` writes nothing."""
    if file_format not in ("parquet", "json"):
        raise ValueError(f"unsupported sink format {file_format!r}")
    write_uuid = uuid.uuid4().hex
    max_in_flight = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    task = _write_source.options(num_returns=max(1, 2 * len(partials)))
    returns: list = []
    pending: list = []
    try:
        for i, (fn_ref, columns, source, dest) in enumerate(
                _sources(ds, out_dir)):
            if len(pending) == max_in_flight:
                done, pending = ray.wait(pending, num_returns=1)
                ray.get(done)
            refs = task.remote(fn_ref, columns, source, dest, route_col,
                               file_format, f"{write_uuid}_{i:06}",
                               partials)
            returns.append(refs if partials else [refs])
            pending.append(returns[-1][0])
        while pending:
            done, pending = ray.wait(pending, num_returns=1)
            ray.get(done)
    except BaseException:
        for ref in pending:
            ray.cancel(ref)
        raise
    return [[(refs[2 * p], refs[2 * p + 1]) for refs in returns]
            for p in range(len(partials))]
