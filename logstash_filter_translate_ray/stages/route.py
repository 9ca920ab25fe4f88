"""Route + fan-out sinks.

Routing is itself a translate: a dictionary from route key (role, tool, …)
to sink name with a fallback route — so it reuses the exact-match kernel.
Fan-out is single-pass: each block is split by route into hive
``route=<label>`` directories as it is written (no per-sink filter
re-scans — N sinks cost one traversal, SURVEY §3.4).

A parquet fan-out of a *file chain* — a whole-file parquet read followed
by one block function, as the transcript pipeline builds it — runs as
plain Ray tasks, one per input file: read, chain, write. It skips Ray
Data's streaming executor, whose fixed costs (a 100 ms scheduling tick,
held-back first-wave admission) outweighed the few-ms block functions
(docs/SCALE.md, "Executor fixed costs"). Every other Dataset, and every
JSON sink, is written through Ray Data.
"""

from __future__ import annotations

import os
import uuid
import weakref
from typing import Callable

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from ..config import TranslateConfig
from ..kernel import as_snapshot

# null route keys land here in the JSON sink — the same directory name
# write_parquet's hive partitioning uses for a null partition value
NULL_ROUTE_DIR = "__HIVE_DEFAULT_PARTITION__"

# Arrow's scanner batch: the most rows a whole-file parquet read
# (batch_size=None) hands a block function at once
MAX_BATCH_ROWS = 1 << 17

# File chains, keyed by Dataset identity (weakly: an entry goes with its
# Dataset). A derived Dataset (.filter, another map_batches, …) is a new
# object, absent here, and keeps the Ray Data path.
_file_reads: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_file_chains: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def record_file_read(ds: "ray.data.Dataset", columns: list[str]
                     ) -> "ray.data.Dataset":
    """Mark ``ds`` as a whole-file parquet read of ``columns``."""
    _file_reads[ds] = list(columns)
    return ds


def record_file_chain(out: "ray.data.Dataset", read: "ray.data.Dataset",
                      fn: Callable[[pa.Table], pa.Table]) -> None:
    """Mark ``out`` — ``read.map_batches(fn)`` — as a file chain, if
    ``read`` is a recorded whole-file read."""
    if read in _file_reads:
        _file_chains[out] = (read, fn)


def route_block_fn(routes: dict[str, str], *, key: str = "role",
                   route_col: str = "route", default_route: str = "other",
                   regex: bool = False):
    """The route stage as a block function (``pa.Table`` → ``pa.Table``);
    the arguments are :func:`route_dataset`'s."""
    from .translate_stage import make_translate_batch_fn

    cfg = TranslateConfig(source=key, target=route_col,
                          dictionary=dict(routes), fallback=default_route,
                          override=True, regex=regex)
    snap_ref = ray.put(as_snapshot(cfg.dictionary))
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
    fn = route_block_fn(routes, key=key, route_col=route_col,
                        default_route=default_route, regex=regex)
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


@ray.remote
def _write_file_chain(fn: Callable[[pa.Table], pa.Table], path: str,
                      columns: list[str], out_dir: str, route_col: str,
                      name: str) -> None:
    """Read one input file, run ``fn`` over it in batches of at most
    ``MAX_BATCH_ROWS`` rows and write each result as Ray's parquet sink
    does (hive directories, ``__HIVE_DEFAULT_PARTITION__`` for null,
    percent-encoded labels). The file names depend on ``name`` and the
    batch only, so a retried task overwrites its first attempt's files."""
    tbl = pq.read_table(path, columns=columns)
    for i, start in enumerate(range(0, tbl.num_rows, MAX_BATCH_ROWS)):
        pads.write_dataset(
            fn(tbl.slice(start, MAX_BATCH_ROWS)), out_dir, format="parquet",
            partitioning=[route_col], partitioning_flavor="hive",
            basename_template=f"{name}_{i:06}-{{i}}.parquet",
            existing_data_behavior="overwrite_or_ignore")


def _run_file_chain(files: list[str], columns: list[str],
                    fn: Callable[[pa.Table], pa.Table], out_dir: str,
                    route_col: str) -> None:
    """One :func:`_write_file_chain` task per file, at most two per
    cluster CPU in flight. A task's error propagates (the rest are
    cancelled); a dead worker's task is retried by Ray."""
    os.makedirs(out_dir, exist_ok=True)
    fn_ref = ray.put(fn)
    write_uuid = uuid.uuid4().hex
    max_in_flight = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    pending: list = []
    try:
        for i, f in enumerate(files):
            if len(pending) == max_in_flight:
                done, pending = ray.wait(pending, num_returns=1)
                ray.get(done)
            pending.append(_write_file_chain.remote(
                fn_ref, f, columns, out_dir, route_col,
                f"{write_uuid}_{i:06}"))
        while pending:
            done, pending = ray.wait(pending, num_returns=1)
            ray.get(done)
    except BaseException:
        for ref in pending:
            ray.cancel(ref)
        raise


def write_routed(ds: "ray.data.Dataset", out_dir: str, *,
                 route_col: str = "route", file_format: str = "parquet"
                 ) -> None:
    """Single-pass fan-out sink: hive-partitioned output by route
    (parquet default; JSON-lines for downstream text consumers). A
    parquet sink of a file chain over local files runs as plain tasks,
    one per file (module docstring)."""
    if file_format == "parquet":
        read, fn = _file_chains.get(ds, (None, None))
        files = sorted(read.input_files()) if read is not None else []
        # input_files() drops a remote filesystem's scheme: only local
        # files can be opened by path in the tasks
        if files and all(os.path.isfile(f) for f in files):
            _run_file_chain(files, _file_reads[read], fn, out_dir, route_col)
        else:
            ds.write_parquet(out_dir, partition_cols=[route_col])
    elif file_format == "json":
        # this Ray release's write_json has no partition_cols — single-pass
        # manual fan-out: each task splits its block by route and writes one
        # JSONL file per (block, route). File names carry (content hash,
        # task id, per-task sequence): the content hash alone is NOT unique
        # — two blocks with byte-identical payloads (homogeneous data after
        # route filtering) would collapse into one file, silently dropping
        # rows. Ray task RETRIES keep their task id and replay batches in
        # the same order, so names are stable and the tmp+rename write
        # stays retry-idempotent.
        import hashlib
        import json as _json

        state = {"seq": 0}   # per-task copy (pickled fresh per task/retry)

        def _write(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            try:
                ctx = ray.get_runtime_context().get_task_id() or "driver"
            except Exception:
                ctx = "driver"
            tag = hashlib.sha1(ctx.encode()).hexdigest()[:8]
            seq = state["seq"]
            state["seq"] += 1
            routes = pc.unique(batch[route_col]).to_pylist()
            for r in routes:
                if r is None:
                    # pc.equal(col, None) is an all-null mask that
                    # filter() treats as false — null routes need an
                    # is_null mask or they are silently written NOWHERE
                    part = batch.filter(pc.is_null(batch[route_col]))
                    d = os.path.join(out_dir,
                                     f"{route_col}={NULL_ROUTE_DIR}")
                else:
                    part = batch.filter(pc.equal(batch[route_col], r))
                    d = os.path.join(out_dir, f"{route_col}={r}")
                rows = part.to_pylist()
                payload = "\n".join(
                    _json.dumps(row, default=str) for row in rows) + "\n"
                os.makedirs(d, exist_ok=True)
                # sha1 (not crc32): a 32-bit collision between blocks'
                # payloads in one route would silently drop a block
                name = (f"part-{hashlib.sha1(payload.encode()).hexdigest()[:16]}"
                        f"-{tag}-{seq:04d}.jsonl")
                tmp = os.path.join(d, name + ".tmp")
                with open(tmp, "w") as f:
                    f.write(payload)
                os.replace(tmp, os.path.join(d, name))
            return pa.table({"rows": pa.array([len(batch)],
                                              type=pa.int64())})

        ds.map_batches(_write, batch_format="pyarrow",
                       batch_size=None).count()
    else:
        raise ValueError(f"unsupported sink format {file_format!r}")
