"""Route + fan-out sinks.

Routing is itself a translate: a dictionary from route key (role, tool, …)
to sink name with a fallback route — so it reuses the exact-match kernel.
Fan-out is single-pass: ONE ``write_parquet(partition_cols=["route"])``
writes every sink directory in the same streaming pass (no per-sink filter
re-scans — N sinks cost one traversal, SURVEY §3.4).
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import ray

from ..config import TranslateConfig
from ..kernel import as_snapshot

# null route keys land here in the JSON sink — the same directory name
# write_parquet's hive partitioning uses for a null partition value
NULL_ROUTE_DIR = "__HIVE_DEFAULT_PARTITION__"


def route_dataset(ds: "ray.data.Dataset", routes: dict[str, str], *,
                  key: str = "role", route_col: str = "route",
                  default_route: str = "other",
                  regex: bool = False) -> "ray.data.Dataset":
    """Add a ``route`` column from a route-key dictionary (broadcast).
    ``regex=True`` routes by ordered regex patterns over the key column
    (first match wins — the exact_regex strategy)."""
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
    fn = make_translate_batch_fn(slim_cfg, snap_ref, matched_col=None,
                                 error_isolation=False)
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def write_routed(ds: "ray.data.Dataset", out_dir: str, *,
                 route_col: str = "route", file_format: str = "parquet",
                 min_rows_per_file: Optional[int] = None) -> None:
    """Single-pass fan-out sink: hive-partitioned output by route
    (parquet default; JSON-lines for downstream text consumers)."""
    kwargs = {}
    if min_rows_per_file is not None:
        kwargs["min_rows_per_file"] = min_rows_per_file
    if file_format == "parquet":
        ds.write_parquet(out_dir, partition_cols=[route_col], **kwargs)
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
        import os

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
