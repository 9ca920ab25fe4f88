"""Translate as a Ray Data stage.

One physical flavor for every dictionary: stateless tasks over a
broadcast :class:`DictSnapshot` (broadcast join, never a shuffle;
SURVEY §2.3 "Joins / lookups"). A snapshot is two Arrow arrays (keys
and unified values) that ship as pickle-5 out-of-band buffers, so a
worker process maps them from the object store without a copy. It does
so once per snapshot and keeps the snapshot, with the lookup structures
it compiles lazily, in a bounded LRU shared by every translate and route
stage (:func:`_worker_snapshot`).

- Inline dictionary: the snapshot is ``ray.put`` once, at build time.
- File-backed dictionary: the named :class:`DictionaryService` owns the
  snapshot and ``ray.put``s each loaded version once. Every block asks it
  for the current ref (one small RPC), so each block sees exactly one
  version and each worker compiles once per version. This mirrors the
  plugin's scheduled_reload without its read-write lock
  (fetch_strategy/file.rb:13-24 → lock-free snapshot swap).

Tasks run ``batch_format="pyarrow"`` end to end (zero-copy blocks) and
fuse with their neighbours into one map operator.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Union

import pyarrow as pa
import ray
from ray.actor import ActorHandle

from ..config import TranslateConfig
from ..kernel import DictSnapshot, as_snapshot, translate_table
from ..rayutil import map_blocks
from ..state import get_or_create_dictionary_service


ERROR_COL = "translate_error"


def _set_or_append(tbl: pa.Table, name: str, arr: "pa.Array") -> pa.Table:
    """Replace-if-present (the kernel's _with_matched convention): chained
    stages must not grow duplicate same-named columns."""
    if name in tbl.column_names:
        return tbl.set_column(tbl.column_names.index(name), name, arr)
    return tbl.append_column(name, arr)


def safe_translate_batch(batch: pa.Table, cfg: TranslateConfig,
                         snap: "DictSnapshot",
                         matched_col: Optional[str],
                         error_isolation: bool = True) -> pa.Table:
    """Vectorized kernel with the reference's S12 error isolation
    (translate.rb:266-270: a per-event exception logs and the event passes
    through untranslated). If the batch kernel raises, fall back to
    row-at-a-time execution with per-row try/except; failed rows pass
    through untouched and are marked in a ``translate_error`` column."""
    if not error_isolation:
        return translate_table(batch, cfg, snap, matched_col)
    try:
        out = translate_table(batch, cfg, snap, matched_col)
        # stable schema across batches: error column present even when clean
        return _set_or_append(out, ERROR_COL, pa.nulls(len(out), pa.string()))
    except Exception:
        from ..kernel import translate_row
        rows = batch.to_pylist()
        matched_flags, errors = [], []
        for r in rows:
            try:
                matched_flags.append(translate_row(r, cfg, snap))
                errors.append(None)
            except Exception as e:  # noqa: BLE001 — mirrors the per-event rescue
                matched_flags.append(False)
                errors.append(str(e)[:200])
        out = pa.Table.from_pylist(rows)
        # block-schema invariance: from_pylist re-INFERS types (int32→int64,
        # timestamp[ms]→[us], all-null string→null), which would give the
        # one failing block a different schema than its clean siblings and
        # break downstream concat/unification. Cast every pre-existing
        # column back to its original type; only columns the translate
        # ADDED (target paths) keep inferred types.
        for field in batch.schema:
            if field.name in out.column_names:
                i = out.column_names.index(field.name)
                if out.schema.field(i).type != field.type:
                    import pyarrow.compute as pc
                    out = out.set_column(
                        i, field.name, pc.cast(out[field.name], field.type))
        if matched_col is not None:
            out = _set_or_append(out, matched_col, pa.array(matched_flags))
        return _set_or_append(out, ERROR_COL,
                              pa.array(errors, type=pa.string()))


# Worker-process snapshot cache, keyed by ObjectRef hex. Only the top-level
# _worker_snapshot touches it: cloudpickle ships top-level functions by
# reference, so every task run by one worker process sees this one dict,
# while a dict captured by a task closure is pickled afresh into each task
# and starts empty. The cap must cover the snapshots one fused chain reads
# (the bench flagship chain reads 6: five translates and the route), or a
# cyclic pass over them misses on every block.
_SNAPSHOT_CACHE_CAP = 8
_snapshot_cache: "OrderedDict[str, DictSnapshot]" = OrderedDict()
_snapshot_lock = threading.Lock()


# Where a task finds its snapshot: the snapshot itself (tests), an ObjectRef
# to it, or a DictionaryService handle to ask for the current ref.
SnapshotSource = Union[DictSnapshot, ray.ObjectRef, ActorHandle]


def _worker_snapshot(source: SnapshotSource) -> DictSnapshot:
    """The snapshot behind ``source``, loaded once per worker process:
    its lazily built lookup structures (regex groups, the union regex,
    Python views of the dictionary) then survive from block to block.
    A service handle costs one ``snapshot_ref`` RPC per call, which
    yields the current version's ref. A raw snapshot passes straight
    through."""
    if isinstance(source, ActorHandle):
        _, (source,) = ray.get(source.snapshot_ref.remote())
    if not isinstance(source, ray.ObjectRef):
        return source
    key = source.hex()
    with _snapshot_lock:
        snap = _snapshot_cache.get(key)
        if snap is None:
            snap = _snapshot_cache[key] = ray.get(source)
            if len(_snapshot_cache) > _SNAPSHOT_CACHE_CAP:
                _snapshot_cache.popitem(last=False)
        else:
            _snapshot_cache.move_to_end(key)
        return snap


def make_translate_batch_fn(cfg: TranslateConfig, source: SnapshotSource,
                            matched_col: Optional[str] = "translate_matched",
                            error_isolation: bool = False):
    """Stateless map_batches fn over a broadcast snapshot.

    ``source`` is a raw snapshot (tests), an ``ObjectRef`` placed once at
    build time (``ray.put``) so N thousand tasks share one plasma copy per
    node instead of re-shipping the dict per task, or a
    :class:`DictionaryService` handle for a refreshing dictionary. Each
    block resolves it once through :func:`_worker_snapshot`.
    """
    def _fn(batch: pa.Table) -> pa.Table:
        return safe_translate_batch(batch, cfg, _worker_snapshot(source),
                                    matched_col, error_isolation)
    return _fn


def translate_block_fn(cfg: TranslateConfig, *,
                       matched_col: Optional[str] = "translate_matched",
                       service_name: Optional[str] = None,
                       error_isolation: bool = False):
    """The translate stage as a block function (``pa.Table`` →
    ``pa.Table``) over its broadcast snapshot; the arguments are
    :func:`translate_dataset`'s."""
    if cfg.dictionary_path:
        service_kwargs = dict(
            path=cfg.dictionary_path,
            refresh_interval=cfg.refresh_interval,
            refresh_behaviour=cfg.refresh_behaviour,
            yaml_code_point_limit=cfg.yaml_dictionary_code_point_limit,
            yaml_load_strategy=cfg.yaml_load_strategy,
            missing_file_ok=cfg.missing_file_ok,
        )
        # the default name folds the FULL refresh config in: get-or-create
        # with get_if_exists silently ignores kwargs when the name already
        # exists, so two pipelines sharing a path but differing in (say)
        # refresh_behaviour would otherwise reuse one actor and one of
        # them would run with the OTHER's semantics (r4 review). An
        # explicit service_name remains the user's opt-in to share.
        cfg_sig = "|".join(f"{k}={service_kwargs[k]}"
                           for k in sorted(service_kwargs))
        name = service_name or f"lftr-dict:{cfg_sig}"
        # eagerly create (and first-load) the service so a bad dictionary
        # fails at pipeline BUILD time, matching register-time behavior (S13)
        source = get_or_create_dictionary_service(name, **service_kwargs)
        ray.get(source.version.remote())
    else:
        source = ray.put(as_snapshot(cfg.dictionary))
    # Strip the dictionary from the captured config: the task closure must
    # stay tiny (a 100k-entry dict pickled into every task submission adds
    # ~0.5 s/task of scheduling overhead); tasks read the snapshot zero-copy
    # from the object store instead.
    import dataclasses
    # (field/destination are cleared too — they were already folded into
    # source/target, and replace() re-runs the both-set validation)
    slim_cfg = dataclasses.replace(cfg, dictionary={}, field=None,
                                   destination=None)
    return make_translate_batch_fn(slim_cfg, source, matched_col,
                                   error_isolation)


def translate_dataset(ds: "ray.data.Dataset", cfg: TranslateConfig, *,
                      matched_col: Optional[str] = "translate_matched",
                      service_name: Optional[str] = None,
                      concurrency: Optional[int] = None,
                      batch_size: Optional[int] = None,
                      error_isolation: bool = False) -> "ray.data.Dataset":
    """Attach the translate stage to a Dataset.

    - inline dictionary → stateless tasks over a broadcast snapshot;
    - ``cfg.dictionary_path`` set → the same tasks, reading the snapshot
      of the DictionaryService named ``service_name`` (default derived
      from the path and refresh config) with the plugin's refresh
      semantics.
    - ``error_isolation=True`` adds the reference's S12 per-row rescue
      (translate.rb:266-270): a failing row passes through untranslated,
      flagged in a ``translate_error`` column (always present for schema
      stability). Off by default — the vectorized kernel surfaces errors at
      task level where Ray's retries apply, and the extra column is pure
      overhead on clean data.
    """
    fn = translate_block_fn(cfg, matched_col=matched_col,
                            service_name=service_name,
                            error_isolation=error_isolation)
    # batch_size=None ⇒ whole blocks per batch (Ray's 'default' is 1024-row
    # micro-batches, which multiplies per-batch fixed costs — e.g. index_in's
    # hash-table build over a 100k-key dictionary — by ~50×)
    return map_blocks(ds, fn, concurrency, batch_size)
