"""Translate as a Ray Data stage.

Two physical flavors, chosen by :func:`translate_dataset`:

1. **Stateless tasks** (inline/static dictionary): the frozen
   :class:`DictSnapshot` is ``ray.put`` once and captured by reference
   (broadcast join, never a shuffle; SURVEY §2.3 "Joins / lookups").
   Each worker process deserializes it once and keeps it, with its
   compiled lookup structures, in a bounded LRU shared by every
   stateless translate and route stage (:func:`_worker_snapshot`).
2. **Actor pool** (file-backed / refreshing dictionary):
   :class:`TranslateFn` — an actor class whose ``__init__`` pulls the
   snapshot from the named :class:`DictionaryService` ONCE, compiles the
   lookup structures, and whose ``__call__`` re-polls the version at batch
   boundaries (a tiny RPC) and swaps snapshots atomically. This mirrors the
   plugin's scheduled_reload without its read-write lock
   (fetch_strategy/file.rb:13-24 → lock-free snapshot swap).

Both run ``batch_format="pyarrow"`` end to end (zero-copy blocks).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

import pyarrow as pa
import ray

from ..config import TranslateConfig
from ..kernel import DictSnapshot, translate_table
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


def _worker_snapshot(snap_ref: "ray.ObjectRef | DictSnapshot") -> DictSnapshot:
    """The snapshot behind ``snap_ref``, deserialized once per worker
    process: its lazily built lookup structures (key and value arrays,
    regex groups, the union regex) then survive from block to block.
    A raw snapshot passes straight through."""
    if not isinstance(snap_ref, ray.ObjectRef):
        return snap_ref
    key = snap_ref.hex()
    with _snapshot_lock:
        snap = _snapshot_cache.get(key)
        if snap is None:
            snap = _snapshot_cache[key] = ray.get(snap_ref)
            if len(_snapshot_cache) > _SNAPSHOT_CACHE_CAP:
                _snapshot_cache.popitem(last=False)
        else:
            _snapshot_cache.move_to_end(key)
        return snap


def make_translate_batch_fn(cfg: TranslateConfig, snap_ref: "ray.ObjectRef | DictSnapshot",
                            matched_col: Optional[str] = "translate_matched",
                            error_isolation: bool = False):
    """Stateless map_batches fn over a broadcast snapshot.

    ``snap_ref`` may be a raw snapshot (tests) or an ``ObjectRef`` placed
    once on the driver (``ray.put``) so N thousand tasks share one plasma
    copy per node instead of re-shipping the dict per task; each worker
    process reads it through :func:`_worker_snapshot`.
    """
    def _fn(batch: pa.Table) -> pa.Table:
        return safe_translate_batch(batch, cfg, _worker_snapshot(snap_ref),
                                    matched_col, error_isolation)
    return _fn


class TranslateFn:
    """Actor-pool translate stage with hot dictionary refresh.

    ``__init__`` runs once per actor (compile/pull cost amortized over the
    actor's lifetime); ``__call__`` runs per batch. ``poll_every`` batches
    between version polls bounds the RPC overhead for tiny batches.
    """

    def __init__(self, cfg: TranslateConfig, service_name: str,
                 matched_col: Optional[str] = "translate_matched",
                 poll_every: int = 1, service_kwargs: Optional[dict[str, Any]] = None,
                 error_isolation: bool = False):
        self.cfg = cfg
        self.matched_col = matched_col
        self.poll_every = max(1, poll_every)
        self.error_isolation = error_isolation
        self._svc = get_or_create_dictionary_service(
            service_name, **(service_kwargs or {}))
        self.snap: DictSnapshot = ray.get(self._svc.get_snapshot.remote())
        self._batches = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        self._batches += 1
        if self._batches % self.poll_every == 0:
            newer = ray.get(self._svc.version_if_newer.remote(self.snap.version))
            if newer is not None:
                self.snap = ray.get(self._svc.get_snapshot.remote())
        return safe_translate_batch(batch, self.cfg, self.snap,
                                    self.matched_col, self.error_isolation)


def translate_dataset(ds: "ray.data.Dataset", cfg: TranslateConfig, *,
                      matched_col: Optional[str] = "translate_matched",
                      service_name: Optional[str] = None,
                      concurrency: "int | tuple[int, int] | None" = None,
                      batch_size: Optional[int] = None,
                      num_cpus: float = 1,
                      error_isolation: bool = False) -> "ray.data.Dataset":
    """Attach the translate stage to a Dataset.

    - inline dictionary → stateless tasks over a broadcast snapshot;
    - ``cfg.dictionary_path`` set → actor pool + DictionaryService named
      ``service_name`` (default derived from the path) with the plugin's
      refresh semantics.
    - ``error_isolation=True`` adds the reference's S12 per-row rescue
      (translate.rb:266-270): a failing row passes through untranslated,
      flagged in a ``translate_error`` column (always present for schema
      stability). Off by default — the vectorized kernel surfaces errors at
      task level where Ray's retries apply, and the extra column is pure
      overhead on clean data.
    """
    # batch_size=None ⇒ whole blocks per batch (Ray's 'default' is 1024-row
    # micro-batches, which multiplies per-batch fixed costs — e.g. index_in's
    # hash-table build over a 100k-key dictionary — by ~50×)
    kwargs: dict[str, Any] = {"batch_format": "pyarrow", "num_cpus": num_cpus,
                              "batch_size": batch_size}
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
        svc = get_or_create_dictionary_service(name, **service_kwargs)
        ray.get(svc.version.remote())
        return ds.map_batches(
            TranslateFn,
            fn_constructor_kwargs=dict(cfg=cfg, service_name=name,
                                       matched_col=matched_col,
                                       service_kwargs=service_kwargs,
                                       error_isolation=error_isolation),
            # autoscaling pool: a FIXED pool sized at the cluster's CPU
            # count can starve the upstream read/enrich stages of slots
            # (observed as a wedge on a 4-CPU test cluster)
            concurrency=concurrency or (1, 4),
            **kwargs)
    snap_ref = ray.put(DictSnapshot(cfg.dictionary))
    # Strip the dictionary from the captured config: the task closure must
    # stay tiny (a 100k-entry dict pickled into every task submission adds
    # ~0.5 s/task of scheduling overhead); tasks read the snapshot zero-copy
    # from the object store instead.
    import dataclasses
    # (field/destination are cleared too — they were already folded into
    # source/target, and replace() re-runs the both-set validation)
    slim_cfg = dataclasses.replace(cfg, dictionary={}, field=None,
                                   destination=None)
    fn = make_translate_batch_fn(slim_cfg, snap_ref, matched_col,
                                 error_isolation)
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    return ds.map_batches(fn, **kwargs)
