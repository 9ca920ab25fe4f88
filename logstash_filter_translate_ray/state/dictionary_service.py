"""DictionaryService — a named Ray actor owning the live dictionary state.

Replaces the reference's scheduler-thread + ReentrantReadWriteLock design
(translate.rb:259-261 scheduler.interval { reload_dictionary };
dictionary/file.rb:38,81-100 write-locked merge/replace) with the
Ray-idiomatic equivalent:

- ONE named detached-scope actor holds ``(version, snapshot)``; every
  successful (re)load produces a fresh immutable
  :class:`~logstash_filter_translate_ray.kernel.DictSnapshot` and bumps the
  version.
- Translate tasks call ``snapshot_ref`` once per block: one small RPC
  returning the current version and an ``ObjectRef`` to its snapshot,
  which is ``ray.put`` once per version — so refresh checking stays off
  the hot path ("minimise impact on throughput",
  docs/index.asciidoc:73-80).
- TTL refresh: the actor lazily reloads when ``refresh_interval`` elapsed
  at check time (overlap-free by actor serialization, like
  ``scheduler.interval(..., overlap: false)``), and mtime-gates the file
  read for short intervals exactly as dictionary/file.rb:104-114.
- First-load errors raise at actor construction (pipeline startup), refresh
  errors keep the old dictionary (S13).

At 100 TB scale the snapshot (≤100k keys, docs/index.asciidoc:76-77) is tiny
relative to data; each worker process deserializes it once per version.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import ray

from ..dictionary import FileDictionary
from ..kernel import DictSnapshot


@ray.remote(num_cpus=0)
class DictionaryService:
    """Versioned dictionary snapshot holder with TTL refresh.

    Refresh fires two ways, both serialized by ``_reload_lock``:

    - lazily at worker polls (the hot path — a no-op comparison most calls);
    - from a daemon ``threading.Timer`` chain mirroring the reference's
      wall-clock ``scheduler.interval { reload_dictionary }``
      (translate.rb:259-261): an IDLE pipeline still reloads on schedule.
      ``overlap: false`` parity comes from the lock; a refresh error in the
      timer keeps the old dictionary (S13) and the chain alive.
    """

    def __init__(self, path: str,
                 refresh_interval: float = 300,
                 refresh_behaviour: str = "merge",
                 yaml_code_point_limit: Optional[int] = None,
                 yaml_load_strategy: str = "one_shot",
                 background_refresh: bool = True,
                 missing_file_ok: bool = False):
        self._backend = FileDictionary(
            path, refresh_interval=refresh_interval,
            refresh_behaviour=refresh_behaviour,
            yaml_code_point_limit=yaml_code_point_limit,
            yaml_load_strategy=yaml_load_strategy,
            missing_file_ok=missing_file_ok)
        self._refresh_interval = refresh_interval
        self._last_check = time.monotonic()
        self._reload_lock = threading.Lock()
        # the current version's snapshot in the object store, put on the
        # first snapshot_ref call after each load
        self._ref: Optional[tuple[int, "ray.ObjectRef"]] = None
        self._timer: Optional[threading.Timer] = None
        if background_refresh and refresh_interval > 0:
            self._schedule_tick()

    def _schedule_tick(self) -> None:
        t = threading.Timer(self._refresh_interval, self._tick)
        t.daemon = True           # dies with the (detached) actor process
        t.start()
        self._timer = t

    def _tick(self) -> None:
        try:
            with self._reload_lock:
                try:
                    self._backend.reload()
                except Exception:
                    pass          # S13: refresh failure keeps the old dict
                self._last_check = time.monotonic()
        finally:
            self._schedule_tick()

    def _maybe_refresh(self) -> None:
        if self._refresh_interval <= 0:          # translate.rb:259 "interval of zero makes no sense"
            return
        now = time.monotonic()
        if now - self._last_check >= self._refresh_interval:
            with self._reload_lock:
                # re-check under the lock: a poll racing the timer tick
                # (which just reloaded and advanced _last_check) must not
                # pay a second full reload
                if time.monotonic() - self._last_check \
                        < self._refresh_interval:
                    return
                self._last_check = time.monotonic()
                self._backend.reload()

    # -- worker API --------------------------------------------------------

    def version_if_newer(self, known_version: int) -> Optional[int]:
        """Cheap version poll: None when the caller is current."""
        self._maybe_refresh()
        v = self._backend.version
        return v if v != known_version else None

    def get_snapshot(self) -> DictSnapshot:
        self._maybe_refresh()
        return self._backend.snapshot

    def snapshot_ref(self) -> tuple[int, list["ray.ObjectRef"]]:
        """Per-block poll: the current version and a ref to its snapshot.

        The snapshot is ``ray.put`` at most once per loaded version and only
        the current version's ref is kept. The ref travels nested in a list,
        so the caller holds a borrowed ref that keeps the snapshot alive
        after the service moves on to a newer version."""
        self._maybe_refresh()
        # the timer thread reloads concurrently: under the lock, the ref
        # kept is the snapshot current while it is put
        with self._reload_lock:
            snap = self._backend.snapshot
            if self._ref is None or self._ref[0] != snap.version:
                self._ref = (snap.version, ray.put(snap))
            return snap.version, [self._ref[1]]

    # -- control API (tests / scheduler) -----------------------------------

    def refresh(self, force: bool = False) -> int:
        """Explicit reload (the scheduler tick); returns the current version."""
        with self._reload_lock:
            self._backend.reload(force=force)
            self._last_check = time.monotonic()
        return self._backend.version

    def version(self) -> int:
        return self._backend.version


def get_or_create_dictionary_service(name: str, **kwargs) -> "ray.actor.ActorHandle":
    """Named-actor get-or-create so every pipeline stage shares one service.

    ``lifetime="detached"``: the service outlives the caller that won the
    get-or-create race (one pipeline build, or one shard of a resumable
    run), so every other stage and pipeline sharing the name keeps its
    dictionary, and the snapshot refs it handed out stay owned by a live
    process. Detached actors live until the Ray session ends (or an
    explicit ``ray.kill``).
    """
    # explicit namespace: a detached actor in the session's anonymous
    # namespace triggers a per-creation Ray warning and cannot be found by
    # other jobs; a fixed namespace makes get-or-create deterministic
    return DictionaryService.options(
        name=name, namespace="lftr-dictionaries", get_if_exists=True,
        lifetime="detached").remote(**kwargs)
