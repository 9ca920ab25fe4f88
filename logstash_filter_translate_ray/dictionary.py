"""Dictionary backend: the file-backed dict with merge/replace refresh,
mtime gating, and per-format loaders. An inline dictionary needs no
backend: ``translate_block_fn`` turns it into a snapshot and ``ray.put``s
it (``Dictionary::Memory``, dictionary/memory.rb:9-31).

Reimplements (from scratch, Python-native) the semantics of:

- ``Dictionary::File`` base           (dictionary/file.rb:34-125): extension
  dispatch, first-load-raises vs refresh-keeps-old, merge vs replace under
  an atomic snapshot swap (replaces the reference's RW lock), mtime-gated
  short refresh (interval ≤ 300 s).
- ``CsvFile``   (csv_file.rb:9-13):  two-column CSV, BOM-tolerant, string values
- ``JsonFile``  (json_file.rb:9-12): whole-file JSON object, empty file OK
- ``YamlFile``  (yaml_file.rb:16-30): one_shot with code-point limit, or
  streaming event parse; ``!!map``/``!!omap`` top-level tags supported
  (yaml_visitor.rb:13-16)
- ``StreamingYamlDictParser`` scalar coercion (streaming_yaml_parser.rb:88-109)

Instead of a shared mutable Hash + ReentrantReadWriteLock, every (re)load
produces an immutable :class:`~.kernel.DictSnapshot` with a monotonically
increasing version — readers swap snapshots between batches, which is the
lock-free Ray-idiomatic equivalent (SURVEY §3.3/§4).
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
import time
from typing import Any, Iterator, Optional

from .errors import ConfigurationError, DictionaryFileError
from .kernel import DictSnapshot
from .config import is_yaml_path, YAML_CODE_POINT_LIMIT_DEFAULT

SHORT_REFRESH_MAX = 300  # dictionary/file.rb:37


# --------------------------------------------------------------------------
# Format loaders — each returns an ordered list[(key, value)]
# --------------------------------------------------------------------------

def load_csv_items(path: str) -> list[tuple[str, Any]]:
    """csv_file.rb:9-13 — 'r:bom|utf-8', dict[k] = v per 2-column row."""
    items: list[tuple[str, Any]] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        for row in csv.reader(f):
            if not row:
                continue
            k = row[0]
            v = row[1] if len(row) > 1 else None
            items.append((k, v))
    return items


def load_json_items(path: str) -> list[tuple[str, Any]]:
    """json_file.rb:9-12 — whole-file JSON object; empty file ⇒ no entries."""
    with open(path, "r", encoding="utf-8-sig") as f:
        content = f.read()
    if not content.strip():
        return []
    data = json.loads(content)
    if not isinstance(data, dict):
        raise ValueError(f"Translate: JSON dictionary {path} must be a top-level object")
    return list(data.items())


# --- YAML: one_shot (safe_load + code point limit) -------------------------

def load_yaml_items(path: str, code_point_limit: int = YAML_CODE_POINT_LIMIT_DEFAULT,
                    strategy: str = "one_shot") -> list[tuple[str, Any]]:
    """yaml_file.rb:16-30. ``code_point_limit`` mirrors Psych's
    code_point_limit (translate.rb:197): the document's character count is
    bounded before parse. Top-level ``!!map``/``!!omap`` tags flatten into
    the dictionary (yaml_visitor.rb:13-16, tag-map/tag-omap fixtures)."""
    with open(path, "r", encoding="utf-8-sig") as f:
        text = f.read()
    if len(text) > code_point_limit:
        raise ValueError(
            f"The incoming YAML document exceeds the limit: {code_point_limit} code points.")
    if strategy == "streaming":
        return list(streaming_yaml_pairs(text))
    data = _yaml_one_shot_load(text)
    return _yaml_top_level_items(data, path)


def _yaml_one_shot_load(text: str) -> Any:
    """safe_load with the reference visitor's tag table: top-level
    ``!!map`` AND ``!!omap`` (in either flow-mapping or sequence form) both
    construct a plain dict (yaml_visitor.rb:13-16)."""
    import yaml

    class _DictLoader(yaml.SafeLoader):
        pass

    def _omap(loader, node):
        if isinstance(node, yaml.MappingNode):
            return loader.construct_mapping(node)
        gen = loader.construct_yaml_omap(node)
        ret = next(gen)           # yields the (empty) list first …
        for _ in gen:             # … and fills it only when RESUMED —
            pass                  # exhaust or sequence-form !!omap loads []
        return ret

    _DictLoader.add_constructor("tag:yaml.org,2002:omap", _omap)
    return yaml.load(text, Loader=_DictLoader)


def _yaml_top_level_items(data: Any, path: str) -> list[tuple[str, Any]]:
    if data is None:
        return []
    if isinstance(data, dict):
        return list(data.items())
    # PyYAML renders !!omap as a list of (k, v) tuples or single-entry dicts
    if isinstance(data, list):
        items: list[tuple[str, Any]] = []
        for entry in data:
            if isinstance(entry, tuple) and len(entry) == 2:
                items.append((entry[0], entry[1]))
            elif isinstance(entry, dict) and len(entry) == 1:
                items.append(next(iter(entry.items())))
            else:
                raise ValueError(
                    f"Translate: YAML dictionary {path} must be a top-level mapping")
        return items
    raise ValueError(f"Translate: YAML dictionary {path} must be a top-level mapping")


# --- YAML: streaming event-walk with plain-scalar coercion -----------------

# thread-local: SafeConstructor carries mutable in-flight state
# (constructed_objects / recursive_objects) that two concurrent
# FileDictionary loads in one process would otherwise clear out from
# under each other mid-construct (advisor r4)
_SCALAR_RESOLVER = threading.local()


def _coerce_plain_scalar(text: str) -> Any:
    """Plain-scalar typing EXACTLY as the one_shot SafeLoader would
    resolve it (the engine's documented promise is streaming ≡ one_shot,
    D7; the reference shape is streaming_yaml_parser.rb:88-109): delegate
    to PyYAML's implicit resolver + SafeConstructor instead of hand-rolled
    regexes. YAML 1.1 sexagesimals (1:30), yes/no/on/off booleans,
    .inf/.nan, timestamps and signed-exponent floats now all type
    identically to a full load — the old regexes turned '1e3' into a float
    that one_shot keeps as a string, crashed on the all-underscore scalar
    '_', and accepted the YAML-1.2-only 0o7 octal form (review r4 fuzz)."""
    import yaml
    pair = getattr(_SCALAR_RESOLVER, "pair", None)
    if pair is None:
        pair = (yaml.resolver.Resolver(),
                yaml.constructor.SafeConstructor())
        _SCALAR_RESOLVER.pair = pair
    resolver, constructor = pair
    tag = resolver.resolve(yaml.nodes.ScalarNode, text, (True, False))
    node = yaml.nodes.ScalarNode(tag, text)
    try:
        return constructor.construct_object(node, deep=True)
    except yaml.constructor.ConstructorError:
        # a resolvable-but-unconstructable plain scalar (e.g. '=' → the
        # value tag): keep the text rather than failing the whole load
        return text
    finally:
        # the constructor memoizes per node — drop the references so a
        # 100k-entry dictionary reload doesn't accumulate them
        constructor.constructed_objects.clear()
        constructor.recursive_objects.clear()


def streaming_yaml_pairs(text: str) -> Iterator[tuple[Any, Any]]:
    """Incremental event-stream YAML parse of a top-level mapping
    (StreamingYamlDictParser#each_pair, streaming_yaml_parser.rb:26-32).
    Must produce a dict equal to the one_shot path (spec
    translate_spec.rb:242-255). Nested values are built recursively."""
    import yaml

    events = yaml.parse(text, Loader=yaml.SafeLoader)
    # drive to the top-level mapping
    depth_started = False
    ev_iter = iter(events)
    for ev in ev_iter:
        if isinstance(ev, yaml.MappingStartEvent):
            depth_started = True
            break
        if isinstance(ev, (yaml.ScalarEvent, yaml.SequenceStartEvent)):
            raise ValueError("Translate: YAML dictionary must be a top-level mapping")
    if not depth_started:
        return
    while True:
        key_ev = next(ev_iter)
        if isinstance(key_ev, yaml.MappingEndEvent):
            return
        key = _build_value(key_ev, ev_iter, plain_coerce=True)
        value = _build_value(next(ev_iter), ev_iter, plain_coerce=True)
        yield key, value


def _build_value(ev: Any, ev_iter: Iterator, plain_coerce: bool) -> Any:
    import yaml

    if isinstance(ev, yaml.ScalarEvent):
        if ev.style is None and plain_coerce:   # plain scalar → typed
            return _coerce_plain_scalar(ev.value)
        return ev.value                         # quoted stays string
    if isinstance(ev, yaml.SequenceStartEvent):
        out = []
        while True:
            nxt = next(ev_iter)
            if isinstance(nxt, yaml.SequenceEndEvent):
                return out
            out.append(_build_value(nxt, ev_iter, plain_coerce))
    if isinstance(ev, yaml.MappingStartEvent):
        d: dict = {}
        while True:
            kev = next(ev_iter)
            if isinstance(kev, yaml.MappingEndEvent):
                return d
            k = _build_value(kev, ev_iter, plain_coerce)
            d[k] = _build_value(next(ev_iter), ev_iter, plain_coerce)
    if isinstance(ev, yaml.AliasEvent):
        raise ValueError("Translate: YAML aliases unsupported in streaming mode")
    raise ValueError(f"Translate: unexpected YAML event {ev!r}")


# --------------------------------------------------------------------------
# File backend
# --------------------------------------------------------------------------

class FileDictionary:
    """File-backed dictionary with merge/replace refresh (dictionary/file.rb).

    - Construction performs the first load and RAISES on failure
      (:class:`DictionaryFileError`, file.rb:50 ``load_dictionary(true)``,
      S13 / spec translate_spec.rb:212-230).
    - ``reload()`` (the scheduler entry, file.rb:103-110) re-reads the file:
      a missing file or a parse error logs-and-keeps-old; when
      ``refresh_interval ≤ 300`` the read is skipped unless mtime changed
      (``@short_refresh``, file.rb:37,112-114).
    - merge keeps keys deleted from the file; replace drops them (S10).
    - Every successful load produces a fresh immutable DictSnapshot and bumps
      ``version`` — the lock-free analogue of the reference's write lock.
    """

    def __init__(self, path: str, refresh_interval: float = 300,
                 refresh_behaviour: str = "merge",
                 yaml_code_point_limit: Optional[int] = None,
                 yaml_load_strategy: str = "one_shot",
                 missing_file_ok: bool = False):
        if is_yaml_path(path):
            self._loader = lambda: load_yaml_items(
                path, yaml_code_point_limit or YAML_CODE_POINT_LIMIT_DEFAULT,
                yaml_load_strategy)
        elif path.endswith(".json"):
            self._loader = lambda: load_json_items(path)
        elif path.endswith(".csv"):
            self._loader = lambda: load_csv_items(path)
        else:
            # file.rb:20 — unknown extension
            raise DictionaryFileError(
                f"Translate: Dictionary {path} has a non valid format")
        if refresh_behaviour not in ("merge", "replace"):
            raise ConfigurationError(
                f"Unknown value for refresh_behaviour={refresh_behaviour}")
        self.path = path
        self.refresh_behaviour = refresh_behaviour
        self.refresh_interval = refresh_interval
        self.missing_file_ok = missing_file_ok
        self._short_refresh = refresh_interval <= SHORT_REFRESH_MAX
        self._mtime: Optional[float] = None
        self._items: dict[str, Any] = {}
        self._version = 0
        self._snapshot: Optional[DictSnapshot] = None
        self._load(raise_exception=True)

    # -- public surface ----------------------------------------------------

    @property
    def snapshot(self) -> DictSnapshot:
        assert self._snapshot is not None
        return self._snapshot

    @property
    def version(self) -> int:
        return self._version

    def reload(self, force: bool = False) -> bool:
        """Scheduler-driven reload (file.rb:103-110). Returns True when a
        new snapshot was produced."""
        if self._short_refresh and not force and not self._needs_refresh():
            return False
        return self._load(raise_exception=False)

    # -- internals ---------------------------------------------------------

    def _needs_refresh(self) -> bool:
        try:
            return self._mtime != os.path.getmtime(self.path)
        except OSError:
            return False  # missing file: warn path handled in _load

    def _load(self, raise_exception: bool) -> bool:
        try:
            # capture the mtime BEFORE reading (a writer landing between
            # the read and a post-read stat would be skipped forever) but
            # RECORD it only after a successful parse: recording it here
            # would poison the refresh gate on a transient failure (e.g.
            # catching a non-atomic writer mid-write) and the completed
            # file would never reload (r4 review)
            mtime = os.path.getmtime(self.path)
            items = self._loader()
            new_items = {} if self.refresh_behaviour == "replace" \
                else dict(self._items)
            for k, v in items:
                new_items[k] = v
            snapshot = DictSnapshot(new_items, version=self._version + 1)
        except FileNotFoundError as e:
            # file.rb:54-55 — warn, continue with old dictionary; the
            # FIRST load (raise_exception=True) fails loudly by DEFAULT: a
            # missing file at register time otherwise leaves _snapshot=None
            # and every consumer dies later with a bare AssertionError
            # (S13, deliberate deviation — SURVEY §8). ``missing_file_ok``
            # opts back into the reference's exact ENOENT rescue
            # (register with an EMPTY dictionary, warn, let refresh pick
            # the file up once it appears — translate_spec.rb:212-230).
            if raise_exception:
                if self.missing_file_ok:
                    import logging
                    logging.getLogger(__name__).warning(
                        "dictionary file read failure, continuing with "
                        "empty dictionary (missing_file_ok): %s", self.path)
                    self._snapshot = DictSnapshot({},
                                                  version=self._version + 1)
                    self._version += 1
                    return False
                raise DictionaryFileError(
                    f"Translate: {e} when loading dictionary file at "
                    f"{self.path}") from e
            return False
        except ConfigurationError:
            # content the snapshot rejects (invalid Unicode text): the
            # first load fails the build, a refresh keeps the old dictionary
            if raise_exception:
                raise
            return False
        except Exception as e:  # noqa: BLE001 — mirrors file.rb:56-61
            if raise_exception:
                raise DictionaryFileError(
                    f"Translate: {e} when loading dictionary file at {self.path}"
                ) from e
            return False
        self._items = new_items
        # publish snapshot BEFORE the version bump: the service's reads
        # are unlocked, and the old order let a reader observe version
        # v+1 while fetching snapshot v (a stale-dict window until the
        # next poll). Either assignment is atomic under the GIL, so the
        # worst interleaving now is (v, new snapshot) — harmless.
        self._mtime = mtime
        self._snapshot = snapshot
        self._version += 1
        return True

