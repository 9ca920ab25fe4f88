"""Vectorized translate kernels (Arrow) + row-oriented oracle.

This module reimplements — from scratch, batch-first — the semantics of the
reference's per-event hot path:

- ``Translate#filter``            (translate.rb:264-271)
- ``SingleValueUpdate``           (single_value_update.rb:27-47)
- ``ArrayOfValuesUpdate``         (array_of_values_update.rb:29-45)
- ``ArrayOfMapsValueUpdate``      (array_of_maps_value_update.rb:18-38)
- ``FetchStrategy::Memory::{Exact,ExactRegex,RegexUnion}`` (memory.rb:4-49)

The vectorized entry point is :func:`translate_table` —
``pa.Table -> pa.Table`` adding the target column and a boolean
``translate_matched`` column (the ``filter_matched`` bookkeeping,
translate.rb:267). The row-oriented entry point :func:`translate_row`
is a direct, readable transcription of the reference semantics used as the
differential-test oracle (tests compare kernel output to oracle output on
the same rows).

Semantic fine print implemented (SURVEY §2.5):
 S1 null/absent source ⇒ row untouched (even with fallback)
 S2 target already present (non-null) and !override ⇒ row untouched
 S3 lookup key is Ruby ``to_s`` of the source value (array → first elem)
 S4 exact mode treats keys literally
 S5 exact+regex: unanchored search, insertion-ordered first match wins
 S6 exact=false: every occurrence of every (escaped) key substituted;
    unchanged string ⇒ miss
 S7 fallback is ``%{field}``-interpolated per event
 S8 array-of-values: result same length, fallback-prefilled, nil on miss
 S9 array-of-maps: per-element nested write, nil elements skipped
 S11 dictionary values keep their type and never alias (deep-cloned)
 S15 matched ⇔ a write happened (lookup or fallback) or in-place mode

Columnar constraint (documented deviation): a single-typed Arrow column
cannot hold heterogeneous Ruby objects, so the written target type is
decided by DATASET-invariant facts only (never by which rows share a
block): values that unify to one Arrow type keep it; a fallback, or a
dictionary whose values DON'T unify (``value_array is None``), switches
the whole column to string with Logstash-style stringification (the row
oracle writes raw objects; differential tests compare through ruby_to_s
in that case).
"""

from __future__ import annotations

import copy
import re
from typing import Any, Iterable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .config import TranslateConfig
from .errors import ConfigurationError
from .fieldref import event_get, event_include, event_set, parse_field_ref
from .sprintf import is_static, sprintf_column, sprintf_row, _cast_to_string

MATCHED_COL = "translate_matched"


def ruby_to_s(value: Any) -> str:
    """Ruby ``to_s`` for lookup-key coercion (single_value_update.rb:5-13)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    if isinstance(value, bytes):
        from .sprintf import _bytes_to_s
        return _bytes_to_s(value)
    return str(value)


def _roundtrip_exact(orig: Any, back: Any) -> bool:
    """True iff Arrow's Python round-trip preserved every value's category
    and content. Categories: None / bool / numeric (int & float compare by
    value, NaN ⇔ NaN) / str / bytes / list / dict; anything else compares
    by ``==`` (datetimes). A struct-unified dict may gain absent fields as
    null children — equal under the engine's null ⇔ absent convention."""
    if orig is None:
        return back is None
    if isinstance(orig, bool) or isinstance(back, bool):
        return isinstance(orig, bool) and isinstance(back, bool) and orig == back
    if isinstance(orig, (int, float)):
        # CATEGORY-strict: an int promoted to float by a mixed int/float
        # dictionary is a Ruby Integer rendered Float — the fallback-unify
        # branch would then stringify 1 as "1.0" instead of "1". Mixed
        # numeric dictionaries are heterogeneous Ruby objects; stringify.
        if isinstance(orig, float) != isinstance(back, float):
            return False
        return orig == back or (orig != orig and back != back)
    if isinstance(orig, str):
        return isinstance(back, str) and orig == back
    if isinstance(orig, bytes):
        return isinstance(back, bytes) and orig == back
    if isinstance(orig, list):
        return (isinstance(back, list) and len(orig) == len(back)
                and all(_roundtrip_exact(o, b) for o, b in zip(orig, back)))
    if isinstance(orig, dict):
        if not isinstance(back, dict):
            return False
        if any(not _roundtrip_exact(v, back.get(k)) for k, v in orig.items()):
            return False
        # ORDER-strict: struct unification orders fields first-seen, so a
        # dict whose keys come in another order than an earlier one's
        # would render (sprintf, string merges) in the wrong order
        if [k for k in back if k in orig] != list(orig):
            return False
        return all(back[k] is None for k in back.keys() - orig.keys())
    return orig == back


# --------------------------------------------------------------------------
# Dictionary snapshot (compiled once, reused across batches / pulled by actors)
# --------------------------------------------------------------------------

class DictSnapshot:
    """Immutable ordered dictionary + lazily compiled lookup structures.

    Mirrors the compile-once-per-reload discipline of the reference
    (fetch_strategy/file.rb:36-39: "compiling a regex map of 100,000 keys
    takes 0.5 seconds" — done at reload, never per event). Insertion order
    is preserved (S5/S6 depend on it); duplicate keys keep their first
    position and last value (Ruby Hash semantics).
    """

    def __init__(self, items: "dict | Iterable[tuple[Any, Any]]", version: int = 0):
        if isinstance(items, dict):
            items = items.items()
        self.map: dict[str, Any] = {}
        for k, v in items:
            self.map[ruby_to_s(k)] = v
        self.keys: list[str] = list(self.map.keys())
        self.values: list[Any] = list(self.map.values())
        self.version = version
        # lazy caches
        self._key_arr: Optional[pa.Array] = None
        self._value_arr: Optional[pa.Array] = None
        self._value_arr_tried = False
        self._regex_rows: Optional[list[tuple[str, "re.Pattern", bool]]] = None
        self._union_re: Optional["re.Pattern"] = None
        self._values_str: Optional[list[str]] = None
        self._union_seq_safe: Optional[bool] = None
        self._regex_groups: Optional[list] = None

    def __len__(self) -> int:
        return len(self.map)

    @property
    def key_array(self) -> pa.Array:
        if self._key_arr is None:
            self._key_arr = pa.array(self.keys, type=pa.string())
        return self._key_arr

    @property
    def value_array(self) -> Optional[pa.Array]:
        """Arrow array of values when they unify to one non-null type, else None.

        ``pa.array()`` alone cannot decide unification: its Python→Arrow
        coercion is insertion-order-dependent and silently value-corrupting
        for some mixes (``[0.0, False]`` → double ``[0.0, 0.0]`` while the
        reversed order raises; ``['x', b'y']`` → binary; the same one level
        down inside lists and structs), and >int64 ints raise OverflowError
        rather than an Arrow error. The built array is round-tripped back to
        Python and compared with category-exact equality — any drift falls
        back to the stringify (non-unify) path, which ``_materialize_values``
        already handles for every value shape.
        """
        if not self._value_arr_tried:
            self._value_arr_tried = True
            try:
                arr = pa.array(self.values)
                if not pa.types.is_null(arr.type) and _roundtrip_exact(
                        list(self.values), arr.to_pylist()):
                    self._value_arr = arr
            except (pa.ArrowInvalid, pa.ArrowTypeError,
                    pa.ArrowNotImplementedError, OverflowError):
                self._value_arr = None
        return self._value_arr

    @property
    def regex_rows(self) -> list[tuple[str, "re.Pattern", bool]]:
        """[(pattern, compiled, arrow_ok)] in insertion order
        (memory.rb:20-23). ``pattern`` is the key run through the
        Ruby→Python dialect shim (regex_dialect.py): Ruby-only constructs
        either translate faithfully or raise a ConfigurationError naming
        the key — never silently compile to different semantics."""
        if self._regex_rows is None:
            from .regex_dialect import compile_ruby_regex, ruby_regex_to_python
            rows = []
            probe = pa.array([""])  # non-empty: RE2 compiles lazily, an empty probe validates nothing
            for k in self.keys:
                compiled = compile_ruby_regex(k)
                # (?m: …) gives RE2 the same Ruby line-anchor semantics the
                # Python side gets via re.MULTILINE (RE2 classes are
                # already ASCII, matching re.ASCII on the Python side)
                pat = "(?m:" + ruby_regex_to_python(k) + ")"
                try:
                    pc.match_substring_regex(probe, pattern=pat)
                    arrow_ok = True
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                    arrow_ok = False
                rows.append((pat, compiled, arrow_ok))
            self._regex_rows = rows
        return self._regex_rows

    REGEX_GROUP_SIZE = 32      # patterns OR-ed per alternation group
    # Dict size at which the two-level (grouped-alternation) path takes
    # over. Micro-benched at 100k rows (BASELINE.md): low-match batches are
    # 2-3× faster grouped from K=8 up; high-match batches pay ≤17% for the
    # extra alternation pass at K≥16. 16 is the balanced crossover.
    REGEX_GROUPED_MIN = 16

    @property
    def regex_groups(self) -> list[tuple[int, int, Optional[str]]]:
        """Two-level structure for large regex dictionaries:
        ``[(start, end, group_pattern | None)]`` — consecutive arrow-safe
        patterns are OR-ed into one RE2 alternation (``(?:p1)|(?:p2)|…``) so
        a batch needs ~K/32 vector passes to find WHICH group matches, then
        resolves first-match-wins inside the (usually single) hit group.
        Python-only patterns become singleton groups with ``None``.

        This is the scale answer to the reference's 100k-key dictionaries
        (fetch_strategy/file.rb:36-38): compile once per snapshot, amortize
        across batches.
        """
        if self._regex_groups is None:
            rows = self.regex_rows
            groups: list[tuple[int, int, Optional[str]]] = []
            i = 0
            probe = pa.array([""])  # non-empty: RE2 compiles lazily, an empty probe validates nothing
            while i < len(rows):
                if not rows[i][2]:               # python-only → singleton
                    groups.append((i, i + 1, None))
                    i += 1
                    continue
                j = i
                while j < len(rows) and rows[j][2] \
                        and j - i < self.REGEX_GROUP_SIZE:
                    j += 1
                pattern = "|".join(f"(?:{rows[k][0]})" for k in range(i, j))
                try:
                    pc.match_substring_regex(probe, pattern=pattern)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                    pattern = None               # composite rejected → singles
                if pattern is None:
                    for k in range(i, j):
                        groups.append((k, k + 1, rows[k][0]))
                else:
                    groups.append((i, j, pattern))
                i = j
            self._regex_groups = groups
        return self._regex_groups

    @property
    def union_re(self) -> Optional["re.Pattern"]:
        """Regexp.union(keys) equivalent: literal-escaped alternation in
        insertion order (memory.rb:38). None for an empty dictionary
        (Ruby's Regexp.union() never matches)."""
        if self._union_re is None and self.keys:
            self._union_re = re.compile("|".join(re.escape(k) for k in self.keys))
        return self._union_re

    @property
    def values_str(self) -> list[str]:
        if self._values_str is None:
            self._values_str = [ruby_to_s(v) for v in self.values]
        return self._values_str

    @property
    def union_sequential_safe(self) -> bool:
        """True when per-key sequential literal replacement is provably
        equivalent to the single-pass alternation gsub (O8) — the condition
        for the fully vectorized ``pc.replace_substring`` fast path:

        - no key is a substring of another key (containment changes which
          alternative wins), and
        - no non-empty proper suffix of one key equals a prefix of a
          DIFFERENT key (cross-key overlap in the subject string changes
          scan order; self-overlap is fine — both scans are leftmost
          non-overlapping), and
        - no replacement value contains any key (a replacement must not
          create new matches for later keys).

        Conservative (sufficient, not necessary); ineligible dictionaries
        fall back to the compiled single-pass ``re.sub``.
        """
        if self._union_seq_safe is None:
            self._union_seq_safe = self._check_union_sequential_safe()
        return self._union_seq_safe

    def _check_union_sequential_safe(self) -> bool:
        keys = self.keys
        if len(keys) > 64:          # O(K²·L) check — cap it
            return False
        for k1 in keys:
            for k2 in keys:
                if k1 is not k2:
                    if k2 in k1:
                        return False
                    for i in range(1, len(k1)):
                        if k2.startswith(k1[i:]):
                            return False
        for v in self.values_str:
            for k in keys:
                if k in v:
                    return False
                # a replacement may also complete a key TOGETHER WITH the
                # surrounding subject text (review r3: {"x": "ab",
                # "abc": "q"} on "xc" — the "ab" butts against "c" and a
                # later sequential pass matches "abc" that the single-pass
                # union never saw): unsafe if any suffix of v is a prefix
                # of k, or any prefix of v is a suffix of k.
                for i in range(1, min(len(v) + 1, len(k))):
                    if k.startswith(v[-i:]) or k.endswith(v[:i]):
                        return False
        return True

    # ---- row-oriented fetches (the oracle's strategies, memory.rb:4-49) ----

    def fetch_exact(self, source: str) -> tuple[bool, Any]:
        if source in self.map:
            return True, copy.deepcopy(self.map[source])
        return False, None

    def fetch_exact_regex(self, source: str) -> tuple[bool, Any]:
        # index-based value access: regex_rows holds the dialect-TRANSLATED
        # pattern, not the raw dictionary key
        for i, (_, compiled, _ok) in enumerate(self.regex_rows):
            if compiled.search(source):
                return True, copy.deepcopy(self.values[i])
        return False, None

    def fetch_regex_union(self, source: str) -> tuple[bool, Any]:
        pat = self.union_re
        if pat is None:
            return False, None
        out = pat.sub(lambda m: ruby_to_s(self.map[m.group(0)]), source)
        if out == source:
            return False, None
        return True, out

    def fetch(self, strategy: str, source: str) -> tuple[bool, Any]:
        if strategy == "exact":
            return self.fetch_exact(source)
        if strategy == "exact_regex":
            return self.fetch_exact_regex(source)
        return self.fetch_regex_union(source)


# --------------------------------------------------------------------------
# Row oracle — direct transcription of the reference semantics
# --------------------------------------------------------------------------

def translate_row(event: dict, cfg: TranslateConfig, snap: DictSnapshot) -> bool:
    """``Translate#filter`` for one dict event; mutates ``event``; returns
    the matched flag (translate.rb:264-271). Errors are NOT swallowed here —
    the caller owns S12 error isolation."""
    shape = cfg.shape
    if shape == "single":
        return _row_single(event, cfg, snap)
    if shape == "array_of_values":
        return _row_array_of_values(event, cfg, snap)
    return _row_array_of_maps(event, cfg, snap)


def _row_single(event: dict, cfg: TranslateConfig, snap: DictSnapshot) -> bool:
    # test_for_inclusion (single_value_update.rb:27-31); nil_is_present is
    # the opt-in reference-faithful presence rule (nil counts as present)
    nil_p = cfg.nil_is_present
    if not cfg.override and event_include(event, cfg.target, nil_p):
        return False
    if not event_include(event, cfg.source, nil_p):
        return False
    source = event_get(event, cfg.source)
    if isinstance(source, list):           # CoerceArray: first elem to_s
        source = ruby_to_s(source[0]) if source else ""
    elif not isinstance(source, str):      # CoerceOther
        source = ruby_to_s(source)
    matched, value = snap.fetch(cfg.strategy, source)
    if matched:
        event_set(event, cfg.target, value)
    elif cfg.fallback is not None:
        event_set(event, cfg.target, sprintf_row(cfg.fallback, event))
        matched = True
    return matched or cfg.in_place


def _row_array_of_values(event: dict, cfg: TranslateConfig, snap: DictSnapshot) -> bool:
    nil_p = cfg.nil_is_present
    if not cfg.override and event_include(event, cfg.target, nil_p):
        return False
    if not event_include(event, cfg.iterate_on, nil_p):
        return False
    val = event_get(event, cfg.iterate_on)
    source = val if isinstance(val, list) else ([] if val is None else [val])
    target: list[Any] = [None] * len(source)
    if cfg.fallback is not None:
        target = [sprintf_row(cfg.fallback, event)] * len(source)
    for i, inner in enumerate(source):
        matched, value = snap.fetch(cfg.strategy, ruby_to_s(inner))
        if matched:
            target[i] = value
    event_set(event, cfg.target, target)
    # Ruby Array#any? — truthiness (nil/false falsy)
    updated = any(v is not None and v is not False for v in target)
    return updated or cfg.in_place


def _row_array_of_maps(event: dict, cfg: TranslateConfig, snap: DictSnapshot) -> bool:
    # inclusion ignores override (array_of_maps_value_update.rb:14-16)
    if not event_include(event, cfg.iterate_on, cfg.nil_is_present):
        return False
    val = event_get(event, cfg.iterate_on)
    source = val if isinstance(val, list) else ([] if val is None else [val])
    matches = [False] * len(source)
    for i, elem in enumerate(source):
        if not isinstance(elem, dict):
            continue
        inner = event_get(elem, cfg.source)
        if inner is None:
            continue
        matched, value = snap.fetch(cfg.strategy, ruby_to_s(inner))
        if matched:
            event_set(elem, cfg.target, value)
            matches[i] = True
        elif cfg.fallback is not None:
            event_set(elem, cfg.target, sprintf_row(cfg.fallback, event))
            matches[i] = True
    # translate.rb:267 `@updater.update(event) || @source == @target`: with
    # source == target an included event fires filter_matched even when no
    # element was written.
    return any(matches) or cfg.in_place


# --------------------------------------------------------------------------
# Vectorized lookups over a string array
# --------------------------------------------------------------------------

def _as_array(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def _is_list(t: pa.DataType) -> bool:
    return pa.types.is_list(t) or pa.types.is_large_list(t)


def lookup_exact(src: pa.Array, snap: DictSnapshot) -> tuple[np.ndarray, Optional[pa.Array], Optional[np.ndarray]]:
    """Exact hash lookup over a string array.

    Returns (matched_mask[np.bool_], values | None, match_index | None):
    ``values`` is an Arrow array aligned with ``src`` when the dictionary
    values unify (vector path); otherwise ``match_index`` (int64, -1 = miss)
    lets the caller materialize Python values for matched rows only.
    """
    if len(snap) == 0:
        return np.zeros(len(src), dtype=bool), None, np.full(len(src), -1)
    idx = pc.index_in(src, value_set=snap.key_array)
    matched = pc.is_valid(idx).to_numpy(zero_copy_only=False)
    varr = snap.value_array
    if varr is not None:
        return matched, pc.take(varr, idx), None
    idx_np = idx.to_numpy(zero_copy_only=False)
    idx_np = np.where(matched, idx_np, -1).astype(np.int64)
    return matched, None, idx_np


def _match_np(src: pa.Array, pattern: str) -> np.ndarray:
    """RE2 match → packed numpy bool. fill_null BEFORE to_numpy: a
    null-bearing boolean converts to a Python OBJECT array otherwise, and
    the np.where/astype chain on it measured 2.2× the RE2 pass itself
    (17.5 → 7.9 ms per 250k-row pattern pass)."""
    return pc.fill_null(pc.match_substring_regex(src, pattern=pattern),
                        False).to_numpy(zero_copy_only=False)


def lookup_exact_regex(src: pa.Array, snap: DictSnapshot,
                       candidates: Optional[np.ndarray] = None
                       ) -> tuple[np.ndarray, Optional[pa.Array], Optional[np.ndarray]]:
    """Ordered first-match-wins regex lookup (S5). Vectorized per pattern:
    one ``pc.match_substring_regex`` pass per dictionary key over the
    not-yet-matched rows; Python ``re`` fallback for RE2-incompatible
    patterns (lookaround/backrefs)."""
    n = len(src)
    match_idx = np.full(n, -1, dtype=np.int64)
    valid = pc.is_valid(src).to_numpy(zero_copy_only=False)
    remaining = valid.copy()
    if candidates is not None:
        remaining &= candidates
    src_np: Optional[np.ndarray] = None
    rows = snap.regex_rows
    if len(rows) >= DictSnapshot.REGEX_GROUPED_MIN:
        # two-level path: one alternation pass per group of 32 keys finds
        # the hit rows; first-match-wins is resolved only on those rows
        for start, end, group_pat in snap.regex_groups:
            if not remaining.any():
                break
            if group_pat is not None:
                hits = _match_np(src, group_pat) & remaining
            else:                                   # python-only singleton
                if src_np is None:
                    src_np = src.to_numpy(zero_copy_only=False)
                hits = np.zeros(n, dtype=bool)
                compiled = rows[start][1]
                for i in np.nonzero(remaining)[0]:
                    hits[i] = compiled.search(src_np[i]) is not None
            if not hits.any():
                continue
            if end - start == 1:
                match_idx[hits] = start
            else:
                # vectorized first-match resolution: per-pattern RE2 passes
                # over the HIT SUBSET only (grouped patterns are arrow-safe
                # by construction), shrinking as earlier keys claim rows —
                # no per-row Python
                idxs = np.nonzero(hits)[0]
                sub = src.take(pa.array(idxs, type=pa.int64()))
                sub_rem = np.ones(len(idxs), dtype=bool)
                for j in range(start, end):
                    if not sub_rem.any():
                        break
                    newly = _match_np(sub, rows[j][0]) & sub_rem
                    match_idx[idxs[newly]] = j
                    sub_rem &= ~newly
            remaining &= ~(match_idx >= 0)
    else:
        # per-pattern passes over the COMPACTED live set: nulls, excluded
        # rows and rows an earlier key already claimed drop out of the RE2
        # scan entirely (a take of the shrinking subset costs far less
        # than scanning claimed rows again — measured on the headline
        # status stage: 4 passes × 250k rows → 140k/105k/70k/35k)
        live = np.nonzero(remaining)[0]
        for j, (raw, compiled, arrow_ok) in enumerate(rows):
            if len(live) == 0:
                break
            sub = src if len(live) == n \
                else src.take(pa.array(live, type=pa.int64()))
            if arrow_ok:
                m_sub = _match_np(sub, raw)
            else:
                sub_np = sub.to_numpy(zero_copy_only=False)
                m_sub = np.fromiter(
                    (s is not None and compiled.search(s) is not None
                     for s in sub_np), dtype=bool, count=len(sub_np))
            match_idx[live[m_sub]] = j
            live = live[~m_sub]
    matched = match_idx >= 0
    varr = snap.value_array
    if varr is not None:
        take_idx = pa.array(np.where(matched, match_idx, 0), type=pa.int64())
        vals = pc.take(varr, take_idx)
        vals = pc.if_else(pa.array(matched), vals, pa.nulls(n, varr.type))
        return matched, vals, None
    return matched, None, match_idx


def lookup_regex_union(src: pa.Array, snap: DictSnapshot,
                       candidates: Optional[np.ndarray] = None
                       ) -> tuple[np.ndarray, pa.Array, None]:
    """gsub-every-occurrence substitution (S6). Inherently per-string
    (callable replacement), but the pattern is compiled once per snapshot
    and the loop runs only over candidate rows; misses short-circuit via a
    vectorized containment pre-filter when the union is a plain alternation."""
    n = len(src)
    pat = snap.union_re
    matched = np.zeros(n, dtype=bool)
    if pat is None or n == 0:
        return matched, pa.nulls(n, pa.string()), None
    if snap.union_sequential_safe:
        # fully vectorized path: per-key leftmost-nonoverlapping literal
        # replacement, provably equivalent (see union_sequential_safe).
        # When the containment prefilter shows a SPARSE hit set, the
        # replace passes run over the COMPACTED hit rows only and the
        # result scatters back through a null-index take (measured on the
        # headline redact at 43% hits: 102 → ~55 ms/250k-row block; above
        # ~75% the prefilter pass stops paying for itself).
        hits_np: Optional[np.ndarray]
        try:
            hits_np = _match_np(src, pat.pattern)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            hits_np = None
        if hits_np is not None and candidates is not None:
            hits_np = hits_np & candidates
        if hits_np is not None and hits_np.sum() < 0.75 * n:
            idxs_np = np.nonzero(hits_np)[0]
            sub = src.take(pa.array(idxs_np, type=pa.int64()))
            orig = sub
            for k, v in zip(snap.keys, snap.values_str):
                sub = pc.replace_substring(sub, pattern=k, replacement=v)
            ch = pc.fill_null(pc.not_equal(sub, orig), False) \
                .to_numpy(zero_copy_only=False)
            matched[idxs_np] = ch
            # scatter: a NULL take index yields a null slot — no Python
            # string assembly for the (majority) unmatched rows
            pos = np.zeros(n, dtype=np.int64)
            pos[idxs_np] = np.arange(len(idxs_np))
            take_idx = pa.array(pos, type=pa.int64(), mask=~matched)
            return matched, _as_array(pc.take(sub, take_idx)), None
        out = src
        for k, v in zip(snap.keys, snap.values_str):
            out = pc.replace_substring(out, pattern=k, replacement=v)
        changed = pc.fill_null(pc.not_equal(out, src), False) \
            .to_numpy(zero_copy_only=False)
        matched = np.asarray(changed, dtype=bool)
        if candidates is not None:
            matched &= candidates
        out = pc.if_else(pa.array(matched), out, pa.nulls(n, pa.string()))
        return matched, _as_array(out), None
    valid = pc.is_valid(src).to_numpy(zero_copy_only=False)
    todo = valid if candidates is None else (valid & candidates)
    # vectorized pre-filter: keys are literal-escaped, so the alternation is
    # RE2-safe — rows with no occurrence at all skip the Python sub loop
    try:
        todo = todo & _match_np(src, pat.pattern)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        pass
    src_np = src.to_numpy(zero_copy_only=False)
    out = np.full(n, None, dtype=object)
    m = snap.map
    sub = pat.sub
    for i in np.nonzero(todo)[0]:
        s = src_np[i]
        r = sub(lambda mt: ruby_to_s(m[mt.group(0)]), s)
        if r != s:
            out[i] = r
            matched[i] = True
    return matched, pa.array(out, type=pa.string()), None


def _lookup(strategy: str, src: pa.Array, snap: DictSnapshot,
            candidates: Optional[np.ndarray] = None):
    if strategy == "exact":
        matched, vals, idx = lookup_exact(src, snap)
        if candidates is not None:
            matched &= candidates
        return matched, vals, idx
    if strategy == "exact_regex":
        return lookup_exact_regex(src, snap, candidates)
    return lookup_regex_union(src, snap, candidates)


def _materialize_values(matched: np.ndarray, idx: np.ndarray,
                        snap: DictSnapshot) -> pa.Array:
    """String-unify path for dictionaries whose values DON'T unify to one
    Arrow type (``value_array is None``): matched values stringify
    Logstash-style and the column is string. This is dataset-invariant —
    decided by the dictionary alone, never by which rows share a block —
    extending the documented fallback-unify deviation (SURVEY §8): a
    single-typed Arrow column cannot hold heterogeneous Ruby objects, and
    the pre-r4 typed writes drifted across blocks (int64 from an all-int
    block, string from a mixed one → ArrowInvalid at concat) or raised a
    block-composition-DEPENDENT ConfigurationError."""
    n = len(matched)
    out = np.full(n, None, dtype=object)
    vals = snap.values
    from .sprintf import _to_s
    for i in np.nonzero(matched)[0]:
        v = vals[idx[i]]
        # null dict value stays null — parity with the vector unify
        # branch, where cast keeps the slot null instead of ""
        out[i] = None if v is None else _to_s(v)
    return pa.array(out.tolist(), type=pa.string())


# --------------------------------------------------------------------------
# Source coercion (S3) — column → lookup-key string column
# --------------------------------------------------------------------------

def coerce_source_column(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
    """Ruby to_s of the source column; list columns take their first element
    (single_value_update.rb:9 CoerceArray; empty array → nil.to_s → "")."""
    col = _as_array(col)
    if _is_list(col.type):
        lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(zero_copy_only=False)
        flat = _as_array(pc.list_flatten(col))
        flat_str = coerce_source_column(flat)
        starts = np.zeros(len(col), dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:] if len(col) > 1 else starts[:0])
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        nonempty = lens > 0
        take = np.where(nonempty, starts, -1)
        take_arr = pa.array(np.where(take >= 0, take, 0), type=pa.int64())
        first = pc.take(flat_str, take_arr)
        # empty list → ""; a null FIRST ELEMENT also coerces to "" (Ruby
        # source.first.to_s with nil first — review r3 fix: the key used to
        # stay null and miss keys/patterns that match "")
        first = pc.fill_null(first, "")
        first = pc.if_else(pa.array(nonempty), first, pa.scalar("", type=pa.string()))
        # null list row → null (handled by inclusion mask upstream)
        return pc.if_else(pa.array(valid), first, pa.nulls(len(col), pa.string()))
    return _as_array(_cast_to_string(col))


# --------------------------------------------------------------------------
# Nested struct paths ("[meta][class]" ⇔ struct column `meta`, child `class`)
# --------------------------------------------------------------------------

def resolve_path_column(tbl: pa.Table, ref: str) -> Optional[pa.Array]:
    """Resolve a (possibly nested) field reference to a column: top-level
    name, or a struct column's child chain. None when the path is absent."""
    parts = parse_field_ref(ref)
    head = parts[0]
    if head not in tbl.column_names:
        return None
    col = _as_array(tbl[head])
    for part in parts[1:]:
        if not pa.types.is_struct(col.type):
            return None
        if isinstance(part, int) or part not in [f.name for f in col.type]:
            return None
        # null parents propagate nulls into the child view
        child = pc.struct_field(col, part)
        parent_null = pc.is_null(col)
        col = _as_array(pc.if_else(parent_null,
                                   pa.nulls(len(col), child.type), child))
    return col


def _rebuild_struct_with_child(struct_arr: pa.Array, parts: list,
                               new_vals: pa.Array,
                               write_mask: np.ndarray) -> pa.Array:
    """Return a copy of ``struct_arr`` with the child at ``parts`` replaced
    by ``new_vals`` where ``write_mask`` (nested write, event_set semantics:
    intermediate structs are materialized for written rows only)."""
    name = parts[0]
    names = [f.name for f in struct_arr.type]
    children = [_as_array(struct_arr.field(i)) for i in range(len(names))]
    if name not in names:
        names.append(name)
        children.append(None)
    i = names.index(name)
    if len(parts) == 1:
        children[i] = _merge_into_target(children[i], new_vals, write_mask)
    else:
        inner = children[i]
        if inner is None or not pa.types.is_struct(inner.type):
            inner = pa.nulls(len(struct_arr), pa.struct([]))
        children[i] = _rebuild_struct_with_child(inner, parts[1:], new_vals,
                                                 write_mask)
    # written rows materialize the struct (event_set creates intermediates)
    still_null = pc.is_null(struct_arr).to_numpy(zero_copy_only=False) \
        & ~write_mask
    return pa.StructArray.from_arrays(children, names,
                                      mask=pa.array(still_null))


def write_path_column(tbl: pa.Table, ref: str, new_vals: pa.Array,
                      write_mask: np.ndarray) -> pa.Table:
    """Write ``new_vals`` at a (possibly nested) field reference where
    ``write_mask``, preserving unwritten rows (S2). Nested paths
    require/extend struct columns. Every shape writes through here,
    scalar and list results alike."""
    parts = parse_field_ref(ref)
    head = parts[0]
    col = _as_array(tbl[head]) if head in tbl.column_names else None
    if len(parts) == 1:
        new_col = _merge_into_target(col, new_vals, write_mask)
    else:
        if col is None or pa.types.is_null(col.type):
            # an all-null column of NULL type is "every row absent" — the
            # struct materializes exactly as for a missing column
            col = pa.nulls(len(tbl), pa.struct([]))
        elif not pa.types.is_struct(col.type):
            raise ConfigurationError(
                f"nested target {ref!r}: column {head!r} is {col.type}, not struct")
        new_col = _rebuild_struct_with_child(col, parts[1:], new_vals,
                                             write_mask)
    if head in tbl.column_names:
        return tbl.set_column(tbl.column_names.index(head), head, new_col)
    return tbl.append_column(head, new_col)


def _null_like(t: pa.DataType) -> bool:
    """A result type that says nothing about the values: null or list<null>."""
    return pa.types.is_null(t) or (_is_list(t) and pa.types.is_null(t.value_type))


def _fresh_null_to_string(arr: pa.Array, n: int) -> pa.Array:
    """Type a FRESH (no pre-existing) target written from a null-typed
    batch result as STRING — the fast paths' `value_array is None → string`
    choice — so an all-miss/all-excluded block cannot drift from its
    siblings at concat (review r4 fuzz). Existing targets instead keep
    their old type (see _merge_into_target)."""
    t = arr.type
    if pa.types.is_null(t):
        return pa.nulls(n, pa.string())
    if _null_like(t):
        return arr.cast(pa.list_(pa.string()))
    return arr


def _list_to_string(arr: pa.Array) -> pa.Array:
    """list<T> → list<string>: the flattened child goes through
    _cast_to_string (ruby_to_s for bool/int/float/str), the offsets are
    rebuilt from the lengths and null rows come from a validity mask."""
    lens = pc.fill_null(pc.list_value_length(arr), 0).to_numpy(zero_copy_only=False)
    child = _as_array(_cast_to_string(_as_array(pc.list_flatten(arr))))
    return pa.ListArray.from_arrays(_list_offsets(lens), child,
                                    mask=pc.is_null(arr))


def _merge_into_target(old: Optional[pa.Array], new_vals: pa.Array,
                       write_mask: np.ndarray) -> pa.Array:
    """``new_vals`` where ``write_mask``, else the existing ``old`` values
    (S2 skip semantics; ``old`` is None for an absent target). One Arrow
    column holds one type, so the two sides unify first — by their types
    alone, never by which rows share a block:

    - a null / list<null> result (no element type to go by) takes the
      existing type, and types a fresh target as string (list<null>
      anchoring);
    - a null / list<null> existing column takes the result's type;
    - any other mismatch renders BOTH sides through _cast_to_string (plain
      pc.cast rejects invalid-utf8 binary and container types, and renders
      floats Arrow-style instead of Ruby-style), element-wise when both
      are lists, so kept list<int64> rows under a list<string> result
      read as their ruby_to_s strings."""
    n = len(write_mask)
    if old is not None and _null_like(new_vals.type) \
            and _is_list(old.type) == _is_list(new_vals.type):
        new_vals = new_vals.cast(old.type)
    new_vals = _fresh_null_to_string(new_vals, n)
    if old is None or pa.types.is_null(old.type):
        old = pa.nulls(n, new_vals.type)
    elif old.type != new_vals.type:
        if _is_list(old.type) and _is_list(new_vals.type):
            if _null_like(old.type):
                old = old.cast(new_vals.type)
            else:
                old, new_vals = _list_to_string(old), _list_to_string(new_vals)
        else:
            old = _as_array(_cast_to_string(old))
            new_vals = _as_array(_cast_to_string(new_vals))
    if write_mask.all():   # skips ~10 ms of if_else per 250k-row list block
        return _as_array(new_vals)
    return _as_array(pc.if_else(pa.array(write_mask), new_vals, old))


# --------------------------------------------------------------------------
# translate_table — the batch kernel (dispatch on cfg.shape)
# --------------------------------------------------------------------------

def translate_table(tbl: pa.Table, cfg: TranslateConfig, snap: DictSnapshot,
                    matched_col: Optional[str] = MATCHED_COL) -> pa.Table:
    """Vectorized ``Translate#filter`` over a whole Arrow batch.

    Adds/overwrites the target column per the configured shape × strategy
    and (unless ``matched_col=None``) a boolean matched column (S15).
    Rows failing inclusion (S1/S2) pass through untouched.
    """
    shape = cfg.shape
    if shape == "single":
        return _table_single(tbl, cfg, snap, matched_col)
    if shape == "array_of_values":
        return _table_array_of_values(tbl, cfg, snap, matched_col)
    return _table_array_of_maps(tbl, cfg, snap, matched_col)


def _with_matched(tbl: pa.Table, matched_col: Optional[str], mask: np.ndarray) -> pa.Table:
    if matched_col is None:
        return tbl
    arr = pa.array(mask)
    if matched_col in tbl.column_names:
        return tbl.set_column(tbl.column_names.index(matched_col), matched_col, arr)
    return tbl.append_column(matched_col, arr)


def _present_mask(tbl: pa.Table, ref: str) -> np.ndarray:
    """Logstash ``Event#include?`` presence under the nil_is_present
    interpretation: a field is present when its PARENT chain is valid — the
    leaf's own null does not make it absent (single_value_update.rb:29-31:
    a present-but-nil field counts as present). Top-level column ⇒ present
    for every row; nested ⇒ AND of each ancestor struct's validity."""
    n = len(tbl)
    parts = parse_field_ref(ref)
    head = parts[0]
    if head not in tbl.column_names:
        return np.zeros(n, dtype=bool)
    col = _as_array(tbl[head])
    mask = np.ones(n, dtype=bool)
    for part in parts[1:]:
        if not pa.types.is_struct(col.type) or isinstance(part, int) \
                or part not in [f.name for f in col.type]:
            return np.zeros(n, dtype=bool)
        mask &= pc.is_valid(col).to_numpy(zero_copy_only=False)
        col = _as_array(pc.struct_field(col, part))
    return mask


def _inclusion_mask(tbl: pa.Table, cfg: TranslateConfig, source_field: str,
                    check_override: bool = True) -> np.ndarray:
    """S1 + S2 as a boolean row mask. Default engine convention: in the
    fixed-schema columnar world "field absent" ⇔ null cell (SURVEY §2 hard
    part (b)). With ``cfg.nil_is_present`` (opt-in Logstash
    ``Event#include?`` parity) a null cell counts as PRESENT-but-nil:
    presence follows the parent chain only, a nil source is looked up as
    "" (CoerceOther nil.to_s) and a nil target blocks unless override.
    Nested struct paths are supported on both source and target."""
    n = len(tbl)
    src_col = resolve_path_column(tbl, source_field)
    if src_col is None:
        return np.zeros(n, dtype=bool)
    if cfg.nil_is_present:
        incl = _present_mask(tbl, source_field)
    else:
        incl = pc.is_valid(src_col).to_numpy(zero_copy_only=False).copy()
    if check_override and not cfg.override and cfg.target != source_field:
        tgt_col = resolve_path_column(tbl, cfg.target)
        if tgt_col is not None:
            if cfg.nil_is_present:
                incl &= ~_present_mask(tbl, cfg.target)
            else:
                incl &= pc.is_null(tgt_col).to_numpy(zero_copy_only=False)
    return incl


def _empty_value_type(cfg: TranslateConfig, snap: DictSnapshot) -> pa.DataType:
    """The value type a block with nothing to write still declares, so it
    concatenates with blocks that did write (reviews r3 + r4): string when
    a fallback is configured or the strategy is regex_union (gsub always
    writes strings, whatever the dictionary's value types), else the
    dictionary's unified value type."""
    if cfg.fallback is not None or cfg.strategy == "regex_union":
        return pa.string()
    varr = snap.value_array
    return varr.type if varr is not None else pa.string()


def _fallback_values(cfg: TranslateConfig, tbl: pa.Table,
                     lens: Optional[np.ndarray] = None
                     ) -> "pa.Scalar | pa.Array | None":
    """The value a miss writes (S7): None without a fallback, one string
    scalar for a static template, else the per-event sprintf column —
    repeated per list element when given the rows' list lengths."""
    if cfg.fallback is None:
        return None
    if is_static(cfg.fallback):
        return pa.scalar(cfg.fallback, type=pa.string())
    fb = _as_array(sprintf_column(cfg.fallback, tbl))
    if lens is not None:
        fb = fb.take(pa.array(np.repeat(np.arange(len(lens)), lens)))
    return fb


def _resolve_values(matched: np.ndarray, vals: Optional[pa.Array],
                    idx: Optional[np.ndarray], snap: DictSnapshot,
                    fallback: "pa.Scalar | pa.Array | None") -> pa.Array:
    """THE per-event decision, shared by every shape: the looked-up value
    where ``matched``, else the fallback.

    BLOCK-INVARIANT typing (documented deviation, SURVEY §8): the target
    type must not depend on which rows share a block — a typed dict
    ({'a': 100}) with a string fallback would otherwise emit int64 from
    an all-hit block and string from a block with one miss, and
    pa.concat_tables of the two raises. So it rests on dataset-invariant
    facts only: a dictionary whose values don't unify (``vals is None``)
    writes strings (_materialize_values); a configured fallback always
    casts the hits to string; otherwise the typed values pass through.
    translate.rb writes heterogeneous Ruby objects per event; a
    single-typed Arrow column cannot."""
    if vals is None:
        vals = _materialize_values(matched, idx, snap)
    if fallback is None:
        return _as_array(vals)
    return _as_array(pc.if_else(pa.array(matched), _cast_to_string(vals),
                                fallback))


def _table_single(tbl: pa.Table, cfg: TranslateConfig, snap: DictSnapshot,
                  matched_col: Optional[str]) -> pa.Table:
    n = len(tbl)
    incl = _inclusion_mask(tbl, cfg, cfg.source)
    if not incl.any():
        # BLOCK-INVARIANT schema on the fast path too: an all-excluded
        # block writes nulls of the type a block with hits would, through
        # the same write path with an all-false mask — values untouched,
        # only types/structure unify.
        out = write_path_column(tbl, cfg.target,
                                pa.nulls(n, _empty_value_type(cfg, snap)), incl)
        return _with_matched(out, matched_col, incl)

    src = coerce_source_column(resolve_path_column(tbl, cfg.source))
    if cfg.nil_is_present:
        # present-but-nil source: Ruby fetches with nil.to_s == ""
        src = _as_array(pc.fill_null(src, ""))
    matched, vals, idx = _lookup(cfg.strategy, src, snap, candidates=incl)
    matched = matched & incl
    new_vals = _resolve_values(matched, vals, idx, snap,
                               _fallback_values(cfg, tbl))
    write_mask = incl if cfg.fallback is not None else matched
    out = write_path_column(tbl, cfg.target, new_vals, write_mask)
    return _with_matched(out, matched_col, incl if cfg.in_place else write_mask)


def _list_offsets(lens: np.ndarray) -> pa.Array:
    off = np.zeros(len(lens) + 1, dtype=np.int32)
    np.cumsum(lens, out=off[1:])
    return pa.array(off, type=pa.int32())


def _any_per_row(elem_mask: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-row OR of an element mask laid out by list lengths."""
    hits = np.concatenate(([0], np.cumsum(elem_mask, dtype=np.int64)))
    ends = np.cumsum(lens)
    return hits[ends] > hits[ends - lens]


def _truthy_hits(matched: np.ndarray, vals: Optional[pa.Array],
                 idx: Optional[np.ndarray], snap: DictSnapshot) -> np.ndarray:
    """Ruby truthiness (nil and false are falsy) of each matched value,
    judged on the dictionary's own values: the string-unify paths render
    false as the truthy string "false"."""
    if vals is None:
        out = np.zeros(len(matched), dtype=bool)
        hits = np.nonzero(matched)[0]
        out[hits] = [snap.values[i] is not None and snap.values[i] is not False
                     for i in idx[hits]]
        return out
    truthy = pc.fill_null(vals, False) if pa.types.is_boolean(vals.type) \
        else pc.is_valid(vals)
    return truthy.to_numpy(zero_copy_only=False) & matched


def _table_array_of_values(tbl: pa.Table, cfg: TranslateConfig, snap: DictSnapshot,
                           matched_col: Optional[str]) -> pa.Table:
    """O4: iterate_on == source; list column element-wise translate (S8)."""
    n = len(tbl)
    it = cfg.iterate_on
    incl = _inclusion_mask(tbl, cfg, it)
    it_col = resolve_path_column(tbl, it)
    if it_col is None or not incl.any():
        # same block-invariance routing as _table_single's fast path
        # (incl is all-false here)
        empty = pa.nulls(n, pa.list_(_empty_value_type(cfg, snap)))
        out = write_path_column(tbl, cfg.target, empty, incl)
        return _with_matched(out, matched_col, incl)

    col = _as_array(it_col)
    if not _is_list(col.type):
        # CoerceOther: Ruby Array(scalar) — a 1-element list per row,
        # EXCEPT Array(nil) == [] (the row oracle's `[] if val is None`):
        # a null scalar row contributes no element, so under
        # nil_is_present it writes an empty list and matched stays False
        valid_np = pc.is_valid(col).to_numpy(zero_copy_only=False)
        scalars = col if valid_np.all() \
            else _as_array(col.filter(pa.array(valid_np)))
        col = pa.ListArray.from_arrays(
            _list_offsets(valid_np.astype(np.int64)),
            coerce_source_column(scalars))
    lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(zero_copy_only=False).astype(np.int64)
    # rows outside the inclusion mask contribute no elements to the kernel
    eff_lens = np.where(incl, lens, 0)
    flat = _as_array(pc.list_flatten(col))
    if not incl.all():
        # select elements of included rows only
        flat = _as_array(flat.filter(pa.array(np.repeat(incl, lens))))
    flat_str = coerce_source_column(flat)
    # a nil ELEMENT is still looked up as "" (array_of_values_update.rb:38
    # `inner.to_s` — unlike a nil scalar source, which is absent per S1)
    flat_str = _as_array(pc.fill_null(flat_str, ""))

    f_matched, f_vals, f_idx = _lookup(cfg.strategy, flat_str, snap)
    # matched per row: Ruby target.any? over the result slots (S8) — a
    # fallback slot is a string, so truthy
    truthy = _truthy_hits(f_matched, f_vals, f_idx, snap)
    if cfg.fallback is not None:
        truthy |= ~f_matched
    row_any = _any_per_row(truthy, eff_lens)
    elem_vals = _resolve_values(f_matched, f_vals, f_idx, snap,
                                _fallback_values(cfg, tbl, eff_lens))
    new_lists = pa.ListArray.from_arrays(_list_offsets(eff_lens), elem_vals)
    out = write_path_column(tbl, cfg.target, new_lists, incl)
    return _with_matched(out, matched_col, incl if cfg.in_place else row_any)


def _table_array_of_maps(tbl: pa.Table, cfg: TranslateConfig, snap: DictSnapshot,
                         matched_col: Optional[str]) -> pa.Table:
    """O5: iterate_on ≠ source; list<struct> column, translate the ``source``
    child into the ``target`` child per element (S9). Offsets surgery, no
    per-row Python (SURVEY §2 hard part (d))."""
    n = len(tbl)
    it = cfg.iterate_on
    if len(parse_field_ref(it)) > 1:
        # the struct-rebuild write-back below is top-level only; a silent
        # no-op here would DIVERGE from the row oracle (review r3) — fail
        # loudly until a nested write-back exists
        raise ConfigurationError(
            f"iterate_on {it!r}: nested field references are not supported "
            "for the array-of-maps shape (top-level list<struct> columns "
            "only)")
    # inclusion ignores override (array_of_maps_value_update.rb:14-16)
    incl = _inclusion_mask(tbl, cfg, it, check_override=False)
    if it not in tbl.column_names:
        return _with_matched(tbl, matched_col, np.zeros(n, dtype=bool))
    # NO `not incl.any()` early return (review r4 fuzz): an all-excluded
    # block must still rebuild the struct with the target child — the
    # untouched schema (no ``dst``) drifted from sibling blocks at concat.
    # The normal path is O(0 elements) for such blocks, and the typed
    # empty lookup keeps the child type block-invariant.

    col = _as_array(tbl[it])
    if pa.types.is_null(col.type):
        # an all-null block materializes as a null-TYPED column in
        # hand-built tables (a real Dataset keeps the schema's list<struct>
        # and takes the normal path) — nothing to iterate, not a type error
        return _with_matched(tbl, matched_col, np.zeros(n, dtype=bool))
    if not _is_list(col.type):
        raise ConfigurationError(
            f"iterate_on column {it!r} must be list<struct>, got {col.type}")
    if pa.types.is_null(col.type.value_type):
        # every list is empty/null → no elements to translate (no-op rows)
        return _with_matched(tbl, matched_col, np.zeros(n, dtype=bool))
    if not pa.types.is_struct(col.type.value_type):
        raise ConfigurationError(
            f"iterate_on column {it!r} must be list<struct>, got {col.type}")

    lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = _as_array(pc.list_flatten(col))  # StructArray of all elements
    inner = flat
    for part in parse_field_ref(cfg.source):
        inner = pc.struct_field(inner, part)
    inner_valid = pc.is_valid(inner).to_numpy(zero_copy_only=False) \
        & pc.is_valid(flat).to_numpy(zero_copy_only=False)
    inner_str = coerce_source_column(inner)

    f_matched, f_vals, f_idx = _lookup(cfg.strategy, inner_str, snap,
                                       candidates=inner_valid.copy())
    f_matched = f_matched & inner_valid
    elem_vals = _resolve_values(f_matched, f_vals, f_idx, snap,
                                _fallback_values(cfg, tbl, lens))
    write_elem = inner_valid if cfg.fallback is not None else f_matched

    # written elements are never null, so the element null mask carries
    # over unchanged; null list rows come back through the validity mask
    new_flat = _rebuild_struct_with_child(flat, parse_field_ref(cfg.target),
                                          elem_vals, write_elem)
    new_col = pa.ListArray.from_arrays(_list_offsets(lens), new_flat,
                                       mask=pc.is_null(col))
    out = tbl.set_column(tbl.column_names.index(it), it, new_col)
    # translate.rb:267 `update(event) || @source == @target`
    row_matched = incl if cfg.in_place else (_any_per_row(write_elem, lens) & incl)
    return _with_matched(out, matched_col, row_matched)
