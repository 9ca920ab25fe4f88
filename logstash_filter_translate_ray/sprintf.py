"""Logstash ``event.sprintf`` — ``%{field}`` interpolation for fallback values.

Reference usage: ``single_value_update.rb:43``, ``array_of_values_update.rb:34``,
``array_of_maps_value_update.rb:33``; behavior spec'd at
``spec/filters/translate_spec.rb:191-207`` ("fallback value - allowed to be
a sprintf", ``%{missing_translation}`` resolved from the event).

Semantics implemented (matching LogStash::StringInterpolation for the subset
the plugin exercises):
- ``%{ref}`` → string form of ``event.get(ref)``; nested refs allowed.
- An unresolvable reference renders as the literal ``%{ref}`` text.
- Text with no ``%{`` is returned as-is (the common static-fallback case).

``%{+date-format}`` sprintf (Logstash formats @timestamp with a Joda
pattern — StringInterpolation's DateFormatCoercer) is REJECTED LOUDLY: the
plugin's own specs never use it, this engine's fixed-schema events have no
@timestamp convention, and silently rendering the pattern as literal text
(the pre-r4 behavior) masked the divergence. A template containing
``%{+...}`` raises :class:`ConfigurationError` at first use (and at config
validation for fallback templates).

Two implementations: a row version for the oracle, and a column compiler
that turns a template into a vectorized Arrow expression over a batch
(per-row fallback values computed once per batch, zero Python-per-row when
the template is static or references string columns).
"""

from __future__ import annotations

import re
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fieldref import event_get, event_include

_REF = re.compile(r"%\{([^}]+)\}")


def check_no_timeformat(template: str) -> None:
    """Raise on the unsupported ``%{+date-format}`` interpolation form
    (reference: single_value_update.rb:43 passes fallback through
    event.sprintf, whose ``+``-prefixed refs are Joda date patterns over
    @timestamp). Rejecting beats the old render-as-literal silent path."""
    for m in _REF.finditer(template):
        if m.group(1).startswith("+"):
            from .errors import ConfigurationError
            raise ConfigurationError(
                f"sprintf template {template!r}: %{{+...}} date-format "
                "interpolation (Logstash @timestamp/Joda) is not supported "
                "by this engine — use a plain %{field} reference or a "
                "static string")


def _bytes_to_s(b: bytes) -> str:
    """THE canonical bytes→string rendering (Ruby byte strings pass
    through to_s unchanged; the columnar convention decodes utf-8 with
    U+FFFD replacement). One copy — ruby_to_s, _to_s and
    _cast_to_string's binary branch must all agree."""
    return b.decode("utf-8", "replace")


def _to_s(value: Any) -> str:
    """Ruby-ish to_s for interpolated values. Containers follow Logstash's
    StringInterpolation: arrays join with ',' (Ruby Array#join, nil → ''),
    hashes render as compact JSON (LogStash::Json.dump) — str() gave the
    Python repr ("['a', 'b']") instead."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"  # Ruby 2.0.to_s == "2.0"
    if isinstance(value, bytes):
        return _bytes_to_s(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_to_s(v) for v in value)
    if isinstance(value, dict):
        import json
        # null members are ABSENT under the engine's null ⇔ absent
        # convention (a struct child that was never written materializes
        # as None in to_pylist) — render {} not {"x":null}, recursively,
        # so the row and column sprintf agree. List slots keep nils
        # (Ruby Array#join renders nil as '').
        return json.dumps(_strip_null_members(value),
                          separators=(",", ":"), default=_to_s)
    return str(value)


def _strip_null_members(v: Any) -> Any:
    if isinstance(v, dict):
        return {k: _strip_null_members(x) for k, x in v.items()
                if x is not None}
    if isinstance(v, (list, tuple)):
        return [_strip_null_members(x) for x in v]
    return v


def sprintf_row(template: str, event: dict) -> str:
    """Row-oriented event.sprintf."""
    if "%{" not in template:
        return template
    check_no_timeformat(template)

    def repl(m: re.Match) -> str:
        ref = m.group(1)
        if event_include(event, ref):
            return _to_s(event_get(event, ref))
        return m.group(0)  # unresolved → literal

    return _REF.sub(repl, template)


def is_static(template: str) -> bool:
    return "%{" not in template


def sprintf_column(template: str, tbl: pa.Table) -> pa.Array:
    """Vectorized event.sprintf over a batch: returns a string array of
    length ``len(tbl)`` with the template rendered per row.

    Static templates produce a constant array. ``%{col}`` segments are
    spliced with ``pc.binary_join_element_wise`` over casted columns;
    a null cell renders as the literal ``%{col}`` (absent-field semantics —
    in the fixed-schema pipeline null ⇔ absent, see SURVEY §2.5 S1 note).
    """
    n = len(tbl)
    if is_static(template):
        return pa.array(np.full(n, template, dtype=object), type=pa.string())
    check_no_timeformat(template)

    from .kernel import resolve_path_column  # nested refs: %{[meta][code]}

    # literal segments ride as SCALARS (binary_join_element_wise
    # broadcasts them): the previous per-batch np.full object arrays
    # allocated millions of Python string slots per 250k-row block in the
    # hot enrich path
    pieces: list = []
    has_array = False
    pos = 0
    for m in _REF.finditer(template):
        pieces.append(pa.scalar(template[pos:m.start()], type=pa.string()))
        ref = m.group(1)
        col = tbl[ref] if ref in tbl.column_names else resolve_path_column(tbl, ref)
        if col is not None:
            s = _cast_to_string(col)
            # null → literal %{ref}
            s = pc.if_else(pc.is_valid(s), s, pa.scalar(m.group(0), type=pa.string()))
            pieces.append(s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s)
            has_array = True
        else:
            pieces.append(pa.scalar(m.group(0), type=pa.string()))
        pos = m.end()
    pieces.append(pa.scalar(template[pos:], type=pa.string()))
    if not has_array:          # every ref unresolved → one constant string
        text = "".join(p.as_py() for p in pieces)
        return pa.array(np.full(n, text, dtype=object), type=pa.string())
    return pc.binary_join_element_wise(*pieces, "")


def _cast_to_string(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    if pa.types.is_string(col.type):
        return col
    if pa.types.is_large_string(col.type):
        # NORMALIZE, don't pass through: the kernel's type-unification
        # branches compare types after this call — a large_string that
        # stays large_string reads as "still different" from string and
        # the merge falls back to null-wiping unwritten values
        return pc.cast(col, pa.string())
    from .kernel import _as_array, _per_distinct
    if pa.types.is_floating(col.type):
        # Ruby Float#to_s keeps a trailing .0; Arrow cast drops it — render
        # each distinct value through _to_s. NULL vs NaN comes from the
        # Arrow VALIDITY (review r3: conflating them turned a genuine NaN
        # value into the absent-field path): a valid NaN is a distinct
        # value and stringifies like the row oracle (str(nan) == 'nan').
        # Widening to float64 is exact (and halffloat has no hash kernel).
        return _per_distinct(pc.cast(col, pa.float64()), _render_each)
    if pa.types.is_timestamp(col.type):
        # str(datetime) omits an all-zero microsecond field; Arrow's cast
        # prints '.000000' — strip it so row/column strings are identical
        s = pc.cast(col, pa.string())
        return pc.replace_substring_regex(s, pattern=r"\.000000$",
                                          replacement="")
    if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type) \
            or pa.types.is_fixed_size_binary(col.type):
        # bytes stringify as utf-8 with U+FFFD replacement (Ruby byte
        # strings pass through to_s unchanged; Arrow's binary→string cast
        # REJECTS invalid utf-8, which crashed the fallback-unify branch
        # on a non-utf8 bytes dictionary value), once per distinct value
        return _per_distinct(col, _render_each)
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type) \
            or pa.types.is_struct(col.type) or pa.types.is_map(col.type):
        # containers render through the ROW rule (_to_s: arrays join ',',
        # hashes compact JSON) — pc.cast(list→string) raises, and the two
        # sprintf implementations must agree. Python per row (nested types
        # cannot be dictionary-encoded), but only for templates that
        # interpolate a container column (rare).
        return _render_each(_as_array(col))
    return pc.cast(col, pa.string())


def _render_each(arr: pa.Array) -> pa.Array:
    """_to_s of every value of ``arr``; null slots stay null."""
    return pa.array([None if v is None else _to_s(v) for v in arr.to_pylist()],
                    type=pa.string())
