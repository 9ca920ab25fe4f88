"""Parse stage — vectorized grok-lite regex extraction over string columns.

The reference plugin does no parsing (Logstash's grok does); the north-star
DAG needs a parse step in front of the translate/enrich stage (SURVEY §3.4).
Implemented as stateless ``map_batches`` with patterns compiled ONCE at
stage-build time and executed with Arrow's RE2 kernels
(``pc.extract_regex`` / ``pc.match_substring_regex``) — zero Python per row.
Patterns RE2 can't compile fall back to Python ``re`` applied per batch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..kernel import _per_distinct


@dataclass(frozen=True)
class ExtractRule:
    """Extract the first match of ``pattern`` group ``group`` from column
    ``source`` into new column ``out`` (null on no match)."""
    out: str
    source: str
    pattern: str          # must contain exactly one capture group
    cast: Optional[str] = None  # arrow type name to cast the capture to


@dataclass(frozen=True)
class GrokRule:
    """Grok-style multi-capture rule: a pattern with NAMED groups
    (``(?P<a>..)...(?P<b>..)``) extracting several columns from one column
    in a single RE2 pass (``pc.extract_regex`` returns a struct; each named
    group becomes a column, all-null on non-matching rows)."""
    source: str
    pattern: str          # named groups only
    casts: tuple = ()     # optional ((group, arrow_type_name), ...)


@dataclass(frozen=True)
class ParseConfig:
    rules: tuple = ()

    @staticmethod
    def transcripts() -> "ParseConfig":
        """Default transcript parse: status codes + sentiment-ish token from
        ``text``, normalized tool token from ``tool``."""
        return ParseConfig(rules=(
            ExtractRule(out="status", source="text",
                        pattern=r"\b([1-5][0-9]{2})\b"),
            ExtractRule(out="word", source="text",
                        pattern=r"\b(merci|thanks|error|retry|ok)\b"),
            ExtractRule(out="tool_norm", source="tool", pattern=r"^\s*([a-z_]+)"),
        ))


def _compile_plan(cfg: ParseConfig):
    """Pre-validate rules against RE2; mark the ones needing Python re.
    All build-TIME: a rule whose output group can't be produced must fail
    here, not inside every map_batches task."""
    plan = []
    # NON-empty probe (CLAUDE.md rule): RE2 compiles lazily and an empty
    # probe validates nothing on several kernels
    probe = pa.array([""], type=pa.string())
    for r in cfg.rules:
        if isinstance(r, GrokRule):
            pc.extract_regex(probe, pattern=r.pattern)   # raises on bad RE2
            plan.append((r, r.pattern, None))
            continue
        # pc.extract_regex needs a named group: inject one at the first
        # UNNAMED, UNESCAPED '(' — (?<!\\) skips a literal \( whose
        # corruption would silently change match semantics
        named = re.sub(r"(?<!\\)\((?!\?)", f"(?P<{r.out}>", r.pattern,
                       count=1)
        if f"(?P<{r.out}>" not in named:
            # no injectable group (e.g. the pattern's only group is already
            # named something else): without this check the plan compiles
            # fine and every worker task dies on struct_field(out)
            from ..errors import ConfigurationError
            raise ConfigurationError(
                f"ExtractRule(out={r.out!r}): pattern {r.pattern!r} has no "
                f"unnamed capture group to bind to {r.out!r} — use exactly "
                f"one unnamed group, or name a group (?P<{r.out}>...) "
                "yourself")
        try:
            pc.extract_regex(probe, pattern=named)
            plan.append((r, named, None))
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            plan.append((r, None, re.compile(r.pattern)))
    return plan


def _set_or_append(tbl: pa.Table, name: str, arr) -> pa.Table:
    """Replace-if-present: re-running a parse stage (or a rule whose out
    collides with a schema column) must not grow duplicate same-named
    fields — later by-name access raises 'Field exists 2 times'."""
    if name in tbl.column_names:
        return tbl.set_column(tbl.column_names.index(name), name, arr)
    return tbl.append_column(name, arr)


def _safe_cast(vals, ty):
    """SQL TRY_CAST semantics: a capture that doesn't fit the target type
    (e.g. a digit run past int64) becomes NULL instead of killing the
    whole job — strict vectorized cast on the fast path, per-value
    fallback only for blocks that actually contain a bad capture."""
    try:
        return pc.cast(vals, ty)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        target = pa.type_for_alias(ty) if isinstance(ty, str) else ty
        out = []
        for s in vals.to_pylist():
            try:
                out.append(None if s is None
                           else pa.scalar(s).cast(target).as_py())
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError,
                    OverflowError, ValueError):
                out.append(None)
        return pa.array(out, type=target)


def _extract(rule: ExtractRule, named: Optional[str],
             pyre: Optional["re.Pattern"], col: pa.Array) -> pa.Array:
    """``rule``'s capture from every value of ``col`` (null on no
    match): RE2 when the plan compiled it (``named``), else Python re."""
    if named is not None:
        vals = pc.struct_field(pc.extract_regex(col, pattern=named), rule.out)
    else:
        vals = pa.array([m.group(1) if s is not None and (m := pyre.search(s))
                         else None for s in col.to_pylist()], type=pa.string())
    return _safe_cast(vals, rule.cast) if rule.cast else vals


def parse_batch(tbl: pa.Table, plan) -> pa.Table:
    for rule, named, pyre in plan:
        if isinstance(rule, GrokRule):
            tbl = _apply_grok(tbl, rule)
            continue
        if rule.source not in tbl.column_names:
            # honor rule.cast here too: blocks lacking the source column
            # must emit the SAME column type as blocks that have it, or
            # dataset-level schema unification fails (the grok branch
            # already does this)
            tbl = _set_or_append(tbl, rule.out,
                                 pa.nulls(len(tbl),
                                          rule.cast or pa.string()))
            continue
        # one extract per distinct value of a repeating column (tool);
        # near-unique text fails the helper's gate and runs per row
        vals = _per_distinct(tbl[rule.source],
                             partial(_extract, rule, named, pyre))
        tbl = _set_or_append(tbl, rule.out, vals)
    return tbl


def _apply_grok(tbl: pa.Table, rule: "GrokRule") -> pa.Table:
    group_names = re.findall(r"\(\?P<([^>]+)>", rule.pattern)
    casts = dict(rule.casts)
    if rule.source not in tbl.column_names:
        for g in group_names:
            tbl = _set_or_append(tbl, g, pa.nulls(len(tbl),
                                                  casts.get(g, pa.string())))
        return tbl
    # one RE2 pass (per distinct value of a repeating column)
    ext = _per_distinct(tbl[rule.source],
                        partial(pc.extract_regex, pattern=rule.pattern))
    for g in group_names:
        vals = pc.struct_field(ext, g)
        if g in casts:
            vals = _safe_cast(vals, casts[g])
        tbl = _set_or_append(tbl, g, vals)
    return tbl


def parse_block_fn(cfg: Optional[ParseConfig] = None):
    """The parse stage as a block function (``pa.Table`` → ``pa.Table``),
    its rules compiled once, here."""
    return partial(parse_batch, plan=_compile_plan(
        cfg or ParseConfig.transcripts()))


def parse_dataset(ds: "ray.data.Dataset", cfg: Optional[ParseConfig] = None,
                  batch_size: Optional[int] = None) -> "ray.data.Dataset":
    # None ⇒ whole blocks (avoid Ray's 1024-row default micro-batching)
    return ds.map_batches(parse_block_fn(cfg), batch_format="pyarrow",
                          batch_size=batch_size)
