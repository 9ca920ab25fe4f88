"""Declarative pipeline spec — the migration path for a Logstash user.

A Logstash pipeline using the translate filter looks like:

    input  { ... }
    filter { translate { source => "status" target => "label"
                         dictionary_path => "/etc/dict.csv" fallback => "?" } }
    output { ... }

This module accepts the same information as a YAML/JSON/dict spec and builds
the equivalent Ray Data pipeline:

    input:
      path: /data/transcripts/        # parquet dir/file(s)
      format: parquet                 # parquet | csv | json
    filters:
      - translate:
          source: tool
          target: tool_label
          dictionary: {search: Web Search}     # or dictionary_path: ...
          fallback: none
      - grok:
          source: text
          pattern: '(?P<status>\\b[1-5][0-9]{2}\\b)'
    route:
      key: role
      routes: {user: user_turns, assistant: assistant_turns}
      default: other
    output:
      path: /out/routed
      format: parquet                 # parquet | json

Every ``translate`` block takes the FULL option surface of
:class:`~..config.TranslateConfig` (field/destination aliases, exact/regex,
iterate_on, refresh_*, yaml_* — validation errors match the plugin's).

Text-analysis filter kinds (LLM-data curation; each appends columns):

    - quality: {col: text}          # punct/stop ratios + quality_score
    - repetition: {col: text}       # dup_word_frac, dup_line_frac
    - langid: {col: text}           # lang_pred
    - tokens: {col: text}           # n_tokens_ws, n_tokens_bpe
    - fingerprint: {col: text}      # 64-bit content fingerprint
    - winnow: {col: text, k: 5, w: 4}
    - simhash: {col: text}
    - keep: {column: quality_score, op: ">=", value: 0.5}   # row filter
    - select: {columns: [doc_id, text]}     # project
    - sample: {col: doc_id, fraction: 0.1}  # deterministic hash sample
    - split: {col: doc_id, fractions: [0.8, 0.1, 0.1]}  # adds 'split'

A text kind takes exactly its batch function's keywords (``out`` too,
for fingerprint, langid, simhash and winnow). So a full curation chain
(quality → keep → langid → keep → dedup → tokens) is expressible as a
spec with no Python.

Optional post-route clauses (applied in this order):

    dedup:     {kind: exact | minhash | incremental, ...kwargs}
               # incremental: seen_path (+ optional seen_columns) names the
               # already-ingested corpus; rows whose content appears there
               # are dropped (exact content-hash anti-join)
    post_filters: [...]   # same filter kinds as `filters`, applied AFTER
               # dedup — stages that must see only the survivors (e.g. the
               # curation flagship's token counting)
    knn:       {kind: exact | ivf, k: 5, ...kwargs}
               # kNN join over an embedding column: replaces the rows with
               # the (vec_id, nn_rank, neighbor_id) graph. kind 'ivf' is
               # the IVF-partitioned approximate join (the 100 TB path)
    window:    {kind: tumbling | gap | sessions | paths, ...kwargs}
    aggregate: {group_by: [route, tool_label], count_name: n,
                driver_merge: false}            # kind: counts (default)
    aggregate: {kind: quantiles, key: event_type, val: value,
                qs: [0.5, 0.95, 0.99]}          # exact p50/p95/p99

A clause's kwargs are its function's keywords. No ``dedup`` or ``window``
function takes a group count (the keyed exchange sizes itself from its
input's bytes): naming one fails with Python's ``TypeError``.

With ``post_filters`` + ``select`` the whole curation flagship (quality →
keep → langid → keep → exact dedup → tokens) is a spec with no Python —
see tests/test_pipeline.py::test_spec_curation_flagship.
"""

from __future__ import annotations

import functools
import inspect
import operator
import os
from typing import Callable, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pacsv
import pyarrow.json as pajson
import ray.data as rd

from ..config import TranslateConfig
from ..errors import ConfigurationError
from ..rayutil import _record_schema, map_blocks, run_chain
from ..sources.readers import CSV_NULL_OPTIONS
from ..stages.parse import ExtractRule, GrokRule, ParseConfig, parse_block_fn
from ..stages.route import route_block_fn, write_routed
from ..stages.translate_stage import translate_block_fn


def load_spec(path_or_dict: "str | dict") -> dict:
    if isinstance(path_or_dict, dict):
        return path_or_dict
    with open(path_or_dict) as f:
        text = f.read()
    if path_or_dict.endswith(".json"):
        import json
        return json.loads(text)
    import yaml
    return yaml.safe_load(text)


_KEEP_OPS = {">=": pc.greater_equal, ">": pc.greater, "<=": pc.less_equal,
             "<": pc.less, "==": pc.equal, "!=": pc.not_equal,
             "in": lambda c, v: pc.is_in(c, value_set=pa.array(list(v)))}


def _keep_filter(opts: "dict | None") -> Callable[[pa.Table], pa.Table]:
    """Vectorized row filter: keep rows where <column> <op> <value>."""
    if not isinstance(opts, dict):
        raise ConfigurationError(
            f"keep requires an options mapping, got {opts!r}")
    col, op = opts.get("column"), opts.get("op", "==")
    val = opts.get("value")
    if not col or op not in _KEEP_OPS:
        raise ConfigurationError(
            f"keep requires column + op in {sorted(_KEEP_OPS)}, got {opts}")
    if val is None:
        # a missing value would compare everything against null and
        # silently drop every row — fail validation like other clauses
        raise ConfigurationError(f"keep requires a non-null value: {opts}")
    if op == "in" and (isinstance(val, (str, bytes))
                       or not hasattr(val, "__iter__")):
        raise ConfigurationError(f"keep op 'in' needs a list value: {opts}")

    def fn(t):
        return t.filter(pc.fill_null(_KEEP_OPS[op](t[col], val), False))

    return fn


def _step_fn(kind: str, opts) -> Callable[[pa.Table], pa.Table]:
    """The one builder of a filter step: its block function, with its
    options validated here, at build time."""
    if kind == "translate":
        o = dict(opts)
        matched_col = o.pop("matched_col", None)
        return translate_block_fn(TranslateConfig(**o),
                                  matched_col=matched_col)
    if kind == "grok":
        rule = GrokRule(source=opts["source"], pattern=opts["pattern"],
                        casts=tuple(opts.get("casts", {}).items()))
        return parse_block_fn(ParseConfig(rules=(rule,)))
    if kind == "extract":
        rule = ExtractRule(out=opts["out"], source=opts["source"],
                           pattern=opts["pattern"], cast=opts.get("cast"))
        return parse_block_fn(ParseConfig(rules=(rule,)))
    if kind == "keep":
        return _keep_filter(opts)
    if kind == "select":
        cols = (opts or {}).get("columns")
        if not cols:
            raise ConfigurationError(
                f"select requires a columns list, got {opts!r}")
        return operator.methodcaller("select", list(cols))
    from ..functions import dedup, sampling, text
    opts = dict(opts or {})
    if kind == "sample":
        return sampling.hash_sample_block_fn(**opts)
    if kind == "split":
        return sampling.split_block_fn(**opts)
    batch_fns = {"quality": text.quality_batch,
                 "repetition": text.repetition_batch,
                 "langid": text.langid_batch,
                 "tokens": text.token_count_batch,
                 "fingerprint": text.fingerprint_batch,
                 "winnow": text.winnow_table,
                 "simhash": dedup.simhash_batch}
    if kind not in batch_fns:
        raise ConfigurationError(f"unknown filter kind {kind!r}")
    inspect.signature(batch_fns[kind]).bind(None, **opts)  # bad key: fail now
    return functools.partial(batch_fns[kind], **opts)


def _step_fns(blocks) -> list:
    fns = []
    for i, blk in enumerate(blocks):
        if len(blk) != 1:
            raise ConfigurationError(
                f"filter #{i} must have exactly one key, got {list(blk)}")
        fns.append(_step_fn(*next(iter(blk.items()))))
    return fns


def _chain(ds, fns: list):
    """``fns`` composed into one block map over ``ds`` (none: ``ds``)."""
    return map_blocks(ds, functools.partial(run_chain, tuple(fns))) \
        if fns else ds


def _read_text(ds, schema_of):
    """A CSV or JSON read ``ds`` with the schema ``schema_of()`` recorded
    (Ray's plan of such a read does not know it); nothing is recorded
    when it cannot be inferred."""
    try:
        return _record_schema(ds, schema_of())
    except Exception:
        return ds


def build_from_spec(spec: "str | dict") -> "rd.Dataset":
    """Spec → lazy Dataset (input → filters → route).

    Each filter kind has one builder (:func:`_step_fn`); the filters and
    the route are one ``rayutil.map_blocks`` of their composed block
    functions, like the transcript chain, so an empty result keeps the
    schema the chain gives the input's (parquet: the read's; CSV/JSON:
    the reader's own inference on the first file). A leading ``select``
    is no read projection: ``input.columns`` prunes the read."""
    s = load_spec(spec)
    inp = s.get("input")
    if not inp or "path" not in inp:
        raise ConfigurationError("spec requires input.path")
    fmt = inp.get("format", "parquet")
    if fmt == "parquet":
        kw = {}
        if inp.get("columns"):
            kw["columns"] = list(inp["columns"])
        ds = rd.read_parquet(inp["path"], **kw)
    elif fmt == "csv":
        convert = pacsv.ConvertOptions(**CSV_NULL_OPTIONS)
        ds = rd.read_csv(inp["path"], convert_options=convert)
        # Ray's CSV reader is this streaming reader: the schema it infers
        # from the first block
        ds = _read_text(ds, lambda: pacsv.open_csv(
            ds.input_files()[0], convert_options=convert).schema)
    elif fmt == "json":
        ds = rd.read_json(inp["path"])
        ds = _read_text(
            ds, lambda: pajson.read_json(ds.input_files()[0]).schema)
    else:
        raise ConfigurationError(f"unknown input format {fmt!r}")

    fns = _step_fns(s.get("filters", []))
    if "route" in s:
        r = s["route"]
        fns.append(route_block_fn(dict(r["routes"]), key=r.get("key", "role"),
                                  route_col=r.get("route_col", "route"),
                                  default_route=r.get("default", "other")))
    return _apply_post_clauses(_chain(ds, fns), s)


# every clause _apply_post_clauses handles; run_spec_resumable keys its
# "does this spec have a global phase?" decision off this SAME tuple so a
# new post clause can never be silently dropped on the resumable path
# (review r5: a knn- or post_filters-only spec wrote raw shard rows)
POST_CLAUSE_KEYS = ("dedup", "post_filters", "knn", "window", "aggregate")


def _apply_post_clauses(ds, s: dict):
    """The GLOBAL (cross-shard) clauses: dedup → post_filters → knn →
    window → aggregate. Split out so :func:`run_spec_resumable` can run
    them over the completed shard outputs rather than per shard."""
    if "dedup" in s:
        d = dict(s["dedup"])
        kind = d.pop("kind", "exact")
        from ..functions import dedup as _dedup
        if kind == "exact":
            ds = _dedup.exact_dedup(ds, **d)
        elif kind == "minhash":
            ds, _dropped = _dedup.minhash_dedup(ds, **d)
        elif kind == "incremental":
            # drop rows whose content already exists in a SEEN corpus
            seen_path = d.pop("seen_path", None)
            if not seen_path:
                raise ConfigurationError(
                    "dedup kind 'incremental' requires seen_path")
            seen_cols = d.pop("seen_columns", None)
            seen = rd.read_parquet(seen_path, **(
                {"columns": list(seen_cols)} if seen_cols else {}))
            ds = _dedup.incremental_dedup(ds, seen, **d)
        else:
            raise ConfigurationError(f"unknown dedup kind {kind!r}")

    if "post_filters" in s:
        # row-local stages that must see only the dedup SURVIVORS (the
        # curation flagship's token counting runs here)
        ds = _chain(ds, _step_fns(s["post_filters"]))

    if "knn" in s:
        kn = dict(s["knn"])
        kind = kn.pop("kind", "exact")
        from ..functions import similarity as _sim
        if kind == "exact":
            ds = _sim.knn_join(ds, as_dataset=True, **kn)
        elif kind == "ivf":
            ds = _sim.knn_join_ivf(ds, as_dataset=True, **kn)
        else:
            raise ConfigurationError(
                f"knn.kind must be exact|ivf, got {kind!r}")

    if "window" in s:
        w = dict(s["window"])
        kind = w.pop("kind", None)
        from ..stages import window as _win
        fns = {"tumbling": _win.tumbling_counts,
               "gap": _win.prev_event_gap,
               "sessions": _win.session_counts,
               "paths": _win.event_paths}
        if kind not in fns:
            raise ConfigurationError(
                f"window.kind must be one of {sorted(fns)}, got {kind!r}")
        ds = fns[kind](ds, **w)

    if "aggregate" in s:
        a = dict(s["aggregate"])
        kind = a.pop("kind", "counts")
        if kind == "counts":
            keys = a.pop("group_by", None)
            if not keys:
                raise ConfigurationError("aggregate requires group_by")
            from ..stages.aggregate import grouped_counts
            res = grouped_counts(ds, list(keys),
                                 count_name=a.pop("count_name", "n"),
                                 driver_merge=a.pop("driver_merge", False))
        elif kind == "quantiles":
            from ..stages.aggregate import grouped_quantiles
            res = grouped_quantiles(
                ds, key=a.pop("key", "event_type"),
                val=a.pop("val", "value"),
                qs=tuple(a.pop("qs", (0.5, 0.95, 0.99))))
        else:
            raise ConfigurationError(
                f"aggregate.kind must be counts|quantiles, got {kind!r}")
        ds = rd.from_pandas(res) if not hasattr(res, "map_batches") else res
    return ds


def run_spec(spec: "str | dict") -> "Optional[rd.Dataset]":
    """Build and, if the spec has an output, execute the sink. Returns the
    Dataset when there is no output block (caller consumes it)."""
    s = load_spec(spec)
    ds = build_from_spec(s)
    out = s.get("output")
    if not out:
        return ds
    if "path" not in out:
        raise ConfigurationError("output requires path")
    _write_sink(ds, s, out["path"])
    return None


def _write_sink(ds, s: dict, path: str) -> None:
    """Write ``ds`` to ``path`` as spec ``s``'s ``output`` clause says:
    ``route=`` directories while the rows are routed, else flat files of
    ``output.format``."""
    route_col = s.get("route", {}).get("route_col", "route")
    fmt = s["output"].get("format", "parquet")
    # the route-partitioned sink only applies while the ROUTED ROWS are
    # still the result: an aggregate/window clause replaces them with a
    # reduced frame that has no route column, and the routed writer
    # would crash on it
    if "route" in s and route_col in getattr(ds.schema(), "names", ()):
        write_routed(ds, path, route_col=route_col, file_format=fmt)
    elif fmt == "parquet":
        ds.write_parquet(path)
    elif fmt == "json":
        ds.write_json(path)
    else:
        raise ConfigurationError(f"unsupported output format {fmt!r}")


def run_spec_resumable(spec: "str | dict", out_dir: str,
                       shard_files: int = 4) -> dict:
    """Checkpointed spec execution (the north_rule resume contract for
    DECLARATIVE pipelines): the ROW-LOCAL part of the spec (input →
    filters → route) runs once per input shard with a per-shard manifest
    and an atomically-renamed output directory, so a crashed run re-runs
    only unfinished shards; the GLOBAL clauses (dedup / window /
    aggregate), which need cross-shard visibility, run afterwards over the
    union of completed shard outputs — semantically identical to a
    non-sharded run because each is a function of the full filtered row
    set.

    Returns ``{"shards_run", "shards_skipped", "rows_out", "result"}``
    where ``result`` is the post-clause Dataset (or None when the spec has
    no global clause)."""
    from ..checkpoint import parquet_files, run_shards

    s = load_spec(spec)
    pre_out = (s.get("output", {}) or {}).get("path")
    if pre_out and "://" in pre_out:
        # fail FAST: the tmp+swap sink (and the checkpoint store's
        # os.replace manifests) are local-filesystem operations; catching
        # this after the shards ran would waste the whole pass
        raise ConfigurationError(
            f"spec output.path {pre_out!r}: resumable runs support "
            "local paths only (atomic tmp+swap sink); use run_pipeline "
            "for remote URIs")
    inp = s.get("input")
    if not inp or "path" not in inp:
        raise ConfigurationError("spec requires input.path")
    if inp.get("format", "parquet") != "parquet":
        raise ConfigurationError(
            "run_spec_resumable shards parquet inputs only")
    row_local = {k: s[k] for k in ("filters", "route") if k in s}

    def write_shard(files: list[str], tmp: str) -> dict:
        build_from_spec({"input": {**inp, "path": files},
                         **row_local}).write_parquet(tmp)
        return {}

    ran, skipped, manifests = run_shards(inp["path"], out_dir, shard_files,
                                         write_shard)
    # explicit file list: read_parquet expands a single dir path but not a
    # LIST of dir paths
    shard_parquet = [f for m in manifests for f in parquet_files(m.output_dir)]
    result = None
    if any(k in s for k in POST_CLAUSE_KEYS) and shard_parquet:
        # partitioning=None: the shard=<id> directories of the
        # checkpoint are no hive partition of the rows
        result = _apply_post_clauses(
            rd.read_parquet(shard_parquet, partitioning=None), s)
    out_info = {}
    if s.get("output", {}).get("path"):
        # the spec's own sink, as run_spec writes it: the POST-CLAUSE
        # result (or the routed union when there are no global clauses),
        # in route= dirs while routed — a derived artifact of
        # the checkpointed shard outputs, recomputed cheaply on resume.
        # write_parquet APPENDS uniquely-named files, so a re-submitted
        # command (the advertised resume flow) would duplicate every row in
        # the sink; write to a tmp sibling and SWAP instead (the same
        # pattern as CheckpointStore.finish_shard) so the sink always holds
        # exactly one run's rows
        final_ds = result if result is not None else (
            rd.read_parquet(shard_parquet, partitioning=None)
            if shard_parquet else None)
        if final_ds is not None:
            if not hasattr(final_ds, "write_parquet"):
                final_ds = rd.from_pandas(final_ds)
            import shutil as _shutil
            # remote URIs already rejected at entry (fail-fast check)
            outp = s["output"]["path"].rstrip("/")
            if os.path.exists(outp) and not os.path.isdir(outp):
                raise ConfigurationError(
                    f"spec output.path {outp!r} exists and is not a "
                    "directory")
            tmp = outp + ".inprogress"
            _shutil.rmtree(tmp, ignore_errors=True)
            _write_sink(final_ds, s, tmp)
            # window between rmtree and replace: tmp still holds the full
            # result; a re-run regenerates — no partial/duplicated sink
            _shutil.rmtree(outp, ignore_errors=True)
            os.replace(tmp, outp)
            out_info["output_path"] = s["output"]["path"]
    return {"shards_run": ran, "shards_skipped": skipped,
            "rows_out": sum(m.rows_out for m in manifests),
            "result": result, **out_info}
