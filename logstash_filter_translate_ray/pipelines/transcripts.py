"""The flagship parse → enrich → route → aggregate DAG over transcript
Parquet (BASELINE.json north_star):

  read_transcripts         (the engine's parquet source, column-pruned)
    → parse                  (RE2 kernels)
    → translate tool         (exact dict, broadcast snapshot)
    → translate status       (regex-key dict, ordered first-match)
    → translate word, conv_id segment (100k keys), text redaction
    → route by role          (dictionary-driven route column, fallback)
    → ONE pass fan-out write (hive route=<label> directories)
    → aggregates             (the write tasks' count partials, merged)

Parse, the five translates and route compose into ONE block function
over zero-copy Arrow tables, one step of the plan value
:func:`read_transcripts` returns (``sources.readers.ParquetPlan``: the
engine's parquet source, no Ray Data object). ``write_routed`` runs the
plan in one plain task per input file, and the tasks return the count
partials (stages/route.py), so no Dataset is built and Ray Data's stats
actor never starts up to the aggregates.
The per-turn ``text`` column is never rewritten (input_hint invariant:
per-turn text equality under stable (conv_id, turn_idx) ordering).
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

import pyarrow as pa
import ray
import ray.data as rd

from ..config import TranslateConfig
from ..checkpoint import run_shards
from ..kernel import DictSnapshot
from ..rayutil import _dataset_from, keyed_aggregate, run_chain
from ..sources.readers import ParquetPlan, parquet_source
from ..stages.aggregate import _partial_counts, merge_partials
from ..stages.parse import ParseConfig, parse_block_fn
from ..stages.route import (NULL_ROUTE_DIR, route_block_fn, route_labels,
                            write_routed)
from ..stages.translate_stage import translate_block_fn

# Default dictionaries for the transcript DAG (FIXTURES.md §B): small,
# broadcast, deterministic.
TOOL_DICT = {"search": "Web Search", "code": "Code Interpreter",
             "browser": "Browser", "calc": "Calculator"}
STATUS_REGEX_DICT = {"^2[0-9][0-9]$": "OK", "^3..": "Redirect",
                     "^4..": "Client Error", "^5..": "Server Error"}
WORD_DICT = {"merci": "thanks", "thanks": "thanks", "ok": "ack",
             "error": "failure", "retry": "failure"}
ROLE_ROUTES = {"user": "user_turns", "assistant": "assistant_turns",
               "system": "control", "tool": "tool_calls"}
# union-substitution redaction dictionary (O8 at scale): every occurrence of
# any key in `text` replaced, result written to text_redacted (text itself is
# never rewritten — input_hint invariant)
REDACT_DICT = {"merci": "[MERCI]", "error": "[ERR]", "200": "[OK]",
               "404": "[NOTFOUND]", "503": "[UNAVAIL]"}
# key set chosen to satisfy DictSnapshot.union_sequential_safe (no cross-key
# overlaps), so the hot redaction stage takes the vectorized
# pc.replace_substring fast path instead of per-row re.sub

TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

CONV_SEGMENTS = ("free", "pro", "team", "enterprise", "edu", "gov", "trial")


def make_conv_segment_dict(n_convs: int = 100_000) -> dict[str, str]:
    """Deterministic 100k-entry conv_id → segment dictionary — the
    reference's tested dictionary scale (docs/index.asciidoc:75-77,
    'internally tested with 100,000 key/values')."""
    return {f"conv-{i:08d}": CONV_SEGMENTS[i % len(CONV_SEGMENTS)]
            for i in range(n_convs)}


@functools.lru_cache(maxsize=4)
def conv_segment_snapshot(n_convs: int = 100_000) -> DictSnapshot:
    """The conv_id → segment dictionary as an immutable snapshot, built
    once per process and size, like the reference's register-time
    dictionary: every DAG build shares it instead of rebuilding the 100k
    keys on the driver."""
    return DictSnapshot(make_conv_segment_dict(n_convs))


@dataclass
class TranscriptPipelineConfig:
    tool_dict: dict[str, str] = field(default_factory=lambda: dict(TOOL_DICT))
    status_regex_dict: dict[str, str] = field(
        default_factory=lambda: dict(STATUS_REGEX_DICT))
    word_dict: dict[str, str] = field(default_factory=lambda: dict(WORD_DICT))
    routes: dict[str, str] = field(default_factory=lambda: dict(ROLE_ROUTES))
    tool_fallback: str = "no tool"
    status_fallback: Optional[str] = "unknown status %{status}"
    default_route: str = "other"
    tool_dict_path: Optional[str] = None      # file-backed + refresh variant
    refresh_interval: float = 300
    # None → whole blocks (on the file runner, MAX_BATCH_ROWS-row slices
    # of each file); a number bounds the rows each batch has
    batch_size: Optional[int] = None
    parse: ParseConfig = field(default_factory=ParseConfig.transcripts)
    # heavy enrich stages (on by default; the bench + oracle cover them):
    # 100k-key conv_id → segment broadcast lookup, and union-substitution
    # redaction of text → text_redacted
    redact_dict: dict[str, str] = field(default_factory=lambda: dict(REDACT_DICT))
    conv_dict_size: int = 100_000


def build_enriched_dataset(ds: "ParquetPlan | rd.Dataset",
                           cfg: Optional[TranscriptPipelineConfig] = None,
                           ) -> "ParquetPlan | rd.Dataset":
    """parse → enrich(tool, status, word, segment, redaction) → route, as
    one composed block function: a step added to a ``ParquetPlan`` (no
    Ray Data object), else one ``map_batches`` of the Dataset. Lazy —
    nothing executes. Its schema is not recorded: ``write_routed`` runs
    the plan on the file runner, which needs none."""
    cfg = cfg or TranscriptPipelineConfig()
    fns = [parse_block_fn(cfg.parse)]

    # enrich 1: tool → tool_label (exact; a refreshing DictionaryService if
    # a path is configured, else an inline broadcast snapshot)
    tool_cfg = TranslateConfig(
        source="tool_norm", target="tool_label",
        dictionary={} if cfg.tool_dict_path else dict(cfg.tool_dict),
        dictionary_path=cfg.tool_dict_path,
        refresh_interval=cfg.refresh_interval,
        fallback=cfg.tool_fallback, override=True)
    fns.append(translate_block_fn(tool_cfg, matched_col="tool_matched"))

    # enrich 2: parsed status code → class (regex keys, ordered first-match)
    status_cfg = TranslateConfig(
        source="status", target="status_class", exact=True, regex=True,
        dictionary=dict(cfg.status_regex_dict),
        fallback=cfg.status_fallback, override=True)
    fns.append(translate_block_fn(status_cfg, matched_col="status_matched"))

    # enrich 3: parsed word → normalized sentiment token (exact, no fallback)
    word_cfg = TranslateConfig(source="word", target="word_norm",
                               dictionary=dict(cfg.word_dict), override=True)
    fns.append(translate_block_fn(word_cfg, matched_col="word_matched"))

    # enrich 4: conv_id → account segment, 100k-key exact dict (the
    # reference's tested dictionary scale): the process-wide snapshot,
    # broadcast via ray.put once per build
    if cfg.conv_dict_size > 0:
        seg_cfg = TranslateConfig(
            source="conv_id", target="conv_segment",
            dictionary=conv_segment_snapshot(cfg.conv_dict_size),
            fallback="anon", override=True)
        fns.append(translate_block_fn(seg_cfg, matched_col=None))

    # enrich 5: union-substitution redaction (exact=false gsub, O8) —
    # writes text_redacted, never mutates text
    if cfg.redact_dict:
        redact_cfg = TranslateConfig(source="text", target="text_redacted",
                                     exact=False,
                                     dictionary=dict(cfg.redact_dict))
        fns.append(translate_block_fn(redact_cfg, matched_col=None))

    # route by role (dictionary-driven, single pass)
    fns.append(route_block_fn(cfg.routes, key="role",
                              default_route=cfg.default_route))
    chain = functools.partial(run_chain, tuple(fns))
    if isinstance(ds, ParquetPlan):
        return ds.then(chain, cfg.batch_size)
    return ds.map_batches(chain, batch_format="pyarrow",
                          batch_size=cfg.batch_size)


def read_transcripts(path: "str | list[str]",
                     override_num_blocks: Optional[int] = None,
                     ) -> "ParquetPlan | rd.Dataset":
    """Column-pruned transcript read over the engine's own parquet source
    (:class:`~..sources.readers.ParquetFiles`), as a
    :class:`~..sources.readers.ParquetPlan` that the file runner runs as
    it is. Its Dataset form reads one task per file, or per group of
    files when ``override_num_blocks`` is below the file count, and
    builds with no task. A read task, like the file
    runner's (stages/route.py), hands the chain each file whole, in
    slices of at most ``MAX_BATCH_ROWS`` rows: every stage pays its
    per-block fixed costs (one regex pass per key, one dictionary hash,
    one chunk combine per column) once per file, not once per small
    batch.

    A path the source refuses (a non-local filesystem, hive ``k=v``
    directories) is a Dataset, ``rd.read_parquet`` with the same
    columns, whole files too (``batch_size=None``). A directory with no
    parquet file raises ``FileNotFoundError``."""
    kw = {}
    if override_num_blocks is not None:
        kw["override_num_blocks"] = override_num_blocks
    source = parquet_source(path, TRANSCRIPT_COLUMNS)
    if source is None:
        return rd.read_parquet(path, columns=TRANSCRIPT_COLUMNS,
                               batch_size=None, **kw)
    return ParquetPlan(source, kw)


def run_pipeline(input_path: "str | list[str]", out_dir: Optional[str] = None,
                 cfg: Optional[TranscriptPipelineConfig] = None,
                 ) -> dict[str, Any]:
    """Run the DAG in one pass, writing to ``out_dir`` if given; the
    aggregates are the write tasks' count partials, merged. Small ones
    are pandas frames; ``conv_turn_counts`` (one row PER CONVERSATION) is
    a materialized Dataset from the keyed exchange, never a frame. The
    exchange, its input and this result, is the only part of the run
    that builds a Dataset."""
    cfg = cfg or TranscriptPipelineConfig()
    if out_dir is not None and os.path.isdir(out_dir) and os.listdir(out_dir):
        # every write names its files afresh: rerunning into a non-empty
        # dir would double its rows (review r3) — the resumable runner is
        # the rerun-into-same-dir API
        raise ValueError(
            f"out_dir {out_dir!r} is not empty — remove it or use "
            "run_resumable for checkpointed reruns")
    routes, matched, convs = write_routed(
        build_enriched_dataset(read_transcripts(input_path), cfg), out_dir,
        partials=(_partial_counts(["route", "tool_label"], "n"),
                  _partial_counts(["status_matched"], "n"),
                  _partial_counts(["conv_id"], "turns")))
    # the conv_id partials go from the object store into the exchange,
    # a Dataset built from the metas the write tasks returned beside them
    metas = ray.get([m for _, m in convs])
    convs = keyed_aggregate(
        _dataset_from([(t, m) for (t, _), m in zip(convs, metas)]),
        ["conv_id"], {"turns": ("turns", "sum")})
    return {"sink_counts": merge_partials(_tables(routes),
                                          ["route", "tool_label"]),
            "status_matched_counts": merge_partials(_tables(matched),
                                                    ["status_matched"]),
            "conv_turn_counts": convs}


def _tables(outs: list) -> list:
    """The tables of ``write_routed``'s ``(table, block_meta)`` refs."""
    return ray.get([t for t, _ in outs])


# ---------------------------------------------------------------------------
# Resumable form: shard = group of input files, manifest per shard
# ---------------------------------------------------------------------------

def run_resumable(input_path: "str | list[str]", out_dir: str,
                  cfg: Optional[TranscriptPipelineConfig] = None,
                  shard_files: int = 4) -> dict[str, Any]:
    """Checkpointed run: one manifest + one atomically-renamed output dir
    per input shard; re-running skips completed shards and merges their
    recorded metrics (exactly-once aggregate accounting over at-least-once
    task retries — SURVEY §4 'Retries / faults')."""
    cfg = cfg or TranscriptPipelineConfig()

    def write_shard(files: list[str], tmp: str) -> dict:
        # a null route counts under its directory, hive's default
        # partition, not under the "(null)" a literal route can have
        routes, matched = write_routed(
            build_enriched_dataset(read_transcripts(files), cfg), tmp,
            partials=(_partial_counts(["route"], "n", NULL_ROUTE_DIR),
                      _partial_counts(["status_matched"], "n")))
        routes = merge_partials(_tables(routes), ["route"])
        matched = merge_partials(_tables(matched), ["status_matched"])
        labels = route_labels(pa.array(routes["route"], pa.string()))
        return {"route_counts": dict(zip(labels, map(int, routes["n"]))),
                "matched_counts": {str(m): int(n) for m, n
                                   in matched.itertuples(index=False)}}

    ran, skipped, manifests = run_shards(input_path, out_dir, shard_files,
                                         write_shard)
    route_totals, matched_totals = Counter(), Counter()
    for m in manifests:
        route_totals.update(m.route_counts)
        matched_totals.update(m.matched_counts)
    return {"shards_run": ran, "shards_skipped": skipped,
            "rows_out": sum(m.rows_out for m in manifests),
            "route_counts": dict(route_totals),
            "matched_counts": dict(matched_totals)}
