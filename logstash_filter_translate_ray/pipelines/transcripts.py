"""The flagship parse → enrich → route → aggregate DAG over transcript
Parquet (BASELINE.json north_star):

  read_parquet (column-pruned, one batch per file)
    → parse                  (RE2 kernels)
    → translate tool         (exact dict, broadcast snapshot)
    → translate status       (regex-key dict, ordered first-match)
    → translate word, conv_id segment (100k keys), text redaction
    → route by role          (dictionary-driven route column, fallback)
    → ONE pass fan-out write (hive route=<label> directories)
    → aggregates             (combiner-style pre-agg, then tiny shuffle)

Parse, the five translates and route compose into ONE block function
over zero-copy Arrow tables. As a Dataset it is one ``map_batches``;
``write_routed`` of it over a :func:`read_transcripts` read runs the same
function as plain tasks, one per input file (stages/route.py). The only
shuffles are the final tiny aggregates over per-batch partials. The
per-turn ``text`` column is never rewritten (input_hint invariant:
per-turn text equality under stable (conv_id, turn_idx) ordering).
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..config import TranslateConfig
from ..checkpoint import parquet_files, run_shards
from ..kernel import DictSnapshot
from ..stages.aggregate import (conv_turn_counts, grouped_counts,
                                matched_counts, sink_counts)
from ..stages.parse import ParseConfig, parse_block_fn
from ..stages.route import (record_file_chain, record_file_read,
                            route_block_fn, write_routed)
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
    batch_size: Optional[int] = None           # None → Ray Data default sizing
    parse: ParseConfig = field(default_factory=ParseConfig.transcripts)
    # heavy enrich stages (on by default; the bench + oracle cover them):
    # 100k-key conv_id → segment broadcast lookup, and union-substitution
    # redaction of text → text_redacted
    redact_dict: dict[str, str] = field(default_factory=lambda: dict(REDACT_DICT))
    conv_dict_size: int = 100_000


def _run_chain(fns: tuple, batch: pa.Table) -> pa.Table:
    """The block functions ``fns`` applied in order."""
    for fn in fns:
        batch = fn(batch)
    return batch


def build_enriched_dataset(ds: "rd.Dataset",
                           cfg: Optional[TranscriptPipelineConfig] = None,
                           ) -> "rd.Dataset":
    """parse → enrich(tool, status, word, segment, redaction) → route, as
    one ``map_batches`` of the composed block function. Lazy — nothing
    executes. Over a :func:`read_transcripts` read, the result is
    recorded as a file chain for ``write_routed``."""
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
    chain = functools.partial(_run_chain, tuple(fns))
    out = ds.map_batches(chain, batch_format="pyarrow",
                         batch_size=cfg.batch_size)
    # the file runner hands the chain whole files (≤128k-row batches),
    # so only the whole-block form may take it
    if cfg.batch_size is None:
        record_file_chain(out, ds, chain)
    return out


def read_transcripts(path: "str | list[str]",
                     override_num_blocks: Optional[int] = None) -> "rd.Dataset":
    """Column-pruned transcript read, one batch per file.
    ``override_num_blocks`` pins the block count — fewer, larger blocks
    (~250k rows) cut per-task scheduling gaps substantially vs Ray's
    adaptive splitting (measured 5.2s vs 7.9s for a 16M-row pass at 16
    CPUs).

    ``batch_size=None`` hands each file to the chain whole (up to Arrow's
    128k-row scanner batch): Ray's parquet reader otherwise cuts a file
    into ~10k-row batches, and every stage pays its per-block fixed costs
    (one regex pass per key, one dictionary hash, one chunk combine per
    column) once per batch instead of once per file (4 times for a
    32k-row file)."""
    kw = {}
    if override_num_blocks is not None:
        kw["override_num_blocks"] = override_num_blocks
    return record_file_read(
        rd.read_parquet(path, columns=TRANSCRIPT_COLUMNS, batch_size=None,
                        **kw), TRANSCRIPT_COLUMNS)


def run_pipeline(input_path: "str | list[str]", out_dir: Optional[str] = None,
                 cfg: Optional[TranscriptPipelineConfig] = None,
                 ) -> dict[str, Any]:
    """Run the DAG once (non-resumable form). Returns the low-cardinality
    aggregates as small pandas frames; ``conv_turn_counts`` (one row PER
    CONVERSATION — whole-input cardinality) is computed at call time on
    the keyed exchange and returned as a materialized Dataset that never
    reaches the driver as a frame — callers sample, aggregate, or sink it.
    When ``out_dir`` is given the routed rows are written as
    hive-partitioned parquet first and the aggregates are then computed
    over the written files (single source of truth)."""
    cfg = cfg or TranscriptPipelineConfig()
    if out_dir is not None and os.path.isdir(out_dir) and os.listdir(out_dir):
        # write_parquet APPENDS uniquely-named files: rerunning into a
        # non-empty dir would double rows and inflate every aggregate
        # (review r3) — the resumable runner is the rerun-into-same-dir API
        raise ValueError(
            f"out_dir {out_dir!r} is not empty — remove it or use "
            "run_resumable for checkpointed reruns")
    ds = build_enriched_dataset(read_transcripts(input_path), cfg)
    if out_dir is not None:
        write_routed(ds, out_dir)
        # aggregates over what was written (single source of truth)
        ds = rd.read_parquet(out_dir)
    # ONE execution of the (lazy) DAG for both small aggregates: the joint
    # count's marginals are the per-sink and matched counters (review r3:
    # two separate grouped_counts calls re-ran the whole enrich chain)
    joint = grouped_counts(ds, ["route", "tool_label", "status_matched"],
                           driver_merge=True)
    routes = joint.groupby(["route", "tool_label"], as_index=False,
                           dropna=False)["n"].sum()
    matched = joint.groupby("status_matched", as_index=False,
                            dropna=False)["n"].sum()
    convs = conv_turn_counts(ds)
    return {"sink_counts": routes, "status_matched_counts": matched,
            "conv_turn_counts": convs}


# ---------------------------------------------------------------------------
# Resumable form: shard = group of input files, manifest per shard
# ---------------------------------------------------------------------------

def _routed_counts(tmp: str) -> dict[str, dict[str, int]]:
    """Manifest counts of one written fan-out shard, from its files: each
    file's ``route=<label>`` directory and footer give ``route_counts``
    (the literal, still percent-encoded label; a null route is
    ``__HIVE_DEFAULT_PARTITION__``), and one read of the ``status_matched``
    column gives ``matched_counts``."""
    files = parquet_files(tmp)
    routes = Counter()
    for f in files:
        label = os.path.basename(os.path.dirname(f)).partition("=")[2]
        routes[label] += pq.read_metadata(f).num_rows
    matched = []
    if files:
        col = pq.read_table(files, columns=["status_matched"],
                            partitioning=None)["status_matched"]
        matched = pc.value_counts(col).to_pylist()
    return {"route_counts": dict(routes),
            "matched_counts": {str(vc["values"]): vc["counts"]
                               for vc in matched}}


def run_resumable(input_path: "str | list[str]", out_dir: str,
                  cfg: Optional[TranscriptPipelineConfig] = None,
                  shard_files: int = 4) -> dict[str, Any]:
    """Checkpointed run: one manifest + one atomically-renamed output dir
    per input shard; re-running skips completed shards and merges their
    recorded metrics (exactly-once aggregate accounting over at-least-once
    task retries — SURVEY §4 'Retries / faults')."""
    cfg = cfg or TranscriptPipelineConfig()

    def write_shard(files: list[str], tmp: str) -> dict:
        write_routed(build_enriched_dataset(read_transcripts(files), cfg), tmp)
        return _routed_counts(tmp)

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
